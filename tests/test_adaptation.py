from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scrubsim.adaptation import (
    _PCG_MULT,
    ESTIMATORS,
    STRATEGIES,
    AdversaryStrategy,
    Budget,
    EstimatorState,
    RegretReport,
    _mul128,
    _replay,
    _seeded_uniform_rows,
    _stack,
    adversary_next,
    best_static_hindsight,
    estimate,
    fpl_estimate,
    loss_accounting,
    normalized_regret,
    per_epoch_regret_report,
    perturbation_bound,
    prev_epoch_estimate,
    regret_experiment,
    run_estimator_on_trace,
    uniform_estimate,
)
from scrubsim.defense_graphs import (
    AttackType,
    builtin_library,
    graph_compute_factor,
    ordered_graphs,
)
from scrubsim.errors import InputError
from scrubsim.simulate import Scenario

LIB = builtin_library()
LIB2 = {g.attack: g for g in ordered_graphs(LIB)[:2]}


def toy_trace():
    """Two attack types, budget 30, three epochs: (10,0), (20,0), (0,30)."""
    return [np.array([[10.0, 0.0]]), np.array([[20.0, 0.0]]), np.array([[0.0, 30.0]])]


class TestAdversary:
    def test_steady_identical_epochs(self):
        strat = AdversaryStrategy("steady", seed=4)
        b = Budget(50.0)
        mixes = [adversary_next(strat, b, t, 5, 3) for t in range(6)]
        for m in mixes[1:]:
            assert np.array_equal(mixes[0], m)

    def test_flip_alternates_two_mixes(self):
        strat = AdversaryStrategy("flipprevepoch", seed=8)
        b = Budget(50.0)
        m0 = adversary_next(strat, b, 0, 5, 3)
        m1 = adversary_next(strat, b, 1, 5, 3)
        m2 = adversary_next(strat, b, 2, 5, 3)
        assert np.array_equal(m0, m2)
        assert not np.array_equal(m0, m1)

    @pytest.mark.parametrize("kind", STRATEGIES)
    def test_budget_conserved(self, kind):
        strat = AdversaryStrategy(kind, seed=3)
        b = Budget(37.5)
        for t in range(20):
            mix = adversary_next(strat, b, t, 4, 4)
            assert mix.sum() == pytest.approx(37.5, abs=1e-9)
            assert (mix >= 0).all()

    def test_randingress_covers_all_attacks(self):
        strat = AdversaryStrategy("randingress", seed=1)
        mix = adversary_next(strat, Budget(40.0), 0, 5, 4)
        active_rows = {e for e in range(5) if mix[e].sum() > 0}
        for e in active_rows:
            assert (mix[e] > 0).all()
            assert len(set(mix[e])) == 1

    def test_deterministic_per_seed_epoch(self):
        strat = AdversaryStrategy("randhybrid", seed=2)
        a = adversary_next(strat, Budget(10.0), 7, 4, 4)
        b = adversary_next(strat, Budget(10.0), 7, 4, 4)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("kind", STRATEGIES)
    def test_degenerate_single_cell(self, kind):
        # One pop, one attack type: the whole budget lands in the only cell,
        # even for the flip strategy whose two draws cannot differ.
        strat = AdversaryStrategy(kind, seed=5)
        for t in range(4):
            mix = adversary_next(strat, Budget(9.0), t, 1, 1)
            assert mix.shape == (1, 1)
            assert mix[0, 0] == pytest.approx(9.0)


class TestFpl:
    def test_empty_history_bound(self):
        # B=30, one pop, two attacks: every cell within [0, 30].
        state = EstimatorState("fpl", 1, 2)
        assert perturbation_bound(30.0, 1, 1, 2) == pytest.approx(30.0)
        for seed in range(50):
            est = fpl_estimate(state, Budget(30.0), np.random.default_rng(seed))
            assert (est >= 0).all() and (est <= 30.0 + 1e-12).all()

    def test_converges_on_constant_history(self):
        target = np.array([[5.0, 1.0], [0.0, 4.0]])
        state = EstimatorState("fpl", 2, 2)
        for _ in range(200):
            state.observe(target)
        est = fpl_estimate(state, Budget(10.0), np.random.default_rng(0))
        bound = perturbation_bound(10.0, 201, 2, 2)
        assert bound < 0.025
        assert np.all(est >= target - 1e-12)
        assert np.all(est <= target + bound + 1e-12)

    def test_deterministic_per_seed(self):
        state = EstimatorState("fpl", 2, 2)
        state.observe(np.ones((2, 2)))
        a = fpl_estimate(state, Budget(8.0), np.random.default_rng(42))
        b = fpl_estimate(state, Budget(8.0), np.random.default_rng(42))
        assert np.array_equal(a, b)


class TestPrevEpoch:
    def test_zero_start(self):
        state = EstimatorState("prevepoch", 2, 3)
        assert np.array_equal(prev_epoch_estimate(state), np.zeros((2, 3)))

    def test_returns_last(self):
        state = EstimatorState("prevepoch", 1, 2)
        x, y = np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]])
        state.observe(x)
        state.observe(y)
        assert np.array_equal(prev_epoch_estimate(state), y)
        assert np.array_equal(prev_epoch_estimate(state), y)  # idempotent


class TestUniform:
    def test_fifteen_each(self):
        assert np.array_equal(uniform_estimate(Budget(30.0), 1, 2),
                              np.array([[15.0, 15.0]]))

    def test_zero_budget(self):
        assert np.array_equal(uniform_estimate(0.0, 2, 2), np.zeros((2, 2)))

    def test_conserves_budget(self):
        est = uniform_estimate(Budget(42.0), 3, 4)
        assert est.sum() == pytest.approx(42.0)


class TestLossAccounting:
    def test_toy_trace_losses(self):
        # Previous-epoch replay from a zero start over the toy trace.
        state = EstimatorState("prevepoch", 1, 2)
        wastage, evasion = [], []
        for mix in toy_trace():
            prov = prev_epoch_estimate(state)
            w, v, _ = loss_accounting(prov, mix, LIB2)
            wastage.append(w)
            evasion.append(v)
            state.observe(mix)
        assert wastage == [0.0, 0.0, 20.0]
        assert evasion == [10.0, 10.0, 30.0]

    def test_exact_provision_zero_loss(self):
        m = np.array([[3.0, 4.0]])
        assert loss_accounting(m, m, LIB2) == (0.0, 0.0, 0.0)

    def test_signed_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            prov = rng.uniform(0, 10, size=(2, 2))
            act = rng.uniform(0, 10, size=(2, 2))
            w, v, _ = loss_accounting(prov, act, LIB2)
            assert w - v == pytest.approx(float((prov - act).sum()))

    def test_vm_conversion_uses_compute_factor(self):
        graphs = ordered_graphs(LIB2)
        prov = np.array([[7.0, 0.0]])
        act = np.zeros((1, 2))
        _w, _v, wvm = loss_accounting(prov, act, LIB2)
        assert wvm == pytest.approx(7.0 * graph_compute_factor(graphs[0]))


class TestBestStaticHindsight:
    def test_constant_trace(self):
        t = np.array([[2.0, 5.0]])
        static, loss = best_static_hindsight([t, t, t])
        assert np.array_equal(static, t)
        assert loss == 0.0

    def test_two_point_cell(self):
        static, loss = best_static_hindsight([np.array([[0.0]]), np.array([[10.0]])])
        assert loss == pytest.approx(10.0)
        assert float(static[0, 0]) in (0.0, 5.0, 10.0)

    def test_toy_trace_beats_prevepoch(self):
        _static, loss = best_static_hindsight(toy_trace())
        assert loss <= 70.0
        # Full grid-search oracle over observed values per cell.
        stack = np.stack(toy_trace())
        grid_best = 0.0
        for e in range(1):
            for a in range(2):
                series = stack[:, e, a]
                grid_best += min(float(np.abs(series - v).sum())
                                 for v in (0.0, 10.0, 20.0, 30.0))
        assert loss == pytest.approx(grid_best)

    def test_matches_full_grid_on_random_traces(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            trace = [np.round(rng.uniform(0, 9, size=(2, 2))) for _ in range(6)]
            _static, loss = best_static_hindsight(trace)
            stack = np.stack(trace)
            want = 0.0
            for e in range(2):
                for a in range(2):
                    series = stack[:, e, a]
                    want += min(float(np.abs(series - v).sum())
                                for v in np.unique(series))
            assert loss == pytest.approx(want)

    def test_empty_trace_rejected(self):
        with pytest.raises(InputError):
            best_static_hindsight([])

    def test_tie_break_keeps_the_mean_below_the_observed_value(self):
        # Column 1 of this trace is 0, 10, 5, 10/3, 5, 0, 0 in every pop. The
        # grid tries its mean, 3.333333333333333, before the observed
        # 3.3333333333333335 one ulp above it (the lower median) and keeps
        # the first within 1e-12 of the best loss.
        trace = [adversary_next(AdversaryStrategy("randattack", 14), Budget(30.0), t, 3,
                                len(LIB)) for t in range(7)]
        static, _loss = best_static_hindsight(trace)
        stack = np.stack(trace)
        lower_median = np.partition(stack, 3, axis=0)[3]
        for e in range(3):
            assert static[e, 1] == 3.333333333333333
            assert lower_median[e, 1] == 3.3333333333333335


class TestNormalizedRegret:
    def test_static_replay_zero_regret(self):
        trace = toy_trace()
        static, _loss = best_static_hindsight(trace)
        wastage, evasion, wvm = [], [], []
        for mix in trace:
            w, v, m = loss_accounting(static, mix, LIB2)
            wastage.append(w)
            evasion.append(v)
            wvm.append(m)
        rep = normalized_regret(trace, wastage, evasion, wvm, LIB2)
        assert rep.regret_combined == pytest.approx(0.0, abs=1e-12)
        # Each loss series needs one value per epoch of the trace.
        for k in range(3):
            series = [wastage, evasion, wvm]
            series[k] = series[k][:-1]
            with pytest.raises(InputError, match="loss series must align"):
                normalized_regret(trace, *series, LIB2)

    def test_prevepoch_positive_on_toy_trace(self):
        rep = run_estimator_on_trace("prevepoch", toy_trace(), Budget(30.0), LIB2)
        assert rep.regret_combined > 0
        assert sum(rep.wastage_gbps) + sum(rep.evasion_gbps) == pytest.approx(70.0)

    def test_scale_invariance(self):
        trace = toy_trace()
        rep1 = run_estimator_on_trace("prevepoch", trace, Budget(30.0), LIB2)
        scaled = [3.0 * m for m in trace]
        rep2 = run_estimator_on_trace("prevepoch", scaled, Budget(90.0), LIB2)
        assert rep1.regret_combined == pytest.approx(rep2.regret_combined)
        assert rep1.regret_g2 == pytest.approx(rep2.regret_g2)


def test_fpl_regret_shrinks_with_the_horizon():
    """No regret means normalized regret falls as the horizon grows. Over
    seeds 0-9 fpl's combined regret at T = 1000 is below its T = 50 value on
    every strategy but randhybrid, where it plateaus: the cellwise L1 loss
    makes each cell's median the best static, while fpl follows the running
    mean."""
    strategies = ("randingress", "randattack", "flipprevepoch", "steady")

    def regret(epochs):
        rows = regret_experiment(n_pops=6, budget=Budget(100.0), lib=LIB, epochs=epochs,
                                 seeds=list(range(10)), strategies=strategies,
                                 estimators=("fpl",))
        return {r.strategy: r.mean_regret_combined for r in rows}

    short, long = regret(50), regret(1000)
    for strategy in strategies:
        assert long[strategy] < short[strategy], (strategy, short, long)


class TestLagContract:
    def test_estimates_blind_to_current_epoch(self):
        # Two traces that differ only in their final epoch must produce the
        # same estimate at every epoch (the estimator sees history < t only).
        strat = AdversaryStrategy("randhybrid", seed=0)
        b = Budget(20.0)
        base = [adversary_next(strat, b, t, 3, 2) for t in range(8)]
        altered = [m.copy() for m in base]
        altered[-1] = np.zeros_like(altered[-1])
        altered[-1][0, 0] = 20.0

        def estimates(trace):
            state = EstimatorState("fpl", 3, 2)
            out = []
            for t, mix in enumerate(trace):
                out.append(fpl_estimate(state, b, np.random.default_rng([7, t])))
                state.observe(mix)
            return out

        for ea, eb in zip(estimates(base), estimates(altered)):
            assert np.array_equal(ea, eb)


class TestEstimatorDispatch:
    def test_gamma_validation(self):
        with pytest.raises(InputError, match="gamma must be >= 1"):
            Scenario(epochs=1, budget_gbps=1.0, adversary="steady", estimator="fpl",
                     gamma=0.5)

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            EstimatorState("magic", 1, 1)

    def test_estimate_dispatch(self):
        state = EstimatorState("uniform", 2, 2)
        est = estimate(state, Budget(8.0))
        assert est.sum() == pytest.approx(8.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_budget_and_gamma_rejected(self, value):
        with pytest.raises(InputError, match="budget must be > 0 and finite"):
            Budget(value)
        with pytest.raises(InputError, match="gamma must be >= 1 and finite"):
            Scenario(epochs=1, budget_gbps=1.0, adversary="steady", estimator="fpl",
                     gamma=value)


# ---------------------------------------------------------------------------
# Replays score a whole trace at once; the reference below is the plain
# per-epoch loop, and the two must agree bit for bit.


def _loop_losses(provisioned, actual, lib):
    """One epoch's (wastage, evasion, VM wastage), summed cell by cell."""
    wast = np.maximum(provisioned - actual, 0.0)
    evas = np.maximum(actual - provisioned, 0.0)
    factors = np.array([graph_compute_factor(g) for g in ordered_graphs(lib)])
    return float(wast.sum()), float(evas.sum()), float((wast.sum(axis=0) * factors).sum())


def _loop_provisions(kind, trace, budget, seed):
    """The estimator's provision for each epoch, epoch by epoch: estimate
    from what was observed so far, then observe the epoch's mix."""
    n_pops, n_attacks = trace[0].shape
    state = EstimatorState(kind, n_pops, n_attacks)
    provisions = []
    for t, mix in enumerate(trace):
        rng = np.random.default_rng([seed, t]) if kind == "fpl" else None
        provisions.append(estimate(state, budget, rng))
        state.observe(mix)
    return provisions


def _loop_series(kind, trace, budget, lib, seed):
    """Per-epoch estimator losses and the hindsight static's losses, epoch by
    epoch: estimate, score, then observe."""
    est = [_loop_losses(prov, mix, lib)
           for prov, mix in zip(_loop_provisions(kind, trace, budget, seed), trace)]
    static, static_loss = best_static_hindsight(trace)
    return est, [_loop_losses(static, mix, lib) for mix in trace], static_loss


def _grid_hindsight(trace):
    """The hindsight static by a scalar grid: per cell, price every observed
    value and the mean one at a time, in ascending order, keeping each that
    beats the best loss so far by more than 1e-12."""
    stack = np.stack([np.asarray(m, dtype=float) for m in trace])
    n_t, n_e, n_a = stack.shape
    static = np.zeros((n_e, n_a))
    total = 0.0
    for e in range(n_e):
        for a in range(n_a):
            series = stack[:, e, a]
            best_v, best_loss = 0.0, float("inf")
            for v in sorted(set(series.tolist()) | {float(series.mean())}):
                loss = float(np.abs(series - v).sum())
                if loss < best_loss - 1e-12:
                    best_v, best_loss = v, loss
            static[e, a] = best_v
            total += best_loss
    return static, total


def _loop_report(kind, trace, budget, lib, seed):
    est, stat, static_loss = _loop_series(kind, trace, budget, lib, seed)
    wast, evas, wvm = (list(col) for col in zip(*est))
    s_wast = s_evas = 0.0
    for w, v, _m in stat:
        s_wast += w
        s_evas += v
    est_w, est_v = float(sum(wast)), float(sum(evas))
    floor = 0.01 * float(sum(m.sum() for m in trace))

    def ratio(loss, ref):
        return (loss - ref) / max(ref, floor, 1e-12)

    return RegretReport(
        wastage_gbps=wast, evasion_gbps=evas, wastage_vm=wvm,
        cumulative_g1_vm=float(sum(wvm)), cumulative_g2_gbps=est_v,
        static_loss_combined=static_loss, static_wastage_gbps=s_wast,
        static_evasion_gbps=s_evas, regret_combined=ratio(est_w + est_v, static_loss),
        regret_g1=ratio(est_w, s_wast), regret_g2=ratio(est_v, s_evas))


def _loop_per_epoch(strategy_kind, kind, n_pops, budget, lib, epochs, seeds):
    per_seed = []
    for seed in seeds:
        strat = AdversaryStrategy(strategy_kind, seed)
        trace = [adversary_next(strat, budget, t, n_pops, len(lib)) for t in range(epochs)]
        est, stat, _ = _loop_series(kind, trace, budget, lib, seed)
        rows = []
        cum_w = cum_v = cum_vm = s_w = s_v = volume = 0.0
        for t, ((w, v, m), (pw, pv, _pm), mix) in enumerate(zip(est, stat, trace)):
            cum_w += w
            cum_v += v
            cum_vm += m
            s_w += pw
            s_v += pv
            volume += float(mix.sum())
            floor = 0.01 * volume
            rows.append({
                "epoch": float(t), "wastage_gbps": w, "evasion_gbps": v, "wastage_vm": m,
                "cum_g1_vm": cum_vm, "cum_g2_gbps": cum_v,
                "regret_combined": (cum_w + cum_v - s_w - s_v) / max(s_w + s_v, floor, 1e-12),
                "regret_g1": (cum_w - s_w) / max(s_w, floor, 1e-12),
                "regret_g2": (cum_v - s_v) / max(s_v, floor, 1e-12),
            })
        per_seed.append(rows)
    return [{k: float(t) if k == "epoch" else float(np.mean([rows[t][k] for rows in per_seed]))
             for k in per_seed[0][t]} for t in range(epochs)]


def _library(picks):
    """The built-in graphs at ``picks``, renumbered densely in that order."""
    graphs = ordered_graphs(LIB)
    lib = {}
    for k, i in enumerate(picks):
        attack = AttackType(k, graphs[i].attack.name)
        lib[attack] = replace(graphs[i], attack=attack)
    return lib


_picks = st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True)


@st.composite
def _traces(draw):
    """A trace from one of the adversary strategies, or sparse uniform noise."""
    n_pops = draw(st.integers(1, 6))
    lib = _library(draw(_picks))
    epochs = draw(st.integers(1, 40))
    budget = Budget(draw(st.floats(1.0, 500.0)))
    source = draw(st.sampled_from(STRATEGIES + ("noise",)))
    seed = draw(st.integers(0, 2**16))
    if source == "noise":
        rng = np.random.default_rng(seed)
        shape = (n_pops, len(lib))
        trace = [rng.uniform(0.0, budget.b_gbps, shape) * (rng.random(shape) < 0.6)
                 for _ in range(epochs)]
    else:
        strat = AdversaryStrategy(source, seed)
        trace = [adversary_next(strat, budget, t, n_pops, len(lib)) for t in range(epochs)]
    return trace, budget, lib, seed


@st.composite
def _float_traces(draw):
    """Random float traces, up to 300 epochs; half of them draw every cell
    from a few levels, so that values repeat within and across cells."""
    shape = (draw(st.integers(1, 300)), draw(st.integers(1, 5)), draw(st.integers(1, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.uniform(0.0, draw(st.floats(1e-3, 1e4)), shape)
    if draw(st.booleans()):
        levels = values.ravel()[:draw(st.integers(1, 4))]
        values = rng.choice(np.append(levels, 0.0), size=shape)
    return list(values)


class TestTraceScoring:
    @settings(max_examples=200)
    @given(_traces(), st.sampled_from(ESTIMATORS))
    def test_replay_equals_estimator_state_loop(self, case, kind):
        trace, budget, _lib, seed = case
        got = _replay(kind, _stack(trace), budget, seed)
        want = np.array(_loop_provisions(kind, trace, budget, seed))
        assert got.shape == want.shape
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()

    @settings(max_examples=60)
    @given(st.one_of(st.sampled_from((0, 2**32 - 1, 2**32, 2**96, 2**96 + 5, 2**160 - 1)),
                     st.integers(0, 2**160 - 1)),
           st.integers(1, 600), st.integers(1, 196), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_seeded_rows_equal_one_generator_per_epoch(self, seed, n_t, n_pops, n_attacks,
                                                       bound_seed):
        # Seeds of one to five uint32 words: five words run SeedSequence's
        # extra-entropy loop, since the epoch adds one more.
        bounds = np.random.default_rng(bound_seed).uniform(0.0, 100.0, n_t)
        shape = (n_pops, n_attacks)
        got = _seeded_uniform_rows(seed, bounds, shape)
        want = np.array([np.random.default_rng([seed, t]).uniform(0.0, bounds[t], shape)
                         for t in range(n_t)])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [0, 2**32, 2**96 + 5])
    @pytest.mark.parametrize("n_t", [1, 2, 37])
    def test_seeded_rows_at_each_doubling_block(self, seed, n_t):
        # The states come from doubling jumps: 1, 2, 4, 8, 16 and 32 draws
        # fill their blocks exactly, the others end in a partial block.
        bounds = np.random.default_rng(n_t).uniform(0.0, 100.0, n_t)
        for n_draws in (1, 2, 3, 4, 5, 8, 9, 16, 17, 24, 32, 33):
            got = _seeded_uniform_rows(seed, bounds, (n_draws, 1))
            want = np.array([np.random.default_rng([seed, t]).uniform(0.0, bounds[t],
                                                                      (n_draws, 1))
                             for t in range(n_t)])
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), n_draws

    def test_fpl_replay_equals_loop_at_a_multiword_seed(self):
        strat = AdversaryStrategy("randhybrid", 3)
        budget = Budget(80.0)
        trace = [adversary_next(strat, budget, t, 4, 3) for t in range(30)]
        for seed in (2**32, 2**96 + 5):
            got = _replay("fpl", _stack(trace), budget, seed)
            want = np.array(_loop_provisions("fpl", trace, budget, seed))
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [-1, -2**40, 1.5, "3", None])
    def test_fpl_replay_rejects_a_bad_seed(self, seed):
        with pytest.raises(InputError, match="fpl seed must be a non-negative integer"):
            _replay("fpl", np.ones((3, 1, 2)), Budget(5.0), seed)

    def test_other_estimators_take_a_negative_seed(self):
        trace = toy_trace()
        for kind in ("prevepoch", "uniform"):
            assert (run_estimator_on_trace(kind, trace, Budget(30.0), LIB2, seed=-3)
                    == run_estimator_on_trace(kind, trace, Budget(30.0), LIB2, seed=3))

    @settings(max_examples=200)
    @given(_float_traces())
    def test_hindsight_equals_scalar_grid(self, trace):
        static, loss = best_static_hindsight(trace)
        want_static, want_loss = _grid_hindsight(trace)
        assert static.tobytes() == want_static.tobytes()
        assert repr(loss) == repr(want_loss)

    @pytest.mark.parametrize("kind", STRATEGIES)
    def test_hindsight_equals_scalar_grid_at_the_sweep_shape(self, kind):
        # The regret sweep's shape, 6 pops x 4 attacks x 500 epochs: several
        # cells per loss block, and several blocks.
        for seed in (7, 8):
            trace = [adversary_next(AdversaryStrategy(kind, seed), Budget(100.0), t, 6, 4)
                     for t in range(500)]
            static, loss = best_static_hindsight(trace)
            want_static, want_loss = _grid_hindsight(trace)
            assert static.tobytes() == want_static.tobytes()
            assert repr(loss) == repr(want_loss)

    def test_hindsight_equals_scalar_grid_with_distinct_values(self):
        # Every value distinct: 501 candidates per cell, one cell per block.
        trace = list(np.random.default_rng(4).uniform(0.0, 50.0, (500, 3, 2)))
        static, loss = best_static_hindsight(trace)
        want_static, want_loss = _grid_hindsight(trace)
        assert static.tobytes() == want_static.tobytes()
        assert repr(loss) == repr(want_loss)

    def test_hindsight_keeps_the_first_signed_zero(self):
        # A set of a series keeps the first of 0.0 and -0.0, and so must the
        # hindsight static, whatever order a sort leaves equal zeros in.
        series = [[-0.0, 0.0, 0.0, 5.0, 0.0, 0.0, 0.0], [0.0, -0.0, -0.0, 5.0, -0.0, -0.0, -0.0]]
        static, _loss = best_static_hindsight([np.array([[a, b]]) for a, b in zip(*series)])
        assert np.signbit(static[0]).tolist() == [True, False]
        assert static.tolist() == [[0.0, 0.0]]
        rng = np.random.default_rng(11)
        for n_t in (7, 16, 17, 64, 129):
            trace = list(rng.choice([0.0, -0.0, 1.0, 5.0], size=(n_t, 6, 4)))
            static, loss = best_static_hindsight(trace)
            want_static, want_loss = _grid_hindsight(trace)
            assert static.tobytes() == want_static.tobytes()
            assert repr(loss) == repr(want_loss)

    @settings(max_examples=100)
    @given(st.lists(st.one_of(st.sampled_from((0, 2**64 - 1, 2**64, 2**128 - 1)),
                              st.integers(0, 2**128 - 1)), min_size=1, max_size=20),
           st.one_of(st.sampled_from((0, 1, 2**64 - 1, 2**128 - 1, _PCG_MULT)),
                     st.integers(0, 2**128 - 1)))
    def test_mul128_equals_python_ints(self, values, const):
        hi = np.array([v >> 64 for v in values], dtype=np.uint64)
        lo = np.array([v & (2**64 - 1) for v in values], dtype=np.uint64)
        got_hi, got_lo = _mul128(hi, lo, const)
        got = [h << 64 | low for h, low in zip(got_hi.tolist(), got_lo.tolist())]
        assert got == [v * const % 2**128 for v in values]

    @settings(max_examples=50)
    @given(st.integers(1, 6), st.integers(2, 9), st.integers(0, 2**32 - 1),
           st.one_of(st.sampled_from((0, 1, 2**64 - 1, 2**128 - 1, _PCG_MULT)),
                     st.integers(0, 2**128 - 1)))
    def test_mul128_on_column_slices(self, n_rows, n_cols, data_seed, const):
        # 2-D, non-contiguous operands: every other column of a wider array.
        rng = np.random.default_rng(data_seed)
        hi = rng.integers(0, 2**64, (n_rows, 2 * n_cols), dtype=np.uint64, endpoint=False)
        lo = rng.integers(0, 2**64, (n_rows, 2 * n_cols), dtype=np.uint64, endpoint=False)
        hi[0, 0], lo[0, 0] = 2**64 - 1, 2**64 - 1
        got_hi, got_lo = _mul128(hi[:, ::2], lo[:, ::2], const)
        assert got_hi.shape == got_lo.shape == (n_rows, n_cols)
        values = [h << 64 | low for h, low in zip(hi[:, ::2].ravel().tolist(),
                                                   lo[:, ::2].ravel().tolist())]
        got = [h << 64 | low for h, low in zip(got_hi.ravel().tolist(), got_lo.ravel().tolist())]
        assert got == [v * const % 2**128 for v in values]

    def test_stacked_trace_is_used_as_is(self):
        trace = toy_trace()
        stacked = np.array(trace)
        assert _stack(stacked) is stacked
        assert (run_estimator_on_trace("fpl", stacked, Budget(30.0), LIB2, seed=2)
                == run_estimator_on_trace("fpl", trace, Budget(30.0), LIB2, seed=2))
        with pytest.raises(InputError, match="trace must be nonempty"):
            best_static_hindsight(np.zeros((0, 1, 2)))
        with pytest.raises(InputError, match="trace must be nonempty"):
            run_estimator_on_trace("uniform", np.zeros((0, 1, 2)), Budget(30.0), LIB2)

    @settings(max_examples=150)
    @given(_traces(), st.sampled_from(ESTIMATORS))
    def test_replay_equals_per_epoch_loop(self, case, kind):
        trace, budget, lib, seed = case
        got = run_estimator_on_trace(kind, trace, budget, lib, seed=seed)
        assert got == _loop_report(kind, trace, budget, lib, seed)

    @settings(max_examples=40)
    @given(st.sampled_from(STRATEGIES), st.sampled_from(ESTIMATORS), st.integers(1, 6),
           _picks, st.integers(1, 40), st.lists(st.integers(0, 999), min_size=1, max_size=10))
    def test_per_epoch_report_equals_loop(self, strategy, kind, n_pops, picks, epochs, seeds):
        lib = _library(picks)
        args = (strategy, kind, n_pops, Budget(50.0), lib, epochs, seeds)
        assert per_epoch_regret_report(*args) == _loop_per_epoch(*args)

    @settings(max_examples=100)
    @given(_traces())
    def test_running_mean_equals_np_mean(self, case):
        # Zero budget, zero perturbation: the fpl estimate is the mean. numpy
        # sums the history row by row, as observe() does, except when a mix
        # has one cell: then it sums the history pairwise, and the two may
        # differ by rounding, bounded by the history length in ulps.
        trace, _budget, _lib, _seed = case
        n_pops, n_attacks = trace[0].shape
        state = EstimatorState("fpl", n_pops, n_attacks)
        for mix in trace:
            state.observe(mix)
            mean = fpl_estimate(state, 0.0, np.random.default_rng(0))
            want = np.mean(state.history, axis=0)
            if n_pops * n_attacks > 1:
                assert np.array_equal(mean, want)
            else:
                eps = np.finfo(float).eps
                assert np.allclose(mean, want, rtol=len(state.history) * eps, atol=0.0)
