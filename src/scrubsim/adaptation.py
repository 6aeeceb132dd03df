"""Online adaptation against dynamic adversaries.

The adversary re-apportions a fixed traffic budget across ingresses and
attack types each epoch; the defender estimates the next mix one epoch
behind. Estimators: perturbed-mean (empirical average plus a decaying
uniform random component), previous-epoch replay, and a uniform spread.
Losses are wastage (overprovisioned Gbps / VM slots) and evasion (attack
Gbps that found no provision), reported per epoch and as normalized regret
against the best static provision in hindsight. A replay stacks its trace
once into an (epochs, pops, attacks) array and runs as whole-array passes
over it: every estimator's provisions are built at once (perturbed-mean's
noise for epoch t is the stream of ``default_rng([seed, t])``: every
epoch's seed hash, PCG64 states and draws come from array passes, with no
generator built), the losses are scored in one pass, and the hindsight
search sorts every cell's candidates at once, prices them in blocked
broadcasts and scans them across all cells together.
Per-epoch scoring is the one-epoch case of it; the simulator's online loop
uses ``EstimatorState`` and ``estimate`` instead.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .defense_graphs import (AnnotatedGraph, AttackType, graph_compute_factor, ordered_graphs,
                             sequential_sum)
from .errors import InputError

STRATEGIES = ("randingress", "randattack", "randhybrid", "steady", "flipprevepoch")
ESTIMATORS = ("fpl", "prevepoch", "uniform")

# Regret denominators are floored at this fraction of the trace's cumulative
# attack volume so that a perfect static reference (loss ~0, e.g. against a
# steady adversary) yields large-but-finite normalized regret.
_REGRET_FLOOR_FRACTION = 0.01

# Elements per broadcast block when pricing hindsight candidates: one block
# of a few cells stays in cache, where pricing every cell at once does not.
_LOSS_BLOCK = 1 << 15


@dataclass(frozen=True)
class Budget:
    b_gbps: float

    def __post_init__(self):
        if not (0 < self.b_gbps < math.inf):
            raise InputError("budget must be > 0 and finite")


def _gbps(budget: "Budget | float") -> float:
    return budget.b_gbps if isinstance(budget, Budget) else float(budget)


@dataclass(frozen=True)
class AdversaryStrategy:
    kind: str
    seed: int = 0

    def __post_init__(self):
        if self.kind not in STRATEGIES:
            raise InputError(f"unknown adversary strategy {self.kind!r}")


def _subset(rng: random.Random, n: int) -> list[int]:
    """Uniform random nonempty subset (each element in with probability 1/2,
    redrawn while empty)."""
    while True:
        picked = [i for i in range(n) if rng.random() < 0.5]
        if picked:
            return picked


def _steady_mix(seed_key: str, budget: float, n_pops: int, n_attacks: int) -> np.ndarray:
    rng = random.Random(seed_key)
    attack = rng.randrange(n_attacks)
    ingresses = _subset(rng, n_pops)
    mix = np.zeros((n_pops, n_attacks))
    for e in ingresses:
        mix[e, attack] = budget / len(ingresses)
    return mix


def adversary_next(strategy: AdversaryStrategy, budget: Budget, epoch: int,
                   n_pops: int, n_attacks: int) -> np.ndarray:
    """The adversary's mix for this epoch; the full budget is always spent.

    Deterministic per (strategy seed, epoch): per-epoch randomness derives
    from the strategy seed.
    """
    if epoch < 0:
        raise InputError("epoch must be >= 0")
    if n_pops < 1 or n_attacks < 1:
        raise InputError("need at least one pop and one attack type")
    b = budget.b_gbps
    if strategy.kind == "steady":
        return _steady_mix(f"{strategy.seed}:steady", b, n_pops, n_attacks)
    if strategy.kind == "flipprevepoch":
        first = _steady_mix(f"{strategy.seed}:flip0", b, n_pops, n_attacks)
        for retry in range(100):
            second = _steady_mix(f"{strategy.seed}:flip1:{retry}", b, n_pops, n_attacks)
            if not np.array_equal(first, second):
                break
        return first if epoch % 2 == 0 else second

    rng = random.Random(f"{strategy.seed}:{epoch}")
    mix = np.zeros((n_pops, n_attacks))
    if strategy.kind == "randingress":
        ingresses = _subset(rng, n_pops)
        share = b / (len(ingresses) * n_attacks)
        for e in ingresses:
            mix[e, :] = share
    elif strategy.kind == "randattack":
        attacks = _subset(rng, n_attacks)
        share = b / (n_pops * len(attacks))
        for a in attacks:
            mix[:, a] = share
    else:  # randhybrid
        ingresses = _subset(rng, n_pops)
        attacks = _subset(rng, n_attacks)
        share = b / (len(ingresses) * len(attacks))
        for e in ingresses:
            for a in attacks:
                mix[e, a] = share
    return mix


def check_estimator(kind: str) -> None:
    if kind not in ESTIMATORS:
        raise InputError(f"unknown estimator {kind!r}")


@dataclass
class EstimatorState:
    kind: str
    n_pops: int
    n_attacks: int
    history: list[np.ndarray] = field(default_factory=list, init=False)
    # Running sum of ``history``, kept by observe() (the only way to grow it).
    _total: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        check_estimator(self.kind)

    def observe(self, mix: np.ndarray) -> None:
        mix = np.array(mix, dtype=float)
        self.history.append(mix)
        if self._total is None:
            self._total = mix.copy()
        else:
            self._total += mix


def perturbation_bound(budget: float, next_epoch: "int | np.ndarray", n_pops: int,
                       n_attacks: int) -> "float | np.ndarray":
    return 2.0 * budget / (next_epoch * n_pops * n_attacks)


def fpl_estimate(state: EstimatorState, budget: "Budget | float",
                 rng: np.random.Generator) -> np.ndarray:
    """Empirical mean of past mixes plus an independent uniform perturbation
    per cell, drawn from [0, 2B / (nextEpoch * |E| * |A|)].

    The mean is the running sum over the history count: the same row-by-row
    additions as ``np.mean(history, axis=0)``, so the same bits, except for a
    single-cell mix, where numpy sums the history pairwise instead.
    """
    n_pops, n_attacks = state.n_pops, state.n_attacks
    next_epoch = len(state.history) + 1
    if state.history:
        mean = state._total / len(state.history)
    else:
        mean = np.zeros((n_pops, n_attacks))
    bound = perturbation_bound(_gbps(budget), next_epoch, n_pops, n_attacks)
    estimate = mean + rng.uniform(0.0, bound, size=(n_pops, n_attacks))
    return np.maximum(estimate, 0.0)


def prev_epoch_estimate(state: EstimatorState) -> np.ndarray:
    """Replay the last observed mix; all zeros before the first observation."""
    if not state.history:
        return np.zeros((state.n_pops, state.n_attacks))
    return np.array(state.history[-1], dtype=float)


def uniform_estimate(budget: "Budget | float", n_pops: int, n_attacks: int) -> np.ndarray:
    if n_pops < 1 or n_attacks < 1:
        raise InputError("need at least one pop and one attack type")
    return np.full((n_pops, n_attacks), _gbps(budget) / (n_pops * n_attacks))


def estimate(state: EstimatorState, budget: Budget,
             rng: np.random.Generator | None = None) -> np.ndarray:
    if state.kind == "fpl":
        if rng is None:
            raise InputError("fpl estimator needs an rng")
        return fpl_estimate(state, budget, rng)
    if state.kind == "prevepoch":
        return prev_epoch_estimate(state)
    return uniform_estimate(budget, state.n_pops, state.n_attacks)


def _compute_factors(lib: dict[AttackType, AnnotatedGraph]) -> np.ndarray:
    """VM slots per Gbps for each attack column, in attack-id order."""
    return np.array([graph_compute_factor(g) for g in ordered_graphs(lib)])


def _stack(trace: "list[np.ndarray] | np.ndarray") -> np.ndarray:
    """A nonempty trace of (pops, attacks) mixes as one (epochs, pops,
    attacks) array; an array that already is one is returned as it is, not
    copied."""
    if len(trace) == 0:
        raise InputError("trace must be nonempty")
    try:
        return np.asarray(trace, dtype=float)
    except ValueError as exc:
        raise InputError("trace mixes must all have one shape") from exc


def _trace_losses(prov: np.ndarray, actual: np.ndarray,
                  factors: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-epoch (wastage_gbps, evasion_gbps, wastage_vm) arrays for a
    (T, E, A) provision scored against (T, E, A) realized mixes; a single
    (E, A) provision is held for every epoch.

    Wastage is provision beyond the realized attack; evasion is attack
    volume beyond the provision. VM-slot wastage converts each attack
    column's wasted Gbps through its graph's compute factor.
    """
    wast = np.maximum(prov - actual, 0.0)
    evas = np.maximum(actual - prov, 0.0)
    wast_vm = (wast.sum(axis=1) * factors).sum(axis=1)
    return wast.sum(axis=(1, 2)), evas.sum(axis=(1, 2)), wast_vm


def loss_accounting(provisioned: np.ndarray, actual: np.ndarray,
                    lib: dict[AttackType, AnnotatedGraph]) -> tuple[float, float, float]:
    """One epoch's losses, (wastage_gbps, evasion_gbps, wastage_vm_slots):
    the one-epoch case of ``_trace_losses``, which defines them."""
    provisioned = np.asarray(provisioned, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if provisioned.shape != actual.shape:
        raise InputError("provisioned and actual shapes differ")
    w, v, m = _trace_losses(provisioned[None], actual[None], _compute_factors(lib))
    return float(w[0]), float(v[0]), float(m[0])


def best_static_hindsight(trace: "list[np.ndarray] | np.ndarray") -> tuple[np.ndarray, float]:
    """Best single provision matrix for the whole trace, minimizing total
    wastage + evasion.

    That loss is cellwise L1, so a per-cell search over the observed values
    (the median sits on one) plus the mean is exact; the grid is kept anyway
    as a guard and for documentation. All cells are searched at once: each
    cell's candidates are the distinct values of its row ``[series...,
    mean]`` (the first of equal values, as a set keeps it), ascending and
    padded with NaN, priced in broadcast blocks of about ``_LOSS_BLOCK``
    elements; one scan in ascending order keeps, per cell, each that beats
    its best loss so far by more than 1e-12.
    """
    stack = _stack(trace)
    n_t, n_e, n_a = stack.shape
    # One contiguous row of epochs per cell, in (pop, attack) order. Every
    # row sum below runs over that contiguous axis, pairwise, as a 1-D sum
    # of one cell's series would.
    cells = np.ascontiguousarray(stack.reshape(n_t, n_e * n_a).T)
    cand = np.column_stack((cells, cells.mean(axis=1)))
    # 0.0 and -0.0 are the only equal values with different bits, and the
    # sort may put either first: each row keeps its first zero.
    zero = cand == 0
    has_zero = zero.any(axis=1)
    first_zero = cand[has_zero, zero[has_zero].argmax(axis=1)]
    cand.sort(axis=1)
    repeat = cand[:, 1:] == cand[:, :-1]
    cand[:, 1:][repeat] = np.nan
    cand[cand == 0] = first_zero
    cand.sort(axis=1)  # the NaNs move to the end, past the widest row's candidates
    cand = cand[:, :n_t + 1 - repeat.sum(axis=1).min()]
    n_c, n_k = cand.shape
    step = max(1, _LOSS_BLOCK // (n_k * n_t))
    block_buf = np.empty((min(step, n_c), n_k, n_t))
    losses = np.empty(cand.shape)
    for lo in range(0, n_c, step):
        hi = min(lo + step, n_c)
        block = block_buf[:hi - lo]
        np.subtract(cells[lo:hi, None, :], cand[lo:hi, :, None], out=block)
        np.abs(block, out=block)
        block.sum(axis=2, out=losses[lo:hi])
    static = np.zeros(n_c)
    best = np.full(n_c, np.inf)
    for v, loss in zip(cand.T, losses.T):
        better = loss < best - 1e-12
        static[better] = v[better]
        best[better] = loss[better]
    return static.reshape(n_e, n_a), sequential_sum(best.tolist())


@dataclass
class RegretReport:
    wastage_gbps: list[float]
    evasion_gbps: list[float]
    wastage_vm: list[float]
    cumulative_g1_vm: float  # goal 1: defender resource overconsumption
    cumulative_g2_gbps: float  # goal 2: delivered attack volume
    static_loss_combined: float
    static_wastage_gbps: float
    static_evasion_gbps: float
    regret_combined: float
    regret_g1: float
    regret_g2: float


def normalized_regret(trace: "list[np.ndarray] | np.ndarray",
                      wastage_gbps: "list[float] | np.ndarray",
                      evasion_gbps: "list[float] | np.ndarray",
                      wastage_vm: "list[float] | np.ndarray",
                      lib: dict[AttackType, AnnotatedGraph]) -> RegretReport:
    """Regret of an estimator's realized losses against the best static
    provision in hindsight, normalized by the static strategy's own loss.

    Reported per goal (G1 wastage, G2 evasion) and combined; the static
    reference minimizes the combined wastage + evasion.
    """
    if any(len(x) != len(trace) for x in (wastage_gbps, evasion_gbps, wastage_vm)):
        raise InputError("loss series must align with the trace")
    actual = _stack(trace)
    static, static_loss = best_static_hindsight(actual)
    s_w, s_v, _ = _trace_losses(static, actual, _compute_factors(lib))
    losses = np.array([wastage_gbps, evasion_gbps, wastage_vm], dtype=float)
    # Totals accumulate epoch by epoch (np.cumsum adds in sequence).
    s_wast, s_evas, volume, est_w, est_v, est_vm = np.cumsum(
        [s_w, s_v, actual.sum(axis=(1, 2)), *losses], axis=1)[:, -1].tolist()
    wastage_gbps, evasion_gbps, wastage_vm = losses.tolist()
    combined = est_w + est_v
    floor = _REGRET_FLOOR_FRACTION * volume

    def ratio(loss: float, ref: float) -> float:
        return (loss - ref) / max(ref, floor, 1e-12)

    return RegretReport(
        wastage_gbps=wastage_gbps,
        evasion_gbps=evasion_gbps,
        wastage_vm=wastage_vm,
        cumulative_g1_vm=est_vm,
        cumulative_g2_gbps=est_v,
        static_loss_combined=static_loss,
        static_wastage_gbps=s_wast,
        static_evasion_gbps=s_evas,
        regret_combined=ratio(combined, static_loss),
        regret_g1=ratio(est_w, s_wast),
        regret_g2=ratio(est_v, s_evas),
    )


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _mul128(hi: np.ndarray, lo: np.ndarray, const: int) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) * const mod 2**128, on uint64 arrays of the high and low
    halves. The high word of lo times the constant's low half comes from
    32-bit halves (Hacker's Delight's ``mulhu``: no partial sum overflows);
    the cross terms only reach the high half, where uint64 wraps."""
    c_hi, c_lo = const >> 64 & _MASK64, const & _MASK64
    a1, a0, b1, b0 = lo >> 32, lo & _MASK32, c_lo >> 32, c_lo & _MASK32
    t = a1 * b0 + (a0 * b0 >> 32)
    u = a0 * b1 + (t & _MASK32)
    return a1 * b1 + (t >> 32) + (u >> 32) + hi * c_lo + lo * c_hi, lo * c_lo


def _add128(a_hi: np.ndarray, a_lo: np.ndarray, b_hi: np.ndarray,
            b_lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a_hi, a_lo) + (b_hi, b_lo) mod 2**128, on uint64 halves: the low
    half wrapped past b_lo exactly when it carries."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < b_lo), lo


def _seeded_uniform_rows(seed: int, bounds: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Row t equals ``np.random.default_rng([seed, t]).uniform(0.0, bounds[t],
    shape)`` bit for bit, for every t < len(bounds), with no generator built
    and no loop over epochs.

    ``default_rng`` spends most of its time in ``SeedSequence``'s hash, a
    fixed sequence of uint32 multiply/xor-shift steps, so it runs here once
    as whole-array passes over every epoch's entropy (the seed's
    little-endian uint32 words, then t). Each epoch's PCG64 ``inc`` and
    states follow as whole-array uint64 (high, low) halves, 128-bit products
    by ``_mul128``. PCG64 steps its state to M * state + inc before each
    draw, so a row's states come from doubling jumps: once states 1..m are
    known, state m + j is M^m * state j + (1 + M + ... + M^(m-1)) * inc.
    Each draw is the XSL-RR output of its state, and ``random`` makes the
    double d from its top 53 bits; ``uniform`` returns 0.0 + bound * d,
    which is bound * d exactly.
    """
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InputError(f"fpl seed must be a non-negative integer, got {seed!r}")
    n_t = len(bounds)
    seed = int(seed)
    entropy = [np.full(n_t, seed >> shift & _MASK32, dtype=np.uint32)
               for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy.append(np.arange(n_t, dtype=np.uint32))

    def hasher(hash_const: int, mult: int):
        def step(value: np.ndarray) -> np.ndarray:
            nonlocal hash_const
            value = value ^ np.uint32(hash_const)
            hash_const = hash_const * mult & _MASK32
            value = value * np.uint32(hash_const)
            return value ^ (value >> np.uint32(16))
        return step

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    # mix_entropy: the pool takes the first words (zeros past the entropy),
    # every pool word is mixed into every other, then any further words.
    hashmix = hasher(_INIT_A, _MULT_A)
    zero = np.zeros(n_t, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    # generate_state(4, np.uint64): eight uint32 words, paired low word first.
    hash_out = hasher(_INIT_B, _MULT_B)
    state32 = [hash_out(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    w0, w1, w2, w3 = (state32[2 * k + 1] << 32 | state32[2 * k] for k in range(4))

    # pcg64_set_seed: inc = (w2, w3) << 1 | 1, and the seeded state is
    # inc + (w0, w1) stepped once; each draw steps once more. Row 0 holds an
    # m-step jump's addend, (1 + M + ... + M^(m-1)) * inc, and row 1 + i the
    # state after i steps, one epoch per column. The jump's one product of
    # rows 0..k gives both the next k states and the 2m-step addend,
    # M^m * addend + addend.
    n_rows = math.prod(shape) + 3
    hi = np.empty((n_rows, n_t), dtype=np.uint64)
    lo = np.empty((n_rows, n_t), dtype=np.uint64)
    hi[0], lo[0] = w2 << 1 | w3 >> 63, w3 << 1 | 1
    hi[1], lo[1] = _add128(hi[0], lo[0], w0, w1)
    mult, m = _PCG_MULT, 1
    while m + 1 < n_rows:
        k = min(m, n_rows - 1 - m)
        jump_hi, jump_lo = _mul128(hi[:k + 1], lo[:k + 1], mult)
        hi[m + 1:m + k + 1], lo[m + 1:m + k + 1] = _add128(jump_hi[1:], jump_lo[1:],
                                                           hi[0], lo[0])
        hi[0], lo[0] = _add128(jump_hi[0], jump_lo[0], hi[0], lo[0])
        mult = mult * mult & _MASK128
        m *= 2

    # Rows 3.. hold the draws' states; each draw is rotr64(hi ^ lo, hi >> 58).
    hi, lo = hi[3:], lo[3:]
    xored = hi ^ lo
    rot = hi >> 58
    out = xored >> rot | xored << (-rot & 63)
    noise = (out >> 11).T.astype(np.float64, order="C")
    noise *= 2.0 ** -53
    noise *= bounds[:, None]
    return noise.reshape(n_t, *shape)


def _replay(kind: str, actual: np.ndarray, budget: "Budget | float", seed: int) -> np.ndarray:
    """The (T, E, A) provisions of an estimator fed the stacked (T, E, A)
    trace with the one-epoch observation lag, built in whole-array passes.

    Row t equals ``estimate`` after observing rows 0..t-1, bit for bit: the
    fpl mean is the running sum (``np.cumsum`` adds rows in sequence, as
    ``EstimatorState.observe`` does) over the epoch count, and its noise for
    row t is the stream of ``default_rng([seed, t])``, which
    ``_seeded_uniform_rows`` reproduces for every epoch at once, in array
    passes over all epochs and draws, without a generator. fpl needs a
    non-negative integer seed.
    """
    check_estimator(kind)
    n_t, n_pops, n_attacks = actual.shape
    if kind == "uniform":
        return np.broadcast_to(uniform_estimate(budget, n_pops, n_attacks), actual.shape)
    # Row t holds what was observed before epoch t: nothing at t = 0.
    if kind == "prevepoch":
        return np.concatenate((np.zeros((1, n_pops, n_attacks)), actual[:-1]))
    mean = np.zeros(actual.shape)
    mean[1:] = np.cumsum(actual[:-1], axis=0) / np.arange(1, n_t)[:, None, None]
    bounds = perturbation_bound(_gbps(budget), np.arange(1, n_t + 1), n_pops, n_attacks)
    noise = _seeded_uniform_rows(seed, bounds, (n_pops, n_attacks))
    return np.maximum(mean + noise, 0.0)


def run_estimator_on_trace(kind: str, trace: "list[np.ndarray] | np.ndarray",
                           budget: Budget, lib: dict[AttackType, AnnotatedGraph],
                           seed: int = 0) -> RegretReport:
    """Feed a fixed adversary trace through an estimator with the one-epoch
    observation lag and account the losses. The trace is stacked once; the
    replay, its scoring and the hindsight reference all read that array."""
    actual = _stack(trace)
    losses = _trace_losses(_replay(kind, actual, budget, seed), actual, _compute_factors(lib))
    return normalized_regret(actual, *losses, lib)


_PER_EPOCH_COLUMNS = ("wastage_gbps", "evasion_gbps", "wastage_vm", "cum_g1_vm",
                      "cum_g2_gbps", "regret_combined", "regret_g1", "regret_g2")


def per_epoch_regret_report(strategy_kind: str, estimator_kind: str,
                            n_pops: int, budget: Budget,
                            lib: dict[AttackType, AnnotatedGraph], epochs: int,
                            seeds: list[int]) -> list[dict[str, float]]:
    """Per-epoch loss series for one strategy/estimator pair, averaged over
    seeds: wastage, evasion, VM wastage, per-goal running cumulatives, and
    regret accruing against the full-trace hindsight static (so the final
    row equals the trace's normalized regret)."""
    if not seeds:
        raise InputError("need at least one seed")
    n_attacks = len(lib)
    factors = _compute_factors(lib)
    per_seed = []
    for seed in seeds:
        strat = AdversaryStrategy(kind=strategy_kind, seed=seed)
        actual = _stack([adversary_next(strat, budget, t, n_pops, n_attacks)
                         for t in range(epochs)])
        static, _static_loss = best_static_hindsight(actual)
        w, v, m = _trace_losses(_replay(estimator_kind, actual, budget, seed), actual, factors)
        pw, pv, _pm = _trace_losses(static, actual, factors)
        cum_w, cum_v, cum_vm, s_w, s_v, volume = np.cumsum(
            [w, v, m, pw, pv, actual.sum(axis=(1, 2))], axis=1)
        floor = _REGRET_FLOOR_FRACTION * volume

        def denominator(ref: np.ndarray) -> np.ndarray:
            return np.maximum(np.maximum(ref, floor), 1e-12)

        per_seed.append(np.stack([
            w, v, m, cum_vm, cum_v,
            (cum_w + cum_v - s_w - s_v) / denominator(s_w + s_v),
            (cum_w - s_w) / denominator(s_w),
            (cum_v - s_v) / denominator(s_v),
        ]))
    # Stacked as (columns, epochs, seeds), each cell's seed values form one
    # contiguous row, which np.mean sums as it sums a list of those values.
    averaged = np.mean(np.stack(per_seed, axis=-1), axis=-1)
    return [{"epoch": float(t), **dict(zip(_PER_EPOCH_COLUMNS, row))}
            for t, row in enumerate(averaged.T.tolist())]


@dataclass
class RegretTableRow:
    strategy: str
    estimator: str
    mean_regret_combined: float
    mean_regret_g1: float
    mean_regret_g2: float
    mean_wastage_gbps: float
    mean_evasion_gbps: float


def regret_experiment(n_pops: int, budget: Budget,
                      lib: dict[AttackType, AnnotatedGraph], epochs: int,
                      seeds: list[int],
                      strategies: tuple[str, ...] = STRATEGIES,
                      estimators: tuple[str, ...] = ESTIMATORS) -> list[RegretTableRow]:
    """Sweep adversary strategies x estimators; each seed fixes one adversary
    trace that every estimator replays, so regrets share the same hindsight
    reference."""
    if not seeds:
        raise InputError("need at least one seed")
    n_attacks = len(lib)
    rows = []
    for strat_kind in strategies:
        per_estimator: dict[str, list[RegretReport]] = {k: [] for k in estimators}
        for seed in seeds:
            strat = AdversaryStrategy(kind=strat_kind, seed=seed)
            trace = _stack([adversary_next(strat, budget, t, n_pops, n_attacks)
                            for t in range(epochs)])
            for est_kind in estimators:
                per_estimator[est_kind].append(
                    run_estimator_on_trace(est_kind, trace, budget, lib, seed=seed))
        for est_kind in estimators:
            reports = per_estimator[est_kind]
            rows.append(RegretTableRow(
                strategy=strat_kind,
                estimator=est_kind,
                mean_regret_combined=float(np.mean([r.regret_combined for r in reports])),
                mean_regret_g1=float(np.mean([r.regret_g1 for r in reports])),
                mean_regret_g2=float(np.mean([r.regret_g2 for r in reports])),
                mean_wastage_gbps=float(np.mean(np.cumsum(
                    [r.wastage_gbps for r in reports], axis=1)[:, -1])),
                mean_evasion_gbps=float(np.mean([r.cumulative_g2_gbps for r in reports])),
            ))
    return rows
