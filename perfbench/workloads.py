"""The benchmark's workloads: inputs built from a seed, one timed pass over a
fixed list of ops, the output checks, and per-layer counters read from the
objects scrubsim's layer functions return.

Every workload drives public scrubsim functions in this one thread. A pass
is deterministic for a given seed; the timed phase repeats it, and every
repeated op must reproduce its output in the first pass exactly.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from scrubsim import (
    AdversaryStrategy,
    Budget,
    Scenario,
    adaptation,
    builtin_library,
    check_feasibility,
    generate_topology,
    oracle,
    regret_experiment,
    simulate,
)
from scrubsim.adaptation import ESTIMATORS, STRATEGIES, run_estimator_on_trace
from scrubsim.errors import PlacementError
from scrubsim.orchestration import plan_realizes_edges

from tracer import Patches, Tracer


class BenchError(RuntimeError):
    """The benchmark cannot measure what it promises (not an output check)."""


@dataclass
class PassResult:
    op_s: dict = field(default_factory=dict)  # op id -> wall seconds
    op_start: dict = field(default_factory=dict)  # op id -> perf_counter() at its start
    wall_s: float = 0.0  # seconds inside timed regions
    failed: int = 0
    digest: dict = field(default_factory=dict)  # op id -> outputs a repeat must reproduce
    problems: list[str] = field(default_factory=list)  # failed output checks
    notes: list[str] = field(default_factory=list)  # printed, not checked


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _hook(patches: Patches, tracer: Tracer | None, module, attr: str, span: str,
          before=None, capture=None, count=None, on_error=None,
          top_level_only: bool = False) -> None:
    """Wrap ``module.attr``. Untraced, only ``before`` and ``capture`` run
    (nothing is installed without them); traced, the call is also a span
    and ``count`` updates the tracer's counters."""
    if tracer is None:
        if before is None and capture is None:
            return

        def make(original):
            def call(*args, **kwargs):
                if before is not None:
                    before()
                result = original(*args, **kwargs)
                if capture is not None:
                    capture(args, kwargs, result)
                return result
            return call

        patches.replace(module, attr, make)
        return

    def on_result(counters, args, kwargs, result):
        if capture is not None:
            capture(args, kwargs, result)
        if count is not None:
            count(counters, args, kwargs, result)

    patches.replace(module, attr, lambda original: tracer.wrapped(
        original, span, on_result, on_error, before, top_level_only))


# ---------------------------------------------------------------------------
# sim-dense and sim-surge: one op is one epoch of run_simulation


@dataclass(frozen=True)
class SimParams:
    nodes: int
    dc_slots: int
    budget_gbps: float
    adversary: str
    estimator: str
    calls: int  # run_simulation calls per pass, each with its own seed
    epochs: int  # epochs per call


# Like a scenario sweep, every run seed shares one topology.
TOPOLOGY_SEED = 1


class PreparedScenario(Scenario):
    """A scenario whose topology and defense library were built in set-up,
    so that run_simulation times only the epochs."""

    prepared: tuple = ()

    def load_topology(self):
        return self.prepared[0]

    def load_library(self):
        return self.prepared[1]


def _count_dsp(c, args, kwargs, dsp):
    traffic = np.asarray(_arg(args, kwargs, 1, "traffic"), dtype=float)
    offered = float(traffic.sum())
    c["resource_manager.dsp_cells"] += int((traffic > 1e-9).sum())
    c["resource_manager.dsp_spilled_cells"] += int(((dsp.f > 0).sum(axis=2) > 1).sum())
    c["offered_gbps"] += offered
    c["handled_gbps"] += offered - dsp.t_left


def _count_ssp(c, args, kwargs, ssps):
    for r in ssps:
        servers_of = defaultdict(set)
        for (node, rack, srv), n in r.n_srv.items():
            if n > 0:
                servers_of[node].add((rack, srv))
                c["resource_manager.vms"] += n
        for servers in servers_of.values():
            if len(servers) == 1:
                c["resource_manager.place_server"] += 1
            elif len({rack for rack, _srv in servers}) == 1:
                c["resource_manager.place_rack"] += 1
            else:
                c["resource_manager.place_split"] += 1


def _count_place_error(c, exc):
    if isinstance(exc, PlacementError):
        c["resource_manager.place_failures"] += 1


def _count_tags(c, args, kwargs, pools):
    c["orchestration.tags"] += len(pools.instance_tags) + len(pools.egress_tags)


def _count_rules(c, args, kwargs, plan):
    per_switch = plan.rules_by_switch()
    c["orchestration.rules_total"] += sum(per_switch.values())
    c["orchestration.rules_max_switch"] = max(c["orchestration.rules_max_switch"],
                                              max(per_switch.values(), default=0))


def _count_pins(c, args, kwargs, pins):
    c["orchestration.pins"] += pins


def _count_search_nodes(c, args, kwargs, result):
    c["oracle.search_nodes"] += result.search_nodes


class SimWorkload:
    def __init__(self, params: SimParams, seed: int):
        self.p = params
        self.seed = seed
        self.scenario: PreparedScenario | None = None

    def setup(self, tracer: Tracer | None) -> None:
        p = self.p
        with _span(tracer, "topology.generate_s"):
            topo = generate_topology(p.nodes, p.dc_slots, seed=TOPOLOGY_SEED)
        sc = PreparedScenario(epochs=p.epochs, budget_gbps=p.budget_gbps,
                              adversary=p.adversary, estimator=p.estimator,
                              seed=self.seed, topology_nodes=p.nodes,
                              dc_slots=p.dc_slots)
        sc.prepared = (topo, builtin_library())
        self.scenario = sc

    def run_pass(self, tracer: Tracer | None, check: bool,
                 first: PassResult | None = None) -> PassResult:
        res = PassResult()
        for k in range(self.p.calls):
            self._run_call(self.seed * self.p.calls + k, tracer, check, res)
        return res

    def _run_call(self, run_seed: int, tracer, check: bool, res: PassResult) -> None:
        """One run_simulation call. An epoch starts at its first layer call
        (adversary_next) and ends at the next epoch's start or at the return;
        the previous epoch is checked in between, outside both."""
        sc = self.scenario
        starts: list[float] = []
        ends: list[float] = []
        planned: set[int] = set()  # epochs that compiled a forwarding plan
        current: dict[str, tuple] = {}  # captured calls of the epoch in progress

        def finish_epoch():
            ends.append(time.perf_counter())
            if tracer is not None:
                tracer.end_op()
            epoch = len(ends) - 1
            if "plan" in current:
                planned.add(epoch)
                if check:
                    self._check_epoch(run_seed, epoch, current, tracer, res)
            current.clear()

        def epoch_start():
            if starts:
                finish_epoch()
            starts.append(time.perf_counter())
            if tracer is not None:
                tracer.start_op("simulate.other_s")

        def keep(key):
            def capture(args, kwargs, result):
                current[key] = (args, kwargs, result)
            return capture

        with Patches() as patches:
            for attr, span, extra in (
                ("adversary_next", "adaptation.adversary_s", {"before": epoch_start}),
                ("estimate", "adaptation.estimate_s", {}),
                ("dsp_greedy", "resource_manager.dsp_s",
                 {"capture": keep("dsp_greedy"), "count": _count_dsp}),
                ("overprovision", "resource_manager.dsp_s", {}),
                ("place_all", "resource_manager.ssp_s",
                 {"capture": keep("place_all"), "count": _count_ssp,
                  "on_error": _count_place_error}),
                ("build_tag_pools", "orchestration.tag_pools_s",
                 {"capture": keep("pools"), "count": _count_tags}),
                ("synthesize_rules", "orchestration.rules_s",
                 {"capture": keep("plan"), "count": _count_rules}),
                ("pin_bidirectional_for_graph", "orchestration.pins_s",
                 {"count": _count_pins}),
                ("loss_accounting", "adaptation.loss_s", {}),
            ):
                _hook(patches, tracer, simulate, attr, span, **extra)
            records = simulate.run_simulation(sc, seed=run_seed)
            finish_epoch()

        if not len(starts) == len(ends) == len(records) == sc.epochs:
            raise BenchError(
                f"run_simulation seed {run_seed}: {len(starts)} epoch boundaries and "
                f"{len(records)} records for {sc.epochs} epochs")
        res.op_s.update(((run_seed, r.epoch), e - s)
                        for r, s, e in zip(records, starts, ends))
        res.op_start.update(((run_seed, r.epoch), s) for r, s in zip(records, starts))
        res.wall_s += sum(e - s for s, e in zip(starts, ends))
        res.failed += sum(1 for r in records if math.isnan(r.cost))
        res.digest.update(
            ((run_seed, r.epoch), (repr(r.cost), r.vm_total, r.tag_rules, repr(r.t_left),
                                   repr(r.handled_gbps), repr(r.wastage_gbps),
                                   repr(r.evasion_gbps)))
            for r in records)
        res.problems.extend(
            f"seed {run_seed} epoch {r.epoch}: cost {r.cost} but a plan was "
            f"{'' if r.epoch in planned else 'not '}compiled"
            for r in records if math.isnan(r.cost) == (r.epoch in planned))

    def _check_epoch(self, run_seed, epoch, got, tracer, res: PassResult) -> None:
        """check_feasibility finds nothing, and the forwarding plan realizes
        every edge of every placed graph."""
        topo, lib = self.scenario.prepared
        est = _arg(*got["dsp_greedy"][:2], 1, "traffic")
        args, kwargs, ssps = got["place_all"]
        dsp = _arg(args, kwargs, 1, "dsp")
        pools = got["pools"][2]
        plan = got["plan"][2]
        with _span(tracer, "resource_manager.check_s"):
            violations = check_feasibility(topo, est, dsp, ssps, self.scenario.cost, lib)
        if tracer is not None:
            tracer.counters["resource_manager.violations"] += len(violations)
        res.problems.extend(f"seed {run_seed} epoch {epoch}: {v}" for v in violations)
        for pg in dsp.physical.values():
            if pg.total_vms:
                res.problems.extend(f"seed {run_seed} epoch {epoch}: {gap}"
                                    for gap in plan_realizes_edges(plan, pg, pools, lib))


# ---------------------------------------------------------------------------
# regret-sweep: one op is one run_estimator_on_trace replay


@dataclass(frozen=True)
class RegretParams:
    n_pops: int
    budget_gbps: float
    epochs: int
    seeds: int  # adversary seeds per pass; each gives 5 traces x 3 estimators


class RegretWorkload:
    def __init__(self, params: RegretParams, seed: int):
        self.p = params
        self.seeds = [seed * params.seeds + i for i in range(params.seeds)]
        self.lib = None
        self.budget = None
        self.traces: dict[tuple[str, int], list[np.ndarray]] = {}

    def setup(self, tracer: Tracer | None) -> None:
        p = self.p
        self.lib = builtin_library()
        self.budget = Budget(p.budget_gbps)
        n_attacks = len(self.lib)
        with _span(tracer, "adaptation.adversary_s"):
            self.traces = {
                (kind, s): [adaptation.adversary_next(AdversaryStrategy(kind, s), self.budget,
                                                      t, p.n_pops, n_attacks)
                            for t in range(p.epochs)]
                for kind in STRATEGIES for s in self.seeds
            }

    def run_pass(self, tracer: Tracer | None, check: bool,
                 first: PassResult | None = None) -> PassResult:
        res = PassResult()
        reports = {}
        with Patches() as patches:
            for attr, span in (
                ("estimate", "adaptation.estimate_s"),
                ("loss_accounting", "adaptation.loss_s"),
                ("normalized_regret", "adaptation.regret_s"),
                ("best_static_hindsight", "adaptation.hindsight_s"),
            ):
                _hook(patches, tracer, adaptation, attr, span)
            # regret_experiment's order: strategy, then seed, then estimator.
            for kind in STRATEGIES:
                for s in self.seeds:
                    trace = self.traces[(kind, s)]
                    for est in ESTIMATORS:
                        if tracer is not None:
                            tracer.start_op("adaptation.other_s")
                        start = time.perf_counter()
                        try:
                            rep = run_estimator_on_trace(est, trace, self.budget, self.lib,
                                                         seed=s)
                        except Exception as exc:  # a failed op is counted, not fatal
                            rep = None
                            res.failed += 1
                            res.notes.append(f"{kind}/{est} seed {s}: "
                                             f"{type(exc).__name__}: {exc}")
                        end = time.perf_counter()
                        if tracer is not None:
                            tracer.end_op()
                        res.op_s[(kind, est, s)] = end - start
                        res.op_start[(kind, est, s)] = start
                        res.wall_s += end - start
                        reports[(kind, est, s)] = rep
                        res.digest[(kind, est, s)] = None if rep is None else (
                            repr(rep.regret_combined), repr(rep.regret_g1),
                            repr(rep.regret_g2), repr(sum(rep.wastage_vm)))
        if check:
            self._check(reports, res)
        return res

    def _check(self, reports, res: PassResult) -> None:
        """Replays match regret_experiment on the first seed, and criterion 8's
        attack-delivery (G2) ordering holds over the pass's seeds."""
        s0 = self.seeds[0]
        rows = regret_experiment(self.p.n_pops, self.budget, self.lib, self.p.epochs, [s0])
        for row in rows:
            rep = reports[(row.strategy, row.estimator, s0)]
            if rep is None:
                continue
            want = (rep.regret_combined, rep.regret_g1, rep.regret_g2,
                    sum(rep.wastage_gbps), sum(rep.evasion_gbps))
            got = (row.mean_regret_combined, row.mean_regret_g1, row.mean_regret_g2,
                   row.mean_wastage_gbps, row.mean_evasion_gbps)
            if not all(math.isclose(g, w, rel_tol=1e-12, abs_tol=1e-12)
                       for g, w in zip(got, want)):
                res.problems.append(f"{row.strategy}/{row.estimator} seed {s0}: "
                                    f"regret_experiment {got} != replay {want}")
        for kind in ("randhybrid", "flipprevepoch"):
            g2 = {}
            for est in ("fpl", "prevepoch", "uniform"):
                vals = [reports[(kind, est, s)].regret_g2 for s in self.seeds
                        if reports[(kind, est, s)] is not None]
                g2[est] = float(np.mean(vals)) if vals else math.nan
            res.notes.append(f"G2 regret {kind}: " + ", ".join(
                f"{est} {v:.4f}" for est, v in g2.items()))
            if not (g2["fpl"] <= g2["prevepoch"] and g2["fpl"] <= g2["uniform"]):
                res.problems.append(f"G2 ordering fails on {kind}: {g2}")


# ---------------------------------------------------------------------------
# oracle-tiny: one op is oracle_comparison(1, seed=s)


# Repeat passes rerun only the instances faster than this in the first
# pass: the few slower ones take most of a pass's 30-40 s.
REPEAT_UNDER_S = 1.0


class OracleWorkload:
    def __init__(self, instance_seeds: list[int], seed: int):
        # Every run times the same instances; the workload seed rotates where
        # the pass starts, so the heavy-tailed set stays comparable.
        shift = seed % len(instance_seeds)
        self.instance_seeds = instance_seeds[shift:] + instance_seeds[:shift]

    def setup(self, tracer: Tracer | None) -> None:
        pass

    def run_pass(self, tracer: Tracer | None, check: bool,
                 first: PassResult | None = None) -> PassResult:
        res = PassResult()
        rows = []
        seeds = self.instance_seeds if first is None else [
            s for s in self.instance_seeds if first.op_s[s] < REPEAT_UNDER_S]
        with Patches() as patches:
            _hook(patches, tracer, oracle, "oracle_exact", "oracle.exact_s",
                  count=_count_search_nodes)
            # The greedy that oracle_comparison runs; the incumbent greedy
            # inside oracle_exact stays part of oracle.exact_s.
            for attr in ("dsp_greedy", "place_all", "evaluate_cost"):
                _hook(patches, tracer, oracle, attr, "oracle.greedy_s", top_level_only=True)
            for s in seeds:
                if tracer is not None:
                    tracer.start_op("oracle.other_s")
                start = time.perf_counter()
                try:
                    row = oracle.oracle_comparison(1, seed=s)[0]
                except Exception as exc:  # a failed op is counted, not fatal
                    row = None
                    res.failed += 1
                    res.notes.append(f"instance {s}: {type(exc).__name__}: {exc}")
                end = time.perf_counter()
                if tracer is not None:
                    tracer.end_op()
                res.op_s[s] = end - start
                res.op_start[s] = start
                res.wall_s += end - start
                res.digest[s] = None
                if row is not None:
                    rows.append(row)
                    res.digest[s] = (repr(row.cost_greedy), repr(row.cost_oracle),
                                     repr(row.handled_greedy), repr(row.handled_oracle))
        stats = gap_stats(rows)
        res.notes.append("greedy-vs-oracle " + ", ".join(
            f"{k.removeprefix('oracle.')} {v:.4g}" for k, v in stats.items()))
        if tracer is not None:
            tracer.counters.update(stats)
        if check:
            for r in rows:
                if not (r.cost_oracle <= r.cost_greedy + 1e-6
                        and r.handled_oracle >= r.handled_greedy - 1e-6):
                    res.problems.append(
                        f"instance {r.seed}: oracle cost {r.cost_oracle} / handled "
                        f"{r.handled_oracle} vs greedy {r.cost_greedy} / {r.handled_greedy}")
        return res


def gap_stats(rows) -> dict[str, float]:
    """Greedy-vs-oracle cost gap distribution over the instances. An
    infinite gap (oracle cost 0, greedy cost above 0) counts as over 10% and
    is left out of the percentiles."""
    gaps = [r.gap for r in rows]
    finite = [g for g in gaps if math.isfinite(g)] or [0.0]
    return {
        "oracle.gap_p50": float(np.percentile(finite, 50)),
        "oracle.gap_p90": float(np.percentile(finite, 90)),
        "oracle.gap_max": float(max(finite)),
        "oracle.gap_over_10pct": sum(1 for g in gaps if g > 0.10),
        "oracle.handled_equal": sum(1 for r in rows
                                    if abs(r.handled_greedy - r.handled_oracle) < 1e-6),
        "oracle.instances": len(rows),
    }


# ---------------------------------------------------------------------------

CRITERION_1_SEEDS = list(range(20000, 20100))


def make_workload(name: str, seed: int, smoke: bool):
    """The named workload at its benchmark size, or at its smallest size."""
    if name == "sim-dense":
        return SimWorkload(SimParams(40 if smoke else 196, 4000, 1000.0, "randhybrid", "fpl",
                                     calls=1 if smoke else 5, epochs=4 if smoke else 20), seed)
    if name == "sim-surge":
        return SimWorkload(SimParams(60 if smoke else 400, 300, 3000.0, "randingress",
                                     "prevepoch", calls=1 if smoke else 5,
                                     epochs=4 if smoke else 20), seed)
    if name == "regret-sweep":
        return RegretWorkload(RegretParams(6, 100.0, 500, seeds=1 if smoke else 7), seed)
    if name == "oracle-tiny":
        return OracleWorkload(list(range(20020, 20025)) if smoke else CRITERION_1_SEEDS, seed)
    raise BenchError(f"unknown workload {name!r}")
