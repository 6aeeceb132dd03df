"""Epoch-driven simulation: adversary -> lagged observation -> estimator ->
control plane -> losses, with CSV/JSON report emitters.

Each epoch the adversary emits a mix, the estimator sees only strictly
earlier epochs, `control_plane` runs the resource manager and the
orchestrator on the estimate, and losses are scored against the actual mix.
`control_plane` is the paper's per-epoch step (DSP, cushion, SSP, cost, tag
pools, rules, pins) and returns an `EpochPlan`; the CLI's `rm ssp` and
`orch rules` make the same single call. Placement or capacity shortfalls
are recorded in the epoch record; they never abort a run.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections.abc import Iterator
from dataclasses import dataclass, field, fields

import numpy as np

from . import config
from .adaptation import (STRATEGIES, AdversaryStrategy, Budget, EstimatorState, adversary_next,
                         check_estimator, estimate, loss_accounting)
from .defense_graphs import (AnnotatedGraph, AttackType, builtin_library, load_library,
                             ordered_graphs)
from .errors import InputError, PlacementError
from .orchestration import (ForwardingPlan, build_tag_pools, pin_bidirectional_for_graph,
                            synthesize_rules)
from .resource_manager import (DspResult, SspResult, check_feasibility, dsp_greedy, evaluate_cost,
                               overprovision, place_all)
from .topology import CostParams, Topology, generate_topology, load_topology

SCENARIO_SCHEMA_VERSION = 1

CSV_COLUMNS = [
    "epoch", "actual_gbps", "estimate_gbps", "t_left", "handled_gbps",
    "cost", "vm_total", "tag_rules", "wastage_gbps", "evasion_gbps",
    "wastage_vm", "infeasible",
]


def _check_fpl_seeds(estimator: str, seeds: list[int]) -> None:
    # fpl seeds its noise generators with the run seed, which numpy needs
    # non-negative.
    if estimator == "fpl" and min(seeds) < 0:
        raise InputError("fpl needs non-negative seeds")


@dataclass
class Scenario:
    epochs: int
    budget_gbps: float
    adversary: str
    estimator: str
    seed: int = 0
    seeds: list[int] | None = None
    gamma: float = 1.0
    topology_nodes: int = 24
    dc_slots: int = 4000
    topology_path: str | None = None
    graphs_path: str | None = None
    cost: CostParams = field(default_factory=CostParams)

    def __post_init__(self):
        for name in ("epochs", "topology_nodes", "dc_slots"):
            if getattr(self, name) < 1:
                raise InputError(f"{name} must be >= 1")
        Budget(self.budget_gbps)  # rejects a budget that is not finite and > 0
        if self.adversary not in STRATEGIES:
            raise InputError(f"unknown adversary strategy {self.adversary!r}")
        check_estimator(self.estimator)
        if not (1.0 <= self.gamma < math.inf):
            raise InputError("gamma must be >= 1 and finite")
        if self.seeds is not None and not self.seeds:
            raise InputError("seeds must be nonempty")
        _check_fpl_seeds(self.estimator, [self.seed, *(self.seeds or [])])

    def run_seeds(self) -> list[int]:
        """The distinct run seeds, ascending: ``seeds``, or else ``seed``."""
        return sorted(set(self.seeds or [self.seed]))

    def load_topology(self) -> Topology:
        if self.topology_path is not None:
            return load_topology(self.topology_path)
        return generate_topology(self.topology_nodes, self.dc_slots, seed=self.seed)

    def load_library(self) -> dict[AttackType, AnnotatedGraph]:
        if self.graphs_path is not None:
            return load_library(self.graphs_path)
        return builtin_library()

    @classmethod
    def from_config(cls, cfg, default_seed: int | None = None) -> "Scenario":
        """The scenario a parsed config file describes, with `default_seed`
        as its seed when the file gives none."""
        try:
            config.record(cfg, "scenario", ("epochs", "budget_gbps", "adversary", "estimator"),
                          ("version", *_SCENARIO_READERS))
            if default_seed is not None:
                cfg = {"seed": default_seed, **cfg}
            version = config.whole(cfg.get("version", SCENARIO_SCHEMA_VERSION), "version")
            if version != SCENARIO_SCHEMA_VERSION:
                raise InputError(f"unsupported scenario schema version {version}")
            values = {key: read(cfg[key], key)
                      for key, read in _SCENARIO_READERS.items() if key in cfg}
            if values.get("topology_path") is not None:
                for key in ("topology_nodes", "dc_slots"):
                    if key in values:
                        raise InputError(f"{key} cannot be set with a topology_path, "
                                         "which fixes the topology")
            return cls(**values)
        except InputError as exc:
            raise InputError(f"malformed scenario config: {exc}") from exc


def _cost(value, what: str) -> CostParams:
    cfg = config.record(value, what, optional=[f.name for f in fields(CostParams)])
    return CostParams(**{key: config.real(v, f"cost {key}") for key, v in cfg.items()})


# How each scenario key is read; a key the file leaves out keeps its
# Scenario default.
_SCENARIO_READERS = {
    "epochs": config.whole, "budget_gbps": config.real,
    "adversary": config.string, "estimator": config.string, "seed": config.whole,
    "seeds": lambda value, what: [config.whole(s, "seeds entry")
                                  for s in config.items(value, what)],
    "gamma": config.real, "topology_nodes": config.whole, "dc_slots": config.whole,
    "topology_path": config.path, "graphs_path": config.path, "cost": _cost,
}


@dataclass
class EpochRecord:
    epoch: int
    actual: np.ndarray
    estimate: np.ndarray
    t_left: float
    handled_gbps: float
    cost: float
    vm_total: int
    tag_rules: int
    wastage_gbps: float
    evasion_gbps: float
    wastage_vm: float
    infeasible: str = ""

    def csv_row(self) -> list:
        return [
            self.epoch,
            f"{float(self.actual.sum()):.6f}",
            f"{float(self.estimate.sum()):.6f}",
            f"{self.t_left:.6f}",
            f"{self.handled_gbps:.6f}",
            f"{self.cost:.6f}",
            self.vm_total,
            self.tag_rules,
            f"{self.wastage_gbps:.6f}",
            f"{self.evasion_gbps:.6f}",
            f"{self.wastage_vm:.6f}",
            self.infeasible,
        ]


def run_simulation(sc: Scenario, seed: int | None = None) -> list[EpochRecord]:
    """One seeded simulation run; fully deterministic per (scenario, seed)."""
    return _run_epochs(sc, _run_seed(sc, seed), sc.load_topology(), sc.load_library())


def _run_seed(sc: Scenario, seed: int | None) -> int:
    """`seed`, or the scenario's own when it is None, checked as the
    scenario checks its seeds."""
    seed = sc.seed if seed is None else seed
    _check_fpl_seeds(sc.estimator, [seed])
    return seed


def _run_epochs(sc: Scenario, seed: int, topo: Topology,
                lib: dict[AttackType, AnnotatedGraph]) -> list[EpochRecord]:
    """The epochs of one run on a loaded topology and library, which no
    run changes."""
    return [record for record, _plan in _epochs(sc, seed, topo, lib)]


@dataclass
class EpochPlan:
    """One control-plane step: the cushioned resource assignment and, when
    placement succeeded, its server placements, cost and forwarding plan.
    On a placement failure `ssps` and `plan` are None, `cost` is NaN and
    `error` holds the failure's message."""
    dsp: DspResult
    ssps: list[SspResult] | None = None
    plan: ForwardingPlan | None = None
    cost: float = float("nan")
    error: str = ""


def control_plane(topo: Topology, lib: dict[AttackType, AnnotatedGraph],
                  traffic: np.ndarray, gamma: float = 1.0,
                  cost: CostParams = CostParams()) -> EpochPlan:
    """Provision for `traffic` (pop x attack Gbps) with cushion `gamma`,
    place every physical graph on servers, price it and compile its
    forwarding plan. The steps are called through this module's names,
    which the benchmark wraps."""
    dsp = overprovision(dsp_greedy(topo, traffic, lib), gamma)
    try:
        ssps = place_all(topo, dsp, lib)
    except PlacementError as exc:
        return EpochPlan(dsp, error=str(exc))
    price = evaluate_cost(dsp, ssps, cost)
    pools = build_tag_pools(dsp.physical, lib)
    plan = synthesize_rules(dsp, ssps, pools, topo, lib)
    for pg in dsp.physical.values():
        pin_bidirectional_for_graph(plan, pg, pools, lib)
    return EpochPlan(dsp, ssps, plan, price)


def _epochs(sc: Scenario, seed: int, topo: Topology,
            lib: dict[AttackType, AnnotatedGraph],
            ) -> Iterator[tuple[EpochRecord, EpochPlan]]:
    """Run the epochs one at a time, yielding each epoch's record and
    control-plane step."""
    graphs = ordered_graphs(lib)
    n_pops, n_attacks = len(topo.pops), len(graphs)
    budget = Budget(sc.budget_gbps)
    strategy = AdversaryStrategy(kind=sc.adversary, seed=seed)
    state = EstimatorState(kind=sc.estimator, n_pops=n_pops, n_attacks=n_attacks)

    for t in range(sc.epochs):
        actual = adversary_next(strategy, budget, t, n_pops, n_attacks)
        rng = np.random.default_rng([seed, 104729, t]) if sc.estimator == "fpl" else None
        est = estimate(state, budget, rng)
        step = control_plane(topo, lib, est, sc.gamma, sc.cost)
        dsp = step.dsp
        infeasible = "" if step.ssps is not None else f"placement: {step.error}"
        if dsp.t_left > 1e-9:
            note = f"t_left={dsp.t_left:.3f}"
            infeasible = f"{infeasible}; {note}" if infeasible else note

        # The overprovision cushion multiplies the resource manager's VM
        # counts; losses are scored against the cushioned capacity.
        w, v, wvm = loss_accounting(est * sc.gamma, actual, lib)
        state.observe(actual)
        yield EpochRecord(
            epoch=t, actual=actual, estimate=est, t_left=dsp.t_left,
            handled_gbps=float(est.sum()) - dsp.t_left, cost=step.cost,
            vm_total=dsp.total_vms(),
            tag_rules=0 if step.plan is None else step.plan.max_switch_rules(),
            wastage_gbps=w, evasion_gbps=v, wastage_vm=wvm,
            infeasible=infeasible,
        ), step


def run_scenario_sweep(sc: Scenario) -> dict[int, list[EpochRecord]]:
    """One run per distinct seed, in ascending seed order. The topology and
    library do not depend on the run seed, so they are loaded once and
    shared. The runs are CPU-bound Python, so they run serially: threads
    would only contend for the interpreter lock."""
    topo, lib = sc.load_topology(), sc.load_library()
    return {seed: _run_epochs(sc, seed, topo, lib) for seed in sc.run_seeds()}


def provisioning_comparison(demand_series: list[list[float]]) -> tuple[float, float]:
    """Static-peak versus elastic hardware footprint over a demand series.

    Static provisions every epoch at each attack type's peak demand; elastic
    provisions exactly what each epoch needs. Both totals are in
    Gbps-epochs.
    """
    arr = config.matrix(demand_series, "demand series")
    if not len(arr):
        raise InputError("demand series must be nonempty")
    if arr.shape[1] == 0:
        raise InputError("every epoch needs at least one demand value")
    if not (np.isfinite(arr).all() and (arr >= 0).all()):
        raise InputError("demands must be >= 0 and finite")
    epochs = arr.shape[0]
    with np.errstate(over="ignore"):
        static_peak = float(epochs * arr.max(axis=0).sum())
        elastic = float(arr.sum())
    if not np.isfinite([static_peak, elastic]).all():
        raise InputError("demand totals overflow")
    return static_peak, elastic


def emit_report(records: list[EpochRecord], out_dir: str,
                summary_extra: dict | None = None) -> tuple[str, str]:
    """Write epochs.csv (one row per epoch) and summary.json (column totals
    plus optional extras). Output is byte-stable for a fixed record list."""
    if not records:
        raise InputError("no records to report")
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "epochs.csv")
    json_path = os.path.join(out_dir, "summary.json")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow(rec.csv_row())
    totals = {
        "epochs": len(records),
        "actual_gbps": round(sum(float(r.actual.sum()) for r in records), 6),
        "t_left": round(sum(r.t_left for r in records), 6),
        "wastage_gbps": round(sum(r.wastage_gbps for r in records), 6),
        "evasion_gbps": round(sum(r.evasion_gbps for r in records), 6),
        "wastage_vm": round(sum(r.wastage_vm for r in records), 6),
        "vm_total": sum(r.vm_total for r in records),
        "infeasible_epochs": sum(1 for r in records if r.infeasible),
    }
    summary = {"totals": totals}
    if summary_extra:
        summary.update(summary_extra)
    with open(json_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, json_path


def verify_records_feasible(sc: Scenario, seed: int | None = None) -> int:
    """Re-run a scenario and recheck every placed epoch's resource assignment
    with the constraint checker; returns the number of violations found."""
    seed = _run_seed(sc, seed)
    topo, lib = sc.load_topology(), sc.load_library()
    return sum(len(check_feasibility(topo, record.estimate, step.dsp, step.ssps,
                                     sc.cost, lib))
               for record, step in _epochs(sc, seed, topo, lib)
               if step.ssps is not None)
