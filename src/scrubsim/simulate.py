"""Epoch-driven simulation: adversary -> lagged observation -> estimator ->
resource manager -> orchestration -> losses, with CSV/JSON report emitters.

Each epoch the adversary emits a mix, the estimator sees only strictly
earlier epochs, the resource manager provisions for the estimate, the
orchestrator compiles the forwarding plan, and losses are scored against
the actual mix. Placement or capacity shortfalls are recorded in the epoch
record; they never abort a run.
"""

from __future__ import annotations

import csv
import json
import os
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .adaptation import (
    STRATEGIES,
    AdversaryStrategy,
    Budget,
    EstimatorState,
    adversary_next,
    check_estimator,
    estimate,
    loss_accounting,
)
from .defense_graphs import (
    AnnotatedGraph,
    AttackType,
    builtin_library,
    load_library,
    ordered_graphs,
)
from .errors import InputError, PlacementError
from .orchestration import build_tag_pools, pin_bidirectional_for_graph, synthesize_rules
from .resource_manager import (
    DspResult,
    SspResult,
    check_feasibility,
    dsp_greedy,
    evaluate_cost,
    overprovision,
    place_all,
)
from .topology import CostParams, Topology, _real, _whole, generate_topology, load_topology

SCENARIO_SCHEMA_VERSION = 1

CSV_COLUMNS = [
    "epoch", "actual_gbps", "estimate_gbps", "t_left", "handled_gbps",
    "cost", "vm_total", "tag_rules", "wastage_gbps", "evasion_gbps",
    "wastage_vm", "infeasible",
]


def _path(value, what: str) -> str | None:
    # JSON true would reach open() as file descriptor 1.
    if value is not None and not isinstance(value, str):
        raise InputError(f"{what} must be a string, not {value!r}")
    return value


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
        check_estimator(self.estimator, self.gamma)
        _check_fpl_seeds(self.estimator, [self.seed, *(self.seeds or [])])

    def run_seeds(self) -> list[int]:
        """The distinct run seeds, ascending: ``seeds``, or else ``seed``."""
        return sorted(set(self.seeds or [self.seed]))

    def load_topology(self) -> Topology:
        if self.topology_path:
            return load_topology(self.topology_path)
        return generate_topology(self.topology_nodes, self.dc_slots, seed=self.seed)

    def load_library(self) -> dict[AttackType, AnnotatedGraph]:
        if self.graphs_path:
            return load_library(self.graphs_path)
        return builtin_library()

    @classmethod
    def from_config(cls, cfg: dict) -> "Scenario":
        if not (isinstance(cfg, dict) and isinstance(cfg.get("cost", {}), dict)):
            raise InputError("malformed scenario config: the scenario and its cost "
                             "must be JSON objects")
        version = cfg.get("version", SCENARIO_SCHEMA_VERSION)
        if version != SCENARIO_SCHEMA_VERSION:
            raise InputError(f"unsupported scenario schema version {version}")
        cost_cfg = cfg.get("cost", {})
        try:
            return cls(
                epochs=_whole(cfg["epochs"], "epochs"),
                budget_gbps=_real(cfg["budget_gbps"], "budget_gbps"),
                adversary=str(cfg["adversary"]),
                estimator=str(cfg["estimator"]),
                seed=_whole(cfg.get("seed", 0), "seed"),
                seeds=[_whole(s, "seeds entry") for s in cfg["seeds"]] if "seeds" in cfg else None,
                gamma=_real(cfg.get("gamma", 1.0), "gamma"),
                topology_nodes=_whole(cfg.get("topology_nodes", 24), "topology_nodes"),
                dc_slots=_whole(cfg.get("dc_slots", 4000), "dc_slots"),
                topology_path=_path(cfg.get("topology_path"), "topology_path"),
                graphs_path=_path(cfg.get("graphs_path"), "graphs_path"),
                cost=CostParams(
                    alpha=_real(cost_cfg.get("alpha", 1.0), "cost alpha"),
                    intra_unit_cost=_real(cost_cfg.get("intra_unit_cost", 1.0),
                                          "cost intra_unit_cost"),
                    inter_unit_cost=_real(cost_cfg.get("inter_unit_cost", 5.0),
                                          "cost inter_unit_cost"),
                    beta=_real(cost_cfg.get("beta", 1.0), "cost beta"),
                ),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"malformed scenario config: {exc}") from exc


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
    return [record for record, *_ in _epochs(sc, seed, topo, lib)]


def _epochs(sc: Scenario, seed: int, topo: Topology,
            lib: dict[AttackType, AnnotatedGraph],
            ) -> Iterator[tuple[EpochRecord, np.ndarray, DspResult, list[SspResult] | None]]:
    """Run the epochs one at a time, yielding each epoch's record, estimate,
    cushioned resource assignment and server placements (None when
    placement failed)."""
    graphs = ordered_graphs(lib)
    n_pops, n_attacks = len(topo.pops), len(graphs)
    budget = Budget(sc.budget_gbps)
    strategy = AdversaryStrategy(kind=sc.adversary, seed=seed)
    state = EstimatorState(kind=sc.estimator, n_pops=n_pops,
                           n_attacks=n_attacks, gamma=sc.gamma)

    for t in range(sc.epochs):
        actual = adversary_next(strategy, budget, t, n_pops, n_attacks)
        rng = np.random.default_rng([seed, 104729, t]) if sc.estimator == "fpl" else None
        est = estimate(state, budget, rng)
        # The overprovision cushion multiplies the resource manager's VM
        # counts; losses are scored against the cushioned capacity.
        provision = est * sc.gamma

        infeasible = ""
        dsp = overprovision(dsp_greedy(topo, est, lib), sc.gamma)
        cost = float("nan")
        tag_rules = 0
        try:
            ssps = place_all(topo, dsp, lib)
            cost = evaluate_cost(dsp, ssps, sc.cost)
            pools = build_tag_pools(dsp.physical, lib)
            plan = synthesize_rules(dsp, ssps, pools, topo, lib)
            for pg in dsp.physical.values():
                pin_bidirectional_for_graph(plan, pg, pools, lib)
            tag_rules = plan.max_switch_rules()
        except PlacementError as exc:
            ssps = None
            infeasible = f"placement: {exc}"
        if dsp.t_left > 1e-9:
            note = f"t_left={dsp.t_left:.3f}"
            infeasible = f"{infeasible}; {note}" if infeasible else note

        w, v, wvm = loss_accounting(provision, actual, lib)
        state.observe(actual)
        yield EpochRecord(
            epoch=t, actual=actual, estimate=est, t_left=dsp.t_left,
            handled_gbps=float(est.sum()) - dsp.t_left, cost=cost,
            vm_total=dsp.total_vms(), tag_rules=tag_rules,
            wastage_gbps=w, evasion_gbps=v, wastage_vm=wvm,
            infeasible=infeasible,
        ), est, dsp, ssps


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
    if not demand_series:
        raise InputError("demand series must be nonempty")
    try:
        arr = np.asarray(demand_series, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"demand series must be a list of per-epoch demands: {exc}") from exc
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise InputError("demand series must be a list of per-epoch demands")
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
    return sum(len(check_feasibility(topo, est, dsp, ssps, sc.cost, lib))
               for _record, est, dsp, ssps in _epochs(sc, seed, topo, lib)
               if ssps is not None)
