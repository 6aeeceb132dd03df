"""Command-line front end.

Exit codes: 0 success, 2 config error, 3 runtime infeasibility: unassignable
volume or failed placements recorded by a run, or a placement that failed.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import sys
import time

import click
import numpy as np

from . import adaptation, defense_graphs, oracle, simulate, topology
from .errors import InputError, OracleSizeError
from .resource_manager import dsp_greedy

SEED_ENV = "BOHATEI_SEED"


def _fail(message: str, code: int = 2):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


@contextlib.contextmanager
def _writing(path: str):
    """Exit 2 with a message, not a traceback, when writing `path` fails."""
    try:
        yield
    except OSError as exc:
        _fail(f"cannot write {path}: {exc}")


def _check_writable(path: str, directory: bool = False) -> None:
    """Exit 2 with a message before a long run, not after it, when `path`
    cannot be written. A file is opened to append and a directory is made;
    whatever the probe made is removed again."""
    made, head = [], os.path.normpath(path)
    while head and not os.path.lexists(head):
        made.append(head)
        head = os.path.dirname(head)
    with _writing(path):
        if directory:
            os.makedirs(path, exist_ok=True)
        else:
            open(path, "a").close()
    for made_path in made:  # deepest first
        (os.rmdir if directory else os.remove)(made_path)


def _load_traffic(path: str, topo, lib) -> np.ndarray:
    try:
        with open(path) as fh:
            data = json.load(fh)
        matrix = np.asarray(data["traffic"] if isinstance(data, dict) else data,
                            dtype=float)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        _fail(f"cannot read traffic file {path}: {exc}")
    try:
        from .resource_manager import validate_traffic
        return validate_traffic(matrix, topo, lib)
    except InputError as exc:
        _fail(str(exc))


def _load_topo(path: str):
    try:
        return topology.load_topology(path)
    except (OSError, InputError, json.JSONDecodeError) as exc:
        _fail(f"cannot load topology {path}: {exc}")


def _load_lib(path: str | None):
    if path is None:
        return defense_graphs.builtin_library()
    try:
        return defense_graphs.load_library(path)
    except (OSError, InputError, json.JSONDecodeError) as exc:
        _fail(f"cannot load graph library {path}: {exc}")


@click.group()
def main():
    """Elastic DDoS-scrubbing control-plane simulator."""


# -- topo ---------------------------------------------------------------

@main.group()
def topo():
    """Topology generation and inspection."""


@topo.command("gen")
@click.option("--nodes", type=click.IntRange(min=1), required=True,
              help="Backbone switch count.")
@click.option("--dc-slots", type=click.IntRange(min=1), default=4000, show_default=True)
@click.option("--seed", type=int, default=0, envvar=SEED_ENV, show_default=True)
@click.option("--out", type=click.Path(), required=True)
def topo_gen(nodes, dc_slots, seed, out):
    t = topology.generate_topology(nodes, dc_slots, seed=seed)
    with _writing(out):
        topology.save_topology(t, out)
    click.echo(f"wrote {out}: {len(t.pops)} pops, {len(t.datacenters)} datacenters")


# -- graph --------------------------------------------------------------

@main.group()
def graph():
    """Defense graph validation and sizing."""


@graph.command("validate")
@click.argument("path", type=click.Path(exists=True))
def graph_validate(path):
    lib = _load_lib(path)
    for g in defense_graphs.ordered_graphs(lib):
        click.echo(f"{g.attack.name}: {len(g.nodes)} nodes, "
                   f"factor {defense_graphs.graph_compute_factor(g):.4f} slots/Gbps")
    click.echo("ok")


@graph.command("demand")
@click.option("--attack", "attack_name", required=True)
@click.option("--gbps", type=float, required=True)
@click.option("--graphs", "graphs_path", type=click.Path(exists=True), default=None)
def graph_demand(attack_name, gbps, graphs_path):
    lib = _load_lib(graphs_path)
    match = [g for g in lib.values() if g.attack.name == attack_name]
    if not match:
        _fail(f"unknown attack {attack_name!r}; have "
              f"{sorted(g.attack.name for g in lib.values())}")
    g = match[0]
    try:
        fine = {g.node(n.id).name: defense_graphs.node_demand_vms(g, n.id, gbps)
                for n in g.nodes}
        mono = defense_graphs.monolithic_demand_vms(g, gbps)
    except InputError as exc:
        _fail(str(exc))
    click.echo(json.dumps({
        "attack": attack_name,
        "gbps": gbps,
        "fine_grained": fine,
        "fine_grained_total": sum(fine.values()),
        "monolithic_replicas": mono,
        "monolithic_total_vms": mono * len(g.nodes),
    }, indent=2, sort_keys=True))


# -- rm -----------------------------------------------------------------

@main.group()
def rm():
    """Resource management (datacenter + server selection)."""


@rm.command("dsp")
@click.option("--topo", "topo_path", type=click.Path(exists=True), required=True)
@click.option("--traffic", "traffic_path", type=click.Path(exists=True), required=True)
@click.option("--graphs", "graphs_path", type=click.Path(exists=True), default=None)
@click.option("--ceil-per-assignment", is_flag=True, default=False,
              help="Charge whole VMs per assignment instead of fractionally.")
@click.option("--out", type=click.Path(), required=True)
def rm_dsp(topo_path, traffic_path, graphs_path, ceil_per_assignment, out):
    t = _load_topo(topo_path)
    lib = _load_lib(graphs_path)
    traffic = _load_traffic(traffic_path, t, lib)
    started = time.perf_counter()
    dsp = dsp_greedy(t, traffic, lib, ceil_per_assignment=ceil_per_assignment)
    elapsed = time.perf_counter() - started
    payload = {
        "f": dsp.f.tolist(),
        "n_dc": {f"{d}:{a}": counts for (d, a), counts in sorted(dsp.n_dc.items())},
        "t_left": dsp.t_left,
        "wide_area_cost": dsp.wide_area_cost,
        "total_vms": dsp.total_vms(),
        "runtime_s": elapsed,
    }
    with _writing(out), open(out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    click.echo(f"dsp: handled {traffic.sum() - dsp.t_left:.3f} of "
               f"{traffic.sum():.3f} Gbps in {elapsed * 1e3:.2f} ms; wrote {out}")


@rm.command("ssp")
@click.option("--topo", "topo_path", type=click.Path(exists=True), required=True)
@click.option("--traffic", "traffic_path", type=click.Path(exists=True), required=True)
@click.option("--graphs", "graphs_path", type=click.Path(exists=True), default=None)
@click.option("--out", type=click.Path(), required=True)
def rm_ssp(topo_path, traffic_path, graphs_path, out):
    """Run datacenter selection, then place every physical graph onto servers."""
    t = _load_topo(topo_path)
    lib = _load_lib(graphs_path)
    step = simulate.control_plane(t, lib, _load_traffic(traffic_path, t, lib))
    if step.ssps is None:
        _fail(step.error, 3)
    payload = {
        "f": step.dsp.f.tolist(),
        "t_left": step.dsp.t_left,
        "cost": step.cost,
        "placements": [
            {
                "dc": r.dc_id,
                "attack": r.attack_id,
                "intra_rack_units": r.intra_rack_units,
                "inter_rack_units": r.inter_rack_units,
                "vms": {f"{n}:{k}": list(loc) for (n, k), loc in sorted(r.placements.items())},
            }
            for r in step.ssps
        ],
    }
    with _writing(out), open(out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    click.echo(f"ssp: placed {sum(len(r.placements) for r in step.ssps)} VMs; wrote {out}")


@rm.command("oracle-compare")
@click.option("--instances", type=click.IntRange(min=1), default=100, show_default=True)
@click.option("--seed", type=int, default=0, envvar=SEED_ENV, show_default=True)
@click.option("--delta", type=float, default=0.05, show_default=True)
@click.option("--report", "report_path", type=click.Path(), required=True)
@click.option("--dump-dir", type=click.Path(), default=None,
              help="Directory for >10% gap counterexamples.")
def rm_oracle_compare(instances, seed, delta, report_path, dump_dir):
    # Both outputs are checked before the comparison, which can take minutes.
    _check_writable(report_path)
    if dump_dir:
        _check_writable(dump_dir, directory=True)
    try:
        rows = oracle.oracle_comparison(instances, seed, delta=delta)
    except OracleSizeError as exc:
        _fail(str(exc))
    with _writing(report_path), open(report_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "handled_greedy", "handled_oracle",
                         "cost_greedy", "cost_oracle", "gap", "runtime_s"])
        for r in rows:
            writer.writerow([r.seed, f"{r.handled_greedy:.6f}", f"{r.handled_oracle:.6f}",
                             f"{r.cost_greedy:.6f}", f"{r.cost_oracle:.6f}",
                             f"{r.gap:.6f}", f"{r.runtime_s:.4f}"])
    dumped = 0
    if dump_dir:
        with _writing(dump_dir):
            os.makedirs(dump_dir, exist_ok=True)
        for r in rows:
            if r.counterexample:
                path = f"{dump_dir}/counterexample_{r.seed}.json"
                with _writing(path), open(path, "w") as fh:
                    json.dump(r.counterexample, fh, indent=2, sort_keys=True)
                dumped += 1
    stats = oracle.gap_summary(rows)
    click.echo(f"instances={len(rows)} handled_equal={stats['handled_equal']} "
               f"median_gap={stats['median_gap']:.6f} "
               f"p90_gap={stats['p90_gap']:.6f} over_10pct={stats['over_10pct']} "
               f"max_gap={stats['max_gap']:.6f} unproven={stats['unproven']} dumped={dumped}")


# -- orch ---------------------------------------------------------------

@main.group()
def orch():
    """Forwarding-rule synthesis and counting."""


@orch.command("rules")
@click.option("--topo", "topo_path", type=click.Path(exists=True), required=True)
@click.option("--traffic", "traffic_path", type=click.Path(exists=True), required=True)
@click.option("--graphs", "graphs_path", type=click.Path(exists=True), default=None)
@click.option("--out", type=click.Path(), required=True)
def orch_rules(topo_path, traffic_path, graphs_path, out):
    t = _load_topo(topo_path)
    lib = _load_lib(graphs_path)
    step = simulate.control_plane(t, lib, _load_traffic(traffic_path, t, lib))
    if step.plan is None:
        _fail(step.error, 3)
    with _writing(out):
        step.plan.dump(out)
    click.echo(f"plan: {step.plan.max_switch_rules()} rules on the busiest switch, "
               f"{step.plan.tag_bits} tag bits; wrote {out}")


@orch.command("count")
@click.option("--plan", "plan_path", type=click.Path(exists=True), required=True)
@click.option("--flows", type=click.IntRange(min=0), required=True)
def orch_count(plan_path, flows):
    try:
        with open(plan_path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        _fail(f"cannot read plan {plan_path}: {exc}")
    tables = data.get("dc_tables", {}) if isinstance(data, dict) else None
    if not (isinstance(tables, dict) and all(isinstance(r, list) for r in tables.values())):
        _fail(f"cannot read plan {plan_path}: expected an object whose dc_tables "
              f"maps switches to rule lists")
    per_switch = {sw: len(rules) for sw, rules in tables.items()}
    tag_rules = max(per_switch.values(), default=0)
    click.echo(json.dumps({
        "tag_rules": tag_rules,
        "per_flow_rules": flows,
        "ratio": (flows / tag_rules) if tag_rules else None,
    }, indent=2, sort_keys=True))


# -- adapt --------------------------------------------------------------

@main.group()
def adapt():
    """Adversary adaptation experiments."""


@adapt.command("regret")
@click.option("--strategy", type=click.Choice(adaptation.STRATEGIES + ("all",)),
              default="all", show_default=True)
@click.option("--estimator", type=click.Choice(adaptation.ESTIMATORS + ("all",)),
              default="all", show_default=True)
@click.option("--epochs", type=int, default=500, show_default=True)
@click.option("--seeds", type=int, default=10, show_default=True,
              help="Number of seeds (0..n-1 offset by --seed).")
@click.option("--seed", type=int, default=0, envvar=SEED_ENV, show_default=True)
@click.option("--budget", type=float, default=100.0, show_default=True)
@click.option("--pops", type=int, default=6, show_default=True)
@click.option("--out", type=click.Path(), required=True)
def adapt_regret(strategy, estimator, epochs, seeds, seed, budget, pops, out):
    _check_writable(out)
    lib = defense_graphs.builtin_library()
    seed_list = [seed + k for k in range(seeds)]
    if strategy != "all" and estimator != "all":
        # Single pair: per-epoch series with running cumulatives and regret.
        try:
            rows = adaptation.per_epoch_regret_report(
                strategy, estimator, n_pops=pops, budget=adaptation.Budget(budget),
                lib=lib, epochs=epochs, seeds=seed_list)
        except InputError as exc:
            _fail(str(exc))
        columns = ["epoch", "wastage_gbps", "evasion_gbps", "wastage_vm",
                   "cum_g1_vm", "cum_g2_gbps", "regret_combined",
                   "regret_g1", "regret_g2"]
        with _writing(out), open(out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            for row in rows:
                writer.writerow([int(row["epoch"])]
                                + [f"{row[c]:.6f}" for c in columns[1:]])
        last = rows[-1]
        click.echo(f"{strategy}/{estimator}: final regret combined "
                   f"{last['regret_combined']:.4f}, g1 {last['regret_g1']:.4f}, "
                   f"g2 {last['regret_g2']:.4f}; wrote {out}")
        return
    strategies = adaptation.STRATEGIES if strategy == "all" else (strategy,)
    estimators = adaptation.ESTIMATORS if estimator == "all" else (estimator,)
    try:
        rows = adaptation.regret_experiment(
            n_pops=pops, budget=adaptation.Budget(budget), lib=lib, epochs=epochs,
            seeds=seed_list, strategies=strategies, estimators=estimators)
    except InputError as exc:
        _fail(str(exc))
    with _writing(out), open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["strategy", "estimator", "regret_combined", "regret_g1",
                         "regret_g2", "wastage_gbps", "evasion_gbps"])
        for r in rows:
            writer.writerow([r.strategy, r.estimator,
                             f"{r.mean_regret_combined:.6f}", f"{r.mean_regret_g1:.6f}",
                             f"{r.mean_regret_g2:.6f}", f"{r.mean_wastage_gbps:.6f}",
                             f"{r.mean_evasion_gbps:.6f}"])
    for r in rows:
        click.echo(f"{r.strategy:>14} {r.estimator:>9}  combined={r.mean_regret_combined:8.4f}"
                   f"  g1={r.mean_regret_g1:8.4f}  g2={r.mean_regret_g2:8.4f}")
    click.echo(f"wrote {out}")


# -- compare ------------------------------------------------------------

@main.group()
def compare():
    """Headline comparisons."""


@compare.command("provisioning")
@click.option("--series", "series_path", type=click.Path(exists=True), required=True,
              help="JSON: list of per-epoch demand lists (one value per attack).")
def compare_provisioning(series_path):
    try:
        with open(series_path) as fh:
            series = json.load(fh)
        static_peak, elastic = simulate.provisioning_comparison(series)
    except (OSError, ValueError, InputError) as exc:
        _fail(str(exc))
    saving = 1.0 - elastic / static_peak if static_peak else 0.0
    click.echo(json.dumps({
        "static_peak_total": static_peak,
        "elastic_total": elastic,
        "reduction": round(saving, 6),
    }, indent=2, sort_keys=True))


# -- simulate -----------------------------------------------------------

@main.command("simulate")
@click.option("--scenario", "scenario_path", type=click.Path(exists=True), required=True)
@click.option("--out-dir", type=click.Path(), required=True)
@click.option("--seed", "seed_override", type=int, default=None, envvar=SEED_ENV,
              help="Default seed when the scenario file omits one.")
def simulate_cmd(scenario_path, out_dir, seed_override):
    """Run an epoch-driven scenario and write per-epoch reports."""
    try:
        with open(scenario_path) as fh:
            cfg = json.load(fh)
        if isinstance(cfg, dict) and "seed" not in cfg and seed_override is not None:
            cfg["seed"] = seed_override
        sc = simulate.Scenario.from_config(cfg)
    except (OSError, InputError, json.JSONDecodeError) as exc:
        _fail(str(exc))
    seeds = sc.run_seeds()
    targets = {seed: out_dir if len(seeds) == 1 else f"{out_dir}/seed{seed}" for seed in seeds}
    for target in targets.values():
        _check_writable(target, directory=True)
    try:
        # The sweep loads the topology and library once, before epoch 0, so
        # a problem with either exits with code 2 instead of a traceback.
        by_seed = simulate.run_scenario_sweep(sc)
    except (OSError, InputError, json.JSONDecodeError) as exc:
        _fail(str(exc))
    infeasible = 0
    for seed, records in by_seed.items():
        with _writing(targets[seed]):
            simulate.emit_report(records, targets[seed], summary_extra={"seed": seed})
        infeasible += sum(1 for r in records if r.infeasible)
    click.echo(f"simulated {len(by_seed)} seed(s) x {sc.epochs} epochs; "
               f"{infeasible} infeasible epoch(s); reports in {out_dir}")
    if infeasible:
        sys.exit(3)


if __name__ == "__main__":
    main()
