"""Command-line front end.

Exit codes: 0 success, 2 config error, 3 runtime infeasibility: a `simulate`
run that recorded unassignable volume or failed placements.
"""

from __future__ import annotations

import sys
import time

import click
import numpy as np

from . import adaptation, config, defense_graphs, oracle, simulate, topology
from .errors import InputError, OracleSizeError
from .resource_manager import dsp_greedy, validate_traffic

SEED_ENV = "BOHATEI_SEED"


def _fail(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _echo(text: str, nl: bool = True) -> None:
    """Print to stdout. A failed write, such as to a full disk, is an
    InputError naming <stdout>."""
    try:
        click.echo(text, nl=nl)
    except OSError as exc:
        raise InputError(f"cannot write <stdout>: {exc}") from exc


def _traffic(data) -> np.ndarray:
    """A traffic file holds {"traffic": matrix} or the bare matrix."""
    if isinstance(data, dict):
        data = config.record(data, "traffic file", ("traffic",))["traffic"]
    return config.matrix(data, "traffic")


def _load_traffic(path: str, topo, lib) -> np.ndarray:
    return validate_traffic(config.read_json(path, "cannot read traffic file", _traffic),
                            topo, lib)


def _rule_counts(plan) -> dict:
    """Rules per switch of a plan's dc_tables (switch -> rule list)."""
    tables = config.record(plan, "plan", optional=None).get("dc_tables", {})
    tables = config.record(tables, "dc_tables", optional=None)
    return {sw: len(config.items(rules, f"dc_tables {sw}")) for sw, rules in tables.items()}


class _Main(click.Group):
    """Every command ends an InputError or OracleSizeError with an `error:`
    line and exit code 2, not a traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (InputError, OracleSizeError) as exc:
            _fail(str(exc))


@click.group(cls=_Main)
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
    topology.save_topology(t, out)
    _echo(f"wrote {out}: {len(t.pops)} pops, {len(t.datacenters)} datacenters")


# -- graph --------------------------------------------------------------

@main.group()
def graph():
    """Defense graph validation and sizing."""


@graph.command("validate")
@click.argument("path", type=click.Path(exists=True))
def graph_validate(path):
    lib = defense_graphs.load_library(path)
    for g in lib:
        _echo(f"{g.attack.name}: {len(g.nodes)} nodes, "
              f"factor {g.compute_factor:.4f} slots/Gbps")
    _echo("ok")


@graph.command("demand")
@click.option("--attack", "attack_name", required=True)
@click.option("--gbps", type=float, required=True)
@click.option("--graphs", "graphs_path", type=click.Path(exists=True), default=None)
def graph_demand(attack_name, gbps, graphs_path):
    lib = defense_graphs.load_library(graphs_path)
    match = [g for g in lib if g.attack.name == attack_name]
    if not match:
        _fail(f"unknown attack {attack_name!r}; have "
              f"{sorted(g.attack.name for g in lib)}")
    g = match[0]
    fine = {g.node(n.id).name: defense_graphs.node_demand_vms(g, n.id, gbps)
            for n in g.nodes}
    mono = defense_graphs.monolithic_demand_vms(g, gbps)
    _echo(config.json_text({
        "attack": attack_name,
        "gbps": gbps,
        "fine_grained": fine,
        "fine_grained_total": sum(fine.values()),
        "monolithic_replicas": mono,
        "monolithic_total_vms": mono * len(g.nodes),
    }), nl=False)


# -- rm -----------------------------------------------------------------

@main.group()
def rm():
    """Resource management (datacenter + server selection)."""


@rm.command("dsp")
@click.option("--topo", "topo_path", type=click.Path(exists=True), required=True)
@click.option("--traffic", "traffic_path", type=click.Path(exists=True), required=True)
@click.option("--graphs", "graphs_path", type=click.Path(exists=True), default=None)
@click.option("--out", type=click.Path(), required=True)
def rm_dsp(topo_path, traffic_path, graphs_path, out):
    t = topology.load_topology(topo_path)
    lib = defense_graphs.load_library(graphs_path)
    traffic = _load_traffic(traffic_path, t, lib)
    started = time.perf_counter()
    dsp = dsp_greedy(t, traffic, lib)
    elapsed = time.perf_counter() - started
    payload = {
        "f": dsp.f.tolist(),
        "n_dc": {f"{d}:{a}": counts for (d, a), counts in sorted(dsp.n_dc.items())},
        "t_left": dsp.t_left,
        "wide_area_cost": dsp.wide_area_cost,
        "total_vms": dsp.total_vms(),
        "runtime_s": elapsed,
    }
    config.write_json(out, payload)
    _echo(f"dsp: handled {traffic.sum() - dsp.t_left:.3f} of "
          f"{traffic.sum():.3f} Gbps in {elapsed * 1e3:.2f} ms; wrote {out}")


@rm.command("ssp")
@click.option("--topo", "topo_path", type=click.Path(exists=True), required=True)
@click.option("--traffic", "traffic_path", type=click.Path(exists=True), required=True)
@click.option("--graphs", "graphs_path", type=click.Path(exists=True), default=None)
@click.option("--out", type=click.Path(), required=True)
def rm_ssp(topo_path, traffic_path, graphs_path, out):
    """Run datacenter selection, then place every physical graph onto servers."""
    t = topology.load_topology(topo_path)
    lib = defense_graphs.load_library(graphs_path)
    step = simulate.control_plane(t, lib, _load_traffic(traffic_path, t, lib))
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
    config.write_json(out, payload)
    _echo(f"ssp: placed {sum(len(r.placements) for r in step.ssps)} VMs; wrote {out}")


@rm.command("oracle-compare")
@click.option("--instances", type=click.IntRange(min=1), default=100, show_default=True)
@click.option("--seed", type=int, default=0, envvar=SEED_ENV, show_default=True)
@click.option("--delta", type=float, default=0.05, show_default=True)
@click.option("--report", "report_path", type=click.Path(), required=True)
@click.option("--dump-dir", type=click.Path(), default=None,
              help="Directory for >10% gap counterexamples.")
def rm_oracle_compare(instances, seed, delta, report_path, dump_dir):
    # Both outputs are checked before the comparison, whose time grows with
    # --instances and has a heavy tail.
    config.check_writable(report_path)
    if dump_dir:
        config.check_writable(dump_dir, directory=True)
    rows = oracle.oracle_comparison(instances, seed, delta=delta)
    config.write_csv(report_path, ["seed", "handled_greedy", "handled_oracle",
                                   "cost_greedy", "cost_oracle", "gap", "runtime_s"],
                     ([r.seed, f"{r.handled_greedy:.6f}", f"{r.handled_oracle:.6f}",
                       f"{r.cost_greedy:.6f}", f"{r.cost_oracle:.6f}",
                       f"{r.gap:.6f}", f"{r.runtime_s:.4f}"] for r in rows))
    dumped = 0
    if dump_dir:
        config.make_dirs(dump_dir)
        for r in rows:
            if r.counterexample:
                config.write_json(f"{dump_dir}/counterexample_{r.seed}.json", r.counterexample)
                dumped += 1
    stats = oracle.gap_summary(rows)
    _echo(f"instances={len(rows)} handled_equal={stats['handled_equal']} "
          f"median_gap={stats['median_gap']:.6f} "
          f"p90_gap={stats['p90_gap']:.6f} over_10pct={stats['over_10pct']} "
          f"max_gap={stats['max_gap']:.6f} handled_unequal={stats['handled_unequal']} "
          f"greedy_more_gbps={stats['greedy_more_gbps']:.6f} "
          f"greedy_less_gbps={stats['greedy_less_gbps']:.6f} "
          f"unproven={stats['unproven']} dumped={dumped}")


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
    t = topology.load_topology(topo_path)
    lib = defense_graphs.load_library(graphs_path)
    step = simulate.control_plane(t, lib, _load_traffic(traffic_path, t, lib))
    step.plan.dump(out)
    _echo(f"plan: {step.plan.max_switch_rules()} rules on the busiest switch, "
          f"{step.plan.tag_bits} tag bits; wrote {out}")


@orch.command("count")
@click.option("--plan", "plan_path", type=click.Path(exists=True), required=True)
@click.option("--flows", type=click.IntRange(min=0), required=True)
def orch_count(plan_path, flows):
    per_switch = config.read_json(plan_path, "cannot read plan", _rule_counts)
    tag_rules = max(per_switch.values(), default=0)
    _echo(config.json_text({
        "tag_rules": tag_rules,
        "per_flow_rules": flows,
        "ratio": (flows / tag_rules) if tag_rules else None,
    }), nl=False)


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
    config.check_writable(out)
    lib = defense_graphs.builtin_library()
    seed_list = [seed + k for k in range(seeds)]
    if strategy != "all" and estimator != "all":
        # Single pair: per-epoch series with running cumulatives and regret.
        rows = adaptation.per_epoch_regret_report(
            strategy, estimator, n_pops=pops, budget=adaptation.Budget(budget),
            lib=lib, epochs=epochs, seeds=seed_list)
        columns = adaptation.PER_EPOCH_COLUMNS
        config.write_csv(out, ["epoch", *columns],
                         ([int(row["epoch"]), *(f"{row[c]:.6f}" for c in columns)]
                          for row in rows))
        last = rows[-1]
        _echo(f"{strategy}/{estimator}: final regret combined "
              f"{last['regret_combined']:.4f}, g1 {last['regret_g1']:.4f}, "
              f"g2 {last['regret_g2']:.4f}; wrote {out}")
        return
    strategies = adaptation.STRATEGIES if strategy == "all" else (strategy,)
    estimators = adaptation.ESTIMATORS if estimator == "all" else (estimator,)
    rows = adaptation.regret_experiment(
        n_pops=pops, budget=adaptation.Budget(budget), lib=lib, epochs=epochs,
        seeds=seed_list, strategies=strategies, estimators=estimators)
    config.write_csv(out, ["strategy", "estimator", "regret_combined", "regret_g1",
                           "regret_g2", "wastage_gbps", "evasion_gbps"],
                     ([r.strategy, r.estimator,
                       f"{r.mean_regret_combined:.6f}", f"{r.mean_regret_g1:.6f}",
                       f"{r.mean_regret_g2:.6f}", f"{r.mean_wastage_gbps:.6f}",
                       f"{r.mean_evasion_gbps:.6f}"] for r in rows))
    for r in rows:
        _echo(f"{r.strategy:>14} {r.estimator:>9}  combined={r.mean_regret_combined:8.4f}"
              f"  g1={r.mean_regret_g1:8.4f}  g2={r.mean_regret_g2:8.4f}")
    _echo(f"wrote {out}")


# -- compare ------------------------------------------------------------

@main.group()
def compare():
    """Headline comparisons."""


@compare.command("provisioning")
@click.option("--series", "series_path", type=click.Path(exists=True), required=True,
              help="JSON: list of per-epoch demand lists (one value per attack).")
def compare_provisioning(series_path):
    series = config.read_json(series_path, "cannot read demand series")
    static_peak, elastic = simulate.provisioning_comparison(series)
    saving = 1.0 - elastic / static_peak if static_peak else 0.0
    _echo(config.json_text({
        "static_peak_total": static_peak,
        "elastic_total": elastic,
        "reduction": round(saving, 6),
    }), nl=False)


# -- simulate -----------------------------------------------------------

@main.command("simulate")
@click.option("--scenario", "scenario_path", type=click.Path(exists=True), required=True)
@click.option("--out-dir", type=click.Path(), required=True)
@click.option("--seed", "seed_override", type=int, default=None, envvar=SEED_ENV,
              help="Default seed when the scenario file omits one.")
def simulate_cmd(scenario_path, out_dir, seed_override):
    """Run an epoch-driven scenario and write per-epoch reports."""
    sc = simulate.Scenario.from_config(config.read_json(scenario_path, "cannot read scenario"),
                                       default_seed=seed_override)
    seeds = sc.run_seeds()
    targets = {seed: out_dir if len(seeds) == 1 else f"{out_dir}/seed{seed}" for seed in seeds}
    for target in targets.values():
        config.check_writable(target, directory=True)
    # The sweep loads the topology and library once, before epoch 0, so a
    # problem with either exits with code 2 before any epoch runs.
    by_seed = simulate.run_scenario_sweep(sc)
    infeasible = 0
    for seed, records in by_seed.items():
        simulate.emit_report(records, targets[seed], summary_extra={"seed": seed})
        infeasible += sum(1 for r in records if r.infeasible)
    _echo(f"simulated {len(by_seed)} seed(s) x {sc.epochs} epochs; "
          f"{infeasible} infeasible epoch(s); reports in {out_dir}")
    if infeasible:
        sys.exit(3)


if __name__ == "__main__":
    main()
