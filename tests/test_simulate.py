import csv
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from scrubsim import simulate
from scrubsim.errors import InputError, PlacementError
from scrubsim.resource_manager import place_all
from scrubsim.simulate import (
    Scenario,
    emit_report,
    provisioning_comparison,
    run_scenario_sweep,
    run_simulation,
    verify_records_feasible,
)
from reference import capacity_bound_case

RUN_BENCH = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def tiny_scenario(**overrides):
    base = dict(epochs=5, budget_gbps=40.0, adversary="steady", estimator="prevepoch",
                seed=1, topology_nodes=8, dc_slots=400)
    base.update(overrides)
    return Scenario(**base)


class TestProvisioningComparison:
    def test_syn_series(self):
        assert provisioning_comparison([[40.0], [80.0], [10.0]]) == (240.0, 130.0)

    def test_syn_plus_dns_series(self):
        series = [[40.0, 20.0], [80.0, 40.0], [10.0, 80.0]]
        assert provisioning_comparison(series) == (480.0, 270.0)

    def test_constant_series_no_benefit(self):
        static, elastic = provisioning_comparison([[7.0, 2.0]] * 4)
        assert static == elastic

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            provisioning_comparison([])

    @pytest.mark.parametrize("series, message", [
        ([[1.0, -2.0], [3.0, 4.0]], "demands must be >= 0 and finite"),
        ([[float("nan")]], "demands must be >= 0 and finite"),
        ([["nan"]], "demands must be >= 0 and finite"),
        ([[float("inf"), 1.0]], "demands must be >= 0 and finite"),
        ([[1e308], [1e308]], "demand totals overflow"),
        ([[]], "every epoch needs at least one demand value"),
        ([[], []], "every epoch needs at least one demand value"),
    ])
    def test_bad_demands_rejected(self, series, message):
        with pytest.raises(InputError, match=message):
            provisioning_comparison(series)


class TestRunSimulation:
    def test_cold_start_prevepoch_single_epoch(self):
        records = run_simulation(tiny_scenario(epochs=1))
        rec = records[0]
        assert rec.evasion_gbps == pytest.approx(40.0)
        assert rec.wastage_gbps == pytest.approx(0.0)

    def test_steady_fpl_evasion_dies_out(self):
        records = run_simulation(tiny_scenario(epochs=100, estimator="fpl"))
        tail = [r.evasion_gbps for r in records[-20:]]
        head = [r.evasion_gbps for r in records[:3]]
        assert max(tail) < 1.0
        assert sum(head) > 10.0

    def test_deterministic_trace(self, tmp_path):
        sc = tiny_scenario(epochs=10, adversary="randhybrid", estimator="fpl")
        a = run_simulation(sc)
        b = run_simulation(sc)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        emit_report(a, str(d1))
        emit_report(b, str(d2))
        assert (d1 / "epochs.csv").read_bytes() == (d2 / "epochs.csv").read_bytes()
        assert (d1 / "summary.json").read_bytes() == (d2 / "summary.json").read_bytes()

    def test_toy_trace_through_simulator_losses(self):
        # Scripted 3-epoch toy: with a steady adversary the prev-epoch
        # estimator's only loss is the cold-start epoch.
        records = run_simulation(tiny_scenario(epochs=3))
        assert records[0].evasion_gbps == pytest.approx(40.0)
        assert records[1].evasion_gbps == pytest.approx(0.0)
        assert records[2].wastage_gbps == pytest.approx(0.0)

    def test_records_pass_feasibility(self):
        assert verify_records_feasible(tiny_scenario(epochs=6, estimator="fpl",
                                                     adversary="randattack")) == 0

    def test_overprovision_cushion_runs_clean(self):
        sc = tiny_scenario(epochs=6, estimator="fpl", gamma=1.5)
        records = run_simulation(sc)
        assert all(not r.infeasible for r in records)
        plain = run_simulation(tiny_scenario(epochs=6, estimator="fpl"))
        assert sum(r.vm_total for r in records) >= sum(r.vm_total for r in plain)
        assert verify_records_feasible(sc) == 0

    def test_sweep_ordered_reduce(self):
        sc = tiny_scenario(epochs=4, seeds=[3, 1, 2])
        out = run_scenario_sweep(sc)
        assert list(out) == [1, 2, 3]
        for records in out.values():
            assert len(records) == 4

    def test_sweep_builds_the_topology_once(self, monkeypatch):
        calls = []
        generate = simulate.generate_topology

        def counted(*args, **kwargs):
            calls.append(args)
            return generate(*args, **kwargs)

        monkeypatch.setattr(simulate, "generate_topology", counted)
        out = run_scenario_sweep(tiny_scenario(epochs=2, seeds=[3, 1, 2]))
        assert len(out) == 3
        assert len(calls) == 1

    def test_sweep_reports_equal_per_seed_runs(self, tmp_path):
        # Small datacenters make placement fail in some epochs, so a run
        # that left state behind in the shared topology or library would
        # change the reports of the seeds after it.
        sc = Scenario(epochs=6, budget_gbps=600.0, adversary="randhybrid", estimator="fpl",
                      seeds=[6, 2, 9], gamma=1.2, topology_nodes=48, dc_slots=150)
        swept = run_scenario_sweep(sc)
        assert any(r.infeasible for records in swept.values() for r in records)
        for seed, records in swept.items():
            emit_report(records, str(tmp_path / f"sweep{seed}"))
            emit_report(run_simulation(sc, seed), str(tmp_path / f"alone{seed}"))
            for name in ("epochs.csv", "summary.json"):
                assert ((tmp_path / f"sweep{seed}" / name).read_bytes()
                        == (tmp_path / f"alone{seed}" / name).read_bytes()), (seed, name)


# The layer functions the benchmark's sim workloads replace in `simulate`'s
# namespace, in the order one epoch calls them.
BENCH_HOOKS = ("adversary_next", "estimate", "dsp_greedy", "overprovision", "place_all",
               "build_tag_pools", "synthesize_rules", "pin_bidirectional_for_graph",
               "loss_accounting")


def test_epochs_call_the_benchmark_hooks_in_order(monkeypatch):
    """perfbench times a sim epoch from one `adversary_next` call to the
    next, and checks the `dsp_greedy`, `place_all`, `build_tag_pools` and
    `synthesize_rules` results it captures, all through the names above in
    `simulate`'s namespace. A rename, a fusion or a reordering there zeroes
    a span with no other tier-1 test failing. ROADMAP item 2 moves the
    per-epoch stats into the library and deletes this test together with
    the hooks."""
    calls = []
    for name in BENCH_HOOKS:
        def hooked(*args, _name=name, _original=getattr(simulate, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(simulate, name, hooked)
    records = run_simulation(tiny_scenario(epochs=3, adversary="randhybrid",
                                           estimator="fpl"))
    assert [r.infeasible for r in records] == [""] * 3

    epochs = []
    for name in calls:
        if name == "adversary_next":
            epochs.append([])
        if not (name == "pin_bidirectional_for_graph" and epochs[-1][-1] == name):
            epochs[-1].append(name)  # one entry for all of an epoch's pins
    assert epochs == [list(BENCH_HOOKS)] * 3


# Spans that only the epoch loop's hooks fill on a traced sim-dense run.
HOOKED_SPANS = ("resource_manager.dsp_s", "resource_manager.ssp_s",
                "orchestration.tag_pools_s", "orchestration.rules_s", "orchestration.pins_s",
                "adaptation.estimate_s", "adaptation.loss_s")


def test_traced_sim_dense_reads_every_hooked_span():
    """A traced sim-dense smoke run passes its output checks, and each span
    timed through a hook on `simulate`'s names reads above 0. A hook that
    no longer fires reads 0 here rather than only in the benchmark."""
    proc = subprocess.run([sys.executable, str(RUN_BENCH), "--workload", "sim-dense",
                           "--smoke", "--trace", "1"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    for name in HOOKED_SPANS:
        assert result["metrics"][name]["value"] > 0, name


def test_control_plane_reports_a_failed_placement():
    """A placement failure leaves the cushioned assignment, no placements
    or plan, a NaN cost and the failure's message."""
    topo, traffic, lib = capacity_bound_case()
    step = simulate.control_plane(topo, lib, traffic)
    assert step.ssps is None and step.plan is None
    assert math.isnan(step.cost)
    with pytest.raises(PlacementError) as exc:
        place_all(topo, step.dsp, lib)
    assert step.error == str(exc.value) != ""


class TestEmitReport:
    def test_rows_and_summary_totals(self, tmp_path):
        records = run_simulation(tiny_scenario(epochs=3))
        csv_path, json_path = emit_report(records, str(tmp_path / "out"))
        with open(csv_path) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 4  # header + 3 epochs
        header = rows[0]
        with open(json_path) as fh:
            summary = json.load(fh)
        # Totals replay the CSV column sums.
        w_idx = header.index("wastage_gbps")
        v_idx = header.index("evasion_gbps")
        assert summary["totals"]["wastage_gbps"] == pytest.approx(
            sum(float(r[w_idx]) for r in rows[1:]))
        assert summary["totals"]["evasion_gbps"] == pytest.approx(
            sum(float(r[v_idx]) for r in rows[1:]))
        assert summary["totals"]["epochs"] == 3

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(InputError):
            emit_report([], str(tmp_path))


class TestScenarioConfig:
    def test_round_trip_from_config(self):
        cfg = {
            "version": 1,
            "epochs": 7,
            "budget_gbps": 25.0,
            "adversary": "randhybrid",
            "estimator": "fpl",
            "seed": 3,
            "gamma": 1.5,
            "topology_nodes": 12,
            "dc_slots": 100,
            "cost": {"alpha": 2.0, "beta": 0.9},
        }
        sc = Scenario.from_config(cfg)
        assert sc.epochs == 7
        assert sc.gamma == 1.5
        assert sc.cost.alpha == 2.0
        assert sc.cost.beta == 0.9

    def test_bad_version_rejected(self):
        with pytest.raises(InputError):
            Scenario.from_config({"version": 99, "epochs": 1, "budget_gbps": 1,
                                  "adversary": "steady", "estimator": "fpl"})

    def test_bad_values_rejected(self):
        with pytest.raises(InputError):
            Scenario.from_config({"epochs": "many", "budget_gbps": 1,
                                  "adversary": "steady", "estimator": "fpl"})
        with pytest.raises(InputError):
            tiny_scenario(epochs=0)

    def test_fpl_rejects_negative_seeds(self):
        for bad in ({"seed": -1}, {"seeds": [2, -1]}):
            with pytest.raises(InputError, match="fpl needs non-negative seeds"):
                tiny_scenario(estimator="fpl", **bad)
            # Only fpl seeds numpy generators with the run seed.
            assert tiny_scenario(estimator="uniform", **bad).estimator == "uniform"

    @pytest.mark.parametrize("run", [run_simulation, verify_records_feasible])
    def test_fpl_explicit_negative_seed_rejected(self, run):
        # An explicit run seed bypasses the scenario's own seed check.
        sc = tiny_scenario(estimator="fpl", epochs=2)
        with pytest.raises(InputError, match="fpl needs non-negative seeds"):
            run(sc, seed=-1)
        assert len(run_simulation(tiny_scenario(estimator="uniform", epochs=2),
                                  seed=-1)) == 2
