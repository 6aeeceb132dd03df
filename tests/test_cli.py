import contextlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import scrubsim
from scrubsim import adaptation, oracle, simulate
from scrubsim.adaptation import AdversaryStrategy, Budget, adversary_next
from scrubsim.cli import main
from scrubsim.defense_graphs import builtin_library, graph_to_config
from scrubsim.errors import InputError, OracleSizeError
from scrubsim.resource_manager import dsp_greedy
from scrubsim.topology import generate_topology, save_topology
from reference import capacity_bound_case


def library_text(edit=lambda graphs: None):
    """The builtin library as graph file text, after `edit` has changed its
    list of graph configs in place."""
    graphs = [graph_to_config(g) for g in builtin_library()]
    edit(graphs)
    return json.dumps({"graphs": graphs})


def write_library(path, edit=lambda graphs: None):
    path.write_text(library_text(edit))


def write_traffic(path, matrix):
    with open(path, "w") as fh:
        json.dump({"traffic": matrix}, fh)


def test_topo_gen_and_dsp_pipeline(tmp_path):
    runner = CliRunner()
    topo_path = tmp_path / "topo.json"
    res = runner.invoke(main, ["topo", "gen", "--nodes", "24", "--dc-slots", "200",
                               "--seed", "3", "--out", str(topo_path)])
    assert res.exit_code == 0, res.output
    assert topo_path.exists()

    traffic_path = tmp_path / "traffic.json"
    with open(topo_path) as fh:
        n_pops = len(json.load(fh)["pops"])
    matrix = [[0.0] * 4 for _ in range(n_pops)]
    matrix[0][0] = 10.0
    matrix[1][2] = 5.0
    write_traffic(traffic_path, matrix)

    dsp_path = tmp_path / "dsp.json"
    res = runner.invoke(main, ["rm", "dsp", "--topo", str(topo_path),
                               "--traffic", str(traffic_path), "--out", str(dsp_path)])
    assert res.exit_code == 0, res.output
    payload = json.loads(dsp_path.read_text())
    assert payload["t_left"] == 0.0

    ssp_path = tmp_path / "assignment.json"
    res = runner.invoke(main, ["rm", "ssp", "--topo", str(topo_path),
                               "--traffic", str(traffic_path), "--out", str(ssp_path)])
    assert res.exit_code == 0, res.output

    plan_path = tmp_path / "plan.json"
    res = runner.invoke(main, ["orch", "rules", "--topo", str(topo_path),
                               "--traffic", str(traffic_path), "--out", str(plan_path)])
    assert res.exit_code == 0, res.output

    res = runner.invoke(main, ["orch", "count", "--plan", str(plan_path),
                               "--flows", "200000"])
    assert res.exit_code == 0, res.output
    counts = json.loads(res.output)
    assert counts["per_flow_rules"] == 200000
    assert counts["tag_rules"] > 0

    res = runner.invoke(main, ["orch", "count", "--plan", str(plan_path), "--flows", "-5"])
    assert res.exit_code == 2, res.output
    assert "-5 is not in the range" in res.output


@pytest.mark.parametrize("field, value, message", [
    ("links", [[0, 5, 100]], "backbone link (0, 5)"),
    ("attach_pop", 9, "attach_pop 9"),
])
def test_rm_dsp_topology_outside_pop_range_exit_2(tmp_path, field, value, message):
    dc = {"link_capacity_gbps": 10, "racks": [[4, 4]], "attach_pop": 2}
    cfg = {"pops": ["a", "b", "c"], "dcs": [dc], "latency": "derive",
           "links": [[0, 1, 100], [1, 2, 100]]}
    if field == "links":
        cfg["links"] = value
    else:
        dc["attach_pop"] = value
    topo_path = tmp_path / "topo.json"
    topo_path.write_text(json.dumps(cfg))
    traffic_path = tmp_path / "traffic.json"
    write_traffic(traffic_path, [[1.0, 0.0, 0.0, 0.0]] * 3)
    out = tmp_path / "dsp.json"
    res = CliRunner().invoke(main, ["rm", "dsp", "--topo", str(topo_path),
                                    "--traffic", str(traffic_path), "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert message in res.output
    assert not out.exists()


def topo_config(latency="derive", link_gbps=10, racks=((4,),)):
    return json.dumps({"pops": ["a"], "latency": latency,
                       "dcs": [{"link_capacity_gbps": link_gbps, "racks": racks,
                                "attach_pop": 0}]})


BAD_TOPO = ["--topo", "{bad}", "--traffic", "{traffic}", "--out", "{out}"]


@pytest.mark.parametrize("args, content, message", [
    (["rm", "dsp", "--topo", "{bad}", "--traffic", "{traffic}", "--out", "{out}"],
     topo_config([["x"]]), "cannot load topology"),
    (["rm", "dsp", "--topo", "{bad}", "--traffic", "{traffic}", "--out", "{out}"],
     topo_config("derve"), 'latency must be "derive" or a matrix'),
    (["orch", "count", "--plan", "{bad}", "--flows", "10"], "{not json", "cannot read plan"),
    (["orch", "count", "--plan", "{bad}", "--flows", "10"], "[1, 2]", "cannot read plan"),
    (["graph", "validate", "{bad}"], '{"graphs": 5}', "cannot load graph library"),
    (["graph", "validate", "{bad}"], "[]", "cannot load graph library"),
    (["graph", "demand", "--attack", "x", "--gbps", "1", "--graphs", "{bad}"],
     '{"graphs": 5}', "cannot load graph library"),
    (["graph", "demand", "--attack", "x", "--gbps", "1", "--graphs", "{bad}"],
     "[]", "cannot load graph library"),
    (["compare", "provisioning", "--series", "{bad}"], '{"a": [1]}', "demand series"),
    (["rm", "dsp", "--topo", "{topo}", "--traffic", "{bad}", "--out", "{out}"],
     '{"traffic": {"a": 1}}', "cannot read traffic file"),
    (["simulate", "--scenario", "{bad}", "--out-dir", "{out}", "--seed", "3"],
     "[1, 2]", "malformed scenario config"),
    (["simulate", "--scenario", "{bad}", "--out-dir", "{out}"],
     json.dumps({"epochs": 1, "budget_gbps": 1, "adversary": "steady",
                 "estimator": "fpl", "cost": 5}), "malformed scenario config"),
    (["rm", "dsp", *BAD_TOPO], topo_config(link_gbps=float("nan")),
     "dc 0: link_capacity_gbps must be >= 0, not nan"),
    (["rm", "dsp", *BAD_TOPO], topo_config(link_gbps=-1),
     "dc 0: link_capacity_gbps must be >= 0, not -1.0"),
    (["rm", "ssp", *BAD_TOPO], topo_config(racks=[[-3, 4]]),
     "dc 0 rack 0: server slots must be whole numbers >= 0, not [-3, 4]"),
    (["rm", "ssp", *BAD_TOPO], topo_config(racks=[[2.7, 4]]),
     "dc 0 rack 0: server slots must be a whole number, not 2.7"),
    (["rm", "ssp", *BAD_TOPO], topo_config(link_gbps=float("nan"), racks=[[-3, 4]]),
     "cannot load topology"),
    (["rm", "dsp", *BAD_TOPO],
     json.dumps({"pops": ["a", "b"], "links": [[0, 1, -5]],
                 "dcs": [{"link_capacity_gbps": 10, "racks": [[4]], "attach_pop": 1}]}),
     "backbone link (0, 1): capacity must be >= 0, not -5.0"),
    (["rm", "dsp", *BAD_TOPO],
     json.dumps({"pops": ["a", "b"], "links": [[0, 1.6, 100]],
                 "dcs": [{"link_capacity_gbps": 10, "racks": [[4]], "attach_pop": 1}]}),
     "backbone link (0, 1.6): endpoint must be a whole number, not 1.6"),
    (["rm", "dsp", *BAD_TOPO],
     json.dumps({"pops": ["a", "b"], "links": [[0, 1, 100]],
                 "dcs": [{"link_capacity_gbps": 10, "racks": [[4]], "attach_pop": 1.7}]}),
     "dc 0: attach_pop must be a whole number, not 1.7"),
    (["rm", "dsp", *BAD_TOPO],
     json.dumps({"pops": ["a", "b"], "links": [[0, 1, 100]],
                 "dcs": [{"link_capacity_gbps": 10, "racks": [[4]], "attach_pop": True}]}),
     "dc 0: attach_pop must be a whole number, not True"),
    (["graph", "validate", "{bad}"], library_text(lambda g: g[0]["attack"].update(name=None)),
     "attack name must be a string, not None"),
    (["graph", "validate", "{bad}"], library_text(lambda g: g[0]["nodes"][1].update(name=7)),
     "node name must be a string, not 7"),
    (["rm", "dsp", "--topo", "{topo}", "--traffic", "{bad}", "--out", "{out}"],
     json.dumps({"traffic": [[True, 0, 0, "5"]]}), "traffic[0][0] must be a number, not True"),
    (["compare", "provisioning", "--series", "{bad}"], json.dumps([[True, "5"], [1, 2]]),
     "demand series[0][0] must be a number, not True"),
    (["rm", "dsp", *BAD_TOPO],
     json.dumps({"pops": "abcdefgh", "dcs": [{"link_capacity_gbps": 10, "racks": [[4]],
                                               "attach_pop": 0}]}),
     "pops must be a list, not 'abcdefgh'"),
    (["rm", "dsp", *BAD_TOPO],
     json.dumps({"pops": {"0": 0, "1": 1}, "dcs": [{"link_capacity_gbps": 10, "racks": [[4]],
                                                     "attach_pop": 0}]}),
     "pops must be a list, not {'0': 0, '1': 1}"),
    (["graph", "validate", "{bad}"], library_text(lambda g: g[3].update(edges={})),
     "edges must be a list, not {}"),
    (["graph", "validate", "{bad}"],
     library_text(lambda g: g.append(dict(g[0], edges=g[0]["edges"][:1]))),
     "two graphs for attack syn_flood (id 0)"),
    (["graph", "validate", "{bad}"], library_text(lambda g: g[0]["nodes"][1].update(id=0)),
     "syn_flood: duplicate node ids"),
    (["graph", "validate", "{bad}"], library_text(lambda g: g[0].update(nodes=[], edges=[])),
     "syn_flood: graph has no nodes"),
    (["graph", "validate", "{bad}"],
     library_text(lambda g: g[0]["edges"].append({"from": 0, "to": 9, "weight": 0.0})),
     "syn_flood: edge (0,9) references unknown node"),
    (["graph", "validate", "{bad}"], library_text(lambda g: g[0]["nodes"][0].update(contexts=0)),
     "module a_syn: contexts must be >= 1"),
    (["rm", "dsp", *BAD_TOPO],
     json.dumps({"pops": ["a", "b"], "latency": [[1.0]],
                 "dcs": [{"link_capacity_gbps": 10, "racks": [[4]], "attach_pop": 1}]}),
     "latency matrix dimensions do not match pops/datacenters"),
    (["rm", "dsp", "--topo", "{topo}", "--traffic", "{bad}", "--out", "{out}"],
     '{"traffic": [[1' + "0" * 400 + ', 0, 0, 0]]}',
     "traffic[0][0] must be a number in float range"),
])
def test_malformed_input_file_exit_2(tmp_path, args, content, message):
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    traffic = tmp_path / "traffic.json"
    write_traffic(traffic, [[1.0, 0.0, 0.0, 0.0]])
    topo = tmp_path / "topo.json"
    topo.write_text(topo_config("derive"))
    out = tmp_path / "out.json"
    paths = {"bad": str(bad), "traffic": str(traffic), "topo": str(topo), "out": str(out)}
    res = CliRunner().invoke(main, [a.format(**paths) for a in args])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "error: " in res.output and message in res.output
    assert not out.exists()


@pytest.mark.parametrize("command", [["rm", "dsp"], ["rm", "ssp"], ["orch", "rules"]])
@pytest.mark.parametrize("volume", [float("nan"), float("inf")])
def test_non_finite_traffic_exit_2(tmp_path, command, volume):
    topo = tmp_path / "topo.json"
    save_topology(generate_topology(24, 400, seed=5), str(topo))
    matrix = [[1.0, 0.0, 2.0, 0.0] for _ in range(24)]
    matrix[3][1] = volume
    traffic = tmp_path / "traffic.json"
    write_traffic(traffic, matrix)
    out = tmp_path / "out.json"
    res = CliRunner().invoke(main, [*command, "--topo", str(topo), "--traffic", str(traffic),
                                    "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "error: traffic volumes must be finite and >= 0" in res.output
    assert not out.exists()


def test_graph_validate_and_demand(tmp_path):
    runner = CliRunner()
    lib_path = tmp_path / "graphs.json"
    write_library(lib_path)
    res = runner.invoke(main, ["graph", "validate", str(lib_path)])
    assert res.exit_code == 0, res.output
    assert "ok" in res.output

    res = runner.invoke(main, ["graph", "demand", "--attack", "udp_flood",
                               "--gbps", "100"])
    assert res.exit_code == 0, res.output
    data = json.loads(res.output)
    assert data["fine_grained_total"] > 0
    assert data["monolithic_total_vms"] >= data["fine_grained_total"]


@pytest.mark.parametrize("edit, message", [
    (lambda g: g[0].update(bidirectional="false"),
     "bidirectional must be true or false, not 'false'"),
    (lambda g: g[0]["nodes"][1].update(delivers=1), "delivers must be true or false, not 1"),
    (lambda g: g[0]["attack"].update(id=0.4), "attack id must be a whole number, not 0.4"),
    (lambda g: g[0]["nodes"][0].update(capacity_gbps="10"),
     "capacity_gbps must be a number, not '10'"),
    (lambda g: g[0]["nodes"][0].update(contexts=True), "contexts must be a whole number"),
    (lambda g: g[0]["edges"][0].update(to=1.5), "edge to must be a whole number, not 1.5"),
    (lambda g: g[0]["edges"][0].update(weight="0.5"), "edge weight must be a number"),
    (lambda g: g[0]["nodes"][0].update(capacity_gbps=float("nan")),
     "capacity must be finite and > 0"),
    (lambda g: g[0]["nodes"][0].update(id=float("inf")), "malformed graph config"),
], ids=["bidirectional-string", "delivers-int", "fractional-attack-id", "capacity-string",
        "contexts-bool", "fractional-edge-end", "weight-string", "nan-capacity",
        "infinite-node-id"])
def test_graph_validate_refuses_mistyped_fields(tmp_path, edit, message):
    """The graph library reader refuses what JSON did not spell as the
    field's kind, as the scenario and topology readers do: no "false" read
    as true, no fractional id truncated, no numeric string parsed."""
    path = tmp_path / "graphs.json"
    write_library(path, edit)
    res = CliRunner().invoke(main, ["graph", "validate", str(path)])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert res.output.startswith(f"error: cannot load graph library {path}: ")
    assert message in res.output


@pytest.mark.parametrize("command", [
    ["graph", "validate", "{lib}"],
    ["graph", "demand", "--attack", "syn_flood", "--gbps", "1", "--graphs", "{lib}"],
    ["simulate", "--scenario", "{scenario}", "--out-dir", "{out}"],
], ids=["validate", "demand", "simulate"])
@pytest.mark.parametrize("edit, message", [
    (lambda g: g.__delitem__(1), "attack ids must be dense from 0"),
    (lambda g: g[1]["attack"].update(id=0), "two graphs for attack dns_amplification (id 0)"),
], ids=["ids-0-and-2", "two-id-0"])
def test_library_ids_are_checked_at_load(tmp_path, command, edit, message):
    """A library whose attack ids are not 0, 1, ... once each is refused
    when its file is loaded, whichever command reads it."""
    lib = tmp_path / "graphs.json"
    write_library(lib, edit)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"epochs": 1, "budget_gbps": 10.0, "adversary": "steady",
                                    "estimator": "uniform", "topology_nodes": 8,
                                    "dc_slots": 200, "graphs_path": str(lib)}))
    out = tmp_path / "out"
    paths = {"lib": str(lib), "scenario": str(scenario), "out": str(out)}
    res = CliRunner().invoke(main, [a.format(**paths) for a in command])
    assert res.exit_code == 2, res.output
    assert res.output == f"error: cannot load graph library {lib}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [["rm", "dsp"], ["rm", "ssp"], ["orch", "rules"]])
def test_graphs_option_replaces_the_builtin_library(tmp_path, command):
    """`--graphs` reads the library the traffic's columns are checked
    against: one attack column fits a one-graph library, not the builtin
    four."""
    topo_path, lib_path = tmp_path / "topo.json", tmp_path / "graphs.json"
    save_topology(generate_topology(8, 400, seed=1), str(topo_path))
    write_library(lib_path, lambda graphs: graphs.__delitem__(slice(1, None)))
    traffic_path = tmp_path / "traffic.json"
    write_traffic(traffic_path, [[5.0]] + [[0.0]] * 7)
    args = [*command, "--topo", str(topo_path), "--traffic", str(traffic_path),
            "--out", str(tmp_path / "out.json")]
    res = CliRunner().invoke(main, [*args, "--graphs", str(lib_path)])
    assert res.exit_code == 0, res.output
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 2, res.output
    assert res.output.startswith("error: ")


def test_graph_demand_unknown_attack_exit_2():
    runner = CliRunner()
    res = runner.invoke(main, ["graph", "demand", "--attack", "nope", "--gbps", "1"])
    assert res.exit_code == 2


@pytest.mark.parametrize("gbps", ["-1", "nan", "inf"])
def test_graph_demand_bad_volume_exit_2(gbps):
    res = CliRunner().invoke(main, ["graph", "demand", "--attack", "udp_flood",
                                    f"--gbps={gbps}"])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert res.output.startswith("error: t_gbps must be >= 0 and finite")


def test_compare_provisioning(tmp_path):
    runner = CliRunner()
    series_path = tmp_path / "series.json"
    series_path.write_text(json.dumps([[40, 20], [80, 40], [10, 80]]))
    res = runner.invoke(main, ["compare", "provisioning", "--series", str(series_path)])
    assert res.exit_code == 0, res.output
    data = json.loads(res.output)
    assert data["static_peak_total"] == 480.0
    assert data["elastic_total"] == 270.0


@pytest.mark.parametrize("series, message", [
    ([[1, -2], [3, 4]], "demands must be >= 0 and finite"),
    ([[float("nan"), 1]], "demands must be >= 0 and finite"),  # written as NaN
    ([["nan"]], "demand series[0][0] must be a number, not 'nan'"),
    ([[1e308], [1e308]], "demand totals overflow"),
    ([[]], "every epoch needs at least one demand value"),
])
def test_compare_provisioning_bad_demands_exit_2(tmp_path, series, message):
    series_path = tmp_path / "series.json"
    series_path.write_text(json.dumps(series))
    res = CliRunner().invoke(main, ["compare", "provisioning", "--series", str(series_path)])
    assert res.exit_code == 2, res.output
    assert res.output.startswith("error: ") and message in res.output


def test_adapt_regret_single_pair_per_epoch(tmp_path):
    runner = CliRunner()
    out = tmp_path / "regret.csv"
    res = runner.invoke(main, ["adapt", "regret", "--strategy", "steady",
                               "--estimator", "prevepoch", "--epochs", "20",
                               "--seeds", "2", "--budget", "50", "--pops", "3",
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 21  # header + one row per epoch
    assert lines[0].startswith("epoch,wastage_gbps,evasion_gbps,wastage_vm")
    # Steady adversary + prev-epoch replay: only the cold-start epoch loses.
    first = lines[1].split(",")
    later = lines[-1].split(",")
    assert float(first[2]) == 50.0
    assert float(later[2]) == 0.0


def test_adapt_regret_summary_table(tmp_path):
    runner = CliRunner()
    out = tmp_path / "regret.csv"
    res = runner.invoke(main, ["adapt", "regret", "--strategy", "steady",
                               "--epochs", "10", "--seeds", "2", "--budget", "50",
                               "--pops", "3", "--out", str(out)])
    assert res.exit_code == 0, res.output
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 4  # header + three estimators


@contextlib.contextmanager
def time_limit(seconds):
    """Fail instead of hanging: an empty pop range once made the adversary
    redraw its ingress subset forever."""
    def expire(_signum, _frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("n_pops, n_attacks", [(0, 4), (3, 0)])
def test_adversary_next_rejects_empty_shape(n_pops, n_attacks):
    for kind in ("steady", "randhybrid"):
        with time_limit(5), pytest.raises(InputError, match="at least one pop"):
            adversary_next(AdversaryStrategy(kind, seed=1), Budget(50.0), 0,
                           n_pops, n_attacks)


@pytest.mark.parametrize("pair", [[], ["--strategy", "steady", "--estimator", "fpl"]])
@pytest.mark.parametrize("bad, message", [
    (["--seeds", "0"], "need at least one seed"),
    (["--epochs", "0"], "trace must be nonempty"),
    (["--pops", "0"], "need at least one pop"),
    (["--budget", "nan"], "budget must be > 0 and finite"),
    (["--budget", "inf"], "budget must be > 0 and finite"),
])
def test_adapt_regret_bad_input_exit_2(tmp_path, pair, bad, message):
    runner = CliRunner()
    args = ["adapt", "regret", *pair, "--epochs", "5", "--seeds", "2",
            "--pops", "3", *bad, "--out", str(tmp_path / "regret.csv")]
    with time_limit(30):
        res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert message in res.output
    assert not (tmp_path / "regret.csv").exists()


@pytest.mark.parametrize("pair, code", [
    ([], 2),
    (["--strategy", "randhybrid", "--estimator", "fpl"], 2),
    (["--strategy", "randhybrid", "--estimator", "uniform"], 0),
    (["--estimator", "prevepoch"], 0),
])
def test_adapt_regret_negative_seed(tmp_path, pair, code):
    out = tmp_path / "regret.csv"
    res = CliRunner().invoke(main, ["adapt", "regret", *pair, "--seed", "-3", "--seeds", "2",
                                    "--epochs", "5", "--pops", "3", "--out", str(out)])
    assert res.exit_code == code, res.output
    if code:
        assert res.output.startswith("error: fpl seed must be a non-negative integer")
        assert not out.exists()


def test_simulate_scenario(tmp_path):
    runner = CliRunner()
    scenario = {
        "version": 1,
        "epochs": 4,
        "budget_gbps": 20.0,
        "adversary": "steady",
        "estimator": "prevepoch",
        "seed": 2,
        "topology_nodes": 8,
        "dc_slots": 200,
    }
    sc_path = tmp_path / "scenario.json"
    sc_path.write_text(json.dumps(scenario))
    out_dir = tmp_path / "out"
    res = runner.invoke(main, ["simulate", "--scenario", str(sc_path),
                               "--out-dir", str(out_dir)])
    assert res.exit_code == 0, res.output
    assert (out_dir / "epochs.csv").exists()
    assert (out_dir / "summary.json").exists()


def test_simulate_multi_seed_sweep(tmp_path):
    runner = CliRunner()
    scenario = {
        "version": 1,
        "epochs": 3,
        "budget_gbps": 20.0,
        "adversary": "randattack",
        "estimator": "uniform",
        "seeds": [4, 9],
        "topology_nodes": 8,
        "dc_slots": 200,
    }
    sc_path = tmp_path / "scenario.json"
    sc_path.write_text(json.dumps(scenario))
    out_dir = tmp_path / "out"
    res = runner.invoke(main, ["simulate", "--scenario", str(sc_path),
                               "--out-dir", str(out_dir)])
    assert res.exit_code == 0, res.output
    assert (out_dir / "seed4" / "epochs.csv").exists()
    assert (out_dir / "seed9" / "summary.json").exists()


def test_simulate_bad_scenario_exit_2(tmp_path):
    runner = CliRunner()
    sc_path = tmp_path / "scenario.json"
    sc_path.write_text(json.dumps({"version": 1, "epochs": 0, "budget_gbps": 1,
                                   "adversary": "steady", "estimator": "fpl"}))
    res = runner.invoke(main, ["simulate", "--scenario", str(sc_path),
                               "--out-dir", str(tmp_path / "o")])
    assert res.exit_code == 2


@pytest.mark.parametrize("bad, message", [
    ({"gamma": 0.5}, "gamma must be >= 1"),
    ({"adversary": "nosuch"}, "unknown adversary strategy 'nosuch'"),
    ({"estimator": "nosuch"}, "unknown estimator 'nosuch'"),
    ({"gamma": float("nan")}, "gamma must be >= 1 and finite"),
    ({"gamma": float("inf")}, "gamma must be >= 1 and finite"),
    ({"budget_gbps": float("nan")}, "budget must be > 0 and finite"),
    ({"budget_gbps": float("inf")}, "budget must be > 0 and finite"),
    ({"topology_nodes": 0, "dc_slots": -5}, "topology_nodes must be >= 1"),
    ({"dc_slots": 0}, "dc_slots must be >= 1"),
    ({"epochs": True, "seed": False}, "epochs must be a whole number, not True"),
    ({"seed": False}, "seed must be a whole number, not False"),
    ({"budget_gbps": True}, "budget_gbps must be a number, not True"),
    ({"budget_gbps": "20"}, "budget_gbps must be a number, not '20'"),
    ({"gamma": "1.5"}, "gamma must be a number, not '1.5'"),
    ({"cost": {"beta": True}}, "cost beta must be a number, not True"),
    ({"graphs_path": True}, "graphs_path must be a string, not True"),
    ({"topology_path": 5}, "topology_path must be a string, not 5"),
    ({"cost": {"alpha": float("nan")}}, "alpha must be > 0 and finite"),
    ({"cost": {"alpha": float("inf")}}, "alpha must be > 0 and finite"),
    ({"cost": {"intra_unit_cost": float("nan")}}, "intra_unit_cost must be >= 0 and finite"),
    ({"cost": {"intra_unit_cost": float("inf"), "inter_unit_cost": float("inf")}},
     "intra_unit_cost must be >= 0 and finite"),
    ({"cost": {"inter_unit_cost": float("nan")}},
     "inter_unit_cost must be >= intra_unit_cost and finite"),
    ({"cost": {"inter_unit_cost": float("inf")}},
     "inter_unit_cost must be >= intra_unit_cost and finite"),
    ({"gama": 1.5, "dc_slot": 150}, "scenario has unknown key 'gama'"),
    ({"cost": {"alpha": 1.0, "betta": 0.5}}, "cost has unknown key 'betta'"),
    ({"seeds": []}, "seeds must be nonempty"),
])
def test_simulate_bad_scenario_field_exit_2(tmp_path, bad, message):
    runner = CliRunner()
    sc_path = tmp_path / "scenario.json"
    sc_path.write_text(json.dumps({"version": 1, "epochs": 2, "budget_gbps": 1,
                                   "adversary": "steady", "estimator": "fpl",
                                   "topology_nodes": 8, **bad}))
    res = runner.invoke(main, ["simulate", "--scenario", str(sc_path),
                               "--out-dir", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert res.output.startswith("error: ") and message in res.output
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("bad, message", [
    ({"epochs": 2.5}, "epochs must be a whole number, not 2.5"),
    ({"epochs": "2"}, "epochs must be a whole number, not '2'"),
    ({"epochs": float("inf")}, "cannot convert float infinity to integer"),
    ({"seed": 2.5}, "seed must be a whole number, not 2.5"),
    ({"seeds": [1, 2.5]}, "seeds entry must be a whole number, not 2.5"),
    ({"topology_nodes": 8.5}, "topology_nodes must be a whole number, not 8.5"),
    ({"dc_slots": "99"}, "dc_slots must be a whole number, not '99'"),
    ({"dc_slots": None}, "malformed scenario config"),
])
def test_simulate_non_whole_integer_field_exit_2(tmp_path, bad, message):
    sc_path = tmp_path / "scenario.json"
    sc_path.write_text(json.dumps({"version": 1, "epochs": 2, "budget_gbps": 10,
                                   "adversary": "steady", "estimator": "uniform",
                                   "topology_nodes": 8, **bad}))
    res = CliRunner().invoke(main, ["simulate", "--scenario", str(sc_path),
                                    "--out-dir", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert res.output.startswith("error: malformed scenario config: ") and message in res.output
    assert not (tmp_path / "o").exists()


# (scenario seed fields, simulate options, environment, fpl's exit code)
NEGATIVE_SEEDS = [
    ({"seed": -1}, [], {}, 2),
    ({"seeds": [2, -1]}, [], {}, 2),
    # Only the run seeds 2 and 3 seed fpl; the default seed seeds the
    # generated topology alone.
    ({"seeds": [2, 3]}, ["--seed", "-1"], {}, 0),
    ({"seeds": [2, 3]}, [], {"BOHATEI_SEED": "-4"}, 0),
]


@pytest.mark.parametrize("seeds, args, env, estimator, code", [
    pytest.param(seeds, args, env, estimator, code, id=f"seeds{k}-{estimator}-{code}")
    for k, (seeds, args, env, fpl_code) in enumerate(NEGATIVE_SEEDS)
    for estimator, code in (("fpl", fpl_code), ("uniform", 0))])
def test_simulate_negative_seed(tmp_path, seeds, args, env, estimator, code):
    sc_path = tmp_path / "scenario.json"
    sc_path.write_text(json.dumps({"version": 1, "epochs": 2, "budget_gbps": 10,
                                   "adversary": "steady", "estimator": estimator,
                                   "topology_nodes": 8, **seeds}))
    res = CliRunner().invoke(main, ["simulate", "--scenario", str(sc_path),
                                    "--out-dir", str(tmp_path / "o"), *args], env=env)
    assert res.exit_code == code, res.output
    if code:
        assert res.output.startswith("error: ") and "fpl needs non-negative seeds" in res.output
        assert not (tmp_path / "o").exists()


def test_simulate_default_seed(tmp_path):
    """--seed and BOHATEI_SEED are the seed of a scenario file that gives
    none, and a seed in the file beats both."""
    def reports(name, file_seed, args=(), env=None):
        sc_path = tmp_path / f"{name}.json"
        sc_path.write_text(json.dumps({"version": 1, "epochs": 3, "budget_gbps": 20.0,
                                       "adversary": "randhybrid", "estimator": "fpl",
                                       "topology_nodes": 8, **file_seed}))
        out = tmp_path / name
        res = CliRunner().invoke(main, ["simulate", "--scenario", str(sc_path),
                                        "--out-dir", str(out), *args], env=env or {})
        assert res.exit_code == 0, res.output
        return [(out / f).read_bytes() for f in ("epochs.csv", "summary.json")]

    want = reports("file", {"seed": 7})
    assert reports("option", {}, ["--seed", "7"]) == want
    assert reports("env", {}, env={"BOHATEI_SEED": "7"}) == want
    assert reports("file_over_option", {"seed": 7}, ["--seed", "3"]) == want
    assert reports("file_over_env", {"seed": 7}, env={"BOHATEI_SEED": "3"}) == want
    assert reports("other", {"seed": 3}) != want


def test_simulate_builds_the_topology_once(tmp_path, monkeypatch):
    calls = []
    generate = simulate.generate_topology

    def counted(*args, **kwargs):
        calls.append(args)
        return generate(*args, **kwargs)

    monkeypatch.setattr(simulate, "generate_topology", counted)
    sc_path = tmp_path / "scenario.json"
    sc_path.write_text(json.dumps({"version": 1, "epochs": 2, "budget_gbps": 20.0,
                                   "adversary": "steady", "estimator": "uniform",
                                   "seed": 1, "topology_nodes": 24}))
    res = CliRunner().invoke(main, ["simulate", "--scenario", str(sc_path),
                                    "--out-dir", str(tmp_path / "out")])
    assert res.exit_code == 0, res.output
    assert len(calls) == 1


@pytest.mark.parametrize("content, message", [
    (None, "No such file"),
    (topo_config([["x"]]), "malformed topology"),
])
def test_simulate_bad_topology_path_exit_2(tmp_path, content, message):
    topo_path = tmp_path / "topo.json"
    if content is not None:
        topo_path.write_text(content)
    sc_path = tmp_path / "scenario.json"
    sc_path.write_text(json.dumps({"version": 1, "epochs": 2, "budget_gbps": 20.0,
                                   "adversary": "steady", "estimator": "uniform",
                                   "topology_path": str(topo_path)}))
    res = CliRunner().invoke(main, ["simulate", "--scenario", str(sc_path),
                                    "--out-dir", str(tmp_path / "out")])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert res.output.startswith("error: ") and message in res.output
    assert not (tmp_path / "out").exists()


# 5 slots per datacenter cannot hold 100 Gbps, so that generated run exits 3.
@pytest.mark.parametrize("key, value, generated_exit", [("dc_slots", 5, 3),
                                                        ("topology_nodes", 99, 0)])
def test_simulate_topology_path_refuses_generator_sizes(tmp_path, key, value,
                                                        generated_exit):
    """A topology file fixes the topology, so a size for the generated one
    next to it would be ignored: the run exits 2 naming the key. A null
    path leaves the size in force."""
    topo_path = tmp_path / "topo.json"
    save_topology(generate_topology(8, 4000, seed=1), str(topo_path))
    scenario = {"version": 1, "epochs": 3, "budget_gbps": 100.0, "adversary": "randhybrid",
                "estimator": "uniform", key: value}

    def run(path, out):
        sc_path = tmp_path / "scenario.json"
        sc_path.write_text(json.dumps({**scenario, "topology_path": path}))
        return CliRunner().invoke(main, ["simulate", "--scenario", str(sc_path),
                                         "--out-dir", str(tmp_path / out)])

    res = run(str(topo_path), "out")
    assert res.exit_code == 2, res.output
    assert res.output == (f"error: malformed scenario config: {key} cannot be set with a "
                          "topology_path, which fixes the topology\n")
    assert not (tmp_path / "out").exists()
    res = run(None, "generated")
    assert res.exit_code == generated_exit, res.output


def test_simulate_infeasible_exit_3(tmp_path):
    # A budget far beyond the single tiny datacenter forces t_left > 0.
    runner = CliRunner()
    scenario = {
        "version": 1,
        "epochs": 3,
        "budget_gbps": 100000.0,
        "adversary": "steady",
        "estimator": "uniform",
        "seed": 2,
        "topology_nodes": 8,
        "dc_slots": 10,
    }
    sc_path = tmp_path / "scenario.json"
    sc_path.write_text(json.dumps(scenario))
    res = runner.invoke(main, ["simulate", "--scenario", str(sc_path),
                               "--out-dir", str(tmp_path / "out")])
    assert res.exit_code == 3, res.output


def test_rm_dsp_ceil_per_assignment(tmp_path):
    # Whole-VM charging keeps the capacity-bound case within every
    # datacenter's slots, where fractional charging overfills one
    # (test_placement_failure_exit_3).
    topo, traffic, lib = capacity_bound_case()
    topo_path, traffic_path, out = (tmp_path / n for n in ("topo.json", "traffic.json", "o.json"))
    save_topology(topo, str(topo_path))
    write_traffic(traffic_path, traffic.tolist())
    res = CliRunner().invoke(main, ["rm", "dsp", "--topo", str(topo_path), "--traffic",
                                    str(traffic_path), "--ceil-per-assignment", "--out", str(out)])
    assert res.exit_code == 0, res.output
    payload = json.loads(out.read_text())
    want = dsp_greedy(topo, traffic, lib, ceil_per_assignment=True)
    assert payload["t_left"] == want.t_left
    assert payload["n_dc"] == {f"{d}:{a}": {str(i): c for i, c in counts.items()}
                               for (d, a), counts in want.n_dc.items()}
    for d, dc in enumerate(topo.datacenters):
        assert sum(sum(counts.values()) for key, counts in payload["n_dc"].items()
                   if key.startswith(f"{d}:")) <= dc.compute_capacity


@pytest.mark.parametrize("args, line", [
    (["rm", "dsp"], "dsp: handled 0.000 of 528.000 Gbps"),
    (["rm", "ssp"], "ssp: placed 0 VMs;"),
    (["orch", "rules"], "plan: 0 rules on the busiest switch"),
])
def test_topology_without_datacenters_handles_nothing(tmp_path, args, line):
    # 8 pops by 4 attacks is 32 nonzero cells, enough for DSP's array pass,
    # which must leave every cell to the loop when no datacenter is open.
    topo_path, traffic_path = tmp_path / "topo.json", tmp_path / "traffic.json"
    topo_path.write_text(json.dumps({"pops": [f"p{i}" for i in range(8)], "dcs": [],
                                     "links": [[i, i + 1, 100] for i in range(7)]}))
    write_traffic(traffic_path, [[float(4 * e + a + 1) for a in range(4)] for e in range(8)])
    res = CliRunner().invoke(main, [*args, "--topo", str(topo_path), "--traffic",
                                    str(traffic_path), "--out", str(tmp_path / "out.json")])
    assert res.exit_code == 0, res.output
    assert res.output.startswith(line), res.output


@pytest.mark.parametrize("args", [["rm", "ssp"], ["orch", "rules"]])
def test_placement_failure_exit_3(tmp_path, args):
    # DSP's rounding overshoots a datacenter's slots in the capacity-bound
    # golden case, so server placement fails after DSP succeeds.
    topo, traffic, _lib = capacity_bound_case()
    topo_path, traffic_path = tmp_path / "topo.json", tmp_path / "traffic.json"
    save_topology(topo, str(topo_path))
    write_traffic(traffic_path, traffic.tolist())
    res = CliRunner().invoke(main, [*args, "--topo", str(topo_path), "--traffic",
                                    str(traffic_path), "--out", str(tmp_path / "out.json")])
    assert res.exit_code == 3, res.output
    assert res.output == "error: datacenter 0 lacks 4 slots for node a_match_request (2 free)\n"
    assert not (tmp_path / "out.json").exists()


def test_oracle_compare_cli(tmp_path):
    runner = CliRunner()
    report = tmp_path / "report.csv"
    res = runner.invoke(main, ["rm", "oracle-compare", "--instances", "5",
                               "--seed", "7", "--report", str(report),
                               "--dump-dir", str(tmp_path / "dumps")])
    assert res.exit_code == 0, res.output
    lines = report.read_text().strip().splitlines()
    assert len(lines) == 6
    assert "handled_equal=5" in res.output
    assert "p90_gap=" in res.output and "over_10pct=" in res.output
    assert "unproven=0" in res.output


@pytest.mark.parametrize("bad, message", [
    (["--instances", "0"], "--instances"),
    (["--delta", "0.3"], "delta 0.3 must be 1/k"),
    (["--delta", "0"], "delta 0.0 must be 1/k"),
    (["--delta", "nan"], "delta nan must be 1/k"),
    (["--delta=-0.05"], "delta -0.05 must be 1/k"),
])
def test_oracle_compare_bad_input_exit_2(tmp_path, bad, message):
    runner = CliRunner()
    report = tmp_path / "report.csv"
    res = runner.invoke(main, ["rm", "oracle-compare", "--instances", "2",
                               *bad, "--report", str(report)])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert message in res.output
    assert not report.exists()


RM_INPUTS = ["--topo", "{tmp}/topo.json", "--traffic", "{tmp}/traffic.json"]
REGRET_ARGS = ["adapt", "regret", "--strategy", "steady", "--epochs", "5", "--seeds", "1",
               "--pops", "3"]


@pytest.mark.parametrize("args, target", [
    (["topo", "gen", "--nodes", "12", "--out", "{missing}/topo.json"], "{missing}/topo.json"),
    (["rm", "dsp", *RM_INPUTS, "--out", "{missing}/dsp.json"], "{missing}/dsp.json"),
    (["rm", "ssp", *RM_INPUTS, "--out", "{missing}/ssp.json"], "{missing}/ssp.json"),
    (["orch", "rules", *RM_INPUTS, "--out", "{missing}/plan.json"], "{missing}/plan.json"),
    ([*REGRET_ARGS, "--out", "{missing}/regret.csv"], "{missing}/regret.csv"),
    ([*REGRET_ARGS, "--estimator", "prevepoch", "--out", "{missing}/regret.csv"],
     "{missing}/regret.csv"),
    (["rm", "oracle-compare", "--report", "{missing}/report.csv"], "{missing}/report.csv"),
    (["rm", "oracle-compare", "--report", "{tmp}/report.csv", "--dump-dir", "{file}"],
     "{file}"),
    (["simulate", "--scenario", "{tmp}/scenario.json", "--out-dir", "{file}"], "{file}"),
    (["simulate", "--scenario", "{tmp}/sweep.json", "--out-dir", "{file}"], "{file}/seed2"),
], ids=["topo-gen", "rm-dsp", "rm-ssp", "orch-rules", "regret-table", "regret-pair",
        "oracle-report", "oracle-dump-dir", "simulate", "simulate-sweep"])
def test_unwritable_output_exit_2(tmp_path, monkeypatch, args, target):
    # A missing parent directory, or a directory output naming a file.
    topo = generate_topology(12, dc_slot_capacity=200, seed=1)
    save_topology(topo, str(tmp_path / "topo.json"))
    matrix = [[0.0] * 4 for _ in topo.pops]
    matrix[0][0] = 10.0
    write_traffic(tmp_path / "traffic.json", matrix)
    scenario = {"epochs": 2, "budget_gbps": 20.0, "adversary": "steady",
                "estimator": "prevepoch", "seed": 2, "topology_nodes": 8, "dc_slots": 200}
    (tmp_path / "scenario.json").write_text(json.dumps(scenario))
    (tmp_path / "sweep.json").write_text(json.dumps({**scenario, "seeds": [3, 2]}))
    (tmp_path / "file").write_text("")

    # The commands that run for long check their outputs before they start.
    for module, name in ((oracle, "oracle_comparison"), (simulate, "run_scenario_sweep"),
                         (adaptation, "regret_experiment"),
                         (adaptation, "per_epoch_regret_report")):
        def ran(*_args, _name=name, **_kwargs):
            raise AssertionError(f"{_name} ran before its outputs were checked")

        monkeypatch.setattr(module, name, ran)
    paths = {"tmp": tmp_path, "missing": tmp_path / "missing", "file": tmp_path / "file"}
    res = CliRunner().invoke(main, [a.format(**paths) for a in args])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert res.output.startswith(f"error: cannot write {target.format(**paths)}: ")
    assert not (tmp_path / "report.csv").exists()
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("args", [
    ["rm", "oracle-compare", "--instances", "1", "--report", "{tmp}/new/report.csv",
     "--dump-dir", "{tmp}/new/dumps"],
    ["simulate", "--scenario", "{tmp}/scenario.json", "--out-dir", "{tmp}/new/a/b"],
    [*REGRET_ARGS, "--out", "{tmp}/new/regret.csv"],
], ids=["oracle-compare", "simulate", "adapt-regret"])
def test_output_probe_leaves_nothing_behind(tmp_path, monkeypatch, args):
    # A writable output is probed before the run and the probe's files and
    # directories are removed again; an input error then leaves nothing.
    (tmp_path / "new").mkdir()
    (tmp_path / "scenario.json").write_text(json.dumps({
        "epochs": 2, "budget_gbps": 20.0, "adversary": "steady", "estimator": "uniform",
        "topology_path": str(tmp_path / "absent.json")}))

    for module, name, error in ((oracle, "oracle_comparison", OracleSizeError),
                                (adaptation, "regret_experiment", InputError),
                                (adaptation, "per_epoch_regret_report", InputError)):
        def fail(*_args, _error=error, **_kwargs):
            raise _error("stopped after the probe")

        monkeypatch.setattr(module, name, fail)
    res = CliRunner().invoke(main, [a.format(tmp=tmp_path) for a in args])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert list((tmp_path / "new").iterdir()) == []


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("args", [
    ["topo", "gen", "--nodes", "12", "--out", "/dev/full"],
    ["rm", "dsp", *RM_INPUTS, "--out", "/dev/full"],
    ["rm", "ssp", *RM_INPUTS, "--out", "/dev/full"],
    ["orch", "rules", *RM_INPUTS, "--out", "/dev/full"],
    [*REGRET_ARGS, "--out", "/dev/full"],
    [*REGRET_ARGS, "--estimator", "prevepoch", "--out", "/dev/full"],
    ["rm", "oracle-compare", "--instances", "2", "--report", "/dev/full"],
], ids=["topo-gen", "rm-dsp", "rm-ssp", "orch-rules", "regret-table", "regret-pair",
        "oracle-report"])
def test_full_disk_exit_2(tmp_path, args):
    # /dev/full opens, and every write to it fails with ENOSPC.
    topo = generate_topology(12, dc_slot_capacity=200, seed=1)
    save_topology(topo, str(tmp_path / "topo.json"))
    matrix = [[0.0] * 4 for _ in topo.pops]
    matrix[0][0] = 10.0
    write_traffic(tmp_path / "traffic.json", matrix)
    res = CliRunner().invoke(main, [a.format(tmp=tmp_path) for a in args])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert res.output == "error: cannot write /dev/full: [Errno 28] No space left on device\n"


PRINTING_COMMANDS = {
    "topo-gen": ["topo", "gen", "--nodes", "8", "--out", "{tmp}/out.json"],
    "graph-validate": ["graph", "validate", "{tmp}/graphs.json"],
    "graph-demand": ["graph", "demand", "--attack", "syn_flood", "--gbps", "1"],
    "rm-dsp": ["rm", "dsp", *RM_INPUTS, "--out", "{tmp}/out.json"],
    "rm-ssp": ["rm", "ssp", *RM_INPUTS, "--out", "{tmp}/out.json"],
    "rm-oracle-compare": ["rm", "oracle-compare", "--instances", "1",
                          "--report", "{tmp}/report.csv"],
    "orch-rules": ["orch", "rules", *RM_INPUTS, "--out", "{tmp}/out.json"],
    "orch-count": ["orch", "count", "--plan", "{tmp}/plan.json", "--flows", "10"],
    "adapt-regret-table": [*REGRET_ARGS, "--out", "{tmp}/regret.csv"],
    "adapt-regret-pair": [*REGRET_ARGS, "--estimator", "prevepoch", "--out", "{tmp}/regret.csv"],
    "compare-provisioning": ["compare", "provisioning", "--series", "{tmp}/series.json"],
    "simulate": ["simulate", "--scenario", "{tmp}/scenario.json", "--out-dir", "{tmp}/sim"],
}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("args", PRINTING_COMMANDS.values(), ids=PRINTING_COMMANDS.keys())
def test_full_stdout_exit_2(tmp_path, args):
    """A command whose stdout cannot be written exits 2 with one `error:`
    line naming <stdout>, and the interpreter's flush at exit adds nothing."""
    topo = generate_topology(8, dc_slot_capacity=200, seed=1)
    save_topology(topo, str(tmp_path / "topo.json"))
    matrix = [[0.0] * 4 for _ in topo.pops]
    matrix[0][0] = 10.0
    write_traffic(tmp_path / "traffic.json", matrix)
    write_library(tmp_path / "graphs.json")
    (tmp_path / "plan.json").write_text('{"dc_tables": {"dc0": [{}, {}]}}')
    (tmp_path / "series.json").write_text("[[40.0, 20.0], [80.0, 40.0]]")
    (tmp_path / "scenario.json").write_text(json.dumps({
        "epochs": 2, "budget_gbps": 20.0, "adversary": "steady", "estimator": "uniform",
        "topology_nodes": 8, "dc_slots": 200}))
    src = Path(scrubsim.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "scrubsim.cli",
                               *(a.format(tmp=tmp_path) for a in args)],
                              stdout=full, stderr=subprocess.PIPE, text=True, env=env,
                              timeout=300)
    assert (proc.returncode, proc.stderr) == (
        2, "error: cannot write <stdout>: [Errno 28] No space left on device\n")


def test_every_json_output_ends_in_one_newline(tmp_path):
    """Every JSON file the CLI writes, and every JSON it prints, parses and
    ends in exactly one newline."""
    out = tmp_path / "out"
    pops = generate_topology(12, dc_slot_capacity=200, seed=1).pops
    matrix = [[0.0] * 4 for _ in pops]
    matrix[0][0] = 10.0
    write_traffic(tmp_path / "traffic.json", matrix)
    (tmp_path / "series.json").write_text("[[40.0, 20.0], [80.0, 40.0]]")
    (tmp_path / "scenario.json").write_text(json.dumps({
        "epochs": 2, "budget_gbps": 20.0, "adversary": "steady", "estimator": "uniform",
        "topology_nodes": 8, "dc_slots": 200}))
    inputs = ["--topo", f"{out}/topo.json", "--traffic", f"{tmp_path}/traffic.json"]
    out.mkdir()
    printed = []
    for args in (
        ["topo", "gen", "--nodes", "12", "--dc-slots", "200", "--seed", "1",
         "--out", f"{out}/topo.json"],
        ["rm", "dsp", *inputs, "--out", f"{out}/dsp.json"],
        ["rm", "ssp", *inputs, "--out", f"{out}/ssp.json"],
        ["orch", "rules", *inputs, "--out", f"{out}/plan.json"],
        ["orch", "count", "--plan", f"{out}/plan.json", "--flows", "10"],
        ["graph", "demand", "--attack", "syn_flood", "--gbps", "12.5"],
        ["compare", "provisioning", "--series", f"{tmp_path}/series.json"],
        # Instance 20001's gap is over 10%, so it is dumped.
        ["rm", "oracle-compare", "--instances", "2", "--seed", "20000",
         "--report", f"{tmp_path}/report.csv", "--dump-dir", f"{out}/dumps"],
        ["simulate", "--scenario", f"{tmp_path}/scenario.json", "--out-dir", f"{out}/sim"],
    ):
        res = CliRunner().invoke(main, args)
        assert res.exit_code == 0, (args, res.output)
        if res.output.startswith("{"):
            printed.append(res.output)
    files = sorted(out.rglob("*.json"))
    assert len(printed) == 3
    assert [p.name for p in files if p.parent.name == "dumps"] == ["counterexample_20001.json"]
    for text in printed + [p.read_text() for p in files]:
        assert text.endswith("\n") and not text.endswith("\n\n"), text[-40:]
        json.loads(text)


@pytest.mark.parametrize("bad, option", [
    (["--nodes", "0"], "--nodes"),
    (["--nodes=-3"], "--nodes"),
    (["--nodes", "12", "--dc-slots", "0"], "--dc-slots"),
    (["--nodes", "12", "--dc-slots=-5"], "--dc-slots"),
])
def test_topo_gen_bad_size_exit_2(tmp_path, bad, option):
    out = tmp_path / "topo.json"
    res = CliRunner().invoke(main, ["topo", "gen", *bad, "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert f"Invalid value for '{option}'" in res.output
    assert not out.exists()


def test_topo_gen_one_node_clamps_to_two_pops(tmp_path):
    out = tmp_path / "topo.json"
    res = CliRunner().invoke(main, ["topo", "gen", "--nodes", "1", "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert "2 pops" in res.output


def test_seed_env_var(tmp_path, monkeypatch):
    runner = CliRunner()
    monkeypatch.setenv("BOHATEI_SEED", "11")
    p1 = tmp_path / "a.json"
    res = runner.invoke(main, ["topo", "gen", "--nodes", "12", "--out", str(p1)])
    assert res.exit_code == 0
    p2 = tmp_path / "b.json"
    res = runner.invoke(main, ["topo", "gen", "--nodes", "12", "--seed", "11",
                               "--out", str(p2)])
    assert res.exit_code == 0
    assert p1.read_text() == p2.read_text()
