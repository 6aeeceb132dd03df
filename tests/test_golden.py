"""Byte-stability goldens for the simulator reports, one forwarding plan, the
exact oracle, the generated topologies, the adaptation layer's regret and
the control plane of dense epochs.

The files under ``tests/data/`` pin the exact bytes of ``epochs.csv``,
``summary.json`` and ``ForwardingPlan.dump()``, the exact reprs of
``oracle_exact``'s results on criterion 1's instances, one SHA-256 digest
of its results on 1000 tiny instances, SHA-256 digests of
the latency, paths and links of generated topologies and of their config
round trips, the exact reprs of criterion 8's regret table, of one
trace's ``RegretReport`` under every estimator and of one per-epoch regret
report, and SHA-256 digests of the DSP, SSP, tag-pool and plan outputs of
a dense 196-node assignment and of a capacity-bound one, and of five
``sim-dense`` epochs. A change that alters them on purpose regenerates them
and says why:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import importlib
import json
import math
import pkgutil
import tempfile
from pathlib import Path

import numpy as np
from click.testing import CliRunner

import scrubsim

from scrubsim.adaptation import (
    ESTIMATORS,
    AdversaryStrategy,
    Budget,
    adversary_next,
    per_epoch_regret_report,
    regret_experiment,
    run_estimator_on_trace,
)
from scrubsim.cli import main
from scrubsim.defense_graphs import builtin_library
from scrubsim.oracle import oracle_exact, random_tiny_instance
from scrubsim.orchestration import (
    build_tag_pools,
    pin_bidirectional_for_graph,
    synthesize_rules,
)
from scrubsim.resource_manager import dsp_greedy, place_all
from scrubsim.simulate import Scenario, emit_report, run_simulation
from scrubsim.topology import (generate_topology, save_topology, topology_from_config,
                               topology_to_config)
from reference import capacity_bound_case, dense_traffic, per_vm_pools

DATA = Path(__file__).parent / "data"
SIM_DIR = DATA / "golden_sim"
PLAN_PATH = DATA / "golden_plan.json"
ORACLE_PATH = DATA / "golden_oracle.json"
ORACLE_SEEDS = range(20_000, 20_100)  # criterion 1's instances
ORACLE_DIGEST_PATH = DATA / "golden_oracle_digest.txt"
ORACLE_DIGEST_SEEDS = range(20_000, 21_000)
TOPOLOGY_PATH = DATA / "golden_topology.json"
# (nodes, seed): the 2-node clamp, small and paper-scale graphs, and 400 nodes.
TOPOLOGY_CASES = [(2, 1), (24, 0), (48, 6), (100, 5), (196, 1), (196, 7), (400, 1)]
REGRET_PATH = DATA / "golden_regret.json"
DENSE_PATH = DATA / "golden_dense.json"
# The sim-dense workload's scenario: every (pop, attack) cell of the fpl
# estimate is nonzero, so every epoch loads DSP, SSP and rule synthesis.
DENSE_SCENARIO = Scenario(epochs=5, budget_gbps=1000.0, adversary="randhybrid",
                          estimator="fpl", seed=5, topology_nodes=196, dc_slots=4000)

# 48 nodes with 150 slots per datacenter and a 1.2 cushion: most epochs fail
# placement, two also leave volume unassigned (t_left notes), and four
# compile a full plan.
GOLDEN_SCENARIO = Scenario(epochs=15, budget_gbps=600.0, adversary="randhybrid",
                           estimator="fpl", seed=6, gamma=1.2, topology_nodes=48,
                           dc_slots=150)


def write_sim_reports(out_dir: Path) -> None:
    records = run_simulation(GOLDEN_SCENARIO)
    emit_report(records, str(out_dir), summary_extra={"seed": GOLDEN_SCENARIO.seed})


def plan_case():
    """The golden plan's inputs as (topology, traffic, library): all four
    builtin graphs from six pops into both datacenters of a 30-node
    topology. The 150 Gbps uplinks split one cell over the two datacenters
    and leave 18 Gbps unassigned; the DNS graph is bidirectional, so the
    plan carries pins."""
    topo = generate_topology(30, dc_slot_capacity=4000, seed=7, dc_link_gbps=150.0)
    lib = builtin_library()
    traffic = np.zeros((len(topo.pops), len(lib)))
    for e in range(6):
        traffic[e, :] = [12.0 + 2 * e, 10.0 + e, 20.0 - 2 * e, 6.0 + e]
    return topo, traffic, lib


def golden_plan():
    """The forwarding plan of ``plan_case``, compiled step by step."""
    topo, traffic, lib = plan_case()
    dsp = dsp_greedy(topo, traffic, lib)
    ssps = place_all(topo, dsp, lib)
    pools = build_tag_pools(dsp.physical, lib)
    plan = synthesize_rules(dsp, ssps, pools, lib)
    for key in sorted(dsp.physical):
        pin_bidirectional_for_graph(plan, dsp.physical[key], pools, lib[key[0]])
    return plan


def write_plan(path: Path) -> None:
    golden_plan().dump(str(path))


def oracle_result_reprs(res) -> dict[str, str]:
    """Exact reprs of an ``OracleResult``'s fields but ``search_nodes`` and
    ``proven``. Arrays go through ``tolist()`` so that each float keeps all
    of its digits."""
    return {
        "objective": repr(res.objective),
        "handled": repr(res.handled),
        "volumes": repr(res.volumes.tolist()),
        "f": repr(res.f.tolist()),
        "n_dc": repr(res.n_dc),
    }


def oracle_reprs() -> dict[str, dict[str, str]]:
    """Per seed, the result's reprs and its search node count."""
    out = {}
    for seed in ORACLE_SEEDS:
        topo, traffic, lib, params = random_tiny_instance(seed)
        res = oracle_exact(topo, traffic, lib, params, delta=0.05)
        out[str(seed)] = dict(oracle_result_reprs(res), search_nodes=repr(res.search_nodes))
    return out


def oracle_digest() -> str:
    """One SHA-256 over every ``OracleResult`` field but ``search_nodes`` on
    1000 tiny instances, so that a change to the oracle's search that must
    not change its results can show that it does not."""
    h = hashlib.sha256()
    for seed in ORACLE_DIGEST_SEEDS:
        topo, traffic, lib, params = random_tiny_instance(seed)
        res = oracle_exact(topo, traffic, lib, params, delta=0.05)
        h.update(json.dumps([seed, oracle_result_reprs(res), res.proven],
                            sort_keys=True).encode())
    return h.hexdigest()


def write_oracle(path: Path) -> None:
    with open(path, "w") as fh:
        json.dump(oracle_reprs(), fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_oracle_digest(path: Path) -> None:
    path.write_text(oracle_digest() + "\n")


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def _sorted_paths(topo) -> list:
    return sorted([e, d, path] for (e, d), path in topo.paths.items())


def topology_digests() -> dict[str, dict[str, str]]:
    """Per (nodes, seed): digests of the generated latency, paths, links and
    config, and of ``topology_from_config`` on that config with its explicit
    latency and with ``"latency": "derive"``."""
    out = {}
    for nodes, seed in TOPOLOGY_CASES:
        topo = generate_topology(nodes, dc_slot_capacity=4000, seed=seed)
        cfg = topology_to_config(topo)
        row = {
            "latency": _sha(topo.latency),
            "paths": _sha(_sorted_paths(topo)),
            "links": _sha(topo.backbone_links),
            "config": _sha(cfg),
        }
        for mode, mode_cfg in (("explicit", cfg), ("derive", dict(cfg, latency="derive"))):
            loaded = topology_from_config(mode_cfg)
            row[mode] = _sha([loaded.latency, _sorted_paths(loaded),
                              topology_to_config(loaded)])
        out[f"{nodes},{seed}"] = row
    return out


def write_topology(path: Path) -> None:
    with open(path, "w") as fh:
        json.dump(topology_digests(), fh, indent=1, sort_keys=True)
        fh.write("\n")


def regret_reprs() -> dict:
    """Criterion 8's regret table; the reports of one 60-epoch randhybrid
    trace under every estimator; and one per-epoch report averaged over
    three seeds."""
    lib = builtin_library()
    budget = Budget(100.0)
    table = regret_experiment(6, budget, lib, 500, list(range(10)))
    trace = [adversary_next(AdversaryStrategy("randhybrid", 3), budget, t, 6, len(lib))
             for t in range(60)]
    reports = {kind: repr(run_estimator_on_trace(kind, trace, budget, lib, seed=3))
               for kind in ESTIMATORS}
    per_epoch = per_epoch_regret_report("randhybrid", "fpl", 6, budget, lib, 40, [0, 1, 2])
    return {"regret_experiment": [repr(row) for row in table],
            "reports": reports,
            "per_epoch": [repr(row) for row in per_epoch]}


def write_regret(path: Path) -> None:
    with open(path, "w") as fh:
        json.dump(regret_reprs(), fh, indent=1, sort_keys=True)
        fh.write("\n")


def _digest(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def control_plane_digests(topo, traffic, lib) -> dict[str, str]:
    """Digests of one assignment's DSP result, SSP placements, tag pools
    and ``ForwardingPlan.dump()`` bytes."""
    dsp = dsp_greedy(topo, traffic, lib)
    out = {"dsp": _digest(dsp.f.tobytes() + repr(
        (dsp.n_dc, dsp.demand, dsp.t_left, dsp.wide_area_cost)).encode())}
    pools = build_tag_pools(dsp.physical, lib)
    out["pools"] = _digest(repr((per_vm_pools(pools, dsp.physical),
                                 list(pools.instance_tags.items()),
                                 list(pools.egress_tags.items()), pools.next_tag)))
    ssps = place_all(topo, dsp, lib)
    out["ssp"] = _digest(repr([(r.dc_id, r.attack_id, list(r.n_srv.items()),
                                list(r.placements.items()), r.intra_rack_units,
                                r.inter_rack_units) for r in ssps]))
    plan = synthesize_rules(dsp, ssps, pools, lib)
    for key in sorted(dsp.physical):
        pin_bidirectional_for_graph(plan, dsp.physical[key], pools, lib[key[0]])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "plan.json"
        plan.dump(str(path))
        out["plan"] = _digest(path.read_bytes())
    return out


def dense_digests() -> dict:
    """A dense 196-node assignment (every cell nonzero, 1 Tbps), the
    capacity-bound case, and the ``epochs.csv`` rows of five ``sim-dense``
    epochs."""
    lib = builtin_library()
    topo = generate_topology(196, dc_slot_capacity=4000, seed=1)
    out = {"dense": control_plane_digests(topo, dense_traffic(topo, lib, 1000.0, seed=5), lib),
           "capacity_bound": control_plane_digests(*capacity_bound_case())}
    rows = [rec.csv_row() for rec in run_simulation(DENSE_SCENARIO)]
    out["sim_dense_epochs"] = _digest(json.dumps(rows))
    return out


def write_dense(path: Path) -> None:
    with open(path, "w") as fh:
        json.dump(dense_digests(), fh, indent=1, sort_keys=True)
        fh.write("\n")


def test_simulation_reports_byte_identical(tmp_path):
    write_sim_reports(tmp_path)
    for name in ("epochs.csv", "summary.json"):
        assert (tmp_path / name).read_bytes() == (SIM_DIR / name).read_bytes(), name


def test_golden_scenario_covers_failures_and_t_left():
    rows = (SIM_DIR / "epochs.csv").read_text().splitlines()[1:]
    assert any("placement" in r for r in rows)
    assert any("t_left=" in r for r in rows)
    assert any(r.endswith(",") for r in rows)  # a clean epoch


def test_forwarding_plan_byte_identical(tmp_path):
    path = tmp_path / "plan.json"
    write_plan(path)
    assert path.read_bytes() == PLAN_PATH.read_bytes()


def test_cli_plan_byte_identical(tmp_path):
    """``scrubsim orch rules`` on the golden plan's topology and traffic,
    read back from files, writes the golden plan's bytes."""
    topo, traffic, _lib = plan_case()
    save_topology(topo, str(tmp_path / "topo.json"))
    (tmp_path / "traffic.json").write_text(json.dumps(traffic.tolist()))
    out = tmp_path / "plan.json"
    res = CliRunner().invoke(main, ["orch", "rules", "--topo", str(tmp_path / "topo.json"),
                                    "--traffic", str(tmp_path / "traffic.json"),
                                    "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert out.read_bytes() == PLAN_PATH.read_bytes()


def test_oracle_bytes():
    assert oracle_reprs() == json.loads(ORACLE_PATH.read_text())


def test_oracle_digest_over_1000_seeds():
    assert oracle_digest() == ORACLE_DIGEST_PATH.read_text().strip()


def test_topology_digests():
    assert topology_digests() == json.loads(TOPOLOGY_PATH.read_text())


def test_regret_bytes():
    assert regret_reprs() == json.loads(REGRET_PATH.read_text())


def test_dense_digests():
    assert dense_digests() == json.loads(DENSE_PATH.read_text())


def test_capacity_bound_case_spills_and_places():
    topo, traffic, lib = capacity_bound_case()
    dsp = dsp_greedy(topo, traffic, lib)
    assert ((dsp.f > 0).sum(axis=2) > 1).any()
    assert "plan" in json.loads(DENSE_PATH.read_text())["capacity_bound"]


def test_goldens_independent_of_float_sum_algorithm(monkeypatch, tmp_path):
    """From Python 3.12, builtin sum adds floats with compensated summation.
    Every total the goldens pin adds in sequence instead, so a correctly
    rounded float sum in every scrubsim module changes no golden."""
    float_sums = 0

    def correctly_rounded_sum(items, start=0):
        nonlocal float_sums
        items = list(items)
        if any(isinstance(x, float) for x in items):
            float_sums += 1
            return math.fsum([start, *items])
        return sum(items, start)

    for info in pkgutil.iter_modules(scrubsim.__path__):
        module = importlib.import_module(f"scrubsim.{info.name}")
        monkeypatch.setattr(module, "sum", correctly_rounded_sum, raising=False)
    test_simulation_reports_byte_identical(tmp_path)
    test_forwarding_plan_byte_identical(tmp_path)
    test_oracle_bytes()
    test_topology_digests()
    test_regret_bytes()
    test_dense_digests()
    assert float_sums > 0


if __name__ == "__main__":
    SIM_DIR.mkdir(parents=True, exist_ok=True)
    write_sim_reports(SIM_DIR)
    write_plan(PLAN_PATH)
    write_oracle(ORACLE_PATH)
    write_oracle_digest(ORACLE_DIGEST_PATH)
    write_topology(TOPOLOGY_PATH)
    write_regret(REGRET_PATH)
    write_dense(DENSE_PATH)
    print(f"wrote {SIM_DIR}/epochs.csv, {SIM_DIR}/summary.json, {PLAN_PATH}, "
          f"{ORACLE_PATH}, {ORACLE_DIGEST_PATH}, {TOPOLOGY_PATH}, {REGRET_PATH} and {DENSE_PATH}")
