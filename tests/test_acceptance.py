"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py -v`).
"""

import math
import random
import time

import numpy as np

from scrubsim.adaptation import (
    Budget,
    EstimatorState,
    fpl_estimate,
    loss_accounting,
    prev_epoch_estimate,
    perturbation_bound,
    regret_experiment,
)
from scrubsim.config import write_json
from scrubsim.defense_graphs import (
    ANALYSIS,
    RESPONSE,
    AnnotatedGraph,
    AttackType,
    LogicalModule,
    builtin_library,
    monolithic_demand_vms,
    node_demand_vms,
)
from scrubsim.oracle import gap_summary, oracle_comparison, random_tiny_instance
from scrubsim.orchestration import (
    build_tag_pools,
    synthesize_rules,
    tag_space_bound,
)
from scrubsim.resource_manager import (
    check_feasibility,
    dsp_greedy,
    place_all,
)
from scrubsim.simulate import provisioning_comparison
from scrubsim.topology import generate_topology


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_heuristic_vs_oracle(tmp_path):
    started = time.perf_counter()
    rows = oracle_comparison(100, seed=20_000, delta=0.05)
    elapsed = time.perf_counter() - started
    stats = gap_summary(rows)
    dump_dir = tmp_path / "oracle_counterexamples"
    dump_dir.mkdir()
    dumped = 0
    for r in rows:
        if r.counterexample is not None:
            write_json(str(dump_dir / f"counterexample_{r.seed}.json"), r.counterexample)
            dumped += 1
    ok = (stats["handled_equal"] == len(rows) and stats["median_gap"] <= 0.01
          and stats["unproven"] == 0 and elapsed <= 300)
    report(1, ok,
           f"100 instances: handled equal on {stats['handled_equal']}/100, median cost "
           f"gap {stats['median_gap']:.4%} (p90 {stats['p90_gap']:.2%}, max "
           f"{stats['max_gap']:.2%}, {stats['over_10pct']} above 10%), {dumped} "
           f"counterexample(s) dumped, unproven={stats['unproven']}, {elapsed:.1f}s")


def test_criterion_2_heuristic_speed():
    topo = generate_topology(196, 4000, seed=1)
    lib = builtin_library()
    rng = np.random.default_rng(5)
    traffic = rng.uniform(0.0, 3.0, size=(196, 4))
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        dsp = dsp_greedy(topo, traffic, lib)
        best = min(best, time.perf_counter() - t0)
    ok = best < 1.0
    report(2, ok,
           f"196-node topology, 4 attack types, {traffic.sum():.0f} Gbps: "
           f"datacenter selection in {best * 1e3:.1f} ms "
           f"(target ≤ 50 ms, gate < 1 s); t_left={dsp.t_left:.3f}")


def test_criterion_3_rule_count_separation():
    lib = builtin_library()

    # (a) ~1 Gbps of suspicious traffic (about 200K flows) on a small plan.
    topo = generate_topology(24, 400, seed=5)
    traffic = np.zeros((24, 4))
    traffic[0, 0] = 0.5
    traffic[3, 2] = 0.5
    dsp = dsp_greedy(topo, traffic, lib)
    ssps = place_all(topo, dsp, lib)
    pools = build_tag_pools(dsp.physical, lib)
    plan = synthesize_rules(dsp, ssps, pools, lib)
    vms = dsp.total_vms()
    tag_rules = plan.max_switch_rules()
    ratio = 200_000 / tag_rules

    # (b) a 1 Tbps attack across the full topology.
    topo_big = generate_topology(196, 4000, seed=1)
    traffic_big = np.zeros((196, 4))
    for k in range(20):
        traffic_big[k * 9, :] = 12.5  # 20 pops x 4 attacks x 12.5 = 1000 Gbps
    dsp_big = dsp_greedy(topo_big, traffic_big, lib)
    ssps_big = place_all(topo_big, dsp_big, lib)
    pools_big = build_tag_pools(dsp_big.physical, lib)
    plan_big = synthesize_rules(dsp_big, ssps_big, pools_big, lib)
    big_rules = plan_big.max_switch_rules()

    ok = vms <= 50 and ratio >= 1e3 and big_rules < 1000
    report(3, ok,
           f"small plan: {vms} VMs, {tag_rules} tag rules vs 200000 per-flow "
           f"(ratio {ratio:.0f}x); 1 Tbps plan: max {big_rules} rules/switch "
           f"(t_left={dsp_big.t_left:.1f})")


def test_criterion_4_tag_bit_bound():
    atk = AttackType(0, "x")
    chain = AnnotatedGraph(
        attack=atk,
        nodes=[LogicalModule(i, f"n{i}", ANALYSIS, 5.0, contexts=2) for i in range(4)]
              + [LogicalModule(4, "leaf", RESPONSE, 10.0, contexts=1)],
        edges=[(i, i + 1, 1.0) for i in range(4)],
    )
    max_tags, bits = tag_space_bound([chain, chain], l_max=50, k_max=2)
    builtin_tags, builtin_bits = tag_space_bound(
        list(builtin_library()), l_max=50, k_max=2)
    ok = (max_tags, bits) == (800, 10) and builtin_tags <= 800
    report(4, ok,
           f"bound 800 → {bits} bits; builtin library at l_max=50, k_max=2 → "
           f"{builtin_tags} tags ({builtin_bits} bits)")


def test_criterion_5_provisioning_arithmetic():
    syn = provisioning_comparison([[40.0], [80.0], [10.0]])
    both = provisioning_comparison([[40.0, 20.0], [80.0, 40.0], [10.0, 80.0]])
    ok = syn == (240.0, 130.0) and both == (480.0, 270.0)
    report(5, ok, f"single-attack series → {syn}; two-attack series → {both}")


def test_criterion_6_fine_grained_vs_monolithic():
    rng = random.Random(17)
    atk = AttackType(0, "fuzz")
    property_ok = True
    for _ in range(200):
        n = rng.randint(1, 6)
        nodes = [LogicalModule(0, "n0", ANALYSIS, rng.choice([2.0, 5.0, 10.0]),
                               contexts=4)]
        edges = []
        shares = {0: 1.0}
        for i in range(1, n):
            parent = rng.randrange(i)
            budget = shares.get(parent, 0.0) - sum(
                w for s, _d, w in edges if s == parent)
            w = budget * rng.uniform(0.3, 1.0)
            if w <= 1e-6:
                continue
            nodes.append(LogicalModule(i, f"n{i}", RESPONSE,
                                       rng.choice([2.0, 5.0, 10.0]), contexts=4))
            edges.append((parent, i, w))
            shares[i] = w
        g = AnnotatedGraph(attack=atk, nodes=nodes, edges=edges)
        t = rng.uniform(0.0, 300.0)
        fine = sum(node_demand_vms(g, node.id, t) for node in g.nodes)
        mono = monolithic_demand_vms(g, t)
        if fine > len(g.nodes) * mono:
            property_ok = False
            break

    lib = builtin_library()
    t = 100.0
    fine_total = 0
    mono_total = 0
    per_attack = {}
    for g in lib:
        fine = sum(node_demand_vms(g, node.id, t) for node in g.nodes)
        mono = monolithic_demand_vms(g, t) * len(g.nodes)
        fine_total += fine
        mono_total += mono
        per_attack[g.attack.name] = mono / fine
    ratio = mono_total / fine_total
    ok = property_ok and 1.5 <= ratio <= 6.0
    report(6, ok,
           f"fuzz property held on 200 graphs; builtin library at 100 Gbps: "
           f"monolithic {mono_total} VMs vs fine-grained {fine_total} VMs "
           f"(ratio {ratio:.2f}x; per attack "
           + ", ".join(f"{k}={v:.2f}x" for k, v in sorted(per_attack.items())) + ")")


def test_criterion_7_strategy_layer_toy_trace():
    lib = builtin_library()[:2]
    trace = [np.array([[10.0, 0.0]]), np.array([[20.0, 0.0]]),
             np.array([[0.0, 30.0]])]
    state = EstimatorState("prevepoch", 1, 2)
    wastage, evasion = [], []
    for mix in trace:
        prov = prev_epoch_estimate(state)
        w, v, _ = loss_accounting(prov, mix, lib)
        wastage.append(w)
        evasion.append(v)
        state.observe(mix)
    ok = wastage == [0.0, 0.0, 20.0] and evasion == [10.0, 10.0, 30.0]
    report(7, ok, f"wastage {tuple(wastage)}, evasion {tuple(evasion)}")


def test_criterion_8_regret_ordering():
    started = time.perf_counter()
    lib = builtin_library()
    rows = regret_experiment(n_pops=6, budget=Budget(100.0), lib=lib,
                             epochs=500, seeds=list(range(10)))
    elapsed = time.perf_counter() - started
    table = {(r.strategy, r.estimator): r for r in rows}
    print("\n  strategy        estimator   regret_comb  regret_g1  regret_g2")
    for r in rows:
        print(f"  {r.strategy:<15} {r.estimator:<10} {r.mean_regret_combined:11.4f} "
              f"{r.mean_regret_g1:10.4f} {r.mean_regret_g2:10.4f}")
    ordering_ok = True
    details = []
    for strat in ("randhybrid", "flipprevepoch"):
        fpl = table[(strat, "fpl")].mean_regret_g2
        prev = table[(strat, "prevepoch")].mean_regret_g2
        uni = table[(strat, "uniform")].mean_regret_g2
        details.append(f"{strat}: fpl {fpl:.4f} vs prev {prev:.4f}, uniform {uni:.4f}")
        if not (fpl <= prev and fpl <= uni):
            ordering_ok = False
    ok = ordering_ok and elapsed <= 600
    report(8, ok,
           "attack-delivery (G2) regret ordering over 500 epochs x 10 seeds: "
           + "; ".join(details) + f"; all five strategies tabulated; {elapsed:.0f}s")


def test_criterion_9_feasibility_fuzzing():
    clean = 0
    total_violations = 0
    instances = []
    for seed in range(1000):
        topo, traffic, lib, params = random_tiny_instance(seed)
        dsp = dsp_greedy(topo, traffic, lib)
        ssps = place_all(topo, dsp, lib)
        violations = check_feasibility(topo, traffic, dsp, ssps, params, lib)
        total_violations += len(violations)
        if not violations:
            clean += 1
        if len(instances) < 200 and (dsp.n_dc or traffic.sum() > 0):
            instances.append((topo, traffic, lib, params, dsp, ssps))

    caught = 0
    attempted = 0
    mutation_kinds = ("fraction", "t_left", "drop_vms", "overstuff")
    idx = 0
    while attempted < 100 and idx < len(instances):
        topo, traffic, lib, params, dsp0, ssps0 = instances[idx]
        kind = mutation_kinds[attempted % len(mutation_kinds)]
        idx += 1
        dsp = dsp_greedy(topo, traffic, lib)
        ssps = place_all(topo, dsp, lib)
        if kind == "fraction":
            coords = np.argwhere(traffic > 0)
            e, a = coords[0]
            dsp.f[e, a, 0] = 1.2 - float(dsp.f[e, a, 1:].sum())
            want = lambda v: v.constraint == 2 and tuple(v.indices) == (e, a)
        elif kind == "t_left":
            dsp.t_left += 7.0
            want = lambda v: v.constraint == 2 and v.indices == ("t_left",)
        elif kind == "drop_vms":
            target = next((r for r in ssps if r.n_srv), None)
            if target is None:
                continue
            key = sorted(target.n_srv)[0]
            target.n_srv[key] = 0
            d, a, node = target.dc_id, target.attack_id, key[0]
            want = lambda v: (v.constraint in (5, 11)
                              and tuple(v.indices)[:3] == (d, a, node))
        else:  # overstuff
            target = next((r for r in ssps if r.n_srv), None)
            if target is None:
                continue
            key = sorted(target.n_srv)[0]
            target.n_srv[key] += 10_000
            d, rack, srv = target.dc_id, key[1], key[2]
            want = lambda v: (v.constraint == 6
                              and tuple(v.indices) == (d, rack, srv))
        attempted += 1
        violations = check_feasibility(topo, traffic, dsp, ssps, params, lib)
        if any(want(v) for v in violations):
            caught += 1

    ok = clean == 1000 and attempted == 100 and caught == 100
    report(9, ok,
           f"{clean}/1000 greedy solutions with zero violations "
           f"({total_violations} total); {caught}/{attempted} injected faults "
           f"flagged with correctly-indexed violations")


def test_criterion_10_fpl_perturbation_properties():
    budget = 80.0
    n_pops, n_attacks = 3, 4
    cells = n_pops * n_attacks
    all_in_bound = True
    mean_ok = True
    details = []
    for next_epoch in (1, 2, 5, 20):
        # A state with next_epoch-1 zero observations has zero mean, so the
        # estimate is the raw perturbation.
        state = EstimatorState("fpl", n_pops, n_attacks)
        for _ in range(next_epoch - 1):
            state.observe(np.zeros((n_pops, n_attacks)))
        bound = perturbation_bound(budget, next_epoch, n_pops, n_attacks)
        rng = np.random.default_rng([next_epoch, 99])
        draws = np.concatenate([
            fpl_estimate(state, budget, rng).ravel()
            for _ in range(math.ceil(100_000 / cells))
        ])
        assert draws.size >= 100_000
        if not ((draws >= 0.0).all() and (draws <= bound).all()):
            all_in_bound = False
        rel = abs(float(draws.mean()) - bound / 2) / (bound / 2)
        if rel > 0.02:
            mean_ok = False
        details.append(f"t={next_epoch}: bound {bound:.4f}, mean off by {rel:.3%}")
    ok = all_in_bound and mean_ok
    report(10, ok, "; ".join(details))
