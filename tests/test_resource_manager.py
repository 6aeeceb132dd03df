import heapq
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scrubsim import resource_manager
from scrubsim.defense_graphs import (
    ANALYSIS,
    CEIL_EPS,
    DNS_AMPLIFICATION,
    RESPONSE,
    AnnotatedGraph,
    AttackType,
    LogicalModule,
    PhysicalGraph,
    builtin_library,
    vms,
)
from scrubsim.errors import InputError, PlacementError
from scrubsim.oracle import _preset_graph, random_tiny_instance
from scrubsim.resource_manager import (
    ARRAY_PASS_MIN_CELLS,
    EPS,
    DspResult,
    attack_dc_volumes,
    check_feasibility,
    dsp_greedy,
    evaluate_cost,
    overprovision,
    place_all,
    ssp_greedy,
)
from scrubsim.simulate import Scenario, run_scenario_sweep
from scrubsim.topology import CostParams, Topology, generate_topology
from reference import (
    capacity_bound_cases,
    make_dc,
    make_topo,
    pair_units,
    reference_ssp,
    units_cost,
)

ATK = AttackType(0, "atk0")


def one_node_graph(p=10.0, attack=ATK):
    return AnnotatedGraph(
        attack=attack,
        nodes=[LogicalModule(0, "m0", ANALYSIS, p, contexts=1)],
        edges=[],
    )


def chain_graph(attack=ATK, p=(10.0, 10.0), w=1.0):
    return AnnotatedGraph(
        attack=attack,
        nodes=[LogicalModule(0, "a", ANALYSIS, p[0], contexts=1),
               LogicalModule(1, "r", RESPONSE, p[1], contexts=1, delivers=True)],
        edges=[(0, 1, w)],
    )


class TestDspGreedy:
    def test_unconstrained_single_dc(self):
        lib = (one_node_graph(),)
        topo = make_topo(1, [make_dc(999.0, [[99]])], [[3.0]])
        dsp = dsp_greedy(topo, np.array([[10.0]]), lib)
        assert dsp.f[0, 0, 0] == pytest.approx(1.0)
        assert dsp.t_left == 0.0
        assert dsp.wide_area_cost == pytest.approx(10.0 * 3.0)

    def test_link_capacity_split(self):
        # Nearest datacenter can only take 6 of 10 Gbps; the rest overflows
        # to the farther one.
        lib = (one_node_graph(),)
        topo = make_topo(1, [make_dc(6.0, [[99]]), make_dc(99.0, [[99]])],
                         [[1.0, 5.0]])
        dsp = dsp_greedy(topo, np.array([[10.0]]), lib)
        assert dsp.f[0, 0, 0] == pytest.approx(0.6)
        assert dsp.f[0, 0, 1] == pytest.approx(0.4)
        assert dsp.t_left == 0.0

    def test_overflow_lands_in_t_left(self):
        lib = (one_node_graph(),)
        topo = make_topo(1, [make_dc(4.0, [[99]])], [[1.0]])
        dsp = dsp_greedy(topo, np.array([[10.0]]), lib)
        assert dsp.t_left == pytest.approx(6.0)
        assert dsp.f[0, 0, 0] == pytest.approx(0.4)

    def test_t_left_identity(self):
        for seed in range(20):
            topo, traffic, lib, _params = random_tiny_instance(seed)
            dsp = dsp_greedy(topo, traffic, lib)
            implied = float((traffic * (1.0 - dsp.f.sum(axis=2))).sum())
            assert dsp.t_left == pytest.approx(implied, abs=1e-6)

    def test_never_exceeds_capacities(self):
        for seed in range(25):
            topo, traffic, lib, _params = random_tiny_instance(seed)
            dsp = dsp_greedy(topo, traffic, lib)
            for d, dc in enumerate(topo.datacenters):
                vol = float((dsp.f[:, :, d] * traffic).sum())
                assert vol <= dc.link_capacity_gbps + 1e-6

    @settings(max_examples=150, derandomize=True)
    @given(case=capacity_bound_cases())
    def test_counts_fit_every_datacenter_and_place(self, case):
        # Whole VMs are charged as they are assigned, so no datacenter is
        # committed more VMs than it has slots, and SSP places them all.
        topo, traffic, lib = case
        dsp = dsp_greedy(topo, traffic, lib)
        for d, dc in enumerate(topo.datacenters):
            assert sum(pg.total_vms for (_a, dk), pg in dsp.physical.items()
                       if dk == d) <= dc.compute_capacity
        placed = place_all(topo, dsp, lib)
        assert sum(sum(r.placed.values()) for r in placed) == dsp.total_vms()

    def test_deterministic(self):
        topo, traffic, lib, _params = random_tiny_instance(3)
        a = dsp_greedy(topo, traffic, lib)
        b = dsp_greedy(topo, traffic, lib)
        assert np.array_equal(a.f, b.f)
        assert a.n_dc == b.n_dc

    def test_vm_counts_ceil_fractional_demand(self):
        lib = (chain_graph(),)
        topo = make_topo(1, [make_dc(999.0, [[99]])], [[1.0]])
        dsp = dsp_greedy(topo, np.array([[15.0]]), lib)
        assert dsp.n_dc[(0, 0)] == {0: 2, 1: 2}  # ceil(15/10) each

    def test_whole_vms_respect_slot_budget(self):
        # A 3-slot datacenter takes 10 Gbps of a 15 Gbps cell as one VM per
        # node. Charging 1.5 VMs per node and rounding once at the end would
        # have committed 4 VMs to it.
        lib = (chain_graph(),)
        topo = make_topo(1, [make_dc(999.0, [[3]])], [[1.0]])
        dsp = dsp_greedy(topo, np.array([[15.0]]), lib)
        assert dsp.n_dc[(0, 0)] == {0: 1, 1: 1}
        assert dsp.t_left == pytest.approx(5.0, abs=1e-6)

    def test_whole_vms_never_overflow_tiny_instances(self):
        # Each assignment is charged the whole VMs it adds, so the VMs
        # committed to a datacenter never exceed its slots.
        for seed in range(25):
            topo, traffic, lib, _params = random_tiny_instance(seed)
            dsp = dsp_greedy(topo, traffic, lib)
            per_dc: dict[int, int] = {}
            for (d, _a), counts in dsp.n_dc.items():
                per_dc[d] = per_dc.get(d, 0) + sum(counts.values())
            for d, total in per_dc.items():
                assert total <= topo.datacenters[d].compute_capacity


class TestOverprovision:
    def test_gamma_scales_counts(self):
        lib = (chain_graph(),)
        topo = make_topo(1, [make_dc(999.0, [[99]])], [[1.0]])
        dsp = dsp_greedy(topo, np.array([[20.0]]), lib)
        padded = overprovision(dsp, 1.5)
        assert padded.n_dc[(0, 0)] == {0: 3, 1: 3}
        assert padded.physical[(0, 0)].total_vms == 6
        assert np.array_equal(padded.f, dsp.f)

    def test_gamma_one_is_identity(self):
        lib = (chain_graph(),)
        topo = make_topo(1, [make_dc(999.0, [[99]])], [[1.0]])
        dsp = dsp_greedy(topo, np.array([[20.0]]), lib)
        assert overprovision(dsp, 1.0) is dsp


class TestSspGreedy:
    def test_whole_graph_on_one_server(self):
        g = chain_graph()
        dc = make_dc(999.0, [[10, 10], [10, 10]])
        pg = PhysicalGraph(g.attack.id, 0, 20.0, {0: 2, 1: 2})
        res = ssp_greedy(dc, pg, g)
        assert res.intra_rack_units == 0.0
        assert res.inter_rack_units == 0.0
        servers = set(res.placements.values())
        assert len(servers) == 1

    def test_forced_rack_split_counts_edge_traffic(self):
        g = chain_graph()
        # Two racks, one server each, two slots each: node a fills rack 0.
        dc = make_dc(999.0, [[2], [2]])
        pg = PhysicalGraph(g.attack.id, 0, 20.0, {0: 2, 1: 2})
        res = ssp_greedy(dc, pg, g)
        assert res.intra_rack_units == 0.0
        assert res.inter_rack_units == pytest.approx(20.0)  # edge volume 20 * w=1.0

    def test_failed_place_all_leaves_next_call_a_full_datacenter(self):
        g = chain_graph()
        lib = (g,)

        def dsp_for(counts):
            pg = PhysicalGraph(g.attack.id, 0, 10.0, counts)
            return DspResult(f=np.zeros((1, 1, 1)), demand={},
                             physical={(0, 0): pg}, t_left=0.0, wide_area_cost=0.0)

        topo = make_topo(1, [make_dc(999.0, [[2, 2], [2]])], [[1.0]])
        with pytest.raises(PlacementError):
            place_all(topo, dsp_for({0: 3, 1: 4}), lib)  # takes rack 0, then fails
        got = place_all(topo, dsp_for({0: 3, 1: 3}), lib)  # all six slots
        fresh = make_topo(1, [make_dc(999.0, [[2, 2], [2]])], [[1.0]])
        assert got == place_all(fresh, dsp_for({0: 3, 1: 3}), lib)
        assert sum(got[0].n_srv.values()) == 6

    @pytest.mark.parametrize("rack_slots, counts, want", [
        # Roots a and b take one 5-slot server each, 2 free left on both.
        ([[5, 5]], {0: 3, 1: 3, 2: 2}, (0, 0)),
        # a takes position 1, b position 0: the later predecessor's server
        # is the lower one, 3 free left on both.
        ([[5, 6]], {0: 3, 1: 2, 2: 2}, (0, 0)),
        # a spans positions 0 and 1 and leaves them 0 and 1 free; in a's
        # rack positions 2 and 3 tie at 2 free, and position 4 in rack 1,
        # the freest anywhere, is passed over.
        ([[4, 2, 2, 2], [3]], {0: 5, 2: 2}, (0, 2)),
    ])
    def test_tied_predecessor_servers_pick_the_lowest_position(self, rack_slots, counts, want):
        g = AnnotatedGraph(
            attack=ATK,
            nodes=[LogicalModule(0, "a", ANALYSIS, 10.0, contexts=1),
                   LogicalModule(1, "b", ANALYSIS, 10.0, contexts=1),
                   LogicalModule(2, "r", RESPONSE, 10.0, contexts=1, delivers=True)],
            edges=[(0, 2, 0.5), (1, 2, 0.5)],
        )
        res = ssp_greedy(make_dc(999.0, rack_slots), PhysicalGraph(g.attack.id, 0, 10.0, counts),
                         g)
        assert [key[1:] for key in res.n_srv if key[0] == 2] == [want]

    def test_predecessor_without_vms_leaves_successor_to_the_emptiest_server(self):
        g = AnnotatedGraph(
            attack=ATK,
            nodes=[LogicalModule(0, "a", ANALYSIS, 10.0, contexts=1),
                   LogicalModule(1, "b", ANALYSIS, 10.0, contexts=1),
                   LogicalModule(2, "r", RESPONSE, 10.0, contexts=1, delivers=True)],
            edges=[(0, 1, 1.0), (1, 2, 1.0)],
        )
        pg = PhysicalGraph(g.attack.id, 0, 10.0, {0: 3, 1: 0, 2: 2})
        res = ssp_greedy(make_dc(999.0, [[10, 10]]), pg, g)
        assert res.n_srv == {(0, 0, 0): 3, (2, 0, 1): 2}

    def test_one_server_graph_prices_zero(self):
        g = builtin_library()[DNS_AMPLIFICATION.id]
        pg = PhysicalGraph(g.attack.id, 0, 100 / 3, {n.id: 2 for n in g.nodes})
        res = ssp_greedy(make_dc(999.0, [[4], [40]]), pg, g)
        assert len({key[1:] for key in res.n_srv}) == 1
        assert repr((res.intra_rack_units, res.inter_rack_units)) == "(0.0, 0.0)"

    def test_rack_split_graph_prices_the_pair_walk_bits(self):
        g = builtin_library()[DNS_AMPLIFICATION.id]
        counts = {n.id: 3 for n in g.nodes}
        pg = PhysicalGraph(g.attack.id, 0, 100 / 3, counts)
        res = ssp_greedy(make_dc(999.0, [[3, 2], [3, 2], [3, 2]]), pg, g)
        # r_log and r_drop each span two racks.
        assert len({(node, rack) for node, rack, _srv in res.n_srv}) == 7
        units = (res.intra_rack_units, res.inter_rack_units)
        assert units[0] > 0 and units[1] > 0
        want = pair_units(g, pg.traffic_gbps, counts, res.placements)
        assert [u.hex() for u in units] == [u.hex() for u in want]

    def test_insufficient_slots_names_node(self):
        g = chain_graph()
        dc = make_dc(999.0, [[2]])
        pg = PhysicalGraph(g.attack.id, 0, 30.0, {0: 3, 1: 3})
        with pytest.raises(PlacementError) as err:
            ssp_greedy(dc, pg, g)
        assert err.value.node in ("a", "r")

    def test_counts_match_requests_and_slots_respected(self):
        for seed in range(25):
            topo, traffic, lib, _params = random_tiny_instance(seed)
            dsp = dsp_greedy(topo, traffic, lib)
            ssps = place_all(topo, dsp, lib)
            placed = {(r.dc_id, r.attack_id): r for r in ssps}
            for (d, a), counts in dsp.n_dc.items():
                if sum(counts.values()) == 0:
                    continue
                r = placed[(d, a)]
                for node, want in counts.items():
                    got = sum(c for (n, _rk, _s), c in r.n_srv.items() if n == node)
                    assert got == want
            # Per-server totals within slots, across attacks.
            used = {}
            for r in ssps:
                for (node, rack, srv), c in r.n_srv.items():
                    used[(r.dc_id, rack, srv)] = used.get((r.dc_id, rack, srv), 0) + c
            for (d, rack, srv), c in used.items():
                layout = topo.datacenters[d].server_layout
                assert c <= dict(zip(*layout[:2]))[(rack, srv)]

    def test_beats_worst_random_placement(self):
        rng = random.Random(0)
        params = CostParams(intra_unit_cost=1.0, inter_unit_cost=5.0)
        for trial in range(50):
            g = chain_graph(p=(rng.choice([5.0, 10.0]), 10.0))
            slots = [[rng.randint(2, 4) for _ in range(2)] for _ in range(2)]
            dc = make_dc(999.0, slots)
            total = sum(sum(r) for r in slots)
            n0 = rng.randint(1, max(1, total // 3))
            n1 = rng.randint(1, max(1, total - n0 - 1))
            if n0 + n1 > total:
                continue
            counts = {0: n0, 1: n1}
            pg = PhysicalGraph(g.attack.id, 0, float(rng.randint(5, 40)), counts)
            res = ssp_greedy(dc, pg, g)
            greedy_cost = res.dc_cost(params)
            worst = greedy_cost
            for _ in range(1000):
                free = dict(zip(*dc.server_layout[:2]))
                locs = {}
                ok = True
                for node, cnt in counts.items():
                    for k in range(cnt):
                        options = [key for key, f in free.items() if f > 0]
                        if not options:
                            ok = False
                            break
                        pick = rng.choice(options)
                        free[pick] -= 1
                        locs[(node, k)] = pick
                    if not ok:
                        break
                if not ok:
                    continue
                cost = units_cost(pair_units(g, pg.traffic_gbps, counts, locs), params)
                worst = max(worst, cost)
            assert greedy_cost <= worst + 1e-9


class TestEvaluateCost:
    def test_zero_traffic(self):
        lib = (one_node_graph(),)
        topo = make_topo(1, [make_dc(10.0, [[4]])], [[2.0]])
        dsp = dsp_greedy(topo, np.array([[0.0]]), lib)
        assert evaluate_cost(dsp, [], CostParams()) == 0.0

    def test_colocated_single_placement(self):
        lib = (one_node_graph(),)
        topo = make_topo(1, [make_dc(999.0, [[8]])], [[2.0]])
        dsp = dsp_greedy(topo, np.array([[10.0]]), lib)
        ssps = place_all(topo, dsp, lib)
        params = CostParams(alpha=2.0)
        assert evaluate_cost(dsp, ssps, params) == pytest.approx(2.0 * 10.0 * 2.0)

    def test_matches_independent_evaluator(self):
        for seed in range(15):
            topo, traffic, lib, params = random_tiny_instance(seed)
            dsp = dsp_greedy(topo, traffic, lib)
            ssps = place_all(topo, dsp, lib)
            got = evaluate_cost(dsp, ssps, params)
            wide = sum(
                dsp.f[e, a, d] * traffic[e, a] * topo.latency[e][d]
                for e in range(traffic.shape[0])
                for a in range(traffic.shape[1])
                for d in range(len(topo.datacenters))
            )
            dc_cost = 0.0
            for r in ssps:
                g = lib[r.attack_id]
                counts = {}
                for (node, _rk, _s), c in r.n_srv.items():
                    counts[node] = counts.get(node, 0) + c
                vol = attack_dc_volumes(dsp.f, traffic)[r.attack_id, r.dc_id]
                dc_cost += units_cost(pair_units(g, vol, counts, r.placements), params)
            assert got == pytest.approx(params.alpha * wide + dc_cost, rel=1e-9)

    def test_invariant_under_dc_relabeling(self):
        lib = (one_node_graph(),)
        dcs = [make_dc(6.0, [[9]]), make_dc(99.0, [[9]])]
        topo = make_topo(1, dcs, [[1.0, 5.0]])
        traffic = np.array([[10.0]])
        dsp = dsp_greedy(topo, traffic, lib)
        cost = evaluate_cost(dsp, place_all(topo, dsp, lib), CostParams())
        # Swap datacenter order (relabel) and rerun.
        dcs2 = [make_dc(99.0, [[9]]), make_dc(6.0, [[9]])]
        topo2 = make_topo(1, dcs2, [[5.0, 1.0]])
        dsp2 = dsp_greedy(topo2, traffic, lib)
        cost2 = evaluate_cost(dsp2, place_all(topo2, dsp2, lib), CostParams())
        assert cost == pytest.approx(cost2)


class TestCheckFeasibility:
    def test_greedy_output_clean(self):
        for seed in range(30):
            topo, traffic, lib, params = random_tiny_instance(seed)
            dsp = dsp_greedy(topo, traffic, lib)
            ssps = place_all(topo, dsp, lib)
            assert check_feasibility(topo, traffic, dsp, ssps, params, lib) == []

    def test_corrupted_fraction_sum_flagged(self):
        topo, traffic, lib, params = random_tiny_instance(2)
        dsp = dsp_greedy(topo, traffic, lib)
        ssps = place_all(topo, dsp, lib)
        e, a = np.argwhere(traffic > 0)[0]
        dsp.f[e, a, :] = 1.2 / max(1, dsp.f.shape[2])
        dsp.f[e, a, 0] = 1.2 - dsp.f[e, a, 1:].sum()
        violations = check_feasibility(topo, traffic, dsp, ssps, params, lib)
        assert any(v.constraint == 2 and v.indices == (e, a) for v in violations)

    def test_over_coverage_matches_per_cell_sums(self):
        # Nine datacenters: numpy adds each cell's nine fractions pairwise,
        # and the one array pass must report what per-cell sums report.
        atk1 = AttackType(1, "atk1")
        lib = (one_node_graph(), one_node_graph(attack=atk1))
        topo = make_topo(3, [make_dc(999.0, [[99]]) for _ in range(9)], [[1.0] * 9] * 3)
        traffic = np.array([[10.0, 4.0], [0.0, 7.0], [3.0, 3.0]])
        f = np.random.default_rng(7).random((3, 2, 9)) / 4
        f[1, 0] = 0.0
        f[2, 1] = 1.0 / 9
        dsp = DspResult(f=f, demand={}, physical={}, t_left=0.0, wide_area_cost=0.0)
        want = []
        for e in range(3):
            for a in range(2):
                total = float(f[e, a, :].sum())
                if total > 1.0 + 1e-6:
                    want.append((2, (e, a), total - 1.0,
                                 f"fractions for pop {e} attack {a} sum to {total:.4f}"))
        got = [(v.constraint, v.indices, v.slack, v.message)
               for v in check_feasibility(topo, traffic, dsp, [], CostParams(), lib)
               if v.constraint == 2 and v.indices != ("t_left",)]
        assert len(want) == 3
        assert repr(got) == repr(want)

    def test_backbone_beta_violation_with_slack(self):
        # One pop, one dc, a single backbone link on the path; beta=0.5
        # caps the 10 Gbps link at 5 while f routes 8 through it.
        lib = (one_node_graph(),)
        dc = make_dc(999.0, [[99]])
        topo = Topology(
            pops=["p0", "p1"],
            datacenters=[dc],
            latency=[[1.0], [1.0]],
            backbone_links=[(0, 1, 10.0)],
            paths={(0, 0): [(0, 1)], (1, 0): []},
        )
        traffic = np.array([[8.0], [0.0]])
        dsp = dsp_greedy(topo, traffic, lib)
        ssps = place_all(topo, dsp, lib)
        params = CostParams(beta=0.5)
        violations = check_feasibility(topo, traffic, dsp, ssps, params, lib)
        c14 = [v for v in violations if v.constraint == 14]
        assert len(c14) == 1
        assert c14[0].indices == (0, 1)
        # Independent slack recomputation: load 8 vs beta*cap 5.
        assert c14[0].slack == pytest.approx(8.0 - 5.0)

    def test_tampered_placement_exact_violations(self):
        atk1 = AttackType(1, "atk1")
        lib = (chain_graph(), one_node_graph(attack=atk1))
        topo = make_topo(1, [make_dc(999.0, [[2, 2], [2, 3]])], [[1.0]])
        traffic = np.array([[20.0, 10.0]])
        dsp = dsp_greedy(topo, traffic, lib)
        ssps = place_all(topo, dsp, lib)
        assert [r.n_srv for r in ssps] == [{(0, 1, 3): 2, (1, 1, 2): 2}, {(0, 0, 0): 1}]
        # Drop one VM of attack 0's first node; over-fill server (1, 2) with
        # a second VM of attack 1's node.
        ssps[0].n_srv[(0, 1, 3)] = 1
        ssps[1].n_srv[(0, 1, 2)] = 1
        violations = check_feasibility(topo, traffic, dsp, ssps, CostParams(), lib)
        assert str(violations[1]) == \
            "C6(0, 1, 2): server (0,1,2) holds 3 VMs for 2 slots (slack 1)"
        got = [(v.constraint, v.indices, v.slack, v.message) for v in violations]
        assert got == [
            (5, (0, 0, 0), 10.0,
             "dc 0 attack 0 node a: capacity 10.0000 < required 20.0000"),
            (6, (0, 1, 2), 1.0, "server (0,1,2) holds 3 VMs for 2 slots"),
            (11, (0, 0, 0), -1.0, "dc 0 attack 0 node 0: placed 1 != 2"),
            (11, (0, 1, 0), 1.0, "dc 0 attack 1 node 0: placed 2 != 1"),
        ]
        ssps[1].n_srv[(0, 1, 9)] = 1
        with pytest.raises(InputError, match=r"unknown server \(1,9\) in dc 0"):
            check_feasibility(topo, traffic, dsp, ssps, CostParams(), lib)

    def test_missing_vms_flagged(self):
        topo, traffic, lib, params = random_tiny_instance(5)
        dsp = dsp_greedy(topo, traffic, lib)
        ssps = place_all(topo, dsp, lib)
        target = next(r for r in ssps if r.n_srv)
        key = sorted(target.n_srv)[0]
        node = key[0]
        target.n_srv[key] = 0
        violations = check_feasibility(topo, traffic, dsp, ssps, params, lib)
        assert any(v.constraint in (5, 11) and v.indices[2] == node
                   for v in violations)


# -- equivalence with the linear-scan selection rules ---------------------
#
# The references below keep the original selection rules: SSP scans every
# server for the maximum of (hosts a predecessor, in a predecessor's rack,
# free slots, -rack, -server) and prices every VM pair; DSP takes one heap
# step per assignment and scans every datacenter for the minimum of
# (latency, id) among those with link and compute headroom that the item has
# not found unaffordable. The greedies index these choices, store runs of
# VMs and assign an uncontended prefix in one array pass; results must be
# equal, not close.

def linear_scan_ssp(dc, pg, graph, used):
    """Returns (placements, n_srv, intra, inter), the units from a walk over
    every VM pair; mutates `used` as ssp_greedy does."""
    def free(rack_id, srv_id, slots):
        return slots - used.get((rack_id, srv_id), 0)

    servers = [(rack, srv, slots) for (rack, srv), slots in zip(*dc.server_layout[:2])]
    placements, n_srv = {}, {}

    def place_on(node, start, count, rack_id, srv_id):
        for k in range(start, start + count):
            placements[(node, k)] = (rack_id, srv_id)
        used[(rack_id, srv_id)] = used.get((rack_id, srv_id), 0) + count
        n_srv[(node, rack_id, srv_id)] = n_srv.get((node, rack_id, srv_id), 0) + count

    def fill_rack(node, start, count, rack_id):
        remaining = count
        for s in sorted((s for s in servers if s[0] == rack_id),
                        key=lambda s: (-free(*s), s[1])):
            take = min(remaining, free(*s))
            if take > 0:
                place_on(node, start, take, rack_id, s[1])
                start += take
                remaining -= take
            if remaining == 0:
                return
        name = graph.node(node).name
        raise PlacementError(f"rack {rack_id} in datacenter {pg.dc_id} ran out of slots "
                             f"for node {name}", node=name)

    def localize(node, count):
        pred_servers = {placements[(p, k)] for p in graph.predecessors[node]
                        for k in range(pg.counts.get(p, 0))
                        if (p, k) in placements}
        pred_racks = {rack_id for rack_id, _srv in pred_servers}
        fitting = [s for s in servers if free(*s) >= count]
        if fitting:
            rack_id, srv_id, _ = max(
                fitting,
                key=lambda s: ((s[0], s[1]) in pred_servers, s[0] in pred_racks,
                               free(*s), -s[0], -s[1]))
            place_on(node, 0, count, rack_id, srv_id)
            return
        rack_free = {r: sum(free(*s) for s in servers if s[0] == r)
                     for r in range(len(dc.racks))}
        fitting_racks = [r for r, fr in rack_free.items() if fr >= count]
        if fitting_racks:
            fill_rack(node, 0, count,
                      max(fitting_racks, key=lambda r: (r in pred_racks, rack_free[r], -r)))
            return
        total_free = sum(rack_free.values())
        if total_free < count:
            name = graph.node(node).name
            raise PlacementError(f"datacenter {pg.dc_id} lacks {count} slots for node "
                                 f"{name} ({total_free} free)", node=name)
        idx = 0
        for rack_id in sorted(rack_free, key=lambda r: (-rack_free[r], r)):
            take = min(count - idx, rack_free[rack_id])
            if take > 0:
                fill_rack(node, idx, take, rack_id)
                idx += take
            if idx == count:
                break

    pending = {i for i, c in pg.counts.items() if c}
    placed = {n.id for n in graph.nodes if n.id not in pending}
    while pending:
        ready = [i for i in pending if all(p in placed for p in graph.predecessors[i])]
        node = max(ready or pending, key=lambda i: (graph.node(i).capacity_gbps, -i))
        localize(node, pg.counts[node])
        pending.discard(node)
        placed.add(node)
    return (placements, n_srv, *pair_units(graph, pg.traffic_gbps, pg.counts, placements))


def linear_scan_dsp(topo, traffic, lib):
    """The DSP greedy with a linear datacenter scan and per-cell array adds.
    Returns (f, counts, demand, t_left, wide_area_cost, exhausted_hits)."""
    n_e, n_a = traffic.shape
    n_d = len(topo.datacenters)
    rates = [{n.id: g.share(n.id) / n.capacity_gbps for n in g.nodes} for g in lib]
    link_rem = [dc.link_capacity_gbps for dc in topo.datacenters]
    compute_rem = [float(dc.compute_capacity) for dc in topo.datacenters]
    volumes = traffic.tolist()
    heap = [(-volumes[e][a], e, a, e * n_a + a)
            for e in range(n_e) for a in range(n_a) if volumes[e][a] > 1e-9]
    heapq.heapify(heap)
    exhausted = {item: set() for *_rest, item in heap}
    f = np.zeros((n_e, n_a, n_d))
    demand, charged = {}, {}
    t_left = cost = 0.0
    hits = 0

    def increment(d, a, x):
        cur, have = demand.get((d, a), {}), charged.get((d, a), {})
        return sum(max(0, math.ceil(cur.get(i, 0.0) + x * r - 1e-9) - have.get(i, 0))
                   for i, r in rates[a].items())

    while heap:
        neg_t, e, a, item = heapq.heappop(heap)
        t = -neg_t
        candidates = [d for d in range(n_d) if link_rem[d] > 1e-9
                      and compute_rem[d] > 1e-9 and d not in exhausted[item]]
        if not candidates:
            t_left += t
            continue
        d = min(candidates, key=lambda d: (topo.latency[e][d], d))
        t1 = min(t, link_rem[d])
        lo, hi = 0.0, t1
        if increment(d, a, t1) > compute_rem[d] + 1e-9:
            for _ in range(60):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if increment(d, a, mid) <= compute_rem[d] + 1e-9 \
                    else (lo, mid)
            t1 = min(t1, lo)
        if t1 <= 1e-9:
            exhausted[item].add(d)
            hits += 1
            heapq.heappush(heap, (neg_t, e, a, item))
            continue
        node_demand = demand.setdefault((d, a), {n.id: 0.0 for n in lib[a].nodes})
        have = charged.setdefault((d, a), {n.id: 0 for n in lib[a].nodes})
        for i, r in rates[a].items():
            new = math.ceil(node_demand[i] + t1 * r - 1e-9)
            if new > have[i]:
                compute_rem[d] -= new - have[i]
                have[i] = new
        for i, r in rates[a].items():
            node_demand[i] += t1 * r
        f[e, a, d] += t1 / volumes[e][a]
        cost += t1 * topo.latency[e][d]
        link_rem[d] -= t1
        if t - t1 > 1e-9:
            heapq.heappush(heap, (-(t - t1), e, a, item))
    return f, dict(sorted(charged.items())), demand, t_left, cost, hits


@st.composite
def datacenters(draw):
    """Two to five racks of one to three servers with 1-3 slots each, and
    the slots already taken on some of them, per (rack, server)."""
    dc = make_dc(999.0, draw(st.lists(st.lists(st.integers(1, 3), min_size=1, max_size=3),
                                      min_size=2, max_size=5)))
    return dc, {srv: draw(st.integers(0, slots))
                for srv, slots in zip(*dc.server_layout[:2]) if draw(st.booleans())}


@st.composite
def node_counts(draw, graph, free):
    """Two to eight VMs per node while `free` slots last, or none. Most
    nodes are larger than any server, so they split over servers, and over
    racks once no rack fits them; a node with none leaves its successors
    a predecessor that is placed nowhere."""
    counts = {}
    for n in graph.nodes:
        counts[n.id] = min(free, draw(st.sampled_from([4, 6, 0, 2, 8, 3, 0])))
        free -= counts[n.id]
    return counts


def dag(parents, caps):
    """A graph over nodes 0..n-1 with an edge p -> j for each p in
    parents[j]; each node sends half its share, evenly, to its children,
    and each leaf delivers."""
    n = len(parents)
    children = [[j for j in range(n) if i in parents[j]] for i in range(n)]
    n_roots = sum(not p for p in parents)
    share, edges = [], []
    for j in range(n):
        share.append(sum(w for _s, d, w in edges if d == j) if parents[j] else 1.0 / n_roots)
        edges += [(j, c, share[j] / (2 * len(children[j]))) for c in children[j]]
    return AnnotatedGraph(
        attack=ATK,
        nodes=[LogicalModule(i, f"m{i}", ANALYSIS if children[i] else RESPONSE, caps[i],
                             contexts=max(len(children[i]), 1), delivers=not children[i])
               for i in range(n)],
        edges=edges,
    )


@st.composite
def random_dags(draw):
    """(parents, capacities, counts, counts) for `dag`: one to six nodes,
    edges only from lower to higher ids, so nodes with two or more parents
    are common, and capacities from {5, 10}, so ready nodes often tie. A
    node with no VMs lets a successor become ready before its turn in id
    order. The second count dict mostly gives no VMs to the same nodes as
    the first, which repeats the first's set of provisioned nodes."""
    n = draw(st.integers(1, 6))
    parents = [sorted(draw(st.sets(st.integers(0, j - 1), max_size=j))) if j else []
               for j in range(n)]
    caps = draw(st.lists(st.sampled_from([5.0, 10.0]), min_size=n, max_size=n))
    first = {i: draw(st.sampled_from([0, 1, 2, 3, 0, 4])) for i in range(n)}
    second = {i: draw(st.integers(1, 4)) if c else draw(st.sampled_from([0, 0, 0, 2]))
              for i, c in first.items()}
    return parents, caps, first, second


def free_slots(dc, used):
    return dc.compute_capacity - sum(used.values())


def chain(n_nodes, caps):
    return AnnotatedGraph(
        attack=ATK,
        nodes=[LogicalModule(i, f"m{i}", ANALYSIS if i + 1 < n_nodes else RESPONSE,
                             caps[i], contexts=1, delivers=i + 1 == n_nodes)
               for i in range(n_nodes)],
        edges=[(i, i + 1, 1.0) for i in range(n_nodes - 1)],
    )


def slot_table(dc, used):
    """The free slots per position of `dc.server_layout`, with `used` slots
    already taken."""
    servers, slots, _spans = dc.server_layout
    return [n - used.get(srv, 0) for srv, n in zip(servers, slots)]


def occupancy(dc, free):
    """The slots taken in `free` as a (rack, server) -> used dict, zeros
    left out."""
    servers, slots, _spans = dc.server_layout
    return {srv: n - f for srv, n, f in zip(servers, slots, free) if n != f}


def ssp_outcome(placements, n_srv, intra, inter):
    """Placements in instance order, runs in placement order, units to the bit."""
    return list(placements.items()), list(n_srv.items()), repr((intra, inter))


def assert_ssp_matches_linear_scan(dc, pg, graph, used, table):
    """Run both on one datacenter state: the reference on `used`, ssp_greedy
    on `table`. Results or errors must be equal, and `table` must hold the
    same occupancy as `used` afterwards."""
    try:
        want = linear_scan_ssp(dc, pg, graph, used)
    except PlacementError as exc:
        with pytest.raises(PlacementError) as err:
            ssp_greedy(dc, pg, graph, table)
        assert (str(err.value), err.value.node) == (str(exc), exc.node)
    else:
        res = ssp_greedy(dc, pg, graph, table)
        assert ssp_outcome(res.placements, res.n_srv, res.intra_rack_units,
                           res.inter_rack_units) == ssp_outcome(*want)
    assert occupancy(dc, table) == {k: v for k, v in used.items() if v}


def assert_dsp_matches(got, want, traffic):
    """dsp_greedy's result against linear_scan_dsp's, bit for bit; each
    physical graph carries its own key's volume."""
    f, counts, demand, t_left, cost, _hits = want
    assert got.f.tobytes() == f.tobytes()
    assert (repr(got.n_dc), repr(got.demand)) == (repr(counts), repr(demand))
    assert (got.t_left, got.wide_area_cost) == (t_left, cost)
    assert [(key, repr(pg.traffic_gbps)) for key, pg in got.physical.items()] == \
        [((a, d), repr(float((f[:, a, d] * traffic[:, a]).sum()))) for d, a in counts]


def check_dsp(topo, traffic, lib):
    """Returns the reference's count of exhausted-datacenter retries."""
    want = linear_scan_dsp(topo, traffic, lib)
    assert_dsp_matches(dsp_greedy(topo, traffic, lib), want, traffic)
    return want[-1]


class TestIndexedSelectionMatchesLinearScan:
    @settings(max_examples=200)
    @given(data=st.data())
    def test_single_server_pick(self, data):
        # Chains of 1-3 VMs per node: whole on one server where one fits.
        dc, used = data.draw(datacenters())
        n_nodes = data.draw(st.integers(1, 4))
        caps = data.draw(st.lists(st.sampled_from([5.0, 10.0]),
                                  min_size=n_nodes, max_size=n_nodes))
        counts = {i: data.draw(st.integers(1, 3)) for i in range(n_nodes)}
        g = chain(n_nodes, caps)
        assert_ssp_matches_linear_scan(dc, PhysicalGraph(g.attack.id, 0, 10.0, counts), g,
                                       used, slot_table(dc, used))

    @settings(max_examples=200)
    @given(data=st.data())
    def test_full_ssp_results_and_errors(self, data):
        dc, used = data.draw(datacenters())
        graphs = builtin_library()
        # Two graphs in turn share the datacenter's occupancy, as place_all
        # does; one in three asks for two slots more than are free.
        table = slot_table(dc, used)
        for gbps in (20.0, 5.0):
            g = data.draw(st.sampled_from(graphs))
            spare = data.draw(st.sampled_from([0, 0, 2]))
            counts = data.draw(node_counts(g, free_slots(dc, used) + spare))
            assert_ssp_matches_linear_scan(dc, PhysicalGraph(g.attack.id, 0, gbps, counts), g,
                                           used, table)

    @settings(max_examples=200)
    @given(dc_used=datacenters(), case=random_dags())
    # Node 1 has no VMs, so node 2, its only child, is ready at once and
    # goes before the root on its higher capacity.
    @example(dc_used=(make_dc(999.0, [[4, 3], [3, 2]]), {}),
             case=([[], [0], [1], [0]], [5.0, 10.0, 10.0, 5.0],
                   {0: 2, 1: 0, 2: 3, 3: 1}, {0: 1, 1: 0, 2: 2, 3: 2}))
    def test_random_dags_share_one_table(self, dc_used, case):
        # One graph object placed twice on one table: the second placement
        # reuses the node order derived for the first.
        dc, used = dc_used
        parents, caps, *counts = case
        g = dag(parents, caps)
        table = slot_table(dc, used)
        for gbps, c in zip((20.0, 5.0), counts):
            assert_ssp_matches_linear_scan(dc, PhysicalGraph(g.attack.id, 0, gbps, c), g,
                                           used, table)

    @settings(max_examples=150)
    @given(data=st.data())
    def test_place_all_shares_one_table_per_datacenter(self, data):
        dc, _used = data.draw(datacenters())
        lib = builtin_library()
        attacks = data.draw(st.lists(st.sampled_from(lib), min_size=2,
                                     max_size=3, unique_by=lambda g: g.attack.id))
        physical, free = {}, dc.compute_capacity + data.draw(st.sampled_from([0, 0, 2]))
        for g in attacks:
            counts = data.draw(node_counts(g, free))
            free -= sum(counts.values())
            physical[(g.attack.id, 0)] = PhysicalGraph(g.attack.id, 0, 10.0, counts)
        dsp = DspResult(f=np.zeros((1, len(lib), 1)), demand={},
                        physical=physical, t_left=0.0, wide_area_cost=0.0)
        topo = make_topo(1, [dc], [[1.0]])
        used = {}
        try:
            want = [ssp_outcome(*linear_scan_ssp(dc, pg, lib[pg.attack_id], used))
                    for _key, pg in sorted(physical.items()) if pg.total_vms]
        except PlacementError as exc:
            # A failed call leaves the next one a full datacenter too.
            for _ in range(2):
                with pytest.raises(PlacementError) as err:
                    place_all(topo, dsp, lib)
                assert (str(err.value), err.value.node) == (str(exc), exc.node)
            return
        got = place_all(topo, dsp, lib)
        assert [ssp_outcome(r.placements, r.n_srv, r.intra_rack_units, r.inter_rack_units)
                for r in got] == want
        # The datacenter's layout is derived once; its free slots are not.
        assert place_all(topo, dsp, lib) == got

    @settings(max_examples=150)
    @given(data=st.data())
    def test_dsp_datacenter_choice(self, data):
        lib = builtin_library()
        n_e = data.draw(st.integers(1, 4))
        n_d = data.draw(st.integers(1, 4))
        dcs = [make_dc(data.draw(st.sampled_from([5.0, 12.0, 30.0, 999.0])),
                    [[data.draw(st.sampled_from([0, 1, 2, 5, 20]))] * 2])
               for _ in range(n_d)]
        latency = [[data.draw(st.sampled_from([1.0, 2.0, 3.0])) for _ in range(n_d)]
                   for _ in range(n_e)]
        # A scale other than 1 makes the volumes inexact binary fractions.
        scale = data.draw(st.sampled_from([1.0, 0.7, 1.3]))
        traffic = np.array([[data.draw(st.sampled_from([0.0, 2.5, 5.0, 10.0, 17.0])) * scale
                             for _ in range(len(lib))] for _ in range(n_e)])
        check_dsp(make_topo(n_e, dcs, latency), traffic, lib)

    @settings(max_examples=150)
    @given(case=capacity_bound_cases())
    def test_dsp_on_generated_topologies(self, case):
        check_dsp(*case)

    def test_dsp_exhausted_datacenters(self):
        # Tied latencies: the cheapest datacenters run out of affordable VM
        # steps, so items skip them and retry elsewhere.
        lib = builtin_library()
        dcs = [make_dc(999.0, [[1, 1]]) for _ in range(3)]
        topo = make_topo(2, dcs, [[1.0, 1.0, 2.0], [2.0, 1.0, 1.0]])
        traffic = np.array([[4.0, 3.0, 6.0, 2.0], [5.0, 0.0, 3.0, 7.0]])
        assert check_dsp(topo, traffic, lib) > 0


# -- placement units from per-server runs ------------------------------
#
# SspResult stores each node's placement as one run of VMs per server it
# uses, and _edge_units counts each edge's cross-server VM pairs from those
# runs; linear_scan_ssp walks every VM pair of its per-VM location map.
# Graphs that fill most of the free slots make rack and cross-rack splits
# common, which the goldens' dense epochs hardly reach.

class TestRunsMatchPerVmWalk:
    @settings(max_examples=300)
    @given(data=st.data())
    def test_edge_units_and_placements(self, data):
        dc, used = data.draw(datacenters())
        g = data.draw(st.sampled_from(builtin_library()))
        # At most the free slots in all, so every graph fits.
        counts = data.draw(node_counts(g, free_slots(dc, used)))
        pg = PhysicalGraph(g.attack.id, 0, data.draw(st.sampled_from([7.0, 20.0, 100 / 3])), counts)
        assert_ssp_matches_linear_scan(dc, pg, g, used, slot_table(dc, used))


# -- one-step placement against the node walk --------------------------
#
# ssp_greedy places a chained graph that fits the freest server in one
# step; reference_ssp walks its nodes one by one, and both must give the
# same runs, units, errors and free slots.

# The built-in graphs and the oracle's single, chain and branch presets.
WALK_GRAPHS = list(builtin_library()) + [
    _preset_graph(AttackType(a, f"atk{a}"), shape, 0.5)
    for a, shape in enumerate(("single", "chain", "branch"))]


@st.composite
def uneven_datacenters(draw):
    """One to four racks of one to four servers with 1-12 slots each, and
    its free list with slots already taken on some servers."""
    dc = make_dc(999.0, draw(st.lists(st.lists(st.integers(1, 12), min_size=1, max_size=4),
                                      min_size=1, max_size=4)))
    free = [n - draw(st.integers(0, n)) if draw(st.booleans()) else n
            for n in dc.server_layout[1]]
    return dc, free


@st.composite
def vm_counts(draw, graph, total):
    """`total` VMs over the graph's nodes, at least one per node given any.
    A node gets none one time in three, which often leaves a later node
    with no provisioned predecessor and breaks the chain."""
    ids = [n.id for n in graph.nodes]
    given = ([i for i in ids if draw(st.integers(0, 2))] or ids[:1])[:total]
    counts, left = dict.fromkeys(ids, 0), total - len(given)
    for i in given[:-1]:
        extra = draw(st.integers(0, left))
        counts[i], left = 1 + extra, left - extra
    if given:
        counts[given[-1]] = 1 + left
    return counts


class TestOneStepMatchesNodeWalk:
    @settings(max_examples=400, derandomize=True)
    @given(data=st.data())
    def test_graphs_placed_in_turn(self, data):
        # One to three graphs share a free list, as place_all's do. Each
        # asks for the freest server's slots less one, exactly or plus one,
        # or for any number up to two more than are free.
        dc, free = data.draw(uneven_datacenters())
        want_free = list(free)
        for _ in range(data.draw(st.integers(1, 3))):
            graph = data.draw(st.sampled_from(WALK_GRAPHS))
            most = max(free)
            total = data.draw(st.sampled_from([most - 1, most, most + 1])
                              | st.integers(0, sum(free) + 2))
            counts = data.draw(vm_counts(graph, max(total, 0)))
            pg = PhysicalGraph(graph.attack.id, 0, data.draw(st.sampled_from([7.0, 20.0, 100 / 3])),
                               counts)
            try:
                n_srv, units = reference_ssp(dc, pg, graph, want_free)
            except PlacementError as exc:
                with pytest.raises(PlacementError) as err:
                    ssp_greedy(dc, pg, graph, free)
                assert (str(err.value), err.value.node) == (str(exc), exc.node)
                assert free == want_free
                return
            got = ssp_greedy(dc, pg, graph, free)
            assert list(got.n_srv.items()) == list(n_srv.items())
            assert [u.hex() for u in (got.intra_rack_units, got.inter_rack_units)] == \
                [u.hex() for u in units]
            assert free == want_free


# -- the array pass against the heap loop alone ------------------------
#
# linear_scan_dsp takes one heap step per assignment; dsp_greedy assigns the
# uncontended prefix of the heap order in one array pass and must return the
# same bits.

@st.composite
def dsp_cases(draw):
    """The built-in library over 1-16 pops (4 to 64 cells, both sides of
    ARRAY_PASS_MIN_CELLS) and 1-4 datacenters whose link and slots are
    ample or tight. Volumes are often zero and, when rounded, often tied."""
    lib = builtin_library()
    n_e, n_d = draw(st.integers(1, 16)), draw(st.integers(1, 4))
    dcs = [make_dc(draw(st.sampled_from([15.0, 60.0, 999.0])),
                [[draw(st.sampled_from([0, 3, 40, 500]))] * 2])
           for _ in range(n_d)]
    latency = [[draw(st.sampled_from([1.0, 2.0, 3.0])) for _ in range(n_d)]
               for _ in range(n_e)]
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    weights = rng.exponential(1.0, (n_e, len(lib))) * (rng.random((n_e, len(lib))) > 0.3)
    traffic = weights * (draw(st.sampled_from([30.0, 150.0, 600.0])) / max(weights.sum(), 1.0))
    if draw(st.booleans()):
        traffic = np.round(traffic)
    return make_topo(n_e, dcs, latency), traffic, lib


@st.composite
def closing_cases(draw):
    """The built-in library over 24-48 pops (96 to 192 cells) and 2-5
    datacenters with 15-60 Gbps links, more traffic than some of them carry
    and, mostly, ample slots. Links close one by one: a cell spills, so the
    end-total check fails, and its heap step closes a datacenter and hands
    the heap back to a pass, which often adds to keys assigned before."""
    lib = builtin_library()
    n_e, n_d = draw(st.integers(24, 48)), draw(st.integers(2, 5))
    dcs = [make_dc(float(draw(st.integers(15, 60))),
                [[draw(st.sampled_from([20, 500, 500]))] * 2]) for _ in range(n_d)]
    latency = [[draw(st.sampled_from([1.0, 2.0, 3.0])) for _ in range(n_d)]
               for _ in range(n_e)]
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    weights = rng.exponential(1.0, (n_e, len(lib))) * (rng.random((n_e, len(lib))) > 0.1)
    traffic = weights * (draw(st.sampled_from([40.0, 120.0, 300.0])) / max(weights.sum(), 1.0))
    return make_topo(n_e, dcs, latency), traffic, lib


class TestArrayPassMatchesHeapLoop:
    @settings(max_examples=200, derandomize=True)
    @given(case=st.one_of(dsp_cases(), capacity_bound_cases(), closing_cases()))
    def test_bit_identical_to_reference(self, case):
        check_dsp(*case)

    def test_closing_cases_reach_each_pass_path(self, monkeypatch):
        # closing_cases is there for three paths of the pass; each comes up.
        reached = set()
        assign_prefix, running = resource_manager._assign_prefix, resource_manager._running

        def tracked_pass(cells, *args):
            demand = args[7]  # the loop's demand, which the pass updates
            before = {key: dict(node_demand) for key, node_demand in demand.items()}
            result = assign_prefix(cells, *args)
            if before:
                reached.add("resumed pass")
            if any(demand[key] != node_demand for key, node_demand in before.items()):
                reached.add("key assigned before and after a closing")
            return result

        def tracked_running(ufunc, *args):
            if ufunc is np.subtract:
                reached.add("failed end-total check")
            return running(ufunc, *args)

        monkeypatch.setattr(resource_manager, "_assign_prefix", tracked_pass)
        monkeypatch.setattr(resource_manager, "_running", tracked_running)

        @settings(max_examples=20, derandomize=True)
        @given(case=closing_cases())
        def run(case):
            dsp_greedy(*case)

        run()
        assert reached == {"resumed pass", "failed end-total check",
                           "key assigned before and after a closing"}

    @settings(max_examples=100, derandomize=True)
    @given(case=st.one_of(dsp_cases(), closing_cases(), capacity_bound_cases()))
    def test_counts_round_final_demand(self, case):
        # Each node's VM count is its final demand rounded up once, as
        # linear_scan_dsp rounds it, and, in node order, the int of a vms
        # call on that demand alone, though dsp_greedy rounds them all in one
        # call on an array.
        res = dsp_greedy(*case)
        assert res.n_dc == {key: {i: math.ceil(v - CEIL_EPS) if v > EPS else 0
                                  for i, v in node_demand.items()}
                            for key, node_demand in res.demand.items()}
        assert [(key, list(counts.items())) for key, counts in res.n_dc.items()] == \
            [(key, [(i, int(vms(v))) for i, v in node_demand.items()])
             for key, node_demand in sorted(res.demand.items())]

    @pytest.mark.parametrize("n_e", [1, 7, 9, 196, 300])
    def test_volume_table_equals_per_key_sums(self, n_e):
        # Past 8 and 128 pops numpy's pairwise sum changes shape; each
        # table entry must still be its own key's sum, bit for bit.
        rng = np.random.default_rng(n_e)
        f = rng.random((n_e, 4, 5)) * (rng.random((n_e, 4, 5)) < 0.7)
        traffic = rng.uniform(0.0, 50.0, (n_e, 4))
        table = attack_dc_volumes(f, traffic)
        assert table.shape == (4, 5)
        assert [[repr(v) for v in row] for row in table.tolist()] == \
            [[repr(float((f[:, a, d] * traffic[:, a]).sum())) for d in range(5)]
             for a in range(4)]

    @settings(max_examples=100, derandomize=True)
    @given(n_e=st.integers(1, 300), n_a=st.integers(1, 5), n_d=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1))
    def test_volume_table_bits_match_the_broadcast_product(self, n_e, n_a, n_d, seed):
        # The table multiplies a transposed copy of `f` in place; the products
        # and the summed layout are those of the broadcast product.
        rng = np.random.default_rng(seed)
        f = rng.random((n_e, n_a, n_d)) * (rng.random((n_e, n_a, n_d)) < 0.7)
        traffic = rng.uniform(0.0, 50.0, (n_e, n_a)) * (rng.random((n_e, n_a)) < 0.8)
        want = np.ascontiguousarray((f * traffic[:, :, None]).transpose(1, 2, 0)).sum(axis=2)
        got = attack_dc_volumes(f, traffic)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())

    def test_dense_input_takes_no_heap_step(self, monkeypatch):
        # 196 pops, 4000 slots, 1 Tbps over every cell: all of it fits, so
        # the array pass assigns every cell and the heap loop has none left.
        topo = generate_topology(196, 4000, seed=1)
        lib = builtin_library()
        weights = np.random.default_rng(0).random((196, len(lib)))
        traffic = weights * (1000.0 / weights.sum())
        assert traffic.size >= ARRAY_PASS_MIN_CELLS
        want = linear_scan_dsp(topo, traffic, lib)

        def heappop(heap):
            raise AssertionError("the heap loop ran")
        monkeypatch.setattr(heapq, "heappop", heappop)
        assert_dsp_matches(dsp_greedy(topo, traffic, lib), want, traffic)

    def test_closed_datacenter_takes_no_cell(self):
        # The first cell's VM takes datacenter 0's one slot and closes it,
        # though each of the 31 cells after it would add no VM there. The
        # loop sends them to datacenter 1; so must the pass, whose end-total
        # check reads the closing.
        lib = (one_node_graph(10.0),)
        topo = make_topo(32, [make_dc(999.0, [[1]]), make_dc(999.0, [[999]])],
                         [[1.0, 2.0]] * 32)
        traffic = np.array([[4.0]] + [[0.1]] * 31)
        check_dsp(topo, traffic, lib)
        assert dsp_greedy(topo, traffic, lib).f[1:, 0].tolist() == [[0.0, 1.0]] * 31

    def test_sim_dense_epochs_take_at_most_one_heap_step(self, monkeypatch):
        # The sim-dense benchmark's inputs: fpl's estimates of 1 Tbps
        # randhybrid on the 196-pop, 4000-slot topology, run seeds 5-9. In 9
        # of the 100 epochs one datacenter's link binds on one cell; that
        # cell's heap step closes the datacenter, and a second pass takes
        # every cell left. The heap loop alone took 3 123 steps.
        sc = Scenario(epochs=20, budget_gbps=1000.0, adversary="randhybrid", estimator="fpl",
                      seed=1, seeds=list(range(5, 10)), topology_nodes=196, dc_slots=4000)
        topo, lib = sc.load_topology(), builtin_library()
        estimates = [r.estimate for _seed, runs in sorted(run_scenario_sweep(sc).items())
                     for r in runs]
        want = [linear_scan_dsp(topo, x, lib) for x in estimates]

        pops = []
        heappop = heapq.heappop
        monkeypatch.setattr(heapq, "heappop", lambda heap: pops.append(1) or heappop(heap))
        per_epoch = []
        for x, ref in zip(estimates, want):
            before = len(pops)
            assert_dsp_matches(dsp_greedy(topo, x, lib), ref, x)
            per_epoch.append(len(pops) - before)
        assert (len(per_epoch), max(per_epoch), sum(per_epoch)) == (100, 1, 9)
