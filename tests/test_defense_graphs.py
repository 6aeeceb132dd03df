import json
import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scrubsim.defense_graphs import (
    ANALYSIS,
    CEIL_EPS,
    RESPONSE,
    AnnotatedGraph,
    AttackType,
    LogicalModule,
    PhysicalGraph,
    builtin_library,
    graph_from_config,
    graph_to_config,
    load_library,
    monolithic_demand_vms,
    node_demand_vms,
    sequential_sum,
    vms,
)
from scrubsim.errors import InputError

ATK = AttackType(0, "test")


def single_node(p=5.0):
    return AnnotatedGraph(
        attack=ATK,
        nodes=[LogicalModule(0, "m", ANALYSIS, p, contexts=1)],
        edges=[],
    )


def udp_like():
    # Root splits 0.52 / 0.48; the 0.48 branch chains one more hop.
    return AnnotatedGraph(
        attack=ATK,
        nodes=[
            LogicalModule(0, "a", ANALYSIS, 10.0, contexts=2),
            LogicalModule(1, "r1", RESPONSE, 10.0, contexts=1, delivers=True),
            LogicalModule(2, "r2", RESPONSE, 10.0, contexts=1),
            LogicalModule(3, "r3", RESPONSE, 10.0, contexts=1, delivers=True),
        ],
        edges=[(0, 1, 0.52), (0, 2, 0.48), (2, 3, 0.48)],
    )


def random_graph(rng):
    """Random small DAG with non-amplifying edge weights."""
    n = rng.randint(1, 6)
    nodes = []
    edges = []
    shares = {0: 1.0}
    nodes.append(LogicalModule(0, "n0", ANALYSIS, rng.choice([2.0, 5.0, 10.0]),
                               contexts=4))
    for i in range(1, n):
        parent = rng.randrange(i)
        w = shares.get(parent, 0.0) * rng.uniform(0.2, 1.0)
        # Keep parent's emitted volume within its share: consume the budget.
        already = sum(wt for s, _d, wt in edges if s == parent)
        w = min(w, shares.get(parent, 0.0) - already)
        if w <= 0:
            continue
        nodes.append(LogicalModule(i, f"n{i}", rng.choice([ANALYSIS, RESPONSE]),
                                   rng.choice([2.0, 5.0, 10.0]), contexts=4))
        edges.append((parent, i, w))
        shares[i] = w
    return AnnotatedGraph(attack=ATK, nodes=nodes, edges=edges)


# Any finite float, and whole numbers off by about the slack either way.
DEMANDS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(lambda n, d: n + d, st.integers(-10**6, 10**6), st.floats(-3e-9, 3e-9)))


@given(DEMANDS)
def test_vms_is_the_ceiling_less_the_slack(demand):
    assert int(vms(demand)) == math.ceil(demand - CEIL_EPS)
    assert vms(np.array([demand]))[0] == vms(demand)


# Whole numbers k at the slack's edge, k ± CEIL_EPS, and one ulp from k and
# from those edges, plus both zeros.
EDGE_DEMANDS = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda k, off, ulps: math.nextafter(k + off, math.inf) if ulps > 0
              else math.nextafter(k + off, -math.inf) if ulps < 0 else k + off,
              st.integers(0, 10**4).map(float), st.sampled_from([0.0, CEIL_EPS, -CEIL_EPS]),
              st.integers(-1, 1)))


@settings(max_examples=300, derandomize=True)
@given(st.lists(st.one_of(EDGE_DEMANDS, DEMANDS), max_size=40))
def test_vms_on_an_array_is_vms_on_each_float(demands):
    # dsp_greedy rounds every node's demand with one call on an array; each
    # count must be the bits a call on its float gives, -0.0 included.
    assert [x.hex() for x in vms(np.array(demands, dtype=float)).tolist()] == \
        [vms(x).hex() for x in demands]


def test_physical_graph_total_is_summed_at_construction():
    pg = PhysicalGraph(0, 1, 5.0, {0: 2, 1: 0, 2: 3})
    assert pg.total_vms == 5
    assert replace(pg, counts={0: 1}).total_vms == 1
    # The stored total is neither compared nor shown.
    assert pg == PhysicalGraph(0, 1, 5.0, {0: 2, 1: 0, 2: 3})
    assert repr(pg) == "PhysicalGraph(attack_id=0, dc_id=1, traffic_gbps=5.0, " \
        "counts={0: 2, 1: 0, 2: 3})"


class TestNodeDemand:
    def test_exact_division(self):
        assert node_demand_vms(single_node(p=5.0), 0, 10.0) == 2

    def test_zero_traffic(self):
        assert node_demand_vms(single_node(), 0, 0.0) == 0

    def test_unknown_node(self):
        with pytest.raises(InputError):
            node_demand_vms(single_node(), 7, 1.0)

    @pytest.mark.parametrize("t", [-1.0, float("nan"), float("inf")])
    def test_volume_must_be_finite_and_nonnegative(self, t):
        for demand in (lambda: node_demand_vms(single_node(), 0, t),
                       lambda: monolithic_demand_vms(single_node(), t)):
            with pytest.raises(InputError, match="t_gbps must be >= 0 and finite"):
                demand()

    def test_udp_graph_against_brute_force(self):
        g = udp_like()
        t = 100.0
        for node in g.nodes:
            share = g.share(node.id)
            want = 0
            while want * node.capacity_gbps < t * share - 1e-9:
                want += 1
            assert node_demand_vms(g, node.id, t) == want

    def test_monotone_in_traffic(self):
        g = udp_like()
        prev = 0
        for t in range(0, 200, 7):
            cur = sum(node_demand_vms(g, n.id, float(t)) for n in g.nodes)
            assert cur >= prev
            prev = cur

    def test_capacity_covers_demand_minimally(self):
        g = udp_like()
        rng = random.Random(1)
        for _ in range(50):
            t = rng.uniform(0, 300)
            for n in g.nodes:
                c = node_demand_vms(g, n.id, t)
                assert c * n.capacity_gbps >= t * g.share(n.id) - 1e-6
                if c > 0:
                    assert (c - 1) * n.capacity_gbps < t * g.share(n.id) + 1e-6

    def test_total_within_fractional_slack(self):
        # Sum of per-node ceilings stays within one VM per node of the
        # fractional total.
        rng = random.Random(31)
        for _ in range(60):
            g = random_graph(rng)
            t = rng.uniform(0, 250)
            fine = sum(node_demand_vms(g, n.id, t) for n in g.nodes)
            bound = math.ceil(t * g.compute_factor) + len(g.nodes)
            assert fine <= bound


class TestShare:
    def test_equals_incoming_edge_scan(self):
        # Shares are derived once at construction; each must equal the sum
        # of the node's incoming weights in edge order, or the root's even
        # part of the external input.
        rng = random.Random(3)
        graphs = [random_graph(rng) for _ in range(200)] + list(builtin_library())
        for g in graphs:
            for n in g.nodes:
                incoming = [w for _s, d, w in g.edges if d == n.id]
                want = sequential_sum(incoming) if incoming else g.external_fraction(n.id)
                assert repr(g.share(n.id)) == repr(want)

    def test_unknown_node(self):
        with pytest.raises(InputError, match="unknown node id 7"):
            udp_like().share(7)


class TestComputeFactor:
    def test_single_node(self):
        assert single_node(p=10.0).compute_factor == pytest.approx(0.1)

    def test_two_children_hand_sum(self):
        g = AnnotatedGraph(
            attack=ATK,
            nodes=[
                LogicalModule(0, "root", ANALYSIS, 10.0, contexts=2),
                LogicalModule(1, "l", RESPONSE, 5.0, contexts=1),
                LogicalModule(2, "r", RESPONSE, 5.0, contexts=1),
            ],
            edges=[(0, 1, 0.5), (0, 2, 0.5)],
        )
        # Independent exact fold with rationals.
        expect = Fraction(1, 10) + Fraction(1, 2) / 5 + Fraction(1, 2) / 5
        assert g.compute_factor == pytest.approx(float(expect))
        assert float(expect) == pytest.approx(0.3)

    def test_halves_when_capacity_doubles(self):
        g1 = udp_like()
        doubled = AnnotatedGraph(
            attack=ATK,
            nodes=[LogicalModule(n.id, n.name, n.kind, n.capacity_gbps * 2,
                                 contexts=n.contexts, delivers=n.delivers)
                   for n in g1.nodes],
            edges=list(g1.edges),
        )
        assert doubled.compute_factor == pytest.approx(g1.compute_factor / 2)


class TestMonolithic:
    def test_single_node_degenerate(self):
        g = single_node(p=5.0)
        for t in (0.0, 3.0, 10.0, 11.0):
            assert monolithic_demand_vms(g, t) == node_demand_vms(g, 0, t)

    def test_bottleneck_drives_count(self):
        g = udp_like()
        t = 100.0
        # Brute force: replicas must cover every node's volume share.
        want = max(
            math.ceil(t * g.share(n.id) / n.capacity_gbps - 1e-9) for n in g.nodes)
        assert monolithic_demand_vms(g, t) == want

    def test_fine_grained_never_beats_free_replication(self):
        rng = random.Random(7)
        for _ in range(100):
            g = random_graph(rng)
            t = rng.uniform(0, 200)
            fine = sum(node_demand_vms(g, n.id, t) for n in g.nodes)
            mono = monolithic_demand_vms(g, t)
            assert fine <= len(g.nodes) * mono
            assert fine >= mono  # the bottleneck node alone needs that many


class TestBuiltinLibrary:
    def test_udp_flood_has_four_modules(self):
        lib = builtin_library()
        udp = [g for g in lib if g.attack.name == "udp_flood"][0]
        assert len(udp.nodes) == 4

    def test_all_graphs_validate(self):
        for g in builtin_library():
            g.validate()
            assert sum(g.external_fraction(r) for r in g.roots) == pytest.approx(1.0)

    def test_attack_ids_dense(self):
        assert [g.attack.id for g in builtin_library()] == list(range(4))

    def test_only_dns_is_bidirectional(self):
        lib = builtin_library()
        flags = {g.attack.name: g.bidirectional for g in lib}
        assert flags["dns_amplification"] is True
        assert flags["udp_flood"] is False


class TestValidation:
    @pytest.mark.parametrize("n_nodes, edges", [
        (2, [(0, 1, 0.5), (1, 0, 0.5)]),
        (1, [(0, 0, 0.5)]),
        (3, [(0, 1, 0.5), (1, 2, 0.5), (2, 1, 0.5)]),
    ], ids=["no-root", "self-loop", "behind-a-root"])
    def test_rejects_cycle(self, n_nodes, edges):
        # With no root, the acyclicity check says so first.
        with pytest.raises(InputError, match="contains a cycle"):
            AnnotatedGraph(
                attack=ATK,
                nodes=[LogicalModule(0, "a", ANALYSIS, 5.0, contexts=1),
                       LogicalModule(1, "b", RESPONSE, 5.0, contexts=1),
                       LogicalModule(2, "c", RESPONSE, 5.0, contexts=1)][:n_nodes],
                edges=edges,
            )

    def test_rejects_weight_above_one(self):
        with pytest.raises(InputError):
            AnnotatedGraph(
                attack=ATK,
                nodes=[LogicalModule(0, "a", ANALYSIS, 5.0, contexts=1),
                       LogicalModule(1, "b", RESPONSE, 5.0, contexts=1)],
                edges=[(0, 1, 1.5)],
            )

    def test_rejects_amplification(self):
        with pytest.raises(InputError):
            AnnotatedGraph(
                attack=ATK,
                nodes=[LogicalModule(0, "a", ANALYSIS, 5.0, contexts=2),
                       LogicalModule(1, "b", RESPONSE, 5.0, contexts=1),
                       LogicalModule(2, "c", RESPONSE, 5.0, contexts=1)],
                edges=[(0, 1, 0.8), (0, 2, 0.8)],
            )

    def test_accepts_dropping_node(self):
        # Children may take less than the parent received.
        AnnotatedGraph(
            attack=ATK,
            nodes=[LogicalModule(0, "a", ANALYSIS, 5.0, contexts=1),
                   LogicalModule(1, "b", RESPONSE, 5.0, contexts=1)],
            edges=[(0, 1, 0.3)],
        )


class TestConfigRoundTrip:
    def test_round_trip(self, tmp_path):
        for g in builtin_library():
            again = graph_from_config(graph_to_config(g))
            assert graph_to_config(again) == graph_to_config(g)
        # A file may list the graphs in any order; the library is in id order.
        path = tmp_path / "graphs.json"
        path.write_text(json.dumps({"graphs": [graph_to_config(g)
                                               for g in reversed(builtin_library())]}))
        assert load_library(str(path)) == builtin_library()
