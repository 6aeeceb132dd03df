import math
import random
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scrubsim.errors import InputError
from scrubsim.topology import (
    _adjacency,
    _routes,
    CostParams,
    Datacenter,
    Pop,
    Rack,
    Server,
    Topology,
    generate_topology,
    path_cost_comparison,
    save_topology,
    load_topology,
    topology_from_config,
    topology_to_config,
)


def neighbour_sets(n, links):
    adj = {i: set() for i in range(n)}
    for u, v, _cap in links:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def per_pair_bfs_path(adj, src, dst):
    """Reference: the one-search-per-(pop, datacenter) shortest path that
    `_routes` must reproduce, ties by node id."""
    if src == dst:
        return []
    prev = {src: src}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        if u == dst:
            break
        for v in sorted(adj[u]):
            if v not in prev:
                prev[v] = u
                queue.append(v)
    if dst not in prev:
        raise InputError(f"no backbone path between {src} and {dst}")
    path = []
    node = dst
    while node != src:
        u = prev[node]
        path.append((min(u, node), max(u, node)))
        node = u
    path.reverse()
    return path


@st.composite
def backbones(draw):
    """A random backbone (possibly disconnected, possibly with no links) and
    the attach pops of 1-4 datacenters."""
    n = draw(st.integers(1, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    density = draw(st.sampled_from((0.0, 0.15, 0.3, 0.6, 1.0)))
    picks = draw(st.lists(st.floats(0, 1), min_size=len(pairs), max_size=len(pairs)))
    links = [(u, v, 100.0) for (u, v), x in zip(pairs, picks) if x < density]
    draw(st.randoms()).shuffle(links)
    attach = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
    return n, links, attach


def triangle_topology():
    pops = [Pop(0, "x"), Pop(1, "y"), Pop(2, "z")]
    racks = (Rack(0, (Server(0, 10),)),)
    dcs = [
        Datacenter(id=0, link_capacity_gbps=10.0, racks=racks, attach_pop=0),
        Datacenter(id=1, link_capacity_gbps=10.0, racks=racks, attach_pop=2),
    ]
    links = [(0, 1, 100.0), (1, 2, 100.0), (0, 2, 100.0)]
    paths = {(e, d): [] for e in range(3) for d in range(2)}
    return Topology(pops=pops, datacenters=dcs, latency=[[0, 10], [10, 10], [10, 0]],
                    backbone_links=links, paths=paths)


class TestGenerateTopology:
    def test_paper_scale_dc_count_and_slots(self):
        topo = generate_topology(196, 4000, seed=7)
        assert len(topo.datacenters) == 10
        for dc in topo.datacenters:
            assert dc.compute_capacity == 4000
            assert sum(s.vm_slots for r in dc.racks for s in r.servers) == 4000

    def test_min_clamp_single_dc(self):
        topo = generate_topology(2, 10, seed=1)
        assert len(topo.datacenters) == 1

    def test_deterministic_per_seed(self):
        a = generate_topology(100, 400, seed=5)
        b = generate_topology(100, 400, seed=5)
        assert topology_to_config(a) == topology_to_config(b)
        c = generate_topology(100, 400, seed=6)
        assert topology_to_config(a) != topology_to_config(c)

    def test_latency_matches_independent_bfs(self):
        topo = generate_topology(40, 100, seed=3)
        adj = neighbour_sets(len(topo.pops), topo.backbone_links)
        for d, dc in enumerate(topo.datacenters):
            for e in range(len(topo.pops)):
                hops = len(per_pair_bfs_path(adj, e, dc.attach_pop))
                assert topo.latency[e][d] == pytest.approx(hops * 10.0)

    def test_latency_nonnegative_finite(self):
        topo = generate_topology(30, 50, seed=11)
        for row in topo.latency:
            for v in row:
                assert v >= 0 and math.isfinite(v)


class TestLatencyCost:
    def test_colocated_dc_zero(self):
        topo = generate_topology(30, 50, seed=2)
        d = 0
        e = topo.datacenters[d].attach_pop
        assert topo.latency[e][d] == 0.0


class TestPathCostComparison:
    def test_two_flow_detour_example(self):
        topo = triangle_topology()
        # flow1 already passes the chokepoint; flow2 must detour through it.
        central, distributed = path_cost_comparison(topo, [(0, 1), (2, 1)], chokepoint=0)
        assert (central, distributed) == (3, 2)

    def test_chokepoint_on_every_shortest_path(self):
        topo = triangle_topology()
        central, distributed = path_cost_comparison(topo, [(0, 1)], chokepoint=0)
        assert central == distributed

    def test_empty_flows_rejected(self):
        with pytest.raises(InputError):
            path_cost_comparison(triangle_topology(), [], chokepoint=0)

    def test_disconnected_node_rejected(self):
        topo = triangle_topology()
        topo.pops.append(Pop(3, "island"))
        with pytest.raises(InputError):
            path_cost_comparison(topo, [(3, 0)], chokepoint=0)

    def test_random_flows_against_path_enumeration(self):
        # Exhaustive simple-path enumeration on a small random graph.
        rng = random.Random(42)
        n = 7
        links = [(u, v, 100.0) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.45]
        links += [(i, i + 1, 100.0) for i in range(n - 1)
                  if not any({u, v} == {i, i + 1} for u, v, _ in links)]
        adj = neighbour_sets(n, links)

        def all_paths_min(src, dst):
            best = math.inf
            stack = [(src, {src}, 0)]
            while stack:
                node, seen, hops = stack.pop()
                if node == dst:
                    best = min(best, hops)
                    continue
                for nb in adj[node]:
                    if nb not in seen:
                        stack.append((nb, seen | {nb}, hops + 1))
            return best

        pops = [Pop(i, f"p{i}") for i in range(n)]
        racks = (Rack(0, (Server(0, 1),)),)
        dcs = [Datacenter(0, 1.0, racks, attach_pop=0)]
        topo = Topology(pops=pops, datacenters=dcs,
                        latency=[[0.0]] * n, backbone_links=links,
                        paths={(e, 0): [] for e in range(n)})
        flows = [(rng.randrange(n), rng.randrange(n)) for _ in range(10)]
        choke = rng.randrange(n)
        central, distributed = path_cost_comparison(topo, flows, choke)
        assert distributed <= central
        expect_distributed = sum(all_paths_min(s, t) for s, t in flows)
        expect_central = sum(all_paths_min(s, choke) + all_paths_min(choke, t)
                             for s, t in flows)
        assert distributed == expect_distributed
        assert central == expect_central


class TestRoutes:
    @settings(max_examples=300)
    @given(backbones())
    def test_matches_per_pair_searches(self, backbone):
        n, links, attach = backbone
        sets = neighbour_sets(n, links)
        adj = _adjacency(n, links, attach)
        cfg = {"pops": [f"p{i}" for i in range(n)], "latency": "derive",
               "dcs": [{"link_capacity_gbps": 10, "racks": [[1]], "attach_pop": pop}
                       for pop in attach],
               "links": [list(link) for link in links]}
        try:
            want_paths = {(e, d): per_pair_bfs_path(sets, e, pop)
                          for d, pop in enumerate(attach) for e in range(n)}
        except InputError:
            with pytest.raises(InputError):
                _routes(adj, attach)
            with pytest.raises(InputError):
                topology_from_config(cfg)
            return
        hops, paths = _routes(adj, attach)
        # A hop count is the length of a shortest path.
        assert hops == [[len(want_paths[(e, d)]) for d in range(len(attach))]
                        for e in range(n)]
        assert paths == want_paths
        topo = topology_from_config(cfg)
        assert topo.latency == [[h * 10.0 for h in row] for row in hops]
        assert topo.paths == want_paths

    def test_neighbours_visited_in_id_order(self):
        # Two equal-length paths 0-1-3 and 0-2-3: the lower id wins the tie
        # whatever order the links come in.
        links = [(2, 3, 1.0), (0, 2, 1.0), (1, 3, 1.0), (0, 1, 1.0)]
        hops, paths = _routes(_adjacency(4, links, [3]), [3])
        assert hops[0] == [2]
        assert paths[(0, 0)] == [(0, 1), (1, 3)]
        assert paths[(3, 0)] == []


class TestDerivedLatency:
    @staticmethod
    def assert_derived_once(topo):
        twin = topology_from_config(topology_to_config(topo))
        before = topology_to_config(topo)
        fresh = np.asarray(topo.latency, dtype=float).reshape(len(topo.pops),
                                                              len(topo.datacenters))
        ranked = np.argsort(fresh, axis=1, kind="stable")
        for got, want in ((topo.latency_array, fresh), (topo.latency_ranking, ranked)):
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape,
                                                             want.tobytes())
            with pytest.raises(ValueError):
                got[0, 0] = 1
        assert topo.latency_array is topo.latency_array
        assert topo.latency_ranking is topo.latency_ranking
        assert topology_to_config(topo) == before
        assert topo == twin

    @pytest.mark.parametrize("n, seed", [(2, 0), (20, 9), (60, 3), (196, 1)])
    def test_generated(self, n, seed):
        # Hop-count latencies tie often, so the ranking's tie order shows.
        self.assert_derived_once(generate_topology(n, 100, seed=seed))

    @settings(max_examples=100)
    @given(data=st.data())
    def test_from_config(self, data):
        n_e, n_d = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 5))
        cfg = {
            "pops": [f"p{e}" for e in range(n_e)],
            "dcs": [{"link_capacity_gbps": 10, "racks": [[4]], "attach_pop": 0}] * n_d,
            "latency": [[data.draw(st.sampled_from([0.0, 2.5, 7.3, 10.0, 10.0]))
                         for _d in range(n_d)] for _e in range(n_e)],
        }
        self.assert_derived_once(topology_from_config(cfg))


class TestCostParams:
    def test_inter_must_dominate_intra(self):
        with pytest.raises(InputError):
            CostParams(intra_unit_cost=5.0, inter_unit_cost=1.0)

    def test_beta_range(self):
        with pytest.raises(InputError):
            CostParams(beta=0.0)
        CostParams(beta=1.0)


class TestConfigRoundTrip:
    def test_save_load(self, tmp_path):
        topo = generate_topology(20, 64, seed=9)
        path = tmp_path / "topo.json"
        save_topology(topo, str(path))
        loaded = load_topology(str(path))
        assert topology_to_config(loaded) == topology_to_config(topo)
        # 64 slots over 100 servers leave some with none, which stays legal.
        assert 0 in loaded.datacenters[0].server_layout[1]

    def test_derived_layout_leaves_equality_and_config_alone(self):
        topo = generate_topology(20, 64, seed=9)
        twin = topology_from_config(topology_to_config(topo))
        before = topology_to_config(topo)
        for dc in topo.datacenters:
            _servers, slots, _spans = dc.server_layout
            assert dc.compute_capacity == sum(slots) == 64
        assert topology_to_config(topo) == before
        assert topo.datacenters == twin.datacenters
        assert [hash(dc) for dc in topo.datacenters] == [hash(dc) for dc in twin.datacenters]

    def test_server_layout_orders_racks_and_servers_by_id(self):
        racks = (Rack(1, (Server(3, 2), Server(2, 5))), Rack(0, (Server(0, 1),)))
        dc = Datacenter(id=0, link_capacity_gbps=1.0, racks=racks, attach_pop=0)
        assert dc.server_layout == (((0, 0), (1, 2), (1, 3)), (1, 5, 2),
                                    {0: range(0, 1), 1: range(1, 3)})
        assert dc.compute_capacity == 8

    def test_derive_latency(self):
        cfg = {
            "pops": ["a", "b", "c"],
            "dcs": [{"link_capacity_gbps": 10, "racks": [[4, 4]], "attach_pop": 2}],
            "latency": "derive",
            "links": [[0, 1, 100], [1, 2, 100]],
        }
        topo = topology_from_config(cfg)
        assert topo.latency == [[20.0], [10.0], [0.0]]

    def test_malformed_config(self):
        with pytest.raises(InputError):
            topology_from_config({"pops": ["a"]})

    @pytest.mark.parametrize("latency", ["derive", [[0.0], [10.0], [20.0]]])
    @pytest.mark.parametrize("links, attach_pop, message", [
        ([[0, 5, 100]], 0, r"backbone link \(0, 5\)"),
        ([[0, 3, 100]], 0, r"backbone link \(0, 3\)"),
        ([[-1, 1, 100]], 0, r"backbone link \(-1, 1\)"),
        ([[0, 1, 100], [1, 2, 100]], 9, "attach_pop 9"),
        ([[0, 1, 100], [1, 2, 100]], 3, "attach_pop 3"),
        ([[0, 1, 100], [1, 2, 100]], -1, "attach_pop -1"),
    ])
    def test_node_outside_pop_range(self, latency, links, attach_pop, message):
        cfg = {
            "pops": ["a", "b", "c"],
            "dcs": [{"link_capacity_gbps": 10, "racks": [[4]], "attach_pop": attach_pop}],
            "latency": latency,
            "links": links,
        }
        with pytest.raises(InputError, match=message):
            topology_from_config(cfg)

    def test_path_cost_comparison_rejects_link_outside_pop_range(self):
        topo = triangle_topology()
        topo.backbone_links.append((2, 7, 100.0))
        with pytest.raises(InputError, match=r"backbone link \(2, 7\)"):
            path_cost_comparison(topo, [(0, 1)], chokepoint=0)

    def test_disconnected_derive_rejected(self):
        cfg = {
            "pops": ["a", "b", "c"],
            "dcs": [{"link_capacity_gbps": 10, "racks": [[4]], "attach_pop": 0}],
            "latency": "derive",
            "links": [[0, 1, 100]],
        }
        with pytest.raises(InputError, match="pop 2 has no backbone path to dc 0"):
            topology_from_config(cfg)

    def test_no_backbone_explicit_latency_keeps_empty_paths(self):
        cfg = {
            "pops": ["a", "b"],
            "dcs": [{"link_capacity_gbps": 10, "racks": [[4]], "attach_pop": 1}],
            "latency": [[5.0], [0.0]],
        }
        topo = topology_from_config(cfg)
        assert topo.paths == {(0, 0): [], (1, 0): []}
