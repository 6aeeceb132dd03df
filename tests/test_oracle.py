import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scrubsim import oracle
from scrubsim.defense_graphs import (
    ANALYSIS,
    AnnotatedGraph,
    AttackType,
    LogicalModule,
    PhysicalGraph,
    node_demand_vms,
)
from scrubsim.errors import InputError, OracleSizeError, PlacementError
from scrubsim.oracle import (
    ComparisonRow,
    _feasible_tuples,
    _largest_last,
    _max_handled_tables,
    _min_cost_transport,
    _optimal_dsc,
    _preset_graph,
    _spreads,
    check_instance,
    oracle_comparison,
    oracle_exact,
    gap_summary,
    random_tiny_instance,
)
from scrubsim.resource_manager import dsp_greedy, evaluate_cost, place_all, ssp_greedy
from scrubsim.topology import CostParams
from reference import make_dc, make_topo, pair_units, units_cost

ATK = AttackType(0, "atk0")


def one_node_lib(p=10.0):
    g = AnnotatedGraph(attack=ATK,
                       nodes=[LogicalModule(0, "m0", ANALYSIS, p, contexts=1)],
                       edges=[])
    return (g,)


def _splits(units: int, n: int):
    """Every way to split `units` over `n` supplies."""
    if n == 1:
        yield (units,)
        return
    for first in range(units + 1):
        for rest in _splits(units - first, n - 1):
            yield (first, *rest)


@st.composite
def transport_cases(draw):
    """1-3 supplies of 0-3 units, 1-3 demands within their total, and
    integer costs 1-9."""
    supplies = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    demands, left = [], sum(supplies)
    for _ in range(draw(st.integers(1, 3))):
        demands.append(draw(st.integers(0, left)))
        left -= demands[-1]
    cost = [[float(draw(st.integers(1, 9))) for _ in demands] for _ in supplies]
    return supplies, demands, cost


class TestTransport:
    @settings(max_examples=150)
    @given(transport_cases())
    @example(([2, 3], [1, 3], [[1.0, 4.0], [2.0, 1.5]]))
    def test_against_brute_force(self, case):
        supplies, demands, cost = case
        value, flow = _min_cost_transport(supplies, demands, cost)
        # Enumerate every integral flow meeting the demands within the supplies.
        best = math.inf
        for cols in itertools.product(*(_splits(k, len(supplies)) for k in demands)):
            if all(sum(col[e] for col in cols) <= s for e, s in enumerate(supplies)):
                best = min(best, sum(col[e] * cost[e][d] for d, col in enumerate(cols)
                                     for e in range(len(supplies))))
        # Whole and half costs make every sum exact.
        assert value == best
        assert all(x >= 0 for row in flow for x in row)
        assert [sum(row[d] for row in flow) for d in range(len(demands))] == demands
        assert all(sum(row) <= s for row, s in zip(flow, supplies))
        assert sum(x * c for row, cost_row in zip(flow, cost)
                   for x, c in zip(row, cost_row)) == value

    def test_zero_demand(self):
        value, flow = _min_cost_transport([3], [0], [[1.0]])
        assert value == 0.0 and flow == [[0]]

    def test_demand_beyond_supply_refused(self):
        # Every supply reaches every demand, so supply is the one limit.
        with pytest.raises(OracleSizeError, match="transport demand exceeds supply"):
            _min_cost_transport([2, 1], [2, 2], [[1.0, 1.0], [1.0, 1.0]])


class TestOracleExact:
    def test_unconstrained_matches_greedy(self):
        lib = one_node_lib()
        topo = make_topo(1, [make_dc(999.0, [[99]])], [[3.0]])
        traffic = np.array([[10.0]])
        dsp = dsp_greedy(topo, traffic, lib)
        ssps = place_all(topo, dsp, lib)
        params = CostParams()
        res = oracle_exact(topo, traffic, lib, params)
        assert res.handled == pytest.approx(10.0)
        assert res.objective == pytest.approx(evaluate_cost(dsp, ssps, params))

    def test_capacity_split_oracle_not_worse(self):
        lib = one_node_lib()
        topo = make_topo(1, [make_dc(6.0, [[99]]), make_dc(99.0, [[99]])],
                         [[1.0, 5.0]])
        traffic = np.array([[10.0]])
        dsp = dsp_greedy(topo, traffic, lib)
        ssps = place_all(topo, dsp, lib)
        params = CostParams()
        res = oracle_exact(topo, traffic, lib, params)
        assert res.handled == pytest.approx(10.0 - dsp.t_left)
        assert res.objective <= evaluate_cost(dsp, ssps, params) + 1e-9

    def test_finer_delta_never_worse(self):
        lib = one_node_lib()
        topo = make_topo(1, [make_dc(7.0, [[99]]), make_dc(99.0, [[99]])],
                         [[1.0, 4.0]])
        traffic = np.array([[20.0]])
        coarse = oracle_exact(topo, traffic, lib, CostParams(), delta=0.05)
        fine = oracle_exact(topo, traffic, lib, CostParams(), delta=0.025)
        assert fine.handled >= coarse.handled - 1e-9
        if fine.handled == pytest.approx(coarse.handled):
            assert fine.objective <= coarse.objective + 1e-9

    def test_size_bounds_enforced(self):
        lib = one_node_lib()
        dcs = [make_dc(99.0, [[99]])]
        topo = make_topo(4, dcs, [[1.0]] * 4)
        with pytest.raises(OracleSizeError):
            oracle_exact(topo, np.full((4, 1), 20.0), lib, CostParams())

    @pytest.mark.parametrize("n_pops, dcs, lib, delta, message", [
        (1, [make_dc(99.0, [[99]])] * 4, one_node_lib(), 0.05, "4 datacenters > 3"),
        (1, [make_dc(99.0, [[99]])], one_node_lib() * 3, 0.05, "3 attacks > 2"),
        (1, [make_dc(99.0, [[99]])],
         (AnnotatedGraph(attack=ATK, edges=[],
                         nodes=[LogicalModule(i, f"m{i}", ANALYSIS, 10.0) for i in range(4)]),),
         0.05, "graph atk0 has 4 nodes > 3"),
        (1, [make_dc(99.0, [[1] * 5, [1] * 4])], one_node_lib(), 0.05,
         "dc 0 has 9 servers > 8"),
        (3, [make_dc(99.0, [[99]])], one_node_lib() * 2, 0.01, "600 volume units > 400"),
    ])
    def test_each_size_bound_enforced(self, n_pops, dcs, lib, delta, message):
        topo = make_topo(n_pops, dcs, [[1.0] * len(dcs)] * n_pops)
        traffic = np.full((n_pops, len(lib)), 20.0)
        with pytest.raises(OracleSizeError, match=f"^invalid oracle instance: {message}$"):
            check_instance(delta, topo, traffic, lib)

    def test_unequal_cells_refused(self):
        lib = one_node_lib()
        topo = make_topo(2, [make_dc(99.0, [[99]])], [[1.0], [1.0]])
        with pytest.raises(OracleSizeError):
            oracle_exact(topo, np.array([[20.0], [10.0]]), lib, CostParams())

    def test_zero_traffic(self):
        lib = one_node_lib()
        topo = make_topo(1, [make_dc(99.0, [[99]])], [[1.0]])
        res = oracle_exact(topo, np.array([[0.0]]), lib, CostParams())
        assert res.handled == 0.0 and res.objective == 0.0

    @pytest.mark.parametrize("delta", [0.0, math.nan, 0.3])
    def test_malformed_delta_is_not_called_too_large(self, delta):
        lib = one_node_lib()
        topo = make_topo(1, [make_dc(99.0, [[99]])], [[1.0]])
        with pytest.raises(OracleSizeError,
                           match=r"^invalid oracle instance: delta .* must be 1/k") as info:
            oracle_exact(topo, np.array([[20.0]]), lib, CostParams(), delta=delta)
        assert "too large" not in str(info.value)

    def test_deterministic(self):
        topo, traffic, lib, params = random_tiny_instance(11)
        a = oracle_exact(topo, traffic, lib, params)
        b = oracle_exact(topo, traffic, lib, params)
        assert a.objective == b.objective
        assert np.array_equal(a.volumes, b.volumes)


def reference_max_handled(tuples_by_dc, d, rem, memo):
    """The recursive memo the suffix tables replaced: the most units
    datacenters d.. take from the remaining supply rem."""
    if d == len(tuples_by_dc):
        return 0
    got = memo.get((d, rem))
    if got is not None:
        return got
    best = 0
    for combo in tuples_by_dc[d]:
        if all(v <= r for v, r in zip(combo, rem)):
            best = max(best, sum(combo) + reference_max_handled(
                tuples_by_dc, d + 1, tuple(r - v for r, v in zip(rem, combo)), memo))
    memo[(d, rem)] = best
    return best


def largest_last(tuples):
    """A downward-closed tuple list as ``_max_handled_tables`` takes it: each
    prefix with its largest last coordinate."""
    last = {}
    for combo in tuples:
        last[combo[:-1]] = max(last.get(combo[:-1], 0), combo[-1])
    return last


def assert_tables_match_reference(tuples_by_dc, supply, tables):
    assert len(tables) == len(tuples_by_dc) + 1
    memo = {}
    for d, table in enumerate(tables):
        assert table.shape == tuple(s + 1 for s in supply)
        for rem in itertools.product(*(range(s + 1) for s in supply)):
            assert table[rem] == reference_max_handled(tuples_by_dc, d, rem, memo), (d, rem)


@st.composite
def downward_closed_tuple_sets(draw):
    """1-2 attacks, 1-3 datacenters; each datacenter's tuples are every grid
    point under a few drawn corners, in lexicographic order, like the link-
    and compute-bounded sets the oracle builds."""
    n_a = draw(st.integers(1, 2))
    n_d = draw(st.integers(1, 3))
    supply = tuple(draw(st.lists(st.integers(0, 6), min_size=n_a, max_size=n_a)))
    point = st.tuples(*(st.integers(0, s) for s in supply))
    tuples_by_dc = []
    for _ in range(n_d):
        corners = draw(st.lists(point, min_size=0, max_size=3))
        tuples_by_dc.append([
            c for c in itertools.product(*(range(s + 1) for s in supply))
            if any(all(v <= m for v, m in zip(c, corner)) for corner in corners)])
    return tuples_by_dc, supply


class TestMaxHandledTables:
    @settings(max_examples=200)
    @given(downward_closed_tuple_sets())
    def test_matches_recursive_memo_at_every_remaining_supply(self, case):
        tuples_by_dc, supply = case
        tables = _max_handled_tables([largest_last(t) for t in tuples_by_dc], supply)
        assert_tables_match_reference(tuples_by_dc, supply, tables)

    def test_uneven_attacks_and_datacenters(self):
        # Datacenter 0 takes at most 2 of attack 0 or 1 of attack 1; datacenter
        # 1 takes at most 3 units in all, but only of attack 1.
        tuples_by_dc = [[(0, 0), (0, 1), (1, 0), (2, 0)],
                        [(0, 0), (0, 1), (0, 2), (0, 3)]]
        tables = _max_handled_tables([largest_last(t) for t in tuples_by_dc], (3, 2))
        assert tables[0][3, 2] == 4  # 2 of attack 0 at dc0, 2 of attack 1 at dc1
        assert tables[1][3, 2] == 2
        assert tables[0][0, 0] == 0
        assert not tables[2].any()
        assert_tables_match_reference(tuples_by_dc, (3, 2), tables)


def product_filter(link_units, slots, supply, q, factors):
    """The enumeration ``_largest_last`` replaced: every grid tuple within
    the supply, kept when its units fit the link and its VM slots fit."""
    feas = []
    for combo in itertools.product(*(range(min(link_units, s) + 1) for s in supply)):
        if sum(combo) > link_units:
            continue
        if sum(v * q * factors[a] for a, v in enumerate(combo)) > slots + 1e-9:
            continue
        feas.append(combo)
    return feas


@st.composite
def tuple_capacities(draw):
    """1-2 attacks with random supplies, grid unit q and compute factors.
    Link units and slots are drawn at random, or on the boundary of one
    drawn tuple: the link exactly filled by it, and its slots exactly
    ``sum(v * q * factor)``, or that within a few 1e-9 either way."""
    n_a = draw(st.integers(1, 2))
    supply = tuple(draw(st.lists(st.integers(0, 20), min_size=n_a, max_size=n_a)))
    q = draw(st.sampled_from([0.1, 0.25, 1.0, 1.25, 2.0]) | st.floats(0.01, 5.0))
    factors = draw(st.lists(st.sampled_from([0.1, 0.2, 0.25, 0.5, 1.0]) | st.floats(0.0, 3.0),
                            min_size=n_a, max_size=n_a))
    edge = tuple(draw(st.integers(0, s)) for s in supply)
    link_units = draw(st.just(sum(edge)) | st.integers(0, 45))
    on_edge = sum(v * q * factors[a] for a, v in enumerate(edge))
    slots = draw(st.sampled_from([0.0, 1e-9, -1e-9, 2e-9, -2e-9]).map(lambda e: on_edge + e)
                 | st.integers(0, 40).map(float) | st.floats(0.0, 60.0))
    return link_units, slots, supply, q, factors


class TestLargestLast:
    @settings(max_examples=400)
    @given(tuple_capacities())
    def test_lists_the_product_filter_tuples_in_order(self, case):
        assert _feasible_tuples(_largest_last(*case)) == product_filter(*case)

    def test_boundaries(self):
        # Two attacks at 0.1 and 0.5 slots per Gbps, q = 1: the slots of
        # (3, 2) are exactly 1.3, and (3, 2) fills 5 link units.
        for link_units, slots in [(5, 1.3), (5, 99.0), (99, 1.3)]:
            case = (link_units, slots, (4, 3), 1.0, [0.1, 0.5])
            got = _feasible_tuples(_largest_last(*case))
            assert (3, 2) in got
            assert got == product_filter(*case)
        assert _largest_last(5, 1.3, (4, 3), 1.0, [0.1, 0.5]) == {
            (0,): 2, (1,): 2, (2,): 2, (3,): 2, (4,): 1}
        assert _largest_last(0, 0.0, (4,), 1.0, [0.5]) == {(): 0}


class TestDownwardClosedTuples:
    def test_every_decrement_of_a_built_tuple_is_built(self, monkeypatch):
        # _max_handled_tables fills one pass per tuple prefix, which is exact
        # only on downward-closed tuple sets; the sets oracle_exact builds on
        # criterion 1's instances must be.
        calls = []

        def spy(last_by_dc, supply):
            calls.append([_feasible_tuples(last) for last in last_by_dc])
            return _max_handled_tables(last_by_dc, supply)

        monkeypatch.setattr(oracle, "_max_handled_tables", spy)
        for seed in range(20_000, 20_100):
            topo, traffic, lib, params = random_tiny_instance(seed)
            oracle_exact(topo, traffic, lib, params)
        assert len(calls) == 100
        for tuples_by_dc in calls:
            for feas in tuples_by_dc:
                members = set(feas)
                assert (0,) * len(feas[0]) in members
                for combo in feas:
                    for a, v in enumerate(combo):
                        if v:
                            assert combo[:a] + (v - 1,) + combo[a + 1:] in members


DSC_PARAMS = CostParams(alpha=1.0, intra_unit_cost=1.0, inter_unit_cost=5.0, beta=1.0)


def brute_force_dsc(dc, graphs, vols, q, params):
    """Cheapest whole-VM placement, over every way to put every group's VMs
    on the servers within their slots, each priced by `pair_units` from its
    VMs' (rack, server) locations."""
    servers, slots, _spans = dc.server_layout
    groups = [(a, n.id, c) for a, g in enumerate(graphs) if vols[a] * q > 1e-9
              for n in g.nodes for c in [node_demand_vms(g, n.id, vols[a] * q)] if c]

    def price(where):
        total = 0.0
        for a, g in enumerate(graphs):
            counts, locations = {}, {}
            for (ga, i), combo in where.items():
                if ga == a:
                    at = [servers[pos] for pos, c in enumerate(combo) for _ in range(c)]
                    counts[i] = len(at)
                    locations.update(((i, k), loc) for k, loc in enumerate(at))
            total += units_cost(pair_units(g, vols[a] * q, counts, locations), params)
        return total

    best = math.inf

    def place(k, free, where):
        nonlocal best
        if k == len(groups):
            best = min(best, price(where))
            return
        a, i, count = groups[k]
        for combo in itertools.product(*(range(f + 1) for f in free)):
            if sum(combo) == count:
                where[(a, i)] = combo
                place(k + 1, tuple(f - c for f, c in zip(free, combo)), where)
                del where[(a, i)]

    place(0, slots, {})
    return best


def greedy_dsc(dc, graphs, vols, q, params):
    """What the server-selection greedy pays for the same demand, placing the
    graphs in attack order on one shared list of free slots (inf if it
    fails)."""
    free = list(dc.server_layout[1])
    total = 0.0
    for a, g in enumerate(graphs):
        vol = vols[a] * q
        if vol > 1e-9:
            counts = {n.id: node_demand_vms(g, n.id, vol) for n in g.nodes}
            pg = PhysicalGraph(g.attack.id, 0, vol, counts)
            try:
                total += ssp_greedy(dc, pg, g, free).dc_cost(params)
            except PlacementError:
                return math.inf
    return total


# (racks, servers per rack, slots per server, graph shapes, grid units per
# graph); q = 1 Gbps per unit and every node handles 2 Gbps per VM.
DSC_CASES = [
    (1, 1, 8, ["chain"], (6,)),
    (1, 2, 3, ["chain"], (6,)),
    (2, 1, 3, ["chain"], (6,)),
    (2, 2, 3, ["chain"], (10,)),
    (1, 2, 4, ["branch"], (6,)),
    (2, 1, 4, ["branch"], (8,)),
    (2, 2, 3, ["branch"], (8,)),
    (2, 2, 2, ["branch"], (6,)),
    (2, 2, 3, ["chain", "branch"], (4, 4)),
    (2, 2, 2, ["chain", "chain"], (2, 4)),
    (1, 2, 4, ["branch", "chain"], (4, 0)),
]


def dsc_case(racks, per_rack, slots, shapes):
    dc = make_dc(999.0, [[slots] * per_rack] * racks)
    graphs = [_preset_graph(AttackType(a, f"atk{a}"), shape, 1.0)
              for a, shape in enumerate(shapes)]
    return dc, graphs


class TestOptimalDsc:
    @pytest.mark.parametrize("racks, per_rack, slots, shapes, vols", DSC_CASES)
    def test_matches_brute_force_and_never_exceeds_greedy(self, racks, per_rack, slots,
                                                         shapes, vols):
        dc, graphs = dsc_case(racks, per_rack, slots, shapes)
        got, proven = _optimal_dsc(dc, 0, graphs, vols, 1.0, DSC_PARAMS)
        assert proven
        assert got == pytest.approx(brute_force_dsc(dc, graphs, vols, 1.0, DSC_PARAMS),
                                    rel=1e-9, abs=1e-12)
        assert got <= greedy_dsc(dc, graphs, vols, 1.0, DSC_PARAMS)

    def test_zero_weight_edge_costs_nothing(self):
        # Both ends of the leaves' zero-weight edge hold VMs; the edge adds
        # no pair cost.
        dc, [branch] = dsc_case(2, 2, 3, ["branch"])
        g = AnnotatedGraph(attack=branch.attack, nodes=branch.nodes,
                           edges=[*branch.edges, (1, 2, 0.0)])
        got, proven = _optimal_dsc(dc, 0, [g], (8,), 1.0, DSC_PARAMS)
        assert proven
        assert got == pytest.approx(brute_force_dsc(dc, [g], (8,), 1.0, DSC_PARAMS),
                                    rel=1e-9, abs=1e-12)
        assert got == _optimal_dsc(dc, 0, [branch], (8,), 1.0, DSC_PARAMS)[0]

    def test_spreads_over_one_server(self):
        # No placement search spreads over one server: every placement there
        # costs 0, which the greedy incumbent already pays.
        assert list(_spreads(3, (5,))) == [((0, 0, 0), (2,))]
        assert list(_spreads(6, (5,))) == []

    def test_search_beats_the_greedy_somewhere(self):
        # Otherwise the cases above would not tell the search from its seed.
        assert any(
            _optimal_dsc(dc, 0, graphs, vols, 1.0, DSC_PARAMS)[0] + 1e-9
            < greedy_dsc(dc, graphs, vols, 1.0, DSC_PARAMS)
            for *shape, vols in DSC_CASES for dc, graphs in [dsc_case(*shape)])

    @pytest.mark.parametrize("racks, per_rack, slots, shapes, vols", DSC_CASES)
    def test_exhausted_node_budget_returns_the_greedy(self, monkeypatch, racks, per_rack,
                                                     slots, shapes, vols):
        monkeypatch.setattr(oracle, "_PLACEMENT_NODE_BUDGET", 0)
        dc, graphs = dsc_case(racks, per_rack, slots, shapes)
        cost, proven = _optimal_dsc(dc, 0, graphs, vols, 1.0, DSC_PARAMS)
        assert cost == greedy_dsc(dc, graphs, vols, 1.0, DSC_PARAMS)
        # A search cut at its first node proves only a free placement optimal.
        assert proven == (cost == 0.0)

    @pytest.mark.parametrize("budget", [3, 40, 500_000])
    def test_streamed_spreads_search_like_memoised_ones(self, monkeypatch, budget):
        # Spread lists that would overfill the memo are streamed; the search
        # must visit the same nodes either way, so a cut-off search stops at
        # the same place.
        monkeypatch.setattr(oracle, "_PLACEMENT_NODE_BUDGET", budget)

        def run_all():
            return [_optimal_dsc(dc, 0, graphs, vols, 1.0, DSC_PARAMS)
                    for *shape, vols in DSC_CASES for dc, graphs in [dsc_case(*shape)]]

        memoised = run_all()
        monkeypatch.setattr(oracle, "_SPREAD_MEMO_ENTRIES", 0)
        assert run_all() == memoised

    def test_no_demand_and_too_much_demand(self):
        dc, graphs = dsc_case(1, 2, 2, ["chain"])
        assert _optimal_dsc(dc, 0, graphs, (0,), 1.0, DSC_PARAMS) == (0.0, True)
        # Two nodes of 3 VMs each need 6 slots; the datacenter has 4.
        assert _optimal_dsc(dc, 0, graphs, (6,), 1.0, DSC_PARAMS) == (math.inf, True)


class TestAgainstNaiveEnumeration:
    def test_matches_direct_grid_search(self, monkeypatch):
        # Single-module graph (placement cost is zero by construction), two
        # pops, two datacenters, delta=0.25: small enough to enumerate every
        # grid assignment directly and replay the lexicographic objective.
        lib = one_node_lib(p=10.0)
        topo = make_topo(2, [make_dc(6.0, [[99]]), make_dc(99.0, [[99]])],
                         [[1.0, 5.0], [4.0, 2.0]])
        traffic = np.array([[8.0], [8.0]])
        calls = []

        def spy(last_by_dc, supply):
            tables = _max_handled_tables(last_by_dc, supply)
            calls.append(([_feasible_tuples(last) for last in last_by_dc], supply, tables))
            return tables

        monkeypatch.setattr(oracle, "_max_handled_tables", spy)
        res = oracle_exact(topo, traffic, lib, CostParams(), delta=0.25)

        q = 0.25 * 8.0
        best = None  # (handled, -cost) lexicographic max
        for u00 in range(5):
            for u01 in range(5 - u00):
                for u10 in range(5):
                    for u11 in range(5 - u10):
                        vol0 = (u00 + u10) * q
                        vol1 = (u01 + u11) * q
                        if vol0 > 6.0 + 1e-9 or vol1 > 99.0:
                            continue
                        if vol0 * 0.1 > 99 or vol1 * 0.1 > 99:
                            continue
                        handled = vol0 + vol1
                        cost = q * (u00 * 1.0 + u01 * 5.0 + u10 * 4.0 + u11 * 2.0)
                        key = (round(handled, 9), -round(cost, 9))
                        if best is None or key > best:
                            best = key
        want_handled, want_cost = best[0], -best[1]
        assert res.handled == pytest.approx(want_handled)
        assert res.objective == pytest.approx(want_cost)

        # h_star: 8 supply units, at most 3 of them (6 Gbps) into dc0.
        [(tuples_by_dc, supply, tables)] = calls
        assert supply == (8,)
        assert tuples_by_dc == [[(u,) for u in range(4)], [(u,) for u in range(9)]]
        assert tables[0][supply] == round(want_handled / q) == 8
        assert_tables_match_reference(tuples_by_dc, supply, tables)


class TestComparisonRunner:
    def test_rows_and_handled_equality(self):
        rows = oracle_comparison(12, seed=100)
        assert len(rows) == 12
        for r in rows:
            assert r.handled_greedy == pytest.approx(r.handled_oracle, abs=1e-6)
            assert r.cost_oracle <= r.cost_greedy + 1e-6
            if r.gap > 0.10:
                assert r.counterexample is not None
            else:
                assert r.counterexample is None

    def test_gap_summary(self):
        def row(gap, handled_oracle=10.0):
            return ComparisonRow(seed=0, handled_greedy=10.0, handled_oracle=handled_oracle,
                                 cost_greedy=1.0, cost_oracle=1.0, gap=gap, runtime_s=0.0)

        rows = [row(0.0), row(0.05), row(0.2), row(0.5, handled_oracle=12.0), row(math.inf)]
        stats = gap_summary(rows)
        assert stats["median_gap"] == 0.2
        # p90 interpolates over the four finite gaps: 0.2 + 0.7 * (0.5 - 0.2).
        assert stats["p90_gap"] == pytest.approx(0.41)
        assert stats["max_gap"] == math.inf
        assert stats["over_10pct"] == 3
        assert stats["handled_equal"] == 4
        assert stats["unproven"] == 0
        rows[1].proven = rows[3].proven = False
        assert gap_summary(rows)["unproven"] == 2

    def test_off_grid_greedy_against_an_empty_grid(self):
        # At delta 1 a cell is one 20 Gbps unit, and seed 15's one datacenter
        # links 9 Gbps: the greedy's 9 Gbps is off the grid, so it seeds no
        # incumbent, and the oracle handles nothing at cost 0, a gap of inf.
        [row] = oracle_comparison(1, seed=15, delta=1.0)
        assert (row.handled_greedy, row.handled_oracle, row.cost_oracle) == (9.0, 0.0, 0.0)
        assert row.cost_greedy > 0 and row.gap == math.inf
        assert row.counterexample["handled_mismatch"]

    @pytest.mark.parametrize("n_instances", [0, -3])
    def test_empty_comparison_rejected(self, n_instances):
        with pytest.raises(InputError, match="at least 1 instance"):
            oracle_comparison(n_instances, seed=1)

    def test_empty_gap_summary_rejected(self):
        with pytest.raises(InputError, match="no comparison rows"):
            gap_summary([])

    @pytest.mark.parametrize("budget", [0, 2])
    def test_exhausted_placement_budget_is_unproven(self, monkeypatch, budget):
        # Criterion 1's seed 20007 prices datacenters by search (1 oracle
        # node) and is proven at the default budget.
        topo, traffic, lib, params = random_tiny_instance(20_007)
        full = oracle_exact(topo, traffic, lib, params, delta=0.05)
        assert full.search_nodes > 0 and full.proven
        monkeypatch.setattr(oracle, "_PLACEMENT_NODE_BUDGET", budget)
        cut = oracle_exact(topo, traffic, lib, params, delta=0.05)
        assert not cut.proven
        dsp = dsp_greedy(topo, traffic, lib)
        assert full.objective <= cut.objective <= evaluate_cost(
            dsp, place_all(topo, dsp, lib), params) + 1e-9
        [row] = oracle_comparison(1, seed=20_007)
        assert not row.proven and gap_summary([row])["unproven"] == 1
