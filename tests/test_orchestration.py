import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scrubsim.defense_graphs import (
    ANALYSIS,
    RESPONSE,
    AnnotatedGraph,
    AttackType,
    LogicalModule,
    builtin_library,
    build_physical_graph,
    ordered_graphs,
)
from scrubsim.errors import CapacityError, InputError, PinConflictError, PlacementError
from scrubsim.orchestration import (
    TagPool,
    assign_tags,
    build_tag_pools,
    pin_bidirectional,
    pin_bidirectional_for_graph,
    plan_realizes_edges,
    synthesize_rules,
    tag_space_bound,
)
from scrubsim.resource_manager import check_feasibility, dsp_greedy, place_all
from scrubsim.topology import CostParams, generate_topology
from reference import (capacity_bound_cases, load_balance_pick, make_dc, make_topo,
                       per_vm_pools)

ATK = AttackType(0, "atk0")


def two_context_graph():
    """Analysis node tagging benign (to customer) vs attack (to a dropper)."""
    return AnnotatedGraph(
        attack=ATK,
        nodes=[LogicalModule(0, "a1", ANALYSIS, 10.0, contexts=2, delivers=True),
               LogicalModule(1, "r_drop", RESPONSE, 10.0, contexts=1)],
        edges=[(0, 1, 0.5)],
    )


def two_branch_graph():
    return AnnotatedGraph(
        attack=ATK,
        nodes=[LogicalModule(0, "a1", ANALYSIS, 10.0, contexts=2),
               LogicalModule(1, "r_ok", RESPONSE, 10.0, contexts=1, delivers=True),
               LogicalModule(2, "r_log", RESPONSE, 10.0, contexts=1)],
        edges=[(0, 1, 0.5), (0, 2, 0.5)],
    )


def small_topo(n_dcs=1):
    return make_topo(1, [make_dc(d, 999.0, [[50, 50]]) for d in range(n_dcs)],
                     [[1.0 + d for d in range(n_dcs)]])


class TestAssignTags:
    def test_one_downstream_per_context(self):
        g = two_branch_graph()
        lib = {ATK: g}
        pg = build_physical_graph(g, 0, 10.0, {0: 1, 1: 1, 2: 1})
        pools = assign_tags(pg, lib)
        a1 = (0, 0, 0, 0)
        assert pools.pool(a1, 0) == [1]  # context 0 -> r_ok's instance
        assert pools.pool(a1, 1) == [2]  # context 1 -> r_log's instance

    def test_pool_has_one_tag_per_downstream_instance(self):
        g = two_context_graph()
        lib = {ATK: g}
        pg = build_physical_graph(g, 0, 40.0, {0: 2, 1: 2})
        pools = assign_tags(pg, lib)
        for idx in range(2):
            pool = pools.pool((0, 0, 0, idx), 0)
            assert len(pool) == 2
            assert len(set(pool)) == 2
        # Both upstream instances share the downstream identity tags.
        assert pools.pool((0, 0, 0, 0), 0) == pools.pool((0, 0, 0, 1), 0)

    def test_single_node_single_context(self):
        g = AnnotatedGraph(attack=ATK,
                           nodes=[LogicalModule(0, "m", ANALYSIS, 10.0,
                                                contexts=1, delivers=True)],
                           edges=[])
        pg = build_physical_graph(g, 0, 5.0, {0: 1})
        pools = assign_tags(pg, {ATK: g})
        assert len(pools.pool((0, 0, 0, 0), 0)) == 1

    def test_shared_pool_keeps_tags_unique(self):
        lib = builtin_library()
        topo = small_topo(2)
        graphs = ordered_graphs(lib)
        traffic = np.zeros((1, len(graphs)))
        traffic[0, :] = 20.0
        dsp = dsp_greedy(topo, traffic, lib)
        pools = build_tag_pools(dsp.physical, lib)
        tags = list(pools.instance_tags.values()) + list(pools.egress_tags.values())
        assert len(tags) == len(set(tags))


class TestTagSpaceBound:
    def test_paper_bit_count(self):
        # A graph set whose bound lands exactly on 800 needs 10 bits.
        g = AnnotatedGraph(
            attack=ATK,
            nodes=[LogicalModule(i, f"n{i}", ANALYSIS, 5.0, contexts=2)
                   for i in range(4)] +
                  [LogicalModule(4, "leaf", RESPONSE, 10.0, contexts=1)],
            edges=[(i, i + 1, 1.0) for i in range(4)],
        )
        graphs = [g, g]  # 8 emitting vertices total
        max_tags, bits = tag_space_bound(graphs, l_max=50, k_max=2)
        assert max_tags == 800
        assert bits == 10

    def test_single_node_graph(self):
        g = AnnotatedGraph(attack=ATK,
                           nodes=[LogicalModule(0, "m", ANALYSIS, 5.0,
                                                contexts=1, delivers=True)],
                           edges=[])
        assert tag_space_bound([g], l_max=1, k_max=1) == (1, 0)

    def test_linear_in_l_max(self):
        graphs = list(builtin_library().values())
        m1, _ = tag_space_bound(graphs, l_max=10)
        m2, _ = tag_space_bound(graphs, l_max=20)
        assert m2 == 2 * m1

    def test_builtin_within_budget(self):
        graphs = list(builtin_library().values())
        max_tags, bits = tag_space_bound(graphs, l_max=50, k_max=2)
        assert max_tags <= 800
        assert bits <= 10


class TestSynthesizeRules:
    def _plan(self, g, traffic_gbps=10.0):
        lib = {g.attack: g}
        topo = small_topo()
        traffic = np.array([[traffic_gbps]])
        dsp = dsp_greedy(topo, traffic, lib)
        ssps = place_all(topo, dsp, lib)
        pools = build_tag_pools(dsp.physical, lib)
        plan = synthesize_rules(dsp, ssps, pools, topo, lib)
        return dsp, pools, plan

    def test_two_rules_at_branching_switch(self):
        # 1000 suspicious flows through a 2-way context need exactly two
        # intra-datacenter rules: one per tag value.
        dsp, pools, plan = self._plan(two_context_graph(), traffic_gbps=10.0)
        assert len(plan.dc_tables["dc0"]) == 2

    def test_rule_counts_flow_independent(self):
        # The plan is compiled from the assignment alone, with no flow input:
        # one rule per tag value on the busiest switch, whatever the flows.
        _dsp, pools, plan = self._plan(two_branch_graph())
        assert plan.max_switch_rules() == max(map(len, plan.dc_tables.values()))
        assert plan.max_switch_rules() == len(pools.instance_tags) + len(pools.egress_tags)

    def test_empty_assignment_zero_rules(self):
        g = two_branch_graph()
        lib = {ATK: g}
        topo = small_topo()
        dsp = dsp_greedy(topo, np.array([[0.0]]), lib)
        plan = synthesize_rules(dsp, [], TagPool(), topo, lib)
        assert plan.dc_tables == {}
        assert plan.max_switch_rules() == 0

    def test_wide_area_weights_match_fractions(self):
        lib = builtin_library()
        topo = small_topo(2)
        traffic = np.zeros((1, 4))
        traffic[0, :] = 30.0
        dsp = dsp_greedy(topo, traffic, lib)
        ssps = place_all(topo, dsp, lib)
        pools = build_tag_pools(dsp.physical, lib)
        plan = synthesize_rules(dsp, ssps, pools, topo, lib)
        for (e, a), splits in plan.wide_area.items():
            assert sum(w for _d, w in splits) == pytest.approx(float(dsp.f[e, a, :].sum()))

    def test_every_positive_edge_realized(self):
        lib = builtin_library()
        topo = small_topo()
        traffic = np.zeros((1, 4))
        traffic[0, :] = 25.0
        dsp = dsp_greedy(topo, traffic, lib)
        ssps = place_all(topo, dsp, lib)
        pools = build_tag_pools(dsp.physical, lib)
        plan = synthesize_rules(dsp, ssps, pools, topo, lib)
        for pg in dsp.physical.values():
            assert plan_realizes_edges(plan, pg, pools, lib) == []

    def test_shared_instance_tag_is_a_duplicate_match(self):
        g = two_branch_graph()
        lib = {ATK: g}
        topo = small_topo()
        dsp = dsp_greedy(topo, np.array([[10.0]]), lib)
        ssps = place_all(topo, dsp, lib)
        pools = build_tag_pools(dsp.physical, lib)
        # Hand-edit the pool so two VMs carry one identity tag.
        first, second = sorted(pools.instance_tags)[:2]
        shared = pools.instance_tags[first]
        pools.instance_tags[second] = shared
        with pytest.raises(InputError) as err:
            synthesize_rules(dsp, ssps, pools, topo, lib)
        assert str(err.value) == f"duplicate rule match ('tag', {shared}) on dc0"

    def test_golden_stable_serialization(self, tmp_path):
        _dsp, _pools, plan = self._plan(two_branch_graph())
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        plan.dump(str(p1))
        plan.dump(str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        data = json.loads(p1.read_text())
        assert set(data) == {"wide_area", "dc_tables", "tag_bits", "bidi_pins"}


class TestPlanRealizesEdges:
    """Each gap message, from a plan or pool edited by hand. Node 0 has four
    instances, which share its pools: context 0 holds tags 1 and 2 (node 1's
    two instances) and context 1 tags 3 and 4 (node 2's); tag 5 is the
    egress tag."""

    def _setup(self):
        lib = {ATK: two_branch_graph()}
        topo = small_topo()
        dsp = dsp_greedy(topo, np.array([[40.0]]), lib)
        ssps = place_all(topo, dsp, lib)
        pools = build_tag_pools(dsp.physical, lib)
        plan = synthesize_rules(dsp, ssps, pools, topo, lib)
        pg = dsp.physical[(0, 0)]
        assert plan_realizes_edges(plan, pg, pools, lib) == []
        assert pools.pools == {((0, 0, 0), 0): [1, 2], ((0, 0, 0), 1): [3, 4],
                               ((0, 0, 1), 0): [5]}
        return lib, pools, plan, pg

    def test_missing_pool(self):
        lib, pools, plan, pg = self._setup()
        del pools.pools[((0, 0, 0), 0)]
        assert plan_realizes_edges(plan, pg, pools, lib) == [
            "node (0, 0, 0) has no pool for context 0"]

    def test_tag_without_switch_rule(self):
        lib, pools, plan, pg = self._setup()
        del plan.tag_tables[0][("tag", 2)]
        assert plan_realizes_edges(plan, pg, pools, lib) == [
            "tag 2 from node (0, 0, 0) has no switch rule",
            "edge 0->1: node (0, 0, 0) reaches instances [0] of [0, 1]"]

    def test_edge_reaching_wrong_instances(self):
        lib, pools, plan, pg = self._setup()
        # One pool swaps a downstream tag for the egress tag; the other holds
        # the first edge's tags, whose instances have the same indices.
        pools.pools[((0, 0, 0), 0)] = [1, 5]
        pools.pools[((0, 0, 0), 1)] = [1, 2]
        assert plan_realizes_edges(plan, pg, pools, lib) == [
            "edge 0->1: node (0, 0, 0) reaches instances [0] of [0, 1]",
            "edge 0->2: node (0, 0, 0) reaches instances [] of [0, 1]"]

    def test_zero_count_delivering_node(self):
        """A delivering node whose only input edge weighs 0.0 is provisioned
        with 0 VMs: it is listed with its 0, but gets no tag, pool or rule,
        and neither check reports it."""
        g = AnnotatedGraph(
            attack=ATK,
            nodes=[LogicalModule(0, "a1", ANALYSIS, 10.0, contexts=2),
                   LogicalModule(1, "r_ok", RESPONSE, 10.0, contexts=1, delivers=True),
                   LogicalModule(2, "r_drop", RESPONSE, 10.0, contexts=1)],
            edges=[(0, 1, 0.0), (0, 2, 1.0)],
        )
        lib = {ATK: g}
        topo = small_topo()
        traffic = np.array([[20.0]])
        dsp = dsp_greedy(topo, traffic, lib)
        assert dsp.n_dc == {(0, 0): {0: 2, 1: 0, 2: 2}}
        ssps = place_all(topo, dsp, lib)
        pools = build_tag_pools(dsp.physical, lib)
        plan = synthesize_rules(dsp, ssps, pools, topo, lib)
        assert sorted(pools.instance_tags) == [(0, 0, 2, 0), (0, 0, 2, 1)]
        assert pools.egress_tags == {}
        # Only a1 emits tags; its pool toward r_ok is empty.
        assert pools.pools == {((0, 0, 0), 0): [], ((0, 0, 0), 1): [1, 2]}
        assert plan.dc_tables["dc0"] == {
            ("tag", tag): ("vm", vm) for vm, tag in pools.instance_tags.items()}
        assert plan_realizes_edges(plan, dsp.physical[(0, 0)], pools, lib) == []
        assert check_feasibility(topo, traffic, dsp, ssps, CostParams(), lib) == []


class TestLoadBalancePick:
    def test_single_tag_pool(self):
        g = two_branch_graph()
        pg = build_physical_graph(g, 0, 10.0, {0: 1, 1: 1, 2: 1})
        pools = assign_tags(pg, {ATK: g})
        rng = random.Random(1)
        vm = (0, 0, 0, 0)
        tags = {load_balance_pick(pools, vm, 0, rng) for _ in range(50)}
        assert tags == set(pools.pool(vm, 0))
        assert len(tags) == 1

    def test_uniform_over_two_tags(self):
        g = two_context_graph()
        pg = build_physical_graph(g, 0, 40.0, {0: 1, 1: 2})
        pools = assign_tags(pg, {ATK: g})
        rng = random.Random(123)
        vm = (0, 0, 0, 0)
        pool = pools.pool(vm, 0)
        n = 10_000
        counts = {t: 0 for t in pool}
        for _ in range(n):
            counts[load_balance_pick(pools, vm, 0, rng)] += 1
        for t in pool:
            assert 0.47 <= counts[t] / n <= 0.53

    def test_reproducible_per_seed(self):
        g = two_context_graph()
        pg = build_physical_graph(g, 0, 40.0, {0: 1, 1: 2})
        pools = assign_tags(pg, {ATK: g})
        vm = (0, 0, 0, 0)

        def draws(seed):
            rng = random.Random(seed)
            return [load_balance_pick(pools, vm, 0, rng) for _ in range(20)]

        assert draws(9) == draws(9)
        assert draws(9) != draws(10)

    def test_empty_pool_raises(self):
        pools = TagPool()
        with pytest.raises(CapacityError):
            load_balance_pick(pools, (0, 0, 0, 0), 0, random.Random(0))


class TestBidirectionalPins:
    def _dns_setup(self):
        lib = builtin_library()
        dns = [g for g in lib.values() if g.attack.name == "dns_amplification"][0]
        topo = small_topo()
        traffic = np.zeros((1, 4))
        traffic[0, dns.attack.id] = 20.0
        dsp = dsp_greedy(topo, traffic, lib)
        ssps = place_all(topo, dsp, lib)
        pools = build_tag_pools(dsp.physical, lib)
        plan = synthesize_rules(dsp, ssps, pools, topo, lib)
        return lib, dns, dsp, pools, plan

    def test_pin_then_lookup(self):
        _lib, _dns, _dsp, _pools, plan = self._dns_setup()
        vm = (1, 0, 1, 0)
        pin_bidirectional(plan, 42, 0, vm)
        assert plan.bidi_pins[42] == (0, vm)

    def test_idempotent_and_conflict(self):
        _lib, _dns, _dsp, _pools, plan = self._dns_setup()
        vm = (1, 0, 1, 0)
        pin_bidirectional(plan, 42, 0, vm)
        pin_bidirectional(plan, 42, 0, vm)
        assert len([t for t in plan.bidi_pins if t == 42]) == 1
        with pytest.raises(PinConflictError):
            pin_bidirectional(plan, 42, 0, (1, 0, 1, 1))

    def test_dns_pins_analysis_tags_udp_pins_nothing(self):
        lib = builtin_library()
        topo = small_topo()
        traffic = np.zeros((1, 4))
        dns_id = [g.attack.id for g in lib.values()
                  if g.attack.name == "dns_amplification"][0]
        udp_id = [g.attack.id for g in lib.values()
                  if g.attack.name == "udp_flood"][0]
        traffic[0, dns_id] = 20.0
        traffic[0, udp_id] = 20.0
        dsp = dsp_greedy(topo, traffic, lib)
        ssps = place_all(topo, dsp, lib)
        pools = build_tag_pools(dsp.physical, lib)
        plan = synthesize_rules(dsp, ssps, pools, topo, lib)
        graphs = ordered_graphs(lib)
        pins = {a: pin_bidirectional_for_graph(plan, pg, pools, lib)
                for (a, d), pg in dsp.physical.items()}
        assert pins[dns_id] > 0
        assert pins[udp_id] == 0
        # Every analysis VM's outbound tags are pinned for the DNS graph.
        dns_graph = graphs[dns_id]
        pg = dsp.physical[(dns_id, 0)]
        for node, count in pg.counts.items():
            if dns_graph.node(node).kind != "analysis":
                continue
            for k in range(count):
                vm = (dns_id, 0, node, k)
                for c in range(len(dns_graph.successors(node))):
                    for tag in pools.pool(vm, c):
                        assert tag in plan.bidi_pins

    def test_pins_match_linear_search_over_instance_tags(self):
        lib = builtin_library()
        topo = small_topo(2)
        traffic = np.zeros((1, 4))
        traffic[0, :] = [30.0, 45.0, 20.0, 10.0]
        dsp = dsp_greedy(topo, traffic, lib)
        ssps = place_all(topo, dsp, lib)
        pools = build_tag_pools(dsp.physical, lib)
        plan = synthesize_rules(dsp, ssps, pools, topo, lib)
        want, want_counts = reference_pins(dsp.physical, pools, lib)
        got_counts = [pin_bidirectional_for_graph(plan, dsp.physical[key], pools, lib)
                      for key in sorted(dsp.physical)]
        assert got_counts == want_counts
        assert sum(got_counts) > 0
        assert plan.bidi_pins == want


# ---------------------------------------------------------------------------
# Linear references: assign_tags, synthesize_rules and the bidirectional pins
# as they were written before their per-node and per-graph work was hoisted
# out of the instance and rule loops, and before the plan stored each split
# once. Each walks every instance and rule on its own; the library functions
# must produce equal pools, equal plans and equal pins, not close ones.

def reference_assign_tags(pg, lib, pools=None):
    graph = lib[pg.attack]
    pools = pools if pools is not None else TagPool()
    a, d = pg.attack.id, pg.dc_id
    roots = set(graph.roots)
    placed_nodes = sorted(i for i, c in pg.counts.items() if c > 0)
    slots_needed = []
    for node in placed_nodes:
        if node in roots:
            continue
        for k in range(pg.counts[node]):
            slots_needed.append(("vm", (a, d, node, k)))
    for node in placed_nodes:
        if graph.node(node).delivers:
            slots_needed.append(("egress", (a, d, node, len(graph.successors(node)))))
    values = list(range(pools.next_tag, pools.next_tag + len(slots_needed)))
    pools.next_tag += len(slots_needed)
    for (kind, key), value in zip(slots_needed, values):
        if kind == "vm":
            pools.instance_tags[key] = value
        else:
            pools.egress_tags[key] = value
    for node in placed_nodes:
        succs = graph.successors(node)
        for k in range(pg.counts[node]):
            vm = (a, d, node, k)
            for c, succ in enumerate(succs):
                pools.pools[(vm, c)] = [pools.instance_tags[(a, d, succ, down)]
                                        for down in range(pg.counts.get(succ, 0))]
            if graph.node(node).delivers:
                c = len(succs)
                pools.pools[(vm, c)] = [pools.egress_tags[(a, d, node, c)]]
    return pools


def reference_synthesize_rules(dsp, ssps, pools, topo, lib):
    graphs = ordered_graphs(lib)
    placements = {(r.attack_id, r.dc_id): r.placements for r in ssps}
    wide_area = {}
    assigned = np.nonzero(dsp.f > 0)
    for e, a, d, w in zip(*(ix.tolist() for ix in assigned), dsp.f[assigned].tolist()):
        wide_area.setdefault((e, a), []).append((d, w))
    egress = {}
    for (ea, ed, _node, _ctx), tag in sorted(pools.egress_tags.items()):
        egress.setdefault((ea, ed), []).append(tag)
    tables = {}

    def add(switch, match, action):
        table = tables.setdefault(switch, {})
        if match in table:
            raise InputError(f"duplicate rule match {match} on {switch}")
        table[match] = action

    for (e, a), splits in sorted(wide_area.items()):
        add(f"pop{e}", ("flow", f"e{e}-a{a}"),
            ("split", tuple((f"tunnel-e{e}-d{d}", w) for d, w in splits)))
    for (a, d), pg in sorted(dsp.physical.items()):
        if pg.total_vms == 0:
            continue
        graph = graphs[a]
        placed = placements.get((a, d))
        if placed is None:
            raise InputError(f"physical graph ({a},{d}) has no server placement")
        root_targets = []
        for root in graph.roots:
            n = pg.counts.get(root, 0)
            if n == 0:
                continue
            frac = graph.external_fraction(root)
            for k in range(n):
                key = (a, d, root, k)
                if (root, k) not in placed:
                    raise InputError(f"unplaced VM {key}")
                root_targets.append((key, frac / n))
        for e in np.flatnonzero(dsp.f[:, a, d] > 0).tolist():
            add(f"dc{d}-ingress", ("tunnel", f"e{e}-a{a}"), ("split", tuple(root_targets)))
        for node in sorted(pg.counts):
            for k in range(pg.counts[node]):
                key = (a, d, node, k)
                if (node, k) not in placed:
                    raise InputError(f"unplaced VM {key}")
                tag = pools.instance_tags.get(key)
                if tag is not None:
                    add(f"dc{d}", ("tag", tag), ("vm", key))
        for tag in egress.get((a, d), []):
            add(f"dc{d}", ("tag", tag), ("customer", None))
    max_tag = max([t for p in pools.pools.values() for t in p], default=0)
    tag_bits = math.ceil(math.log2(max_tag + 1)) if max_tag > 0 else 0
    return wide_area, tables, tag_bits


def reference_pins(physical, pools, lib):
    """Every bidirectional graph's pins by a linear search of the identity
    tags, and the number of new pins per graph in sorted order."""
    graphs = ordered_graphs(lib)
    pins: dict[int, tuple[int, tuple]] = {}
    counts = []
    for (a, d), pg in sorted(physical.items()):
        count = 0
        graph = graphs[a]
        if graph.bidirectional:
            for node in sorted(pg.counts):
                if graph.node(node).kind != "analysis":
                    continue
                for k in range(pg.counts[node]):
                    vm = (a, d, node, k)
                    for c in range(len(graph.successors(node))):
                        for tag in pools.pool(vm, c):
                            target = next((v for v, t in pools.instance_tags.items()
                                           if t == tag), None)
                            if target is not None and tag not in pins:
                                pins[tag] = (d, target)
                                count += 1
        counts.append(count)
    return pins, counts


def reference_state(wide_area, tables, tag_bits):
    """`plan_state` of a pin-free plan that stores `wide_area` and every
    switch's `tables`, with its file written one rule at a time."""
    data = {
        "wide_area": {f"e{e}-a{a}": [[d, w] for d, w in sorted(splits)]
                      for (e, a), splits in sorted(wide_area.items())},
        "dc_tables": {sw: [{"switch": sw, "match": list(match),
                            "action": json.loads(json.dumps(action))}
                           for match, action in rules.items()]
                      for sw, rules in sorted(tables.items())},
        "tag_bits": tag_bits,
        "bidi_pins": {},
    }
    return (data, json.dumps(data, indent=2, sort_keys=True),
            {sw: len(rules) for sw, rules in tables.items()}, list(wide_area.items()),
            {sw: list(rules.items()) for sw, rules in tables.items()})


def pool_state(pools, physical=None):
    """The tag state with every VM's pools listed per VM: expanded from the
    library's per-node pools by `physical`'s counts or, without it, the
    reference's per-VM pools as they are."""
    vm_pools = list(pools.pools.items()) if physical is None else per_vm_pools(pools, physical)
    return (vm_pools, list(pools.instance_tags.items()),
            list(pools.egress_tags.items()), pools.next_tag)


def plan_state(plan):
    return (plan.to_json(), json.dumps(plan.to_json(), indent=2, sort_keys=True),
            plan.rules_by_switch(), list(plan.wide_area.items()),
            {sw: list(rules.items()) for sw, rules in plan.dc_tables.items()})


def assert_counts_and_renders_stand(plan, dsp):
    """The switch counts list the rendered tables' lengths in their order,
    and editing the assignment or a rendering after compiling changes no
    later rendering and no plan file."""
    want = plan_state(plan)
    assert list(plan.rules_by_switch().items()) == [
        (sw, len(rules)) for sw, rules in plan.dc_tables.items()]
    dsp.f[...] = 0.5
    for splits in plan.wide_area.values():
        splits.append((99, 0.5))
    wide_area, tables = plan.wide_area, plan.dc_tables
    for splits in wide_area.values():
        splits.clear()
    for rules in tables.values():
        rules.clear()
    assert plan_state(plan) == want
    for x in plan.cells:
        with pytest.raises(ValueError):
            x[...] = 0


def outcome(fn, *args):
    """The call's result, or its exception's type and message."""
    try:
        return fn(*args)
    except InputError as exc:
        return (type(exc), str(exc))


class TestMatchesLinearReference:
    @settings(max_examples=120)
    @given(case=capacity_bound_cases(), ceil=st.booleans())
    def test_tag_pools(self, case, ceil):
        topo, traffic, lib = case
        dsp = dsp_greedy(topo, traffic, lib, ceil_per_assignment=ceil)
        got, want = TagPool(), TagPool()
        for key in sorted(dsp.physical):
            assert assign_tags(dsp.physical[key], lib, got) is got
            reference_assign_tags(dsp.physical[key], lib, want)
            assert pool_state(got, dsp.physical) == pool_state(want)
            assert got.max_tag == max([t for p in want.pools.values() for t in p], default=0)
        # Each (node, context) owns its pool list: editing one edits no other.
        assert len({id(tags) for tags in got.pools.values()}) == len(got.pools)

    @settings(max_examples=200)
    @given(case=capacity_bound_cases(), ceil=st.booleans(), data=st.data())
    def test_plans(self, case, ceil, data):
        topo, traffic, lib = case
        dsp = dsp_greedy(topo, traffic, lib, ceil_per_assignment=ceil)
        try:
            ssps = place_all(topo, dsp, lib)
        except PlacementError:
            return
        pools = build_tag_pools(dsp.physical, lib)
        # Sometimes take away a graph's placement or one node's run of VMs on
        # one server, so the unplaced-VM errors are compared too.
        if ssps and data.draw(st.booleans()):
            victim = data.draw(st.sampled_from(ssps))
            if data.draw(st.booleans()) or not victim.n_srv:
                ssps = [r for r in ssps if r is not victim]
            else:
                del victim.n_srv[data.draw(st.sampled_from(sorted(victim.n_srv)))]
        got = outcome(synthesize_rules, dsp, ssps, pools, topo, lib)
        want = outcome(reference_synthesize_rules, dsp, ssps, pools, topo, lib)
        if isinstance(want[0], type):
            assert got == want
        else:
            assert plan_state(got) == reference_state(*want)
            want_pins, want_counts = reference_pins(dsp.physical, pools, lib)
            assert [pin_bidirectional_for_graph(got, dsp.physical[key], pools, lib)
                    for key in sorted(dsp.physical)] == want_counts
            assert list(got.bidi_pins.items()) == list(want_pins.items())
            assert_counts_and_renders_stand(got, dsp)


def compile_inputs(nodes, seed):
    """synthesize_rules' arguments for every builtin graph from every pop of
    a generated topology, at 0.1-3 Gbps per cell."""
    topo = generate_topology(nodes, dc_slot_capacity=4000, seed=seed)
    lib = builtin_library()
    traffic = np.random.default_rng(seed).uniform(0.1, 3.0, size=(len(topo.pops), len(lib)))
    dsp = dsp_greedy(topo, traffic, lib)
    ssps = place_all(topo, dsp, lib)
    return dsp, ssps, build_tag_pools(dsp.physical, lib), topo, lib


def plan_bytes(plan):
    return json.dumps(plan.to_json(), indent=2, sort_keys=True)


class TestSharedShapeKeys:
    """Plans of every shape compile alike, and nothing a caller can mutate is
    shared between plans or between a plan and its renderings."""

    def test_mutating_a_plan_changes_no_later_plan(self):
        first, second = compile_inputs(24, 1), compile_inputs(24, 2)
        want_first = plan_bytes(synthesize_rules(*first))
        want_second = plan_bytes(synthesize_rules(*second))
        plan = synthesize_rules(*first)
        assert any(len(splits) == 1 and splits[0][1] == 1.0
                   for splits in plan.wide_area.values())
        for rules in plan.tag_tables.values():
            del rules[next(iter(rules))]
        pin_bidirectional(plan, 12345, 0, (0, 0, 0, 0))
        for args, want in ((second, want_second), (first, want_first)):
            fresh = synthesize_rules(*args)
            assert plan_bytes(fresh) == want
            assert fresh.bidi_pins == {}
            assert_counts_and_renders_stand(fresh, args[0])

    def test_alternating_shapes_match_reference(self):
        small, large = compile_inputs(24, 3), compile_inputs(48, 3)
        assert small[0].f.shape != large[0].f.shape
        for args in (small, large, small, large):
            assert (plan_state(synthesize_rules(*args))
                    == reference_state(*reference_synthesize_rules(*args)))
