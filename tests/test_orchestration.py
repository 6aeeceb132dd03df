import json
import math
import random
from dataclasses import dataclass, field, replace

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
    PhysicalGraph,
    builtin_library,
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
                       node_pools, per_vm_pools)

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
    return make_topo(1, [make_dc(999.0, [[50, 50]]) for _ in range(n_dcs)],
                     [[1.0 + d for d in range(n_dcs)]])


class TestAssignTags:
    def test_one_downstream_per_context(self):
        g = two_branch_graph()
        pg = PhysicalGraph(g.attack.id, 0, 10.0, {0: 1, 1: 1, 2: 1})
        pools = assign_tags(pg, g)
        a1 = (0, 0, 0, 0)
        assert pools.pool(a1, 0) == [1]  # context 0 -> r_ok's instance
        assert pools.pool(a1, 1) == [2]  # context 1 -> r_log's instance

    def test_pool_has_one_tag_per_downstream_instance(self):
        g = two_context_graph()
        pg = PhysicalGraph(g.attack.id, 0, 40.0, {0: 2, 1: 2})
        pools = assign_tags(pg, g)
        for idx in range(2):
            pool = pools.pool((0, 0, 0, idx), 0)
            assert len(pool) == 2
            assert len(set(pool)) == 2
        # Both upstream instances share the downstream identity tags.
        assert pools.pool((0, 0, 0, 0), 0) == pools.pool((0, 0, 0, 1), 0)

    def test_unknown_node_raises_and_leaves_the_pool(self):
        # An id the graph lacks is refused by name, the lowest such id first,
        # before the pool's counter or graphs change.
        g = two_branch_graph()
        pools = assign_tags(PhysicalGraph(g.attack.id, 0, 10.0, {0: 1, 1: 1}), g)
        before = (pools.next_tag, dict(pools.graphs))
        with pytest.raises(InputError) as err:
            assign_tags(PhysicalGraph(g.attack.id, 1, 10.0, {0: 1, 9: 2, 7: 1, 2: 0}), g, pools)
        assert str(err.value) == "unknown node id 7 in atk0 graph"
        assert (pools.next_tag, pools.graphs) == before

    def test_single_node_single_context(self):
        g = AnnotatedGraph(attack=ATK,
                           nodes=[LogicalModule(0, "m", ANALYSIS, 10.0,
                                                contexts=1, delivers=True)],
                           edges=[])
        pg = PhysicalGraph(g.attack.id, 0, 5.0, {0: 1})
        pools = assign_tags(pg, g)
        assert len(pools.pool((0, 0, 0, 0), 0)) == 1

    def test_shared_pool_keeps_tags_unique(self):
        lib = builtin_library()
        topo = small_topo(2)
        traffic = np.zeros((1, len(lib)))
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
        graphs = list(builtin_library())
        m1, _ = tag_space_bound(graphs, l_max=10)
        m2, _ = tag_space_bound(graphs, l_max=20)
        assert m2 == 2 * m1

    def test_l_max_below_one_rejected(self):
        with pytest.raises(InputError, match="l_max must be >= 1"):
            tag_space_bound(list(builtin_library()), l_max=0)

    def test_builtin_within_budget(self):
        graphs = list(builtin_library())
        max_tags, bits = tag_space_bound(graphs, l_max=50, k_max=2)
        assert max_tags <= 800
        assert bits <= 10


class TestSynthesizeRules:
    def _plan(self, g, traffic_gbps=10.0):
        lib = (g,)
        topo = small_topo()
        traffic = np.array([[traffic_gbps]])
        dsp = dsp_greedy(topo, traffic, lib)
        ssps = place_all(topo, dsp, lib)
        pools = build_tag_pools(dsp.physical, lib)
        plan = synthesize_rules(dsp, ssps, pools, lib)
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
        lib = (two_branch_graph(),)
        topo = small_topo()
        dsp = dsp_greedy(topo, np.array([[0.0]]), lib)
        plan = synthesize_rules(dsp, [], TagPool(), lib)
        assert plan.dc_tables == {}
        assert plan.max_switch_rules() == 0

    def test_graph_sized_at_zero_vms_gets_no_tag_rules(self):
        # 2e-9 Gbps is assigned but rounds to no VM, so the graph has no
        # placement, tags or ingress split; only its pop's flow rule stays.
        dsp, pools, plan = self._plan(two_branch_graph(), traffic_gbps=2e-9)
        assert dsp.physical[(0, 0)].total_vms == 0
        assert pools.graphs[(0, 0)].counts == {}
        assert (plan.roots, plan.tag_runs) == ({}, {})
        assert plan.rules_by_switch() == {"pop0": 1}

    def test_wide_area_weights_match_fractions(self):
        lib = builtin_library()
        topo = small_topo(2)
        traffic = np.zeros((1, 4))
        traffic[0, :] = 30.0
        dsp = dsp_greedy(topo, traffic, lib)
        ssps = place_all(topo, dsp, lib)
        pools = build_tag_pools(dsp.physical, lib)
        plan = synthesize_rules(dsp, ssps, pools, lib)
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
        plan = synthesize_rules(dsp, ssps, pools, lib)
        for pg in dsp.physical.values():
            assert plan_realizes_edges(plan, pg, pools, lib) == []

    def test_shared_instance_tag_is_a_duplicate_match(self):
        lib = builtin_library()
        topo = small_topo()
        dsp = dsp_greedy(topo, np.array([[10.0, 10.0, 0.0, 0.0]]), lib)
        ssps = place_all(topo, dsp, lib)
        first, second = sorted(dsp.physical)
        # Number the second graph from the first graph's first tag, so two
        # VMs at one datacenter carry one identity tag.
        pools = assign_tags(dsp.physical[first], lib[first[0]])
        shared = pools.next_tag = min(pools.instance_tags.values())
        assign_tags(dsp.physical[second], lib[second[0]], pools)
        with pytest.raises(InputError) as err:
            synthesize_rules(dsp, ssps, pools, lib)
        assert str(err.value) == f"duplicate rule match ('tag', {shared}) on dc0"

    def test_clash_inside_a_run_names_its_first_shared_tag(self):
        lib = (two_branch_graph(),)
        topo = small_topo()
        dsp = dsp_greedy(topo, np.array([[40.0]]), lib)
        ssps = place_all(topo, dsp, lib)
        pools = build_tag_pools(dsp.physical, lib)
        # Node 2's run, tags 2 and 3, starts below node 1's run, tags 3 and
        # 4, and ends inside it.
        pools.graphs[(0, 0)].runs.update({1: (3, 2), 2: (2, 2)})
        with pytest.raises(InputError) as err:
            synthesize_rules(dsp, ssps, pools, lib)
        assert str(err.value) == "duplicate rule match ('tag', 3) on dc0"

    def test_golden_stable_serialization(self, tmp_path):
        _dsp, _pools, plan = self._plan(two_branch_graph())
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        plan.dump(str(p1))
        plan.dump(str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        data = json.loads(p1.read_text())
        assert set(data) == {"wide_area", "dc_tables", "tag_bits", "bidi_pins"}


class TestPlanRealizesEdges:
    """Each gap message, from a plan or pool whose runs are edited by hand.
    Node 0 has four instances, which share its pools: context 0 holds tags 1
    and 2 (node 1's two instances) and context 1 tags 3 and 4 (node 2's);
    tag 5 is the egress tag."""

    def _setup(self):
        lib = (two_branch_graph(),)
        topo = small_topo()
        dsp = dsp_greedy(topo, np.array([[40.0]]), lib)
        ssps = place_all(topo, dsp, lib)
        pools = build_tag_pools(dsp.physical, lib)
        plan = synthesize_rules(dsp, ssps, pools, lib)
        pg = dsp.physical[(0, 0)]
        assert plan_realizes_edges(plan, pg, pools, lib) == []
        assert node_pools(pools) == {((0, 0, 0), 0): [1, 2], ((0, 0, 0), 1): [3, 4],
                               ((0, 0, 1), 0): [5]}
        assert pools.graphs[(0, 0)].runs == {1: (1, 2), 2: (3, 2)}
        assert plan.tag_runs == {0: {1: (3, (0, 0, 1)), 3: (5, (0, 0, 2)), 5: (6, None)}}
        return lib, pools, plan, pg

    def test_pool_refuses_instances_the_node_lacks(self):
        _lib, pools, _plan, _pg = self._setup()
        # Node 0 runs 4 instances and node 1 runs 2.
        for vm, c in (((0, 0, 0, 99), 0), ((0, 0, 0, -5), 1), ((0, 0, 1, 7), 0)):
            with pytest.raises(CapacityError) as err:
                pools.pool(vm, c)
            assert str(err.value) == f"no tag pool for vm {vm} context {c}"

    def test_missing_pool(self):
        lib, pools, plan, pg = self._setup()
        # The pools no longer number node 1's instances.
        del pools.graphs[(0, 0)].runs[1]
        assert plan_realizes_edges(plan, pg, pools, lib) == [
            "node (0, 0, 0) has no pool for context 0"]

    def test_tag_without_switch_rule(self):
        lib, pools, plan, pg = self._setup()
        # Node 1's run of rules ends before its second instance's tag.
        plan.tag_runs[0][1] = (2, (0, 0, 1))
        assert plan_realizes_edges(plan, pg, pools, lib) == [
            "tag 2 from node (0, 0, 0) has no switch rule",
            "edge 0->1: node (0, 0, 0) reaches instances [0] of [0, 1]"]

    def test_edge_reaching_wrong_instances(self):
        lib, pools, plan, pg = self._setup()
        # Tag 2 steers to the customer, not to node 1's second instance, and
        # node 2's pool holds node 1's tags instead of its own.
        plan.tag_runs[0] = {1: (2, (0, 0, 1)), 2: (3, None), 3: (5, (0, 0, 2)), 5: (6, None)}
        pools.graphs[(0, 0)].runs[2] = (1, 2)
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
        lib = (g,)
        topo = small_topo()
        traffic = np.array([[20.0]])
        dsp = dsp_greedy(topo, traffic, lib)
        assert dsp.n_dc == {(0, 0): {0: 2, 1: 0, 2: 2}}
        ssps = place_all(topo, dsp, lib)
        pools = build_tag_pools(dsp.physical, lib)
        plan = synthesize_rules(dsp, ssps, pools, lib)
        assert sorted(pools.instance_tags) == [(0, 0, 2, 0), (0, 0, 2, 1)]
        assert pools.egress_tags == {}
        # Only a1 emits tags; its pool toward r_ok is empty.
        assert node_pools(pools) == {((0, 0, 0), 0): [], ((0, 0, 0), 1): [1, 2]}
        assert plan.dc_tables["dc0"] == {
            ("tag", tag): ("vm", vm) for vm, tag in pools.instance_tags.items()}
        assert plan_realizes_edges(plan, dsp.physical[(0, 0)], pools, lib) == []
        assert check_feasibility(topo, traffic, dsp, ssps, CostParams(), lib) == []


class TestLoadBalancePick:
    def test_single_tag_pool(self):
        g = two_branch_graph()
        pg = PhysicalGraph(g.attack.id, 0, 10.0, {0: 1, 1: 1, 2: 1})
        pools = assign_tags(pg, g)
        rng = random.Random(1)
        vm = (0, 0, 0, 0)
        tags = {load_balance_pick(pools, vm, 0, rng) for _ in range(50)}
        assert tags == set(pools.pool(vm, 0))
        assert len(tags) == 1

    def test_uniform_over_two_tags(self):
        g = two_context_graph()
        pg = PhysicalGraph(g.attack.id, 0, 40.0, {0: 1, 1: 2})
        pools = assign_tags(pg, g)
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
        pg = PhysicalGraph(g.attack.id, 0, 40.0, {0: 1, 1: 2})
        pools = assign_tags(pg, g)
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
    def _dns_setup(self, gbps=20.0):
        lib = builtin_library()
        dns = [g for g in lib if g.attack.name == "dns_amplification"][0]
        topo = small_topo()
        traffic = np.zeros((1, 4))
        traffic[0, dns.attack.id] = gbps
        dsp = dsp_greedy(topo, traffic, lib)
        ssps = place_all(topo, dsp, lib)
        pools = build_tag_pools(dsp.physical, lib)
        plan = synthesize_rules(dsp, ssps, pools, lib)
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

    def test_graph_pins_refuse_a_conflicting_pin(self):
        _lib, dns, dsp, pools, plan = self._dns_setup()
        pg = dsp.physical[(dns.attack.id, 0)]
        assert pin_bidirectional_for_graph(plan, pg, pools, dns) > 0
        assert pin_bidirectional_for_graph(plan, pg, pools, dns) == 0
        tag = min(plan.bidi_pins)
        plan.bidi_pins[tag] = (0, (9, 9, 9, 9))
        with pytest.raises(PinConflictError, match=f"^tag {tag} already pinned to "):
            pin_bidirectional_for_graph(plan, pg, pools, dns)

    def test_graph_without_vms_pins_nothing(self):
        # 2e-9 Gbps rounds to no VM, so no analysis node has tags to pin.
        _lib, dns, dsp, pools, plan = self._dns_setup(gbps=2e-9)
        pg = dsp.physical[(dns.attack.id, 0)]
        assert pg.total_vms == 0
        assert pin_bidirectional_for_graph(plan, pg, pools, dns) == 0
        assert plan.bidi_pins == {}

    def test_dns_pins_analysis_tags_udp_pins_nothing(self):
        lib = builtin_library()
        topo = small_topo()
        traffic = np.zeros((1, 4))
        dns_id = [g.attack.id for g in lib
                  if g.attack.name == "dns_amplification"][0]
        udp_id = [g.attack.id for g in lib
                  if g.attack.name == "udp_flood"][0]
        traffic[0, dns_id] = 20.0
        traffic[0, udp_id] = 20.0
        dsp = dsp_greedy(topo, traffic, lib)
        ssps = place_all(topo, dsp, lib)
        pools = build_tag_pools(dsp.physical, lib)
        plan = synthesize_rules(dsp, ssps, pools, lib)
        pins = {a: pin_bidirectional_for_graph(plan, pg, pools, lib[a])
                for (a, d), pg in dsp.physical.items()}
        assert pins[dns_id] > 0
        assert pins[udp_id] == 0
        # Every analysis VM's outbound tags are pinned for the DNS graph.
        dns_graph = lib[dns_id]
        pg = dsp.physical[(dns_id, 0)]
        for node, count in pg.counts.items():
            if dns_graph.node(node).kind != "analysis":
                continue
            for k in range(count):
                vm = (dns_id, 0, node, k)
                for c in range(len(dns_graph.successors[node])):
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
        plan = synthesize_rules(dsp, ssps, pools, lib)
        want = reference_pins(dsp.physical, pools, lib)
        assert library_pins(plan, dsp.physical, pools, lib) == want
        assert sum(want[0]) > 0


# ---------------------------------------------------------------------------
# Linear references: assign_tags, synthesize_rules and the bidirectional pins
# as they were written before their per-node and per-graph work was hoisted
# out of the instance and rule loops, and before the pools and the plan
# stored runs. Each walks every instance and rule on its own; the library
# functions must produce equal pools, equal plans and equal pins, not close
# ones.

@dataclass
class ReferencePools:
    """The tag state as a per-VM store: every VM's pools keyed (vm, context),
    and every identity and egress tag."""
    pools: dict = field(default_factory=dict)
    instance_tags: dict = field(default_factory=dict)
    egress_tags: dict = field(default_factory=dict)
    next_tag: int = 1

    def pool(self, vm, context):
        try:
            return self.pools[(vm, context)]
        except KeyError:
            raise CapacityError(f"no tag pool for vm {vm} context {context}") from None


def reference_assign_tags(pg, graph, pools=None):
    pools = pools if pools is not None else ReferencePools()
    a, d = pg.attack_id, pg.dc_id
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
            slots_needed.append(("egress", (a, d, node, len(graph.successors[node]))))
    values = list(range(pools.next_tag, pools.next_tag + len(slots_needed)))
    pools.next_tag += len(slots_needed)
    for (kind, key), value in zip(slots_needed, values):
        if kind == "vm":
            pools.instance_tags[key] = value
        else:
            pools.egress_tags[key] = value
    for node in placed_nodes:
        succs = graph.successors[node]
        for k in range(pg.counts[node]):
            vm = (a, d, node, k)
            for c, succ in enumerate(succs):
                pools.pools[(vm, c)] = [pools.instance_tags[(a, d, succ, down)]
                                        for down in range(pg.counts.get(succ, 0))]
            if graph.node(node).delivers:
                c = len(succs)
                pools.pools[(vm, c)] = [pools.egress_tags[(a, d, node, c)]]
    return pools


def reference_synthesize_rules(dsp, ssps, pools, lib):
    placements = {(r.attack_id, r.dc_id): r.placements for r in ssps}
    wide_area = {}
    assigned = np.nonzero(dsp.f > 0)
    for e, a, d, w in zip(*(ix.tolist() for ix in assigned), dsp.f[assigned].tolist()):
        wide_area.setdefault((e, a), []).append((d, w))
    egress = {}
    for (ea, ed, _node, _ctx), tag in sorted(pools.egress_tags.items()):
        egress.setdefault((ea, ed), []).append(tag)
    tables, ingress, tag_tables = {}, {}, {}

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
        graph = lib[a]
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
        ingress[(a, d)] = ("split", tuple(root_targets))
        for e in np.flatnonzero(dsp.f[:, a, d] > 0).tolist():
            add(f"dc{d}-ingress", ("tunnel", f"e{e}-a{a}"), ingress[(a, d)])
        tag_table = tag_tables.setdefault(d, {})
        for node in sorted(pg.counts):
            for k in range(pg.counts[node]):
                key = (a, d, node, k)
                if (node, k) not in placed:
                    raise InputError(f"unplaced VM {key}")
                tag = pools.instance_tags.get(key)
                if tag is not None:
                    add(f"dc{d}", ("tag", tag), ("vm", key))
                    tag_table[("tag", tag)] = ("vm", key)
        for tag in egress.get((a, d), []):
            add(f"dc{d}", ("tag", tag), ("customer", None))
            tag_table[("tag", tag)] = ("customer", None)
    max_tag = max([t for p in pools.pools.values() for t in p], default=0)
    tag_bits = math.ceil(math.log2(max_tag + 1)) if max_tag > 0 else 0
    return wide_area, tables, tag_bits, ingress, tag_tables


def reference_pins(physical, pools, lib):
    """Every bidirectional graph's pins by a linear search of the identity
    tags at its datacenter, and the number of new pins per graph in sorted
    order; or the message of the first pin that remaps a tag."""
    pins: dict[int, tuple[int, tuple]] = {}
    counts = []
    for (a, d), pg in sorted(physical.items()):
        count = 0
        graph = lib[a]
        if graph.bidirectional:
            for node in sorted(pg.counts):
                if graph.node(node).kind != "analysis":
                    continue
                for k in range(pg.counts[node]):
                    vm = (a, d, node, k)
                    for c in range(len(graph.successors[node])):
                        for tag in pools.pool(vm, c):
                            target = next((v for v, t in pools.instance_tags.items()
                                           if t == tag and v[1] == d), None)
                            if target is None:
                                continue
                            if tag not in pins:
                                pins[tag] = (d, target)
                                count += 1
                            elif pins[tag] != (d, target):
                                return (f"tag {tag} already pinned to {pins[tag]}, "
                                        f"not ({d}, {target})")
        counts.append(count)
    return counts, list(pins.items())


def library_pins(plan, physical, pools, lib):
    """`reference_pins` of the library: pin every graph in sorted order."""
    try:
        counts = [pin_bidirectional_for_graph(plan, physical[key], pools, lib[key[0]])
                  for key in sorted(physical)]
    except PinConflictError as exc:
        return str(exc)
    return counts, list(plan.bidi_pins.items())


def reference_state(wide_area, tables, tag_bits, ingress, tag_tables):
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
            {sw: list(rules.items()) for sw, rules in tables.items()},
            list(ingress.items()), [(d, list(t.items())) for d, t in tag_tables.items()],
            tag_bits)


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
            {sw: list(rules.items()) for sw, rules in plan.dc_tables.items()},
            list(plan.ingress.items()),
            [(d, list(t.items())) for d, t in plan.tag_tables.items()], plan.tag_bits)


def assert_counts_and_renders_stand(plan, dsp):
    """The switch counts list the rendered tables' lengths in their order,
    and editing the assignment or a rendering after compiling changes no
    later rendering and no plan file."""
    want = plan_state(plan)
    assert list(plan.rules_by_switch().items()) == [
        (sw, len(rules)) for sw, rules in plan.dc_tables.items()]
    assert plan.max_switch_rules() == max(map(len, plan.dc_tables.values()), default=0)
    dsp.f[...] = 0.5
    for splits in plan.wide_area.values():
        splits.append((99, 0.5))
    for render in (plan.wide_area, plan.dc_tables, plan.tag_tables):
        for value in render.values():
            value.clear()
    plan.ingress.clear()
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


def numbered_pools(assign, physical, lib, pools, rewind):
    """`assign` every graph in sorted order into `pools`. With `rewind`
    (i, tag), the counter is set back before graph i % graphs to a tag in 1
    .. the counter, so two graphs' tags may overlap."""
    keys = sorted(physical)
    for i, key in enumerate(keys):
        if rewind is not None and i == rewind[0] % len(keys):
            pools.next_tag = 1 + rewind[1] % pools.next_tag
        assign(physical[key], lib[key[0]], pools)
    return pools


REWINDS = st.none() | st.tuples(st.integers(0, 200), st.integers(0, 10**6))


class TestMatchesLinearReference:
    @settings(max_examples=120)
    @given(case=capacity_bound_cases(), ceil=st.booleans(), rewind=REWINDS)
    def test_tag_pools(self, case, ceil, rewind):
        topo, traffic, lib = case
        dsp = dsp_greedy(topo, traffic, lib, ceil_per_assignment=ceil)
        got, want = TagPool(), ReferencePools()
        keys = sorted(dsp.physical)
        for i, key in enumerate(keys):
            if rewind is not None and i == rewind[0] % len(keys):
                got.next_tag = want.next_tag = 1 + rewind[1] % got.next_tag
            assert assign_tags(dsp.physical[key], lib[key[0]], got) is got
            reference_assign_tags(dsp.physical[key], lib[key[0]], want)
            assert pool_state(got, dsp.physical) == pool_state(want)
            assert got.max_tag == max([t for p in want.pools.values() for t in p], default=0)
        for (vm, c), tags in want.pools.items():
            assert got.pool(vm, c) == tags
        # One index past each node's last instance has no pool in either.
        for vm, c in {((*vm[:3], dsp.physical[vm[:2]].counts[vm[2]]), c) for vm, c in want.pools}:
            for pools in (got, want):
                with pytest.raises(CapacityError):
                    pools.pool(vm, c)
        for vm in {vm for vm, _c in want.pools}:
            top = max(c for v, c in want.pools if v == vm)
            for c in (-1, top + 1):
                with pytest.raises(CapacityError):
                    got.pool(vm, c)
        # Each read of a pool is a list of its own: editing one edits no
        # other pool and no later read.
        for (vm, c), tags in want.pools.items():
            got.pool(vm, c).append(-1)
            assert got.pool(vm, c) == tags

    def test_pools_for_more_vms_give_rules_to_the_placed_ones(self):
        lib = (two_branch_graph(),)
        topo = small_topo()
        dsp = dsp_greedy(topo, np.array([[40.0]]), lib)
        ssps = place_all(topo, dsp, lib)
        pg = dsp.physical[(0, 0)]
        more = replace(pg, counts={node: n + 1 for node, n in pg.counts.items()})
        plan = synthesize_rules(dsp, ssps, assign_tags(more, lib[0]), lib)
        want = reference_synthesize_rules(dsp, ssps, reference_assign_tags(more, lib[0]), lib)
        assert plan_state(plan) == reference_state(*want)
        assert plan.tag_runs == {0: {1: (3, (0, 0, 1)), 4: (6, (0, 0, 2)), 7: (8, None)}}

    @settings(max_examples=200)
    @given(case=capacity_bound_cases(), ceil=st.booleans(), rewind=REWINDS, data=st.data())
    def test_plans(self, case, ceil, rewind, data):
        topo, traffic, lib = case
        dsp = dsp_greedy(topo, traffic, lib, ceil_per_assignment=ceil)
        try:
            ssps = place_all(topo, dsp, lib)
        except PlacementError:
            return
        pools = numbered_pools(assign_tags, dsp.physical, lib, TagPool(), rewind)
        ref_pools = numbered_pools(reference_assign_tags, dsp.physical, lib,
                                   ReferencePools(), rewind)
        # Without a rewind, sometimes take away a graph's placement or one
        # node's run of VMs on one server, so the unplaced-VM errors are
        # compared too. The library checks a graph's placement before its
        # tags, and the reference checks them VM by VM, so their first error
        # may differ when both faults are present.
        if rewind is None and ssps and data.draw(st.booleans()):
            victim = data.draw(st.sampled_from(ssps))
            if data.draw(st.booleans()) or not victim.n_srv:
                ssps = [r for r in ssps if r is not victim]
            else:
                del victim.n_srv[data.draw(st.sampled_from(sorted(victim.n_srv)))]
        got = outcome(synthesize_rules, dsp, ssps, pools, lib)
        want = outcome(reference_synthesize_rules, dsp, ssps, ref_pools, lib)
        if isinstance(want[0], type):
            assert got == want
        else:
            assert plan_state(got) == reference_state(*want)
            assert (library_pins(got, dsp.physical, pools, lib)
                    == reference_pins(dsp.physical, ref_pools, lib))
            assert_counts_and_renders_stand(got, dsp)


def compile_inputs(nodes, seed):
    """synthesize_rules' arguments for every builtin graph from every pop of
    a generated topology, at 0.1-3 Gbps per cell."""
    topo = generate_topology(nodes, dc_slot_capacity=4000, seed=seed)
    lib = builtin_library()
    traffic = np.random.default_rng(seed).uniform(0.1, 3.0, size=(len(topo.pops), len(lib)))
    dsp = dsp_greedy(topo, traffic, lib)
    ssps = place_all(topo, dsp, lib)
    return dsp, ssps, build_tag_pools(dsp.physical, lib), lib


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
            dsp, ssps, _pools, lib = args
            ref_pools = numbered_pools(reference_assign_tags, dsp.physical, lib,
                                       ReferencePools(), None)
            assert (plan_state(synthesize_rules(*args)) == reference_state(
                *reference_synthesize_rules(dsp, ssps, ref_pools, lib)))
