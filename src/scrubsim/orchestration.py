"""Proactive tag-based forwarding: tag pools, rule synthesis, rule counting.

Every VM instance of a non-root logical node gets an identity tag. A
logical node's pool for an output context holds the tags of all downstream
instances; every instance of the node picks uniformly from that one pool,
which load-balances without a dedicated middlebox. Forward-to-customer
contexts share one egress tag per (node, context). All rules are installed
before any traffic arrives, so rule tables never grow with flow counts.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass, field

import numpy as np

from .defense_graphs import AnnotatedGraph, AttackType, PhysicalGraph, ordered_graphs
from .errors import CapacityError, InputError, PinConflictError
from .resource_manager import DspResult, SspResult
from .topology import Topology

# A VM instance is identified by (attack id, dc id, node id, instance index)
# and its logical node by the first three.
VmKey = tuple[int, int, int, int]
NodeKey = tuple[int, int, int]


@dataclass
class TagPool:
    """Per (logical node, output context) candidate tags, which every
    instance of the node shares, plus the identity tag of every instance
    reachable through a pool."""
    pools: dict[tuple[NodeKey, int], list[int]] = field(default_factory=dict)
    instance_tags: dict[VmKey, int] = field(default_factory=dict)
    egress_tags: dict[tuple[int, int, int, int], int] = field(default_factory=dict)
    # egress key: (attack id, dc id, node id, context index)
    next_tag: int = 1

    def pool(self, vm: VmKey, context: int) -> list[int]:
        try:
            return self.pools[(vm[:3], context)]
        except KeyError:
            raise CapacityError(f"no tag pool for vm {vm} context {context}") from None

    @property
    def max_tag(self) -> int:
        return max((max(p) for p in self.pools.values() if p), default=0)


def assign_tags(pg: PhysicalGraph, lib: dict[AttackType, AnnotatedGraph],
                seed: int | None = None, pools: TagPool | None = None,
                max_bits: int | None = None) -> TagPool:
    """Allocate tags for one placed physical graph.

    Tag values are consecutive integers from the pool's counter (canonical
    order: node id, then instance index); a seed shuffles the numbering
    deterministically. Passing an existing TagPool keeps values unique
    across graphs and datacenters.
    """
    graph = lib[pg.attack]
    pools = pools if pools is not None else TagPool()
    a, d, counts = pg.attack.id, pg.dc_id, pg.counts
    nodes = sorted(i for i, c in counts.items() if c)

    roots, succ = graph._roots, graph._succ
    runs: dict[int, slice] = {}  # non-root node -> its instances' run of `values`
    vm_keys = []
    for node in nodes:
        if node not in roots:
            start = len(vm_keys)
            vm_keys += [(a, d, node, k) for k in range(counts[node])]
            runs[node] = slice(start, len(vm_keys))
    egress_keys = [(a, d, node, len(succ.get(node, ()))) for node in nodes
                   if graph.node(node).delivers]

    n_slots = len(vm_keys) + len(egress_keys)
    values = list(range(pools.next_tag, pools.next_tag + n_slots))
    if seed is not None:
        random.Random(seed).shuffle(values)
    pools.next_tag += n_slots
    if max_bits is not None and values and max(values) >= (1 << max_bits):
        raise CapacityError(
            f"tag space exhausted: need tag {max(values)} with only {max_bits} bits")

    pools.instance_tags.update(zip(vm_keys, values))
    pools.egress_tags.update(zip(egress_keys, values[len(vm_keys):]))

    # A successor's pool is a copy of its run of `values`, empty without VMs.
    for node in nodes:
        succs = succ.get(node, ())
        for c, s in enumerate(succs):
            run = runs.get(s)
            pools.pools[((a, d, node), c)] = [] if run is None else values[run]
        if graph._by_id[node].delivers:
            pools.pools[((a, d, node), len(succs))] = [
                pools.egress_tags[(a, d, node, len(succs))]]
    return pools


def build_tag_pools(physical: dict[tuple[int, int], PhysicalGraph],
                    lib: dict[AttackType, AnnotatedGraph],
                    seed: int | None = None) -> TagPool:
    """One deployment-wide pool covering every (attack, datacenter) graph."""
    pools = TagPool()
    for key in sorted(physical):
        assign_tags(physical[key], lib, seed=seed, pools=pools)
    return pools


def tag_space_bound(graphs: list[AnnotatedGraph], l_max: int,
                    k_max: int | None = None) -> tuple[int, int]:
    """Upper bound on distinct tag values and the bits to encode them.

    Counts the tag-emitting vertices (those with downstream edges) of every
    graph; each needs at most k_max contexts times l_max replica tags.
    """
    if l_max < 1:
        raise InputError("l_max must be >= 1")
    emitting = 0
    max_contexts = 1
    for g in graphs:
        count = 0
        for n in g.nodes:
            if g.successors(n.id):
                count += 1
                max_contexts = max(max_contexts, n.contexts)
        emitting += max(count, 1)  # a single-module graph still tags egress
    k = k_max if k_max is not None else max_contexts
    max_tags = k * l_max * emitting
    bits = math.ceil(math.log2(max_tags)) if max_tags > 1 else 0
    return max_tags, bits


def _jsonable(x):
    if isinstance(x, (tuple, list)):
        return [_jsonable(v) for v in x]
    return x


@dataclass
class ForwardingPlan:
    wide_area: dict[tuple[int, int], list[tuple[int, float]]]  # (e, a) -> [(d, weight)]
    # switch -> {match: action} in installation order. A match is ("flow" |
    # "tunnel" | "tag", value); an action is ("split", ((target, weight), ...)),
    # ("vm", key) or ("customer", None), and an ingress tunnel rule's split is
    # one tuple its graph's tunnels share.
    dc_tables: dict[str, dict[tuple[str, object], tuple[str, object]]]
    tag_bits: int
    bidi_pins: dict[int, tuple[int, VmKey]] = field(default_factory=dict)

    def rules_by_switch(self) -> dict[str, int]:
        return {sw: len(rules) for sw, rules in self.dc_tables.items()}

    def max_switch_rules(self) -> int:
        return max(self.rules_by_switch().values(), default=0)

    def to_json(self) -> dict:
        return {
            "wide_area": {
                f"e{e}-a{a}": [[d, w] for d, w in sorted(splits)]
                for (e, a), splits in sorted(self.wide_area.items())
            },
            "dc_tables": {
                sw: [{"switch": sw, "match": list(match),
                      "action": [action[0], _jsonable(action[1])]}
                     for match, action in rules.items()]
                for sw, rules in sorted(self.dc_tables.items())
            },
            "tag_bits": self.tag_bits,
            "bidi_pins": {str(t): [d, list(vm)] for t, (d, vm) in sorted(self.bidi_pins.items())},
        }

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")


@functools.lru_cache(maxsize=4)
def _shape_keys(n_pops: int, n_attacks: int, n_dcs: int) -> tuple:
    """Rule keys and switch names of a plan shape, and the wide-area pair and
    pop split of a cell sent whole to one datacenter: immutable, so shared."""
    pops, dcs = range(n_pops), range(n_dcs)
    flows = [[f"e{e}-a{a}" for a in range(n_attacks)] for e in pops]
    tunnels = [[f"tunnel-e{e}-d{d}" for d in dcs] for e in pops]
    return (tuple(tuple((e, a) for a in range(n_attacks)) for e in pops),
            tuple(tuple(("flow", name) for name in row) for row in flows),
            tuple(tuple(("tunnel", name) for name in row) for row in flows),
            tuple(tunnels), tuple(f"pop{e}" for e in pops),
            tuple(f"dc{d}" for d in dcs), tuple(f"dc{d}-ingress" for d in dcs),
            tuple((d, 1.0) for d in dcs),
            tuple(tuple(("split", ((name, 1.0),)) for name in row) for row in tunnels))


def synthesize_rules(dsp: DspResult, ssps: list[SspResult], pools: TagPool,
                     topo: Topology,
                     lib: dict[AttackType, AnnotatedGraph]) -> ForwardingPlan:
    """Compile the resource assignment into proactive forwarding state:
    ingress flow-spec rules splitting over tunnels, per-datacenter tag rules
    steering between VM instances, and egress rules toward the customer.

    Construction is a pure function of the assignment; no per-flow input is
    ever consulted.
    """
    graphs = ordered_graphs(lib)
    # VMs placed per node of each graph, numbered from 0 in placement order.
    placed_counts: dict[tuple[int, int], dict[int, int]] = {}
    for r in ssps:
        placed = placed_counts[(r.attack_id, r.dc_id)] = {}
        for (node, _rack, _srv), c in r.n_srv.items():
            placed[node] = placed.get(node, 0) + c
    n_attacks, n_dcs = dsp.f.shape[1:]
    (cells, flows, tunnels, tunnel_names, pop_sw, dc_sw, ingress_sw, whole_pairs,
     whole_splits) = _shape_keys(*dsp.f.shape)

    # Per switch, its match -> action table in installation order; a table
    # that gets no rule is dropped at the end. Pop and ingress matches are
    # unique by construction (one flow rule per (e, a) cell, one tunnel rule
    # per (e, a, d) cell); only tag matches come from the pools and can clash.
    tables: dict[str, dict[tuple[str, object], tuple[str, object]]] = {}
    # np.nonzero walks the (e, a, d) cells in row-major order, so wide_area
    # and the pop tables fill in ascending (e, a) order, each (e, a)'s splits
    # come out in ascending datacenter order and each (a, d)'s tunnel pops
    # ascend. A spilled cell's split action is rebuilt as its splits grow.
    wide_area: dict[tuple[int, int], list[tuple[int, float]]] = {}
    tunnel_pops = [[[] for _d in range(n_dcs)] for _a in range(n_attacks)]
    assigned = np.nonzero(dsp.f > 0)
    for e, a, d, w in zip(*(ix.tolist() for ix in assigned), dsp.f[assigned].tolist()):
        splits = wide_area.get(cells[e][a])
        if splits is None and w == 1.0:
            wide_area[cells[e][a]] = [whole_pairs[d]]
            action = whole_splits[e][d]
        else:
            if splits is None:
                splits = wide_area[cells[e][a]] = []
            splits.append((d, w))
            action = ("split", tuple((tunnel_names[e][dc], weight) for dc, weight in splits))
        tables.setdefault(pop_sw[e], {})[flows[e][a]] = action
        tunnel_pops[a][d].append(e)

    # Egress tags grouped by graph, in (attack, dc, node, context) order.
    egress: dict[tuple[int, int], list[int]] = {}
    for (ea, ed, _node, _ctx), tag in sorted(pools.egress_tags.items()):
        egress.setdefault((ea, ed), []).append(tag)

    for (a, d), pg in sorted(dsp.physical.items()):
        if pg.total_vms == 0:
            continue
        graph = graphs[a]
        placed = placed_counts.get((a, d))
        if placed is None:
            raise InputError(f"physical graph ({a},{d}) has no server placement")
        for node in (*graph.roots, *sorted(pg.counts)):
            if placed.get(node, 0) < pg.counts.get(node, 0):
                raise InputError(f"unplaced VM {(a, d, node, placed.get(node, 0))}")
        sw = dc_sw[d]
        root_targets = []
        for root in graph.roots:
            n_root = pg.counts.get(root, 0)
            weight = graph.external_fraction(root) / n_root if n_root else 0.0
            root_targets += [((a, d, root, k), weight) for k in range(n_root)]
        # Every tunnel into the graph splits the same way: one shared action.
        split = ("split", tuple(root_targets))
        ingress = tables.setdefault(ingress_sw[d], {})
        for e in tunnel_pops[a][d]:
            ingress[tunnels[e][a]] = split
        table = tables.setdefault(sw, {})
        for node in sorted(pg.counts):
            for k in range(pg.counts[node]):
                key = (a, d, node, k)
                tag = pools.instance_tags.get(key)
                if tag is not None:
                    match = ("tag", tag)
                    if match in table:
                        raise InputError(f"duplicate rule match {match} on {sw}")
                    table[match] = ("vm", key)
        for tag in egress.get((a, d), []):
            match = ("tag", tag)
            if match in table:
                raise InputError(f"duplicate rule match {match} on {sw}")
            table[match] = ("customer", None)

    max_tag = pools.max_tag
    tag_bits = math.ceil(math.log2(max_tag + 1)) if max_tag > 0 else 0
    return ForwardingPlan(wide_area=wide_area,
                          dc_tables={sw: t for sw, t in tables.items() if t},
                          tag_bits=tag_bits)


def rule_count_comparison(plan: ForwardingPlan, n_flows: int) -> tuple[int, int]:
    """Largest per-switch table in the plan versus one rule per flow."""
    if n_flows < 0:
        raise InputError("n_flows must be >= 0")
    return plan.max_switch_rules(), n_flows


def pin_bidirectional(plan: ForwardingPlan, outbound_tag: int, dc: int,
                      vm: VmKey) -> ForwardingPlan:
    """Steer reverse-direction traffic carrying `outbound_tag` to the VM that
    handles the forward direction. Idempotent per tag; remapping raises."""
    existing = plan.bidi_pins.get(outbound_tag)
    if existing is not None:
        if existing == (dc, vm):
            return plan
        raise PinConflictError(
            f"tag {outbound_tag} already pinned to {existing}, not ({dc}, {vm})")
    plan.bidi_pins[outbound_tag] = (dc, vm)
    return plan


def pin_bidirectional_for_graph(plan: ForwardingPlan, pg: PhysicalGraph,
                                pools: TagPool,
                                lib: dict[AttackType, AnnotatedGraph]) -> int:
    """Pin every outbound tag emitted by the graph's analysis VMs, mapping
    each tag to the downstream VM that will process the return traffic.
    No-op for unidirectional defense graphs. Returns the number of pins."""
    graph = lib[pg.attack]
    if not graph.bidirectional:
        return 0
    count = 0
    a, d = pg.attack.id, pg.dc_id
    # A pool tag names a VM of this graph's own (attack, dc), and identity
    # tags are unique, so the inverse over the graph's instances is exact.
    own = ((a, d, node, k) for node, c in pg.counts.items() for k in range(c))
    vm_of_tag = {pools.instance_tags[vm]: vm for vm in own if vm in pools.instance_tags}
    for node in sorted(pg.counts):
        if not pg.counts[node] or graph.node(node).kind != "analysis":
            continue
        for c in range(len(graph.successors(node))):
            for tag in pools.pools.get(((a, d, node), c), []):
                target = vm_of_tag.get(tag)
                if target is not None:
                    before = tag in plan.bidi_pins
                    pin_bidirectional(plan, tag, d, target)
                    if not before:
                        count += 1
    return count


def plan_realizes_edges(plan: ForwardingPlan, pg: PhysicalGraph, pools: TagPool,
                        lib: dict[AttackType, AnnotatedGraph]) -> list[str]:
    """Reachability check: every positive-weight annotated edge with
    instances on both ends must be realizable through pool tags and switch
    rules. Returns a list of human-readable gaps (empty when complete)."""
    graph = lib[pg.attack]
    a, d, counts = pg.attack.id, pg.dc_id, pg.counts
    table = plan.dc_tables.get(f"dc{d}", {})
    gaps = []
    for s, dst, w in graph.edges:
        if w <= 0 or not counts.get(s) or not counts.get(dst):
            continue
        c = graph.successors(s).index(dst)
        node: NodeKey = (a, d, s)
        tags = pools.pools.get((node, c), [])
        if not tags:
            gaps.append(f"node {node} has no pool for context {c}")
            continue
        reachable = set()
        for tag in tags:
            action = table.get(("tag", tag))
            if action is None:
                gaps.append(f"tag {tag} from node {node} has no switch rule")
            elif action[0] == "vm" and action[1][:3] == (a, d, dst):
                reachable.add(action[1][3])
        want = set(range(counts[dst]))
        if reachable != want:
            gaps.append(
                f"edge {s}->{dst}: node {node} reaches instances {sorted(reachable)} "
                f"of {sorted(want)}")
    return gaps
