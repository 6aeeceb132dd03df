"""Proactive tag-based forwarding: tag pools, rule synthesis, rule counting.

Every VM instance of a non-root logical node gets an identity tag. A
logical node's pool for an output context holds the tags of all downstream
instances; every instance of the node picks uniformly from that one pool,
which load-balances without a dedicated middlebox. Forward-to-customer
contexts share one egress tag per (node, context). All rules are installed
before any traffic arrives, so rule tables never grow with flow counts.
"""

from __future__ import annotations

import json
import math
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
                pools: TagPool | None = None) -> TagPool:
    """Allocate tags for one placed physical graph.

    Tag values are consecutive integers from the pool's counter (canonical
    order: node id, then instance index). Passing an existing TagPool keeps
    values unique across graphs and datacenters.
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
    pools.next_tag += n_slots

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
                    lib: dict[AttackType, AnnotatedGraph]) -> TagPool:
    """One deployment-wide pool covering every (attack, datacenter) graph."""
    pools = TagPool()
    for key in sorted(physical):
        assign_tags(physical[key], lib, pools=pools)
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


# A switch's rules map match -> action in installation order. A match is
# ("flow" | "tunnel" | "tag", value); an action is ("split", ((target,
# weight), ...)), ("vm", key) or ("customer", None).
Match = tuple[str, object]
Action = tuple[str, object]


@dataclass(eq=False)  # plans compare by identity: numpy arrays have no truth value
class ForwardingPlan:
    """Proactive forwarding state with each split stored once: the positive
    cells as read-only (pop, attack, datacenter, weight) arrays in row-major
    order, which give every pop flow rule and ingress tunnel rule; per placed
    (attack, datacenter) graph, in sorted order, the split all its tunnels
    share; and the tag tables, kept as rules because only tag matches can
    clash. Rule counts are read from this state; `wide_area` and `dc_tables`
    render it afresh on every read."""
    shape: tuple[int, int, int]  # (pops, attacks, datacenters) of the assignment
    cells: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    ingress: dict[tuple[int, int], Action]
    tag_tables: dict[int, dict[Match, Action]]  # datacenter id -> tag rules
    tag_bits: int
    bidi_pins: dict[int, tuple[int, VmKey]] = field(default_factory=dict)

    def _counts(self) -> tuple[list[int], dict[int, int]]:
        """Flow rules per pop, and tunnel rules per ingress switch by
        datacenter in the order graphs are placed: one per positive cell."""
        e, a, d, _w = self.cells
        n_pops, n_attacks, n_dcs = self.shape
        # Row-major order puts a spilled cell's splits side by side.
        first = np.ones(len(e), dtype=bool)
        first[1:] = (e[1:] != e[:-1]) | (a[1:] != a[:-1])
        flows = np.bincount(e[first], minlength=n_pops).tolist()
        tunnels = np.bincount(a * n_dcs + d, minlength=n_attacks * n_dcs).tolist()
        ingress: dict[int, int] = {}
        for ga, gd in self.ingress:
            ingress[gd] = ingress.get(gd, 0) + tunnels[ga * n_dcs + gd]
        return flows, ingress

    def rules_by_switch(self) -> dict[str, int]:
        """Rules per switch in the order of `dc_tables`, counted without
        rendering them."""
        flows, ingress = self._counts()
        counts = {f"pop{p}": n for p, n in enumerate(flows) if n}
        for d, n in ingress.items():
            counts[f"dc{d}-ingress"] = n
            counts[f"dc{d}"] = len(self.tag_tables[d])
        return {sw: n for sw, n in counts.items() if n}

    def max_switch_rules(self) -> int:
        flows, ingress = self._counts()
        return max([*flows, *ingress.values(), *map(len, self.tag_tables.values())], default=0)

    @property
    def wide_area(self) -> dict[tuple[int, int], list[tuple[int, float]]]:
        """(e, a) -> [(d, weight)] in ascending order, rendered afresh."""
        out: dict[tuple[int, int], list[tuple[int, float]]] = {}
        for e, a, d, w in zip(*(x.tolist() for x in self.cells)):
            out.setdefault((e, a), []).append((d, w))
        return out

    @property
    def dc_tables(self) -> dict[str, dict[Match, Action]]:
        """Every switch's rules, rendered afresh in installation order: the
        pop switches, then per placed graph its datacenter's ingress switch
        and tag switch; a switch without rules is left out."""
        tables: dict[str, dict[Match, Action]] = {}
        tunnel_pops: dict[tuple[int, int], list[int]] = {}
        for (e, a), splits in self.wide_area.items():
            tables.setdefault(f"pop{e}", {})[("flow", f"e{e}-a{a}")] = (
                "split", tuple((f"tunnel-e{e}-d{d}", w) for d, w in splits))
            for d, _w in splits:
                tunnel_pops.setdefault((a, d), []).append(e)
        for (a, d), split in self.ingress.items():
            ingress = tables.setdefault(f"dc{d}-ingress", {})
            for e in tunnel_pops.get((a, d), ()):
                ingress[("tunnel", f"e{e}-a{a}")] = split
            if f"dc{d}" not in tables:
                tables[f"dc{d}"] = dict(self.tag_tables[d])
        return {sw: t for sw, t in tables.items() if t}

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

    # np.nonzero walks the (e, a, d) cells in row-major order, so the cells
    # ascend by (e, a) and each (e, a)'s splits by datacenter. The weights
    # are a copy, so a later edit of dsp.f leaves the plan alone.
    assigned = np.nonzero(dsp.f > 0)
    cells = (*assigned, dsp.f[assigned])
    for x in cells:
        x.flags.writeable = False

    # Egress tags grouped by graph, in (attack, dc, node, context) order.
    egress: dict[tuple[int, int], list[int]] = {}
    for (ea, ed, _node, _ctx), tag in sorted(pools.egress_tags.items()):
        egress.setdefault((ea, ed), []).append(tag)

    ingress: dict[tuple[int, int], Action] = {}
    tag_tables: dict[int, dict[Match, Action]] = {}
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
        root_targets = []
        for root in graph.roots:
            n_root = pg.counts.get(root, 0)
            weight = graph.external_fraction(root) / n_root if n_root else 0.0
            root_targets += [((a, d, root, k), weight) for k in range(n_root)]
        # Every tunnel into the graph splits the same way: one shared action.
        ingress[(a, d)] = ("split", tuple(root_targets))
        table = tag_tables.setdefault(d, {})
        rules = [(pools.instance_tags.get((a, d, node, k)), ("vm", (a, d, node, k)))
                 for node in sorted(pg.counts) for k in range(pg.counts[node])]
        rules += [(tag, ("customer", None)) for tag in egress.get((a, d), [])]
        for tag, action in rules:
            if tag is not None:
                match = ("tag", tag)
                if match in table:
                    raise InputError(f"duplicate rule match {match} on dc{d}")
                table[match] = action

    max_tag = pools.max_tag
    tag_bits = math.ceil(math.log2(max_tag + 1)) if max_tag > 0 else 0
    return ForwardingPlan(shape=dsp.f.shape, cells=cells, ingress=ingress,
                          tag_tables=tag_tables, tag_bits=tag_bits)


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
    # The datacenter's tag table maps each identity tag to its VM; an
    # egress tag's customer action is no pin target.
    table = plan.tag_tables.get(d, {})
    for node in sorted(pg.counts):
        if not pg.counts[node] or graph.node(node).kind != "analysis":
            continue
        for c in range(len(graph.successors(node))):
            for tag in pools.pools.get(((a, d, node), c), []):
                action = table.get(("tag", tag), ("customer", None))
                if action[0] == "vm":
                    count += tag not in plan.bidi_pins
                    pin_bidirectional(plan, tag, d, action[1])
    return count


def plan_realizes_edges(plan: ForwardingPlan, pg: PhysicalGraph, pools: TagPool,
                        lib: dict[AttackType, AnnotatedGraph]) -> list[str]:
    """Reachability check: every positive-weight annotated edge with
    instances on both ends must be realizable through pool tags and switch
    rules. Returns a list of human-readable gaps (empty when complete)."""
    graph = lib[pg.attack]
    a, d, counts = pg.attack.id, pg.dc_id, pg.counts
    table = plan.tag_tables.get(d, {})
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
