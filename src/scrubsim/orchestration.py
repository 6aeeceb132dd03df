"""Proactive tag-based forwarding: tag pools, rule synthesis, rule counting.

Every VM instance of a non-root logical node gets an identity tag. A
logical node's pool for an output context holds the tags of all downstream
instances; every instance of the node picks uniformly from that one pool,
which load-balances without a dedicated middlebox. Forward-to-customer
contexts share one egress tag per (node, context). All rules are installed
before any traffic arrives, so rule tables never grow with flow counts.
A node's instances hold consecutive tags, so pools and tag rules are stored
as runs, and a tag's VM is found by arithmetic on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from . import config
from .defense_graphs import AnnotatedGraph, Library, PhysicalGraph
from .errors import CapacityError, InputError, PinConflictError
from .resource_manager import DspResult, SspResult

# A VM instance is identified by (attack id, dc id, node id, instance index)
# and its logical node by the first three.
VmKey = tuple[int, int, int, int]
NodeKey = tuple[int, int, int]


class GraphTags(NamedTuple):
    """One placed graph's tags. Each non-root node with VMs holds one run of
    consecutive identity tags, instance k holding the run's first tag plus
    k, and each delivering node with VMs one egress tag."""
    graph: AnnotatedGraph
    counts: dict[int, int]  # node with VMs -> its VMs, ascending by node
    runs: dict[int, tuple[int, int]]  # non-root node -> (first tag, VMs)
    egress: dict[int, int]  # delivering node -> its egress tag
    top: int  # the largest tag any of the graph's pools holds, or 0

    def run(self, node: int, context: int) -> tuple[int, int] | None:
        """The node's pool for an output context as (first tag, tags): a
        successor's run, empty when the successor has no VMs, or the egress
        tag; None when the node has no such pool. The node must have VMs."""
        succs = self.graph.successors.get(node, ())
        if 0 <= context < len(succs):
            return self.runs.get(succs[context], (0, 0))
        if context == len(succs) and node in self.egress:
            return self.egress[node], 1
        return None


@dataclass
class TagPool:
    """Every placed (attack, datacenter) graph's tags in allocation order,
    stored as runs. A logical node's pool for an output context is one run,
    which every instance of the node shares. `instance_tags` and
    `egress_tags` render the per-VM maps afresh on every read."""
    graphs: dict[tuple[int, int], GraphTags] = field(default_factory=dict)
    next_tag: int = 1

    @property
    def max_tag(self) -> int:
        """The largest tag any pool holds, or 0."""
        return max((g.top for g in self.graphs.values()), default=0)

    def pool(self, vm: VmKey, context: int) -> list[int]:
        g = self.graphs.get(vm[:2])
        placed = g is not None and 0 <= vm[3] < g.counts.get(vm[2], 0)
        run = g.run(vm[2], context) if placed else None
        if run is None:
            raise CapacityError(f"no tag pool for vm {vm} context {context}")
        return list(range(run[0], run[0] + run[1]))

    @property
    def instance_tags(self) -> dict[VmKey, int]:
        return {(a, d, node, k): first + k for (a, d), g in self.graphs.items()
                for node, (first, n) in g.runs.items() for k in range(n)}

    @property
    def egress_tags(self) -> dict[tuple[int, int, int, int], int]:
        """(attack id, dc id, node id, context index) -> egress tag."""
        return {(a, d, node, len(g.graph.successors[node])): tag
                for (a, d), g in self.graphs.items() for node, tag in g.egress.items()}


def assign_tags(pg: PhysicalGraph, graph: AnnotatedGraph,
                pools: TagPool | None = None) -> TagPool:
    """Allocate tags for one placed physical graph of `graph`.

    Tag values are consecutive integers from the pool's counter: the
    non-root nodes' runs by node id, then the egress tags by node id.
    Passing an existing TagPool keeps values unique across graphs and
    datacenters.
    """
    pools = pools if pools is not None else TagPool()
    all_counts = pg.counts
    counts = {i: all_counts[i] for i in sorted(all_counts) if all_counts[i]}
    if not counts.keys() <= graph.by_id.keys():
        graph.node(next(i for i in counts if i not in graph.by_id))  # raises InputError
    tag = pools.next_tag
    runs: dict[int, tuple[int, int]] = {}
    for node, n in counts.items():
        if node not in graph.roots:
            runs[node] = (tag, n)
            tag += n
    egress: dict[int, int] = {}
    for node in graph.delivering:
        if node in counts:
            egress[node] = tag
            tag += 1
    # The graph's largest pool tag: its last egress tag, or else the end of
    # the last run that some node's pool holds.
    top = tag - 1 if egress else max(
        (sum(runs[s]) - 1 for node in counts for s in graph.successors[node] if s in runs),
        default=0)
    pools.graphs[(pg.attack_id, pg.dc_id)] = GraphTags(graph, counts, runs, egress, top)
    pools.next_tag = tag
    return pools


def build_tag_pools(physical: dict[tuple[int, int], PhysicalGraph], lib: Library) -> TagPool:
    """One deployment-wide pool covering every (attack, datacenter) graph."""
    pools = TagPool()
    for a, d in sorted(physical):
        assign_tags(physical[(a, d)], lib[a], pools=pools)
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
            if g.successors[n.id]:
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
# A datacenter's tag rules as runs keyed by first tag, in installation
# order: first -> (stop, node) steers tags first..stop-1 to the node's
# instances 0, 1, ... in turn, or to the customer when the node is None.
TagRuns = dict[int, tuple[int, NodeKey | None]]


@dataclass(eq=False)  # plans compare by identity: numpy arrays have no truth value
class ForwardingPlan:
    """Proactive forwarding state with each split stored once: the positive
    cells as read-only (pop, attack, datacenter, weight) arrays in row-major
    order, which give every pop flow rule and ingress tunnel rule; per placed
    (attack, datacenter) graph, in sorted order, its roots' VM counts, which
    give the split all its tunnels share; and per datacenter its tag rules as
    runs. Rule counts are read from this state; `wide_area`, `ingress`,
    `tag_tables` and `dc_tables` render it afresh on every read."""
    shape: tuple[int, int, int]  # (pops, attacks, datacenters) of the assignment
    cells: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    # (attack id, dc id) -> the graph and the VMs of each of its roots
    roots: dict[tuple[int, int], tuple[AnnotatedGraph, tuple[int, ...]]]
    tag_runs: dict[int, TagRuns]  # datacenter id -> its tag rules
    tag_bits: int
    bidi_pins: dict[int, tuple[int, VmKey]] = field(default_factory=dict)

    def _counts(self) -> tuple[list[int], dict[int, int], dict[int, int]]:
        """Flow rules per pop, tunnel rules per ingress switch by datacenter
        in the order graphs are placed (one per positive cell), and tag rules
        per datacenter."""
        e, a, d, _w = self.cells
        n_pops, n_attacks, n_dcs = self.shape
        # Row-major order puts a spilled cell's splits side by side.
        first = np.ones(len(e), dtype=bool)
        first[1:] = (e[1:] != e[:-1]) | (a[1:] != a[:-1])
        flows = np.bincount(e[first], minlength=n_pops).tolist()
        tunnels = np.bincount(a * n_dcs + d, minlength=n_attacks * n_dcs).tolist()
        ingress: dict[int, int] = {}
        for ga, gd in self.roots:
            ingress[gd] = ingress.get(gd, 0) + tunnels[ga * n_dcs + gd]
        # A datacenter's tag rules: its runs' stops less their starts.
        tags = {gd: sum(map(itemgetter(0), runs.values())) - sum(runs)
                for gd, runs in self.tag_runs.items()}
        return flows, ingress, tags

    def rules_by_switch(self) -> dict[str, int]:
        """Rules per switch in the order of `dc_tables`, counted without
        rendering them."""
        flows, ingress, tags = self._counts()
        counts = {f"pop{p}": n for p, n in enumerate(flows) if n}
        for d, n in ingress.items():
            counts[f"dc{d}-ingress"] = n
            counts[f"dc{d}"] = tags[d]
        return {sw: n for sw, n in counts.items() if n}

    def max_switch_rules(self) -> int:
        flows, ingress, tags = self._counts()
        return max([*flows, *ingress.values(), *tags.values()], default=0)

    def _tag_rules(self, dc: int, first: int, stop: int) -> list[tuple[int, int, int | None]]:
        """The datacenter's rules for tags first..stop-1, ascending, as
        (first, stop, run) pieces: the first tag of the run whose rules match
        those tags, or None where no rule matches."""
        runs = self.tag_runs.get(dc, {})
        pieces = []
        while first < stop:
            end, hit = stop, None
            run = runs.get(first)
            if run is not None and run[0] > first:  # the tags start a run
                end, hit = min(run[0], stop), first
            else:
                for start, (run_stop, _node) in runs.items():
                    if start <= first < run_stop:
                        end, hit = min(run_stop, stop), start
                        break
                    if first < start < end:
                        end = start
            pieces.append((first, end, hit))
            first = end
        return pieces

    @property
    def wide_area(self) -> dict[tuple[int, int], list[tuple[int, float]]]:
        """(e, a) -> [(d, weight)] in ascending order, rendered afresh."""
        out: dict[tuple[int, int], list[tuple[int, float]]] = {}
        for e, a, d, w in zip(*(x.tolist() for x in self.cells)):
            out.setdefault((e, a), []).append((d, w))
        return out

    @property
    def ingress(self) -> dict[tuple[int, int], Action]:
        """(a, d) -> the split every tunnel into the graph shares, rendered
        afresh: each root's share over its VMs."""
        return {(a, d): ("split", tuple(((a, d, root, k), graph.external_fraction(root) / n)
                                        for root, n in zip(graph.roots, counts)
                                        for k in range(n)))
                for (a, d), (graph, counts) in self.roots.items()}

    @property
    def tag_tables(self) -> dict[int, dict[Match, Action]]:
        """Datacenter id -> its tag rules in installation order, rendered
        afresh."""
        return {d: {("tag", t): ("customer", None) if node is None else ("vm", (*node, t - first))
                    for first, (stop, node) in runs.items() for t in range(first, stop)}
                for d, runs in self.tag_runs.items()}

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
        tag_tables = self.tag_tables
        for (a, d), split in self.ingress.items():
            ingress = tables.setdefault(f"dc{d}-ingress", {})
            for e in tunnel_pops.get((a, d), ()):
                ingress[("tunnel", f"e{e}-a{a}")] = split
            if f"dc{d}" not in tables:
                tables[f"dc{d}"] = tag_tables[d]
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
        config.write_json(path, self.to_json())


def _refuse_clash(runs: TagRuns, first: int, stop: int, dc: int) -> None:
    """Refuse tags first..stop-1 when an earlier run at the datacenter holds
    one of them, naming the first such tag."""
    clash = min((max(first, start) for start, (end, _node) in runs.items()
                 if start < stop and first < end), default=None)
    if clash is not None:
        raise InputError(f"duplicate rule match {('tag', clash)} on dc{dc}")


def synthesize_rules(dsp: DspResult, ssps: list[SspResult], pools: TagPool,
                     lib: Library) -> ForwardingPlan:
    """Compile the resource assignment into proactive forwarding state:
    ingress flow-spec rules splitting over tunnels, per-datacenter tag rules
    steering between VM instances, and egress rules toward the customer.

    Construction is a pure function of the assignment; no per-flow input is
    ever consulted.
    """
    # VMs placed per node of each graph, numbered from 0 in placement order.
    placed_counts = {(r.attack_id, r.dc_id): r.placed for r in ssps}

    # The flat index walks the (e, a, d) cells in row-major order, so the
    # cells ascend by (e, a) and each (e, a)'s splits by datacenter. The
    # weights are a copy, so a later edit of dsp.f leaves the plan alone.
    flat = dsp.f.ravel()
    assigned = np.flatnonzero(flat > 0)
    cells = (*np.unravel_index(assigned, dsp.f.shape), flat[assigned])
    for x in cells:
        x.flags.writeable = False

    roots: dict[tuple[int, int], tuple[AnnotatedGraph, tuple[int, ...]]] = {}
    tag_runs: dict[int, TagRuns] = {}
    tops: dict[int, int] = {}  # datacenter id -> the end of its highest run
    for (a, d), pg in sorted(dsp.physical.items(), key=itemgetter(0)):
        counts = pg.counts
        if pg.total_vms == 0:
            continue
        graph = lib[a]
        placed = placed_counts.get((a, d))
        if placed is None:
            raise InputError(f"physical graph ({a},{d}) has no server placement")
        for node, n in counts.items():
            if placed.get(node, 0) < n:  # name the first short node, roots first
                short = next(i for i in (*graph.roots, *sorted(counts))
                             if placed.get(i, 0) < counts.get(i, 0))
                raise InputError(f"unplaced VM {(a, d, short, placed.get(short, 0))}")
        roots[(a, d)] = (graph, tuple([counts.get(root, 0) for root in graph.roots]))
        runs = tag_runs.setdefault(d, {})
        g = pools.graphs[(a, d)]
        # A VM gets a rule when the pools tagged it; each egress tag steers
        # to the customer. Tags are drawn ascending, so a run that starts at
        # or above every earlier run at the datacenter cannot clash.
        # Plain comparisons stand in for min() and max() here: on a dense
        # epoch their calls took about a fifth of synthesize_rules' time.
        top = tops.get(d, 0)
        for node, (first, n) in g.runs.items():
            placed_vms = counts.get(node, 0)
            stop = first + (n if n < placed_vms else placed_vms)
            if first < stop:
                if first < top:
                    _refuse_clash(runs, first, stop, d)
                runs[first] = (stop, (a, d, node))
                if stop > top:
                    top = stop
        for tag in g.egress.values():
            if tag < top:
                _refuse_clash(runs, tag, tag + 1, d)
            runs[tag] = (tag + 1, None)
            if tag >= top:
                top = tag + 1
        tops[d] = top

    max_tag = pools.max_tag
    tag_bits = math.ceil(math.log2(max_tag + 1)) if max_tag > 0 else 0
    return ForwardingPlan(shape=dsp.f.shape, cells=cells, roots=roots,
                          tag_runs=tag_runs, tag_bits=tag_bits)


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
                                pools: TagPool, graph: AnnotatedGraph) -> int:
    """Pin every outbound tag emitted by the analysis VMs of a physical graph
    of `graph`, mapping each tag to the downstream VM that will process the
    return traffic. No-op for unidirectional defense graphs. Returns the
    number of pins."""
    if not graph.bidirectional:
        return 0
    g = pools.graphs[(pg.attack_id, pg.dc_id)]
    d = pg.dc_id
    # An analysis node's pools are its successors' runs. The datacenter's
    # tag rules map each identity tag to its VM; an egress tag's customer
    # rule is no pin target.
    runs, pins = plan.tag_runs.get(d, {}), plan.bidi_pins
    before = len(pins)
    for node, succs in graph.analysis_successors.items():
        if node not in g.counts or not pg.counts.get(node):
            continue
        for s in succs:
            lo, n = g.runs.get(s, (0, 0))
            for first, stop, start in plan._tag_rules(d, lo, lo + n):
                target = runs[start][1]
                for tag in range(first, stop):
                    pin = (d, (*target, tag - start))
                    if pins.setdefault(tag, pin) != pin:
                        pin_bidirectional(plan, tag, *pin)  # raises PinConflictError
    return len(pins) - before


def plan_realizes_edges(plan: ForwardingPlan, pg: PhysicalGraph, pools: TagPool,
                        lib: Library) -> list[str]:
    """Reachability check: every positive-weight annotated edge with
    instances on both ends must be realizable through pool tags and switch
    rules. Returns a list of human-readable gaps (empty when complete)."""
    a, d, counts = pg.attack_id, pg.dc_id, pg.counts
    graph = lib[a]
    g = pools.graphs.get((a, d))
    runs = plan.tag_runs.get(d, {})
    gaps = []
    for s, dst, w in graph.edges:
        if w <= 0 or not counts.get(s) or not counts.get(dst):
            continue
        c = graph.successors[s].index(dst)
        node: NodeKey = (a, d, s)
        run = None if g is None else g.run(s, c)
        if not run or not run[1]:
            gaps.append(f"node {node} has no pool for context {c}")
            continue
        reachable = set()
        for first, stop, start in plan._tag_rules(d, run[0], run[0] + run[1]):
            if start is None:
                gaps += [f"tag {tag} from node {node} has no switch rule"
                         for tag in range(first, stop)]
            elif runs[start][1] == (a, d, dst):
                reachable.update(range(first - start, stop - start))
        want = set(range(counts[dst]))
        if reachable != want:
            gaps.append(
                f"edge {s}->{dst}: node {node} reaches instances {sorted(reachable)} "
                f"of {sorted(want)}")
    return gaps
