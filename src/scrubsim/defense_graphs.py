"""Defense strategy graphs: annotated DAGs of analysis/response modules.

An annotated graph carries per-edge traffic fractions (relative to the
graph's total input) and per-module VM processing capacities. VM demand can
be computed module-by-module (fine-grained scaling) or by replicating the
whole graph as a unit (monolithic scaling).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import reduce

from . import config
from .errors import InputError

ANALYSIS = "analysis"
RESPONSE = "response"

# Default per-VM throughput (Gbps): analysis does deep inspection and is
# heavier than response actions like logging or dropping.
DEFAULT_P = {ANALYSIS: 5.0, RESPONSE: 10.0}

# Slack taken off before a VM count is rounded up, so float noise on an
# exact multiple of a module's capacity does not add a VM.
CEIL_EPS = 1e-9


def vms(demand):
    """Whole VMs for a VM demand: ceil(demand - CEIL_EPS), as a floor
    division, which takes arrays, and floats without numpy's per-call cost."""
    return -((CEIL_EPS - demand) // 1)


@dataclass(frozen=True)
class AttackType:
    id: int
    name: str


@dataclass(frozen=True)
class LogicalModule:
    id: int
    name: str
    kind: str  # "analysis" | "response"
    capacity_gbps: float  # per-VM processing capacity for this module
    contexts: int = 1  # distinct output tags this module emits
    delivers: bool = False  # has a forward-to-customer output

    def __post_init__(self):
        if self.kind not in (ANALYSIS, RESPONSE):
            raise InputError(f"module {self.name}: unknown kind {self.kind!r}")
        if not (math.isfinite(self.capacity_gbps) and self.capacity_gbps > 0):
            raise InputError(f"module {self.name}: capacity must be finite and > 0")
        if self.contexts < 1:
            raise InputError(f"module {self.name}: contexts must be >= 1")


# SSP's node order: (node id, predecessor ids) for each node it places.
SspOrder = tuple[tuple[int, tuple[int, ...]], ...]


@dataclass
class AnnotatedGraph:
    attack: AttackType
    nodes: list[LogicalModule]
    edges: list[tuple[int, int, float]]  # (src node id, dst node id, weight)
    bidirectional: bool = False

    def __post_init__(self):
        # The graph is not changed after construction, so its adjacency,
        # shares, VM rates, compute factor and SSP node orders (`ssp_order`)
        # are derived once, and callers read them as they are.
        # `predecessors` and ascending `successors` map every node id to a
        # tuple; `roots` are in node order.
        self.by_id = {n.id: n for n in self.nodes}
        pred: dict[int, list[int]] = {}
        succ: dict[int, list[int]] = {}
        incoming: dict[int, float] = {}
        for s, d, w in self.edges:
            pred.setdefault(d, []).append(s)
            succ.setdefault(s, []).append(d)
            incoming[d] = incoming.get(d, 0) + w  # sequential_sum's order
        self.predecessors = {i: tuple(pred.get(i, ())) for i in self.by_id}
        self.successors = {i: tuple(sorted(succ.get(i, ()))) for i in self.by_id}
        self.roots = tuple(n.id for n in self.nodes if n.id not in pred)
        # By ascending id, the order in which tags and pins visit nodes.
        by_id = sorted(self.by_id.items())
        self.delivering = tuple(i for i, n in by_id if n.delivers)
        self.analysis_successors = {i: self.successors[i] for i, n in by_id if n.kind == ANALYSIS}
        # A node's share is its incoming edge weight; roots have none and
        # split the external input evenly.
        self._share = {n.id: incoming[n.id] if n.id in pred else self.external_fraction(n.id)
                       for n in self.nodes}
        self._ssp_orders: dict[frozenset[int], tuple[SspOrder, bool]] = {}
        self.validate()
        # (node id, VMs per Gbps of graph input) in node order: the node's
        # share over its per-VM capacity.
        self.vm_rates = tuple((n.id, self._share[n.id] / n.capacity_gbps) for n in self.nodes)
        # VM slots required per Gbps of graph input: the VM rates summed in
        # node order.
        self.compute_factor = sequential_sum(r for _i, r in self.vm_rates)

    def node(self, i: int) -> LogicalModule:
        try:
            return self.by_id[i]
        except KeyError:
            raise InputError(f"unknown node id {i} in {self.attack.name} graph") from None

    def ssp_order(self, provisioned: frozenset[int]) -> tuple[SspOrder, bool]:
        """(node id, predecessor ids) for each node in `provisioned`, the
        nodes given VMs, in the order SSP places them: next is always the
        ready node (each predecessor placed or given no VMs) of highest
        per-VM capacity, lowest id on ties. Also whether the order is
        chained: every node after the first has a provisioned predecessor.
        Memoised per set; an id the graph lacks, or a cycle that leaves no
        node ready, raises InputError."""
        memo = self._ssp_orders.get(provisioned)
        if memo is None:
            pending, order = set(provisioned), []
            placed = {n.id for n in self.nodes} - pending
            while pending:
                i = max((i for i in pending if placed.issuperset(self.predecessors.get(i, ()))),
                        key=lambda i: (self.node(i).capacity_gbps, -i), default=None)
                if i is None:
                    raise InputError(f"{self.attack.name}: graph contains a cycle")
                order.append((i, self.predecessors.get(i, ())))
                pending.remove(i)
                placed.add(i)
            chained = all(provisioned.intersection(preds) for _i, preds in order[1:])
            memo = self._ssp_orders[provisioned] = (tuple(order), chained)
        return memo

    def external_fraction(self, i: int) -> float:
        """External input splits evenly over the roots."""
        return 1.0 / len(self.roots) if i in self.roots else 0.0

    def share(self, i: int) -> float:
        """Fraction of the graph's total input traffic this node processes."""
        if i not in self._share:
            self.node(i)  # raises InputError for an unknown id
        return self._share[i]

    def validate(self) -> None:
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise InputError(f"{self.attack.name}: duplicate node ids")
        if not self.nodes:
            raise InputError(f"{self.attack.name}: graph has no nodes")
        for s, d, w in self.edges:
            if s not in self.by_id or d not in self.by_id:
                raise InputError(f"{self.attack.name}: edge ({s},{d}) references unknown node")
            if not (0.0 <= w <= 1.0):
                raise InputError(f"{self.attack.name}: edge ({s},{d}) weight {w} outside [0,1]")
        self.ssp_order(frozenset(self.by_id))  # raises InputError on a cycle
        # Traffic may shrink at a node (drops) but never amplify.
        for n in self.nodes:
            out = sum(w for s, _d, w in self.edges if s == n.id)
            if out > self.share(n.id) + 1e-9:
                raise InputError(
                    f"{self.attack.name}: node {n.name} emits {out:.4f} "
                    f"but only receives {self.share(n.id):.4f}"
                )
        for n in self.nodes:
            needed = len(self.successors[n.id]) + (1 if n.delivers else 0)
            if n.contexts < max(needed, 1):
                raise InputError(
                    f"{self.attack.name}: node {n.name} needs >= {needed} contexts, has {n.contexts}"
                )


@dataclass
class PhysicalGraph:
    """A graph provisioned in one datacenter: how many VMs run each logical
    node. The resource manager lists every node, in graph order, zeros
    included; a node left out runs none. Instance k of node i is the VM
    (attack id, dc id, i, k), for k below the node's count. The counts are
    not changed after construction, so `total_vms` is summed once."""
    attack_id: int
    dc_id: int
    traffic_gbps: float
    counts: dict[int, int]  # node id -> VM count
    total_vms: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.total_vms = sum(self.counts.values())


def _check_volume(t_gbps: float) -> None:
    if not (math.isfinite(t_gbps) and t_gbps >= 0):
        raise InputError(f"t_gbps must be >= 0 and finite, not {t_gbps}")


def node_demand_vms(g: AnnotatedGraph, i: int, t_gbps: float) -> int:
    """Minimum VM count so aggregate capacity covers the node's traffic share."""
    _check_volume(t_gbps)
    return int(vms(t_gbps * g.share(i) / g.node(i).capacity_gbps))


def sequential_sum(items):
    """Add from 0 in sequence, as builtin `sum` did for floats before Python
    3.12 compensated it, so that pinned totals do not depend on the interpreter."""
    return reduce(operator.add, items, 0)


def monolithic_demand_vms(g: AnnotatedGraph, t_gbps: float) -> int:
    """Number of whole-graph replicas needed when the graph scales as a unit.

    A replica's throughput is pinned by its bottleneck module; each replica
    deploys every module, so total VMs are this count times len(g.nodes).
    """
    _check_volume(t_gbps)
    bottleneck = min(
        n.capacity_gbps / g.share(n.id) for n in g.nodes if g.share(n.id) > 0
    )
    return int(vms(t_gbps / bottleneck))


# ---------------------------------------------------------------------------
# Built-in defense library

SYN_FLOOD = AttackType(0, "syn_flood")
DNS_AMPLIFICATION = AttackType(1, "dns_amplification")
UDP_FLOOD = AttackType(2, "udp_flood")
ELEPHANT_FLOW = AttackType(3, "elephant_flow")

BUILTIN_ATTACKS = (SYN_FLOOD, DNS_AMPLIFICATION, UDP_FLOOD, ELEPHANT_FLOW)

# A defense library: graph a defends attack id a.
Library = tuple[AnnotatedGraph, ...]


def builtin_library() -> Library:
    """Four stock defense graphs with documented default weights and
    capacities (analysis 5 Gbps/VM, response 10 Gbps/VM; splits even unless
    a published figure gives the fraction, e.g. 0.52/0.48 for UDP).
    """
    pa, pr = DEFAULT_P[ANALYSIS], DEFAULT_P[RESPONSE]
    third = 1.0 / 3.0

    syn = AnnotatedGraph(
        attack=SYN_FLOOD,
        nodes=[
            LogicalModule(0, "a_syn", ANALYSIS, pa, contexts=3),
            LogicalModule(1, "r_ok", RESPONSE, pr, contexts=1, delivers=True),
            LogicalModule(2, "r_syn_proxy", RESPONSE, pr, contexts=1, delivers=True),
            LogicalModule(3, "r_drop", RESPONSE, pr, contexts=1),
        ],
        edges=[(0, 1, third), (0, 2, third), (0, 3, third)],
    )
    dns = AnnotatedGraph(
        attack=DNS_AMPLIFICATION,
        nodes=[
            LogicalModule(0, "a_lightcheck", ANALYSIS, pa, contexts=2),
            LogicalModule(1, "a_match_request", ANALYSIS, pa, contexts=2),
            LogicalModule(2, "r_forward", RESPONSE, pr, contexts=1, delivers=True),
            LogicalModule(3, "r_log", RESPONSE, pr, contexts=1),
            LogicalModule(4, "r_drop", RESPONSE, pr, contexts=1),
        ],
        edges=[(0, 1, 0.5), (0, 2, 0.5), (1, 3, 0.25), (1, 4, 0.25)],
        bidirectional=True,
    )
    udp = AnnotatedGraph(
        attack=UDP_FLOOD,
        nodes=[
            LogicalModule(0, "a_udp", ANALYSIS, pa, contexts=2),
            LogicalModule(1, "r_ok", RESPONSE, pr, contexts=1, delivers=True),
            LogicalModule(2, "r_log", RESPONSE, pr, contexts=1),
            LogicalModule(3, "r_limit", RESPONSE, pr, contexts=1, delivers=True),
        ],
        edges=[(0, 1, 0.52), (0, 2, 0.48), (2, 3, 0.48)],
    )
    elephant = AnnotatedGraph(
        attack=ELEPHANT_FLOW,
        nodes=[
            LogicalModule(0, "a_elephant", ANALYSIS, pa, contexts=2),
            LogicalModule(1, "r_drop", RESPONSE, pr, contexts=1),
            LogicalModule(2, "r_forward", RESPONSE, pr, contexts=1, delivers=True),
        ],
        edges=[(0, 1, 0.5), (0, 2, 0.5)],
    )
    return (syn, dns, udp, elephant)


# ---------------------------------------------------------------------------
# Graph config files (JSON)

def graph_to_config(g: AnnotatedGraph) -> dict:
    return {
        "attack": {"id": g.attack.id, "name": g.attack.name},
        "bidirectional": g.bidirectional,
        "nodes": [
            {
                "id": n.id, "name": n.name, "kind": n.kind,
                "capacity_gbps": n.capacity_gbps, "contexts": n.contexts,
                "delivers": n.delivers,
            }
            for n in g.nodes
        ],
        "edges": [{"from": s, "to": d, "weight": w} for s, d, w in g.edges],
    }


def graph_from_config(cfg) -> AnnotatedGraph:
    try:
        cfg = config.record(cfg, "graph", ("attack", "nodes", "edges"), ("bidirectional",))
        attack_cfg = config.record(cfg["attack"], "attack", ("id", "name"))
        attack = AttackType(config.whole(attack_cfg["id"], "attack id"),
                            config.string(attack_cfg["name"], "attack name"))
        nodes = []
        for k, n in enumerate(config.items(cfg["nodes"], "nodes")):
            n = config.record(n, f"node {k}", ("id", "name", "kind", "capacity_gbps"),
                              ("contexts", "delivers"))
            nodes.append(LogicalModule(
                id=config.whole(n["id"], "node id"), name=config.string(n["name"], "node name"),
                kind=config.string(n["kind"], "node kind"),
                capacity_gbps=config.real(n["capacity_gbps"], "capacity_gbps"),
                contexts=config.whole(n.get("contexts", 1), "contexts"),
                delivers=config.flag(n.get("delivers", False), "delivers"),
            ))
        edges = []
        for k, e in enumerate(config.items(cfg["edges"], "edges")):
            e = config.record(e, f"edge {k}", ("from", "to", "weight"))
            edges.append((config.whole(e["from"], "edge from"), config.whole(e["to"], "edge to"),
                          config.real(e["weight"], "edge weight")))
        bidirectional = config.flag(cfg.get("bidirectional", False), "bidirectional")
    except InputError as exc:
        raise InputError(f"malformed graph config: {exc}") from exc
    return AnnotatedGraph(attack=attack, nodes=nodes, edges=edges, bidirectional=bidirectional)


def _library(cfg) -> Library:
    """The file's graphs in attack-id order; the ids must be 0, 1, ... once each."""
    graphs = config.record(cfg, "graph library", ("graphs",))["graphs"]
    lib = sorted(map(graph_from_config, config.items(graphs, "graphs")), key=lambda g: g.attack.id)
    for k, g in enumerate(lib):
        if k and g.attack.id == lib[k - 1].attack.id:
            raise InputError(f"two graphs for attack {g.attack.name} (id {g.attack.id})")
        if g.attack.id != k:
            raise InputError("attack ids must be dense from 0")
    return tuple(lib)


def load_library(path: str | None) -> Library:
    """The defense graphs in a JSON file, or the built-in library without one."""
    if path is None:
        return builtin_library()
    return config.read_json(path, "cannot load graph library", _library)
