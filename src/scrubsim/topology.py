"""ISP substrate model: edge PoPs, datacenters, latency costs, backbone links.

The synthetic generator builds a connected random geometric graph over the
backbone switches, attaches datacenters to a subset of PoPs (5% of backbone
nodes), and derives the PoP-to-datacenter latency matrix and backbone paths
from one breadth-first search per PoP.

A topology holds what its config file holds, and every id is a list
position: pop `e` is `pops[e]`, datacenter `d` is `datacenters[d]`, rack `r`
is `racks[r]`, and a server's id is its position among all of its
datacenter's servers, counted in rack order.
"""

from __future__ import annotations

import logging
import math
import random
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import config
from .errors import InputError

log = logging.getLogger(__name__)

# Hop-count latency unit: 10 cost-units per backbone hop (10 ms links).
HOP_COST = 10.0
DEFAULT_DC_LINK_GBPS = 400.0
DEFAULT_BACKBONE_GBPS = 100.0
RACKS = 10  # per generated datacenter
SERVERS_PER_RACK = 10


@dataclass(frozen=True)
class Datacenter:
    link_capacity_gbps: float
    racks: tuple[tuple[int, ...], ...]  # each rack's servers' VM slots
    attach_pop: int

    @cached_property
    def compute_capacity(self) -> int:
        """Total VM slots across all servers (derived once: racks never change)."""
        return sum(map(sum, self.racks))

    @cached_property
    def server_layout(self) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...],
                                     dict[int, range]]:
        """Servers in rack order: each one's (rack, overall position) and VM
        slots, and each rack's run of positions. Derived once per instance,
        outside its fields, equality and hash; callers share it and never
        mutate it."""
        servers, slots, spans = [], [], {}
        for r, rack in enumerate(self.racks):
            start = len(servers)
            servers.extend((r, i) for i in range(start, start + len(rack)))
            slots.extend(rack)
            spans[r] = range(start, len(servers))
        return tuple(servers), tuple(slots), spans


@dataclass(frozen=True)
class CostParams:
    alpha: float = 1.0
    intra_unit_cost: float = 1.0
    inter_unit_cost: float = 5.0
    beta: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise InputError("alpha must be > 0 and finite")
        if not (math.isfinite(self.intra_unit_cost) and self.intra_unit_cost >= 0):
            raise InputError("intra_unit_cost must be >= 0 and finite")
        if not (math.isfinite(self.inter_unit_cost)
                and self.inter_unit_cost >= self.intra_unit_cost):
            raise InputError("inter_unit_cost must be >= intra_unit_cost and finite")
        if not (0 < self.beta <= 1.0):
            raise InputError("beta must be in (0, 1]")


@dataclass
class Topology:
    pops: list[str]  # pop names
    datacenters: list[Datacenter]
    latency: list[list[float]]  # latency[e][d], cost-units per Gbps
    backbone_links: list[tuple[int, int, float]] = field(default_factory=list)
    # paths[(e, d)] -> ordered list of backbone link endpoints (u, v), u < v
    paths: dict[tuple[int, int], list[tuple[int, int]]] = field(default_factory=dict)

    @cached_property
    def latency_array(self) -> np.ndarray:
        """`latency` as a read-only (pops, datacenters) float array."""
        arr = np.asarray(self.latency, dtype=float).reshape(len(self.pops), len(self.datacenters))
        arr.flags.writeable = False
        return arr

    @cached_property
    def latency_ranking(self) -> np.ndarray:
        """Each pop's datacenter ids, cheapest first, read-only: a stable sort
        of ascending ids by latency is the (latency, id) order."""
        ranked = np.argsort(self.latency_array, axis=1, kind="stable")
        ranked.flags.writeable = False
        return ranked

    @cached_property
    def latency_ranking_rows(self) -> tuple[tuple[int, ...], ...]:
        """`latency_ranking` as a tuple of per-pop tuples, for loops that
        read one entry at a time."""
        return tuple(map(tuple, self.latency_ranking.tolist()))

    def validate(self) -> None:
        n_e, n_d = len(self.pops), len(self.datacenters)
        if len(self.latency) != n_e or any(len(row) != n_d for row in self.latency):
            raise InputError("latency matrix dimensions do not match pops/datacenters")
        for e, row in enumerate(self.latency):
            for d, v in enumerate(row):
                if not math.isfinite(v) or v < 0:
                    raise InputError(f"latency[{e}][{d}] must be finite and >= 0")


def _geometric_graph(n: int, rng: random.Random) -> dict[int, set[int]]:
    """Connected random geometric graph on n nodes in the unit square."""
    coords = [(rng.random(), rng.random()) for _ in range(n)]
    radius = max(0.15, 1.8 * math.sqrt(1.0 / max(n, 2)))
    adj: dict[int, set[int]] = {i: set() for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            if math.dist(coords[i], coords[j]) <= radius:
                adj[i].add(j)
                adj[j].add(i)
    # Stitch disconnected components together through their closest node pair.
    comp = _components(adj)
    while len(comp) > 1:
        base = comp[0]
        best = None
        for other in comp[1:]:
            for u in base:
                for v in other:
                    dist = math.dist(coords[u], coords[v])
                    if best is None or dist < best[0]:
                        best = (dist, u, v)
        _, u, v = best
        adj[u].add(v)
        adj[v].add(u)
        comp = _components(adj)
    return adj


def _components(adj: dict[int, set[int]]) -> list[list[int]]:
    seen: set[int] = set()
    out = []
    for start in adj:
        if start not in seen:
            group = sorted(_bfs(adj, start))
            seen.update(group)
            out.append(group)
    return out


def _bfs(adj: dict[int, Iterable[int]], src: int) -> dict[int, int]:
    """Hop count of every node reachable from `src`."""
    dist = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def _adjacency(n_pops: int, links: list[tuple[int, int, float]],
               attach_pops: list[int]) -> dict[int, list[int]]:
    """Undirected backbone over pops 0..n_pops-1, neighbours in id order.
    Every link endpoint and datacenter attach pop must name one of those pops."""
    for pop in attach_pops:
        if not 0 <= pop < n_pops:
            raise InputError(f"datacenter attach_pop {pop} is not a pop id (0..{n_pops - 1})")
    adj: dict[int, set[int]] = {i: set() for i in range(n_pops)}
    for u, v, _cap in links:
        if not (0 <= u < n_pops and 0 <= v < n_pops):
            raise InputError(f"backbone link ({u}, {v}) names a node that is not "
                             f"a pop id (0..{n_pops - 1})")
        adj[u].add(v)
        adj[v].add(u)
    return {u: sorted(vs) for u, vs in adj.items()}


def _routes(adj: dict[int, list[int]], attach_pops: list[int]
            ) -> tuple[list[list[int]], dict[tuple[int, int], list[tuple[int, int]]]]:
    """Hop counts ``hops[e][d]`` and shortest backbone paths ``paths[(e, d)]``
    (normalized link endpoints) from every pop `e` to the attach pop of every
    datacenter `d`, from one BFS per attach pop. A path is the walk from `e` that
    always steps to the first neighbour one hop nearer, `adj` being in id order:
    the lexicographically smallest shortest path, which a BFS from `e` finds."""
    dists = {pop: _bfs(adj, pop) for pop in set(attach_pops)}
    hops = []
    paths: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for e in range(len(adj)):
        row = []
        for d, pop in enumerate(attach_pops):
            dist = dists[pop]
            if e not in dist:
                raise InputError(f"pop {e} has no backbone path to dc {d} (at pop {pop})")
            row.append(dist[e])
            path = []
            node = e
            while node != pop:
                u = next(v for v in adj[node] if dist[v] < dist[node])
                path.append((min(u, node), max(u, node)))
                node = u
            paths[(e, d)] = path
        hops.append(row)
    return hops, paths


def build_racks(total_slots: int, n_racks: int, per_rack: int) -> tuple[tuple[int, ...], ...]:
    """`n_racks` racks of `per_rack` servers' slots, splitting `total_slots`
    evenly with the remainder on the lowest server positions."""
    base, extra = divmod(total_slots, n_racks * per_rack)
    slots = [base + (1 if i < extra else 0) for i in range(n_racks * per_rack)]
    return tuple(tuple(slots[r * per_rack:(r + 1) * per_rack]) for r in range(n_racks))


def generate_topology(
    n_backbone: int,
    dc_slot_capacity: int,
    seed: int,
    dc_link_gbps: float = DEFAULT_DC_LINK_GBPS,
) -> Topology:
    """Generate a synthetic ISP: every backbone switch is an edge PoP and
    datacenters sit at 5% of the backbone nodes (at least one).

    Out-of-range parameters are clamped and the clamping is logged.
    """
    if n_backbone < 2:
        log.warning("generate_topology: clamping n_backbone from %d to 2", n_backbone)
        n_backbone = 2
    if dc_slot_capacity < 0:
        log.warning("generate_topology: clamping dc_slot_capacity from %d to 0", dc_slot_capacity)
        dc_slot_capacity = 0

    rng = random.Random(seed)
    adj = _geometric_graph(n_backbone, rng)
    n_dcs = max(1, round(0.05 * n_backbone))
    dc_pops = sorted(rng.sample(range(n_backbone), n_dcs))

    pops = [f"pop{i}" for i in range(n_backbone)]
    dcs = [
        Datacenter(
            link_capacity_gbps=dc_link_gbps,
            racks=build_racks(dc_slot_capacity, RACKS, SERVERS_PER_RACK),
            attach_pop=pop,
        )
        for pop in dc_pops
    ]

    links = [
        (u, v, DEFAULT_BACKBONE_GBPS)
        for u in sorted(adj)
        for v in sorted(adj[u])
        if u < v
    ]
    hops, paths = _routes(_adjacency(n_backbone, links, dc_pops), dc_pops)
    latency = [[h * HOP_COST for h in row] for row in hops]
    topo = Topology(pops=pops, datacenters=dcs, latency=latency,
                    backbone_links=links, paths=paths)
    topo.validate()
    return topo


def path_cost_comparison(
    topo: Topology,
    flows: list[tuple[int, int]],
    chokepoint: int,
) -> tuple[int, int]:
    """Total hop counts when every flow detours via a fixed chokepoint versus
    elastic placement, where defense capacity can sit on each flow's own
    shortest path.
    """
    if not flows:
        raise InputError("path_cost_comparison: flows must be nonempty")
    adj = _adjacency(len(topo.pops), topo.backbone_links,
                     [dc.attach_pop for dc in topo.datacenters])
    hops_from: dict[int, dict[int, int]] = {}

    def dist(a: int, b: int) -> int:
        if a not in hops_from:
            hops_from[a] = _bfs(adj, a)
        if b not in hops_from[a]:
            raise InputError(f"nodes {a} and {b} are disconnected")
        return hops_from[a][b]

    central = 0
    distributed = 0
    for src, dst in flows:
        central += dist(src, chokepoint) + dist(chokepoint, dst)
        distributed += dist(src, dst)
    return central, distributed


# ---------------------------------------------------------------------------
# Config file round-trip (JSON)

def topology_to_config(topo: Topology) -> dict:
    return {
        "pops": list(topo.pops),
        "dcs": [
            {
                "link_capacity_gbps": dc.link_capacity_gbps,
                "racks": [list(rack) for rack in dc.racks],
                "attach_pop": dc.attach_pop,
            }
            for dc in topo.datacenters
        ],
        "latency": topo.latency,
        "links": [[u, v, cap] for u, v, cap in topo.backbone_links],
    }


def topology_from_config(cfg) -> Topology:
    try:
        cfg = config.record(cfg, "topology", ("pops", "dcs"), ("latency", "links"))
        pops = [config.string(name, f"pop {i} name")
                for i, name in enumerate(config.items(cfg["pops"], "pops"))]
        dcs = []
        for d, spec in enumerate(config.items(cfg["dcs"], "dcs")):
            spec = config.record(spec, f"dc {d}", ("link_capacity_gbps", "racks", "attach_pop"))
            racks = []
            for r, slot_list in enumerate(config.items(spec["racks"], f"dc {d} racks")):
                slots = tuple(config.whole(s, f"dc {d} rack {r}: server slots")
                              for s in config.items(slot_list, f"dc {d} rack {r}"))
                if any(n < 0 for n in slots):
                    raise InputError(f"dc {d} rack {r}: server slots must be whole "
                                     f"numbers >= 0, not {slot_list}")
                racks.append(slots)
            link_gbps = config.real(spec["link_capacity_gbps"], f"dc {d}: link_capacity_gbps")
            if not link_gbps >= 0:
                raise InputError(f"dc {d}: link_capacity_gbps must be >= 0, not {link_gbps}")
            dcs.append(Datacenter(
                link_capacity_gbps=link_gbps,
                racks=tuple(racks),
                attach_pop=config.whole(spec["attach_pop"], f"dc {d}: attach_pop"),
            ))
        links = []
        for k, link in enumerate(config.items(cfg.get("links", []), "links")):
            u, v, cap = config.items(link, f"backbone link {k}", size=3)
            links.append((config.whole(u, f"backbone link ({u}, {v}): endpoint"),
                          config.whole(v, f"backbone link ({u}, {v}): endpoint"),
                          config.real(cap, f"backbone link ({u}, {v}): capacity")))
        for u, v, cap in links:
            if not cap >= 0:
                raise InputError(f"backbone link ({u}, {v}): capacity must be >= 0, not {cap}")
        lat_cfg = cfg.get("latency", "derive")
        if isinstance(lat_cfg, str) and lat_cfg != "derive":
            raise InputError(f'latency must be "derive" or a matrix, not {lat_cfg!r}')
        if lat_cfg != "derive":
            latency = config.matrix(lat_cfg, "latency").tolist()
    except InputError as exc:
        raise InputError(f"malformed topology config: {exc}") from exc

    attach_pops = [dc.attach_pop for dc in dcs]
    adj = _adjacency(len(pops), links, attach_pops)
    if links or lat_cfg == "derive":
        hops, paths = _routes(adj, attach_pops)
    else:
        # Degenerate configs without a backbone still need path entries.
        paths = {(e, d): [] for e in range(len(pops)) for d in range(len(dcs))}
    if lat_cfg == "derive":
        latency = [[h * HOP_COST for h in row] for row in hops]

    topo = Topology(pops=pops, datacenters=dcs, latency=latency,
                    backbone_links=links, paths=paths)
    topo.validate()
    return topo


def load_topology(path: str) -> Topology:
    return config.read_json(path, "cannot load topology", topology_from_config)


def save_topology(topo: Topology, path: str) -> None:
    config.write_json(path, topology_to_config(topo))
