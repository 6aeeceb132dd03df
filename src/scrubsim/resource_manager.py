"""Hierarchical resource management: datacenter selection (DSP) and server
selection (SSP) greedies, solution cost evaluation, and a constraint checker
mirroring the optimal formulation's feasibility conditions.

All operations are pure functions of their inputs and deterministic: ties
break toward the lowest datacenter/server/node id and the lowest (pop,
attack) pair. Placements are stored per node, as runs of VMs per server;
the per-VM map is a view of them.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable
from dataclasses import dataclass, replace
from operator import itemgetter

import numpy as np

from .defense_graphs import AnnotatedGraph, Library, PhysicalGraph, sequential_sum, vms
from .errors import InputError, PlacementError
from .topology import CostParams, Datacenter, Topology

EPS = 1e-9
FEASIBILITY_TOL = 1e-6

# dsp_greedy runs an array pass on at least this many (pop, attack) cells, at
# the start or left after a closing, and the heap loop alone on fewer, where
# numpy's per-call cost outweighs the work. On a 2-core Xeon, numpy took
# 9.4 µs to sort 6 cells where sorted() took 2.2 µs, and criterion 1's calls
# ran 1.37x slower when they sorted in numpy and then declined the pass.
ARRAY_PASS_MIN_CELLS = 32


def validate_traffic(traffic: np.ndarray, topo: Topology, lib: Library) -> np.ndarray:
    traffic = np.asarray(traffic, dtype=float)
    expected = (len(topo.pops), len(lib))
    if traffic.shape != expected:
        raise InputError(f"traffic shape {traffic.shape} != (pops, attacks) {expected}")
    if not np.isfinite(traffic).all() or (traffic < 0).any():
        raise InputError("traffic volumes must be finite and >= 0")
    return traffic


@dataclass
class DspResult:
    f: np.ndarray  # (E, A, D) fraction of T[e][a] sent to datacenter d
    demand: dict[tuple[int, int], dict[int, float]]  # VM demand before rounding
    physical: dict[tuple[int, int], PhysicalGraph]  # (attack, dc) -> graph
    t_left: float
    wide_area_cost: float  # sum of f * T * L (alpha applied by evaluate_cost)

    @property
    def n_dc(self) -> dict[tuple[int, int], dict[int, int]]:
        """(dc, attack) -> node -> VM count, in (dc, attack) order: a view
        of the physical graphs' counts."""
        return dict(sorted(((d, a), pg.counts) for (a, d), pg in self.physical.items()))

    def total_vms(self) -> int:
        return sum(pg.total_vms for pg in self.physical.values())


def attack_dc_volumes(f: np.ndarray, traffic: np.ndarray) -> np.ndarray:
    """The (attack, dc) table of Gbps sent, in one pass: with the pop axis
    made contiguous, entry (a, d) is the pairwise sum that
    ``(f[:, a, d] * traffic[:, a]).sum()`` takes."""
    sent = f.transpose(1, 2, 0).copy()
    sent *= traffic.T[:, None, :]
    return sent.sum(axis=2)


# -- DSP's rules, read by the array pass (on numpy columns) and the heap loop (on floats).

def _heap_order(traffic: np.ndarray):
    """The nonzero cells as heap items ``(-volume, cell, pop, attack)``, sorted:
    volume descending, ties by (pop, attack), the order of the row-major `cell`.
    As a list under `ARRAY_PASS_MIN_CELLS` cells, else as four columns."""
    n_a = traffic.shape[1]
    if traffic.size < ARRAY_PASS_MIN_CELLS:
        return sorted([(-t, e * n_a + a, e, a) for e, row in enumerate(traffic.tolist())
                       for a, t in enumerate(row) if t > EPS])
    cells = np.flatnonzero(traffic > EPS)
    neg_t = -traffic.ravel()[cells]
    # `cells` ascend, so a stable sort keeps tied volumes in cell order. With
    # no ties every sort gives that order, and numpy's default sort is the
    # faster: on a 2-core Xeon it took 16 µs against the stable sort's 64 µs
    # on sim-dense's 784 cells, whose volumes tie in none of its epochs.
    order = np.argsort(neg_t)
    ranked = neg_t[order]  # the same whichever sort ordered it
    if (ranked[1:] == ranked[:-1]).any():
        order = np.argsort(neg_t, kind="stable")
    cells = cells[order]
    return (ranked, cells, *np.divmod(cells, n_a))


def _is_open(link, compute):
    """Whether a datacenter with this much link and compute left takes traffic."""
    return (link > EPS) & (compute > EPS)


def _charge(x, nodes):
    """The slots that x Gbps more of one (datacenter, attack) cost: the whole
    VMs gained by its `nodes`, each given as (VM demand before the x, VMs
    per Gbps)."""
    return sum(vms(demand + x * rate) - vms(demand) for demand, rate in nodes)


def _largest_fit(x, nodes, compute):
    """The largest volume under x, which does not fit in `compute` slots,
    that fits, by bisection."""
    lo, hi = 0.0, x
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if _charge(mid, nodes) <= compute + EPS else (lo, mid)
    return lo


def _running(ufunc: np.ufunc, keys: np.ndarray, n_keys: int, steps: np.ndarray,
             start) -> tuple[np.ndarray, np.ndarray]:
    """Each item's key total before its step, and the table whose row c
    holds every key's total after its first c steps. `ufunc.accumulate`
    steps in item order as a loop does (`np.sum` would add pairwise); the
    zero padding past a key's last step leaves its total as it is."""
    counts = np.bincount(keys, minlength=n_keys)
    order = np.argsort(keys, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(keys)) - np.repeat(np.cumsum(counts) - counts, counts)
    table = np.zeros((counts.max() + 1, n_keys) + steps.shape[1:])
    table[0] = start
    table[rank + 1, keys] = steps
    ufunc.accumulate(table, axis=0, out=table)
    return table[rank, keys], table


def _scatter(ufunc: np.ufunc, start: np.ndarray, keys, steps) -> np.ndarray:
    """`start` with each item's step applied to its key's row one at a time,
    in item order as a loop applies them (`ufunc.at`, a column at a time)."""
    table = start.copy()
    for column, step in zip(table.T, steps.T):
        ufunc.at(column, keys, step)
    return table


def _assign_prefix(cells, rates, latency, ranked, traffic,
                   link_rem, compute_rem, f, demand, wide_area_cost):
    """dsp_greedy's array pass over cells in heap order, from the loop's
    state. Assigns the longest prefix of the order whose cells all fit whole,
    updating that state in place, and returns the wide-area cost so far and
    the heap of the cells left."""
    n_e, n_a, n_d = f.shape
    neg_t, cell, e, a = cells
    t = -neg_t
    rem0 = np.array([link_rem, compute_rem], dtype=float).T
    is_open = _is_open(*rem0.T)
    if not is_open.any():  # the loop tallies every cell in t_left
        return wide_area_cost, list(zip(*(column.tolist() for column in cells)))

    # Every pop ranks every datacenter, so each has an open one: with every
    # datacenter open, its first.
    first_open = ranked[:, 0] if is_open.all() else \
        ranked[np.arange(n_e), np.argmax(is_open[ranked], axis=1)]
    d = first_open[e]
    width = max(map(len, rates))
    rate_rows = np.array([[r for _i, r in nr] + [0.0] * (width - len(nr)) for nr in rates])
    n_k, rate = n_d * n_a, rate_rows.take(a, axis=0)
    keys, steps = d * n_a + a, t[:, None] * rate
    start = np.zeros((n_k, width))
    for (dk, ak), node_demand in demand.items():
        start[dk * n_a + ak, :len(node_demand)] = list(node_demand.values())

    # Whole-VM charges telescope: the cells of one key gain vms(end) -
    # vms(start) VMs per node, and slot counts subtract exactly, so each
    # datacenter's end compute comes from its keys' end demand.
    end = _scatter(np.add, start, keys, steps)
    gained = vms(end) - vms(start) if demand else vms(end)
    rem = rem0.copy()
    np.subtract.at(rem[:, 0], d, t)
    rem[:, 1] -= gained.sum(axis=1).reshape(n_d, n_a).sum(axis=1)
    # Remainders only fall, so a datacenter still open at its end remainders
    # was open after each of its cells: each cell's volume and charge fit
    # when its turn came. Else per-cell running totals find the first misfit.
    n = len(t)
    if not _is_open(*rem.take(d, axis=0).T).all():
        before, table = _running(np.add, keys, n_k, steps, start)
        charge = _charge(t, zip(before.T, rate.T))
        rem_before, rem_table = _running(np.subtract, d, n_d, np.stack([t, charge], axis=1),
                                         rem0)
        link, compute = rem_before.T
        fits = _is_open(link, compute) & (t <= link) & (charge <= compute + EPS)
        n = int(np.argmin(np.append(fits, False)))  # the first misfit
        rem = rem_table[np.bincount(d[:n], minlength=n_d), np.arange(n_d)]
        end = table[np.bincount(keys[:n], minlength=n_k), np.arange(n_k)]

    cell_p, e_p, d_p, t_p, keys_p = cell[:n], e[:n], d[:n], t[:n], keys[:n]
    f.reshape(-1)[cell_p * n_d + d_p] += t_p / traffic.ravel()[cell_p]
    wide_area_cost = float(np.cumsum(np.append(wide_area_cost, t_p * latency[e_p, d_p]))[-1])
    link_rem[:], compute_rem[:] = rem[:, 0].tolist(), rem[:, 1].tolist()
    # `demand` keeps the order in which keys were first assigned.
    first = np.full(n_k, n)
    np.minimum.at(first, keys_p, np.arange(n))
    order = np.argsort(first)[:np.count_nonzero(first < n)]
    ids = [[i for i, _r in nr] for nr in rates]
    for key, row in zip(order.tolist(), end[order].tolist()):
        dk, ak = divmod(key, n_a)
        demand[(dk, ak)] = dict(zip(ids[ak], row))  # a row is as wide as the widest graph
    # Sorted, the cells left already form a heap.
    return wide_area_cost, list(zip(*(column[n:].tolist() for column in cells)))


def dsp_greedy(topo: Topology, traffic: np.ndarray, lib: Library) -> DspResult:
    """Assign suspicious traffic volumes to datacenters, largest volume first,
    each to the cheapest datacenter that still has link and compute capacity.

    Infeasible volume is reported in t_left; this never raises for capacity.

    Each assignment is charged the whole VMs it adds to its (datacenter,
    attack) graph as it is made, so no datacenter's VM counts exceed its
    slots. A volume that would overfill one is cut to the largest that fits.

    Cells go largest first, each to its cheapest open datacenter. Until one
    fails to fit whole or a datacenter closes, no cell's choice depends on
    those before it, and an array pass assigns them at once. Remainders only
    fall, so if every used datacenter is still open at its end remainders,
    all fit. Whole-VM charges telescope, so its end compute is read off its
    keys' end demand, which ordered scatters total in the loop's order; else
    per-cell running totals find the first misfit. The heap loop goes on
    from there and, after a closing with no cell barred, hands the heap to
    a new pass. Inputs of fewer than `ARRAY_PASS_MIN_CELLS` cells take no
    pass.
    """
    traffic = validate_traffic(traffic, topo, lib)
    rates = [g.vm_rates for g in lib]

    link_rem = [dc.link_capacity_gbps for dc in topo.datacenters]
    compute_rem = [float(dc.compute_capacity) for dc in topo.datacenters]
    latency, ranked = topo.latency_array, topo.latency_ranking

    f = np.zeros(traffic.shape + (len(topo.datacenters),))
    demand: dict[tuple[int, int], dict[int, float]] = {}
    t_left = 0.0

    def array_pass(cells, wide_area_cost):
        return _assign_prefix(cells, rates, latency, ranked, traffic,
                              link_rem, compute_rem, f, demand, wide_area_cost)

    wide_area_cost, heap = 0.0, _heap_order(traffic)
    if not isinstance(heap, list):
        wide_area_cost, heap = array_pass(heap, 0.0)
    by_latency = topo.latency_ranking_rows
    # Per cell, the datacenters that could not afford its next VM.
    exhausted: dict[int, set[int]] = {}

    while heap:
        neg_t, cell, e, a = heapq.heappop(heap)
        t = -neg_t
        skip = exhausted.get(cell, ())
        for d in by_latency[e]:
            if _is_open(link_rem[d], compute_rem[d]) and d not in skip:
                break
        else:
            t_left += t
            continue

        node_demand = demand.get((d, a))
        nodes = [(node_demand[i] if node_demand else 0.0, r) for i, r in rates[a]]
        x, compute = min(t, link_rem[d]), compute_rem[d]
        slots = _charge(x, nodes)
        if slots > compute + EPS:
            x = _largest_fit(x, nodes, compute)
            slots = _charge(x, nodes)
        if x <= EPS:
            exhausted.setdefault(cell, set()).add(d)
            heapq.heappush(heap, (neg_t, cell, e, a))
            continue

        if node_demand is None:
            node_demand = demand[(d, a)] = {n.id: 0.0 for n in lib[a].nodes}
        compute_rem[d] -= slots
        for i, r in rates[a]:
            node_demand[i] += x * r
        f[e, a, d] += x / traffic.item(e, a)
        wide_area_cost += x * topo.latency[e][d]
        link_rem[d] -= x

        rest = t - x
        if rest > EPS:
            heapq.heappush(heap, (-rest, cell, e, a))
        # A closing changes the open datacenters: a new pass takes the heap,
        # unless a cell is barred from a datacenter, which a pass cannot skip.
        if len(heap) >= ARRAY_PASS_MIN_CELLS and not exhausted \
                and not _is_open(link_rem[d], compute_rem[d]):
            wide_area_cost, heap = array_pass(tuple(map(np.array, zip(*sorted(heap)))),
                                              wide_area_cost)

    # Every node's count is its demand rounded up: all in one `vms` call on
    # an array or, on inputs too small for the array pass, one call per
    # float, which gives the same bits without numpy's per-call cost.
    physical: dict[tuple[int, int], PhysicalGraph] = {}
    volumes = attack_dc_volumes(f, traffic).tolist()
    items = sorted(demand.items(), key=itemgetter(0))
    demands = [v for _key, node_demand in items for v in node_demand.values()]
    rounded = map(int, map(vms, demands) if traffic.size < ARRAY_PASS_MIN_CELLS
                  else vms(np.array(demands)).tolist())
    for (d, a), node_demand in items:
        counts = dict(zip(node_demand, rounded))  # zip stops at the key's last node
        physical[(a, d)] = PhysicalGraph(a, d, volumes[a][d], counts)

    return DspResult(f=f, demand=demand, physical=physical,
                     t_left=float(t_left), wide_area_cost=float(wide_area_cost))


def overprovision(dsp: DspResult, gamma: float) -> DspResult:
    """Scale the resource manager's VM counts by a cushion factor >= 1.

    Traffic fractions are untouched; only the physical graphs' VM counts
    grow.
    """
    if gamma < 1.0:
        raise InputError("gamma must be >= 1")
    if gamma == 1.0:
        return dsp
    physical = {
        key: replace(pg, counts={i: int(vms(c * gamma)) for i, c in pg.counts.items()})
        for key, pg in dsp.physical.items()
    }
    return DspResult(f=dsp.f, demand=dsp.demand, physical=physical,
                     t_left=dsp.t_left, wide_area_cost=dsp.wide_area_cost)


@dataclass
class SspResult:
    dc_id: int
    attack_id: int
    # (node id, rack id, server id) -> VMs: a node's run per server, in placement order
    n_srv: dict[tuple[int, int, int], int]
    intra_rack_units: float
    inter_rack_units: float

    @property
    def placed(self) -> dict[int, int]:
        """Node id -> VMs placed: a view of `n_srv`, summing each node's runs."""
        out: dict[int, int] = {}
        for (node, _rack, _srv), c in self.n_srv.items():
            out[node] = out.get(node, 0) + c
        return out

    @property
    def placements(self) -> dict[tuple[int, int], tuple[int, int]]:
        """(node id, instance index) -> (rack id, server id): a view of
        `n_srv`, whose runs number each node's instances in order."""
        out, placed = {}, {}
        for (node, rack, srv), c in self.n_srv.items():
            k = placed.get(node, 0)
            placed[node] = k + c
            for i in range(k, k + c):
                out[(node, i)] = (rack, srv)
        return out

    def dc_cost(self, params: CostParams) -> float:
        return (self.intra_rack_units * params.intra_unit_cost
                + self.inter_rack_units * params.inter_unit_cost)


def _edge_units(graph: AnnotatedGraph, t_gbps: float, n_srv: dict[tuple[int, int, int], int],
                counts: dict[int, int]) -> tuple[float, float]:
    """Intra-rack and inter-rack traffic units under uniform load balancing.

    Each annotated edge's volume splits evenly over the instance pairs of its
    endpoint nodes (tags are picked uniformly at random downstream). Pairs on
    the same server are free; same rack costs intra units, across racks inter.
    Each such pair adds its equal share on its own, so the sums are those of
    a walk over the pairs; a graph on one server has only free pairs and
    skips the walk.
    """
    if len({key[1:] for key in n_srv}) < 2:
        return 0.0, 0.0
    runs: dict[int, list[tuple[int, int, int]]] = {}
    for (node, rack, srv), c in n_srv.items():
        runs.setdefault(node, []).append((rack, srv, c))
    intra = inter = 0.0
    for s, d, w in graph.edges:
        vol = t_gbps * w
        n_s, n_d = counts.get(s, 0), counts.get(d, 0)
        if vol <= EPS or n_s == 0 or n_d == 0:
            continue
        per_pair = vol / (n_s * n_d)
        n_intra = n_inter = 0
        for rack_s, srv_s, c_s in runs[s]:
            for rack_d, srv_d, c_d in runs[d]:
                if rack_s != rack_d:
                    n_inter += c_s * c_d
                elif srv_s != srv_d:
                    n_intra += c_s * c_d
        for _ in range(n_intra):
            intra += per_pair
        for _ in range(n_inter):
            inter += per_pair
    return intra, inter


def _emptiest_fitting(free: list[int], positions: Iterable[int], count: int) -> int | None:
    """The freest of `positions` that fits `count`, lowest on ties."""
    pick, most = None, count
    for i in positions:
        f = free[i]
        if f > most or f == most and (pick is None or i < pick):
            pick, most = i, f
    return pick


def ssp_greedy(dc: Datacenter, pg: PhysicalGraph, graph: AnnotatedGraph,
               free: list[int] | None = None) -> SspResult:
    """Place the VM instances of a physical graph of `graph` onto the
    datacenter's servers, keeping each logical node's replicas (and,
    transitively, its predecessors) on one server or at least one rack where
    possible.

    `free` holds the free VM slots of each server position in
    `dc.server_layout`; callers placing several graphs into one datacenter
    pass the same list to each, and every placement, including those made
    before a `PlacementError`, is taken from it. Without one, the graph gets
    an empty datacenter.
    """
    servers, slots, spans = dc.server_layout
    if free is None:
        free = list(slots)

    counts = pg.counts
    order, chained = graph.ssp_order(frozenset(i for i, c in counts.items() if c))
    most = max(free, default=0)  # the freest server's slots; the first node reads them too
    # A chained graph that fits the freest server goes there whole: the
    # first node takes that server and every later node a predecessor's,
    # which still fits it, so the walk below would place it the same way.
    if chained and free and pg.total_vms <= most:
        pick = free.index(most)
        free[pick] -= pg.total_vms
        rack, srv = servers[pick]
        return SspResult(pg.dc_id, pg.attack_id,
                         {(i, rack, srv): counts[i] for i, _preds in order}, 0.0, 0.0)

    # A node's run per server: it reaches each server at most once.
    n_srv: dict[tuple[int, int, int], int] = {}
    hosts: dict[int, list[int]] = {}  # node id -> positions of its servers

    for node_id, preds in order:
        count = counts[node_id]
        # Predecessors' servers, skipping those given no VMs; one may appear
        # twice, which no pick minds.
        pred_pos = [i for p in preds if p in hosts for i in hosts[p]]

        # Whole node on a single server if one fits it: prefer a server
        # already hosting a predecessor, then one in a predecessor's rack,
        # then the emptiest server anywhere.
        pick = _emptiest_fitting(free, pred_pos, count) if pred_pos else None
        pred_racks = ()
        if pick is None and pred_pos:
            pred_racks = {servers[i][0] for i in pred_pos}
            pick = _emptiest_fitting(free, [i for r in pred_racks for i in spans[r]], count)
        if pick is None and free:
            if hosts:  # a node before this one took slots since `most` was read
                most = max(free)
            if most >= count:
                pick = free.index(most)
        if pick is not None:
            free[pick] -= count
            hosts[node_id] = [pick]
            n_srv[(node_id, *servers[pick])] = count
            continue
        # Else rack by rack, each rack's freest server first (lowest position
        # on ties): a predecessor's rack that holds the node comes first, then
        # the freest rack, lowest id on ties. The freest rack holds the node
        # if any rack does, so the node fills one rack if any holds it, and
        # else splits over the freest racks.
        rack_free = {r: sum(free[span.start:span.stop]) for r, span in spans.items()}
        total_free = sum(rack_free.values())
        if total_free < count:
            raise PlacementError(
                f"datacenter {pg.dc_id} lacks {count} slots for node "
                f"{graph.node(node_id).name} ({total_free} free)",
                node=graph.node(node_id).name,
            )
        racks = sorted(rack_free, reverse=True, key=lambda r: (
            rack_free[r] >= count and r in pred_racks, rack_free[r], -r))
        hosts[node_id] = used = []
        for pos in (p for r in racks for p in sorted(spans[r], key=lambda p: (-free[p], p))):
            take = min(count, free[pos])
            if take:  # a drained server gets no run
                free[pos] -= take
                used.append(pos)
                n_srv[(node_id, *servers[pos])] = take
                count -= take
                if count == 0:
                    break

    intra, inter = _edge_units(graph, pg.traffic_gbps, n_srv, counts)
    return SspResult(dc_id=pg.dc_id, attack_id=pg.attack_id, n_srv=n_srv,
                     intra_rack_units=intra, inter_rack_units=inter)


def place_all(topo: Topology, dsp: DspResult, lib: Library) -> list[SspResult]:
    """Run SSP for every (attack, datacenter) physical graph in attack-id
    order, passing each datacenter's graphs one shared list of free slots
    per server position."""
    results = []
    free: dict[int, list[int]] = {}
    for (a, d) in sorted(dsp.physical):
        pg = dsp.physical[(a, d)]
        if pg.total_vms == 0:
            continue
        dc = topo.datacenters[d]
        if d not in free:
            free[d] = list(dc.server_layout[1])
        results.append(ssp_greedy(dc, pg, lib[a], free[d]))
    return results


def evaluate_cost(dsp: DspResult, ssps: list[SspResult], params: CostParams) -> float:
    """Wide-area transfer cost (weighted by alpha) plus every datacenter's
    intra/inter-rack placement cost."""
    dc_cost = sequential_sum(r.dc_cost(params) for r in ssps)
    return params.alpha * dsp.wide_area_cost + dc_cost


@dataclass
class Violation:
    constraint: int
    indices: tuple
    slack: float
    message: str

    def __str__(self) -> str:
        return f"C{self.constraint}{self.indices}: {self.message} (slack {self.slack:.6g})"


def check_feasibility(topo: Topology, traffic: np.ndarray, dsp: DspResult,
                      ssps: list[SspResult], params: CostParams,
                      lib: Library) -> list[Violation]:
    """Check a solution against the optimization's constraint set.

    Returns an empty list iff every constraint holds. Traffic coverage is
    relaxed: fractions may sum below 1 provided t_left accounts for the
    remainder.
    """
    traffic = validate_traffic(traffic, topo, lib)
    n_e, n_a = traffic.shape
    n_d = len(topo.datacenters)
    tol = FEASIBILITY_TOL
    out: list[Violation] = []

    # (2) coverage: sum_d f <= 1 per (e, a); t_left matches the shortfall.
    covered = dsp.f.sum(axis=2)
    for e, a in np.argwhere(covered > 1.0 + tol).tolist():
        total = float(covered[e, a])
        out.append(Violation(2, (e, a), total - 1.0,
                             f"fractions for pop {e} attack {a} sum to {total:.4f}"))
    implied_left = float((traffic * (1.0 - covered)).sum())
    if abs(implied_left - dsp.t_left) > max(tol, tol * traffic.sum()):
        out.append(Violation(2, ("t_left",), implied_left - dsp.t_left,
                             f"t_left {dsp.t_left:.4f} != unassigned volume {implied_left:.4f}"))

    # (4) datacenter link capacity.
    for d, dc in enumerate(topo.datacenters):
        load = float((dsp.f[:, :, d] * traffic).sum())
        if load > dc.link_capacity_gbps + tol:
            out.append(Violation(4, (d,), load - dc.link_capacity_gbps,
                                 f"dc {d} link load {load:.4f} > {dc.link_capacity_gbps}"))

    # VMs placed per node of each (d, a), read by (5) and (11).
    placed = {(r.dc_id, r.attack_id): r.placed for r in ssps}

    # (5) sufficient VMs per (d, a, i): placed capacity covers traffic share.
    volumes = attack_dc_volumes(dsp.f, traffic).tolist()
    for d in range(n_d):
        for a in range(n_a):
            g = lib[a]
            vol = volumes[a][d]
            if vol <= tol:
                continue
            vms_of = placed.get((d, a), {})
            for n in g.nodes:
                need = vol * g.share(n.id)
                if need <= tol:
                    continue
                have = vms_of.get(n.id, 0) * n.capacity_gbps
                if have + tol < need:
                    out.append(Violation(5, (d, a, n.id), need - have,
                                         f"dc {d} attack {a} node {n.name}: capacity "
                                         f"{have:.4f} < required {need:.4f}"))

    # (6) per-server slot capacity, aggregated over attacks.
    per_server: dict[tuple[int, int, int], int] = {}
    for r in ssps:
        for (i, rack, srv), c in r.n_srv.items():
            key = (r.dc_id, rack, srv)
            per_server[key] = per_server.get(key, 0) + c
    slot_maps: dict[int, dict[tuple[int, int], int]] = {}
    for (d, rack, srv), count in sorted(per_server.items()):
        if d not in slot_maps:
            slot_maps[d] = dict(zip(*topo.datacenters[d].server_layout[:2]))
        slots = slot_maps[d].get((rack, srv))
        if slots is None:
            raise InputError(f"unknown server ({rack},{srv}) in dc {d}")
        if count > slots:
            out.append(Violation(6, (d, rack, srv), float(count - slots),
                                 f"server ({d},{rack},{srv}) holds {count} VMs "
                                 f"for {slots} slots"))

    # (11) placement counts match the datacenter-level VM counts.
    for (d, a), counts in dsp.n_dc.items():
        vms_of = placed.get((d, a), {})
        for i, want in counts.items():
            got = vms_of.get(i, 0)
            if got != want:
                out.append(Violation(11, (d, a, i), float(got - want),
                                     f"dc {d} attack {a} node {i}: placed {got} != {want}"))

    # (14) backbone link load within beta of capacity.
    if params.beta < 1.0 and topo.backbone_links:
        caps = {(min(u, v), max(u, v)): cap for u, v, cap in topo.backbone_links}
        loads: dict[tuple[int, int], float] = {}
        for e in range(n_e):
            for d in range(n_d):
                vol = float((dsp.f[e, :, d] * traffic[e, :]).sum())
                if vol <= 0:
                    continue
                for link in topo.paths.get((e, d), []):
                    loads[link] = loads.get(link, 0.0) + vol
        for link, load in sorted(loads.items()):
            limit = params.beta * caps.get(link, float("inf"))
            if load > limit + tol:
                out.append(Violation(14, link, load - limit,
                                     f"backbone link {link} load {load:.4f} > "
                                     f"beta*cap {limit:.4f}"))

    return out
