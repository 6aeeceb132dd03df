"""Exact brute-force oracle for tiny resource-management instances.

Realizes the optimal formulation's semantics as exhaustive search over
delta-discretized traffic fractions and server placements, maximizing the
handled volume first and then minimizing cost (wide-area transfer weighted
by alpha, plus intra/inter-rack placement cost). Both the oracle and the
greedy are scored under the same uniform load-balancing cost model, so their
objectives are directly comparable.

The search is organized as: build each datacenter's volume tuples on the
grid (grid units per attack, within the datacenter's link and compute
capacity) per tuple prefix, as the prefix's largest last coordinate; fill
one dense integer table per datacenter suffix, where ``H[d][r]`` is the most
units datacenters ``d..`` can take from the remaining per-attack supply
``r`` (the box ``prod(supply_a + 1)``, filled bottom-up from ``H[n_d] = 0``;
the tuple sets are downward closed, so two slice maxima per tuple prefix
fill a table); then run a depth-first search over the datacenters that
keeps only assignments reaching ``H[0][supply]``. A table lookup cuts every
tuple that cannot reach it before the tuple is priced; the rest are priced
on the wide-area side with an exact min-cost transport, and per datacenter
with an exact placement search seeded by the greedy placement, which
spreads one logical node's VMs over the servers per level and prices each
spread from a server-pair kind table against the nodes already placed.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass, field

import numpy as np

from .defense_graphs import (
    ANALYSIS,
    RESPONSE,
    AnnotatedGraph,
    AttackType,
    Library,
    LogicalModule,
    PhysicalGraph,
    node_demand_vms,
)
from .errors import InputError, OracleSizeError
from .resource_manager import (
    attack_dc_volumes,
    dsp_greedy,
    evaluate_cost,
    place_all,
    ssp_greedy,
    validate_traffic,
)
from .topology import CostParams, Datacenter, Topology, build_racks

_EPS = 1e-9

MAX_POPS = 3
MAX_DCS = 3
MAX_ATTACKS = 2
MAX_GRAPH_NODES = 3
MAX_TOTAL_UNITS = 400
MAX_SERVERS_PER_DC = 8
_SEARCH_NODE_BUDGET = 2_000_000
_PLACEMENT_NODE_BUDGET = 500_000
_SPREAD_MEMO_ENTRIES = 20_000
GAP_DUMP_THRESHOLD = 0.10


def check_instance(delta: float, topo: Topology, traffic: np.ndarray, lib: Library) -> None:
    """Refuse an instance beyond the oracle's size bounds, or a grid step
    `delta` that is not 1/k for an integer k <= 100, naming every problem."""
    problems = []
    if len(topo.pops) > MAX_POPS:
        problems.append(f"{len(topo.pops)} pops > {MAX_POPS}")
    if len(topo.datacenters) > MAX_DCS:
        problems.append(f"{len(topo.datacenters)} datacenters > {MAX_DCS}")
    if len(lib) > MAX_ATTACKS:
        problems.append(f"{len(lib)} attacks > {MAX_ATTACKS}")
    for g in lib:
        if len(g.nodes) > MAX_GRAPH_NODES:
            problems.append(f"graph {g.attack.name} has {len(g.nodes)} nodes > {MAX_GRAPH_NODES}")
    for d, dc in enumerate(topo.datacenters):
        n_srv = sum(map(len, dc.racks))
        if n_srv > MAX_SERVERS_PER_DC:
            problems.append(f"dc {d} has {n_srv} servers > {MAX_SERVERS_PER_DC}")
    # A delta that is not finite and positive has no grid to round to.
    inv = 1.0 / delta if delta > 0 else math.nan
    gridded = math.isfinite(inv)
    if not gridded or abs(inv - round(inv)) > 1e-6 or not (1 <= round(inv) <= 100):
        problems.append(f"delta {delta} must be 1/k for integer k <= 100")
    positive = traffic[traffic > _EPS]
    if positive.size:
        t0 = positive.max()
        if (np.abs(positive - t0) > 1e-9 * max(t0, 1.0)).any():
            problems.append("positive traffic cells must be equal for grid alignment")
        units = round(inv) * positive.size if gridded else 0
        if units > MAX_TOTAL_UNITS:
            problems.append(f"{units} volume units > {MAX_TOTAL_UNITS}")
    if problems:
        raise OracleSizeError("invalid oracle instance: " + "; ".join(problems))


@dataclass
class OracleResult:
    objective: float
    handled: float
    f: np.ndarray  # (E, A, D)
    volumes: np.ndarray  # (A, D) Gbps per attack per datacenter
    n_dc: dict[tuple[int, int], dict[int, int]]
    search_nodes: int = 0
    proven: bool = True  # False: a placement search hit its node budget


def _largest_last(link_units: int, slots: float, supply: tuple[int, ...], q: float,
                  factors: list[float]) -> dict[tuple[int, ...], int]:
    """A datacenter's feasible volume tuples as ``{prefix: k}``, the prefixes
    (all coordinates but the last) in lexicographic order, each with its
    largest feasible last coordinate ``k``. A tuple ``c <= supply`` is
    feasible when ``sum(c) <= link_units`` and its VM slots
    ``sum(v * q * factors[a])`` fit in ``slots``. Both tests only grow with
    each coordinate, so the tuples under a prefix are exactly its last
    coordinates ``0..k``, and the set is downward closed."""
    caps = [min(link_units, s) for s in supply]

    def fits(combo: tuple[int, ...]) -> bool:
        return sum(v * q * factors[a] for a, v in enumerate(combo)) <= slots + 1e-9

    last: dict[tuple[int, ...], int] = {}
    for pre in itertools.product(*(range(c + 1) for c in caps[:-1])):
        lo, hi = -1, min(caps[-1], link_units - sum(pre))
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if fits(pre + (mid,)):
                lo = mid
            else:
                hi = mid - 1
        if lo >= 0:
            last[pre] = lo
    return last


def _feasible_tuples(last: dict[tuple[int, ...], int]) -> list[tuple[int, ...]]:
    """The tuples ``_largest_last`` describes, in lexicographic order."""
    return [pre + (v,) for pre, k in last.items() for v in range(k + 1)]


def _max_handled_tables(last_by_dc: list[dict[tuple[int, ...], int]],
                        supply: tuple[int, ...]) -> list[np.ndarray]:
    """Suffix tables ``H`` with ``H[n_d] = 0`` and ``H[d][r]`` the maximum of
    ``sum(c) + H[d + 1][r - c]`` over the tuples ``c <= r`` of datacenter
    ``d``, for every remaining supply ``r`` in the box ``prod(supply + 1)``.

    Datacenter ``d``'s tuples are given as ``_largest_last`` gives them: each
    prefix (all coordinates but the last) maps to its largest last
    coordinate ``k``. Every tuple must fit within ``supply``, and each tuple
    set must be downward closed (every one-step decrement of a member is a
    member), as link and compute capacity make it. Then one pass per prefix
    fills the table: the last coordinate ranges over ``0..k``, and since
    ``H[d + 1]`` gains at most 1 per extra unit of supply, the best choice
    takes ``min(k, r_last)``. That is two slice maxima per prefix:
    ``r_last >= k`` reads ``H[d + 1]`` at ``r - (p, k)``, and ``r_last < k``
    takes every remaining unit on top of ``H[d + 1][r_prefix - p, 0]``."""
    shape = tuple(s + 1 for s in supply)
    tables = [np.zeros(shape, dtype=np.int64)]
    for last in reversed(last_by_dc):
        nxt = tables[-1]
        h = np.zeros(shape, dtype=np.int64)
        # H[d + 1] with the last coordinate at 0, plus 0..k-1 remaining units.
        floor = nxt[..., :1]
        ramp = np.arange(shape[-1], dtype=np.int64)
        for pre, k in last.items():
            base = sum(pre)
            dst_pre = tuple(slice(v, None) for v in pre)
            src_pre = tuple(slice(0, n - v) for n, v in zip(shape, pre))
            dst = h[dst_pre + (slice(k, None),)]
            src = nxt[src_pre + (slice(0, shape[-1] - k),)]
            np.maximum(dst, src + (base + k), out=dst)
            if k:
                dst = h[dst_pre + (slice(0, k),)]
                np.maximum(dst, floor[src_pre] + (ramp[:k] + base), out=dst)
        tables.append(h)
    return tables[::-1]


class _BudgetExceeded(Exception):
    pass


def _spreads(count: int, free: tuple[int, ...], idx: int = 0,
             pos: tuple[int, ...] = (), rest: tuple[int, ...] = ()):
    """Every way to spread `count` VMs over the servers within their free
    slots, most VMs on the earliest server first. Each spread is given as
    the VMs' server positions and the free slots it leaves."""
    last = len(free) - 1
    if idx == last:
        if count <= free[idx]:
            yield pos + (idx,) * count, rest + (free[idx] - count,)
        return
    for take in range(min(count, free[idx]), -1, -1):
        left = count - take
        if idx + 1 < last:
            yield from _spreads(left, free, idx + 1, pos + (idx,) * take,
                                rest + (free[idx] - take,))
        elif left <= free[last]:
            # The last server takes what is left.
            yield (pos + (idx,) * take + (last,) * left,
                   rest + (free[idx] - take, free[last] - left))


def _min_cost_transport(supplies: list[int], demands: list[int],
                        cost: list[list[float]]) -> tuple[float, list[list[int]]]:
    """Exact min-cost transport on a complete bipartite graph, as a
    successive-shortest-path min-cost flow with Bellman-Ford labels.
    Integral supplies/demands give an integral optimal flow. Every supply
    reaches every demand, so the flow has room for the demand exactly when
    the supply covers it."""
    n_s, n_d = len(supplies), len(demands)
    want = sum(demands)
    flow = [[0] * n_d for _ in range(n_s)]
    if want == 0:
        return 0.0, flow
    if want > sum(supplies):
        raise OracleSizeError("transport demand exceeds supply (internal)")
    # Nodes: 0 = source, 1..n_s supplies, n_s+1..n_s+n_d demands, last = sink.
    # An edge is [head, residual capacity, cost, index of its reverse edge in
    # the head's list].
    n = n_s + n_d + 2
    sink = n - 1
    adj: list[list[list]] = [[] for _ in range(n)]

    def add_edge(u: int, v: int, cap: int, c: float) -> list:
        edge = [v, cap, c, len(adj[v])]
        adj[u].append(edge)
        adj[v].append([u, 0, -c, len(adj[u]) - 1])
        return edge

    for e in range(n_s):
        add_edge(0, 1 + e, supplies[e], 0.0)
    mid = [[add_edge(1 + e, 1 + n_s + d, want, cost[e][d]) for d in range(n_d)]
           for e in range(n_s)]
    for d in range(n_d):
        add_edge(1 + n_s + d, sink, demands[d], 0.0)

    sent = 0
    value = 0.0
    while sent < want:
        dist = [math.inf] * n
        prev_node = [-1] * n
        prev_edge = [-1] * n
        dist[0] = 0.0
        for _ in range(n):
            changed = False
            for u in range(n):
                if math.isinf(dist[u]):
                    continue
                for ei, (v, cap, c, _rev) in enumerate(adj[u]):
                    if cap > 0 and dist[u] + c < dist[v] - 1e-12:
                        dist[v] = dist[u] + c
                        prev_node[v] = u
                        prev_edge[v] = ei
                        changed = True
            if not changed:
                break
        aug = want - sent
        v = sink
        while v != 0:
            aug = min(aug, adj[prev_node[v]][prev_edge[v]][1])
            v = prev_node[v]
        v = sink
        while v != 0:
            edge = adj[prev_node[v]][prev_edge[v]]
            edge[1] -= aug
            adj[v][edge[3]][1] += aug
            v = prev_node[v]
        sent += aug
        value += aug * dist[sink]
    # A middle edge's flow is its capacity less what is left of it.
    for e, row in enumerate(mid):
        for d, edge in enumerate(row):
            flow[e][d] = want - edge[1]
    return value, flow


def _optimal_dsc(dc: Datacenter, dc_id: int, graphs: Library,
                 vols: tuple[int, ...], q: float, params: CostParams) -> tuple[float, bool]:
    """Minimum intra/inter-rack cost of placing the VM demand implied by
    per-attack volumes `vols` (grid units) onto the servers of `dc`,
    datacenter `dc_id`, and whether the search proved it minimal.

    Exhaustive search seeded with the greedy placement; the greedy cost is an
    upper bound, so the result never exceeds what the heuristic would pay.
    """
    servers, slots, _spans = dc.server_layout
    counts_by_attack = {
        a: {n.id: node_demand_vms(g, n.id, vols[a] * q) for n in g.nodes}
        for a, g in enumerate(graphs) if vols[a] * q > _EPS
    }
    # (attack index, node id, count)
    groups = [(a, i, c) for a, counts in counts_by_attack.items()
              for i, c in counts.items() if c > 0]
    if not groups:
        return 0.0, True
    if sum(c for _a, _i, c in groups) > dc.compute_capacity:
        return math.inf, True

    # Greedy incumbent: run the server-selection heuristic on the same demand.
    # It always places: the demand fits the datacenter's slots, and SSP only
    # fails a node that exceeds the slots left free.
    free = list(slots)
    best = 0.0
    for a, counts in counts_by_attack.items():
        pg = PhysicalGraph(a, dc_id, vols[a] * q, counts)
        best += ssp_greedy(dc, pg, graphs[a], free).dc_cost(params)

    # Exhaustive placement: assign each group's count across servers, one
    # group per level; a group pays for its edges to the groups before it.
    groups.sort(key=lambda g: (-g[2], g[0], g[1]))
    level = {(a, i): gi for gi, (a, i, _c) in enumerate(groups)}
    # Server pairs by position: 0 same server, 1 same rack, 2 other rack.
    kind = [[0 if s == t else 1 if s[0] == t[0] else 2 for t in servers] for s in servers]
    # Per group, each edge to an earlier group in graph order, with the
    # per-VM-pair cost of that edge by pair kind.
    incident: list[list[tuple[int, tuple[float, float, float]]]] = []
    for gi, (a, i, count) in enumerate(groups):
        vol = vols[a] * q
        edges = []
        for s, d, w in graphs[a].edges:
            if s != i and d != i:
                continue
            other = level.get((a, d if s == i else s), gi)
            if other >= gi:
                continue
            ev = vol * w
            if ev <= _EPS:
                continue
            per_pair = ev / (count * groups[other][2])
            edges.append((other, (0.0, per_pair * params.intra_unit_cost,
                                  per_pair * params.inter_unit_cost)))
        incident.append(edges)

    # (count, free slots) -> the spreads of `count` VMs over them; about 63%
    # of lookups hit on criterion 1's instances. The memo never holds more
    # than 507 spreads on seeds 20000-20999, so its cap only binds on large
    # datacenters, where a count can have millions of spreads over 8 servers
    # (an uncapped memo reached 1.96 GB there): a list that would overfill
    # it is streamed instead.
    spreads: dict[tuple[int, tuple[int, ...]],
                  list[tuple[tuple[int, ...], tuple[int, ...]]]] = {}
    memo_room = _SPREAD_MEMO_ENTRIES

    def compositions(count: int, free: tuple[int, ...]):
        nonlocal memo_room
        got = spreads.get((count, free))
        if got is None:
            stream = _spreads(count, free)
            got = list(itertools.islice(stream, memo_room + 1))
            if len(got) > memo_room:
                return itertools.chain(got, stream)
            memo_room -= len(got)
            spreads[(count, free)] = got
        return got

    placed: list[tuple[int, ...]] = [()] * len(groups)
    nodes_explored = 0

    def dfs(gi: int, free: tuple[int, ...], cost_so_far: float):
        nonlocal best, nodes_explored
        if cost_so_far >= best - 1e-12:
            return
        if gi == len(groups):
            best = cost_so_far
            return
        edges = incident[gi]
        for mine, rest in compositions(groups[gi][2], free):
            nodes_explored += 1
            if nodes_explored > _PLACEMENT_NODE_BUDGET:
                raise _BudgetExceeded()
            # Same pairs, same products, same summation order as one pass
            # over every (mine, theirs) VM pair per edge.
            delta_cost = 0.0
            for other, pair_cost in edges:
                theirs = placed[other]
                for lm in mine:
                    row = kind[lm]
                    for lt in theirs:
                        k = row[lt]
                        if k:
                            delta_cost += pair_cost[k]
            if cost_so_far + delta_cost >= best - 1e-12:
                continue
            placed[gi] = mine
            dfs(gi + 1, rest, cost_so_far + delta_cost)

    try:
        dfs(0, slots, 0.0)
    except _BudgetExceeded:
        # The greedy incumbent keeps the value an upper bound on the optimum
        # achievable by the heuristic, preserving oracle <= greedy.
        return best, False
    return best, True


def oracle_exact(topo: Topology, traffic: np.ndarray, lib: Library, params: CostParams,
                 delta: float = 0.05) -> OracleResult:
    """Globally optimal (over the delta grid) assignment: maximize handled
    volume, then minimize alpha * wide-area cost + datacenter placement cost.
    The grid step `delta` is a fraction of the largest traffic cell.
    """
    traffic = validate_traffic(traffic, topo, lib)
    check_instance(delta, topo, traffic, lib)

    n_e, n_a = traffic.shape
    n_d = len(topo.datacenters)
    positive = traffic[traffic > _EPS]
    if positive.size == 0 or n_d == 0:
        return OracleResult(0.0, 0.0, np.zeros((n_e, n_a, n_d)),
                            np.zeros((n_a, n_d)), {})
    t0 = float(positive.max())
    q = delta * t0  # Gbps per grid unit
    units_per_cell = round(1.0 / delta)

    supplies = np.zeros((n_e, n_a), dtype=int)
    supplies[traffic > _EPS] = units_per_cell
    supply_a = supplies.sum(axis=0)  # units per attack

    factors = [g.compute_factor for g in lib]

    # Feasible per-DC volume tuples (units per attack), by prefix.
    start = tuple(int(s) for s in supply_a)
    last_by_dc = [
        _largest_last(min(int(math.floor(dc.link_capacity_gbps / q + 1e-9)),
                          int(supplies.sum())),
                      dc.compute_capacity, start, q, factors)
        for dc in topo.datacenters]

    # Max handled units from datacenter d on, per remaining supply vector.
    h_tables = _max_handled_tables(last_by_dc, start)
    h_star = int(h_tables[0][start])

    # Greedy incumbent: quantize the greedy's solution onto the grid.
    dsp = dsp_greedy(topo, traffic, lib)
    best_cost = math.inf
    greedy_v = np.zeros((n_a, n_d), dtype=int)
    aligned = True
    volumes = attack_dc_volumes(dsp.f, traffic).tolist()
    for a in range(n_a):
        for d in range(n_d):
            u = volumes[a][d] / q
            if abs(u - round(u)) > 1e-6:
                aligned = False
            greedy_v[a, d] = round(u)

    dsc_memo: dict[tuple[int, tuple[int, ...]], tuple[float, bool]] = {}
    transport_memo: dict[tuple[int, tuple[int, ...]], tuple[float, list[list[int]]]] = {}

    def dsc(d: int, combo: tuple[int, ...]) -> float:
        key = (d, combo)
        if key not in dsc_memo:
            dsc_memo[key] = _optimal_dsc(topo.datacenters[d], d, lib, combo, q, params)
        return dsc_memo[key][0]

    def transport(a: int, demand: tuple[int, ...]) -> tuple[float, list[list[int]]]:
        key = (a, demand)
        if key not in transport_memo:
            sup = [int(supplies[e, a]) for e in range(n_e)]
            cost = [[topo.latency[e][d] for d in range(n_d)] for e in range(n_e)]
            value, flow = _min_cost_transport(sup, list(demand), cost)
            transport_memo[key] = (value * q, flow)
        return transport_memo[key]

    def leaf_cost(v: np.ndarray) -> float:
        wide = sum(transport(a, tuple(int(x) for x in v[a]))[0] for a in range(n_a))
        dc_cost = sum(dsc(d, tuple(int(v[a, d]) for a in range(n_a))) for d in range(n_d))
        return params.alpha * wide + dc_cost

    if aligned and int(greedy_v.sum()) == h_star:
        ok = all(int(greedy_v[-1, d]) <= last_by_dc[d].get(
                     tuple(int(x) for x in greedy_v[:-1, d]), -1)
                 for d in range(n_d))
        if ok:
            best_cost = leaf_cost(greedy_v)

    best_v = greedy_v.copy() if best_cost < math.inf else None
    nodes = 0

    # Every assigned unit pays at least its own cheapest column; if the
    # incumbent already meets that bound, it is globally optimal.
    unit_minima = sorted(
        m for e in range(n_e) for a in range(n_a)
        for m in [min(topo.latency[e][d] for d in range(n_d))] * int(supplies[e, a]))
    global_lb = params.alpha * q * sum(unit_minima[:h_star])
    if best_v is not None and best_cost <= global_lb + 1e-9:
        return OracleResult(objective=best_cost, handled=float(best_v.sum()) * q,
                            f=dsp.f.copy(), volumes=best_v.astype(float) * q,
                            n_dc={k: dict(v) for k, v in dsp.n_dc.items()},
                            search_nodes=0, proven=all(p for _c, p in dsc_memo.values()))

    # Admissible wide-area lower bound for v units of attack a into dc d: the
    # v cheapest unit costs available in that column (supplies may be
    # double-counted across columns, so this never exceeds the true cost).
    prefix: list[list[np.ndarray]] = []
    for a in range(n_a):
        per_dc = []
        for d in range(n_d):
            units = sorted(
                c for e in range(n_e) for c in [topo.latency[e][d]] * int(supplies[e, a]))
            per_dc.append(np.concatenate(([0.0], np.cumsum(units))))
        prefix.append(per_dc)

    def transport_lb(d: int, combo: tuple[int, ...]) -> float:
        return q * sum(float(prefix[a][d][v]) for a, v in enumerate(combo))

    col_min_l = [min(topo.latency[e][d] for e in range(n_e)) for d in range(n_d)]
    ordered_tuples = [
        sorted(_feasible_tuples(last_by_dc[d]),
               key=lambda c: (transport_lb(d, c), -sum(c), c))
        for d in range(n_d)
    ]

    # Nested lists make the per-node bound lookup cheapest.
    h_lists = [h.tolist() for h in h_tables]

    def dfs(d: int, rem: tuple[int, ...], assigned: int, partial: float,
            chosen: list[tuple[int, ...]]):
        nonlocal best_cost, best_v, nodes
        nodes += 1
        if nodes > _SEARCH_NODE_BUDGET:
            raise OracleSizeError(
                f"search budget exceeded ({_SEARCH_NODE_BUDGET} nodes); "
                f"shrink the instance (bounds: pops<={MAX_POPS}, dcs<={MAX_DCS}, "
                f"attacks<={MAX_ATTACKS})")
        if d == n_d:
            v = np.array(chosen, dtype=int).T if chosen else np.zeros((n_a, 0), dtype=int)
            cost = leaf_cost(v)
            if cost < best_cost - 1e-12:
                best_cost = cost
                best_v = v.copy()
            return
        remaining_min_l = min(col_min_l[d + 1:], default=col_min_l[d])
        h_next = h_lists[d + 1]
        for combo in ordered_tuples[d]:
            left = tuple(r - v for r, v in zip(rem, combo))
            if min(left) < 0:
                continue
            # A tuple after which no assignment can reach h_star is cut here,
            # before it is priced, so every leaf handles exactly h_star.
            taken = assigned + sum(combo)
            bound = h_next
            for r in left:
                bound = bound[r]
            if taken + bound < h_star:
                continue
            wide_lb = params.alpha * transport_lb(d, combo)
            future = params.alpha * q * (h_star - taken) * remaining_min_l
            if partial + wide_lb + future >= best_cost - 1e-9:
                continue
            step = wide_lb + dsc(d, combo)
            if partial + step + future >= best_cost - 1e-9:
                continue
            dfs(d + 1, left, taken, partial + step, chosen + [combo])

    dfs(0, start, 0, 0.0, [])

    if best_v is None:
        raise OracleSizeError(
            "no max-volume assignment admits an integral placement; compute "
            "capacities are too tight for whole-VM rounding on this instance")

    # Reconstruct fractions and VM counts from the optimal volume matrix.
    f = np.zeros((n_e, n_a, n_d))
    n_dc: dict[tuple[int, int], dict[int, int]] = {}
    for a in range(n_a):
        _, flow = transport(a, tuple(int(x) for x in best_v[a]))
        for e in range(n_e):
            for d in range(n_d):
                if flow[e][d] > 0:
                    f[e, a, d] = flow[e][d] * q / traffic[e, a]
    for d in range(n_d):
        for a in range(n_a):
            vol = best_v[a, d] * q
            if vol <= _EPS:
                continue
            g = lib[a]
            n_dc[(d, a)] = {n.id: node_demand_vms(g, n.id, vol) for n in g.nodes}

    return OracleResult(objective=best_cost, handled=float(best_v.sum()) * q,
                        f=f, volumes=best_v.astype(float) * q, n_dc=n_dc,
                        search_nodes=nodes, proven=all(p for _c, p in dsc_memo.values()))


# ---------------------------------------------------------------------------
# Tiny-instance generation and greedy-vs-oracle comparison

_T0 = 20.0


def _preset_graph(attack: AttackType, shape: str, scale: float) -> AnnotatedGraph:
    """Small graphs with compute factors that keep capacity limits on the
    volume grid: factor = scale for every shape."""
    if shape == "single":
        nodes = [LogicalModule(0, "m0", ANALYSIS, 1.0 / scale, contexts=1)]
        edges = []
    elif shape == "chain":
        p = 2.0 / scale
        nodes = [LogicalModule(0, "m0", ANALYSIS, p, contexts=1),
                 LogicalModule(1, "m1", RESPONSE, p, contexts=1, delivers=True)]
        edges = [(0, 1, 1.0)]
    else:  # branch
        p_root = 2.0 / scale
        p_leaf = 2.0 / scale
        nodes = [LogicalModule(0, "m0", ANALYSIS, p_root, contexts=2),
                 LogicalModule(1, "m1", RESPONSE, p_leaf, contexts=1),
                 LogicalModule(2, "m2", RESPONSE, p_leaf, contexts=1, delivers=True)]
        edges = [(0, 1, 0.5), (0, 2, 0.5)]
    return AnnotatedGraph(attack=attack, nodes=nodes, edges=edges)


def random_tiny_instance(seed: int) -> tuple[Topology, np.ndarray, Library, CostParams]:
    """Random oracle-sized instance whose capacities sit on the volume grid,
    so the greedy's handled volume is directly comparable to the oracle's.

    Families: ample capacity, link-constrained (heterogeneous compute
    factors), compute-constrained and doubly-constrained (equal factors, so
    the per-DC capacity reduces to a single well-defined Gbps bucket).
    """
    rng = random.Random(seed)
    n_e = rng.choice([1, 2, 2, 3])
    n_d = rng.choice([1, 2, 2, 3])
    family = rng.choices(["ample", "link", "compute", "both"],
                         weights=[3, 3, 2, 2])[0]
    # Compute-bound families use one attack type and slot counts that keep
    # integer VM counts within the slot budget at full utilization; the
    # link-bound and ample families mix heterogeneous compute factors.
    n_a = 1 if family in ("compute", "both") else rng.choice([1, 2, 2])

    shapes = ["single", "chain", "branch"]
    scales = [rng.choice([0.1, 0.2, 0.25, 0.5]) for _ in range(n_a)]
    lib = tuple(_preset_graph(AttackType(a, f"atk{a}"), rng.choice(shapes), scales[a])
                for a in range(n_a))

    traffic = np.zeros((n_e, n_a))
    while traffic.sum() == 0:
        for e in range(n_e):
            for a in range(n_a):
                traffic[e, a] = _T0 if rng.random() < 0.75 else 0.0

    dcs = []
    for d in range(n_d):
        if family in ("link", "both"):
            link = float(rng.randint(5, 25))
        else:
            link = 999.0
        if family in ("compute", "both"):
            # Slots divisible by 4 make every node's VM demand integral at
            # full capacity, so ceiling never overflows the slot budget.
            slots = rng.choice([4, 8, 12])
        else:
            slots = 999
        # 1-2 racks of 1-2 servers, drawn in that order.
        racks = build_racks(slots, rng.choice([1, 2]), rng.choice([1, 2]))
        dcs.append(Datacenter(link_capacity_gbps=link, racks=racks,
                              attach_pop=rng.randrange(n_e)))

    pops = [f"pop{e}" for e in range(n_e)]
    latency = [[float(rng.randint(1, 9)) for _ in range(n_d)] for _ in range(n_e)]
    paths = {(e, d): [] for e in range(n_e) for d in range(n_d)}
    topo = Topology(pops=pops, datacenters=dcs, latency=latency,
                    backbone_links=[], paths=paths)
    params = CostParams(alpha=1.0, intra_unit_cost=1.0, inter_unit_cost=5.0, beta=1.0)
    return topo, traffic, lib, params


@dataclass
class ComparisonRow:
    seed: int
    handled_greedy: float
    handled_oracle: float
    cost_greedy: float
    cost_oracle: float
    gap: float
    runtime_s: float
    proven: bool = True  # the oracle's OracleResult.proven
    counterexample: dict | None = field(default=None, repr=False)


def oracle_comparison(n_instances: int, seed: int,
                      delta: float = 0.05) -> list[ComparisonRow]:
    """Run greedy and oracle on seeded random tiny instances; instances whose
    cost gap exceeds `GAP_DUMP_THRESHOLD`, or whose handled volumes differ,
    carry a serialized counterexample."""
    if n_instances < 1:
        raise InputError(f"need at least 1 instance, got {n_instances}")
    rows = []
    for k in range(n_instances):
        s = seed + k
        topo, traffic, lib, params = random_tiny_instance(s)
        t_start = time.perf_counter()
        dsp = dsp_greedy(topo, traffic, lib)
        ssps = place_all(topo, dsp, lib)
        cost_g = evaluate_cost(dsp, ssps, params)
        handled_g = float(traffic.sum()) - dsp.t_left
        res = oracle_exact(topo, traffic, lib, params, delta)
        elapsed = time.perf_counter() - t_start
        gap = 0.0
        if res.objective > 1e-9:
            gap = (cost_g - res.objective) / res.objective
        elif cost_g > 1e-9:
            gap = math.inf
        counterexample = None
        handled_mismatch = bool(abs(handled_g - res.handled) > 1e-6)
        if gap > GAP_DUMP_THRESHOLD or handled_mismatch:
            counterexample = {
                "seed": s,
                "handled_mismatch": handled_mismatch,
                "traffic": traffic.tolist(),
                "latency": topo.latency,
                "greedy_handled": handled_g,
                "oracle_handled": res.handled,
                "greedy_cost": cost_g,
                "oracle_cost": res.objective,
                "greedy_f": dsp.f.tolist(),
                "oracle_f": res.f.tolist(),
            }
        rows.append(ComparisonRow(
            seed=s, handled_greedy=handled_g, handled_oracle=res.handled,
            cost_greedy=cost_g, cost_oracle=res.objective, gap=gap,
            runtime_s=elapsed, proven=res.proven, counterexample=counterexample))
    return rows


def gap_summary(rows: list[ComparisonRow]) -> dict[str, float]:
    """Cost-gap distribution of a comparison. The median and max cover every
    gap; the p90 (linear interpolation) covers the finite ones, because an
    oracle cost of 0 under a positive greedy cost reads as an infinite gap,
    which still counts as over 10%. `unproven` counts the instances whose
    oracle objective is not a proven optimum."""
    if not rows:
        raise InputError("no comparison rows to summarize")
    gaps = [r.gap for r in rows]
    finite = [g for g in gaps if math.isfinite(g)] or [0.0]
    return {
        "median_gap": float(np.median(gaps)),
        "p90_gap": float(np.percentile(finite, 90)),
        "max_gap": max(gaps),
        "over_10pct": sum(1 for g in gaps if g > 0.10),
        "handled_equal": sum(1 for r in rows
                             if abs(r.handled_greedy - r.handled_oracle) < 1e-6),
        "unproven": sum(1 for r in rows if not r.proven),
    }
