"""Inputs and reference views that more than one test module uses. Test
modules import from here, never from each other."""

import random

import numpy as np
from hypothesis import strategies as st

from scrubsim.defense_graphs import builtin_library
from scrubsim.errors import CapacityError, PlacementError
from scrubsim.resource_manager import EPS
from scrubsim.topology import Datacenter, Topology, generate_topology


def make_dc(link, rack_slots, attach=0):
    """A datacenter from a list of per-rack server slot lists; its id is
    its position in the topology's list."""
    return Datacenter(link_capacity_gbps=link, racks=tuple(map(tuple, rack_slots)),
                      attach_pop=attach)


def make_topo(n_pops, dcs, latency):
    """Pops with the given latency to each datacenter and no backbone."""
    paths = {(e, d): [] for e in range(n_pops) for d in range(len(dcs))}
    return Topology(pops=[f"p{i}" for i in range(n_pops)],
                    datacenters=dcs, latency=latency, backbone_links=[],
                    paths=paths)


def pair_units(graph, t_gbps, counts, locations):
    """Independent uniform-split placement units, from a walk over every
    instance pair: edge volume spread evenly over the pairs, free on one
    server, intra within a rack, inter across racks."""
    intra = inter = 0.0
    for s, d, w in graph.edges:
        vol = t_gbps * w
        n_s, n_d = counts.get(s, 0), counts.get(d, 0)
        if vol <= EPS or n_s == 0 or n_d == 0:
            continue
        per_pair = vol / (n_s * n_d)
        for ks in range(n_s):
            for kd in range(n_d):
                ls, ld = locations[(s, ks)], locations[(d, kd)]
                if ls[0] != ld[0]:
                    inter += per_pair
                elif ls != ld:
                    intra += per_pair
    return intra, inter


def _emptiest_fitting(free, positions, count):
    """The freest of `positions` that fits `count`, lowest on ties."""
    pick, most = None, count
    for i in positions:
        f = free[i]
        if f > most or f == most and (pick is None or i < pick):
            pick, most = i, f
    return pick


def reference_ssp(dc, pg, graph, free):
    """ssp_greedy's node walk alone, with no one-step path: each node with
    VMs in `graph.ssp_order`, whole on a predecessor's server, else in a
    predecessor's rack, else on the freest server, else rack by rack. Takes
    its slots from `free`, raises PlacementError as ssp_greedy does, and
    returns the runs `(node, rack, server) -> VMs` in placement order and
    the (intra, inter) units of `pair_units`."""
    servers, _slots, spans = dc.server_layout
    n_srv, hosts = {}, {}
    order, _chained = graph.ssp_order(frozenset(i for i, c in pg.counts.items() if c))
    for node_id, preds in order:
        count = pg.counts[node_id]
        pred_pos = [i for p in preds if p in hosts for i in hosts[p]]
        pick = _emptiest_fitting(free, pred_pos, count) if pred_pos else None
        pred_racks = ()
        if pick is None and pred_pos:
            pred_racks = {servers[i][0] for i in pred_pos}
            pick = _emptiest_fitting(free, [i for r in pred_racks for i in spans[r]], count)
        if pick is None and free:
            most = max(free)
            if most >= count:
                pick = free.index(most)
        if pick is not None:
            free[pick] -= count
            hosts[node_id] = [pick]
            n_srv[(node_id, *servers[pick])] = count
            continue
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
            if take:
                free[pos] -= take
                used.append(pos)
                n_srv[(node_id, *servers[pos])] = take
                count -= take
                if count == 0:
                    break
    locations, placed = {}, {}
    for (node, rack, srv), c in n_srv.items():
        k = placed.get(node, 0)
        placed[node] = k + c
        locations.update(((node, i), (rack, srv)) for i in range(k, k + c))
    return n_srv, pair_units(graph, pg.traffic_gbps, pg.counts, locations)


def units_cost(units, params):
    intra, inter = units
    return intra * params.intra_unit_cost + inter * params.inter_unit_cost


# (nodes, dc slots, dc link Gbps, offered Gbps): five datacenters whose links
# and slots both bind. Both charging modes spill cells over datacenters;
# fractional charging then fails placement, and whole-VM charging skips a
# datacenter that cannot afford the next VM.
CAPACITY_BOUND = (100, 35, 120.0, 600.0)


def dense_traffic(topo, lib, total_gbps: float, seed: int, zero_share: float = 0.0,
                  heavy: bool = False) -> np.ndarray:
    rng = np.random.default_rng(seed)
    shape = (len(topo.pops), len(lib))
    traffic = rng.pareto(1.0, shape) if heavy else rng.uniform(0.0, 1.0, shape)
    traffic[rng.uniform(size=shape) < zero_share] = 0.0
    return traffic * (total_gbps / traffic.sum())


def capacity_bound_case():
    nodes, slots, link, offered = CAPACITY_BOUND
    lib = builtin_library()
    topo = generate_topology(nodes, dc_slot_capacity=slots, seed=3, dc_link_gbps=link)
    return topo, dense_traffic(topo, lib, offered, seed=5, zero_share=0.2, heavy=True), lib


@st.composite
def capacity_bound_cases(draw):
    """A generated topology and traffic whose cells are often zero and whose
    datacenter links and slots are often small enough to spill cells, fail
    placement or, under whole-VM charging, skip a datacenter."""
    lib = builtin_library()
    topo = generate_topology(draw(st.integers(2, 80)),
                             dc_slot_capacity=draw(st.sampled_from([10, 30, 100, 4000])),
                             seed=draw(st.integers(0, 5)),
                             dc_link_gbps=draw(st.sampled_from([20.0, 60.0, 200.0])))
    weights = np.array([[draw(st.sampled_from([0.0, 0.0, 1.0, 3.0, 20.0]))
                         for _ in range(len(lib))] for _ in topo.pops])
    total = draw(st.sampled_from([30.0, 150.0, 600.0]))
    return topo, weights * (total / max(weights.sum(), 1.0)), lib


def node_pools(pools) -> dict:
    """Every logical node's pools as ``{(node key, context): tags}``, in
    allocation order: graph, node, context. A node with VMs has one pool per
    successor, and a delivering node one more, holding its egress tag."""
    out = {}
    for (a, d), g in pools.graphs.items():
        for node in g.counts:
            contexts = len(g.graph.successors[node]) + (node in g.egress)
            for c in range(contexts):
                out[((a, d, node), c)] = pools.pool((a, d, node, 0), c)
    return out


def per_vm_pools(pools, physical) -> list:
    """Every VM's pools as one ``((vm, context), tags)`` list, in the order
    of a per-instance store: graph, node, instance index, context. Each
    node's pools are repeated for its ``physical`` instance count."""
    by_node: dict[tuple, list] = {}
    for (node, c), tags in node_pools(pools).items():
        by_node.setdefault(node, []).append((c, tags))
    out = []
    for (a, d, node), contexts in by_node.items():
        for k in range(physical[(a, d)].counts[node]):
            out.extend((((a, d, node, k), c), tags) for c, tags in contexts)
    return out


def load_balance_pick(pools, vm, context: int, rng: random.Random) -> int:
    """Uniform random choice from a VM's tag pool for one context: the
    in-VM load balancer the orchestration's pools are built for."""
    candidates = pools.pool(vm, context)
    if not candidates:
        raise CapacityError(f"empty tag pool for vm {vm} context {context}")
    return candidates[rng.randrange(len(candidates))]


def _reference_subset(rng: random.Random, n: int) -> list[int]:
    """Each of range(n) in with probability 1/2, redrawn while empty."""
    while True:
        picked = [i for i in range(n) if rng.random() < 0.5]
        if picked:
            return picked


def reference_adversary_next(strategy, budget, epoch: int, n_pops: int,
                             n_attacks: int) -> np.ndarray:
    """adversary_next pair by pair: each strategy picks its pops and attacks
    from the same seeds and draws, then one double loop gives every picked
    (pop, attack) pair an equal share of the budget."""

    def steady(key):
        rng = random.Random(key)
        attacks = [rng.randrange(n_attacks)]
        return _reference_subset(rng, n_pops), attacks

    if strategy.kind == "steady":
        pops, attacks = steady(f"{strategy.seed}:steady")
    elif strategy.kind == "flipprevepoch":
        # The second mix is redrawn, up to 100 times, while it equals the first.
        first = steady(f"{strategy.seed}:flip0")
        for retry in range(100):
            second = steady(f"{strategy.seed}:flip1:{retry}")
            if second != first:
                break
        pops, attacks = first if epoch % 2 == 0 else second
    else:
        rng = random.Random(f"{strategy.seed}:{epoch}")
        pops = list(range(n_pops)) if strategy.kind == "randattack" \
            else _reference_subset(rng, n_pops)
        attacks = list(range(n_attacks)) if strategy.kind == "randingress" \
            else _reference_subset(rng, n_attacks)
    mix = np.zeros((n_pops, n_attacks))
    for e in pops:
        for a in attacks:
            mix[e, a] = budget.b_gbps / (len(pops) * len(attacks))
    return mix
