"""Inputs and reference views that more than one test module uses. Test
modules import from here, never from each other."""

import random

import numpy as np
from hypothesis import strategies as st

from scrubsim.defense_graphs import builtin_library
from scrubsim.errors import CapacityError
from scrubsim.topology import Datacenter, Pop, Rack, Server, Topology, generate_topology


def make_dc(dc_id, link, rack_slots, attach=0):
    """rack_slots: list of per-rack server slot lists."""
    racks = []
    sid = 0
    for r, slot_list in enumerate(rack_slots):
        servers = tuple(Server(sid + k, s) for k, s in enumerate(slot_list))
        sid += len(slot_list)
        racks.append(Rack(r, servers))
    return Datacenter(id=dc_id, link_capacity_gbps=link, racks=tuple(racks),
                      attach_pop=attach)


def make_topo(n_pops, dcs, latency):
    """Pops with the given latency to each datacenter and no backbone."""
    paths = {(e, d): [] for e in range(n_pops) for d in range(len(dcs))}
    return Topology(pops=[Pop(i, f"p{i}") for i in range(n_pops)],
                    datacenters=dcs, latency=latency, backbone_links=[],
                    paths=paths)


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


def per_vm_pools(pools, physical) -> list:
    """Every VM's pools as one ``((vm, context), tags)`` list, in the order
    of a per-instance store: graph, node, instance index, context. Each
    node's pools are repeated for its ``physical`` instance count."""
    by_node: dict[tuple, list] = {}
    for (node, c), tags in pools.pools.items():
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
