"""Shared fixtures: the canonical desk-scale instance and small helpers.

The canonical instance (R=2, F=3, unit capacities, d_1=10, d_2=20,
d_12=d_21=30, d_0=100, p=(0.5, 0.3, 0.2), one user per BS) is small enough
that every quoted expectation in the tests is recomputed here by brute
force, independently of the library's own utility code.
"""

import itertools

import numpy as np
import pytest

from octocache import (CacheCapacities, Catalog, Placement, Popularity,
                       Topology, build_paper_topology)


@pytest.fixture
def canonical():
    topo = Topology(num_bs=2, edge_delay=(10.0, 20.0),
                    peer_delay=((0.0, 30.0), (30.0, 0.0)), cdn_delay=100.0,
                    users=(("u1", 1), ("u2", 2)))
    catalog = Catalog(num_files=3, file_size_mb=20.0)
    popularity = Popularity(np.array([0.5, 0.3, 0.2]))
    capacities = CacheCapacities(cloud=1, edge=(1, 1))
    return topo, catalog, popularity, capacities


def reference_route_cost(topology, contents, bs, file, mode="full"):
    """Independent routing oracle: explicit min over all allowed sources."""
    costs = [topology.cdn_delay]
    if file in contents[bs]:
        costs.append(0.0)
    if mode in ("full", "edge-cloud") and file in contents[0]:
        costs.append(topology.edge_delay[bs - 1])
    if mode == "full":
        for k in range(1, topology.num_bs + 1):
            if k != bs and file in contents[k]:
                costs.append(topology.peer_delay[bs - 1][k - 1])
    return min(costs)


def reference_utility(topology, popularity, contents, mode="full"):
    """Independent utility oracle: per-user sum of best delay reductions."""
    total = 0.0
    d0 = topology.cdn_delay
    for home in topology.users.values():
        for j, p in enumerate(popularity.as_array()):
            total += p * (d0 - reference_route_cost(topology, contents,
                                                    home, j + 1, mode))
    return total


def enumerate_optimal(topology, catalog, popularity, capacities, mode="full"):
    """Independent brute-force optimum over all exactly-full placements."""
    files = range(1, catalog.num_files + 1)
    sizes = [min(c, catalog.num_files) for c in capacities.as_list()]
    best_val, best_contents = -1.0, None
    for combos in itertools.product(*(itertools.combinations(files, s)
                                      for s in sizes)):
        contents = [set(c) for c in combos]
        val = reference_utility(topology, popularity, contents, mode)
        if val > best_val:
            best_val, best_contents = val, contents
    return best_val, best_contents


def random_instance(rng, max_bs=3, max_files=8, max_cap=2, users_per_bs=(1, 3)):
    """A random small instance with users attached, for property tests."""
    num_bs = int(rng.integers(1, max_bs + 1))
    num_files = int(rng.integers(2, max_files + 1))
    topo = build_paper_topology(num_bs, int(rng.integers(0, 2**31)))
    assignment = {}
    uid = 0
    for r in range(1, num_bs + 1):
        for _ in range(int(rng.integers(users_per_bs[0], users_per_bs[1] + 1))):
            assignment[f"u{uid}"] = r
            uid += 1
    topo = topo.with_users(assignment)
    catalog = Catalog(num_files=num_files)
    popularity = Popularity.from_weights(rng.random(num_files) + 0.01)
    capacities = CacheCapacities(
        cloud=int(rng.integers(0, max_cap + 1)),
        edge=tuple(int(rng.integers(0, max_cap + 1)) for _ in range(num_bs)))
    return topo, catalog, popularity, capacities


def random_feasible_placement(rng, capacities, num_files, fill=0.7):
    placement = Placement(capacities, num_files)
    for cache, cap in enumerate(capacities.as_list()):
        take = int(rng.integers(0, min(cap, num_files) + 1))
        take = min(take, max(0, int(round(fill * min(cap, num_files) + 1))))
        files = rng.choice(num_files, size=take, replace=False) + 1
        for f in files:
            placement.add(int(f), cache)
    return placement


def marginal_tables(ev):
    """Every copy's marginal gain and marginal loss on the evaluator ``ev``,
    as two (F, R+1) tables read through ``ev._marginals``: the gain is 0
    where the cache holds the file, and the loss ``inf`` where it does not."""
    js = np.arange(ev.placement.num_files)
    losses = ev._marginals(js, ev.codes, rank=2)
    return ev._marginals(js, ev.codes), np.where(ev.mask.T, losses, np.inf)
