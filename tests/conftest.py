"""Seeded random instances and a brute-force metric for differential tests.

``metric_instances`` holds a few hundred connected random subregions of
boxes up to 6x6, each with random pinned data and its all-pairs graph
distances computed by Floyd-Warshall, independently of the package's
breadth-first searches.  About half of the pinned sets are extendable.
"""

import numpy as np
import pytest

from randomsurfaces.lattice import Region

STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def random_connected_region(rng, max_side=6):
    """The component of a random kept vertex after thinning a random box."""
    n0, n1 = (int(s) for s in rng.integers(1, max_side + 1, size=2))
    keep = rng.uniform(0.5, 1.0)
    kept = {(i, j) for i in range(n0) for j in range(n1) if rng.random() < keep}
    if not kept:
        kept = {(0, 0)}
    start = sorted(kept)[int(rng.integers(len(kept)))]
    component, stack = {start}, [start]
    while stack:
        i, j = stack.pop()
        for di, dj in STEPS:
            w = (i + di, j + dj)
            if w in kept and w not in component:
                component.add(w)
                stack.append(w)
    return Region(component)


def random_pins(rng, region, most=8):
    """Random values of the vertex parity on a few random vertices.

    A vertex whose value breaks the +-1 rule against an already pinned
    neighbour is left out, so the data is always a valid height function
    on its own adjacency; whether it extends to the region is random.
    """
    count = int(rng.integers(1, min(len(region), most) + 1))
    chosen = sorted(rng.choice(len(region), size=count, replace=False))
    pins = {}
    for i in chosen:
        v = region.vertex_list[i]
        z = sum(v) % 2 + 2 * int(rng.integers(-3, 4))
        near = [region.vertex_list[j] for j in region.neighbor_positions(i)]
        if all(abs(z - pins[w]) == 1 for w in near if w in pins):
            pins[v] = z
    return pins


def all_pairs_distances(region):
    """Graph distances between all vertex pairs, by Floyd-Warshall."""
    n = len(region)
    dist = np.full((n, n), n, dtype=np.int64)  # n exceeds every path length
    np.fill_diagonal(dist, 0)
    for i, j in region.edge_positions:
        dist[i, j] = dist[j, i] = 1
    for k in range(n):
        dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
    return dist


@pytest.fixture(scope="session")
def metric_instances():
    """300 seeded (region, pins, all-pairs distance matrix) triples."""
    rng = np.random.default_rng(20211105)
    out = []
    for _ in range(300):
        region = random_connected_region(rng)
        out.append((region, random_pins(rng, region), all_pairs_distances(region)))
    return out
