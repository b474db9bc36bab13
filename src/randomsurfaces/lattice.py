"""Finite regions of the integer lattice Z^m.

A vertex is a tuple of m integers.  Two vertices are adjacent when they
differ by exactly 1 in one coordinate (l1 distance 1).  A Region is a
finite, nonempty, connected set of vertices together with the adjacency
it induces; all graph notions below (neighbors, distance, boundary) are
relative to the region, never to the ambient lattice.
"""

from __future__ import annotations

from collections import deque
from math import prod
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

Vertex = tuple[int, ...]

__all__ = [
    "Vertex",
    "Region",
    "make_box",
    "neighbors",
    "graph_distance",
    "distance_map",
    "multi_source_distances",
    "outer_extension",
    "boundary",
    "relative_boundary",
    "induced_edges",
    "read_region",
    "write_region",
    "parse_region",
    "format_region",
]


def _unit_steps(m: int) -> list[Vertex]:
    steps = []
    for i in range(m):
        for s in (1, -1):
            e = [0] * m
            e[i] = s
            steps.append(tuple(e))
    return steps


def _check_vertex(v, m: int | None) -> Vertex:
    t = tuple(v)
    if not t or not all(isinstance(c, (int, np.integer)) for c in t):
        raise ValueError(f"vertex must be a nonempty tuple of ints, got {v!r}")
    if m is not None and len(t) != m:
        raise ValueError(f"vertex {t} has dimension {len(t)}, expected {m}")
    return tuple(int(c) for c in t)


def induced_edges(vertices: Iterable[Vertex]) -> list[tuple[Vertex, Vertex]]:
    """All adjacent pairs within ``vertices``, each once, as sorted pairs."""
    vs = {_check_vertex(v, None) for v in vertices}
    if not vs:
        return []
    m = len(next(iter(vs)))
    out = []
    for v in sorted(vs):
        for i in range(m):
            w = v[:i] + (v[i] + 1,) + v[i + 1 :]
            if w in vs:
                out.append((v, w))
    return out


class Region:
    """A finite connected set of lattice vertices with induced adjacency.

    Construction validates nonemptiness, uniform dimension, and
    connectedness.  Vertices are stored sorted lexicographically and the
    instance is immutable; adjacency and edge structure are precomputed.
    """

    __slots__ = (
        "dimension",
        "vertex_list",
        "vertex_set",
        "_position",
        "_neighbor_positions",
        "_edge_positions",
    )

    def __init__(self, vertices: Iterable[Vertex]):
        vs = sorted({_check_vertex(v, None) for v in vertices})
        if not vs:
            raise ValueError("region must be nonempty")
        m = len(vs[0])
        for v in vs:
            if len(v) != m:
                raise ValueError(
                    f"mixed dimensions in region: {vs[0]} vs {v}"
                )
        object.__setattr__(self, "dimension", m)
        object.__setattr__(self, "vertex_list", tuple(vs))
        object.__setattr__(self, "vertex_set", frozenset(vs))
        pos = {v: i for i, v in enumerate(vs)}
        object.__setattr__(self, "_position", pos)

        steps = _unit_steps(m)
        nbrs = []
        for v in vs:
            row = []
            for s in steps:
                w = tuple(a + b for a, b in zip(v, s))
                j = pos.get(w)
                if j is not None:
                    row.append(j)
            nbrs.append(tuple(sorted(row)))
        object.__setattr__(self, "_neighbor_positions", tuple(nbrs))

        # edges as index pairs (i, j), i < j, lexicographic
        edges = []
        for i, row in enumerate(nbrs):
            for j in row:
                if i < j:
                    edges.append((i, j))
        object.__setattr__(self, "_edge_positions", tuple(edges))

        self._check_connected()

    def _check_connected(self) -> None:
        n = len(self.vertex_list)
        seen = [False] * n
        seen[0] = True
        queue = deque([0])
        count = 1
        while queue:
            i = queue.popleft()
            for j in self._neighbor_positions[i]:
                if not seen[j]:
                    seen[j] = True
                    count += 1
                    queue.append(j)
        if count != n:
            missing = self.vertex_list[seen.index(False)]
            raise ValueError(
                f"region is not connected: {missing} unreachable from "
                f"{self.vertex_list[0]}"
            )

    def __setattr__(self, name, value):
        raise AttributeError("Region is immutable")

    def __len__(self) -> int:
        return len(self.vertex_list)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self.vertex_list)

    def __contains__(self, v) -> bool:
        return tuple(v) in self.vertex_set

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Region) and self.vertex_list == other.vertex_list
        )

    def __hash__(self) -> int:
        return hash(self.vertex_list)

    def __repr__(self) -> str:
        return (
            f"Region(dim={self.dimension}, size={len(self)}, "
            f"first={self.vertex_list[0]})"
        )

    def position(self, v: Vertex) -> int:
        """Index of ``v`` in ``vertex_list``; raises KeyError if absent."""
        return self._position[tuple(v)]

    def neighbor_positions(self, i: int) -> tuple[int, ...]:
        return self._neighbor_positions[i]

    @property
    def edge_positions(self) -> tuple[tuple[int, int], ...]:
        """Edges of the induced graph as (i, j) index pairs, i < j."""
        return self._edge_positions

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge endpoints as two parallel int arrays of positions."""
        if not self._edge_positions:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        ea, eb = zip(*self._edge_positions)
        return np.asarray(ea, dtype=np.int64), np.asarray(eb, dtype=np.int64)

    def is_box(self) -> bool:
        """True iff the region is its whole bounding box.

        The vertices are distinct and lie in the bounding box, so they fill
        it exactly when there are as many of them as the box has points.
        """
        arr = np.asarray(self.vertex_list, dtype=np.int64)
        sides = arr.max(axis=0) - arr.min(axis=0) + 1
        return len(self) == prod(sides.tolist())

    def l1_diameter(self) -> int:
        """max_{x,y in R} sum_i |x_i - y_i| (ambient l1, not graph metric)."""
        arr = np.asarray(self.vertex_list, dtype=np.int64)
        return int((arr.max(axis=0) - arr.min(axis=0)).sum())


def make_box(lows: Sequence[int], highs: Sequence[int]) -> Region:
    """Box region prod_i [lows[i], highs[i]] (inclusive bounds)."""
    lows = [int(a) for a in lows]
    highs = [int(b) for b in highs]
    if len(lows) != len(highs) or not lows:
        raise ValueError("lows and highs must be nonempty and equal length")
    for a, b in zip(lows, highs):
        if a > b:
            raise ValueError(f"empty box: low {a} > high {b}")
    ranges = [range(a, b + 1) for a, b in zip(lows, highs)]
    vertices: list[Vertex] = [()]
    for r in ranges:
        vertices = [v + (c,) for v in vertices for c in r]
    return Region(vertices)


def neighbors(region: Region, v: Vertex) -> set[Vertex]:
    """Neighbors of ``v`` inside the region."""
    i = region.position(v)
    return {region.vertex_list[j] for j in region.neighbor_positions(i)}


def distance_map(region: Region, source: Vertex) -> dict[Vertex, int]:
    """Graph distances from ``source`` to every vertex of the region (BFS)."""
    i0 = region.position(source)
    dist = [-1] * len(region)
    dist[i0] = 0
    queue = deque([i0])
    while queue:
        i = queue.popleft()
        for j in region.neighbor_positions(i):
            if dist[j] < 0:
                dist[j] = dist[i] + 1
                queue.append(j)
    return {v: dist[i] for i, v in enumerate(region.vertex_list)}


def multi_source_distances(
    region: Region, offsets: Mapping[Vertex, int]
) -> np.ndarray:
    """min over sources s of (offsets[s] + d_R(s, v)), for every vertex v.

    ``offsets`` maps each source vertex to an integer offset; the result
    is an int64 array aligned with ``region.vertex_list``.  One
    breadth-first pass, O(|R|) plus sorting the sources: the frontier
    advances one distance level at a time, a source joins when the level
    reaches its offset (unless it was reached earlier), and an empty
    frontier jumps straight to the next source's offset, so sources whose
    offsets lie far apart cost nothing extra.
    """
    if not offsets:
        raise ValueError("need at least one source")
    sources = sorted((int(z), region.position(v)) for v, z in offsets.items())
    nbrs = region._neighbor_positions
    dist: list[int | None] = [None] * len(region)
    frontier: list[int] = []
    k = 0
    level = sources[0][0]
    while True:
        while k < len(sources) and sources[k][0] == level:
            i = sources[k][1]
            if dist[i] is None:
                dist[i] = level
                frontier.append(i)
            k += 1
        if not frontier:
            if k == len(sources):
                break
            level = sources[k][0]
            continue
        level += 1
        reached = []
        for i in frontier:
            for j in nbrs[i]:
                if dist[j] is None:
                    dist[j] = level
                    reached.append(j)
        frontier = reached
    return np.asarray(dist, dtype=np.int64)


def graph_distance(region: Region, x: Vertex, y: Vertex) -> int:
    """Length of the shortest path from x to y within the region."""
    x = tuple(x)
    y = tuple(y)
    iy = region.position(y)
    dist = distance_map(region, x)
    return dist[tuple(region.vertex_list[iy])]


def outer_extension(region: Region) -> Region:
    """The region together with all lattice neighbors of its vertices."""
    steps = _unit_steps(region.dimension)
    vs = set(region.vertex_list)
    for v in region.vertex_list:
        for s in steps:
            vs.add(tuple(a + b for a, b in zip(v, s)))
    return Region(vs)


def boundary(region: Region) -> set[Vertex]:
    """Vertices of the region with at least one lattice neighbor outside it.

    Those are exactly the vertices of in-region degree below 2m.
    """
    full = 2 * region.dimension
    return {
        v
        for v, nb in zip(region.vertex_list, region._neighbor_positions)
        if len(nb) < full
    }


def relative_boundary(region: Region, sub: Iterable[Vertex]) -> set[Vertex]:
    """Vertices of ``sub`` adjacent (within the region) to region \\ sub."""
    sub_set = {_check_vertex(v, region.dimension) for v in sub}
    for v in sub_set:
        if v not in region.vertex_set:
            raise ValueError(f"{v} is not in the region")
    out = set()
    for v in sub_set:
        i = region.position(v)
        for j in region.neighbor_positions(i):
            if region.vertex_list[j] not in sub_set:
                out.add(v)
                break
    return out


# ---------------------------------------------------------------------------
# text format: first line the dimension m, then one vertex per line as
# m whitespace-separated integers.  '#' starts a comment.


def _data_lines(text: str) -> list[list[str]]:
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line.split())
    return rows


def parse_region(text: str) -> Region:
    rows = _data_lines(text)
    if not rows:
        raise ValueError("empty region file")
    if len(rows[0]) != 1:
        raise ValueError(f"first line must be the dimension, got {rows[0]}")
    m = int(rows[0][0])
    if m < 1:
        raise ValueError(f"dimension must be >= 1, got {m}")
    vertices = []
    for row in rows[1:]:
        if len(row) != m:
            raise ValueError(f"expected {m} coordinates per line, got {row}")
        vertices.append(tuple(int(c) for c in row))
    return Region(vertices)


def format_region(region: Region) -> str:
    lines = [str(region.dimension)]
    for v in region.vertex_list:
        lines.append(" ".join(str(c) for c in v))
    return "\n".join(lines) + "\n"


def read_region(path) -> Region:
    with open(path, "r", encoding="utf-8") as f:
        return parse_region(f.read())


def write_region(path, region: Region) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(format_region(region))
