"""Finite regions of the integer lattice Z^m.

A vertex is a tuple of m integers.  Two vertices are adjacent when they
differ by exactly 1 in one coordinate (l1 distance 1).  A Region is a
finite, nonempty, connected set of vertices together with the adjacency
it induces; all graph notions below (neighbors, distance, boundary) are
relative to the region, never to the ambient lattice.

A Region is array-first: it stores its vertices as one (n, m) int64
coordinate array in lexicographic order, its adjacency as a padded
(n, 2m) neighbour matrix with a degree array, and its edges as two
endpoint arrays, and nothing else.  They are built in numpy (sorts and
coordinate comparisons, no per-vertex Python work).  Every tuple view
(``vertex_list``, positions, ``vertex_set``, ``edge_positions``, the
neighbour tuples and the bounding corners) is derived from the arrays
on first use, so size, equality, hashing, the box test and the boundary
ring make no tuple per vertex.

Multi-source distances are computed from positions: ``_distances``
takes the source positions and their offsets, the form in which the
package holds pinned data, and ``multi_source_distances`` is its public
wrapper over a vertex-to-offset mapping.  They take one of two paths.
On a box the graph metric is the l1 distance, so on a box of at least
``_CLOSED_FORM_MIN`` vertices they come from a min-plus distance
transform: one forward and one backward running minimum per axis over
the grid, in int64 (no search and no neighbour tuples).  Every other
region, and smaller boxes, where the fixed numpy cost outweighs the
search, run one offset breadth-first search with parent pointers
(``_bfs``).  ``distance_map`` and ``graph_distance`` take the same two
paths from their one source.  The search also serves the connectivity
check and the boundary-to-interior walks of ``analysis``.  The
connectivity check runs it only when a region does not fill its
bounding box: a set that fills its box is connected.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
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

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
_OUTSIDE_INT64 = f"distances leave the int64 range [{_INT64_MIN}, {_INT64_MAX}]"

# Boxes of at least this many vertices take their distances from the
# closed form; below it the search is faster (see ``_box_distances``).
_CLOSED_FORM_MIN = 400

def _check_vertex(v, m: int | None) -> Vertex:
    t = tuple(v)
    if not t or not all(isinstance(c, (int, np.integer)) for c in t):
        raise ValueError(f"vertex must be a nonempty tuple of ints, got {v!r}")
    if m is not None and len(t) != m:
        raise ValueError(f"vertex {t} has dimension {len(t)}, expected {m}")
    return tuple(int(c) for c in t)


def _check_int64(v: Vertex) -> None:
    if not all(_INT64_MIN <= c <= _INT64_MAX for c in v):
        raise ValueError(f"vertex {v} has a coordinate outside the int64 range")


def _coordinate_array(vertices: Iterable[Vertex]) -> np.ndarray:
    """The vertices as an (n, m) int64 array, in input order, checked.

    A 2D signed-integer array with at least one column is taken as it
    is.  Anything else is read vertex by vertex: every coordinate must be
    an int or a numpy integer, every vertex nonempty and of one
    dimension, and every coordinate must fit in int64.
    """
    if (
        isinstance(vertices, np.ndarray)
        and vertices.ndim == 2
        and vertices.dtype.kind == "i"
        and vertices.shape[1] > 0
    ):
        return vertices.astype(np.int64, copy=False)
    vs = list(vertices)
    ts = list(map(tuple, vs))
    if not all(ts) or not set(map(type, chain.from_iterable(ts))) <= {int}:
        ts = [_check_vertex(v, None) for v in vs]
    if len(set(map(len, ts))) > 1:
        ordered = sorted(set(ts))
        other = next(v for v in ordered if len(v) != len(ordered[0]))
        raise ValueError(f"mixed dimensions in region: {ordered[0]} vs {other}")
    try:
        return np.array(ts, dtype=np.int64)
    except OverflowError:
        for t in ts:
            _check_int64(t)
        raise


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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _graph(coords: np.ndarray):
    """The Region arrays of the distinct vertices in ``coords``.

    Returns the arrays that ``Region`` keeps (see there): coordinates,
    neighbour matrix, degrees and the two edge endpoint arrays.  The
    numpy work runs on the transposed (m, n) coordinates, so every
    comparison reads whole rows.
    """
    n, m = coords.shape
    # lexicographic order and deduplication: one sort, then drop
    # vertices equal to their predecessor
    ct = np.ascontiguousarray(coords.T)
    ct = ct[:, np.lexsort(ct[::-1])]
    fresh = (ct[:, 1:] != ct[:, :-1]).any(axis=0)
    if not fresh.all():
        ct = ct[:, np.concatenate(([True], fresh))]
        n = ct.shape[1]

    # Neighbours along axis d: sorted by the other coordinates first and
    # coordinate d last, v and v + e_d are consecutive, and their
    # difference is e_d.  The int64 subtraction may wrap around, but a
    # difference equal to e_d modulo 2^64 means equal other coordinates
    # and x_d either one apart or going from int64 max to int64 min, which
    # ascending x_d rules out.  Column d holds v - e_d and column
    # 2m - 1 - d holds v + e_d, so a row ascends; sorting each row with
    # padding n moves the padding last.
    nbr = np.full((n, 2 * m), n, dtype=np.int64)
    ends = []
    unit = np.eye(m, dtype=np.int64)[:, :, None]
    for d in range(m):
        if d == m - 1:
            order, sc = np.arange(n), ct
        else:
            keys = [d] + [k for k in range(m - 1, -1, -1) if k != d]
            order = np.lexsort(ct[keys])
            sc = ct[:, order]
        step = (sc[:, 1:] - sc[:, :-1] == unit[d]).all(axis=0)
        a, b = order[:-1][step], order[1:][step]
        nbr[a, 2 * m - 1 - d] = b
        nbr[b, d] = a
        ends += [a, b]
    degree = np.bincount(np.concatenate(ends), minlength=n)
    nbr.sort(axis=1)
    nbr[nbr == n] = -1
    ea, col = np.nonzero(nbr > np.arange(n)[:, None])
    return (
        np.ascontiguousarray(ct.T),
        nbr,
        degree,
        ea.astype(np.int64, copy=False),
        nbr[ea, col],
    )


class Region:
    """A finite connected set of lattice vertices with induced adjacency.

    Construction validates nonemptiness, uniform dimension, int64
    coordinates and connectedness; the connectedness check runs a
    breadth-first search only when the vertices do not fill their
    bounding box (``is_box``).  Any iterable of vertices is accepted,
    including an (n, m) integer array.  The instance is immutable.  It
    stores ``dimension`` and five read-only arrays, all aligned with the
    lexicographic vertex order, and nothing else:

    * ``_coords``: the (n, m) int64 coordinates;
    * ``_neighbors``: an (n, 2m) matrix whose row i lists the positions
      of vertex i's in-region neighbours in ascending order, padded
      with -1, and ``_degree``, the number of them;
    * ``_edge_ends``: the edges (i, j), i < j, in lexicographic order, as
      two endpoint arrays (``edge_arrays``).

    Every tuple view is a ``cached_property`` derived from them on first
    use: ``vertex_list``, ``_position`` (read by ``position`` and
    ``in``), ``vertex_set``, ``_neighbor_positions`` (read by
    ``neighbor_positions`` and by the breadth-first search),
    ``edge_positions`` and ``_bounds``, the coordinatewise minimum and
    maximum as tuples of Python ints.  So a large box whose distances
    come from the closed form never makes the neighbour tuples.  A copy or
    a pickle carries the coordinates only and is rebuilt from them.
    """

    def __init__(self, vertices: Iterable[Vertex]):
        coords = _coordinate_array(vertices)
        if not len(coords):
            raise ValueError("region must be nonempty")
        coords, nbr, degree, ea, eb = _graph(coords)
        set_ = object.__setattr__
        set_(self, "dimension", coords.shape[1])
        set_(self, "_coords", _read_only(coords))
        set_(self, "_neighbors", _read_only(nbr))
        set_(self, "_degree", _read_only(degree))
        set_(self, "_edge_ends", (_read_only(ea), _read_only(eb)))
        self._check_connected()

    def _check_connected(self) -> None:
        # a set that fills its bounding box is connected
        if self.is_box():
            return
        dist, _ = _bfs(self._neighbor_positions, [(0, 0)])
        if None in dist:
            missing = self.vertex_list[dist.index(None)]
            raise ValueError(
                f"region is not connected: {missing} unreachable from "
                f"{self.vertex_list[0]}"
            )

    # cached_property fills the instance __dict__ directly, so the tuple
    # views are cached past this
    def __setattr__(self, name, value):
        raise AttributeError("Region is immutable")

    def __reduce__(self):
        return (Region, (self._coords,))

    def __len__(self) -> int:
        return len(self._coords)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self.vertex_list)

    def __contains__(self, v) -> bool:
        try:
            return tuple(v) in self._position
        except TypeError:  # not iterable, or unhashable coordinates
            return False

    def __eq__(self, other) -> bool:
        # array_equal compares shapes first: dimensions must agree too
        return isinstance(other, Region) and np.array_equal(
            self._coords, other._coords
        )

    def __hash__(self) -> int:
        return hash((self._coords.shape, self._coords.tobytes()))

    def __repr__(self) -> str:
        return (
            f"Region(dim={self.dimension}, size={len(self)}, "
            f"first={tuple(self._coords[0].tolist())})"
        )

    @cached_property
    def vertex_list(self) -> tuple[Vertex, ...]:
        """The vertices as tuples of Python ints, in lexicographic order."""
        return tuple(zip(*self._coords.T.tolist()))

    @cached_property
    def _position(self) -> dict[Vertex, int]:
        """Each vertex's index in ``vertex_list``."""
        return dict(zip(self.vertex_list, range(len(self))))

    @cached_property
    def vertex_set(self) -> frozenset[Vertex]:
        """The vertices as a frozenset."""
        return frozenset(self.vertex_list)

    def position(self, v: Vertex) -> int:
        """Index of ``v`` in ``vertex_list``; raises KeyError if absent."""
        return self._position[tuple(v)]

    @cached_property
    def _neighbor_positions(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's neighbour positions as a tuple, cut to its degree."""
        nbr, degree = self._neighbors, self._degree
        rows = list(zip(*nbr.T.tolist()))
        short = np.flatnonzero(degree < nbr.shape[1])
        for i, k in zip(short.tolist(), degree[short].tolist()):
            rows[i] = rows[i][:k]
        return tuple(rows)

    def neighbor_positions(self, i: int) -> tuple[int, ...]:
        return self._neighbor_positions[i]

    @cached_property
    def edge_positions(self) -> tuple[tuple[int, int], ...]:
        """Edges of the induced graph as (i, j) index pairs, i < j."""
        ea, eb = self._edge_ends
        return tuple(zip(ea.tolist(), eb.tolist()))

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge endpoints as two parallel read-only int64 position arrays."""
        return self._edge_ends

    @cached_property
    def _bounds(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Coordinatewise minimum and maximum, as tuples of Python ints."""
        coords = self._coords
        return (
            tuple(coords.min(axis=0).tolist()),
            tuple(coords.max(axis=0).tolist()),
        )

    def is_box(self) -> bool:
        """True iff the region is its whole bounding box.

        The vertices are distinct and lie in the bounding box, so they fill
        it exactly when there are as many of them as the box has points.
        """
        lows, highs = self._bounds
        return len(self) == prod(b - a + 1 for a, b in zip(lows, highs))

    def l1_diameter(self) -> int:
        """max_{x,y in R} sum_i |x_i - y_i| (ambient l1, not graph metric)."""
        lows, highs = self._bounds
        return sum(b - a for a, b in zip(lows, highs))


def make_box(lows: Sequence[int], highs: Sequence[int]) -> Region:
    """Box region prod_i [lows[i], highs[i]] (inclusive bounds).

    The bounds are two corner vertices: ints or numpy integers.
    """
    lows, highs = tuple(lows), tuple(highs)
    if len(lows) != len(highs) or not lows:
        raise ValueError("lows and highs must be nonempty and equal length")
    lows, highs = _check_vertex(lows, None), _check_vertex(highs, None)
    _check_int64(lows)
    _check_int64(highs)
    for a, b in zip(lows, highs):
        if a > b:
            raise ValueError(f"empty box: low {a} > high {b}")
    sides = [b - a + 1 for a, b in zip(lows, highs)]
    grid = np.indices(sides, dtype=np.int64).reshape(len(sides), -1).T
    return Region(grid + np.asarray(lows, dtype=np.int64))


def neighbors(region: Region, v: Vertex) -> set[Vertex]:
    """Neighbors of ``v`` inside the region."""
    i = region.position(v)
    return {region.vertex_list[j] for j in region.neighbor_positions(i)}


def _bfs(
    nbrs: Sequence[Sequence[int]], sources: Sequence[tuple[int, int]]
) -> tuple[list[int | None], list[int]]:
    """Offset breadth-first search with parent pointers over ``nbrs`` rows.

    ``sources`` are (offset, position) pairs sorted ascending.  Returns
    ``dist``, the min over sources of offset + graph distance (None where
    nothing reaches), and ``via``, the position each vertex was first
    reached from (-1 at sources).  The frontier advances a level at a
    time, a source joins when the level reaches its offset, and an empty
    frontier jumps to the next offset.  From one source the vertices are
    reached in FIFO-queue order, so ``via`` is that search's tree.
    """
    dist: list[int | None] = [None] * len(nbrs)
    via = [-1] * len(nbrs)
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
                return dist, via
            level = sources[k][0]
            continue
        level += 1
        reached = []
        for i in frontier:
            for j in nbrs[i]:
                if dist[j] is None:
                    dist[j] = level
                    via[j] = i
                    reached.append(j)
        frontier = reached


def distance_map(region: Region, source: Vertex) -> dict[Vertex, int]:
    """Graph distances from ``source`` to every vertex of the region."""
    dist = _distances(region, [region.position(source)], [0])
    return dict(zip(region.vertex_list, dist.tolist()))


def multi_source_distances(
    region: Region, offsets: Mapping[Vertex, int]
) -> np.ndarray:
    """min over sources s of (offsets[s] + d_R(s, v)), for every vertex v.

    ``offsets`` maps each source vertex to an integer offset; the result
    is an int64 array aligned with ``region.vertex_list``, from
    ``_distances`` on the sources' positions: the l1 closed form on a box
    of at least ``_CLOSED_FORM_MIN`` vertices, one ``_bfs`` pass on any
    other region.  A result outside int64 raises OverflowError naming the
    range, on either path.
    """
    if not offsets:
        raise ValueError("need at least one source")
    zs, at = zip(*[(int(z), region.position(v)) for v, z in offsets.items()])
    return _distances(region, at, zs)


def _distances(region: Region, at: Sequence[int], zs: Sequence[int]) -> np.ndarray:
    """min over sources k of (zs[k] + d_R(at[k], v)), for every vertex v.

    ``at`` holds distinct source positions and ``zs`` their offsets, as
    Python ints.  A box of at least ``_CLOSED_FORM_MIN`` vertices gets
    the result from the l1 closed form (``_box_distances``), any other
    region from one ``_bfs`` pass: both O(|R|) plus the sources.  A
    result outside int64 raises OverflowError naming the range, on either
    path.
    """
    if len(region) >= _CLOSED_FORM_MIN and region.is_box():
        return _box_distances(region, at, zs)
    dist, _ = _bfs(region._neighbor_positions, sorted(zip(zs, at)))
    try:
        return np.asarray(dist, dtype=np.int64)
    except OverflowError:
        raise OverflowError(_OUTSIDE_INT64) from None


def _box_distances(
    region: Region, at: Sequence[int], zs: Sequence[int]
) -> np.ndarray:
    """min over sources k of zs[k] + |v - at[k]|_1, on a box.

    The source positions ``at`` are distinct and the offsets ``zs`` are
    Python ints.

    On a box the graph metric is the l1 distance, which separates by
    axis, so the minimum is a min-plus distance transform (Rosenfeld and
    Pfaltz 1966): along each axis in turn, g(i) <- min_j (g(j) + |i - j|),
    a forward running minimum of g(j) - j plus i and a backward one of
    g(j) + j minus i.  ``vertex_list`` is the grid's C order, so the
    result is the grid raveled.  The work is in offsets above the least
    one, capped at the l1 diameter plus 1 (such a source never wins), so
    every intermediate value is small; the least offset is added back
    last, after a check that the sum stays in int64.  Below a few hundred
    vertices the fixed cost of these numpy calls exceeds ``_bfs``'s, hence
    ``_CLOSED_FORM_MIN``.  Timed from the boundary ring on a 2-core x86
    VM: 5x5 40 us against 8 us for ``_bfs``, 20x20 65 against 81,
    25x25 78 against 123, 100x100 0.34 against 1.97 ms; the two break
    even near 300 vertices in 2D and 450 in 3D.
    """
    least = min(zs)
    cap = region.l1_diameter() + 1
    rel = np.array([min(z - least, cap) for z in zs], dtype=np.int64)
    grid = np.full(len(region), cap, dtype=np.int64)
    grid[np.array(at, dtype=np.intp)] = rel
    lows, highs = region._bounds
    grid = grid.reshape([b - a + 1 for a, b in zip(lows, highs)])
    for axis, side in enumerate(grid.shape):
        if side == 1:
            continue
        ramp = np.arange(side, dtype=np.int64).reshape(
            (side,) + (1,) * (grid.ndim - 1 - axis)
        )
        fwd = np.minimum.accumulate(grid - ramp, axis=axis)
        fwd += ramp
        bwd = np.flip(grid + ramp, axis)
        bwd = np.flip(np.minimum.accumulate(bwd, axis=axis), axis) - ramp
        grid = np.minimum(fwd, bwd, out=fwd)
    out = grid.ravel()
    if not _INT64_MIN <= least <= _INT64_MAX - int(out.max()):
        raise OverflowError(_OUTSIDE_INT64)
    out += least
    return out


def graph_distance(region: Region, x: Vertex, y: Vertex) -> int:
    """Length of the shortest path from x to y within the region."""
    iy = region.position(y)
    return int(_distances(region, [region.position(x)], [0])[iy])


def outer_extension(region: Region) -> Region:
    """The region together with all lattice neighbors of its vertices."""
    coords, m = region._coords, region.dimension
    at_end = ((coords == _INT64_MIN) | (coords == _INT64_MAX)).any(axis=1)
    if at_end.any():
        v = region.vertex_list[int(at_end.argmax())]
        raise ValueError(
            f"vertex {v} has a lattice neighbour outside the int64 range"
        )
    unit = np.eye(m, dtype=np.int64)
    steps = np.concatenate([np.zeros((1, m), dtype=np.int64), unit, -unit])
    return Region((coords + steps[:, None, :]).reshape(-1, m))


def boundary(region: Region) -> set[Vertex]:
    """Vertices of the region with at least one lattice neighbor outside it.

    Those are exactly the vertices of in-region degree below 2m.
    """
    short = region._degree < 2 * region.dimension
    return set(map(tuple, region._coords[short].tolist()))


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
