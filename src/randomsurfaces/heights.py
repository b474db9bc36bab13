"""Height functions on lattice regions and their extension sets.

A height function on a set of lattice vertices takes integer values,
satisfies h(x) = x_1 + ... + x_m (mod 2) at every vertex, and changes by
exactly 1 across every adjacent pair of the set.  Given a region R and
values pinned on a subset R', the extension set M(R; h) collects all
height functions on R agreeing with h on R'.  Extendability is a metric
condition (see ``kirszbraun_extendable``): pinned values may not differ
by more than the within-region graph distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping

import numpy as np

from .lattice import (
    Region,
    Vertex,
    _check_vertex,
    distance_map,
    induced_edges,
    multi_source_distances,
)

__all__ = [
    "HeightFunction",
    "as_height_function",
    "ExtensionSet",
    "NoExtensionError",
    "parity_height",
    "validate",
    "is_parity_homomorphism",
    "kirszbraun_extendable",
    "kirszbraun_violation",
    "enumerate_extensions",
    "enumerate_extensions_unpruned",
    "min_max_extensions",
    "height_window",
    "extremal_boundary",
    "parse_heights",
    "format_heights",
    "read_heights",
    "write_heights",
    "format_grid",
    "parse_grid",
]


class NoExtensionError(ValueError):
    """Pinned boundary data admits no extension to the region.

    Carries a metric witness: vertices x, y with |h(x) - h(y)| greater
    than the graph distance d_R(x, y).
    """

    def __init__(self, x: Vertex, y: Vertex, gap: int, distance: int):
        self.x = x
        self.y = y
        self.gap = gap
        self.distance = distance
        super().__init__(
            f"no extension: |h({x}) - h({y})| = {gap} exceeds "
            f"graph distance {distance}"
        )


def _vertex_parity(v: Vertex) -> int:
    return sum(v) & 1


@dataclass(frozen=True)
class HeightFunction:
    """An integer-valued function on a finite set of lattice vertices.

    ``domain`` is sorted lexicographically and ``heights`` is aligned
    with it.  Instances are immutable and hashable; equality is by
    (domain, heights).
    """

    domain: tuple[Vertex, ...]
    heights: tuple[int, ...]

    def __post_init__(self):
        if len(self.domain) != len(self.heights):
            raise ValueError("domain and heights must have equal length")
        if not self.domain:
            raise ValueError("height function needs a nonempty domain")
        if list(self.domain) != sorted(self.domain):
            raise ValueError("domain must be sorted lexicographically")

    @classmethod
    def from_dict(cls, values: Mapping[Vertex, int]) -> "HeightFunction":
        items = sorted(
            (_check_vertex(v, None), int(z)) for v, z in values.items()
        )
        return cls(tuple(v for v, _ in items), tuple(z for _, z in items))

    @cached_property
    def _map(self) -> dict[Vertex, int]:
        return dict(zip(self.domain, self.heights))

    def __getitem__(self, v: Vertex) -> int:
        return self._map[tuple(v)]

    def __contains__(self, v) -> bool:
        return tuple(v) in self._map

    def __len__(self) -> int:
        return len(self.domain)

    def items(self):
        return zip(self.domain, self.heights)

    def as_dict(self) -> dict[Vertex, int]:
        return dict(self._map)

    def restrict(self, vertices: Iterable[Vertex]) -> "HeightFunction":
        vs = sorted({tuple(v) for v in vertices})
        try:
            return HeightFunction(
                tuple(vs), tuple(self._map[v] for v in vs)
            )
        except KeyError as err:
            raise ValueError(f"vertex {err.args[0]} not in domain") from None

    def shift(self, dz: int) -> "HeightFunction":
        """The function v -> h(v) + dz; dz must be even to keep parity."""
        if dz % 2 != 0:
            raise ValueError(f"shift must be even, got {dz}")
        return HeightFunction(
            self.domain, tuple(z + dz for z in self.heights)
        )

    def le(self, other: "HeightFunction") -> bool:
        """Pointwise h <= other on a shared domain."""
        if self.domain != other.domain:
            raise ValueError("pointwise comparison needs equal domains")
        return all(a <= b for a, b in zip(self.heights, other.heights))

    def values_array(self) -> np.ndarray:
        return np.asarray(self.heights, dtype=np.int64)


def as_height_function(values: Mapping[Vertex, int]) -> HeightFunction:
    """``values`` itself if it is a HeightFunction, else built from the mapping."""
    if isinstance(values, HeightFunction):
        return values
    return HeightFunction.from_dict(values)


def parity_height(region: Region) -> HeightFunction:
    """The minimal-oscillation function h(v) = parity of sum(v) (0 or 1)."""
    return HeightFunction(
        region.vertex_list,
        tuple(_vertex_parity(v) for v in region.vertex_list),
    )


def is_parity_homomorphism(values: Mapping[Vertex, int]) -> bool:
    """Check parity and the +-1 step condition on the induced adjacency.

    Works on arbitrary (possibly disconnected) vertex sets: only pairs
    that are lattice-adjacent within the set are constrained.
    """
    if not values:
        raise ValueError("empty value map")
    for v, z in values.items():
        if (int(z) - _vertex_parity(tuple(v))) % 2 != 0:
            return False
    vals = {tuple(v): int(z) for v, z in values.items()}
    for x, y in induced_edges(vals.keys()):
        if abs(vals[x] - vals[y]) != 1:
            return False
    return True


def validate(region: Region, f: Mapping[Vertex, int]) -> bool:
    """True iff ``f`` is a height function defined on all of ``region``."""
    vals = {tuple(v): int(z) for v, z in f.items()}
    if set(vals) != set(region.vertex_set):
        raise ValueError("function domain does not match the region")
    return is_parity_homomorphism(vals)


def _pinned_map(region: Region, pinned: Mapping[Vertex, int]) -> dict[Vertex, int]:
    if isinstance(pinned, HeightFunction):
        vals = pinned.as_dict()
    else:
        vals = {_check_vertex(v, region.dimension): int(z) for v, z in pinned.items()}
    if not vals:
        raise ValueError("pinned data must be nonempty")
    for v in vals:
        if v not in region.vertex_set:
            raise ValueError(f"pinned vertex {v} lies outside the region")
    if not is_parity_homomorphism(vals):
        raise ValueError("pinned data is not a valid height function")
    return vals


def _envelopes(
    region: Region, vals: dict[Vertex, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise greatest lower / least upper height bounds from pinned data.

    low(v) = max_x (h(x) - d_R(x, v)),  high(v) = min_x (h(x) + d_R(x, v)).
    One offset BFS each: high with the pinned values as offsets, low with
    their negatives, negated back.
    """
    high = multi_source_distances(region, vals)
    low = -multi_source_distances(region, {v: -z for v, z in vals.items()})
    return low, high


def _first_violation(
    region: Region, vals: dict[Vertex, int], low: np.ndarray, high: np.ndarray
) -> tuple[Vertex, Vertex, int, int] | None:
    """The first pinned pair in sorted (x, y) order with a gap over d_R(x, y).

    A pinned x belongs to some violating pair exactly when its own value
    leaves its envelopes: high(x) < h(x) when some y lies more than
    d_R(x, y) below it, low(x) > h(x) when some y lies above.  So x is
    read off the envelopes, and one single-source BFS from x names y.
    """
    vs = sorted(vals)
    for x in vs:
        i = region.position(x)
        if high[i] < vals[x] or low[i] > vals[x]:
            dist = distance_map(region, x)
            for y in vs:
                gap = abs(vals[x] - vals[y])
                if gap > dist[y]:
                    return (x, y, gap, dist[y])
    return None


def kirszbraun_violation(
    region: Region, pinned: Mapping[Vertex, int]
) -> tuple[Vertex, Vertex, int, int] | None:
    """First pinned pair with |h(x)-h(y)| > d_R(x,y), or None if extendable.

    The pair returned is the first in sorted (x, y) order, the one a scan
    of all pinned pairs would stop at.  Cost O(|R|): two offset BFS passes
    for the envelopes, plus one single-source BFS from x when the data is
    not extendable.
    """
    vals = _pinned_map(region, pinned)
    return _first_violation(region, vals, *_envelopes(region, vals))


def kirszbraun_extendable(region: Region, pinned: Mapping[Vertex, int]) -> bool:
    """Extension exists iff pinned gaps never exceed graph distance."""
    return kirszbraun_violation(region, pinned) is None


def min_max_extensions(
    region: Region, pinned: Mapping[Vertex, int]
) -> tuple[HeightFunction, HeightFunction]:
    """The pointwise-minimal and -maximal extensions of the pinned data.

    low(v) = max_x (h(x) - d_R(x,v)) and high(v) = min_x (h(x) + d_R(x,v));
    both are themselves height functions on the region and every extension
    lies between them pointwise.  Raises NoExtensionError when none exists.
    """
    vals = _pinned_map(region, pinned)
    low, high = _envelopes(region, vals)
    if (low > high).any():
        witness = _first_violation(region, vals, low, high)
        if witness is None:  # unreachable given low > high somewhere
            raise AssertionError("inconsistent envelope without metric witness")
        raise NoExtensionError(*witness)
    lo_f = HeightFunction(region.vertex_list, tuple(int(z) for z in low))
    hi_f = HeightFunction(region.vertex_list, tuple(int(z) for z in high))
    return lo_f, hi_f


def height_window(
    region: Region, pinned: Mapping[Vertex, int]
) -> tuple[int, int]:
    """Smallest interval [lo, hi] containing every extension's values."""
    lo_f, hi_f = min_max_extensions(region, pinned)
    return (min(lo_f.heights), max(hi_f.heights))


@dataclass(frozen=True)
class ExtensionSet:
    """All extensions of pinned data to a region, in lexicographic order.

    ``members`` are sorted by their value tuple (aligned with
    ``region.vertex_list``), so any two ExtensionSets over the same
    region whose members are shifts of one another align index by index.
    """

    region: Region
    pinned: HeightFunction
    members: tuple[HeightFunction, ...]

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    @cached_property
    def members_array(self) -> np.ndarray:
        """(num members) x (region size) int array of heights."""
        if not self.members:
            return np.empty((0, len(self.region)), dtype=np.int64)
        return np.asarray([m.heights for m in self.members], dtype=np.int64)

    def index_of(self, member: HeightFunction) -> int:
        try:
            return self._member_index[member.heights]
        except KeyError:
            raise ValueError("not a member of this extension set") from None

    @cached_property
    def _member_index(self) -> dict[tuple[int, ...], int]:
        return {m.heights: i for i, m in enumerate(self.members)}


def enumerate_extensions(
    region: Region, pinned: Mapping[Vertex, int]
) -> ExtensionSet:
    """Depth-first enumeration of M(region; pinned).

    Pinned data must be a nonempty valid height function on its induced
    adjacency.  Candidate values at each vertex are intersected with the
    min/max envelopes before branching, so dead subtrees are never
    entered; an inextendable pinned set yields the empty set (not an
    error).  Members come out sorted lexicographically by value tuple.
    """
    vals = _pinned_map(region, pinned)
    pinned_f = HeightFunction.from_dict(vals)
    n = len(region.vertex_list)
    env_low, env_high = _envelopes(region, vals)
    if (env_low > env_high).any():  # exactly when a pinned gap is too wide
        return ExtensionSet(region, pinned_f, ())

    assigned = [0] * n
    fixed = [False] * n
    for v, z in vals.items():
        i = region.position(v)
        assigned[i] = z
        fixed[i] = True

    nbrs = region._neighbor_positions
    members: list[tuple[int, ...]] = []

    def rec(i: int) -> None:
        if i == n:
            members.append(tuple(assigned))
            return
        earlier = [j for j in nbrs[i] if j < i or fixed[j]]
        if fixed[i]:
            rec(i + 1)
            return
        lo, hi = int(env_low[i]), int(env_high[i])
        for j in earlier:
            zj = assigned[j]
            lo = max(lo, zj - 1)
            hi = min(hi, zj + 1)
        # the envelopes and all zj +- 1 have the vertex's parity, so the
        # candidates are exactly lo, lo+2, ..., hi; each differs by 1
        # from every already-assigned neighbor automatically
        for z in range(lo, hi + 1, 2):
            assigned[i] = z
            rec(i + 1)
        assigned[i] = 0

    rec(0)
    out = tuple(
        HeightFunction(region.vertex_list, m) for m in members
    )
    return ExtensionSet(region, pinned_f, out)


def enumerate_extensions_unpruned(
    region: Region, pinned: Mapping[Vertex, int]
) -> ExtensionSet:
    """Reference enumeration without envelope pruning (test oracle).

    Grows assignments breadth-first from the pinned set using only the
    local +-1 constraint, then filters and sorts.  Exponentially slower
    than ``enumerate_extensions``; intended for cross-checks on small
    instances only.
    """
    vals = _pinned_map(region, pinned)
    pinned_f = HeightFunction.from_dict(vals)
    order: list[int] = []
    seen = [False] * len(region)
    from collections import deque

    queue = deque(sorted(region.position(v) for v in vals))
    for i in list(queue):
        seen[i] = True
    while queue:
        i = queue.popleft()
        order.append(i)
        for j in region.neighbor_positions(i):
            if not seen[j]:
                seen[j] = True
                queue.append(j)

    nbrs = region._neighbor_positions
    fixed_val = {region.position(v): z for v, z in vals.items()}
    partial: dict[int, int] = {}
    members: list[tuple[int, ...]] = []

    def rec(k: int) -> None:
        if k == len(order):
            members.append(
                tuple(partial[i] for i in range(len(region)))
            )
            return
        i = order[k]
        if i in fixed_val:
            candidates = [fixed_val[i]]
        else:
            known = [partial[j] for j in nbrs[i] if j in partial]
            # BFS order from the pinned set guarantees an assigned neighbor
            candidates = [known[0] - 1, known[0] + 1]
        for z in candidates:
            if all(
                abs(z - partial[j]) == 1
                for j in nbrs[i]
                if j in partial
            ):
                partial[i] = int(z)
                rec(k + 1)
                del partial[i]

    rec(0)
    members.sort()
    out = tuple(HeightFunction(region.vertex_list, m) for m in members)
    return ExtensionSet(region, pinned_f, out)


def extremal_boundary(
    region: Region, direction: int, anchor: int
) -> HeightFunction:
    """Steepest boundary data on a box: +-|(v0-a0) - (v1-a1)| plus anchor.

    Defined for boxes of dimension <= 2.  In dimension 2 the boundary
    values are anchor + direction * |(v0-a0) - (v1-a1)| where (a0, a1) is
    the lexicographically smallest vertex: along each boundary edge of a
    square the values rise or fall with slope 1 the whole way, adjacent
    edges alternating, which is the steepest closed boundary condition.
    In dimension 1 the data is linear, anchor + direction * (v0 - a0),
    on the two endpoints.  The anchor must match the parity of the
    lexicographically smallest vertex.
    """
    if direction not in (1, -1):
        raise ValueError(f"direction must be +1 or -1, got {direction}")
    from .lattice import boundary as region_boundary

    if not region.is_box():
        raise ValueError("extremal boundary data is defined for boxes only")
    lows = np.asarray(region.vertex_list[0], dtype=np.int64)
    if (int(anchor) - _vertex_parity(tuple(lows))) % 2 != 0:
        raise ValueError(
            f"anchor {anchor} has wrong parity for corner {tuple(lows)}"
        )
    if region.dimension == 1:
        values = {
            v: anchor + direction * (v[0] - int(lows[0]))
            for v in region_boundary(region)
        }
    elif region.dimension == 2:
        a0, a1 = int(lows[0]), int(lows[1])
        values = {
            v: anchor + direction * abs((v[0] - a0) - (v[1] - a1))
            for v in region_boundary(region)
        }
    else:
        raise NotImplementedError(
            "extremal boundary data implemented for dimensions 1 and 2"
        )
    return HeightFunction.from_dict(values)


# ---------------------------------------------------------------------------
# text format: first line the dimension m, then one vertex per line as
# m coordinates followed by the height value.


def parse_heights(text: str) -> HeightFunction:
    from .lattice import _data_lines

    rows = _data_lines(text)
    if not rows:
        raise ValueError("empty height file")
    if len(rows[0]) != 1:
        raise ValueError(f"first line must be the dimension, got {rows[0]}")
    m = int(rows[0][0])
    if m < 1:
        raise ValueError(f"dimension must be >= 1, got {m}")
    values: dict[Vertex, int] = {}
    for row in rows[1:]:
        if len(row) != m + 1:
            raise ValueError(
                f"expected {m} coordinates and a value per line, got {row}"
            )
        v = tuple(int(c) for c in row[:m])
        if v in values:
            raise ValueError(f"duplicate vertex {v}")
        values[v] = int(row[m])
    if not values:
        raise ValueError("height file has no vertices")
    return HeightFunction.from_dict(values)


def format_heights(f: HeightFunction) -> str:
    m = len(f.domain[0])
    lines = [str(m)]
    for v, z in f.items():
        lines.append(" ".join(str(c) for c in v) + f" {z}")
    return "\n".join(lines) + "\n"


def read_heights(path) -> HeightFunction:
    with open(path, "r", encoding="utf-8") as f:
        return parse_heights(f.read())


def write_heights(path, f: HeightFunction) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_heights(f))


# dense 2D grid format: first line "2 n0 n1", then n0 rows of n1 heights;
# row i column j holds the value at vertex (lows[0] + i, lows[1] + j).


def format_grid(grid: np.ndarray) -> str:
    arr = np.asarray(grid)
    if arr.ndim != 2:
        raise ValueError(f"grid must be 2D, got shape {arr.shape}")
    lines = [f"2 {arr.shape[0]} {arr.shape[1]}"]
    for row in arr:
        lines.append(" ".join(str(int(z)) for z in row))
    return "\n".join(lines) + "\n"


def parse_grid(text: str) -> np.ndarray:
    from .lattice import _data_lines

    rows = _data_lines(text)
    if not rows:
        raise ValueError("empty grid file")
    header = rows[0]
    if len(header) != 3 or header[0] != "2":
        raise ValueError(f"grid header must be '2 n0 n1', got {header}")
    n0, n1 = int(header[1]), int(header[2])
    body = rows[1:]
    if len(body) != n0 or any(len(r) != n1 for r in body):
        raise ValueError(f"grid body must be {n0} rows of {n1} values")
    return np.asarray([[int(z) for z in r] for r in body], dtype=np.int64)
