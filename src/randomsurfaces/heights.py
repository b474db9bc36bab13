"""Height functions on lattice regions and their extension sets.

A height function on a set of lattice vertices takes integer values,
satisfies h(x) = x_1 + ... + x_m (mod 2) at every vertex, and changes by
exactly 1 across every adjacent pair of the set.  Given a region R and
values pinned on a subset R', the extension set M(R; h) collects all
height functions on R agreeing with h on R'.  Extendability is a metric
condition (see ``kirszbraun_extendable``): pinned values may not differ
by more than the within-region graph distance.

This module owns the one internal form of boundary data.  Pinned data is
validated once (``_pinned_map``) into its region positions in ascending
order, which is the lexicographic vertex order, with their values as
Python ints.  Its envelopes, the minimal and maximal extensions, are
int64 arrays aligned with ``region.vertex_list``; ``_pinned_envelopes``
returns (positions, low, high), and the sampler, the experiments and the
CLI pass that triple on as it is.  Each ``ExtensionSet`` keeps the triple
it was enumerated from, and the exact layer reads the pinned positions,
the potential window and the witness of an empty set there.
``HeightFunction`` is the form of the public API and of the height files
only: public functions wrap the arrays in it when they return.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from typing import Callable, Iterable, Mapping

import numpy as np

from .lattice import (
    _INT64_MAX,
    _INT64_MIN,
    Region,
    Vertex,
    _check_vertex,
    _data_lines,
    _distances,
    boundary as region_boundary,
    induced_edges,
)

__all__ = [
    "HeightFunction",
    "as_height_function",
    "ExtensionSet",
    "MemberView",
    "NoExtensionError",
    "parity_height",
    "validate",
    "is_parity_homomorphism",
    "kirszbraun_extendable",
    "kirszbraun_violation",
    "enumerate_extensions",
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


def _check_height(v: Vertex, z) -> int:
    """The height ``z`` at vertex ``v`` as a Python int, once it is an int
    or a numpy integer: a float, even an integral one, is refused rather
    than truncated."""
    if not isinstance(z, (int, np.integer)):
        raise ValueError(f"height at vertex {v} must be an integer, got {z!r}")
    return int(z)


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
        d = self.domain
        if not all(map(operator.lt, d, d[1:])):
            raise ValueError(
                "domain must be sorted lexicographically without repeats"
            )
        if not set(map(type, self.heights)) <= {int}:
            zs = tuple(map(_check_height, d, self.heights))
            object.__setattr__(self, "heights", zs)

    @classmethod
    def _trusted(
        cls, domain: tuple[Vertex, ...], heights: tuple[int, ...]
    ) -> "HeightFunction":
        """Build without the checks, for a domain known to be a sorted
        ``region.vertex_list`` and heights aligned with it."""
        f = object.__new__(cls)
        object.__setattr__(f, "domain", domain)
        object.__setattr__(f, "heights", heights)
        return f

    @classmethod
    def from_dict(cls, values: Mapping[Vertex, int]) -> "HeightFunction":
        items = sorted(
            (_check_vertex(v, None), _check_height(v, z))
            for v, z in values.items()
        )
        return cls(tuple(v for v, _ in items), tuple(z for _, z in items))

    @cached_property
    def _map(self) -> dict[Vertex, int]:
        return dict(zip(self.domain, self.heights))

    def __getitem__(self, v: Vertex) -> int:
        return self._map[tuple(v)]

    def __contains__(self, v) -> bool:
        try:
            return tuple(v) in self._map
        except TypeError:  # not iterable, or unhashable coordinates
            return False

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
    vals = {tuple(v): _check_height(v, z) for v, z in values.items()}
    if any((z - _vertex_parity(v)) % 2 for v, z in vals.items()):
        return False
    return all(abs(vals[x] - vals[y]) == 1 for x, y in induced_edges(vals))


def validate(region: Region, f: Mapping[Vertex, int]) -> bool:
    """True iff ``f`` is a height function defined on all of ``region``."""
    vals = {tuple(v): _check_height(v, z) for v, z in f.items()}
    if set(vals) != set(region.vertex_set):
        raise ValueError("function domain does not match the region")
    at = list(map(region._position.__getitem__, vals))
    return _is_height_function_at(region, at, list(vals.values()))


def _is_height_function_at(region: Region, at: list[int], zs: list[int]) -> bool:
    """True iff the heights ``zs`` at the distinct region positions ``at``
    form a height function on those vertices.

    Each height must have the parity of its vertex's coordinate sum, and
    the heights at the two ends of every region edge with both ends in
    ``at`` must differ by exactly 1.  The edges are read from the rows of
    ``at`` in the padded neighbour matrix (its padding -1 is no position),
    so the work is O(len(at)) and no neighbour tuple is built.
    """
    vs = region.vertex_list
    if any((z - sum(vs[i])) & 1 for i, z in zip(at, zs)):
        return False
    height = dict(zip(at, zs))
    for h, row in zip(zs, region._neighbors.take(at, 0).tolist()):
        for j in row:
            g = height.get(j)
            if g is not None and abs(g - h) != 1:
                return False
    return True


def _plain_vertices(keys: Iterable) -> bool:
    """True iff every key is a tuple of Python ints, the form that
    ``_check_vertex`` returns, so that no key needs that check."""
    return set(map(type, keys)) <= {tuple} and set(
        map(type, chain.from_iterable(keys))
    ) <= {int}


def _pinned_map(region: Region, pinned: Mapping[Vertex, int]) -> tuple[list, list]:
    """The pinned data, checked to be a height function in region, as
    region positions in ascending order and their values as Python ints.

    Ascending positions are the lexicographic vertex order.  Keys (the
    domain of a HeightFunction) that are all tuples of Python ints and
    all region vertices pass ``_check_vertex`` as they are, so they are
    taken without it; any other keys go through it, which raises its own
    errors in key order.
    """
    hf = isinstance(pinned, HeightFunction)
    keys = list(pinned.domain if hf else pinned)
    values = pinned.heights if hf else pinned.values()
    at = list(map(region._position.get, keys)) if _plain_vertices(keys) else None
    if at is None or None in at:
        vals = dict(zip(
            (_check_vertex(v, region.dimension) for v in keys), values
        ))
        keys, values = list(vals), vals.values()
        at = list(map(region._position.get, keys))
    zs = list(map(_check_height, keys, values))
    if not keys:
        raise ValueError("pinned data must be nonempty")
    if None in at:
        v = keys[at.index(None)]
        raise ValueError(f"pinned vertex {v} lies outside the region")
    if min(zs) < _INT64_MIN or max(zs) > _INT64_MAX:
        raise ValueError("pinned values must fit in int64")
    if not _is_height_function_at(region, at, zs):
        raise ValueError("pinned data is not a valid height function")
    at, zs = zip(*sorted(zip(at, zs)))
    return list(at), list(zs)


def _envelopes(
    region: Region, at: list[int], zs: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise greatest lower / least upper height bounds from pinned data.

    low(v) = max_x (h(x) - d_R(x, v)),  high(v) = min_x (h(x) + d_R(x, v)),
    for the values ``zs`` pinned at the positions ``at``.  One
    ``lattice._distances`` pass each (the l1 closed form on a large box,
    an offset BFS elsewhere): high with the pinned values as offsets, low
    with their negatives, negated back.  Pinned values that put either
    envelope outside int64 raise ValueError.
    """
    try:
        high = _distances(region, at, zs)
        low = -_distances(region, at, [-z for z in zs])
    except OverflowError:
        raise ValueError(
            "pinned values put the height envelopes outside the int64 range "
            f"[{_INT64_MIN}, {_INT64_MAX}]"
        ) from None
    return low, high


def _first_violation(
    region: Region, at: list[int], zs: list[int], low: np.ndarray, high: np.ndarray
) -> tuple[Vertex, Vertex, int, int] | None:
    """The first pinned pair in sorted (x, y) order with a gap over d_R(x, y).

    ``at`` and ``zs`` are the pinned positions, ascending, and values.  A
    pinned x belongs to some violating pair exactly when its own value
    leaves its envelopes: high(x) < h(x) when some y lies more than
    d_R(x, y) below it, low(x) > h(x) when some y lies above.  So x is
    read off the envelopes, and the single-source distances from x (from
    ``lattice._distances``, so the closed form on a large box) name y.
    """
    outside = np.flatnonzero((high[at] < zs) | (low[at] > zs))
    vs = region.vertex_list
    for k in outside.tolist():
        dist = _distances(region, [at[k]], [0]).tolist()
        for j, zy in zip(at, zs):
            gap = abs(zs[k] - zy)
            if gap > dist[j]:
                return (vs[at[k]], vs[j], gap, dist[j])
    return None


def kirszbraun_violation(
    region: Region, pinned: Mapping[Vertex, int]
) -> tuple[Vertex, Vertex, int, int] | None:
    """First pinned pair with |h(x)-h(y)| > d_R(x,y), or None if extendable.

    The pair returned is the first in sorted (x, y) order, the one a scan
    of all pinned pairs would stop at.  Cost O(|R|): two distance passes
    for the envelopes (the l1 closed form on a large box, an offset BFS
    elsewhere), plus one single-source pass from x when the data is not
    extendable.
    """
    at, zs = _pinned_map(region, pinned)
    return _first_violation(region, at, zs, *_envelopes(region, at, zs))


def kirszbraun_extendable(region: Region, pinned: Mapping[Vertex, int]) -> bool:
    """Extension exists iff pinned gaps never exceed graph distance."""
    return kirszbraun_violation(region, pinned) is None


# The package's one form of boundary data: the pinned positions in
# ascending order, and the minimal and maximal extensions as int64 arrays
# aligned with ``region.vertex_list`` (pinned sites hold the pinned values).
_Envelopes = tuple[list[int], np.ndarray, np.ndarray]


def _pinned_envelopes(region: Region, pinned: Mapping[Vertex, int]) -> _Envelopes:
    """(pinned positions, low, high) for extendable pinned data.

    low and high are the envelopes of ``_envelopes``, the minimal and
    maximal extensions.  Raises NoExtensionError when none exists.
    """
    at, zs = _pinned_map(region, pinned)
    low, high = _envelopes(region, at, zs)
    _check_extendable(region, at, zs, low, high)
    return at, low, high


def _check_extendable(region: Region, at, zs, low, high) -> None:
    """Raise NoExtensionError, with ``_first_violation``'s witness, if low > high."""
    if (low > high).any():
        witness = _first_violation(region, at, zs, low, high)
        if witness is None:  # unreachable given low > high somewhere
            raise AssertionError("inconsistent envelope without metric witness")
        raise NoExtensionError(*witness)


def _check_nonempty(support: ExtensionSet) -> None:
    """Raise NoExtensionError, with its witness, if ``support`` is empty."""
    at, low, high = support._boundary
    _check_extendable(support.region, at, support.pinned.heights, low, high)


def _envelope_window(envelopes: _Envelopes) -> tuple[int, int]:
    """Edge indices lo..hi-1 felt by heights between the minimal and
    maximal extensions, lo = min(low) and hi = max(high)."""
    lo, hi = int(envelopes[1].min()), int(envelopes[2].max())
    # hi == lo: a single isolated value, and no edge can occur in a region
    return (lo, max(lo, hi - 1))


def min_max_extensions(
    region: Region, pinned: Mapping[Vertex, int]
) -> tuple[HeightFunction, HeightFunction]:
    """The pointwise-minimal and -maximal extensions of the pinned data.

    low(v) = max_x (h(x) - d_R(x,v)) and high(v) = min_x (h(x) + d_R(x,v));
    both are themselves height functions on the region and every extension
    lies between them pointwise.  Raises NoExtensionError when none exists.
    """
    _, low, high = _pinned_envelopes(region, pinned)
    vs = region.vertex_list
    return (
        HeightFunction._trusted(vs, tuple(low.tolist())),
        HeightFunction._trusted(vs, tuple(high.tolist())),
    )


def height_window(
    region: Region, pinned: Mapping[Vertex, int]
) -> tuple[int, int]:
    """Smallest interval [lo, hi] containing every extension's values."""
    _, low, high = _pinned_envelopes(region, pinned)
    return (int(low.min()), int(high.max()))


def _heights(offsets: np.ndarray, base: int) -> np.ndarray:
    """Offset rows back to int64 heights, in a new array."""
    arr = offsets.astype(np.int64)
    arr += base
    return arr


class MemberView(Sequence):
    """The members of an ExtensionSet, as a read-only tuple-like view.

    Holds the set's offset rows and base and builds a new HeightFunction
    each time a member is read: indexing builds one, iteration builds
    them a chunk of rows at a time, and a slice is again a view.  A view
    compares equal to a tuple of the same HeightFunctions and to a view
    with the same domain and rows; like a list it is unhashable.
    """

    __slots__ = ("_offsets", "_base", "_domain")

    def __init__(
        self, offsets: np.ndarray, base: int, domain: tuple[Vertex, ...]
    ):
        self._offsets = offsets
        self._base = base
        self._domain = domain

    def __len__(self) -> int:
        return len(self._offsets)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return MemberView(self._offsets[k], self._base, self._domain)
        row = _heights(self._offsets[operator.index(k)], self._base)
        return HeightFunction._trusted(self._domain, tuple(row.tolist()))

    def __iter__(self):
        for k in range(0, len(self._offsets), _MEMBER_CHUNK):
            chunk = _heights(self._offsets[k : k + _MEMBER_CHUNK], self._base)
            rows = zip(*chunk.T.tolist())
            yield from map(HeightFunction._trusted, repeat(self._domain), rows)

    def __eq__(self, other):
        if isinstance(other, MemberView):
            return len(self) == len(other) and (
                not len(self)
                or self._domain == other._domain
                and np.array_equal(
                    _heights(self._offsets, self._base),
                    _heights(other._offsets, other._base),
                )
            )
        if isinstance(other, tuple):
            return len(self) == len(other) and all(map(operator.eq, self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"<MemberView of {len(self)} members>"


@dataclass(frozen=True, eq=False)
class ExtensionSet:
    """All extensions of pinned data to a region, in lexicographic order.

    Stored as one array: row i of ``offsets`` holds member i's heights
    minus ``base``, aligned with ``region.vertex_list``, in the narrow
    integer type ``enumerate_extensions`` grew it in.  Rows are sorted by
    value tuple, so any two ExtensionSets over the same region whose
    members are shifts of one another align index by index.
    ``members_array`` is the int64 height array (read-only, built once);
    ``members`` is a lazy ``MemberView`` that builds a new HeightFunction
    on each access, so code that needs only heights should read rows.
    ``_boundary`` is ``pinned``'s boundary triple (positions, low, high),
    which the exact layer reads; low > high somewhere if the set is empty.
    """

    region: Region
    pinned: HeightFunction
    offsets: np.ndarray = field(repr=False)
    base: int = 0
    _boundary: _Envelopes | None = field(default=None, repr=False, kw_only=True)

    def __len__(self) -> int:
        return len(self.offsets)

    def __iter__(self):
        return iter(self.members)

    @property
    def members(self) -> MemberView:
        """The members as HeightFunctions, built on access."""
        return MemberView(self.offsets, self.base, self.region.vertex_list)

    @cached_property
    def members_array(self) -> np.ndarray:
        """(num members) x (region size) read-only int64 array of heights."""
        arr = _heights(self.offsets, self.base)
        arr.flags.writeable = False
        return arr

    def index_of(self, member: HeightFunction) -> int:
        try:
            return self._member_index[member.heights]
        except KeyError:
            raise ValueError("not a member of this extension set") from None

    @cached_property
    def _member_index(self) -> dict[tuple[int, ...], int]:
        """Row index by height tuple."""
        rows = zip(*self.members_array.T.tolist())
        return {row: i for i, row in enumerate(rows)}

    @cached_property
    def _annealed_laws(self) -> dict[tuple, np.ndarray]:
        """Annealed member laws by (model, mode, samples, first_draw).

        Filled by ``gibbs.annealed_member_probabilities``.
        """
        return {}


_MEMBER_CHUNK = 1024  # rows turned into members at a time
_TWO_CANDIDATES = np.array([0, 2], dtype=np.int8)  # offsets lo and lo + 2


def enumerate_extensions(
    region: Region, pinned: Mapping[Vertex, int]
) -> ExtensionSet:
    """Level-synchronous enumeration of M(region; pinned).

    Pinned data must be a nonempty valid height function on its induced
    adjacency; an inextendable pinned set yields the empty set (not an
    error).  All partial assignments grow together, one vertex of
    ``region.vertex_list`` at a time: at a free vertex each partial
    branches into the values lo, lo+2, ..., hi allowed by the min/max
    envelopes and by its earlier neighbours, and a partial with no value
    left is dropped.  Parents keep their order and their children ascend,
    so members come out sorted lexicographically by value tuple.  Heights
    are held as offsets from the lowest envelope value, in the narrowest
    integer type that holds the window.
    """
    at, zs = _pinned_map(region, pinned)
    vs = region.vertex_list
    pinned_f = HeightFunction._trusted(tuple(map(vs.__getitem__, at)), tuple(zs))
    n = len(vs)
    env_low, env_high = _envelopes(region, at, zs)
    boundary = (at, env_low, env_high)
    if (env_low > env_high).any():  # exactly when a pinned gap is too wide
        empty = np.empty((0, n), dtype=np.int8)
        return ExtensionSet(region, pinned_f, empty, _boundary=boundary)

    base = int(env_low.min())
    low = (env_low - base).tolist()
    high = (env_high - base).tolist()
    # offsets lie in [0, span]; the bounds below reach -1 and span + 1,
    # the second candidate lo + 2 up to span + 2
    dtype = np.min_scalar_type(-(max(high) + 3))
    fixed = set(at)
    partials = np.zeros((1, n), dtype=dtype)
    partials[0, at] = [z - base for z in zs]

    nbrs = region._neighbor_positions
    for i in range(n):
        if i in fixed:
            continue
        # a pinned neighbour's bound is already in the envelopes
        earlier = [j for j in nbrs[i] if j < i]
        if earlier:
            # every candidate is within 1 of each earlier neighbour, so
            # there are at most two: lo and lo + 2, kept while <= hi
            near = partials[:, earlier]
            lo = np.maximum(np.maximum.reduce(near, axis=1) - 1, low[i])
            hi = np.minimum(np.minimum.reduce(near, axis=1) + 1, high[i])
            cand = lo[:, None] + _TWO_CANDIDATES
            keep = cand <= hi[:, None]
            partials = partials.repeat(2, axis=0)[keep.ravel()]
            partials[:, i] = cand[keep]
        else:
            cand = np.arange(low[i], high[i] + 1, 2)
            partials = partials.repeat(len(cand), axis=0)
            partials[:, i] = np.tile(cand, len(partials) // len(cand))

    partials.flags.writeable = False
    return ExtensionSet(region, pinned_f, partials, base, _boundary=boundary)


def _resolve_support(
    region: Region, pinned: Mapping[Vertex, int], support: ExtensionSet | None
) -> ExtensionSet:
    """M(region; pinned): ``support`` when given, else enumerated.

    A given support must have been enumerated on ``region`` from data
    equal to ``pinned``, else ValueError.  Its own pinned data, and a
    mapping equal to it with tuples of Python ints as keys and Python
    ints as values, are taken in O(|pinned|) as they are; anything else
    goes through ``as_height_function``, which refuses what it refuses.
    """
    if support is None:
        return enumerate_extensions(region, pinned)
    if support.region is not region and support.region != region:
        raise ValueError("support was enumerated on another region")
    known = support.pinned
    plain = pinned is known or (
        known._map == pinned
        and set(map(type, pinned.values())) <= {int}
        and _plain_vertices(pinned)
    )
    if not plain and as_height_function(pinned) != known:
        raise ValueError("support was enumerated from other pinned data")
    return support


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
    if not region.is_box():
        raise ValueError("extremal boundary data is defined for boxes only")
    corner = region._bounds[0]
    if (int(anchor) - _vertex_parity(corner)) % 2 != 0:
        raise ValueError(
            f"anchor {anchor} has wrong parity for corner {corner}"
        )
    ring = sorted(region_boundary(region))
    if region.dimension == 1:
        values = [anchor + direction * (v[0] - corner[0]) for v in ring]
    elif region.dimension == 2:
        a0, a1 = corner
        values = [
            anchor + direction * abs((v[0] - a0) - (v[1] - a1)) for v in ring
        ]
    else:
        raise NotImplementedError(
            "extremal boundary data implemented for dimensions 1 and 2"
        )
    # the ring holds region vertices in sorted order: nothing to check
    return HeightFunction._trusted(tuple(ring), tuple(map(int, values)))


# ---------------------------------------------------------------------------
# text format: first line the dimension m, then one vertex per line as
# m coordinates followed by the height value.


def parse_heights(text: str) -> HeightFunction:
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
    rows = arr.tolist()
    if arr.dtype.kind not in "iu":  # bools, floats, objects: read by int()
        rows = [list(map(int, row)) for row in rows]
    lines = [f"2 {arr.shape[0]} {arr.shape[1]}"]
    lines += [" ".join(map(str, row)) for row in rows]
    return "\n".join(lines) + "\n"


def parse_grid(text: str) -> np.ndarray:
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
