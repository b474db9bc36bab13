"""Regions: construction, adjacency, distances, boundaries, file I/O.

Expected values are derived by hand.  A 3x3 box has 9 vertices and
2 * 3 * 2 = 12 axis edges; its l1 diameter is (2-0) + (2-0) = 4; the
boundary ring has 8 vertices.  Removing the center leaves an 8-cycle
on which the two opposite edge midpoints are 4 apart instead of 2.

The array-backed Region is also checked against ``OracleRegion``, a
per-vertex constructor on Python tuples and ints.
"""

import copy
import itertools
import pickle
import random
import re
from collections import deque

import numpy as np
import pytest

from randomsurfaces import lattice
from randomsurfaces.lattice import (
    Region,
    boundary,
    distance_map,
    format_region,
    graph_distance,
    induced_edges,
    make_box,
    multi_source_distances,
    neighbors,
    outer_extension,
    parse_region,
    read_region,
    relative_boundary,
    write_region,
)


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


class OracleRegion:
    """The per-vertex Region constructor on Python tuples (test oracle).

    Copied from the tuple-based Region that the array-backed one
    replaced: sorted, deduplicated vertices; each vertex's in-region
    neighbours found by adding the 2m unit steps; edges (i, j), i < j,
    read off the neighbour lists; a breadth-first connectivity check.
    Python ints never wrap, so this also holds for coordinates far
    outside any fixed-width range.
    """

    def __init__(self, vertices):
        vs = sorted({_oracle_vertex(v) for v in vertices})
        if not vs:
            raise ValueError("region must be nonempty")
        m = len(vs[0])
        for v in vs:
            if len(v) != m:
                raise ValueError(
                    f"mixed dimensions in region: {vs[0]} vs {v}"
                )
        self.dimension = m
        self.vertex_list = tuple(vs)
        pos = {v: i for i, v in enumerate(vs)}
        self.position = pos

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
        self.neighbor_positions = tuple(nbrs)

        # edges as index pairs (i, j), i < j, lexicographic
        edges = []
        for i, row in enumerate(nbrs):
            for j in row:
                if i < j:
                    edges.append((i, j))
        self.edge_positions = tuple(edges)

        n = len(self.vertex_list)
        seen = [False] * n
        seen[0] = True
        queue = deque([0])
        count = 1
        while queue:
            i = queue.popleft()
            for j in self.neighbor_positions[i]:
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

    def boundary(self):
        return {
            v
            for v, nb in zip(self.vertex_list, self.neighbor_positions)
            if len(nb) < 2 * self.dimension
        }

    def sides(self):
        return [
            max(c) - min(c) + 1 for c in zip(*self.vertex_list)
        ]

    def is_box(self):
        count = 1
        for side in self.sides():
            count *= side
        return count == len(self.vertex_list)

    def l1_diameter(self):
        return sum(side - 1 for side in self.sides())

    def outer_extension(self):
        steps = _unit_steps(self.dimension)
        vs = set(self.vertex_list)
        for v in self.vertex_list:
            for s in steps:
                vs.add(tuple(a + b for a, b in zip(v, s)))
        return OracleRegion(vs)


def _unit_steps(m):
    steps = []
    for i in range(m):
        for s in (1, -1):
            e = [0] * m
            e[i] = s
            steps.append(tuple(e))
    return steps


def _oracle_vertex(v):
    t = tuple(v)
    if not t or not all(isinstance(c, (int, np.integer)) for c in t):
        raise ValueError(f"vertex must be a nonempty tuple of ints, got {v!r}")
    return tuple(int(c) for c in t)


def assert_matches_oracle(region, oracle, outer=True):
    assert region.dimension == oracle.dimension
    assert region.vertex_list == oracle.vertex_list
    assert all(type(c) is int for v in region.vertex_list for c in v)
    assert region.vertex_set == frozenset(oracle.vertex_list)
    assert region._position == oracle.position
    assert list(region._position) == list(oracle.position)
    for v, i in oracle.position.items():
        assert region.position(v) == i
    assert region._neighbor_positions == oracle.neighbor_positions
    for i, row in enumerate(oracle.neighbor_positions):
        assert region.neighbor_positions(i) == row
    assert region.edge_positions == oracle.edge_positions
    ea, eb = region.edge_arrays()
    assert ea.dtype == eb.dtype == np.int64
    assert not ea.flags.writeable and not eb.flags.writeable
    assert list(zip(ea.tolist(), eb.tolist())) == list(oracle.edge_positions)
    got, want = boundary(region), oracle.boundary()
    assert got == want and list(got) == list(want)
    assert region.is_box() == oracle.is_box()
    assert region.l1_diameter() == oracle.l1_diameter()
    if outer:
        assert (
            outer_extension(region).vertex_list
            == oracle.outer_extension().vertex_list
        )


def oracle_error(vertices):
    with pytest.raises(ValueError) as err:
        OracleRegion(vertices)
    return str(err.value)


def ring3():
    """The 3x3 box with its center removed: an 8-cycle."""
    return Region(v for v in make_box((0, 0), (2, 2)) if v != (1, 1))


def boundary_by_scan(region):
    """Vertices with a lattice neighbour outside the region, by scanning."""
    m = region.dimension
    steps = [
        tuple(s if k == i else 0 for k in range(m))
        for i in range(m) for s in (1, -1)
    ]
    out = set()
    for v in region.vertex_list:
        for st in steps:
            if tuple(a + b for a, b in zip(v, st)) not in region.vertex_set:
                out.add(v)
                break
    return out


class TestRegionConstruction:
    def test_box_size_and_order(self):
        box = make_box((0, 0), (2, 2))
        assert len(box) == 9
        assert box.dimension == 2
        assert box.vertex_list == tuple(
            (i, j) for i in range(3) for j in range(3)
        )  # lexicographic

    def test_box_3d(self):
        box = make_box((0, 0, 0), (1, 1, 1))
        assert len(box) == 8
        assert box.l1_diameter() == 3
        # every vertex of a 2x2x2 box touches the outside
        assert boundary(box) == set(box.vertex_list)

    def test_membership_and_position(self):
        box = make_box((0, 0), (2, 2))
        assert (1, 2) in box
        assert (3, 0) not in box
        for i, v in enumerate(box.vertex_list):
            assert box.position(v) == i

    def test_membership_of_non_vertices_is_false(self):
        box = make_box((0, 0), (2, 2))
        assert 5 not in box
        assert None not in box
        assert "ab" not in box
        assert ([0], [0]) not in box
        assert np.int64(0) not in make_box((0,), (2,))

    @pytest.mark.parametrize(
        "lows, highs",
        [((0.5,), (3,)), (("0",), ("3",)), ((0, 0), (2, 2.0)),
         ((np.float64(0),), (1,))],
    )
    def test_box_bounds_must_be_ints(self, lows, highs):
        with pytest.raises(ValueError, match="nonempty tuple of ints"):
            make_box(lows, highs)

    def test_box_bounds_accept_numpy_integers(self):
        box = make_box((np.int64(-1), np.int8(0)), (np.int32(1), 2))
        assert box == make_box((-1, 0), (1, 2))

    def test_duplicate_vertices_collapse(self):
        r = Region([(0,), (1,), (0,), (1,)])
        assert len(r) == 2

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            Region([(0, 0), (2, 0)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Region([])

    def test_mixed_dimension_rejected(self):
        with pytest.raises(ValueError):
            Region([(0, 0), (0, 0, 0)])

    def test_equality_ignores_input_order(self):
        a = Region([(0, 0), (0, 1), (1, 1)])
        b = Region([(1, 1), (0, 1), (0, 0)])
        assert a == b

    def test_tuple_input_equals_the_box(self):
        vs = [(i, j) for j in range(3) for i in range(-1, 2)]
        box = make_box((-1, 0), (1, 2))
        assert Region(vs) == box and hash(Region(vs)) == hash(box)

    def test_dimension_separates_equal_coordinate_counts(self):
        # four vertices of a path either way: 4 x 1 against 4 x 2 coordinates
        line, strip = make_box((0,), (3,)), make_box((0, 0), (0, 3))
        assert line != strip and strip != line
        assert line != make_box((0,), (2,))

    @pytest.mark.parametrize(
        "duplicate",
        [
            lambda r: pickle.loads(pickle.dumps(r)),
            copy.copy,
            copy.deepcopy,
        ],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_copies_are_rebuilt_read_only(self, duplicate):
        for region in (make_box((0, 0), (2, 2)), Region([(0, 0), (0, 1), (1, 1)])):
            region.vertex_list  # a cached view is not carried over
            twin = duplicate(region)
            assert twin is not region and "vertex_list" not in twin.__dict__
            assert twin == region and hash(twin) == hash(region)
            assert twin.vertex_list == region.vertex_list
            ea, eb = twin.edge_arrays()
            for a in (twin._coords, twin._neighbors, twin._degree, ea, eb):
                assert not a.flags.writeable
            with pytest.raises(AttributeError, match="immutable"):
                twin.dimension = 3


def count_bfs(monkeypatch, fail=False):
    """Count (or forbid) ``lattice._bfs`` calls."""
    calls = []
    bfs = lattice._bfs

    def counting(nbrs, sources):
        if fail:
            raise AssertionError("the connectivity search ran")
        calls.append(len(nbrs))
        return bfs(nbrs, sources)

    monkeypatch.setattr(lattice, "_bfs", counting)
    return calls


class TestConnectivitySearch:
    """A region that fills its bounding box is connected without a search;
    any other region is still searched, with the same error text."""

    @pytest.mark.parametrize(
        "lows, highs",
        [
            ((5,), (5,)),
            ((0, 0), (0, 0)),
            ((-3, 7, 0), (-3, 7, 0)),
            ((0, 0, 0), (2, 3, 1)),
            ((-1, 4, 2), (1, 4, 5)),
            ((INT64_MAX - 2, INT64_MIN), (INT64_MAX, INT64_MIN + 1)),
            ((INT64_MIN, INT64_MAX - 1, 0), (INT64_MIN + 1, INT64_MAX, 1)),
        ],
    )
    def test_boxes_build_without_a_search(self, monkeypatch, lows, highs):
        want = OracleRegion(
            itertools.product(*(range(a, b + 1) for a, b in zip(lows, highs)))
        )
        count_bfs(monkeypatch, fail=True)
        box = make_box(lows, highs)
        assert box.is_box()
        assert box.vertex_list == want.vertex_list
        assert box.neighbor_positions(0) == want.neighbor_positions[0]
        # the same vertices given shuffled, with repeats, fill the box too
        vs = list(box.vertex_list) * 2
        random.Random(3).shuffle(vs)
        assert Region(vs) == box

    def test_l_shape_is_searched(self, monkeypatch):
        calls = count_bfs(monkeypatch)
        region = Region([(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)])
        assert not region.is_box()
        assert calls == [5]

    @pytest.mark.parametrize(
        "vertices, message",
        [
            ([(0, 0), (0, 2)], "(0, 2) unreachable from (0, 0)"),
            # repeats make as many inputs as the 3-point bounding box has
            ([(0, 0), (0, 0), (0, 2)], "(0, 2) unreachable from (0, 0)"),
            ([(1, 1), (0, 0), (0, 1), (1, 3)], "(1, 3) unreachable from (0, 0)"),
            ([(0,), (INT64_MAX,)], f"({INT64_MAX},) unreachable from (0,)"),
        ],
    )
    def test_disconnected_message(self, monkeypatch, vertices, message):
        calls = count_bfs(monkeypatch)
        with pytest.raises(ValueError) as err:
            Region(vertices)
        assert str(err.value) == f"region is not connected: {message}"
        assert len(calls) == 1

    def test_bounds_are_python_ints(self, metric_instances):
        for region, _, _ in metric_instances:
            lows, highs = region._bounds
            assert lows == tuple(region._coords.min(axis=0).tolist())
            assert highs == tuple(region._coords.max(axis=0).tolist())
            assert {type(c) for c in lows + highs} == {int}

    def test_vertex_set_is_built_on_first_use(self):
        box = make_box((0, 0), (2, 2))
        assert "vertex_set" not in box.__dict__
        assert (1, 1) in box and (3, 3) not in box
        assert "vertex_set" not in box.__dict__
        assert box.vertex_set == frozenset(box.vertex_list)
        assert box.vertex_set is box.vertex_set


class TestEdgesAndNeighbors:
    def test_box_edge_count(self):
        box = make_box((0, 0), (2, 2))
        ea, eb = box.edge_arrays()
        assert len(ea) == len(eb) == 12
        # every edge is an axis step of length 1
        for a, b in zip(ea, eb):
            x, y = box.vertex_list[a], box.vertex_list[b]
            assert sum(abs(p - q) for p, q in zip(x, y)) == 1

    def test_neighbors_by_degree(self):
        box = make_box((0, 0), (2, 2))
        assert neighbors(box, (1, 1)) == {(0, 1), (2, 1), (1, 0), (1, 2)}
        assert neighbors(box, (0, 0)) == {(0, 1), (1, 0)}
        assert neighbors(box, (0, 1)) == {(0, 0), (0, 2), (1, 1)}

    def test_ring_is_two_regular(self):
        r = ring3()
        assert len(r) == 8
        for v in r.vertex_list:
            assert len(neighbors(r, v)) == 2

    def test_induced_edges_partial_set(self):
        # L-shaped triple: exactly two edges, returned as sorted pairs
        got = induced_edges([(0, 0), (0, 1), (1, 1)])
        assert sorted(got) == [((0, 0), (0, 1)), ((0, 1), (1, 1))]

    def test_induced_edges_no_diagonals(self):
        assert induced_edges([(0, 0), (1, 1)]) == []


class TestDistances:
    def test_distance_map_is_l1_on_a_box(self):
        # boxes are l1-convex, so the graph metric from a corner is the
        # l1 distance
        box = make_box((0, 0), (2, 2))
        dm = distance_map(box, (0, 0))
        for v, d in dm.items():
            assert d == v[0] + v[1]

    def test_removing_the_center_stretches_distances(self):
        box = make_box((0, 0), (2, 2))
        assert graph_distance(box, (0, 1), (2, 1)) == 2
        assert graph_distance(ring3(), (0, 1), (2, 1)) == 4

    def test_distance_symmetry(self):
        r = ring3()
        for x in [(0, 0), (0, 1), (2, 2)]:
            for y in [(1, 0), (2, 1)]:
                assert graph_distance(r, x, y) == graph_distance(r, y, x)

    def test_multi_source_matches_brute_force(self, metric_instances):
        # offsets are arbitrary integers here, not height data
        for region, pins, dist in metric_instances:
            got = multi_source_distances(region, pins)
            srcs = [region.position(v) for v in pins]
            offs = np.asarray([pins[v] for v in pins])
            want = (offs[:, None] + dist[srcs, :]).min(axis=0)
            assert got.dtype == np.int64
            assert np.array_equal(got, want)

    def test_single_source_distances_match_brute_force(self, metric_instances):
        for region, _, dist in metric_instances:
            vs = region.vertex_list
            n = len(vs)
            for i, x in enumerate(vs):
                assert distance_map(region, x) == dict(zip(vs, dist[i].tolist()))
                j = (7 * i + 3) % n
                assert graph_distance(region, x, vs[j]) == dist[i, j]

    def test_multi_source_single_source_is_distance_map(self):
        r = ring3()
        dm = distance_map(r, (0, 1))
        got = multi_source_distances(r, {(0, 1): 0})
        assert got.tolist() == [dm[v] for v in r.vertex_list]

    def test_multi_source_jumps_between_far_offsets(self):
        path = make_box((0,), (2,))
        got = multi_source_distances(path, {(0,): 0, (2,): 10**9})
        assert got.tolist() == [0, 1, 2]
        got = multi_source_distances(path, {(0,): -(10**9), (2,): 10**9})
        assert got.tolist() == [-(10**9), 1 - 10**9, 2 - 10**9]

    def test_multi_source_late_source_already_reached(self):
        # (2,) is reached at level 2 before its own offset 5 comes up
        path = make_box((0,), (3,))
        got = multi_source_distances(path, {(0,): 0, (2,): 5, (3,): -1})
        assert got.tolist() == [0, 1, 0, -1]

    def test_multi_source_needs_a_source(self):
        with pytest.raises(ValueError):
            multi_source_distances(ring3(), {})

    def test_multi_source_rejects_outside_source(self):
        with pytest.raises(KeyError):
            multi_source_distances(ring3(), {(1, 1): 0})

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_closed_form_matches_the_search_on_random_boxes(self, dim):
        # sides on both sides of the crossover; below it the closed form is
        # called directly, at and above it through multi_source_distances
        rng = random.Random(dim)
        sides = {1: [(7,), (399,), (400,), (901,)],
                 2: [(1, 9), (5, 6), (19, 21), (20, 20), (3, 200), (31, 17)],
                 3: [(1, 1, 5), (2, 3, 4), (7, 7, 8), (8, 8, 8), (5, 9, 11)]}
        for shape in sides[dim]:
            lows = tuple(rng.randrange(-5, 5) for _ in shape)
            box = make_box(lows, tuple(a + s - 1 for a, s in zip(lows, shape)))
            for _ in range(3):
                picked = rng.sample(box.vertex_list, rng.randint(1, min(len(box), 40)))
                offsets = {v: rng.randint(-30, 30) for v in picked}
                at = [box.position(v) for v in offsets]
                zs = list(offsets.values())
                dist, _ = lattice._bfs(box._neighbor_positions, sorted(zip(zs, at)))
                got = lattice._box_distances(box, at, zs)
                assert got.dtype == np.int64
                assert got.tolist() == dist
                if len(box) >= lattice._CLOSED_FORM_MIN:
                    assert multi_source_distances(box, offsets).tolist() == dist

    def test_closed_form_is_the_large_box_path(self, monkeypatch):
        small = make_box((0, 0), (19, 18))
        large = make_box((0, 0), (19, 19))
        assert len(small) < lattice._CLOSED_FORM_MIN <= len(large)
        calls = count_bfs(monkeypatch)
        multi_source_distances(small, {(0, 0): 0})
        assert calls == [len(small)]
        multi_source_distances(large, {(0, 0): 0})
        assert calls == [len(small)]

    def test_single_source_queries_take_the_closed_form(self, monkeypatch):
        # distance_map and graph_distance ran their own search on every
        # region; on a large box they now read the l1 closed form
        box = make_box((-3, 2), (17, 21))
        assert len(box) >= lattice._CLOSED_FORM_MIN
        vs = box.vertex_list
        count_bfs(monkeypatch, fail=True)
        for x in (vs[0], (5, 9), vs[-1]):
            dm = distance_map(box, x)
            assert list(dm) == list(vs)
            assert list(dm.values()) == [
                abs(v[0] - x[0]) + abs(v[1] - x[1]) for v in vs
            ]
            assert {type(d) for d in dm.values()} == {int}
            for y in ((2, 2), (17, 21), (-3, 14)):
                d = graph_distance(box, x, y)
                assert type(d) is int and d == dm[y]
        for call in (
            lambda: distance_map(box, (18, 2)),
            lambda: graph_distance(box, (18, 2), (0, 2)),
            lambda: graph_distance(box, (0, 2), (18, 2)),
        ):
            with pytest.raises(KeyError):
                call()

    def test_closed_form_at_the_ends_of_int64(self):
        box = make_box((0, 0), (19, 19))  # l1 diameter 38
        far = {(0, 0): INT64_MIN, (19, 19): INT64_MAX, (3, 4): 10**30}
        got = multi_source_distances(box, far)
        assert got.tolist() == [INT64_MIN + i + j for i, j in box.vertex_list]
        top = multi_source_distances(box, {(19, 19): INT64_MAX - 38})
        assert top.max() == INT64_MAX

    @pytest.mark.parametrize("side", [3, 20])
    def test_distances_leaving_int64_raise_on_both_paths(self, side):
        # 3x3 takes the search, 20x20 the closed form; neither wraps around
        box = make_box((0, 0), (side - 1, side - 1))
        bound = r"^distances leave the int64 range \[-9223372036854775808, 9223372036854775807\]$"
        with pytest.raises(OverflowError, match=bound):
            multi_source_distances(box, {(0, 0): INT64_MAX - 1})
        with pytest.raises(OverflowError, match=bound):
            multi_source_distances(box, {(0, 0): INT64_MIN - 1, (1, 1): 0})

    def test_l1_diameter(self):
        assert make_box((0, 0), (2, 2)).l1_diameter() == 4
        assert make_box((0,), (4,)).l1_diameter() == 4
        assert make_box((-1, -1), (1, 2)).l1_diameter() == 5


class TestBoundaries:
    def test_is_box(self):
        assert make_box((0, 0), (2, 2)).is_box()
        assert make_box((-3, 1, 0), (-1, 2, 4)).is_box()
        assert make_box((5,), (9,)).is_box()
        assert Region([(7, 7)]).is_box()
        assert not ring3().is_box()
        assert not Region([(0, 0), (0, 1), (1, 1)]).is_box()

    def test_box_boundary_is_the_ring(self):
        box = make_box((0, 0), (2, 2))
        assert boundary(box) == set(ring3().vertex_list)

    def test_path_boundary_is_endpoints(self):
        path = make_box((0,), (4,))
        assert boundary(path) == {(0,), (4,)}

    def test_boundary_matches_lattice_neighbour_scan(self, metric_instances):
        # the degree form against the scan of every lattice neighbour;
        # equal insertion order gives equal iteration order too
        regions = [r for r, _, _ in metric_instances] + [
            make_box((0, 0, 0), (2, 3, 1)),
            Region([(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)]),
            make_box((-2,), (3,)),
            Region([(5, 5)]),
        ]
        for region in regions:
            got = boundary(region)
            want = boundary_by_scan(region)
            assert got == want and list(got) == list(want)

    def test_relative_boundary_of_the_ring(self):
        # ring vertices adjacent to the center within the box
        box = make_box((0, 0), (2, 2))
        sub = set(ring3().vertex_list)
        assert relative_boundary(box, sub) == {(0, 1), (1, 0), (1, 2), (2, 1)}

    def test_relative_boundary_of_everything_is_empty(self):
        box = make_box((0, 0), (2, 2))
        assert relative_boundary(box, box.vertex_list) == set()

    def test_relative_boundary_rejects_outside_vertices(self):
        box = make_box((0, 0), (2, 2))
        with pytest.raises(ValueError):
            relative_boundary(box, [(5, 5)])

    def test_outer_extension_of_a_path(self):
        path = make_box((0,), (2,))
        assert set(outer_extension(path).vertex_list) == {
            (-1,), (0,), (1,), (2,), (3,)
        }

    def test_outer_extension_of_a_box(self):
        # 9 box vertices + 3 outer neighbors per side (no diagonals) = 21
        box = make_box((0, 0), (2, 2))
        assert len(outer_extension(box)) == 21


class TestAgainstTheOracle:
    def test_random_regions(self, metric_instances):
        rng = random.Random(5)
        for region, _, _ in metric_instances:
            vs = list(region.vertex_list)
            rng.shuffle(vs)
            assert_matches_oracle(Region(vs), OracleRegion(vs))

    @pytest.mark.parametrize(
        "lows, highs",
        [
            ((-3,), (4,)),
            ((5,), (5,)),
            ((2, -1, 5), (4, 1, 6)),
            ((-7, 3, 0), (-6, 3, 2)),
            ((0, 0, 0, 0), (1, 2, 1, 1)),
            ((-1, 10), (3, 12)),
        ],
    )
    def test_boxes_off_the_origin(self, lows, highs):
        vs = list(
            itertools.product(*(range(a, b + 1) for a, b in zip(lows, highs)))
        )
        assert_matches_oracle(make_box(lows, highs), OracleRegion(vs))

    @pytest.mark.parametrize("v", [(7,), (-3, 4), (2, -9, 0), (1,) * 6])
    def test_one_vertex_regions(self, v):
        assert_matches_oracle(Region([v]), OracleRegion([v]))
        assert_matches_oracle(Region(np.array([v])), OracleRegion([v]))

    def test_generator_input(self):
        def gen():
            return (
                (i, j) for i in range(4) for j in range(5) if (i, j) != (2, 2)
            )

        assert_matches_oracle(Region(gen()), OracleRegion(gen()))

    def test_shuffled_input_with_duplicates(self):
        rng = random.Random(11)
        holes = {(1, 1, 1), (2, 1, 1), (0, 2, 0)}
        vs = [v for v in itertools.product(range(4), range(3), range(3))
              if v not in holes]
        doubled = vs + vs[: len(vs) // 2]
        rng.shuffle(doubled)
        assert_matches_oracle(Region(doubled), OracleRegion(doubled))
        as_array = np.asarray(doubled, dtype=np.int64)
        assert_matches_oracle(Region(as_array), OracleRegion(doubled))

    def test_numpy_integer_coordinates(self):
        vs = [(np.int64(i), np.int32(j)) for i in range(3) for j in range(-1, 2)]
        vs += [(np.uint8(3), 0), (np.int16(3), np.int8(1))]
        assert_matches_oracle(Region(vs), OracleRegion(vs))
        for dtype in (np.int8, np.int32, np.uint16):
            arr = np.array([(i, j) for i in range(3) for j in range(2)], dtype)
            assert_matches_oracle(Region(arr), OracleRegion(arr))

    def test_bool_coordinates_count_as_ints(self):
        vs = [(False, True), (True, True), (0, 0)]
        assert_matches_oracle(Region(vs), OracleRegion(vs))

    @pytest.mark.parametrize(
        "vertices",
        [
            [],
            [(0, 0), (0, 0, 0)],
            [(1, 2, 3), (0, 5), (0, 4), (9,)],
            [(0, 1), [0.5, 1]],
            [(0, 1), (np.float64(1.0), 1)],
            [(0,), (0.0,), ()],
            [(0, 1), ()],
            ["ab"],
            [(0, 0), (2, 0)],
            [(0, 0), (1, 1), (0, 1), (5, 5), (5, 6)],
            [(0,), (1,), (3,), (4,)],
            np.array([[0.5, 1.0]]),
            np.array([[True, False]]),
            np.zeros((0, 2), dtype=np.int64),
            np.zeros((3, 0), dtype=np.int64),
        ],
    )
    def test_error_messages(self, vertices):
        want = oracle_error(vertices)
        with pytest.raises(ValueError) as err:
            Region(vertices)
        assert str(err.value) == want

    def test_error_messages_for_generators(self):
        for make in (
            lambda: (v for v in [(0, 0), (3, 3)]),
            lambda: (v for v in [(0, 0), (1.0, 0)]),
            lambda: (v for v in ()),
        ):
            want = oracle_error(make())
            with pytest.raises(ValueError) as err:
                Region(make())
            assert str(err.value) == want


def random_blob(rng, sides, keep):
    """The component of the first kept vertex of a randomly thinned box."""
    kept = {
        v for v in itertools.product(*map(range, sides)) if rng.random() < keep
    }
    start = min(kept)
    component, stack = {start}, [start]
    while stack:
        v = stack.pop()
        for i in range(len(v)):
            for s in (1, -1):
                w = v[:i] + (v[i] + s,) + v[i + 1 :]
                if w in kept and w not in component:
                    component.add(w)
                    stack.append(w)
    return sorted(component)


def far_apart_inputs():
    return [
        [(0,), (2**62,)],
        [(0,), (2**32 + 1,)],
        [(3, 0), (3, 1), (3, 2**32 + 2)],
        [(INT64_MIN,), (INT64_MAX,)],
        [(INT64_MAX, 0), (INT64_MIN, 0)],
        [(0, INT64_MAX), (1, INT64_MIN)],
        [(INT64_MAX, INT64_MAX), (INT64_MIN, INT64_MIN)],
        [(INT64_MAX - 1,), (INT64_MAX,), (INT64_MIN,), (INT64_MIN + 1,)],
    ]


class TestLargeRegions:
    """Large random regions, with duplicates, against the oracle."""

    def test_random_regions(self):
        rng = random.Random(8)
        for sides in [(12, 12), (20, 9), (6, 5, 5), (4, 4, 3, 3), (80,)]:
            for keep in (0.6, 0.8, 1.0):
                vs = random_blob(rng, sides, keep)
                vs = vs + vs[: len(vs) // 3]
                rng.shuffle(vs)
                assert_matches_oracle(Region(vs), OracleRegion(vs))

    def test_builder_on_disconnected_input(self):
        # the builder runs before the connectivity check; on any input its
        # edges are exactly the lattice-adjacent pairs (Python ints, which
        # cannot wrap around), in lexicographic order
        rng = random.Random(9)
        inputs = far_apart_inputs()
        for sides in [(9, 9), (5, 4, 3), (30,)]:
            box = list(itertools.product(*map(range, sides)))
            inputs += [[v for v in box if rng.random() < 0.5] for _ in range(5)]
        for vs in inputs:
            vs = vs + vs[:2]
            rng.shuffle(vs)
            got = lattice._graph(np.asarray(vs, dtype=np.int64))
            coords, nbr, degree, ea, eb = got
            sorted_vs = tuple(map(tuple, coords.tolist()))
            # each neighbour-matrix row cut to its degree
            rows = [row[:k] for row, k in zip(nbr.tolist(), degree.tolist())]
            assert sorted_vs == tuple(sorted(set(vs)))
            assert (
                tuple(coords.min(axis=0).tolist()),
                tuple(coords.max(axis=0).tolist()),
            ) == (tuple(map(min, zip(*vs))), tuple(map(max, zip(*vs))))
            assert coords.tolist() == [list(v) for v in sorted_vs]
            pos = {v: i for i, v in enumerate(sorted_vs)}
            want = sorted((pos[x], pos[y]) for x, y in lattice.induced_edges(vs))
            assert list(zip(ea.tolist(), eb.tolist())) == want
            assert degree.tolist() == list(map(len, rows))
            for i, row in enumerate(rows):
                assert list(row) == sorted(
                    [b for a, b in want if a == i] + [a for a, b in want if b == i]
                )
                assert nbr[i].tolist() == list(row) + [-1] * (len(nbr[i]) - len(row))


class TestFixedWidthCoordinates:
    def test_far_apart_vertices_are_not_adjacent(self):
        for vs in far_apart_inputs():
            want = oracle_error(vs)
            with pytest.raises(ValueError, match="not connected") as err:
                Region(vs)
            assert str(err.value) == want

    def test_far_apart_pieces_of_a_large_region(self):
        # two long paths along axis 1, at the two ends of int64 in axis 0
        # and 2**32 + 1 apart in axis 1
        ends = [(INT64_MAX, j) for j in range(50)]
        ends += [(INT64_MIN, j) for j in range(50)]
        ends += [(0, j) for j in range(70)] + [(0, 2**32 + 71)]
        for vs in (ends[:100], ends[100:]):
            want = oracle_error(vs)
            with pytest.raises(ValueError, match="not connected") as err:
                Region(vs)
            assert str(err.value) == want

    def test_long_thin_region_in_eight_dimensions(self):
        # a snake through coordinates near both ends of int64: a key that
        # combines coordinates into one integer would wrap around here
        v = [INT64_MAX - 40, INT64_MIN + 3, 2**62, -(2**61), 0, 7,
             INT64_MIN + 1, INT64_MAX - 1]
        vs = [tuple(v)]
        rng = random.Random(3)
        for _ in range(400):
            k = rng.randrange(8)
            step = rng.choice((1, -1))
            w = list(vs[-1])
            w[k] += step
            if INT64_MIN < w[k] < INT64_MAX:
                vs.append(tuple(w))
        region = Region(vs)
        assert len(region) > 100 and region.dimension == 8
        assert_matches_oracle(region, OracleRegion(vs))

    def test_coordinates_at_the_ends_of_int64(self):
        vs = [(INT64_MAX - 2,), (INT64_MAX - 1,), (INT64_MAX,)]
        region = Region(vs)
        assert_matches_oracle(region, OracleRegion(vs), outer=False)
        assert region.edge_positions == ((0, 1), (1, 2))
        with pytest.raises(ValueError, match=re.escape(f"({INT64_MAX},) has")):
            outer_extension(region)
        low = Region([(INT64_MIN, 5), (INT64_MIN, 4)])
        assert_matches_oracle(low, OracleRegion(low), outer=False)
        with pytest.raises(ValueError, match=re.escape(f"({INT64_MIN}, 4) has")):
            outer_extension(low)

    @pytest.mark.parametrize(
        "vertices, named",
        [
            ([(2**63,)], (2**63,)),
            ([(0, 0), (0, -(2**63) - 1)], (0, -(2**63) - 1)),
            ([(1, 2**70), (0, 0)], (1, 2**70)),
            ([(np.uint64(2**63), 0)], (2**63, 0)),
            (np.array([[2**63]], dtype=np.uint64), (2**63,)),
        ],
    )
    def test_coordinates_outside_int64_are_rejected(self, vertices, named):
        with pytest.raises(ValueError, match=re.escape(f"vertex {named} ")):
            Region(vertices)

    def test_box_bounds_outside_int64_are_rejected(self):
        with pytest.raises(ValueError, match=re.escape(f"vertex ({2**63},)")):
            make_box((2**63 - 1,), (2**63,))
        with pytest.raises(ValueError, match="int64"):
            make_box((-(2**63) - 1, 0), (0, 0))


class TestRegionFiles:
    def test_round_trip(self, tmp_path):
        r = ring3()
        path = tmp_path / "ring.region"
        write_region(str(path), r)
        assert read_region(str(path)) == r

    def test_format_starts_with_dimension(self):
        text = format_region(make_box((0,), (2,)))
        assert text.splitlines()[0].strip() == "1"

    def test_parse_ignores_comments_and_blanks(self):
        text = "# a path\n2\n\n0 0  # origin\n0 1\n1 1\n"
        assert parse_region(text) == Region([(0, 0), (0, 1), (1, 1)])

    def test_parse_rejects_wrong_coordinate_count(self):
        with pytest.raises(ValueError):
            parse_region("2\n0 0\n1\n")

    def test_parse_rejects_missing_dimension_line(self):
        with pytest.raises(ValueError):
            parse_region("0 0\n0 1\n")

    def test_parse_rejects_non_integer(self):
        with pytest.raises(ValueError):
            parse_region("2\n0 x\n")


class TestBoxSetupOutputs:
    """What the box set-up path hands on: envelopes in Python ints and
    grids in the text the per-element formula wrote."""

    def test_envelope_heights_are_python_ints(self, metric_instances):
        from randomsurfaces.heights import (
            extremal_boundary,
            kirszbraun_extendable,
            min_max_extensions,
        )

        box = make_box((0, 0), (6, 6))
        cases = [(box, extremal_boundary(box, -1, 2))]
        cases += [(region, pins) for region, pins, _ in metric_instances[:20]]
        for region, pins in cases:
            if not kirszbraun_extendable(region, pins):
                continue
            for f in min_max_extensions(region, pins):
                assert f.domain is region.vertex_list
                assert {type(z) for z in f.heights} == {int}

    @pytest.mark.parametrize("dtype", [np.int8, np.int64])
    def test_format_grid_matches_the_per_element_text(self, dtype):
        from randomsurfaces.heights import format_grid

        info = np.iinfo(dtype)
        rng = np.random.default_rng(17)
        for shape in [(1, 1), (3, 5), (6, 2)]:
            grid = rng.integers(-40, 40, size=shape).astype(dtype)
            grid.flat[0] = info.min
            grid.flat[-1] = info.max
            old = [f"2 {shape[0]} {shape[1]}"]
            old += [" ".join(str(int(z)) for z in row) for row in grid]
            assert format_grid(grid) == "\n".join(old) + "\n"

    def test_format_grid_reads_other_dtypes_with_int(self):
        from randomsurfaces.heights import format_grid

        for grid in (
            np.array([[True, False], [False, True]]),
            np.array([[2.7, -2.7], [0.0, -0.5]]),
            np.array([[2**70, -1], [3, 4]], dtype=object),
            np.array([[2**64 - 1, 0]], dtype=np.uint64),
        ):
            old = [f"2 {grid.shape[0]} {grid.shape[1]}"]
            old += [" ".join(str(int(z)) for z in row) for row in grid]
            assert format_grid(grid) == "\n".join(old) + "\n"
