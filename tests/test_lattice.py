"""Regions: construction, adjacency, distances, boundaries, file I/O.

Expected values are derived by hand.  A 3x3 box has 9 vertices and
2 * 3 * 2 = 12 axis edges; its l1 diameter is (2-0) + (2-0) = 4; the
boundary ring has 8 vertices.  Removing the center leaves an 8-cycle
on which the two opposite edge midpoints are 4 apart instead of 2.
"""

import numpy as np
import pytest

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
