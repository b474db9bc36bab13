"""Height functions: parity, extendability, envelopes, enumeration, I/O.

Hand-derived oracles used below:

* On the path 0..4 pinned {0: 0, 4: 0} the extensions are the +-1 walks
  of length 4 returning to 0, so there are C(4, 2) = 6 of them; the
  envelopes are low = (0, -1, -2, -1, 0) and high = (0, 1, 2, 1, 0).
* Pinning {(0,1): 1, (2,1): 5} on the 3x3 box is infeasible (gap 4 over
  graph distance 2) but feasible on the 8-cycle left by deleting the
  center (distance 4 there), with the unique member
  {(0,0): 2, (0,1): 1, (0,2): 2, (1,0): 3, (1,2): 3,
   (2,0): 4, (2,1): 5, (2,2): 4}.
* Extension counts confirmed by an independent itertools brute force:
  parity ring of the 3x3 box -> 2, of the 4x4 box -> 7; steepest
  (saddle) ring of the 3x3 box -> 2, of the 4x4 box -> 7.
"""

import itertools
import pickle
import time
from collections import deque

import numpy as np
import pytest

from randomsurfaces.heights import (
    ExtensionSet,
    HeightFunction,
    NoExtensionError,
    enumerate_extensions,
    extremal_boundary,
    format_grid,
    format_heights,
    height_window,
    is_parity_homomorphism,
    kirszbraun_extendable,
    kirszbraun_violation,
    min_max_extensions,
    parity_height,
    parse_grid,
    parse_heights,
    read_heights,
    validate,
    write_heights,
)
from randomsurfaces.heights import _check_nonempty, _pinned_envelopes, _pinned_map
from randomsurfaces.lattice import Region, boundary, make_box

BOX3 = make_box((0, 0), (2, 2))
RING3 = Region(v for v in BOX3 if v != (1, 1))
PATH5 = make_box((0,), (4,))
GAP_PIN = {(0, 1): 1, (2, 1): 5}  # feasible on the ring, not the box


def brute_force_extensions(region, pinned):
    """Independent itertools enumeration (parity filter + edge check)."""
    free = [v for v in region.vertex_list if v not in pinned]
    lo = min(pinned.values()) - len(region)
    hi = max(pinned.values()) + len(region)
    cands = [
        [z for z in range(lo, hi + 1) if (z - sum(v)) % 2 == 0]
        for v in free
    ]
    ea, eb = region.edge_arrays()
    out = []
    for combo in itertools.product(*cands):
        h = dict(pinned)
        h.update(zip(free, combo))
        flat = [h[v] for v in region.vertex_list]
        if all(abs(flat[a] - flat[b]) == 1 for a, b in zip(ea, eb)):
            out.append(tuple(flat))
    return sorted(out)


def pairwise_violation(region, pins, dist):
    """Scan all pinned pairs in sorted (x, y) order for gap > distance."""
    vs = sorted(pins)
    for x in vs:
        for y in vs:
            d = int(dist[region.position(x), region.position(y)])
            gap = abs(pins[x] - pins[y])
            if gap > d:
                return (x, y, gap, d)
    return None


def unpruned_extensions(region, pinned):
    """Extensions grown without envelope pruning, as sorted value tuples.

    Vertices are assigned in breadth-first order from the pinned set
    using only the local +-1 rule against assigned neighbours, so every
    free vertex has an assigned neighbour when its turn comes.
    Exponentially slower than ``enumerate_extensions``; small instances
    only.
    """
    fixed = {region.position(v): int(z) for v, z in pinned.items()}
    order = []
    seen = set(fixed)
    queue = deque(sorted(fixed))
    while queue:
        i = queue.popleft()
        order.append(i)
        for j in region.neighbor_positions(i):
            if j not in seen:
                seen.add(j)
                queue.append(j)
    partial = {}
    members = []

    def rec(k):
        if k == len(order):
            members.append(tuple(partial[i] for i in range(len(region))))
            return
        i = order[k]
        near = [partial[j] for j in region.neighbor_positions(i) if j in partial]
        candidates = [fixed[i]] if i in fixed else [near[0] - 1, near[0] + 1]
        for z in candidates:
            if all(abs(z - y) == 1 for y in near):
                partial[i] = z
                rec(k + 1)
                del partial[i]

    rec(0)
    return sorted(members)


class TestHeightFunction:
    def test_from_dict_sorts_domain(self):
        f = HeightFunction.from_dict({(1, 0): 1, (0, 0): 0})
        assert f.domain == ((0, 0), (1, 0))
        assert f.heights == (0, 1)

    def test_getitem_and_contains(self):
        f = HeightFunction.from_dict({(0,): 0, (1,): 1})
        assert f[(1,)] == 1
        assert (0,) in f and (5,) not in f
        # not iterable, or unhashable coordinates
        assert 5 not in f and [[0]] not in f

    def test_restrict(self):
        f = HeightFunction.from_dict({(0,): 0, (1,): 1, (2,): 2})
        g = f.restrict([(0,), (2,)])
        assert g.domain == ((0,), (2,))
        assert g.heights == (0, 2)

    def test_shift(self):
        f = HeightFunction.from_dict({(0,): 0, (1,): 1})
        assert f.shift(2).heights == (2, 3)
        assert f.shift(0) == f

    def test_le_pointwise(self):
        f = HeightFunction.from_dict({(0,): 0, (1,): 1})
        g = HeightFunction.from_dict({(0,): 2, (1,): 1})
        assert f.le(f)
        assert f.le(f.shift(2))
        assert not g.le(f)

    def test_as_dict_round_trip(self):
        d = {(0, 0): 0, (0, 1): 1}
        assert HeightFunction.from_dict(d).as_dict() == d

    def test_values_array(self):
        f = HeightFunction.from_dict({(0,): -1, (1,): 0})
        arr = f.values_array()
        assert arr.dtype == np.int64
        assert arr.tolist() == [-1, 0]

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(ValueError, match="without repeats"):
            HeightFunction(((0, 0), (0, 0)), (0, 0))

    def test_unsorted_domain_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            HeightFunction(((0, 1), (0, 0)), (1, 0))

    @pytest.mark.parametrize("z", [0.5, 1.7, 2.0, np.float64(2.0), "2", None])
    def test_non_integer_heights_rejected(self, z):
        # a float was truncated (1.7 stored as 1) or kept (0.5, whose
        # shift by 2 gave 2.5); the error names the vertex
        match = r"height at vertex \(1,\) must be an integer"
        with pytest.raises(ValueError, match=match):
            HeightFunction(((0,), (1,)), (0, z))
        with pytest.raises(ValueError, match=match):
            HeightFunction.from_dict({(0,): 0, (1,): z})

    def test_numpy_integer_heights_become_python_ints(self):
        for f in (
            HeightFunction(((0,), (1,)), (np.int64(0), np.int8(1))),
            HeightFunction.from_dict({(0,): np.int32(0), (1,): np.uint8(1)}),
        ):
            assert f.heights == (0, 1)
            assert {type(z) for z in f.heights} == {int}


class TestParity:
    def test_parity_height_values(self):
        f = parity_height(BOX3)
        for v in BOX3.vertex_list:
            assert f[v] == (v[0] + v[1]) % 2

    def test_parity_height_is_admissible(self):
        assert is_parity_homomorphism(parity_height(BOX3).as_dict())

    def test_wrong_parity_detected(self):
        # value 1 at the even vertex (0, 0)
        assert not is_parity_homomorphism({(0, 0): 1, (0, 1): 2})

    def test_bad_step_detected(self):
        # parity fine, but the edge gap is 3
        assert not is_parity_homomorphism({(0,): 0, (1,): 3})

    def test_isolated_vertices_unconstrained(self):
        # no induced edges: only the parity condition applies
        assert is_parity_homomorphism({(0, 0): 0, (2, 2): 10})

    def test_empty_map_rejected(self):
        with pytest.raises(ValueError):
            is_parity_homomorphism({})

    def test_floats_are_refused_not_truncated(self):
        # int() would read 0.9 as 0 and 1.2 as 1: a valid-looking step
        path3 = make_box((0,), (2,))
        with pytest.raises(ValueError, match=r"vertex \(0,\) must be an integer"):
            is_parity_homomorphism({(0,): 0.9, (1,): 1.2})
        with pytest.raises(ValueError, match=r"must be an integer, got 2.5"):
            validate(path3, {(0,): 0, (1,): 1, (2,): 2.5})
        with pytest.raises(ValueError, match="must be an integer"):
            validate(path3, {(0,): 0.9, (1,): 1, (2,): 2.5})
        # integers of any kind keep their verdicts
        assert validate(path3, {(0,): np.int8(0), (1,): 1, (2,): np.int64(2)})
        assert not is_parity_homomorphism({(0,): np.int64(0), (1,): 3})


class TestPinnedValidation:
    """Pinned data and ``validate`` are checked on the rows of the region's
    padded neighbour matrix; the public ``is_parity_homomorphism`` on the
    induced adjacency is the oracle."""

    def test_matches_the_oracle_on_random_pins(self, metric_instances):
        rng = np.random.default_rng(31)
        verdicts = {True: 0, False: 0}
        for region, pins, _ in metric_instances:
            cases = [pins]
            for shift in (2, -2, 1):  # +-2 may break a step, 1 the parity
                bad = dict(pins)
                v = list(pins)[int(rng.integers(len(pins)))]
                bad[v] += shift
                cases.append(bad)
            for data in cases:
                valid = is_parity_homomorphism(data)
                verdicts[valid] += 1
                want = sorted((region.position(v), z) for v, z in data.items())
                want = ([i for i, _ in want], [z for _, z in want])
                for given in (data, HeightFunction.from_dict(data)):
                    if valid:
                        assert _pinned_map(region, given) == want
                    else:
                        with pytest.raises(ValueError) as err:
                            _pinned_map(region, given)
                        assert str(err.value) == (
                            "pinned data is not a valid height function"
                        )
        assert verdicts[True] >= 300 and verdicts[False] >= 300

    def test_validate_matches_the_oracle(self, metric_instances):
        rng = np.random.default_rng(32)
        verdicts = {True: 0, False: 0}
        for region, pins, _ in metric_instances:
            funcs = [parity_height(region)]
            if kirszbraun_extendable(region, pins):
                funcs += min_max_extensions(region, pins)
            for f in map(HeightFunction.as_dict, funcs):
                cases = [f]
                for shift in (2, -2, 1):
                    bad = dict(f)
                    v = region.vertex_list[int(rng.integers(len(region)))]
                    bad[v] += shift
                    cases.append(bad)
                for data in cases:
                    valid = is_parity_homomorphism(data)
                    verdicts[valid] += 1
                    assert validate(region, data) is valid
        assert verdicts[True] >= 600 and verdicts[False] >= 600

    def test_validate_at_and_beyond_the_ends_of_int64(self):
        path = make_box((0,), (1,))
        assert not validate(path, {(0,): -(2**63), (1,): 2**63 - 1})
        assert validate(path, {(0,): 2**63 - 2, (1,): 2**63 - 1})
        # heights are Python ints here: no range limit
        assert validate(path, {(0,): 2**64, (1,): 2**64 + 1})
        assert not validate(path, {(0,): 2**64, (1,): 0})

    def test_step_violation_between_pinned_neighbours(self):
        with pytest.raises(ValueError, match="not a valid height function"):
            min_max_extensions(PATH5, {(0,): 0, (1,): 3})
        # pinned vertices two apart are unconstrained by the step rule
        low, high = min_max_extensions(PATH5, {(0,): 0, (2,): 2})
        assert low[(1,)] == high[(1,)] == 1

    def test_outside_vertex_named_first(self):
        with pytest.raises(ValueError, match=r"pinned vertex \(9, 9\) lies outside"):
            min_max_extensions(BOX3, {(0, 0): 1, (9, 9): 0})

    def test_steps_between_the_ends_of_int64(self):
        # the difference int64 max - int64 min wraps around to -1
        path = make_box((0,), (2,))
        for data in (
            {(0,): -(2**63), (1,): 2**63 - 1},
            {(1,): 2**63 - 1, (2,): -(2**63)},
        ):
            assert not is_parity_homomorphism(data)
            with pytest.raises(ValueError, match="not a valid height function"):
                _pinned_map(path, data)
        top = {(0,): 2**63 - 2, (1,): 2**63 - 1}
        assert is_parity_homomorphism(top)
        assert _pinned_map(path, top) == ([0, 1], [2**63 - 2, 2**63 - 1])

    @pytest.mark.parametrize("z", [0.9, 2.0, np.float64(2.0)])
    def test_non_integer_values_are_rejected(self, z):
        # 0.9 was read as 0: the path 0..2 then had the extension 0, 1, 2
        path = make_box((0,), (2,))
        match = r"height at vertex \(0,\) must be an integer"
        for data in ({(0,): z, (2,): 2}, {(np.int64(0),): z, (2,): 2}):
            with pytest.raises(ValueError, match=match):
                _pinned_map(path, data)
            with pytest.raises(ValueError, match=match):
                min_max_extensions(path, data)
        assert _pinned_map(path, {(0,): np.int16(0), (2,): 2}) == ([0, 2], [0, 2])

    def test_values_outside_int64_are_rejected(self):
        with pytest.raises(ValueError, match="int64"):
            min_max_extensions(PATH5, {(0,): 2**64, (4,): 0})

    @pytest.mark.parametrize("side", [3, 20])
    def test_envelopes_outside_int64_are_rejected(self, side):
        # 3x3 takes the breadth-first search, 20x20 the l1 closed form
        box = make_box((0, 0), (side - 1, side - 1))
        top, reach = 2**63 - 2, 2 * (side - 1)  # reach: the l1 diameter
        bound = r"outside the int64 range \[-9223372036854775808, 9223372036854775807\]"
        # the high envelope passes 2**63 - 1, or the low one -2**63
        for data in ({(0, 0): top}, {(0, 0): -top}):
            for call in (min_max_extensions, kirszbraun_violation,
                         enumerate_extensions):
                with pytest.raises(ValueError, match=bound):
                    call(box, data)
        # with room for the distances both envelopes fit
        low, high = min_max_extensions(box, {(0, 0): top - reach})
        assert max(high.heights) == top and min(low.heights) == top - 2 * reach
        low, high = min_max_extensions(box, {(0, 0): reach - top})
        assert min(low.heights) == -top and max(high.heights) == 2 * reach - top

    def test_key_types_give_the_same_positions_and_values(self):
        # numpy-int, bool and list keys name the same vertices as int
        # tuples; positions come out ascending, (0, 0), (1, 2), (2, 2)
        want = {(0, 0): 0, (2, 2): 0, (1, 2): 1}
        for keys in (
            list(want),
            [tuple(np.int64(c) for c in v) for v in want],
            [(False, False), (2, 2), (True, 2)],
            [[0, 0], (2, 2), (1, 2)],
        ):
            pins = dict(zip(map(tuple, keys), want.values()))
            got = _pinned_map(BOX3, pins)
            assert got == ([0, 5, 8], [0, 1, 0])
            assert {type(x) for part in got for x in part} == {int}

    @pytest.mark.parametrize(
        "pins, message",
        [
            # a bad key is named before any vertex outside the region
            ({(9, 9): 0, (0,): 0}, "vertex (0,) has dimension 1, expected 2"),
            ({(0, 0): 0, (0.5, 1): 1}, "vertex must be a nonempty tuple of ints"),
            ({(0, 0): 0, (): 1}, "vertex must be a nonempty tuple of ints"),
            ({(0, 0): 0, (9, 9): 0}, "pinned vertex (9, 9) lies outside the region"),
            ({(np.int64(3), 0): 1}, "pinned vertex (3, 0) lies outside the region"),
            ({}, "pinned data must be nonempty"),
        ],
    )
    def test_error_texts(self, pins, message):
        with pytest.raises(ValueError) as err:
            _pinned_map(BOX3, pins)
        assert str(err.value).startswith(message)


class TestKirszbraun:
    def test_gap_pin_feasible_on_ring_not_on_box(self):
        assert not kirszbraun_extendable(BOX3, GAP_PIN)
        assert kirszbraun_extendable(RING3, GAP_PIN)

    def test_violation_witness(self):
        x, y, gap, dist = kirszbraun_violation(BOX3, GAP_PIN)
        assert {x, y} == {(0, 1), (2, 1)}
        assert gap == 4
        assert dist == 2

    def test_no_violation_returns_none(self):
        assert kirszbraun_violation(RING3, GAP_PIN) is None

    def test_min_max_raise_with_witness(self):
        with pytest.raises(NoExtensionError) as err:
            min_max_extensions(BOX3, GAP_PIN)
        assert err.value.gap == 4
        assert err.value.distance == 2


    def test_witness_matches_pairwise_scan(self, metric_instances):
        infeasible = 0
        for region, pins, dist in metric_instances:
            want = pairwise_violation(region, pins, dist)
            assert kirszbraun_violation(region, pins) == want
            infeasible += want is not None
        # both branches are exercised many times
        assert 50 < infeasible < len(metric_instances) - 50

    def test_far_pins_on_a_path_answer_at_once(self):
        path3 = make_box((0,), (2,))
        pins = {(0,): 0, (2,): 10**9}
        t0 = time.monotonic()
        assert kirszbraun_violation(path3, pins) == ((0,), (2,), 10**9, 2)
        with pytest.raises(NoExtensionError):
            min_max_extensions(path3, pins)
        assert len(enumerate_extensions(path3, pins)) == 0
        # a level-by-level walk up to 10**9 would take minutes
        assert time.monotonic() - t0 < 5.0


class TestEnvelopes:
    def test_path_envelopes(self):
        low, high = min_max_extensions(PATH5, {(0,): 0, (4,): 0})
        assert low.heights == (0, -1, -2, -1, 0)
        assert high.heights == (0, 1, 2, 1, 0)

    def test_envelopes_are_height_functions(self):
        pin = parity_height(BOX3).restrict(boundary(BOX3))
        low, high = min_max_extensions(BOX3, pin)
        assert is_parity_homomorphism(low.as_dict())
        assert is_parity_homomorphism(high.as_dict())

    def test_envelopes_match_brute_force(self, metric_instances):
        for region, pins, dist in metric_instances:
            src = [region.position(v) for v in pins]
            vals = np.asarray([pins[v] for v in pins])
            want_low = (vals[:, None] - dist[src, :]).max(axis=0)
            want_high = (vals[:, None] + dist[src, :]).min(axis=0)
            witness = pairwise_violation(region, pins, dist)
            if witness is None:
                low, high = min_max_extensions(region, pins)
                assert low.heights == tuple(want_low.tolist())
                assert high.heights == tuple(want_high.tolist())
            else:
                assert (want_low > want_high).any()
                with pytest.raises(NoExtensionError) as err:
                    min_max_extensions(region, pins)
                got = (err.value.x, err.value.y, err.value.gap, err.value.distance)
                assert got == witness

    def test_enumeration_empty_exactly_when_infeasible(self, metric_instances):
        small = [t for t in metric_instances if len(t[0]) <= 10]
        assert len(small) > 20
        for region, pins, dist in small:
            got = enumerate_extensions(region, pins)
            if pairwise_violation(region, pins, dist) is None:
                want = unpruned_extensions(region, pins)
                assert len(got) > 0
                assert [m.heights for m in got.members] == want
            else:
                assert len(got) == 0

    def test_height_window(self):
        assert height_window(PATH5, {(0,): 0, (4,): 0}) == (-2, 2)

    def test_fully_pinned_window(self):
        f = parity_height(RING3)
        assert height_window(RING3, f) == (0, 1)


class TestEnumeration:
    def test_path_count_and_oracle(self):
        pin = {(0,): 0, (4,): 0}
        got = enumerate_extensions(PATH5, pin)
        assert len(got) == 6
        assert [m.heights for m in got] == brute_force_extensions(PATH5, pin)

    def test_members_sorted_lexicographically(self):
        got = enumerate_extensions(PATH5, {(0,): 0, (4,): 0})
        tuples = [m.heights for m in got]
        assert tuples == sorted(tuples)

    @pytest.mark.parametrize(
        "region,count",
        [(BOX3, 2), (make_box((0, 0), (3, 3)), 7)],
    )
    def test_parity_ring_counts(self, region, count):
        pin = parity_height(region).restrict(boundary(region))
        got = enumerate_extensions(region, pin)
        assert len(got) == count
        assert [m.heights for m in got] == brute_force_extensions(
            region, pin.as_dict()
        )

    def test_pruned_matches_unpruned(self):
        for region, pin in [
            (PATH5, {(0,): 0, (4,): 0}),
            (BOX3, parity_height(BOX3).restrict(boundary(BOX3))),
            (RING3, GAP_PIN),
        ]:
            fast = enumerate_extensions(region, pin)
            assert [m.heights for m in fast] == unpruned_extensions(region, pin)

    def test_gap_pin_unique_member_on_ring(self):
        got = enumerate_extensions(RING3, GAP_PIN)
        assert len(got) == 1
        assert got.members[0].as_dict() == {
            (0, 0): 2, (0, 1): 1, (0, 2): 2, (1, 0): 3,
            (1, 2): 3, (2, 0): 4, (2, 1): 5, (2, 2): 4,
        }

    def test_infeasible_pin_yields_empty_set(self):
        got = enumerate_extensions(BOX3, GAP_PIN)
        assert len(got) == 0

    def test_empty_pin_rejected(self):
        with pytest.raises(ValueError):
            enumerate_extensions(BOX3, {})

    def test_extension_set_index_and_array(self):
        got = enumerate_extensions(BOX3, parity_height(BOX3).restrict(boundary(BOX3)))
        arr = got.members_array
        assert arr.shape == (2, 9)
        for i, m in enumerate(got.members):
            assert got.index_of(m) == i
            assert arr[i].tolist() == list(m.heights)

    def test_shift_aligns_member_order(self):
        # members of the +2-shifted problem are the +2 shifts, index by index
        pin = parity_height(BOX3).restrict(boundary(BOX3))
        base = enumerate_extensions(BOX3, pin)
        raised = enumerate_extensions(BOX3, pin.shift(2))
        assert len(base) == len(raised)
        for lo, hi in zip(base.members, raised.members):
            assert hi.heights == tuple(z + 2 for z in lo.heights)


def depth_first_extensions(region, pinned):
    """The depth-first enumeration ``enumerate_extensions`` used to run.

    Kept as an oracle for the level-synchronous expansion: members as
    value tuples, in the order the recursion reached them.
    """
    vals = {tuple(v): int(z) for v, z in pinned.items()}
    n = len(region)
    if not kirszbraun_extendable(region, vals):
        return []
    lo_f, hi_f = min_max_extensions(region, vals)
    env_low, env_high = lo_f.heights, hi_f.heights
    assigned = [0] * n
    fixed = [False] * n
    for v, z in vals.items():
        i = region.position(v)
        assigned[i] = z
        fixed[i] = True
    members = []

    def rec(i):
        if i == n:
            members.append(tuple(assigned))
            return
        earlier = [j for j in region.neighbor_positions(i) if j < i or fixed[j]]
        if fixed[i]:
            rec(i + 1)
            return
        lo, hi = env_low[i], env_high[i]
        for j in earlier:
            lo = max(lo, assigned[j] - 1)
            hi = min(hi, assigned[j] + 1)
        for z in range(lo, hi + 1, 2):
            assigned[i] = z
            rec(i + 1)
        assigned[i] = 0

    rec(0)
    return members


def assert_same_as_depth_first(region, pins, want=None):
    """enumerate_extensions gives the oracle's members, in its order."""
    got = enumerate_extensions(region, pins)
    if want is None:
        want = depth_first_extensions(region, pins)
    assert [m.heights for m in got.members] == want
    assert all(m.domain == region.vertex_list for m in got.members)
    assert all(type(z) is int for m in got.members[:50] for z in m.heights)
    return len(want)


@pytest.fixture(scope="module")
def depth_first_members(metric_instances):
    return [depth_first_extensions(r, pins) for r, pins, _ in metric_instances]


class TestLevelSynchronousEnumeration:
    def test_matches_depth_first_on_random_instances(
        self, metric_instances, depth_first_members
    ):
        for (region, pins, _), want in zip(metric_instances, depth_first_members):
            assert_same_as_depth_first(region, pins, want)
        counts = [len(w) for w in depth_first_members]
        assert 0 < counts.count(0) < len(counts)
        assert sum(counts) > 100_000

    @pytest.mark.parametrize("offset", [10**9, -(10**9)])
    def test_matches_depth_first_far_from_zero(
        self, metric_instances, depth_first_members, offset
    ):
        # the oracle is plain integer arithmetic, so shifting its members
        # is its answer for the shifted pins; the few instances with more
        # than 10,000 members are left to the test above, for time
        checked = 0
        for (region, pins, _), want in zip(metric_instances, depth_first_members):
            if len(want) > 10_000:
                continue
            checked += 1
            far = {v: z + offset for v, z in pins.items()}
            shifted = [tuple(z + offset for z in m) for m in want]
            assert_same_as_depth_first(region, far, shifted)
        assert checked > 290

    def test_infeasible_pins_give_empty_set(self):
        assert assert_same_as_depth_first(BOX3, GAP_PIN) == 0
        assert enumerate_extensions(BOX3, GAP_PIN).members_array.shape == (0, 9)

    @pytest.mark.parametrize("length", [1, 2, 5, 12])
    def test_matches_depth_first_on_paths(self, length):
        path = make_box((0,), (length - 1,))
        end = length - 1
        assert assert_same_as_depth_first(path, {(0,): 0}) == 2**end
        assert_same_as_depth_first(path, {(0,): 0, (end,): end % 2 + 2 * (end // 4)})
        assert_same_as_depth_first(path, {(end // 2,): 10**9 + end // 2 % 2})

    def test_window_wider_than_int8(self):
        # 149 steps from 0 up to 147: one step down, 149 places for it;
        # the envelopes span -1..148, so offsets need 16 bits
        path = make_box((0,), (149,))
        ends = {(0,): 0, (149,): 147}
        assert assert_same_as_depth_first(path, ends) == 149
        far = {v: z - 10**9 for v, z in ends.items()}
        assert assert_same_as_depth_first(path, far) == 149

    def test_matches_depth_first_on_a_cube(self):
        cube = make_box((0, 0, 0), (2, 2, 2))
        corners = {v: sum(v) % 2 for v in cube if all(c in (0, 2) for c in v)}
        assert assert_same_as_depth_first(cube, corners) == 12_422
        far = {v: z + 10**9 for v, z in corners.items()}
        assert assert_same_as_depth_first(cube, far) == 12_422
        ring = parity_height(cube).restrict(boundary(cube))
        assert assert_same_as_depth_first(cube, ring) == 2
        steep = {(0, 0, 0): 10**9, (2, 2, 2): 10**9 + 6}
        assert assert_same_as_depth_first(cube, steep) == 1

    def test_fully_pinned_region_has_one_member(self):
        f = parity_height(BOX3)
        got = enumerate_extensions(BOX3, f)
        assert got.members == (f,)

    def test_seven_by_seven_parity_ring(self):
        box = make_box((0, 0), (6, 6))
        got = enumerate_extensions(box, parity_height(box).restrict(boundary(box)))
        assert len(got) == 64_914
        rows = [m.heights for m in got.members]
        assert rows == sorted(rows)
        assert len(set(rows)) == len(rows)


def eager_members(support):
    """The eager construction ``enumerate_extensions`` used to end with.

    Every row of the offset array becomes a HeightFunction up front, a
    chunk at a time, and the int64 array is rebuilt from their tuples.
    """
    domain = support.region.vertex_list
    members = []
    for k in range(0, len(support.offsets), 1024):
        chunk = support.offsets[k : k + 1024].astype(np.int64)
        chunk += support.base
        rows = zip(*chunk.T.tolist())
        members.extend(map(HeightFunction._trusted, itertools.repeat(domain), rows))
    members = tuple(members)
    if not members:
        return members, np.empty((0, len(support.region)), dtype=np.int64)
    return members, np.asarray([m.heights for m in members], dtype=np.int64)


class TestArrayBackedExtensionSet:
    PIN5 = {(0,): 0, (4,): 0}  # six members on PATH5

    def test_matches_eager_construction_on_random_instances(self, metric_instances):
        nonempty = 0
        for region, pins, _ in metric_instances:
            support = enumerate_extensions(region, pins)
            members, arr = eager_members(support)
            assert tuple(support.members) == members
            assert support.members_array.dtype == np.int64
            assert np.array_equal(support.members_array, arr)
            assert len(support) == len(members)
            nonempty += bool(members)
        assert 0 < nonempty < len(metric_instances)

    def test_view_has_tuple_semantics(self):
        support = enumerate_extensions(PATH5, self.PIN5)
        view = support.members
        want, _ = eager_members(support)
        assert len(view) == 6
        assert view == want and view != want[:-1]
        assert view[0] == want[0] and view[-1] == want[-1] and view[-6] == want[0]
        assert view[np.int64(2)] == want[2]
        for k in (6, -7):
            with pytest.raises(IndexError):
                view[k]
        with pytest.raises(TypeError):
            view[1.0]
        assert view[1:4] == want[1:4] and view[::-2] == want[::-2]
        assert view[4:2] == () and len(view[4:2]) == 0
        assert tuple(view) == tuple(view) == want  # iterates again
        assert list(reversed(view)) == list(reversed(want))
        assert view[2] in view and view.index(view[3]) == 3
        assert view == support.members == enumerate_extensions(PATH5, self.PIN5).members
        assert view != enumerate_extensions(PATH5, {(0,): 2, (4,): 2}).members
        assert view != list(want)  # like a tuple, not equal to a list
        with pytest.raises(TypeError):
            hash(view)

    def test_every_access_builds_a_new_member(self):
        support = enumerate_extensions(PATH5, self.PIN5)
        assert support.members[0] == support.members[0]
        assert support.members[0] is not support.members[0]
        assert [type(z) for z in support.members[-1].heights] == [int] * 5

    def test_members_array_is_read_only(self):
        support = enumerate_extensions(PATH5, self.PIN5)
        arr = support.members_array
        assert arr is support.members_array  # built once
        with pytest.raises(ValueError):
            arr[0, 0] = 7

    def test_exact_layer_builds_no_member(self, monkeypatch):
        from randomsurfaces import analysis, cli, gibbs, sampler
        from randomsurfaces.potential import PotentialModel, sample_potential

        box = make_box((0, 0), (3, 3))
        ring = parity_height(box).restrict(boundary(box))
        member = enumerate_extensions(box, ring).members[3]

        def no_member(*args):
            raise AssertionError("a HeightFunction member was built")

        # members are built only by reading or iterating a MemberView
        # (the envelopes from min_max_extensions are not members)
        from randomsurfaces.heights import MemberView

        monkeypatch.setattr(MemberView, "__getitem__", no_member)
        monkeypatch.setattr(MemberView, "__iter__", no_member)
        support = enumerate_extensions(box, ring)
        assert len(support) == 7
        assert support.members_array.shape == (7, 16)
        assert support.index_of(member) == 3
        model = PotentialModel("twopoint", 1.0, 2)
        gibbs.annealed_member_probabilities(support, model)
        p = sample_potential(model, (-1, 4), draw=0)
        mu = gibbs.quenched_measure(box, ring, p, support=support)
        nu = gibbs.quenched_measure(box, ring.shift(2), p)
        assert analysis.dominance_certificate(mu, nu).dominated
        assert not analysis.dominance_certificate(nu, mu).dominated
        assert analysis.dominates_by_upper_sets(mu, nu)[0]
        walk = [(0, 1), (1, 1), (1, 2)]
        analysis.martingale_audit(box, ring, walk, model, support=support)
        sampler.transition_matrix(mu)
        assert gibbs.check_shift_identity(box, ring, p) < 1e-12
        assert cli.main(["enumerate", "--box", "4", "--boundary", "parity", "--list"]) == 0

    def test_enumeration_memory_peak(self):
        # the 64,914 offset rows of the 7x7 ring are int8, 3 MiB; building
        # a HeightFunction per member peaked at about 37 MiB
        import tracemalloc

        box = make_box((0, 0), (6, 6))
        ring = parity_height(box).restrict(boundary(box))
        tracemalloc.start()
        try:
            support = enumerate_extensions(box, ring)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(support) == 64_914
        assert peak < 16 * 2**20


class TestStoredBoundary:
    """Each ExtensionSet keeps the boundary triple it was enumerated from."""

    def test_triple_and_pinned_data_on_random_instances(self, metric_instances):
        empty = 0
        for region, pins, _ in metric_instances:
            support = enumerate_extensions(region, pins)
            at, low, high = support._boundary
            assert at == _pinned_map(region, pins)[0]
            assert support.pinned == HeightFunction.from_dict(pins)
            assert support.pinned.domain == tuple(region.vertex_list[i] for i in at)
            if len(support):
                want = _pinned_envelopes(region, pins)
                assert at == want[0]
                assert np.array_equal(low, want[1]) and np.array_equal(high, want[2])
                _check_nonempty(support)  # no error
            else:
                empty += 1
                assert (low > high).any()
                with pytest.raises(NoExtensionError) as err:
                    _check_nonempty(support)
                e = err.value
                assert (e.x, e.y, e.gap, e.distance) == kirszbraun_violation(
                    region, pins
                )
        assert 0 < empty < len(metric_instances)

    def test_pickle_round_trip(self):
        # the region inside is rebuilt from its coordinates; an empty set
        # (a gap of 4 over distance 2) keeps its triple too
        for pins in ({(0,): 0, (4,): 0}, {(0,): 0, (2,): 4}):
            support = enumerate_extensions(PATH5, pins)
            twin = pickle.loads(pickle.dumps(support))
            assert twin.region == PATH5 and twin.pinned == support.pinned
            assert np.array_equal(twin.members_array, support.members_array)
            (at, low, high), (at2, low2, high2) = twin._boundary, support._boundary
            assert at == at2
            assert np.array_equal(low, low2) and np.array_equal(high, high2)


class TestStructuralInvariants:
    def test_pointwise_min_and_max_stay_in_the_set(self):
        # extension sets are lattices: member pairs close under min/max
        got = enumerate_extensions(BOX3, {(0, 0): 0, (2, 2): 0})
        members = {m.heights for m in got}
        picks = list(got.members)
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = rng.integers(len(picks), size=2)
            ha = np.asarray(picks[a].heights)
            hb = np.asarray(picks[b].heights)
            assert tuple(np.minimum(ha, hb).tolist()) in members
            assert tuple(np.maximum(ha, hb).tolist()) in members

    def test_straight_segment_pinning_always_extends(self):
        # valid data on a straight segment never obstructs the box
        box = make_box((0, 0), (3, 3))
        rng = np.random.default_rng(1)
        for _ in range(25):
            row = int(rng.integers(4))
            start = int(rng.integers(3))
            length = int(rng.integers(2, 5 - start))
            vertical = bool(rng.integers(2))
            seg = [
                (row, start + k) if vertical else (start + k, row)
                for k in range(length)
            ]
            vals = [int(rng.integers(-3, 4)) * 2 + sum(seg[0]) % 2]
            for _ in seg[1:]:
                vals.append(vals[-1] + int(rng.choice([-1, 1])))
            pin = dict(zip(seg, vals))
            assert kirszbraun_extendable(box, pin)
            assert len(enumerate_extensions(box, pin)) > 0

    def test_empty_iff_inextendable_random_pinnings(self):
        # the metric criterion is exact in both directions; pinned data
        # must itself be valid on its induced adjacency, so invalid
        # draws are rejected and resampled
        rng = np.random.default_rng(2)
        outcomes = {True: 0, False: 0}
        trial = 0
        while sum(outcomes.values()) < 60:
            trial += 1
            n = 3 + trial % 2
            box = make_box((0, 0), (n - 1, n - 1))
            count = int(rng.integers(2, 5))
            picks = rng.choice(len(box), size=count, replace=False)
            pin = {}
            for i in picks:
                v = box.vertex_list[int(i)]
                pin[v] = int(rng.integers(-2, 3)) * 2 + (sum(v) % 2)
            if not is_parity_homomorphism(pin):
                continue
            got = enumerate_extensions(box, pin)
            feasible = kirszbraun_extendable(box, pin)
            assert (len(got) > 0) == feasible
            outcomes[feasible] += 1
        assert outcomes[True] > 0 and outcomes[False] > 0

    def test_envelopes_match_enumeration_extrema(self):
        cases = [
            (PATH5, {(0,): 0, (4,): 0}),
            (PATH5, {(0,): 2, (3,): 1}),
            (BOX3, {(0, 0): 0, (2, 2): 0}),
            (BOX3, parity_height(BOX3).restrict(boundary(BOX3))),
        ]
        for region, pin in cases:
            low, high = min_max_extensions(region, pin)
            arr = enumerate_extensions(region, pin).members_array
            assert arr.min(axis=0).tolist() == list(low.heights)
            assert arr.max(axis=0).tolist() == list(high.heights)

    def test_box_parity_window(self):
        pin = parity_height(BOX3).restrict(boundary(BOX3))
        assert height_window(BOX3, pin) == (0, 2)


class TestExtremalBoundary:
    def test_3x3_saddle_values(self):
        f = extremal_boundary(BOX3, 1, 0)
        # |v0 - v1| on the ring, in lexicographic vertex order
        assert f.domain == tuple(sorted(boundary(BOX3)))
        assert f.heights == (0, 1, 2, 1, 1, 2, 1, 0)

    def test_direction_flips_sign(self):
        f = extremal_boundary(BOX3, -1, 0)
        assert f.heights == (0, -1, -2, -1, -1, -2, -1, 0)

    def test_extension_counts(self):
        for n, count in [(3, 2), (4, 7)]:
            region = make_box((0, 0), (n - 1, n - 1))
            pin = extremal_boundary(region, 1, 0)
            got = enumerate_extensions(region, pin)
            assert len(got) == count
            assert [m.heights for m in got] == brute_force_extensions(
                region, pin.as_dict()
            )

    def test_one_dimensional_is_linear(self):
        f = extremal_boundary(PATH5, 1, 0)
        assert f.as_dict() == {(0,): 0, (4,): 4}

    def test_anchor_parity_enforced(self):
        with pytest.raises(ValueError):
            extremal_boundary(BOX3, 1, 1)
        box = make_box((1, 0), (3, 2))
        with pytest.raises(ValueError) as err:
            extremal_boundary(box, 1, 0)
        assert str(err.value) == "anchor 0 has wrong parity for corner (1, 0)"

    @pytest.mark.parametrize(
        "lows, highs, anchor",
        [((0, 0), (6, 6), 0), ((-3, 5), (2, 7), 2), ((4,), (9,), np.int64(-4)),
         ((-7, -1), (-7, 3), -6)],
    )
    def test_matches_the_formula(self, lows, highs, anchor):
        box = make_box(lows, highs)
        a = box.vertex_list[0]
        for direction in (1, -1):
            want = HeightFunction.from_dict({
                v: anchor + direction * (
                    v[0] - a[0] if len(v) == 1 else abs((v[0] - a[0]) - (v[1] - a[1]))
                )
                for v in boundary(box)
            })
            got = extremal_boundary(box, direction, anchor)
            assert got == want
            assert {type(z) for z in got.heights} == {int}

    def test_non_box_rejected(self):
        with pytest.raises(ValueError):
            extremal_boundary(RING3, 1, 0)

    def test_three_dimensions_unsupported(self):
        with pytest.raises(NotImplementedError):
            extremal_boundary(make_box((0, 0, 0), (2, 2, 2)), 1, 0)


class TestHeightFiles:
    def test_heights_round_trip(self, tmp_path):
        f = parity_height(RING3)
        path = tmp_path / "ring.heights"
        write_heights(str(path), f)
        assert read_heights(str(path)) == f

    def test_parse_heights(self):
        f = parse_heights("2\n0 1 1\n2 1 5\n")
        assert f.as_dict() == {(0, 1): 1, (2, 1): 5}

    def test_format_heights_round_trip(self):
        f = HeightFunction.from_dict({(0,): -2, (3,): 1})
        assert parse_heights(format_heights(f)) == f

    def test_parse_heights_rejects_short_line(self):
        with pytest.raises(ValueError):
            parse_heights("2\n0 1\n")

    def test_grid_round_trip(self):
        grid = np.array([[0, 1, 2], [1, 2, 1], [2, 1, 0]])
        again = parse_grid(format_grid(grid))
        assert np.array_equal(grid, again)

    def test_grid_header(self):
        text = format_grid(np.zeros((2, 3), dtype=np.int64))
        assert text.splitlines()[0] == "2 2 3"
