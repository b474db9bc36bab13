"""Glauber dynamics: exact kernels, coupled chains, batched sweeps.

The single-site update resamples one vertex from its conditional law,
so the kernel built by ``transition_matrix`` must be stochastic,
stationary for the quenched measure, and in detailed balance with it.
The 3x3 box pinned at two opposite corners (44 extensions, counted by
an independent brute force) exercises the kernel on a support where
free vertices interact.

The sampler reads its heat-bath probabilities from a closed-form table;
``reference_update`` below keeps the energy-sum form of the same rule
as the oracle, and the differential tests require identical end states
from the same random stream.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import expit

from randomsurfaces import sampler
from randomsurfaces.gibbs import quenched_measure, required_window
from randomsurfaces.heights import (
    NoExtensionError,
    _pinned_envelopes,
    enumerate_extensions,
    extremal_boundary,
    kirszbraun_extendable,
    min_max_extensions,
    parity_height,
    validate,
)
from randomsurfaces.lattice import Region, boundary, make_box
from randomsurfaces.potential import Potential, PotentialModel, sample_potential
from randomsurfaces.sampler import (
    BoxGlauber,
    coupled_run,
    exact_sample,
    sample_indices,
    transition_matrix,
)

BOX3 = make_box((0, 0), (2, 2))
PATH5 = make_box((0,), (4,))
RING_PIN = parity_height(BOX3).restrict(boundary(BOX3))
CORNER_PIN = {(0, 0): 0, (2, 2): 0}


def measure(region, pinned, *, kind="uniform", param=1.0, seed=0, draw=0,
            pad=0):
    lo, hi = required_window(region, pinned)
    p = sample_potential(
        PotentialModel(kind, param, seed), (lo, hi + pad), draw=draw
    )
    return quenched_measure(region, pinned, p)


class TestTransitionMatrix:
    def test_rows_are_stochastic(self):
        mu = measure(BOX3, CORNER_PIN)
        P = transition_matrix(mu)
        assert P.shape == (44, 44)
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize(
        "region,pinned",
        [
            (BOX3, CORNER_PIN),
            (BOX3, RING_PIN),
            (PATH5, {(0,): 0, (4,): 0}),
        ],
    )
    def test_stationarity(self, region, pinned):
        mu = measure(region, pinned, seed=2)
        P = transition_matrix(mu)
        pi = mu.probabilities
        assert np.max(np.abs(pi @ P - pi)) <= 1e-12

    def test_detailed_balance(self):
        mu = measure(BOX3, CORNER_PIN, seed=3)
        P = transition_matrix(mu)
        pi = mu.probabilities
        flux = pi[:, None] * P
        assert np.max(np.abs(flux - flux.T)) <= 1e-12

    def test_fully_pinned_kernel_is_identity(self):
        ring = Region(v for v in BOX3 if v != (1, 1))
        mu = measure(ring, parity_height(ring))
        assert np.array_equal(transition_matrix(mu), np.eye(1))


class TestSingleSiteChain:
    @pytest.mark.parametrize("steps", [-3, 2.5, 10.0, "10"])
    def test_negative_steps_rejected(self, steps):
        # negative or non-integer step counts, as BoxGlauber.sweep rejects
        lo, hi = required_window(BOX3, RING_PIN.shift(2))
        p = sample_potential(PotentialModel("uniform", 1.0, 1), (lo - 2, hi))
        with pytest.raises(ValueError, match="steps"):
            coupled_run(
                BOX3, RING_PIN, RING_PIN.shift(2), p, steps,
                np.random.default_rng(0),
            )


class TestExactSampling:
    def test_sample_indices_frequencies(self):
        mu = measure(PATH5, {(0,): 0, (4,): 0}, seed=5)
        rng = np.random.default_rng(9)
        n = 200_000
        idx = sample_indices(mu, rng, n)
        freq = np.bincount(idx, minlength=len(mu)) / n
        # 4 sigma per atom
        sigma = np.sqrt(mu.probabilities * (1 - mu.probabilities) / n)
        assert np.all(np.abs(freq - mu.probabilities) <= 4 * sigma + 1e-12)

    def test_exact_sample_returns_member(self):
        mu = measure(BOX3, RING_PIN)
        g = exact_sample(mu, np.random.default_rng(1))
        assert g in mu.support.members


class TestCoupledRun:
    def test_order_preserved(self):
        low_pin = RING_PIN
        high_pin = RING_PIN.shift(2)
        lo, hi = required_window(BOX3, high_pin)
        p = sample_potential(PotentialModel("uniform", 1.0, 8), (lo - 2, hi))
        f_low, f_high = coupled_run(
            BOX3, low_pin, high_pin, p, 20_000, np.random.default_rng(2)
        )
        assert all(f_low[v] <= f_high[v] for v in BOX3.vertex_list)
        assert validate(BOX3, f_low.as_dict())
        assert validate(BOX3, f_high.as_dict())

    def test_equal_data_stays_glued(self):
        # identical boundary data: the shared-threshold chains coincide
        lo, hi = required_window(BOX3, RING_PIN)
        p = sample_potential(PotentialModel("uniform", 1.0, 8), (lo, hi))
        f_low, f_high = coupled_run(
            BOX3, RING_PIN, RING_PIN, p, 5_000, np.random.default_rng(4)
        )
        assert f_low == f_high

    @pytest.mark.parametrize("kind", ["twopoint", "uniform"])
    def test_order_on_random_regions(self, metric_instances, kind,
                                     monkeypatch):
        # each extendable datum against itself raised by 2 and against
        # itself, read after every half-sweep apart from coupled_run's
        # own check
        seen = []
        half = BoxGlauber.half_sweep

        def recorded(eng, parity):
            half(eng, parity)
            seen.append(eng.height_matrix())

        monkeypatch.setattr(BoxGlauber, "half_sweep", recorded)
        runs = 0
        for n, (region, pins, _) in enumerate(metric_instances):
            if not kirszbraun_extendable(region, pins):
                continue
            high = {v: z + 2 for v, z in pins.items()}
            (p,) = window_potentials(region, high, [(kind, 1.0, n, 0)], pad=2)
            free = len(region) - len(pins)
            for other in (high, pins):
                seen.clear()
                coupled_run(
                    region, pins, other, p, 30 * free,
                    np.random.default_rng(n),
                )
                assert len(seen) == (60 if free else 0)
                for low_h, high_h in seen:
                    assert np.all(low_h <= high_h)
                    if other is pins:
                        assert np.array_equal(low_h, high_h)
            runs += 1
        assert runs > 100

    def test_unordered_data_rejected(self):
        lo, hi = required_window(BOX3, RING_PIN.shift(2))
        p = sample_potential(PotentialModel("uniform", 1.0, 8), (lo - 2, hi))
        with pytest.raises(ValueError):
            coupled_run(
                BOX3, RING_PIN.shift(2), RING_PIN, p, 10,
                np.random.default_rng(0),
            )

    def test_mismatched_domains_rejected(self):
        p = Potential(-5, 5, np.zeros(11))
        with pytest.raises(ValueError):
            coupled_run(
                BOX3, CORNER_PIN, RING_PIN, p, 10, np.random.default_rng(0)
            )

    def test_infeasible_data_names_its_witness_first(self):
        # unordered as well as infeasible: each datum is validated into
        # its boundary triple before the two are compared
        p = Potential(-5, 9, np.zeros(15))
        gap, flat = {(0, 1): 1, (2, 1): 5}, {(0, 1): 1, (2, 1): 1}
        with pytest.raises(NoExtensionError) as err:
            coupled_run(BOX3, gap, flat, p, 10, np.random.default_rng(0))
        e = err.value
        assert (e.x, e.y, e.gap, e.distance) == ((0, 1), (2, 1), 4, 2)
        with pytest.raises(ValueError, match="ordered low <= high"):
            coupled_run(
                BOX3, {(0, 1): 3, (2, 1): 3}, {(0, 1): 1, (2, 1): 1}, p, 10,
                np.random.default_rng(0),
            )


class TestBoxGlauber:
    def test_snapshots_are_valid_heights(self):
        lo, hi = required_window(BOX3, CORNER_PIN)
        pots = [
            sample_potential(PotentialModel("uniform", 1.0, 3), (lo, hi), d)
            for d in range(5)
        ]
        eng = BoxGlauber(BOX3, CORNER_PIN, pots, np.random.default_rng(0))
        eng.sweep(30)
        H = eng.height_matrix()
        assert H.shape == (5, 9)
        for row in H:
            f = dict(zip(BOX3.vertex_list, (int(z) for z in row)))
            assert validate(BOX3, f)
            assert f[(0, 0)] == 0 and f[(2, 2)] == 0

    def test_start_low_is_minimal_extension(self):
        lo, hi = required_window(BOX3, RING_PIN)
        p = sample_potential(PotentialModel("zero"), (lo, hi))
        eng = BoxGlauber(BOX3, RING_PIN, [p], np.random.default_rng(0),
                         start="low")
        low, _ = min_max_extensions(BOX3, RING_PIN)
        assert eng.height_matrix()[0].tolist() == list(low.heights)

    def test_start_mid_is_between_envelopes(self):
        pin = {(0, 0): 0, (2, 2): 0}
        lo, hi = required_window(BOX3, pin)
        p = sample_potential(PotentialModel("zero"), (lo, hi))
        eng = BoxGlauber(BOX3, pin, [p], np.random.default_rng(0), start="mid")
        low, high = min_max_extensions(BOX3, pin)
        row = eng.height_matrix()[0]
        assert np.all(row >= np.asarray(low.heights))
        assert np.all(row <= np.asarray(high.heights))
        f = dict(zip(BOX3.vertex_list, (int(z) for z in row)))
        assert validate(BOX3, f)

    def test_deterministic_given_seed(self):
        lo, hi = required_window(BOX3, CORNER_PIN)
        pots = [sample_potential(PotentialModel("uniform", 1.0, 3), (lo, hi))]
        a = BoxGlauber(BOX3, CORNER_PIN, pots, np.random.default_rng(5))
        b = BoxGlauber(BOX3, CORNER_PIN, pots, np.random.default_rng(5))
        a.sweep(20)
        b.sweep(20)
        assert np.array_equal(a.height_matrix(), b.height_matrix())

    def test_matches_exact_measure_single_free_site(self):
        # one free site: a single sweep resamples it from its exact
        # conditional, so snapshots are iid from the quenched measure
        mu = measure(BOX3, RING_PIN, seed=6)
        p = mu.potential
        B = 40_000
        eng = BoxGlauber(BOX3, RING_PIN, [p] * B, np.random.default_rng(11))
        eng.sweep(1)
        center = eng.height_matrix()[:, BOX3.position((1, 1))]
        freq2 = float((center == 2).mean())
        exact2 = sum(
            pr
            for m, pr in zip(mu.support.members, mu.probabilities)
            if m[(1, 1)] == 2
        )
        sigma = (exact2 * (1 - exact2) / B) ** 0.5
        assert abs(freq2 - exact2) <= 4 * sigma + 1e-9

    def test_batched_chains_match_exact_measure(self):
        # masked path: corner-pinned box, all 44 members
        mu = measure(BOX3, CORNER_PIN, seed=12)
        B = 20_000
        eng = BoxGlauber(
            BOX3, CORNER_PIN, [mu.potential] * B, np.random.default_rng(13)
        )
        eng.sweep(60)
        states = eng.height_matrix()
        index = {m.heights: i for i, m in enumerate(mu.support.members)}
        counts = np.zeros(len(mu))
        for row in states:
            counts[index[tuple(int(z) for z in row)]] += 1
        tv = 0.5 * float(np.abs(counts / B - mu.probabilities).sum())
        assert tv < 0.03

    def test_fully_pinned_region_is_fixed(self):
        # the ring around BOX3's centre, every vertex pinned: no site is
        # updated and no uniform is drawn
        ring = Region(v for v in BOX3 if v != (1, 1))
        p = Potential(0, 1, np.zeros(2))
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        eng = BoxGlauber(ring, RING_PIN, [p] * 3, rng)
        eng.sweep(5)
        want = [RING_PIN[v] for v in ring.vertex_list]
        assert eng.height_matrix().tolist() == [want] * 3
        assert rng.bit_generator.state == before

    def test_rejects_negative_sweeps(self):
        lo, hi = required_window(BOX3, CORNER_PIN)
        p = sample_potential(PotentialModel("uniform", 1.0, 3), (lo, hi))
        eng = BoxGlauber(BOX3, CORNER_PIN, [p], np.random.default_rng(0))
        with pytest.raises(ValueError, match="sweeps"):
            eng.sweep(-1)
        eng.sweep(0)
        assert eng.height_matrix()[0].tolist() == list(
            min_max_extensions(BOX3, CORNER_PIN)[0].heights
        )

    def test_box_views(self):
        # surface and the bench tracer read shape, low, pinned_mask and
        # heights on 2D boxes: row-major grids with ambient offsets
        pinned = ring(BOX7)
        pots = window_potentials(BOX7, pinned, MIXED[:2])
        eng = BoxGlauber(BOX7, pinned, pots, np.random.default_rng(3))
        eng.sweep(4)
        assert eng.shape == (7, 7) and eng.low == (1, 2)
        mask = np.zeros((7, 7), dtype=bool)
        for v in pinned.domain:
            mask[v[0] - 1, v[1] - 2] = True
        assert np.array_equal(eng.pinned_mask, mask)
        H = eng.heights
        assert H.dtype == np.int64
        assert np.array_equal(H, eng.height_matrix().reshape(2, 7, 7))

    def test_non_box_views_follow_vertex_order(self):
        pots = window_potentials(L_SHAPE, L_PINS, MIXED[:2])
        eng = BoxGlauber(L_SHAPE, L_PINS, pots, np.random.default_rng(3))
        assert eng.shape == (len(L_SHAPE),) and eng.low == (0, 0)
        assert eng.pinned_mask.tolist() == [
            v in L_PINS for v in L_SHAPE.vertex_list
        ]
        assert np.array_equal(eng.heights, eng.height_matrix())

    def test_matches_exact_measure_on_non_box(self):
        # the 3x3 box without a corner, 24 members
        region = Region(v for v in BOX3 if v != (2, 2))
        mu = measure(region, {(0, 0): 0, (2, 1): 1}, seed=14)
        B = 20_000
        eng = BoxGlauber(
            region, {(0, 0): 0, (2, 1): 1}, [mu.potential] * B,
            np.random.default_rng(15),
        )
        eng.sweep(60)
        index = {m.heights: i for i, m in enumerate(mu.support.members)}
        counts = np.zeros(len(mu))
        for row in eng.height_matrix():
            counts[index[tuple(int(z) for z in row)]] += 1
        tv = 0.5 * float(np.abs(counts / B - mu.probabilities).sum())
        assert tv < 0.03

    def test_rejects_mismatched_windows(self):
        lo, hi = required_window(BOX3, RING_PIN)
        pots = [
            Potential(lo, hi, np.zeros(hi - lo + 1)),
            Potential(lo - 2, hi, np.zeros(hi - lo + 3)),
        ]
        with pytest.raises(ValueError):
            BoxGlauber(BOX3, RING_PIN, pots, np.random.default_rng(0))

    def test_rejects_uncovered_window(self):
        with pytest.raises(ValueError):
            BoxGlauber(
                BOX3, CORNER_PIN, [Potential(0, 1, np.zeros(2))],
                np.random.default_rng(0),
            )


# -- the energy-sum heat bath as the reference ------------------------------


def reference_law(nv, p):
    """Heat bath at a site with neighbour heights ``nv``, by energy sums.

    Returns the candidates max - 1 and min + 1 (equal when the
    neighbours span 2) and P(min + 1), under weights
    exp(sum over neighbours of omega_{min(z, h(u))}).
    """
    lo, hi = max(nv) - 1, min(nv) + 1
    e_lo = sum(p.values[min(lo, z) - p.lo] for z in nv)
    e_hi = sum(p.values[min(hi, z) - p.lo] for z in nv)
    return lo, hi, 1.0 / (1.0 + math.exp(e_lo - e_hi))


def reference_update(nv, p, u):
    lo, hi, p_hi = reference_law(nv, p)
    return hi if u < p_hi else lo


def free_positions(region, pinned):
    pinned_pos = {region.position(v) for v, _ in pinned.items()}
    return [i for i in range(len(region)) if i not in pinned_pos]


def reference_box_sweeps(region, pinned, start_rows, pots, sweeps, rng):
    """Checkerboard sweeps by energy sums, site by site, from ``start_rows``.

    Per half-sweep (even ambient parity first) one (batch, sites) block of
    uniforms, sites in vertex order; same-parity sites do not interact,
    so updating them one by one from the old heights is the parallel
    update.
    """
    free = free_positions(region, pinned)
    by_parity = [
        [i for i in free if sum(region.vertex_list[i]) % 2 == par]
        for par in (0, 1)
    ]
    h = np.array(start_rows, dtype=np.int64)
    for _ in range(sweeps):
        for sites in by_parity:
            if not sites:
                continue
            u = rng.random((len(pots), len(sites)))
            old = h.copy()
            for b, p in enumerate(pots):
                for s, i in enumerate(sites):
                    nv = [int(old[b, j]) for j in region.neighbor_positions(i)]
                    h[b, i] = reference_update(nv, p, u[b, s])
    return h


def assert_coupled_run_is_two_runs(region, data, p, steps, seed, got, rng):
    """``coupled_run``'s pair equals one reference run per datum, each from
    its minimal extension on a fresh generator seeded ``seed``, for
    ceil(steps / free sites) sweeps; ``rng`` ends as each reference did."""
    sweeps = -(-steps // len(free_positions(region, data[0])))
    for f, datum in zip(got, data):
        start = min_max_extensions(region, datum)[0].heights
        ref_rng = np.random.default_rng(seed)
        (want,) = reference_box_sweeps(
            region, datum, [start], [p], sweeps, ref_rng
        )
        assert list(f.heights) == want.tolist()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def window_potentials(region, pinned, specs, pad=0):
    lo, hi = required_window(region, pinned)
    return [
        sample_potential(PotentialModel(kind, param, seed), (lo - pad, hi), d)
        for kind, param, seed, d in specs
    ]


def ring(region):
    return parity_height(region).restrict(boundary(region))


BOX7 = make_box((1, 2), (7, 8))  # off the origin: parity follows coordinates
L_SHAPE = Region(
    (i, j) for i in range(7) for j in range(7) if i < 4 or j < 4
)
L_PINS = {(0, 0): 0, (6, 3): 1, (3, 6): 1}
HOLED = Region(  # a 6x6 ring around a 2x2 hole
    (i, j) for i in range(6) for j in range(6)
    if not (2 <= i <= 3 and 2 <= j <= 3)
)
PATH12 = make_box((0,), (11,))
CUBE3 = make_box((0, 0, 0), (2, 2, 2))
BOX9 = make_box((0, 0), (8, 8))
BOX25 = make_box((0, 0), (24, 24))
MIXED = [
    ("twopoint", 1.0, 5, 0),
    ("uniform", 2.0, 5, 1),
    ("zero", 0.0, 0, 0),
    ("uniform", 0.25, 6, 2),
    ("twopoint", 0.5, 7, 3),
]


class TestClosedFormMatchesEnergySums:
    @pytest.mark.parametrize("start", ["low", "mid"])
    @pytest.mark.parametrize(
        "region,pinned",
        [
            (BOX7, {(1, 2): 1, (7, 8): 1}),
            (BOX7, ring(BOX7)),
            (BOX9, extremal_boundary(BOX9, 1, 0)),
            (BOX9, extremal_boundary(BOX9, -1, 0)),
        ],
        ids=["corners", "ring", "extremal-up", "extremal-down"],
    )
    def test_box_sweeps(self, region, pinned, start):
        # one batch mixes potential laws, so each chain reads its own row
        pots = window_potentials(region, pinned, MIXED)
        eng = BoxGlauber(region, pinned, pots, np.random.default_rng(21),
                         start=start)
        want = reference_box_sweeps(
            region, pinned, eng.height_matrix(), pots, 15,
            np.random.default_rng(21),
        )
        eng.sweep(15)
        assert eng.height_matrix().dtype == np.int64
        assert np.array_equal(eng.height_matrix(), want)

    @pytest.mark.parametrize("start", ["low", "mid"])
    @pytest.mark.parametrize(
        "region,pinned",
        [
            (L_SHAPE, L_PINS),
            (L_SHAPE, ring(L_SHAPE)),
            (HOLED, {(0, 0): 0, (5, 5): 0}),
            (HOLED, ring(HOLED)),
            (PATH12, {(0,): 0, (11,): 3}),
            (PATH12, {(5,): 1}),
            (CUBE3, {(0, 0, 0): 0, (2, 2, 2): 0}),
            (CUBE3, ring(CUBE3)),
            # every odd site pinned: the odd half-sweep has nothing to do
            (BOX3, parity_height(BOX3).restrict(
                [v for v in BOX3 if sum(v) % 2])),
        ],
        ids=["L-corners", "L-ring", "holed-corners", "holed-ring",
             "path-ends", "path-one-pin", "cube-corners", "cube-ring",
             "no-odd-free-site"],
    )
    def test_region_sweeps(self, region, pinned, start):
        pots = window_potentials(region, pinned, MIXED)
        rng = np.random.default_rng(22)
        eng = BoxGlauber(region, pinned, pots, rng, start=start)
        ref_rng = np.random.default_rng(22)
        want = reference_box_sweeps(
            region, pinned, eng.height_matrix(), pots, 12, ref_rng
        )
        eng.sweep(12)
        assert np.array_equal(eng.height_matrix(), want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("batch", [1, 2000])
    def test_batch_sizes(self, batch):
        pots = window_potentials(
            L_SHAPE, L_PINS, [MIXED[b % len(MIXED)] for b in range(batch)]
        )
        eng = BoxGlauber(L_SHAPE, L_PINS, pots, np.random.default_rng(23),
                         start="mid")
        want = reference_box_sweeps(
            L_SHAPE, L_PINS, eng.height_matrix(), pots, 3,
            np.random.default_rng(23),
        )
        eng.sweep(3)
        assert np.array_equal(eng.height_matrix(), want)

    @pytest.mark.parametrize(
        "shift,dtype",
        [(1000, np.int16), (10**9, np.int32), (-(10**9), np.int32),
         (3 * 10**9, np.int64)],
    )
    def test_far_pins_widen_storage(self, shift, dtype):
        pinned = {v: z + shift for v, z in L_PINS.items()}
        pots = window_potentials(L_SHAPE, pinned, MIXED)
        eng = BoxGlauber(L_SHAPE, pinned, pots, np.random.default_rng(24),
                         start="mid")
        assert eng._h.dtype == dtype
        want = reference_box_sweeps(
            L_SHAPE, pinned, eng.height_matrix(), pots, 10,
            np.random.default_rng(24),
        )
        eng.sweep(10)
        got = eng.height_matrix()
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
        for row in got:
            f = dict(zip(L_SHAPE.vertex_list, row.tolist()))
            assert validate(L_SHAPE, f)

    @pytest.mark.parametrize(
        "region,pinned,steps",
        [
            (BOX3, CORNER_PIN, 500),
            (BOX3, CORNER_PIN, 70_001),  # not a multiple of the 7 free sites
            (BOX9, extremal_boundary(BOX9, 1, 0), 70_000),
            (BOX25, ring(BOX25), 33_000),
            (PATH5, {(0,): 0, (4,): 0}, 2_000),
        ],
    )
    def test_coupled_run_on_regions(self, region, pinned, steps):
        # the data and the data raised by 2: two distinct ordered chains
        high = {v: z + 2 for v, z in pinned.items()}
        (p,) = window_potentials(region, high, [("uniform", 1.5, 2, 0)], pad=2)
        rng = np.random.default_rng(8)
        got = coupled_run(region, pinned, high, p, steps, rng)
        assert_coupled_run_is_two_runs(region, (pinned, high), p, steps, 8,
                                       got, rng)

    @pytest.mark.parametrize("steps", [3_000, 40_000])
    def test_coupled_run(self, steps):
        high_pin = RING_PIN.shift(2)
        (p,) = window_potentials(
            BOX3, high_pin, [("twopoint", 1.0, 4, 0)], pad=2
        )
        rng = np.random.default_rng(5)
        got = coupled_run(BOX3, RING_PIN, high_pin, p, steps, rng)
        assert_coupled_run_is_two_runs(BOX3, (RING_PIN, high_pin), p, steps, 5,
                                       got, rng)

    @pytest.mark.parametrize(
        "region,pinned",
        [
            (BOX3, CORNER_PIN),
            (BOX3, RING_PIN),
            (PATH5, {(0,): 0, (4,): 0}),
            (make_box((0, 0), (3, 3)), {(0, 0): 0, (3, 3): 0}),
        ],
    )
    def test_transition_matrix(self, region, pinned):
        mu = measure(region, pinned, param=1.5, seed=4)
        free = free_positions(region, pinned)
        index = {m.heights: i for i, m in enumerate(mu.support.members)}
        want = np.zeros((len(mu), len(mu)))
        for s, g in enumerate(mu.support.members):
            for i in free:
                nv = [g.heights[j] for j in region.neighbor_positions(i)]
                lo, hi, p_hi = reference_law(nv, mu.potential)
                for z, w in ((hi, p_hi), (lo, 1.0 - p_hi)):
                    h = list(g.heights)
                    h[i] = z
                    want[s, index[tuple(h)]] += w / len(free)
        assert np.max(np.abs(transition_matrix(mu) - want)) <= 1e-15


class TestExtremePotentials:
    """|omega| up to 1000 drives k (omega_z - omega_{z-1}) to +-8000."""

    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_coupled_run(self):
        high_pin = RING_PIN.shift(2)
        (p,) = window_potentials(
            BOX3, high_pin, [("uniform", 1000.0, 2, 0)], pad=2
        )
        f_low, f_high = coupled_run(
            BOX3, RING_PIN, high_pin, p, 2_000, np.random.default_rng(1)
        )
        assert f_low.le(f_high)

    def test_box_sweep(self):
        pots = window_potentials(
            BOX9, ring(BOX9), [("uniform", 1000.0, 3, d) for d in range(4)]
        )
        eng = BoxGlauber(BOX9, ring(BOX9), pots, np.random.default_rng(2))
        eng.sweep(20)
        for row in eng.height_matrix():
            assert validate(BOX9, dict(zip(BOX9.vertex_list, row.tolist())))

    def test_transition_matrix_stays_stochastic(self):
        mu = measure(BOX3, CORNER_PIN, param=1000.0, seed=4)
        P = transition_matrix(mu)
        assert np.all(P >= 0.0)
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)

    def test_flip_table_past_the_float_range(self):
        # omega_z - omega_{z-1} of +-2e308 and k times 1e308 leave the
        # float range: the entries saturate at exactly 0 or 1, row k = 0
        # stays 1/2, and nothing warns
        values = np.array([1e308, -1e308, 1e308, 1e308, 0.5])
        tab = sampler._flip_table(values, 4)
        assert np.all(tab[0] == 0.5)
        assert np.all(tab[1:, 0] == 0.5) and np.all(tab[1:, 3] == 0.5)
        assert np.all(tab[1:, 1] == 0.0) and np.all(tab[1:, 4] == 0.0)
        assert np.all(tab[1:, 2] == 1.0)
        big = np.stack([values, -values])
        assert np.array_equal(sampler._flip_table(big, 4)[0], tab)


class TestExpit:
    """The heat-bath table's logistic function is scipy's, bit for bit."""

    EDGES = [745.0, 710.0, 709.78, 36.7, 1.0, 1e-300, 0.0]

    def test_edge_arguments(self):
        t = np.array([s * x for x in self.EDGES for s in (1.0, -1.0)])
        got = sampler._expit(t)
        assert np.array_equal(got, expit(t))
        assert got[t == -745.0].tolist() == [0.0]  # exp(745) overflows
        assert got[t == 0.0].tolist() == [0.5, 0.5]  # for 0.0 and -0.0

    def test_scaled_normals(self):
        rng = np.random.default_rng(11)
        for scale in (1e-3, 1.0, 30.0, 1e3):
            t = rng.standard_normal((3, 4, 500)) * scale
            got = sampler._expit(t)
            assert got.shape == t.shape
            assert np.array_equal(got, expit(t))

    @pytest.mark.parametrize("kind,param", [("twopoint", 1.0), ("uniform", 2.0)])
    def test_flip_table_matches_a_scipy_table(self, kind, param):
        values = np.stack([
            sample_potential(PotentialModel(kind, param, 3), (-6, 9), draw=d).values
            for d in range(5)
        ])
        step = np.diff(values, axis=-1, prepend=values[..., :1])
        k = np.arange(5, dtype=np.float64)[:, None]
        want = expit(k * step[..., None, :])
        assert np.array_equal(sampler._flip_table(values, 4), want)
        assert np.array_equal(sampler._flip_table(values[0], 4), want[0])


def scalar_expit(x: float) -> float:
    """1 / (1 + exp(-x)) in Python floats, 0 where exp(-x) overflows."""
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        return 0.0


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestExpitAgainstScalar:
    """``_expit`` equals the scalar formula bit for bit, -0.0 included."""

    def check(self, t):
        t = np.asarray(t, dtype=float)
        want = np.array([scalar_expit(x) for x in t.ravel().tolist()])
        got = sampler._expit(t)
        assert got.shape == t.shape
        assert same_bits(got.ravel(), want)

    def test_random_arguments(self):
        rng = np.random.default_rng(16)
        for scale in (1e-6, 1.0, 40.0, 400.0):
            self.check(rng.standard_normal((4, 3, 250)) * scale)
        self.check(rng.uniform(-800.0, 800.0, 2000))

    def test_around_the_overflow(self):
        # exp(709.78) is finite, exp(709.79) overflows; -709 is the split
        # between the one-by-one and the vectorised arguments
        edges = [-709.78, -709.79, -745.0, -1e308, -709.0, -708.999999]
        self.check(edges)
        got = sampler._expit(np.array(edges))
        assert got[1:4].tolist() == [0.0, 0.0, 0.0]
        assert got[0] > 0.0

    def test_signed_zeros_and_large_positive(self):
        t = [0.0, -0.0, 36.7, 37.0, 710.0, 745.0, 1e308, 1e-300, -1e-300]
        self.check(t)
        got = sampler._expit(np.array(t))
        assert got[:2].tolist() == [0.5, 0.5]
        assert got[4:7].tolist() == [1.0, 1.0, 1.0]

    def test_only_overflowing_or_only_plain_arguments(self):
        self.check([-800.0, -1e308])
        self.check([1.0, 2.0])
        self.check(np.zeros((2, 0)))


def test_coupled_run_memory_is_bounded_by_a_sweep():
    # 500k steps are about 950 sweeps of the 529 free sites; drawing every
    # sweep's uniforms for both chains at once would hold about 8 MB
    pinned = ring(BOX25)
    high_pin = {v: z + 2 for v, z in pinned.items()}
    (p,) = window_potentials(BOX25, high_pin, [("uniform", 1.0, 1, 0)], pad=2)
    tracemalloc.start()
    try:
        coupled_run(
            BOX25, pinned, high_pin, p, 500_000, np.random.default_rng(0)
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


# -- chain groups and the buffered half-sweep --------------------------------

GROUP_CASES = [
    (BOX9, extremal_boundary(BOX9, 1, 0)),
    (HOLED, ring(HOLED)),
    (L_SHAPE, L_PINS),
    (CUBE3, {(0, 0, 0): 0, (2, 2, 2): 0}),
    (PATH12, {(0,): 0, (11,): 3}),
]
GROUP_IDS = ["box", "ring", "L-shape", "cube", "path"]


def group_potentials(region, pinned, kind, first_draw, chains):
    lo, hi = required_window(region, pinned)
    model = PotentialModel(kind, 1.0, 9)
    return [
        sample_potential(model, (lo, hi), draw=first_draw + d)
        for d in range(chains)
    ]


def two_groups(region, pinned, kind, start, sizes=(3, 5)):
    """A two-group engine and the two separate engines it stands for."""
    pots = [
        group_potentials(region, pinned, kind, 100 * g, c)
        for g, c in enumerate(sizes)
    ]
    gens = [np.random.default_rng([31, g]) for g in range(2)]
    env = _pinned_envelopes(region, pinned)
    joint = BoxGlauber(
        region, start=start, _groups=[(env, g, p) for g, p in zip(gens, pots)]
    )
    alone_gens = [np.random.default_rng([31, g]) for g in range(2)]
    alone = [
        BoxGlauber(region, pinned, p, g, start=start)
        for p, g in zip(pots, alone_gens)
    ]
    return joint, gens, alone, alone_gens


def states(gens):
    return [g.bit_generator.state for g in gens]


class TestChainGroups:
    """A batch of groups, each on its own generator, is the separate
    engines side by side: same heights, same generator end states."""

    @pytest.mark.parametrize("start", ["low", "mid"])
    @pytest.mark.parametrize("kind", ["twopoint", "uniform"])
    @pytest.mark.parametrize("region,pinned", GROUP_CASES, ids=GROUP_IDS)
    def test_groups_equal_separate_engines(self, region, pinned, kind, start):
        joint, gens, alone, alone_gens = two_groups(region, pinned, kind, start)
        joint.sweep(17)
        for eng in alone:
            eng.sweep(17)
        want = np.concatenate([eng.height_matrix() for eng in alone])
        assert np.array_equal(joint.height_matrix(), want)
        assert states(gens) == states(alone_gens)

    @pytest.mark.parametrize("kind", ["twopoint", "uniform"])
    @pytest.mark.parametrize("region,pinned", GROUP_CASES, ids=GROUP_IDS)
    def test_coupled_pair_equals_two_separate_engines(self, region, pinned, kind):
        # the pair's groups run under different boundary triples: each
        # is the single-group engine of its own datum, on a generator in
        # the state the pair's generator starts in
        high = {v: z + 2 for v, z in pinned.items()}
        (p,) = window_potentials(region, high, [(kind, 1.0, 5, 0)], pad=2)
        sweeps = 7
        rng = np.random.default_rng(12)
        pair = coupled_run(
            region, pinned, high, p,
            sweeps * (len(region) - len(pinned)), rng,
        )
        for f, datum in zip(pair, (pinned, high)):
            alone_rng = np.random.default_rng(12)
            alone = BoxGlauber(region, datum, [p], alone_rng)
            alone.sweep(sweeps)
            assert [list(f.heights)] == alone.height_matrix().tolist()
            assert rng.bit_generator.state == alone_rng.bit_generator.state

    @pytest.mark.parametrize("region,pinned", GROUP_CASES, ids=GROUP_IDS)
    def test_narrowed_engine_equals_first_group_alone(self, region, pinned):
        joint, gens, alone, alone_gens = two_groups(
            region, pinned, "twopoint", "mid"
        )
        joint.sweep(9)
        alone[0].sweep(9)
        alone[1].sweep(9)
        dropped = joint._keep_first_group()
        assert np.array_equal(dropped, alone[1].height_matrix())
        assert joint.batch == 3 and joint.heights.shape[0] == 3
        joint.sweep(11)
        alone[0].sweep(11)
        assert np.array_equal(joint.height_matrix(), alone[0].height_matrix())
        assert states(gens[:1]) == states(alone_gens[:1])
        # the dropped group's generator is no longer drawn from
        assert states(gens[1:]) == states(alone_gens[1:])

    def test_single_group_narrowing_is_a_no_op(self):
        pots = group_potentials(L_SHAPE, L_PINS, "uniform", 0, 4)
        a = BoxGlauber(L_SHAPE, L_PINS, pots, np.random.default_rng(2))
        b = BoxGlauber(L_SHAPE, L_PINS, pots, np.random.default_rng(2))
        a.sweep(3)
        b.sweep(3)
        assert a._keep_first_group().shape == (0, len(L_SHAPE))
        a.sweep(4)
        b.sweep(4)
        assert np.array_equal(a.height_matrix(), b.height_matrix())

    @pytest.mark.parametrize("region,pinned", GROUP_CASES, ids=GROUP_IDS)
    def test_half_sweeps_equal_a_sweep(self, region, pinned):
        joint, gens, _, _ = two_groups(region, pinned, "uniform", "low")
        other, other_gens, _, _ = two_groups(region, pinned, "uniform", "low")
        for _ in range(6):
            joint.half_sweep(0)
            joint.half_sweep(1)
        other.sweep(6)
        assert np.array_equal(joint.height_matrix(), other.height_matrix())
        assert states(gens) == states(other_gens)

    def test_engines_share_no_buffers(self):
        # interleaved sweeps of two engines equal the same engines swept
        # one after the other
        def pair():
            return [
                BoxGlauber(
                    region, pinned,
                    group_potentials(region, pinned, "twopoint", 0, b),
                    np.random.default_rng(b),
                )
                for (region, pinned), b in zip(GROUP_CASES[:2], (4, 6))
            ]

        mixed, apart = pair(), pair()
        for _ in range(10):
            for eng in mixed:
                eng.sweep(1)
                eng.half_sweep(0)
                eng.half_sweep(1)
        for eng in apart:
            eng.sweep(20)
        for a, b in zip(mixed, apart):
            assert np.array_equal(a.height_matrix(), b.height_matrix())

    @pytest.mark.parametrize("parity", [-1, 2, 3])
    def test_half_sweep_rejects_other_parities(self, parity):
        eng, _, _, _ = two_groups(BOX9, extremal_boundary(BOX9, 1, 0),
                                  "twopoint", "low")
        before = eng.height_matrix()
        with pytest.raises(ValueError, match=f"parity.*{parity}"):
            eng.half_sweep(parity)
        assert np.array_equal(eng.height_matrix(), before)

    @pytest.mark.parametrize("n", [2.5, "3", None])
    def test_sweep_rejects_non_integer_counts(self, n):
        eng, _, _, _ = two_groups(BOX9, extremal_boundary(BOX9, 1, 0),
                                  "twopoint", "low")
        with pytest.raises(ValueError, match=f"sweeps.*{n!r}"):
            eng.sweep(n)

    def test_sweep_accepts_numpy_integers(self):
        a, _, _, _ = two_groups(PATH12, {(0,): 0, (11,): 3}, "uniform", "low")
        b, _, _, _ = two_groups(PATH12, {(0,): 0, (11,): 3}, "uniform", "low")
        a.sweep(np.int64(5))
        b.sweep(5)
        assert np.array_equal(a.height_matrix(), b.height_matrix())

    @pytest.mark.parametrize(
        "groups,match",
        [
            (lambda e, g, p: [(e, g, p[:2]),
                              (e, np.random.RandomState(0), p[2:])],
             "Generator"),
            (lambda e, g, p: [(e, g, p), (e, np.random.default_rng(1), [])],
             ">= 1"),
            (lambda e, g, p: [(e, g, []), (e, np.random.default_rng(1), p)],
             ">= 1"),
            (lambda e, g, p: [], "at least one potential"),
        ],
    )
    def test_rejects_bad_groups(self, groups, match):
        pots = group_potentials(L_SHAPE, L_PINS, "uniform", 0, 4)
        env = _pinned_envelopes(L_SHAPE, L_PINS)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match=match):
            BoxGlauber(L_SHAPE, _groups=groups(env, rng, pots))

    def test_rejects_a_non_generator_rng(self):
        pots = group_potentials(L_SHAPE, L_PINS, "uniform", 0, 2)
        with pytest.raises(ValueError, match="Generator"):
            BoxGlauber(L_SHAPE, L_PINS, pots, np.random.RandomState(0))


class TestTableReach:
    """Half-sweeps read P(up) with take(mode="clip"), so every index must
    lie in its own chain's and degree's table row."""

    @pytest.mark.parametrize("start", ["low", "mid"])
    @pytest.mark.parametrize("region,pinned", GROUP_CASES, ids=GROUP_IDS)
    def test_neighbour_minima_stay_in_the_window(self, region, pinned, start):
        pots = window_potentials(region, pinned, MIXED)
        lo, hi = pots[0].window
        eng = BoxGlauber(region, pinned, pots, np.random.default_rng(5),
                         start=start)
        free = [
            (i, list(region.neighbor_positions(i)))
            for i in free_positions(region, pinned)
        ]
        for step in range(40):
            h = eng.height_matrix()
            for i, nb in free:
                mins = h[:, nb].min(axis=1)
                assert lo <= mins.min() and mins.max() <= hi
            eng.half_sweep(step % 2)

    def test_rejects_envelopes_whose_reach_leaves_the_window(self):
        # the path 0..4 pinned 0 at both ends has envelopes
        # (0,-1,-2,-1,0) and (0,1,2,1,0); lowering the middle of the upper
        # one to 0 narrows the window to [-2, 0], but the middle site's
        # neighbours sit between -1 and 1
        pinned = {(0,): 0, (4,): 0}
        at, low, high = _pinned_envelopes(PATH5, pinned)
        fake = np.array([0, 1, 0, 1, 0])
        p = Potential(-2, 0, np.zeros(3))
        with pytest.raises(ValueError, match=r"reach \[-1, 1\]"):
            BoxGlauber(PATH5, _groups=[
                ((at, low, fake), np.random.default_rng(0), [p])
            ])
        BoxGlauber(PATH5, _groups=[
            ((at, low, high), np.random.default_rng(0),
             [Potential(-2, 1, np.zeros(4))])
        ])

    def test_each_group_is_checked_against_its_own_envelopes(self):
        # (low, low) fits the window [-2, 0]; the second group's pair is
        # the one above whose reach leaves it
        pinned = {(0,): 0, (4,): 0}
        at, low, _ = _pinned_envelopes(PATH5, pinned)
        fake = np.array([0, 1, 0, 1, 0])
        p = Potential(-2, 0, np.zeros(3))
        fits = ((at, low, low), np.random.default_rng(0), [p])
        BoxGlauber(PATH5, _groups=[fits])
        with pytest.raises(ValueError, match=r"reach \[-1, 1\]"):
            BoxGlauber(PATH5, _groups=[
                fits, ((at, low, fake), np.random.default_rng(0), [p])
            ])
