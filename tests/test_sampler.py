"""Glauber dynamics: single-site chains, exact kernels, batched sweeps.

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

from randomsurfaces.gibbs import quenched_measure, required_window
from randomsurfaces.heights import (
    enumerate_extensions,
    extremal_boundary,
    min_max_extensions,
    parity_height,
    validate,
)
from randomsurfaces.lattice import Region, boundary, make_box
from randomsurfaces.potential import Potential, PotentialModel, sample_potential
from randomsurfaces.sampler import (
    BoxGlauber,
    ChainState,
    coupled_run,
    exact_sample,
    glauber_step,
    run_chain,
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
    def test_run_chain_output_is_valid(self):
        lo, hi = required_window(BOX3, CORNER_PIN)
        p = sample_potential(PotentialModel("uniform", 1.0, 1), (lo, hi))
        rng = np.random.default_rng(0)
        final = run_chain(BOX3, CORNER_PIN, p, 500, rng)
        assert validate(BOX3, final.as_dict())
        assert final[(0, 0)] == 0 and final[(2, 2)] == 0

    def test_run_chain_zero_steps_returns_minimal(self):
        lo, hi = required_window(BOX3, CORNER_PIN)
        p = sample_potential(PotentialModel("uniform", 1.0, 1), (lo, hi))
        low, _ = min_max_extensions(BOX3, CORNER_PIN)
        got = run_chain(BOX3, CORNER_PIN, p, 0, np.random.default_rng(0))
        assert got == low

    def test_run_chain_deterministic(self):
        lo, hi = required_window(BOX3, CORNER_PIN)
        p = sample_potential(PotentialModel("uniform", 1.0, 1), (lo, hi))
        a = run_chain(BOX3, CORNER_PIN, p, 300, np.random.default_rng(7))
        b = run_chain(BOX3, CORNER_PIN, p, 300, np.random.default_rng(7))
        assert a == b

    def test_run_chain_rejects_narrow_potential(self):
        p = Potential(0, 0, np.zeros(1))
        with pytest.raises(ValueError):
            run_chain(BOX3, CORNER_PIN, p, 10, np.random.default_rng(0))

    def test_glauber_step_changes_at_most_one_free_site(self):
        lo, hi = required_window(BOX3, CORNER_PIN)
        p = sample_potential(PotentialModel("uniform", 1.0, 4), (lo, hi))
        low, _ = min_max_extensions(BOX3, CORNER_PIN)
        state = ChainState(BOX3, low.restrict(list(CORNER_PIN)), low.heights, p)
        rng = np.random.default_rng(3)
        for _ in range(200):
            nxt = glauber_step(state, rng)
            diff = [
                i for i, (a, b) in enumerate(zip(state.heights, nxt.heights))
                if a != b
            ]
            assert len(diff) <= 1
            if diff:
                v = BOX3.vertex_list[diff[0]]
                assert v not in CORNER_PIN
            assert nxt.step == state.step + 1
            state = nxt
        assert validate(BOX3, state.current.as_dict())


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

    def test_rejects_non_box(self):
        ring = Region(v for v in BOX3 if v != (1, 1))
        p = Potential(0, 1, np.zeros(2))
        with pytest.raises(ValueError):
            BoxGlauber(ring, RING_PIN, [p], np.random.default_rng(0))

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


def reference_chains(region, free, starts, p, steps, rng):
    """Single-site chains from ``starts`` with shared picks and uniforms.

    The picks and then the uniforms are drawn in one shot each.
    """
    picks = rng.integers(len(free), size=steps)
    us = rng.random(steps)
    hs = [list(h) for h in starts]
    for t in range(steps):
        i = free[picks[t]]
        for h in hs:
            nv = [h[j] for j in region.neighbor_positions(i)]
            h[i] = reference_update(nv, p, us[t])
    return hs


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


def window_potentials(region, pinned, specs, pad=0):
    lo, hi = required_window(region, pinned)
    return [
        sample_potential(PotentialModel(kind, param, seed), (lo - pad, hi), d)
        for kind, param, seed, d in specs
    ]


def ring(region):
    return parity_height(region).restrict(boundary(region))


BOX7 = make_box((1, 2), (7, 8))  # off the origin: parity follows coordinates
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

    @pytest.mark.parametrize(
        "region,pinned,steps",
        [
            (BOX3, CORNER_PIN, 500),
            (BOX3, CORNER_PIN, 70_001),  # crosses chunk boundaries
            (BOX9, extremal_boundary(BOX9, 1, 0), 70_000),
            (BOX25, ring(BOX25), 33_000),
            (PATH5, {(0,): 0, (4,): 0}, 2_000),
        ],
    )
    def test_run_chain(self, region, pinned, steps):
        (p,) = window_potentials(region, pinned, [("uniform", 1.5, 2, 0)])
        low, _ = min_max_extensions(region, pinned)
        rng = np.random.default_rng(8)
        got = run_chain(region, pinned, p, steps, rng)
        ref_rng = np.random.default_rng(8)
        (want,) = reference_chains(
            region, free_positions(region, pinned), [low.heights], p, steps,
            ref_rng,
        )
        assert list(got.heights) == want
        # the chunked draws leave the generator where one-shot draws do
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("steps", [3_000, 40_000])
    def test_coupled_run(self, steps):
        high_pin = RING_PIN.shift(2)
        (p,) = window_potentials(
            BOX3, high_pin, [("twopoint", 1.0, 4, 0)], pad=2
        )
        rng = np.random.default_rng(5)
        f_low, f_high = coupled_run(BOX3, RING_PIN, high_pin, p, steps, rng)
        starts = [
            min_max_extensions(BOX3, d)[0].heights for d in (RING_PIN, high_pin)
        ]
        ref_rng = np.random.default_rng(5)
        want = reference_chains(
            BOX3, free_positions(BOX3, RING_PIN), starts, p, steps, ref_rng
        )
        assert [list(f_low.heights), list(f_high.heights)] == want
        assert rng.bit_generator.state == ref_rng.bit_generator.state

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

    def test_run_chain(self):
        (p,) = window_potentials(BOX9, ring(BOX9), [("uniform", 1000.0, 1, 0)])
        f = run_chain(BOX9, ring(BOX9), p, 5_000, np.random.default_rng(0))
        assert validate(BOX9, f.as_dict())

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


def test_run_chain_memory_is_bounded_by_a_chunk():
    # one-shot draws of 500k picks and uniforms would hold 8 MB of arrays
    # alone, before their conversion to lists
    lo, hi = required_window(BOX3, CORNER_PIN)
    p = sample_potential(PotentialModel("uniform", 1.0, 1), (lo, hi))
    tracemalloc.start()
    try:
        run_chain(BOX3, CORNER_PIN, p, 500_000, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
