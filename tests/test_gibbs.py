"""Gibbs measures: Hamiltonians, quenched/annealed weights, identities.

Hand-derived oracles on the 3-vertex path (0,), (1,), (2,) with both
endpoints pinned to 0 (members: center +1 or -1):

* member (0, 1, 0) has both edge minima at height 0, so H = 2 w(0);
  member (0, -1, 0) has both at -1, so H = 2 w(-1);
* with w(0) = 1 and w(-1) = 0 the probability of center +1 is
  e^2 / (e^2 + 1) = 0.8807970779778823, and the quenched mean height
  of the center is 2p - 1 = tanh(1) = 0.7615941559557649;
* under the +-a two-point law, w(0) - w(-1) is 0 with probability 1/2
  and +-2a with probability 1/4 each, so the annealed center mean
  E tanh(w(0) - w(-1)) vanishes by symmetry: exactly 0.

A second route through every probability computation below uses plain
math.exp sums instead of the library's log-space path.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy
from scipy.special import logsumexp

from randomsurfaces import gibbs, heights
from randomsurfaces.gibbs import (
    annealed_expectation,
    annealed_member_probabilities,
    check_relative_complement_identity,
    check_shift_identity,
    hamiltonian_interior,
    hamiltonian_plus,
    identity_check_suite,
    partition_function,
    quenched_expectation,
    quenched_measure,
    required_window,
)
from randomsurfaces.heights import (
    HeightFunction,
    NoExtensionError,
    enumerate_extensions,
    kirszbraun_violation,
    parity_height,
)
from randomsurfaces.lattice import Region, boundary, make_box, relative_boundary
from randomsurfaces.potential import (
    Potential,
    PotentialModel,
    enumerate_potentials,
    sample_potential,
)

PATH3 = make_box((0,), (2,))
PATH5 = make_box((0,), (4,))
BOX3 = make_box((0, 0), (2, 2))
PIN3 = {(0,): 0, (2,): 0}
# w(-1) = 0, w(0) = 1 on the height-axis window [-1, 0]
W01 = Potential(-1, 0, np.array([0.0, 1.0]))


def exp_route_probabilities(region, pinned, p):
    """Independent probability computation: plain exp sums, no log space."""
    support = enumerate_extensions(region, pinned)
    ea, eb = region.edge_arrays()
    weights = []
    for m in support.members:
        h = m.heights
        weights.append(
            math.exp(sum(p.value(min(h[a], h[b])) for a, b in zip(ea, eb)))
        )
    z = sum(weights)
    return support, [w / z for w in weights]


# scipy 1.15 moved logsumexp to the max-split formula of gibbs._logsumexp;
# older releases compute log(sum(exp(a - max))) + max, a few ulps away
SCIPY_MAX_SPLIT = tuple(int(x) for x in scipy.__version__.split(".")[:2]) >= (1, 15)


def frozen_logsumexp(a, axis=None):
    """scipy 1.17's real-input logsumexp, frozen step by step."""
    a = np.asarray(a, dtype=np.float64)
    a_max = np.max(a, axis=axis, keepdims=True)
    top = a == a_max
    m = np.sum(top, axis=axis, keepdims=True, dtype=np.float64)
    s = np.sum(np.exp(np.where(top, -np.inf, a) - a_max), axis=axis, keepdims=True)
    s = np.where(s == 0, s, s / m)
    out = np.log1p(s) + np.log(m) + a_max
    return out.reshape(()) if axis is None else out.squeeze(axis)


def logsumexp_cases():
    """1D and row-batched inputs: ties, single elements, all-equal rows,
    magnitudes up to 1e3."""
    rng = np.random.default_rng(14)
    cases = [
        (np.array([0.5]), None),
        (np.array([-1e3]), None),
        (np.full(7, 2.25), None),
        (np.array([3.0, 3.0, -1.0, 3.0]), None),
        (np.array([1e3, -1e3, 999.0, 1e3]), None),
        (np.full((4, 5), -0.75), 1),
        (np.array([[1.0], [-2.0]]), 1),
    ]
    for _ in range(300):
        n = int(rng.integers(1, 80))
        a = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
        if rng.random() < 0.5:
            a = np.round(a)  # ties at the maximum and elsewhere
        cases.append((a, None))
    for _ in range(60):
        shape = tuple(int(x) for x in rng.integers(1, 40, size=2))
        a = np.round(rng.standard_normal(shape) * 3.0, 1)
        a[:, -1] = a[:, 0]  # a tie in every row
        cases.append((a, 1))
    return cases


class TestLogSumExp:
    def test_matches_the_frozen_formula_bit_for_bit(self):
        for a, axis in logsumexp_cases():
            got = gibbs._logsumexp(a, axis=axis)
            assert np.array_equal(got, frozen_logsumexp(a, axis=axis)), a

    def test_matches_scipy(self):
        for a, axis in logsumexp_cases():
            got = gibbs._logsumexp(a, axis=axis)
            want = logsumexp(a, axis=axis)
            if SCIPY_MAX_SPLIT:
                assert np.array_equal(got, want), a
            else:
                np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-12)

    def test_rows_match_one_row_at_a_time(self):
        for a, axis in logsumexp_cases():
            if axis == 1:
                rows = [gibbs._logsumexp(row) for row in a]
                assert np.array_equal(gibbs._logsumexp(a, axis=1), rows)

    def test_shapes_and_scalars(self):
        assert isinstance(gibbs._logsumexp([0.0, 1.0]), np.float64)
        assert gibbs._logsumexp(np.zeros((3, 4)), axis=1).shape == (3,)
        assert gibbs._logsumexp(np.zeros((1, 4)), axis=1).shape == (1,)
        assert gibbs._logsumexp([0.0, 0.0]) == math.log(2.0)
        assert gibbs._logsumexp(2.5) == 2.5  # a 0-d input

    def test_input_is_untouched_and_one_temporary_is_held(self):
        rng = np.random.default_rng(3)
        for axis in (None, 1):
            a = np.round(rng.standard_normal((200, 500)), 1)
            kept = a.copy()
            want = frozen_logsumexp(a, axis=axis)
            tracemalloc.start()
            try:
                got = gibbs._logsumexp(a, axis=axis)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert np.array_equal(got, want)
            assert np.array_equal(a, kept)
            # one float64 temporary plus the boolean mask of the maxima
            assert peak < 1.5 * a.nbytes, peak / a.nbytes

    def test_empty_input_is_minus_infinity(self):
        assert gibbs._logsumexp([]) == -np.inf == logsumexp([])
        got = gibbs._logsumexp(np.empty((3, 0)), axis=1)
        assert np.array_equal(got, np.full(3, -np.inf))
        assert np.array_equal(got, logsumexp(np.empty((3, 0)), axis=1))


class TestHamiltonian:
    def test_path_members_by_hand(self):
        up = HeightFunction.from_dict({(0,): 0, (1,): 1, (2,): 0})
        down = HeightFunction.from_dict({(0,): 0, (1,): -1, (2,): 0})
        assert hamiltonian_interior(up, W01) == 2.0  # 2 w(0)
        assert hamiltonian_interior(down, W01) == 0.0  # 2 w(-1)

    def test_single_vertex_no_edges(self):
        f = HeightFunction.from_dict({(0, 0): 0})
        assert hamiltonian_interior(f, W01) == 0.0

    def test_hamiltonian_plus_covers_outer_ring(self):
        # outer extension of the path (1,) is (0,), (1,), (2,)
        inner = Region([(1,)])
        f = HeightFunction.from_dict({(0,): 0, (1,): 1, (2,): 0})
        assert hamiltonian_plus(inner, f, W01) == 2.0

    def test_hamiltonian_plus_missing_vertex(self):
        inner = Region([(1,)])
        f = HeightFunction.from_dict({(1,): 1, (2,): 0})
        with pytest.raises(ValueError):
            hamiltonian_plus(inner, f, W01)

    def test_partition_function_two_routes(self):
        members = [m for m in enumerate_extensions(PATH3, PIN3)]
        got = partition_function(members, W01)
        # independent route: log(e^0 + e^2)
        assert got == pytest.approx(math.log(1.0 + math.exp(2.0)), rel=1e-14)

    def test_partition_function_empty_rejected(self):
        with pytest.raises(ValueError):
            partition_function([], W01)


class TestQuenchedMeasure:
    def test_hand_probability(self):
        mu = quenched_measure(PATH3, PIN3, W01)
        up = HeightFunction.from_dict({(0,): 0, (1,): 1, (2,): 0})
        p_up = math.exp(2) / (math.exp(2) + 1)  # 0.8807970779778823
        assert mu.probability_of(up) == pytest.approx(p_up, rel=1e-14)
        assert float(mu.probabilities.sum()) == pytest.approx(1.0, rel=1e-14)

    def test_quenched_mean_is_tanh(self):
        mu = quenched_measure(PATH3, PIN3, W01)
        mean = quenched_expectation(mu, lambda g: g[(1,)])
        assert mean == pytest.approx(math.tanh(1.0), rel=1e-14)

    def test_exp_route_agreement_on_random_instances(self):
        model = PotentialModel("uniform", 1.5, 3)
        for draw, (region, pin) in enumerate(
            [
                (PATH5, {(0,): 0, (4,): 0}),
                (BOX3, parity_height(BOX3).restrict(boundary(BOX3))),
                (BOX3, {(0, 0): 0, (2, 2): 0}),
            ]
        ):
            lo, hi = required_window(region, pin)
            p = sample_potential(model, (lo, hi), draw=draw)
            mu = quenched_measure(region, pin, p)
            support, ref = exp_route_probabilities(region, pin, p)
            assert support.members == mu.support.members
            np.testing.assert_allclose(mu.probabilities, ref, rtol=1e-12)

    def test_constant_potential_shift_cancels(self):
        # every member has the same edge count, so w -> w + c cancels
        pin = {(0,): 0, (4,): 0}
        lo, hi = required_window(PATH5, pin)
        p = sample_potential(PotentialModel("uniform", 1.0, 5), (lo, hi))
        shifted = Potential(p.lo, p.hi, p.values + 3.7)
        mu = quenched_measure(PATH5, pin, p)
        nu = quenched_measure(PATH5, pin, shifted)
        np.testing.assert_allclose(mu.probabilities, nu.probabilities,
                                   rtol=1e-12)

    def test_zero_potential_is_uniform(self):
        pin = {(0,): 0, (4,): 0}
        p = sample_potential(PotentialModel("zero"), required_window(PATH5, pin))
        mu = quenched_measure(PATH5, pin, p)
        np.testing.assert_allclose(mu.probabilities, np.full(6, 1 / 6),
                                   rtol=1e-14)

    def test_infeasible_pin_raises_with_witness(self):
        with pytest.raises(NoExtensionError) as err:
            quenched_measure(BOX3, {(0, 1): 1, (2, 1): 5}, W01)
        assert err.value.gap == 4

    def test_level_counts_on_the_path(self):
        # unit potentials on levels -1, 0 read off each member's counts:
        # (0, -1, 0) has both edges at level -1, (0, 1, 0) both at 0
        support = enumerate_extensions(PATH3, PIN3)
        counts = gibbs._hamiltonians(support, np.eye(2), -1)
        assert counts.tolist() == [[2.0, 0.0], [0.0, 2.0]]
        first = np.array([True, False])  # the edge {(0,), (1,)} alone
        counts = gibbs._hamiltonians(support, np.eye(2), -1, first)
        assert counts.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    @pytest.mark.parametrize("window", [(-1, 1), (-2, 0)], ids=["low", "high"])
    def test_window_missing_a_felt_level_raises(self, window):
        # edges feel levels -2..1; a window short on either side raises
        # rather than reading a wrapped or missing value
        pin = {(0,): 0, (4,): 0}
        assert required_window(PATH5, pin) == (-2, 1)
        p = Potential(*window, np.ones(3))
        with pytest.raises(IndexError, match="outside potential window"):
            quenched_measure(PATH5, pin, p)
        with pytest.raises(IndexError, match="outside potential window"):
            check_relative_complement_identity(PATH5, pin, pin, p)


class TestInfeasibleWitness:
    def test_exact_consumers_name_the_kirszbraun_pair(self, metric_instances):
        # the witness is read off the envelopes the support was
        # enumerated from, and is the pair kirszbraun_violation names
        p = Potential(-20, 20, np.zeros(41))
        model = PotentialModel("twopoint", 1.0, 3)
        infeasible = 0
        for region, pins, _ in metric_instances:
            want = kirszbraun_violation(region, pins)
            if want is None:
                continue
            infeasible += 1
            support = enumerate_extensions(region, pins)
            calls = (
                lambda: quenched_measure(region, pins, p),
                lambda: quenched_measure(region, pins, p, support),
                lambda: annealed_member_probabilities(support, model),
                lambda: annealed_expectation(region, pins, model, len),
            )
            for call in calls:
                with pytest.raises(NoExtensionError) as err:
                    call()
                e = err.value
                assert (e.x, e.y, e.gap, e.distance) == want
        assert infeasible > 100


class TestRequiredWindow:
    def test_path_window(self):
        # heights span [-2, 2], so edges live on [-2, 1]
        assert required_window(PATH5, {(0,): 0, (4,): 0}) == (-2, 1)

    def test_fully_pinned(self):
        ring = Region(v for v in BOX3 if v != (1, 1))
        assert required_window(ring, parity_height(ring)) == (0, 0)

    def test_single_vertex(self):
        r = Region([(0,)])
        assert required_window(r, {(0,): 4}) == (4, 4)


class TestAnnealed:
    def test_twopoint_center_mean_is_zero(self):
        model = PotentialModel("twopoint", 0.8)
        est = annealed_expectation(PATH3, PIN3, model, lambda g: g[(1,)])
        assert est.mode == "exact"
        assert est.value == pytest.approx(0.0, abs=1e-15)

    def test_shifted_data_shifts_the_mean(self):
        model = PotentialModel("twopoint", 0.8)
        pin_up = {(0,): 2, (2,): 2}
        est = annealed_expectation(PATH3, pin_up, model, lambda g: g[(1,)])
        assert est.value == pytest.approx(2.0, abs=1e-15)

    def test_exact_matches_brute_force_average(self):
        # independent route: average the exp-route quenched means over
        # all 2^W sign patterns
        model = PotentialModel("twopoint", 0.6)
        pin = {(0,): 0, (4,): 0}
        lo, hi = required_window(PATH5, pin)
        total = 0.0
        count = 0
        for signs in itertools.product((-0.6, 0.6), repeat=hi - lo + 1):
            p = Potential(lo, hi, np.array(signs))
            support, probs = exp_route_probabilities(PATH5, pin, p)
            vals = [m[(2,)] for m in support.members]
            total += sum(v * q for v, q in zip(vals, probs))
            count += 1
        est = annealed_expectation(PATH5, pin, model, lambda g: g[(2,)])
        assert est.value == pytest.approx(total / count, rel=1e-12)

    def test_mc_agrees_with_exact(self):
        model = PotentialModel("twopoint", 1.0, 11)
        exact = annealed_expectation(PATH3, PIN3, model, lambda g: g[(1,)])
        mc = annealed_expectation(
            PATH3, PIN3, model, lambda g: g[(1,)], mode="mc", samples=4000
        )
        assert mc.samples == 4000
        assert mc.stderr > 0
        assert abs(mc.value - exact.value) < 4 * mc.stderr

    def test_member_probabilities_sum_to_one(self):
        model = PotentialModel("twopoint", 0.5)
        support = enumerate_extensions(PATH5, {(0,): 0, (4,): 0})
        probs = annealed_member_probabilities(support, model)
        assert probs.shape == (6,)
        assert float(probs.sum()) == pytest.approx(1.0, rel=1e-14)

    def test_mc_requires_samples(self):
        with pytest.raises(ValueError):
            annealed_expectation(
                PATH3, PIN3, PotentialModel("uniform", 1.0),
                lambda g: g[(1,)], mode="mc", samples=0,
            )

    def test_uniform_has_no_exact_mode(self):
        with pytest.raises(ValueError):
            annealed_expectation(
                PATH3, PIN3, PotentialModel("uniform", 1.0), lambda g: g[(1,)]
            )


def edge_min_matrix(support):
    """(members) x (edges) matrix of the level each edge feels: the per-edge
    reference for the library's per-level counts."""
    ea, eb = support.region.edge_arrays()
    ma = support.members_array
    return np.minimum(ma[:, ea], ma[:, eb])


def annealing_potentials(support, model, mode="exact", samples=0, first_draw=0):
    """The potentials an annealed law averages over, with their weights."""
    lo, hi = required_window(support.region, support.pinned)
    if mode == "exact":
        pots = enumerate_potentials(model, (lo, hi))
        return [p for p, _ in pots], np.asarray([w for _, w in pots])
    potentials = [
        sample_potential(model, (lo, hi), draw=first_draw + i)
        for i in range(samples)
    ]
    return potentials, np.full(samples, 1.0 / samples)


def uncached_annealed_law(support, model, mode="exact", samples=0, first_draw=0):
    """The annealed member law computed afresh: every potential's H from
    the per-level edge counts in one product, each row normalised, then
    averaged."""
    potentials, weights = annealing_potentials(
        support, model, mode, samples, first_draw
    )
    values = np.stack([p.values for p in potentials])
    lw = gibbs._hamiltonians(support, values, potentials[0].lo)
    return weights @ np.exp(lw - gibbs._logsumexp(lw, axis=1)[:, None])


def per_edge_annealed_law(support, model, mode="exact", samples=0, first_draw=0):
    """The annealed member law by the per-edge sum: each member's H is its
    potential values summed edge by edge, one potential at a time."""
    potentials, weights = annealing_potentials(
        support, model, mode, samples, first_draw
    )
    mins = edge_min_matrix(support)
    probs = np.empty((len(potentials), len(support)))
    for i, p in enumerate(potentials):
        lw = p.values_at(mins).sum(axis=1)
        probs[i] = np.exp(lw - gibbs._logsumexp(lw))
    return weights @ probs


def uncached_levels(support, probs, walk):
    """Martingale levels by the audit's own grouping, from a given law."""
    region = support.region
    vals = support.members_array[:, [region.position(v) for v in walk]]
    target = support.members_array[:, region.position(walk[-1])].astype(float)
    levels = []
    for k in range(len(walk) + 1):
        acc = {}
        for row, pr, tv in zip(vals, probs, target):
            mass_sum = acc.setdefault(tuple(int(z) for z in row[:k]), [0.0, 0.0])
            mass_sum[0] += pr
            mass_sum[1] += pr * tv
        levels.append({key: (m, w / m) for key, (m, w) in acc.items()})
    return tuple(levels)


class TestCountsAgainstTheEdgeSum:
    """The per-level counts against the per-edge sum on the 6x6 parity
    ring: with dyadic potential values every partial sum is exact, so the
    two routes agree bit for bit; otherwise only summation order differs."""

    BOX6 = make_box((0, 0), (5, 5))
    RING6 = parity_height(BOX6).restrict(boundary(BOX6))

    @pytest.mark.parametrize("a", [1.0, 0.5])
    def test_dyadic_twopoint_is_bit_identical(self, a):
        support = enumerate_extensions(self.BOX6, self.RING6)
        model = PotentialModel("twopoint", a, 0)
        mins = edge_min_matrix(support)
        for p in annealing_potentials(support, model)[0]:
            mu = quenched_measure(self.BOX6, self.RING6, p, support)
            assert np.array_equal(mu.log_weights, p.values_at(mins).sum(axis=1))
        assert np.array_equal(
            annealed_member_probabilities(support, model),
            per_edge_annealed_law(support, model),
        )

    @pytest.mark.parametrize(
        "model, mode, samples",
        [
            (PotentialModel("twopoint", 0.7, 3), "exact", 0),
            (PotentialModel("uniform", 1.0, 3), "mc", 16),
        ],
    )
    def test_other_values_agree_to_1e_12(self, model, mode, samples):
        support = enumerate_extensions(self.BOX6, self.RING6)
        mins = edge_min_matrix(support)
        potentials, _ = annealing_potentials(support, model, mode, samples)
        for p in potentials:
            mu = quenched_measure(self.BOX6, self.RING6, p, support)
            np.testing.assert_allclose(
                mu.log_weights, p.values_at(mins).sum(axis=1),
                rtol=1e-12, atol=1e-12,
            )
        np.testing.assert_allclose(
            annealed_member_probabilities(support, model, mode, samples),
            per_edge_annealed_law(support, model, mode, samples),
            rtol=1e-12,
        )


class TestAnnealedLawKeptPerSupport:
    BOX5 = make_box((0, 0), (4, 4))
    RING5 = parity_height(BOX5).restrict(boundary(BOX5))

    def test_repeated_calls_equal_a_fresh_computation(self):
        support = enumerate_extensions(self.BOX5, self.RING5)
        model = PotentialModel("twopoint", 0.7, 3)
        fresh = uncached_annealed_law(support, model)
        for _ in range(3):
            assert np.array_equal(
                annealed_member_probabilities(support, model), fresh
            )
        other = enumerate_extensions(self.BOX5, self.RING5)
        assert np.array_equal(annealed_member_probabilities(other, model), fresh)

    def test_mutating_a_result_leaves_the_next_one(self):
        support = enumerate_extensions(PATH5, {(0,): 0, (4,): 0})
        model = PotentialModel("twopoint", 0.5)
        first = annealed_member_probabilities(support, model)
        kept = first.copy()
        first[:] = -1.0
        assert np.array_equal(annealed_member_probabilities(support, model), kept)

    def test_each_mode_and_draw_has_its_own_law(self):
        support = enumerate_extensions(self.BOX5, self.RING5)
        model = PotentialModel("twopoint", 0.7, 3)
        cases = [
            ("exact", 0, 0),
            ("mc", 5, 0),
            ("mc", 5, 1),
            ("mc", 6, 0),
        ]
        laws = [
            annealed_member_probabilities(support, model, mode, samples, draw)
            for mode, samples, draw in cases
        ]
        for (mode, samples, draw), law in zip(cases, laws):
            assert np.array_equal(
                law, uncached_annealed_law(support, model, mode, samples, draw)
            )
        for i in range(len(laws)):
            for j in range(i):
                assert not np.array_equal(laws[i], laws[j])
        again = annealed_member_probabilities(support, model, "mc", 5, 0)
        assert np.array_equal(again, laws[1])
        other_model = PotentialModel("twopoint", 0.7, 4)
        assert not np.array_equal(
            annealed_member_probabilities(support, other_model, "mc", 5, 0),
            laws[1],
        )

    def test_failed_calls_keep_nothing(self):
        support = enumerate_extensions(PATH5, {(0,): 0, (4,): 0})
        model = PotentialModel("twopoint", 0.5)
        with pytest.raises(ValueError):
            annealed_member_probabilities(support, model, mode="mc", samples=0)
        with pytest.raises(ValueError):
            annealed_member_probabilities(support, model, mode="bogus")
        assert support._annealed_laws == {}

    def test_audit_levels_bit_identical_on_the_5x5_ring(self):
        from randomsurfaces.analysis import (
            boundary_to_interior_walks,
            martingale_audit,
        )

        support = enumerate_extensions(self.BOX5, self.RING5)
        model = PotentialModel("twopoint", 0.9, 0)
        law = uncached_annealed_law(support, model)
        interior = sorted(set(self.BOX5.vertex_list) - set(self.RING5.domain))
        walks = boundary_to_interior_walks(self.BOX5, self.RING5.domain, interior)
        assert len(walks) > 100
        for walk in walks:
            audit = martingale_audit(
                self.BOX5, self.RING5, walk, model, support=support
            )
            assert audit.levels == uncached_levels(support, law, walk)


class TestIdentities:
    def test_localization_drops_an_edge_and_agrees(self):
        # pin (0,), (1,), (2,) on the path 0..5: the edge {(0,), (1,)}
        # has both endpoints pinned and neither adjacent to a free
        # vertex, so the localized route really drops it
        path6 = make_box((0,), (5,))
        pin = {(0,): 0, (1,): 1, (2,): 0}
        sub = set(pin)
        active = (set(path6.vertex_list) - sub) | relative_boundary(path6, sub)
        dropped = [
            (x, y)
            for x, y in [((0,), (1,)), ((1,), (2,))]
            if x not in active and y not in active
        ]
        assert dropped == [((0,), (1,))]

        lo, hi = required_window(path6, pin)
        p = sample_potential(PotentialModel("uniform", 2.0, 1), (lo, hi))
        gap = check_relative_complement_identity(path6, sub, pin, p)
        assert gap <= 1e-12

    def test_active_edges_follow_the_relative_boundary(self, metric_instances):
        # an edge is kept when an end is free or on the relative boundary
        for region, pins, _ in metric_instances:
            sub = set(pins)
            active = (region.vertex_set - sub) | relative_boundary(region, sub)
            vs = region.vertex_list
            want = [
                vs[a] in active or vs[b] in active
                for a, b in region.edge_positions
            ]
            at = sorted(map(region.position, sub))
            assert gibbs._active_edges(region, at).tolist() == want

    def test_localization_on_the_box(self):
        pin = parity_height(BOX3).restrict(boundary(BOX3))
        lo, hi = required_window(BOX3, pin)
        p = sample_potential(PotentialModel("uniform", 1.0, 2), (lo, hi))
        gap = check_relative_complement_identity(BOX3, pin.domain, pin, p)
        assert gap <= 1e-12

    def test_localization_requires_matching_sub(self):
        pin = {(0,): 0, (4,): 0}
        p = sample_potential(
            PotentialModel("uniform", 1.0), required_window(PATH5, pin)
        )
        with pytest.raises(ValueError):
            check_relative_complement_identity(PATH5, [(0,)], pin, p)

    def test_shift_identity_on_the_path(self):
        # potential must cover the window of the +2-raised data
        raised_window = required_window(PATH3, {(0,): 2, (2,): 2})
        p = sample_potential(PotentialModel("uniform", 1.7, 4), raised_window)
        assert check_shift_identity(PATH3, PIN3, p) <= 1e-12

    def test_shift_identity_on_the_box(self):
        pin = parity_height(BOX3).restrict(boundary(BOX3))
        raised_window = required_window(BOX3, pin.shift(2))
        p = sample_potential(PotentialModel("twopoint", 1.0, 6), raised_window)
        assert check_shift_identity(BOX3, pin, p) <= 1e-12

    def test_suite_enumerates_each_data_once(self, monkeypatch):
        calls = []

        def counting(region, pinned):
            calls.append(1)
            return enumerate_extensions(region, pinned)

        # a support-less measure enumerates through the heights resolver
        for mod in (gibbs, heights):
            monkeypatch.setattr(mod, "enumerate_extensions", counting)
        samples = 24
        identity_check_suite(samples=samples, seed=1)
        # per trial: the data once, shared by both checks, and the raised
        # data once; every third trial also enumerates its ring data to
        # pick the member it pins almost everywhere
        thick = sum(1 for t in range(samples) if t % 3 == 2)
        assert len(calls) == 2 * samples + thick

    def test_thick_trials_enumerate_each_bridge_once(self, monkeypatch):
        # a thick trial (trial % 3 == 2) validates each bridge it draws by
        # enumerating it, and keeps the first nonempty set
        bridges, enumerated = [], []
        draw, enum = gibbs._cycle_bridge, gibbs.enumerate_extensions

        def counting_bridge(*args):
            bridges.append(1)
            return draw(*args)

        def counting_enum(region, pinned):
            enumerated.append(1)
            return enum(region, pinned)

        monkeypatch.setattr(gibbs, "_cycle_bridge", counting_bridge)
        monkeypatch.setattr(gibbs, "enumerate_extensions", counting_enum)
        thick = [t for t in range(24) if t % 3 == 2]
        for trial in thick:
            gibbs._random_pinned_instance(trial, 0)
        assert len(enumerated) == len(bridges)
        assert len(bridges) > len(thick)  # some bridges are rejected at seed 0

    def test_checks_take_a_pre_enumerated_support(self):
        pin = parity_height(BOX3).restrict(boundary(BOX3))
        lo, hi = required_window(BOX3, pin)
        # covers the data's window and, for the shift check, the raised one
        p = sample_potential(PotentialModel("twopoint", 1.0, 6), (lo, hi + 2))
        support = enumerate_extensions(BOX3, pin)
        assert check_shift_identity(
            BOX3, pin, p, support=support
        ) == check_shift_identity(BOX3, pin, p)
        assert check_relative_complement_identity(
            BOX3, pin.domain, pin, p, support=support
        ) == check_relative_complement_identity(BOX3, pin.domain, pin, p)

    def test_suite_runs_nontrivial_instances(self):
        result = identity_check_suite(samples=24, seed=1)
        assert result.checks == 24
        assert result.nontrivial_localizations >= 1
        assert result.max_relative_complement_gap <= 1e-12
        assert result.max_shift_gap <= 1e-12


class TestSupportIsChecked:
    """A support passed to a measure or an identity check must have been
    enumerated on the given region from the given pinned data."""

    RING = parity_height(BOX3).restrict(boundary(BOX3))
    SUPPORT = enumerate_extensions(BOX3, RING)
    LO, HI = required_window(BOX3, RING)
    # covers the ring's window and, for the shift check, the raised one
    P = sample_potential(PotentialModel("twopoint", 1.0, 6), (LO, HI + 2))

    CALLS = {
        "quenched_measure": lambda region, pinned, p, support: (
            quenched_measure(region, pinned, p, support=support)
        ),
        "relative_complement": lambda region, pinned, p, support: (
            check_relative_complement_identity(
                region, [v for v, _ in pinned.items()], pinned, p,
                support=support,
            )
        ),
        "shift": lambda region, pinned, p, support: (
            check_shift_identity(region, pinned, p, support=support)
        ),
    }

    @pytest.mark.parametrize("call", CALLS, ids=list(CALLS))
    @pytest.mark.parametrize("pinned", [
        RING.shift(2), RING.shift(2).as_dict(), RING.shift(4),
    ], ids=["shifted", "shifted dict", "shifted by 4"])
    def test_support_of_other_pinned_data_is_refused(self, call, pinned):
        with pytest.raises(ValueError, match="enumerated from other pinned"):
            self.CALLS[call](BOX3, pinned, self.P, self.SUPPORT)

    @pytest.mark.parametrize("call", CALLS, ids=list(CALLS))
    def test_support_on_another_region_is_refused(self, call):
        box34 = make_box((0, 0), (2, 3))
        with pytest.raises(ValueError, match="enumerated on another region"):
            self.CALLS[call](box34, self.RING, self.P, self.SUPPORT)

    @staticmethod
    def outcome(result):
        if isinstance(result, float):
            return result.hex()
        return (result.log_weights.tobytes(), result.log_z.hex(),
                result.support.offsets.tobytes(), result.support.base)

    @pytest.mark.parametrize("call", CALLS, ids=list(CALLS))
    @pytest.mark.parametrize("form", [
        "plain dict", "equal HeightFunction", "equal Region", "support's own",
    ])
    def test_equal_data_in_another_form_is_taken(self, call, form):
        region, pinned = BOX3, self.RING
        if form == "plain dict":
            pinned = self.RING.as_dict()
        elif form == "equal HeightFunction":
            pinned = HeightFunction(self.RING.domain, self.RING.heights)
        elif form == "equal Region":
            region = Region(BOX3.vertex_list)
        else:
            pinned = self.SUPPORT.pinned
        run = self.CALLS[call]
        want = run(BOX3, self.RING, self.P, None)
        got = run(region, pinned, self.P, self.SUPPORT)
        assert self.outcome(got) == self.outcome(want)
        if call == "quenched_measure":
            assert got.support is self.SUPPORT
