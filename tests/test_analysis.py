"""Dominance certificates, two-point comparison, martingale audit, tails.

Independent routes used below:

* the max-flow dominance verdict is cross-checked against exhaustive
  upper-set enumeration (a different algorithm with different failure
  modes), and coupling entries are re-checked for pointwise order;
* the transport flow's value is checked against a linear program
  (scipy's HiGHS) on a few hundred random compatibility matrices, and
  its min-cut side against the cut inequality;
* member probabilities entering the martingale audit are recomputed by
  a plain exp-sum average over the full two-point sign enumeration;
* audit levels are validated through the tower property (children's
  mass-weighted means reproduce the parent mean) rather than by
  re-running the grouping.

Hand oracle for the audit: on the path (0,), (1,), (2,) pinned only at
{(0,): 0} there are four equally likely members under the zero
potential - (0,1,2), (0,1,0), (0,-1,0), (0,-1,-2).  Revealing h(1)
moves the conditional mean of h(2) from 0 to +-1, and revealing h(2)
moves it by at most 1 again, so max_diff = 1 and the level-2 groups
are {(0,1): mean 1, (0,-1): mean -1}.
"""

import math
import subprocess
import sys
from collections import deque

import numpy as np
import pytest
from scipy.optimize import linprog

from randomsurfaces import analysis, gibbs, heights, lattice, sampler
from randomsurfaces.analysis import (
    ExperimentConfig,
    ReportRow,
    azuma_bound,
    boundary_to_interior_walks,
    box_boundary_data,
    concentration_bound,
    concentration_experiment,
    deviation_tail_exact,
    dominance_certificate,
    dominance_sweep,
    dominates_by_upper_sets,
    martingale_audit,
    scaling_check,
    two_point_comparison,
    _max_walk_length,
)
from randomsurfaces.gibbs import (
    annealed_member_probabilities,
    quenched_measure,
    required_window,
)
from randomsurfaces.heights import (
    HeightFunction,
    NoExtensionError,
    enumerate_extensions,
    extremal_boundary,
    kirszbraun_violation,
    min_max_extensions,
    parity_height,
)
from randomsurfaces.lattice import (
    Region,
    boundary,
    distance_map,
    make_box,
    neighbors,
)
from randomsurfaces.potential import (
    Potential,
    PotentialModel,
    enumerate_potentials,
    sample_potential,
)

BOX3 = make_box((0, 0), (2, 2))
BOX4 = make_box((0, 0), (3, 3))
PATH3 = make_box((0,), (2,))
RING3 = parity_height(BOX3).restrict(boundary(BOX3))
SADDLE3 = extremal_boundary(BOX3, 1, 0)


def shared_measures(region, pin_low, pin_high, seed=0, draw=0):
    """Two quenched measures under one potential realization."""
    lo1, hi1 = required_window(region, pin_low)
    lo2, hi2 = required_window(region, pin_high)
    window = (min(lo1, lo2), max(hi1, hi2))
    p = sample_potential(PotentialModel("uniform", 1.0, seed), window, draw)
    return (
        quenched_measure(region, pin_low, p),
        quenched_measure(region, pin_high, p),
    )


def exp_route_annealed_probs(support, model):
    """Independent annealed member probabilities: plain exp sums."""
    region = support.region
    lo, hi = required_window(region, support.pinned)
    ea, eb = region.edge_arrays()
    total = np.zeros(len(support))
    pots = enumerate_potentials(model, (lo, hi))
    for p, w in pots:
        weights = [
            math.exp(sum(p.value(min(m.heights[a], m.heights[b]))
                         for a, b in zip(ea, eb)))
            for m in support.members
        ]
        z = sum(weights)
        total += w * np.asarray([x / z for x in weights])
    return total


class TestDominanceCertificate:
    def test_identical_measures_dominate(self):
        mu, nu = shared_measures(BOX3, RING3, RING3)
        cert = dominance_certificate(mu, nu)
        assert cert.dominated
        assert cert.max_marginal_error <= 1e-12
        assert cert.witness is None

    def test_shifted_pair_dominates_with_ordered_coupling(self):
        mu, nu = shared_measures(BOX3, RING3, RING3.shift(2), seed=1)
        cert = dominance_certificate(mu, nu)
        assert cert.dominated
        assert cert.max_marginal_error <= 1e-9
        total = 0.0
        for i, j, mass in cert.coupling:
            assert mass > 0
            low = mu.support.members[i]
            high = nu.support.members[j]
            assert low.le(high)  # coupling only joins ordered pairs
            total += mass
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_reversed_pair_is_refuted(self):
        nu, mu = shared_measures(BOX3, RING3, RING3.shift(2), seed=2)
        cert = dominance_certificate(mu, nu)  # lower data above upper
        assert not cert.dominated
        assert cert.flow_value < 1.0
        w = cert.witness
        assert w is not None
        assert w["lower_mass"] > w["upper_mass"]

    def test_cross_boundary_pair(self):
        # parity ring <= saddle ring pointwise, different shapes
        mu, nu = shared_measures(BOX3, RING3, SADDLE3, seed=3)
        cert = dominance_certificate(mu, nu)
        assert cert.dominated
        assert cert.max_marginal_error <= 1e-9

    def test_mismatched_regions_rejected(self):
        mu, _ = shared_measures(BOX3, RING3, RING3)
        nu, _ = shared_measures(
            BOX4,
            parity_height(BOX4).restrict(boundary(BOX4)),
            parity_height(BOX4).restrict(boundary(BOX4)),
        )
        with pytest.raises(ValueError):
            dominance_certificate(mu, nu)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_flow_verdict_matches_upper_set_oracle(self, seed):
        cases = [
            (RING3, RING3.shift(2)),
            (RING3, SADDLE3),
            (SADDLE3, RING3),  # unordered data: verdict may be either,
            (RING3.shift(2), RING3),  # but the two routes must agree
        ]
        for pin_a, pin_b in cases:
            mu, nu = shared_measures(BOX3, pin_a, pin_b, seed=seed)
            cert = dominance_certificate(mu, nu)
            verdict, worst = dominates_by_upper_sets(mu, nu)
            assert cert.dominated == verdict
            if not verdict:
                assert worst["gap"] > 0


def random_transport_instance(rng):
    """A random compatibility matrix with masses spread over 12 decades.

    A third of the instances take their masses from a random coupling on
    compatible pairs, so the flow must fill; the rest draw both masses
    freely and are mostly refuted.  Densities include 0 (no compatible
    pair at all).
    """
    p, q = (int(k) for k in rng.integers(1, 13, size=2))
    density = rng.choice([0.0, 0.1, 0.3, 0.6, 1.0])
    compat = rng.random((p, q)) < density

    def masses(size):
        w = rng.random(size) * 10.0 ** -rng.uniform(0, 12, size)
        return w / w.sum()

    if compat.any() and rng.random() < 1 / 3:
        coupling = np.where(compat, masses((p, q)), 0.0)
        coupling /= coupling.sum()
        return compat, coupling.sum(axis=1), coupling.sum(axis=0)
    return compat, masses(p), masses(q)


def lp_max_flow(compat, mu, nu):
    """Max-flow value of the same network as a linear program (HiGHS)."""
    ii, jj = np.nonzero(compat)
    if not ii.size:
        return 0.0
    rows = np.zeros((len(mu) + len(nu), ii.size))
    rows[ii, np.arange(ii.size)] = 1.0
    rows[len(mu) + jj, np.arange(ii.size)] = 1.0
    res = linprog(
        -np.ones(ii.size), A_ub=rows, b_ub=np.concatenate([mu, nu]),
        bounds=(0, None), method="highs",
        options={"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0
    return -res.fun


def parity_ring_pair(n, potential_of):
    """The n x n parity ring and the ring + 2 under one potential."""
    region = make_box((0, 0), (n - 1, n - 1))
    low = box_boundary_data(region, "parity")
    high = low.shift(2)
    (lo1, hi1), (lo2, hi2) = (required_window(region, f) for f in (low, high))
    p = potential_of((min(lo1, lo2), max(hi1, hi2)))
    return quenched_measure(region, low, p), quenched_measure(region, high, p)


class TestTransportFlow:
    def test_matches_linear_program(self):
        rng = np.random.default_rng(19650101)
        kinds = {"filled": 0, "refuted": 0, "no pair": 0}
        for _ in range(300):
            compat, mu, nu = random_transport_instance(rng)
            value, flow, side_a, side_b = analysis._transport_flow(compat, mu, nu)
            assert value == pytest.approx(lp_max_flow(compat, mu, nu), abs=1e-9)
            assert (flow >= 0.0).all() and not flow[~compat].any()
            assert (flow.sum(axis=1) <= mu + 1e-12).all()
            assert (flow.sum(axis=0) <= nu + 1e-12).all()
            if value >= 1.0 - analysis._FLOW_TOL:
                kinds["filled"] += 1
                assert np.abs(flow.sum(axis=1) - mu).max() <= 1e-9
                assert np.abs(flow.sum(axis=0) - nu).max() <= 1e-9
                continue
            kinds["refuted" if compat.any() else "no pair"] += 1
            # the cut is closed: reached lowers reach only reached uppers
            assert not compat[side_a][:, ~side_b].any()
            lower_mass, upper_mass = mu[side_a].sum(), nu[side_b].sum()
            assert lower_mass - upper_mass >= 1.0 - value - 1e-12
        assert min(kinds.values()) >= 30, kinds

    def test_crash_input_of_the_5x5_parity_ring_certifies(self):
        # a float preflow-push raised "min() arg is an empty sequence" on
        # this input for some string-hash seeds
        def potential(window):
            lo, hi = window
            rng = np.random.default_rng([2111, 2, 3])
            return Potential(lo, hi, rng.choice([-1.0, 1.0], size=hi - lo + 1))

        mu, nu = parity_ring_pair(5, potential)
        cert = dominance_certificate(mu, nu)
        assert cert.dominated
        assert cert.max_marginal_error <= 1e-9

    def test_6x6_parity_ring_certifies(self):
        model = PotentialModel("twopoint", 1.0, 0)
        mu, nu = parity_ring_pair(
            6, lambda window: sample_potential(model, window, draw=3)
        )
        assert len(mu) == len(nu) == 1322
        cert = dominance_certificate(mu, nu)
        assert cert.dominated
        assert cert.max_marginal_error <= 1e-9

    def test_certificate_needs_no_networkx(self):
        code = (
            "import sys\n"
            "sys.modules['networkx'] = None\n"
            "from randomsurfaces import analysis, lattice, potential\n"
            "box = lattice.make_box((0, 0), (2, 2))\n"
            "low = analysis.box_boundary_data(box, 'parity')\n"
            "pair = [(low, low.shift(2))]\n"
            "model = potential.PotentialModel('uniform', 1.0, 0)\n"
            "sweep = analysis.dominance_sweep(box, pair, model, draws=3)\n"
            "assert sweep.failures == () and sweep.checks == 3\n"
            "print(sweep.max_marginal_error)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) <= 1e-9


class TestDominanceSweep:
    def test_small_sweep_passes(self):
        pairs = [(RING3, RING3.shift(2)), (RING3, RING3.shift(4))]
        sweep = dominance_sweep(
            BOX3, pairs, PotentialModel("uniform", 1.0, 5), draws=5
        )
        assert sweep.checks == 10
        assert sweep.failures == ()
        assert sweep.max_marginal_error <= 1e-9

    def test_unordered_pair_rejected(self):
        with pytest.raises(ValueError):
            dominance_sweep(
                BOX3, [(RING3.shift(2), RING3)],
                PotentialModel("uniform", 1.0), draws=1,
            )

    def test_mismatched_pinned_sets_rejected(self):
        with pytest.raises(ValueError):
            dominance_sweep(
                BOX3, [(RING3, RING3.shift(2).restrict([(0, 0)]))],
                PotentialModel("uniform", 1.0), draws=1,
            )

    @pytest.mark.parametrize("draws", [0, 1])
    def test_infeasible_data_raises_before_any_draw(self, draws):
        gap = {(0, 1): 1, (2, 1): 5}  # gap 4 across distance 2
        pairs = [(RING3, RING3.shift(2)), (gap, {(0, 1): 3, (2, 1): 7})]
        with pytest.raises(NoExtensionError) as err:
            dominance_sweep(BOX3, pairs, PotentialModel("uniform", 1.0), draws)
        e = err.value
        assert (e.x, e.y, e.gap, e.distance) == ((0, 1), (2, 1), 4, 2)


def count_boundary_reads(monkeypatch):
    """Count pinned-data validations and distance passes, through every
    module that calls them."""
    calls = {"pinned_map": 0, "distances": 0}
    pinned_map, distances = heights._pinned_map, lattice._distances

    def counting_map(region, pinned):
        calls["pinned_map"] += 1
        return pinned_map(region, pinned)

    def counting_distances(region, at, zs):
        calls["distances"] += 1
        return distances(region, at, zs)

    monkeypatch.setattr(heights, "_pinned_map", counting_map)
    for mod in (analysis, heights, lattice):
        monkeypatch.setattr(mod, "_distances", counting_distances)
    return calls


class TestBoundaryReadOnce:
    """Exact consumers read the pinned positions, the potential window
    and the infeasibility witness from the triple each ExtensionSet keeps,
    and validate no pinned data a second time."""

    def test_annealing_an_enumerated_set(self, monkeypatch):
        calls = count_boundary_reads(monkeypatch)
        support = enumerate_extensions(BOX3, RING3)
        annealed_member_probabilities(support, PotentialModel("twopoint", 1.0, 1))
        assert calls == {"pinned_map": 1, "distances": 2}

    def test_dominance_sweep(self, monkeypatch):
        calls = count_boundary_reads(monkeypatch)
        pairs = [(RING3, RING3.shift(2)), (RING3, RING3.shift(4)),
                 (RING3.shift(-2), RING3)]
        sweep = dominance_sweep(
            BOX3, pairs, PotentialModel("uniform", 1.0, 5), draws=2
        )
        assert sweep.checks == 6
        assert calls["pinned_map"] == 2 * len(pairs)


class TestTwoPointComparison:
    def test_path_means_are_zero_and_two(self):
        model = PotentialModel("twopoint", 1.0)
        lhs, rhs = two_point_comparison(
            PATH3, {(0,): 0, (2,): 0}, {(0,): 2, (2,): 2}, (1,), model
        )
        assert lhs.value == pytest.approx(0.0, abs=1e-15)
        assert rhs.value == pytest.approx(2.0, abs=1e-15)
        assert lhs.value <= rhs.value + 2

    def test_raised_lhs_hits_equality(self):
        # lhs data = rhs data + 2, so the means differ by exactly 2
        model = PotentialModel("twopoint", 0.7)
        lhs, rhs = two_point_comparison(
            PATH3, {(0,): 2, (2,): 2}, {(0,): 0, (2,): 0}, (1,), model
        )
        assert lhs.value == pytest.approx(rhs.value + 2, rel=1e-14)

    def test_cross_data_on_the_box(self):
        model = PotentialModel("twopoint", 1.0)
        lhs, rhs = two_point_comparison(
            BOX3, SADDLE3, RING3, (1, 1), model
        )  # saddle <= parity + 2 pointwise
        assert lhs.value <= rhs.value + 2 + 1e-12

    def test_premise_violation_rejected(self):
        model = PotentialModel("twopoint", 1.0)
        with pytest.raises(ValueError):
            two_point_comparison(
                PATH3, {(0,): 4, (2,): 4}, {(0,): 0, (2,): 0}, (1,), model
            )

    def test_mc_mode_brackets_exact(self):
        model = PotentialModel("twopoint", 1.0, 9)
        exact_l, exact_r = two_point_comparison(
            BOX3, RING3, RING3.shift(2), (1, 1), model
        )
        mc_l, mc_r = two_point_comparison(
            BOX3, RING3, RING3.shift(2), (1, 1), model,
            mode="mc", samples=2000,
        )
        assert abs(mc_l.value - exact_l.value) <= 4 * mc_l.stderr
        assert abs(mc_r.value - exact_r.value) <= 4 * mc_r.stderr


class TestMartingaleAudit:
    def test_hand_oracle_on_the_path(self):
        pin = {(0,): 0}
        audit = martingale_audit(
            PATH3, pin, [(0,), (1,), (2,)], PotentialModel("zero")
        )
        assert audit.target_mean == pytest.approx(0.0, abs=1e-15)
        assert audit.max_diff == pytest.approx(1.0, abs=1e-15)
        level2 = audit.levels[2]
        assert level2[(0, 1)][0] == pytest.approx(0.5, abs=1e-15)
        assert level2[(0, 1)][1] == pytest.approx(1.0, abs=1e-15)
        assert level2[(0, -1)][1] == pytest.approx(-1.0, abs=1e-15)

    def test_probabilities_match_exp_route(self):
        support = enumerate_extensions(BOX3, RING3)
        model = PotentialModel("twopoint", 1.0)
        lib = annealed_member_probabilities(support, model)
        ref = exp_route_annealed_probs(support, model)
        np.testing.assert_allclose(lib, ref, rtol=1e-12)

    def test_tower_property_and_mass_conservation(self):
        model = PotentialModel("twopoint", 1.0)
        walk = [(0, 1), (1, 1)]
        audit = martingale_audit(BOX3, RING3, walk, model)
        for k, level in enumerate(audit.levels):
            mass = sum(m for m, _ in level.values())
            assert mass == pytest.approx(1.0, rel=1e-12)
            if k == 0:
                continue
            parents = audit.levels[k - 1]
            for key, (m, mean) in parents.items():
                wsum = sum(
                    cm * cmean
                    for ckey, (cm, cmean) in level.items()
                    if ckey[: k - 1] == key
                )
                assert wsum == pytest.approx(m * mean, rel=1e-12)

    def test_max_diff_at_most_two_on_all_3x3_walks(self):
        model = PotentialModel("twopoint", 1.0)
        support = enumerate_extensions(BOX3, RING3)
        walks = boundary_to_interior_walks(BOX3, RING3.domain, [(1, 1)])
        assert len(walks) == 8
        for walk in walks:
            audit = martingale_audit(BOX3, RING3, walk, model,
                                     support=support)
            assert audit.max_diff <= 2.0

    def test_walk_must_start_pinned(self):
        with pytest.raises(ValueError):
            martingale_audit(
                BOX3, RING3, [(1, 1), (0, 1)], PotentialModel("zero")
            )

    def test_walk_steps_must_be_edges(self):
        with pytest.raises(ValueError):
            martingale_audit(
                BOX3, RING3, [(0, 0), (1, 1)], PotentialModel("zero")
            )

    def test_empty_walk_rejected(self):
        with pytest.raises(ValueError):
            martingale_audit(BOX3, RING3, [], PotentialModel("zero"))

    def test_walk_leaving_the_region_rejected_before_any_work(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("enumerated before checking the walk")

        # the audit enumerates through the heights resolver
        for mod in (analysis, heights):
            monkeypatch.setattr(mod, "enumerate_extensions", no_work)
        monkeypatch.setattr(analysis, "annealed_member_probabilities", no_work)
        with pytest.raises(ValueError, match=r"\(-1, 0\) lies outside"):
            martingale_audit(
                BOX3, RING3, [(0, 0), (-1, 0)], PotentialModel("zero")
            )


def tuple_grouping_audit(support, probs, walk):
    """The audit's former grouping: one Python tuple per member per level.

    Returns (target mean, levels, max_diff) as the per-member dict code
    computed them, for a regression check of the numpy grouping.
    """
    region = support.region
    vals = support.members_array[:, [region.position(v) for v in walk]]
    target = support.members_array[:, region.position(walk[-1])].astype(float)
    levels = []
    for k in range(len(walk) + 1):
        keys = [tuple(int(z) for z in row[:k]) for row in vals]
        acc = {}
        for key, pr, tv in zip(keys, probs, target):
            mass_sum = acc.setdefault(key, [0.0, 0.0])
            mass_sum[0] += pr
            mass_sum[1] += pr * tv
        levels.append({key: (m, w / m) for key, (m, w) in acc.items()})
    max_diff = 0.0
    for k in range(len(walk)):
        for key, (_, child_mean) in levels[k + 1].items():
            parent_mean = levels[k][key[:k]][1]
            max_diff = max(max_diff, abs(child_mean - parent_mean))
    return levels[0][()][1], tuple(levels), max_diff


class TestAuditMatchesTupleGrouping:
    """The numpy prefix grouping gives the tuple grouping's floats, in its
    key order, on every walk of the 5x5 ring and a walk set of the 6x6."""

    @pytest.mark.parametrize("mode,samples", [("exact", 0), ("mc", 30)])
    @pytest.mark.parametrize("n,stride", [(5, 1), (6, 13)])
    def test_levels_bit_identical_in_key_order(self, n, stride, mode, samples):
        box = make_box((0, 0), (n - 1, n - 1))
        ring = parity_height(box).restrict(boundary(box))
        support = enumerate_extensions(box, ring)
        model = PotentialModel("twopoint", 0.8, 1)
        probs = annealed_member_probabilities(
            support, model, mode=mode, samples=samples
        )
        interior = sorted(set(box.vertex_list) - set(ring.domain))
        walks = boundary_to_interior_walks(box, ring.domain, interior)
        walks = walks[::stride]
        assert len(walks) in (144, 25)
        for walk in walks:
            audit = martingale_audit(
                box, ring, walk, model, mode=mode, samples=samples,
                support=support,
            )
            mean, levels, max_diff = tuple_grouping_audit(support, probs, walk)
            assert audit.levels == levels
            assert [list(g) for g in audit.levels] == [list(g) for g in levels]
            assert audit.target_mean == mean
            assert audit.max_diff == max_diff


BOX444 = make_box((0, 0, 0), (3, 3, 3))

# (region, pinned data, walk): a walk that never leaves its pinned start,
# one that steps back and forth over one edge, a 1D path, and a wandering
# walk through a 3D box with its boundary pinned
AUDIT_WALK_SHAPES = {
    "single vertex": (BOX3, RING3, [(0, 1)]),
    "back and forth": (
        BOX4,
        parity_height(BOX4).restrict(boundary(BOX4)),
        [(0, 1), (1, 1), (1, 2), (1, 1), (1, 2), (1, 1), (2, 1)],
    ),
    "1D path": (
        make_box((0,), (8,)),
        {(0,): 0, (8,): 2},
        [(i,) for i in range(9)],
    ),
    "3D box": (
        BOX444,
        parity_height(BOX444).restrict(boundary(BOX444)),
        [(0, 1, 1), (1, 1, 1), (1, 2, 1), (2, 2, 1), (2, 2, 2), (2, 1, 2),
         (1, 1, 2), (1, 1, 1)],
    ),
}


class TestAuditWalkShapes:
    """The prefix grouping gives the tuple grouping's floats, in its key
    order, on walks of other shapes than the 2D rings' shortest walks."""

    @pytest.mark.parametrize("mode,samples", [("exact", 0), ("mc", 30)])
    @pytest.mark.parametrize("shape", sorted(AUDIT_WALK_SHAPES))
    def test_levels_bit_identical_in_key_order(self, shape, mode, samples):
        region, pinned, walk = AUDIT_WALK_SHAPES[shape]
        support = enumerate_extensions(region, pinned)
        assert len(support) > 1
        model = PotentialModel("twopoint", 0.8, 1)
        probs = annealed_member_probabilities(
            support, model, mode=mode, samples=samples
        )
        audit = martingale_audit(
            region, pinned, walk, model, mode=mode, samples=samples,
            support=support,
        )
        mean, levels, max_diff = tuple_grouping_audit(support, probs, walk)
        assert len(audit.levels) == len(walk) + 1
        assert audit.levels == levels
        assert [list(g) for g in audit.levels] == [list(g) for g in levels]
        assert audit.target_mean == mean
        assert audit.max_diff == max_diff


class TestAuditReadsTheSupport:
    """With a support, the audit takes its pinned data from the support."""

    @staticmethod
    def count_from_dict(monkeypatch):
        calls = []
        build = HeightFunction.from_dict.__func__

        def counting(cls, values):
            calls.append(values)
            return build(cls, values)

        monkeypatch.setattr(HeightFunction, "from_dict", classmethod(counting))
        return calls

    def test_plain_dict_equal_to_the_support_data_is_not_rebuilt(
        self, monkeypatch
    ):
        support = enumerate_extensions(BOX4, parity_height(BOX4).restrict(
            boundary(BOX4)
        ))
        model = PotentialModel("twopoint", 1.0, 2)
        walk = [(0, 1), (1, 1), (1, 2), (2, 2)]
        want = martingale_audit(BOX4, support.pinned, walk, model,
                                support=support)
        calls = self.count_from_dict(monkeypatch)
        pinned = support.pinned.as_dict()
        audit = martingale_audit(BOX4, pinned, walk, model, support=support)
        assert calls == []
        assert audit == want

    @pytest.mark.parametrize("vertex,value,message", [
        ((0, 1), 1.0, r"height at vertex \(0, 1\) must be an integer, got 1\.0"),
        ((0, 1.0), 1, r"vertex must be a nonempty tuple of ints, got \(0, 1\.0\)"),
    ])
    def test_data_that_from_dict_refuses_keeps_its_message(
        self, monkeypatch, vertex, value, message
    ):
        support = enumerate_extensions(BOX3, RING3)
        calls = self.count_from_dict(monkeypatch)
        pinned = RING3.as_dict()
        del pinned[(0, 1)]
        pinned[vertex] = value
        with pytest.raises(ValueError, match=message):
            martingale_audit(BOX3, pinned, [(0, 1), (1, 1)],
                             PotentialModel("zero"), support=support)
        assert len(calls) == 1

    def test_data_that_from_dict_accepts_is_compared_after_it(self):
        support = enumerate_extensions(BOX3, RING3)
        model = PotentialModel("twopoint", 1.0)
        walk = [(0, 1), (1, 1)]
        want = martingale_audit(BOX3, RING3, walk, model, support=support)
        numpy_values = {v: np.int64(z) for v, z in RING3.items()}
        numpy_keys = {tuple(map(np.int64, v)): z for v, z in RING3.items()}
        for pinned in (numpy_values, numpy_keys):
            audit = martingale_audit(BOX3, pinned, walk, model,
                                     support=support)
            assert audit == want

    @pytest.mark.parametrize("pinned", [
        RING3.shift(2),
        RING3.shift(2).as_dict(),
        RING3.restrict([(0, 0), (0, 1), (0, 2)]),
        {**RING3.as_dict(), (1, 1): 0},
    ], ids=["shifted", "shifted dict", "fewer vertices", "more vertices"])
    def test_support_of_other_pinned_data_is_refused(self, pinned):
        # the support's level 1 would read h(0, 1) = 1 off its members
        support = enumerate_extensions(BOX3, RING3)
        with pytest.raises(ValueError, match="enumerated from other pinned"):
            martingale_audit(BOX3, pinned, [(0, 1), (1, 1)],
                             PotentialModel("twopoint", 1.0), support=support)

    def test_support_on_another_region_is_refused(self):
        support = enumerate_extensions(BOX3, RING3)
        with pytest.raises(ValueError, match="enumerated on another region"):
            martingale_audit(make_box((0, 0), (2, 3)), RING3, [(0, 1), (1, 1)],
                             PotentialModel("zero"), support=support)


class TestWalks:
    def test_3x3_walks(self):
        walks = boundary_to_interior_walks(BOX3, RING3.domain, [(1, 1)])
        assert len(walks) == 8  # one start per ring vertex
        for walk in walks:
            assert walk[0] in RING3.domain
            assert walk[-1] == (1, 1)
            for a, b in zip(walk, walk[1:]):
                assert sum(abs(x - y) for x, y in zip(a, b)) == 1

    def test_4x4_walks(self):
        ring = parity_height(BOX4).restrict(boundary(BOX4))
        interior = sorted(set(BOX4.vertex_list) - set(ring.domain))
        walks = boundary_to_interior_walks(BOX4, ring.domain, interior)
        assert len(walks) == 48  # 12 ring starts x 4 interior targets

    def test_walks_are_shortest(self):
        from randomsurfaces.lattice import graph_distance

        walks = boundary_to_interior_walks(BOX3, RING3.domain, [(1, 1)])
        for walk in walks:
            assert len(walk) == graph_distance(BOX3, walk[0], walk[-1]) + 1

    def test_walks_match_the_deque_search(self, metric_instances):
        for region, pins, _ in metric_instances:
            for starts in (boundary(region), pins):
                got = boundary_to_interior_walks(region, starts, region)
                assert got == deque_search_walks(region, starts, region)
        for n in range(3, 9):
            box = make_box((0, 0), (n - 1, n - 1))
            ring = boundary(box)
            interior = sorted(set(box.vertex_list) - ring)
            got = boundary_to_interior_walks(box, ring, interior)
            assert got == deque_search_walks(box, ring, interior)

    def test_walks_are_shortest_on_random_regions(self, metric_instances):
        for region, pins, dist in metric_instances:
            walks = boundary_to_interior_walks(region, pins, region)
            assert len(walks) == len(pins) * (len(region) - 1)
            for walk in walks:
                i, j = region.position(walk[0]), region.position(walk[-1])
                assert len(walk) == dist[i, j] + 1
                for a, b in zip(walk, walk[1:]):
                    assert b in neighbors(region, a)

    @pytest.mark.parametrize(
        "starts,targets,named",
        [
            ([(0, 0)], [(5, 5), (1, 1)], r"\(5, 5\)"),
            ([(9, 9), (0, 0)], [(1, 1)], r"\(9, 9\)"),
        ],
    )
    def test_vertices_outside_the_region_rejected(self, starts, targets, named):
        with pytest.raises(ValueError, match=named + " lies outside the region"):
            boundary_to_interior_walks(BOX3, starts, targets)


def deque_search_walks(region, pinned_domain, targets):
    """The walks as made before the shared search: one deque BFS over vertex
    tuples with a parent dict per start, kept as a reference."""
    starts = sorted({tuple(v) for v in pinned_domain})
    tgts = sorted({tuple(v) for v in targets})
    walks = []
    for x0 in starts:
        parent = {x0: None}
        queue = deque([x0])
        while queue:
            cur = queue.popleft()
            for j in region.neighbor_positions(region.position(cur)):
                w = region.vertex_list[j]
                if w not in parent:
                    parent[w] = cur
                    queue.append(w)
        for t in tgts:
            if t == x0 or t not in parent:
                continue
            pathway = [t]
            while pathway[-1] != x0:
                pathway.append(parent[pathway[-1]])
            walks.append(list(reversed(pathway)))
    return walks


def per_ring_walk_length(region):
    """max over v of (min over ring vertices b of d_R(b, v)) + 1."""
    maps = [distance_map(region, b) for b in boundary(region)]
    return max(min(m[v] for m in maps) for v in region.vertex_list) + 1


class TestMaxWalkLength:
    def test_boxes_have_the_closed_form(self):
        for n in (1, 2, 3, 4, 7, 10):
            box = make_box((0, 0), (n - 1, n - 1))
            assert _max_walk_length(box) == (n - 1) // 2 + 1

    def test_l_shape(self):
        ell = Region(
            (i, j) for i in range(8) for j in range(8) if i < 3 or j < 3
        )
        assert _max_walk_length(ell) == per_ring_walk_length(ell)

    def test_ring_with_a_hole(self):
        for side, hole in ((7, range(3, 4)), (11, range(4, 7))):
            ring = Region(
                (i, j) for i in range(side) for j in range(side)
                if not (i in hole and j in hole)
            )
            assert _max_walk_length(ring) == per_ring_walk_length(ring)

    def test_random_regions(self, metric_instances):
        # the oracle is the Floyd-Warshall matrix, not a breadth-first search
        for region, _, dist in metric_instances:
            ring = [region.position(b) for b in boundary(region)]
            want = int(dist[ring].min(axis=0).max()) + 1
            assert _max_walk_length(region) == want


class TestMetricLayerCost:
    """The metric layer needs no single-source BFS per pinned vertex."""

    def test_bfs_calls_on_the_100_box(self, monkeypatch):
        calls = []

        def counting(region, source):
            calls.append(source)
            return distance_map(region, source)

        for mod in (lattice, heights, analysis):
            if hasattr(mod, "distance_map"):
                monkeypatch.setattr(mod, "distance_map", counting)
        box = make_box((0, 0), (99, 99))
        ring = extremal_boundary(box, 1, 0)
        assert kirszbraun_violation(box, ring) is None
        assert _max_walk_length(box) == 50
        assert calls == []

        _, high = min_max_extensions(box, ring)
        bad = ring.as_dict()
        bad[(50, 37)] = high[(50, 37)] + 2
        x, y, gap, dist = kirszbraun_violation(box, bad)
        assert len(calls) <= 1
        assert (50, 37) in (x, y)
        assert gap == abs(bad[x] - bad[y])
        assert dist == abs(x[0] - y[0]) + abs(x[1] - y[1]) < gap

    def test_no_search_and_no_neighbour_tuples_on_the_100_box(self, monkeypatch):
        # the box's distances come from the l1 closed form: neither the
        # breadth-first search nor the neighbour tuples it reads are made
        made = []
        bfs = lattice._bfs
        view = lattice.Region.__dict__["_neighbor_positions"]
        tuples = view.func

        def counting_bfs(nbrs, sources):
            made.append("bfs")
            return bfs(nbrs, sources)

        def counting_tuples(region):
            made.append("tuples")
            return tuples(region)

        monkeypatch.setattr(lattice, "_bfs", counting_bfs)
        monkeypatch.setattr(view, "func", counting_tuples)
        box = make_box((0, 0), (99, 99))
        ring = extremal_boundary(box, 1, 0)
        low, high = min_max_extensions(box, ring)
        assert low.le(high)
        assert kirszbraun_violation(box, ring) is None
        bad = ring.as_dict()
        bad[(50, 37)] = high[(50, 37)] + 2
        x, y, gap, dist = kirszbraun_violation(box, bad)
        assert (50, 37) in (x, y) and dist < gap
        assert _max_walk_length(box) == 50
        assert made == [] and "_neighbor_positions" not in box.__dict__
        # a first read of the tuples builds them, once
        assert box.neighbor_positions(0) == (1, 100)
        assert box.neighbor_positions(101) == (1, 100, 102, 201)
        assert made == ["tuples"]

    def test_no_tuple_view_on_the_100_box(self):
        # size, the box test, the diameter, the walk length, equality,
        # hashing and the boundary ring all read the arrays alone
        box = make_box((0, 0), (99, 99))
        assert len(box) == 10_000 and box.is_box()
        assert box.l1_diameter() == 198
        assert _max_walk_length(box) == 50
        twin = make_box((0, 0), (99, 99))
        assert box == twin and hash(box) == hash(twin)
        assert box != make_box((0, 0), (99, 98))
        assert len(lattice.boundary(box)) == 396
        views = {
            "vertex_list", "_position", "vertex_set", "_neighbor_positions",
            "edge_positions",
        }
        assert views.isdisjoint(box.__dict__)
        assert set(box.__dict__) == {
            "dimension", "_coords", "_neighbors", "_degree", "_edge_ends", "_bounds"
        }


class TestTailBounds:
    def test_azuma_bound_values(self):
        assert azuma_bound(4, 1.0) == pytest.approx(2 * math.exp(-2.0))
        assert azuma_bound(1, 2.0) == pytest.approx(2 * math.exp(-2.0))

    def test_azuma_bound_rejects_bad_input(self):
        with pytest.raises(ValueError):
            azuma_bound(0, 1.0)
        with pytest.raises(ValueError):
            azuma_bound(3, 0.0)

    def test_concentration_bound_values(self):
        assert concentration_bound(81, 9, 1.0, 2.0) == pytest.approx(
            162 * math.exp(-4.5)
        )

    def test_concentration_bound_rejects_bad_input(self):
        with pytest.raises(ValueError):
            concentration_bound(0, 9, 1.0, 2.0)
        with pytest.raises(ValueError):
            concentration_bound(81, 9, 1.0, -1.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_bounds_reject_a_c_or_A_not_finite_and_positive(self, bad):
        # a nan bound is never below 1, so a caller would judge no row
        with pytest.raises(ValueError, match="c must be finite and > 0"):
            azuma_bound(3, bad)
        with pytest.raises(ValueError, match="c must be finite and > 0"):
            concentration_bound(9, 3, bad, 2.0)
        with pytest.raises(ValueError, match="A must be finite and > 0"):
            concentration_bound(9, 3, 1.0, bad)

    def test_bounds_decrease_in_c(self):
        cs = [0.25, 0.5, 1.0, 2.0, 4.0]
        azuma = [azuma_bound(5, c) for c in cs]
        conc = [concentration_bound(81, 9, c, 2.0) for c in cs]
        assert azuma == sorted(azuma, reverse=True)
        assert conc == sorted(conc, reverse=True)

    def test_deviation_tail_by_hand(self):
        support = enumerate_extensions(PATH3, {(0,): 0, (2,): 0})
        probs = np.array([0.5, 0.5])  # center -1 / +1, mean 0
        assert deviation_tail_exact(support, probs, (1,), 1.0) == 1.0
        assert deviation_tail_exact(support, probs, (1,), 1.5) == 0.0

    def test_deviation_tail_skewed(self):
        support = enumerate_extensions(PATH3, {(0,): 0, (2,): 0})
        probs = np.array([0.25, 0.75])  # mean 0.5; devs 1.5 and 0.5
        assert deviation_tail_exact(support, probs, (1,), 1.0) == 0.25
        assert deviation_tail_exact(support, probs, (1,), 0.5) == 1.0

    def test_deviation_tail_refuses_bad_input(self):
        support = enumerate_extensions(PATH3, {(0,): 0, (2,): 0})
        probs = np.array([0.5, 0.5])
        with pytest.raises(ValueError, match="threshold must not be nan"):
            deviation_tail_exact(support, probs, (1,), math.nan)
        for bad in (probs[:1], np.ones(3) / 3, probs[None, :]):
            with pytest.raises(ValueError, match=r"probs must hold one "
                               r"probability per member \(2\)"):
                deviation_tail_exact(support, bad, (1,), 1.0)
        for v in ((5,), (1, 1)):
            with pytest.raises(ValueError, match=r"v = .* lies outside"):
                deviation_tail_exact(support, probs, v, 1.0)
        for bad in ([1.0, math.nan], np.array([[0.5], [math.nan]])):
            with pytest.raises(ValueError, match="threshold must not be nan"):
                deviation_tail_exact(support, probs, (1,), bad)

    def test_deviation_tail_takes_every_threshold_at_once(self):
        ring = parity_height(BOX4).restrict(boundary(BOX4))
        support = enumerate_extensions(BOX4, ring)
        probs = annealed_member_probabilities(
            support, PotentialModel("twopoint", 1.0, 3)
        )
        thresholds = [3 * c for c in (0.0, 0.25, 0.5, 1.0, 1.5, 3.0)]
        one_by_one = [
            deviation_tail_exact(support, probs, (1, 2), t) for t in thresholds
        ]
        assert all(type(t) is float for t in one_by_one)
        assert len(set(one_by_one)) > 2  # the thresholds cut the support
        at_once = deviation_tail_exact(support, probs, (1, 2), thresholds)
        assert isinstance(at_once, np.ndarray) and at_once.shape == (6,)
        assert list(map(float.hex, at_once.tolist())) == list(
            map(float.hex, one_by_one)
        )
        grid = deviation_tail_exact(
            support, probs, (1, 2), np.reshape(thresholds, (2, 3))
        )
        assert np.array_equal(grid, np.reshape(one_by_one, (2, 3)))
        assert deviation_tail_exact(support, probs, (1, 2), []).shape == (0,)


class TestBoundaryDataAndConfig:
    def test_parity_boundary(self):
        f = box_boundary_data(BOX3, "parity")
        assert f == RING3

    def test_extremal_boundary_matches_saddle(self):
        f = box_boundary_data(BOX3, "extremal")
        assert f == SADDLE3
        down = box_boundary_data(BOX3, "extremal", direction=-1)
        assert down.heights == tuple(-z for z in SADDLE3.heights)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            box_boundary_data(BOX3, "steep")

    def test_experiment_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.ns == (9, 15, 25)
        assert cfg.c_values == (0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)
        assert cfg.model == PotentialModel("twopoint", 1.0, 0)
        assert cfg.boundary == "extremal"
        assert cfg.A == 2.0
        assert cfg.mode == "mc"
        assert cfg.tail_samples == 400
        assert cfg.mean_draws == 200
        assert cfg.start == "mid"

    @pytest.mark.parametrize(
        "key,value",
        [
            ("tail_samples", 0),
            ("mean_draws", 0),
            ("mean_samples_per_draw", 0),
            ("mean_samples_per_draw", -2),
            ("burn_factor", -0.5),
            ("thin_factor", -0.125),
            ("thin_factor", float("nan")),
            ("burn_factor", float("inf")),
            ("A", float("nan")),
            ("A", float("inf")),
            ("A", 0.0),
            ("c_values", (float("nan"),)),
            ("c_values", (1.0, float("inf"))),
            ("c_values", (-0.5,)),
            ("start", "high"),
            ("boundary", "steep"),
            ("direction", 2),
            ("direction", 0),
            ("mode", "sampled"),
        ],
    )
    def test_experiment_rejects_bad_counts(self, key, value):
        with pytest.raises(ValueError, match=key):
            ExperimentConfig(**{key: value})

    @pytest.mark.parametrize(
        "key,value",
        [
            ("seeds", 0),
            ("mean_draws", 0),
            ("mean_samples_per_draw", 0),
            ("burn_factor", float("nan")),
            ("thin_factor", -0.02),
            ("thin_factor", float("inf")),
        ],
    )
    def test_scaling_check_rejects_bad_knobs(self, key, value, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before validating")

        monkeypatch.setattr(analysis, "_mean_field", no_sampling)
        with pytest.raises(ValueError, match=key):
            scaling_check(
                PotentialModel("twopoint", 1.0, 0), n_small=5, n_large=9,
                **{"seeds": 4, "mean_draws": 3, key: value},
            )

    @pytest.mark.parametrize(
        "key,value",
        [("mode", "weird"), ("mode", ""), ("ns", ()), ("c_values", ())],
    )
    def test_experiment_rejects_bad_mode_and_empty_lists(self, key, value):
        with pytest.raises(ValueError, match=key):
            ExperimentConfig(**{key: value})

    def test_experiment_accepts_both_modes(self):
        assert ExperimentConfig(mode="exact").mode == "exact"
        assert ExperimentConfig(mode="mc").mode == "mc"

    def test_experiment_accepts_smallest_counts(self):
        cfg = ExperimentConfig(
            tail_samples=1, mean_draws=1, mean_samples_per_draw=1,
            burn_factor=0.0, thin_factor=0.0,
        )
        assert cfg.tail_samples == 1 and cfg.thin_factor == 0.0

    def test_report_row_slack(self):
        assert ReportRow(3, 1.0, 0, 0.0, 0.5, 0.0).slack() == 0.0
        # zero-count floor: 3 * sqrt((1/400)/400) = 3/400
        assert ReportRow(3, 1.0, 400, 0.0, 0.5, 0.0).slack() == pytest.approx(
            0.0075
        )
        assert ReportRow(3, 1.0, 400, 0.5, 0.5, 0.0).slack() == pytest.approx(
            3 * math.sqrt(0.25 / 400)
        )


def count_envelopes(monkeypatch):
    """Count calls of the private envelope function through every module
    that uses it."""
    calls = []
    envelopes = heights._pinned_envelopes

    def counting(region, pinned):
        calls.append(len(region))
        return envelopes(region, pinned)

    for mod in (analysis, gibbs, heights, sampler):
        if hasattr(mod, "_pinned_envelopes"):
            monkeypatch.setattr(mod, "_pinned_envelopes", counting)
    return calls


class TestEnvelopesOncePerSize:
    """The sampled experiments share one envelope pair per box with
    their engine."""

    def test_concentration_experiment(self, monkeypatch):
        calls = count_envelopes(monkeypatch)
        cfg = ExperimentConfig(
            ns=(3, 5), c_values=(1.0,), model=PotentialModel("twopoint", 1.0, 2),
            tail_samples=4, mean_draws=2, mean_samples_per_draw=2,
            burn_factor=0.1, thin_factor=0.1,
        )
        report = concentration_experiment(cfg)
        assert calls == [9, 25]
        monkeypatch.undo()
        assert concentration_experiment(cfg) == report

    def test_scaling_check(self, monkeypatch):
        calls = count_envelopes(monkeypatch)
        scaling_check(
            PotentialModel("twopoint", 1.0), n_small=3, n_large=5, seeds=3,
            mean_draws=2, mean_samples_per_draw=2, burn_factor=0.1,
        )
        assert calls == [9, 25]


class TestEnvelopesStayArrays:
    """On a large box the engine, the Monte Carlo deviations and the
    ``surface`` command build no HeightFunction over the whole region:
    the envelopes reach the engine as int64 arrays."""

    def test_no_whole_region_height_function(self, tmp_path, monkeypatch):
        from randomsurfaces.cli import main

        region = make_box((0, 0), (99, 99))
        pinned = box_boundary_data(region, "extremal", 1)
        sizes = []
        trusted = HeightFunction._trusted.__func__
        init = HeightFunction.__init__

        def counting_trusted(cls, domain, values):
            sizes.append(len(domain))
            return trusted(cls, domain, values)

        def counting_init(self, domain, values):
            sizes.append(len(domain))
            init(self, domain, values)

        monkeypatch.setattr(
            HeightFunction, "_trusted", classmethod(counting_trusted)
        )
        monkeypatch.setattr(HeightFunction, "__init__", counting_init)
        p = sample_potential(PotentialModel("twopoint", 1.0, 0), (-1, 99))
        sampler.BoxGlauber(region, pinned, [p], np.random.default_rng(0))
        # the Monte Carlo rows run _sampled_deviations
        concentration_experiment(ExperimentConfig(
            ns=(100,), c_values=(1.0,), tail_samples=2, mean_draws=2,
            mean_samples_per_draw=1, burn_factor=0.0, thin_factor=0.0,
        ))
        assert main([
            "surface", "--n", "100", "--sweeps", "1",
            "--out", str(tmp_path / "s.grid"),
        ]) == 0
        assert sizes and len(region) not in sizes


def two_engine_deviations(region, pinned, envelopes, config, seed_key):
    """``_sampled_deviations`` as two engines, one burned after the other.

    The mean-field chains run on their own engine (generator seed
    ``seed_key + (1,)``) and sample the mean; then the tail chains get a
    fresh engine (seed ``seed_key + (2,)``) and their own burn.
    """
    window = heights._envelope_window(envelopes)
    span = window[1] - window[0] + 2
    burn = max(50, int(round(config.burn_factor * span * span)))
    thin = max(1, int(round(config.thin_factor * span * span)))

    def burned_chains(chains, tag, first_draw):
        pots = [
            sample_potential(config.model, window, draw=first_draw + d)
            for d in range(chains)
        ]
        rng = np.random.default_rng([*seed_key, tag])
        eng = sampler.BoxGlauber(region, pinned, pots, rng, start=config.start)
        eng.sweep(burn)
        return eng

    eng = burned_chains(config.mean_draws, 1, analysis._MEAN_DRAW_OFFSET)
    mean, stderr = analysis._mean_field(
        eng, config.mean_samples_per_draw, thin
    )
    eng = burned_chains(config.tail_samples, 2, 0)
    return np.abs(eng.height_matrix() - mean).max(axis=1), stderr


class TestJointBurn:
    """The mean-field and tail chains of one size burn as one batch, each
    group on its own generator, with the two-engine results."""

    @pytest.mark.parametrize(
        "n,boundary,model,start,counts,seed_key",
        [
            (5, "extremal", PotentialModel("twopoint", 1.0, 0), "mid",
             (6, 4, 3), (0, 5)),
            (7, "parity", PotentialModel("uniform", 1.0, 3), "low",
             (3, 9, 2), (4, 7)),
            (9, "extremal", PotentialModel("twopoint", 0.5, 1), "low",
             (1, 1, 1), (2, 9)),
            (6, "parity", PotentialModel("zero"), "mid", (5, 2, 4), (1,)),
            (9, "extremal", PotentialModel("uniform", 2.0, 2), "mid",
             (12, 20, 2), (3, 7, 1)),
        ],
    )
    def test_equals_two_engines(
        self, n, boundary, model, start, counts, seed_key
    ):
        region = make_box((0, 0), (n - 1, n - 1))
        pinned = box_boundary_data(region, boundary, 1)
        envelopes = heights._pinned_envelopes(region, pinned)
        tails, mean_draws, per_draw = counts
        config = ExperimentConfig(
            model=model, tail_samples=tails, mean_draws=mean_draws,
            mean_samples_per_draw=per_draw, burn_factor=0.5,
            thin_factor=0.05, start=start,
        )
        devs, stderr = analysis._sampled_deviations(
            region, envelopes, config, seed_key
        )
        want_devs, want_stderr = two_engine_deviations(
            region, pinned, envelopes, config, seed_key
        )
        assert devs.tolist() == want_devs.tolist()
        assert np.array_equal(stderr, want_stderr)


class TestConcentrationExperiment:
    def test_exact_mode_small_box(self):
        cfg = ExperimentConfig(
            ns=(3,),
            c_values=(0.5, 1.0, 2.0),
            model=PotentialModel("twopoint", 0.5, 0),
            mode="exact",
        )
        report = concentration_experiment(cfg)
        assert len(report.rows) == 3
        rows = {r.c: r for r in report.rows}
        # the two extensions sit at center height 0 and 2; by the +-
        # symmetry of the two-point law the annealed mean is 1, so the
        # max deviation is exactly 1 for every member
        assert rows[0.5].tail_freq == pytest.approx(1.0, rel=1e-12)
        assert rows[1.0].tail_freq == 0.0
        assert rows[2.0].tail_freq == 0.0
        for r in report.rows:
            assert r.samples == 0
            assert r.bound == pytest.approx(
                concentration_bound(9, 3, r.c, 2.0)
            )
        assert report.violations() == []
        s = report.summaries[0]
        assert s.region_size == 9
        assert s.diam_l1 == 4
        assert s.max_walk_length == 2
        assert s.dev_quantiles[-1] == (1.0, pytest.approx(1.0))

    def test_mc_mode_small_box(self):
        cfg = ExperimentConfig(
            ns=(3,),
            c_values=(1.0, 2.0),
            model=PotentialModel("twopoint", 0.5, 1),
            mode="mc",
            tail_samples=60,
            mean_draws=20,
            mean_samples_per_draw=5,
            burn_factor=1.0,
            thin_factor=0.25,
        )
        report = concentration_experiment(cfg)
        for r in report.rows:
            assert r.samples == 60
            assert 0.0 <= r.tail_freq <= 1.0
            assert math.isfinite(r.mean_stderr_max)
        assert report.summaries[0].samples == 60

    def test_to_csv_round_trip(self):
        cfg = ExperimentConfig(
            ns=(3,), c_values=(1.0,), model=PotentialModel("zero"),
            mode="exact",
        )
        report = concentration_experiment(cfg)
        text = report.to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "n,c,samples,tail_freq,bound,mean_stderr_max"
        n, c, samples, tail, bound, stderr = lines[1].split(",")
        assert (int(n), float(c), int(samples)) == (3, 1.0, 0)
        assert float(bound) == pytest.approx(
            concentration_bound(9, 3, 1.0, 2.0)
        )

    def test_violations_thresholding(self):
        # craft rows directly: one unbounded, one passing, one failing
        from randomsurfaces.analysis import ConcentrationReport

        rows = (
            ReportRow(9, 0.1, 100, 0.9, 5.0, 0.0),  # bound >= 1: skipped
            ReportRow(9, 1.0, 100, 0.05, 0.04, 0.0),  # within slack
            ReportRow(9, 2.0, 100, 0.5, 0.01, 0.0),  # clear violation
        )
        report = ConcentrationReport(rows, (), ExperimentConfig())
        bad = report.violations()
        assert len(bad) == 1
        assert bad[0].c == 2.0

    def test_hypotheses_guard(self):
        cfg = ExperimentConfig(
            ns=(5,), model=PotentialModel("zero"), mode="exact", A=0.5
        )
        with pytest.raises(ValueError, match="enlarge A"):
            concentration_experiment(cfg)

    @pytest.mark.parametrize("ns", [(8,), (3, 9), (25, 5)])
    def test_exact_mode_size_limit_before_any_work(self, monkeypatch, ns):
        def no_work(*args, **kwargs):
            raise AssertionError("built a box before checking the sizes")

        monkeypatch.setattr(analysis, "make_box", no_work)
        monkeypatch.setattr(analysis, "enumerate_extensions", no_work)
        cfg = ExperimentConfig(ns=ns, model=PotentialModel("zero"), mode="exact")
        with pytest.raises(ValueError, match=f"n <= 7, got n = {max(ns)}"):
            concentration_experiment(cfg)

    def test_exact_mode_takes_seven(self, monkeypatch):
        # the largest size admitted goes on to enumerate
        def stop(*args, **kwargs):
            raise RuntimeError("enumerating")

        monkeypatch.setattr(analysis, "enumerate_extensions", stop)
        cfg = ExperimentConfig(ns=(7,), model=PotentialModel("zero"), mode="exact")
        with pytest.raises(RuntimeError, match="enumerating"):
            concentration_experiment(cfg)
