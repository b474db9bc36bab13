"""Tests of the benchmark's oracles and checks.

Run with ``python3 -m pytest bench``.  The oracles are checked on cases
small enough to count by hand; each workload check must reject an output
with one deliberate fault.
"""

import math

import numpy as np
import pytest

import oracles
import workloads
from randomsurfaces import analysis, gibbs, heights, lattice, potential


@pytest.mark.parametrize("length, rise", [(2, 1), (5, 0), (5, 2), (7, 4), (9, 0), (8, 7)])
def test_path_counts_are_binomial(length, rise):
    # a 1 x L box pinned at both ends: walks of L-1 steps that rise by `rise`
    steps = length - 1
    pinned = {(0, 0): 0, (0, steps): rise}
    want = math.comb(steps, (steps + rise) // 2)
    assert oracles.count_extensions((1, length), pinned) == want
    members = oracles.list_extensions((1, length), pinned)
    assert len(members) == want
    assert oracles.members_problems(members, (1, length), pinned) == []


def test_path_too_steep_has_no_extension():
    assert oracles.count_extensions((1, 4), {(0, 0): 0, (0, 3): 5}) == 0


def test_parity_ring_3x3_has_two_extensions():
    ring = oracles.parity_ring(3)
    members = oracles.list_extensions((3, 3), ring)
    assert oracles.count_extensions((3, 3), ring) == 2
    assert members.tolist() == [[0, 1, 0, 1, 0, 1, 0, 1, 0], [0, 1, 0, 1, 2, 1, 0, 1, 0]]


def test_box_closed_forms():
    ring = oracles.parity_ring(3)
    low, high = oracles.envelopes((3, 3), ring)
    assert (low[1, 1], high[1, 1]) == (0, 2)
    assert oracles.window((3, 3), ring) == (0, 1)
    assert oracles.window((9, 9), oracles.extremal_ring(9)) == (0, 7)
    assert [oracles.max_walk(n, n) for n in (3, 4, 9, 100)] == [2, 2, 5, 50]
    assert oracles.diam_l1(100, 100) == 198
    assert oracles.concentration_bound(9, 1.0, 2.0) == pytest.approx(162 * math.exp(-4.5))


def test_gibbs_weights_on_the_3x3_ring_by_hand():
    # the centre feels omega_0 on its four edges at height 0, omega_1 at 2
    members = oracles.list_extensions((3, 3), oracles.parity_ring(3))
    edges = oracles.box_edges((3, 3))
    w0, w1 = -0.3, 0.7
    probs = oracles.gibbs_probabilities(members, edges, 0, [w0, w1])
    up = math.exp(4 * w1) / (math.exp(4 * w0) + math.exp(4 * w1))
    assert probs == pytest.approx([1 - up, up], abs=1e-15)
    # averaged over the four +-a potentials, both centres are equally likely
    assert oracles.annealed_twopoint(members, edges, (0, 1), 1.3) == pytest.approx([0.5, 0.5])


def test_tv_bound_shrinks_with_samples():
    assert oracles.tv_bound(64, 8000) > oracles.tv_bound(64, 32000)
    assert oracles.tv_bound(2, 10**6) < 0.01


def test_oracle_matches_package_on_7x7_count():
    assert oracles.count_extensions((7, 7), oracles.parity_ring(7)) == 64914


# ---------------------------------------------------------------------------
# every check rejects one deliberate fault


def test_grid_check_rejects_one_changed_height():
    data = oracles.extremal_ring(6)
    low, high = oracles.envelopes((6, 6), data)
    grid = oracles.list_extensions((6, 6), data)[17].reshape(6, 6)
    assert oracles.grid_problems(grid, data, low, high) == []
    bad = grid.copy()
    bad[2, 3] += 1
    assert oracles.grid_problems(bad, data, low, high)
    bad[2, 3] = high[2, 3] + 2
    assert oracles.grid_problems(bad, data, low, high)


def test_members_check_rejects_changed_and_repeated_members():
    ring = oracles.parity_ring(5)
    members = oracles.list_extensions((5, 5), ring)
    assert oracles.members_problems(members, (5, 5), ring) == []
    bad = members.copy()
    bad[3, 12] += 1
    assert oracles.members_problems(bad, (5, 5), ring)
    assert oracles.members_problems(np.repeat(members, 2, axis=0), (5, 5), ring)


def test_probability_check_rejects_one_perturbed_probability():
    ring = oracles.parity_ring(5)
    members = oracles.list_extensions((5, 5), ring)
    law = oracles.annealed_twopoint(
        members, oracles.box_edges((5, 5)), oracles.window((5, 5), ring), 1.0
    )
    index = oracles.index_of_rows(members)
    region = lattice.make_box((0, 0), (4, 4))
    support = heights.enumerate_extensions(region, ring)
    probs = gibbs.annealed_member_probabilities(
        support, potential.PotentialModel("twopoint", 1.0, 0)
    )
    mem = workloads._members(support)
    assert workloads.probability_problems(mem, probs, index, law) == []
    bad = probs.copy()
    bad[5] += 1e-6
    bad[6] -= 1e-6
    assert workloads.probability_problems(mem, bad, index, law)


def _certificate(lower, upper):
    region = lattice.make_box((0, 0), (4, 4))
    lo, hi = workloads._pair_window(lower, upper)
    # the exact-lab potentials: the flow raises on some others (README.md)
    (values,) = workloads._fixed_potentials(0, lo, hi, [0])
    p = potential.Potential(lo, hi, values)
    mu = gibbs.quenched_measure(region, lower, p)
    nu = gibbs.quenched_measure(region, upper, p)
    return mu, nu, analysis.dominance_certificate(mu, nu)


def test_coupling_check_rejects_one_unordered_pair():
    ring = oracles.parity_ring(5)
    lower, upper = workloads._ordered_pairs(ring)[0]
    mu, nu, cert = _certificate(lower, upper)
    a, b = workloads._members(mu.support), workloads._members(nu.support)
    args = (a, b, mu.probabilities, nu.probabilities)
    assert cert.dominated
    assert oracles.coupling_problems(cert.coupling, *args) == []
    coupling = list(cert.coupling)
    e, k = next(
        (e, k) for e in range(len(coupling)) for k in range(len(b))
        if (a[coupling[e][0]] > b[k]).any()
    )
    coupling[e] = (coupling[e][0], k, coupling[e][2])
    assert oracles.coupling_problems(coupling, *args)


def test_witness_check_rejects_a_set_that_is_not_upward_closed():
    ring = oracles.parity_ring(5)
    lower, upper = workloads._ordered_pairs(ring)[0]
    mu, nu, cert = _certificate(upper, lower)
    a, b = workloads._members(mu.support), workloads._members(nu.support)
    args = (a, b, mu.probabilities, nu.probabilities)
    assert not cert.dominated
    assert oracles.witness_problems(cert.witness, *args) == []
    witness = dict(cert.witness)
    witness["lower_indices"] = tuple(sorted(witness["lower_indices"]))[:-1]
    assert oracles.witness_problems(witness, *args)


def test_feasibility_check_rejects_a_false_witness():
    data = {(0, 0): 0, (0, 2): 2, (2, 2): 0}
    assert workloads.feasibility_problems(((0, 0), (0, 2), 2, 2), data, True)
    bad = dict(data)
    bad[(0, 2)] = 4
    assert workloads.feasibility_problems(((0, 0), (0, 2), 4, 2), bad, True) == []
    assert workloads.feasibility_problems(None, data, False) == []
    assert workloads.feasibility_problems(None, bad, True)


def test_sampled_law_check_rejects_a_foreign_state_and_a_skewed_law():
    ring = oracles.parity_ring(3)
    members = oracles.list_extensions((3, 3), ring)
    index = oracles.index_of_rows(members)
    states = np.repeat(members, 500, axis=0)
    assert workloads.sampled_law_problems(states, index, np.array([0.5, 0.5])) == []
    assert workloads.sampled_law_problems(states, index, np.array([0.9, 0.1]))
    foreign = states.copy()
    foreign[0, 4] = 4
    assert workloads.sampled_law_problems(foreign, index, np.array([0.5, 0.5]))


def test_concentration_check_rejects_one_changed_row(tmp_path):
    op = workloads._concentration_op(
        "c", tmp_path, 1, (5,), (1.0, 2.0), 10, {"mean_draws": 3, "mean_samples_per_draw": 2}
    )
    out = op.run()
    assert op.check(out) == []
    csv = (tmp_path / "c.csv").read_text()
    rows = csv.splitlines()
    fields = rows[1].split(",")
    fields[4] = str(float(fields[4]) * 1.01)
    rows[1] = ",".join(fields)
    windows = {5: oracles.window((5, 5), oracles.extremal_ring(5))}
    assert workloads.concentration_problems(out[1], "\n".join(rows), (5,), (1.0, 2.0), 10, windows)


@pytest.mark.parametrize(
    "workload, name",
    [("mc-report", "surface-chain"), ("exact-lab", "enumerate-7"), ("exact-lab", "martingale")],
)
def test_workload_operation_passes_its_check(tmp_path, workload, name):
    op = next(op for op in workloads.build(workload, 4, tmp_path) if op.name == name)
    assert op.check(op.run()) == []
