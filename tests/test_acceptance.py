"""Acceptance gate: one criterion per test, one printed verdict line each.

Each test computes its criterion at the stated tolerance, prints a
single PASS/FAIL line (past pytest's capture, so it is always visible),
and then asserts.  Criteria:

1. boundary-gap obstruction - pinning 1 and 5 on opposite edge
   midpoints of the 3x3 box is infeasible (gap 4, distance 2) yet
   admits exactly one height function on the center-deleted ring.
2. measure identities - localization and even-shift identities hold to
   1e-12 relative error on 100+ random instances.
3. stochastic dominance - ordered boundary pairs yield dominance
   certificates with exact coupling marginals; the flow verdict equals
   exhaustive upper-set enumeration wherever that oracle is feasible.
4. two-point monotonicity - raising boundary data by at most 2 raises
   the annealed mean height at a marked vertex by at most 2.
5. value-revealing martingale - conditional means along walks from the
   pinned ring move by at most 2 per revealed value, and exact tails
   respect the 2 exp(-l c^2 / 2) envelope.
6. sampler correctness - chain snapshots reproduce the quenched
   measure in total variation; the kernel is exactly stationary; the
   shared-threshold coupling never loses the pointwise order.
7. concentration envelope - empirical max-deviation tails stay under
   2 |R| exp(-n c^2 / A) with 3-sigma slack, and the normalized median
   deviation shrinks from n=25 to n=100 on paired environments.
8. determinism - every CLI command repeated with the same seeds
   produces byte-identical stdout and output files.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from randomsurfaces.analysis import (
    ExperimentConfig,
    azuma_bound,
    boundary_to_interior_walks,
    concentration_experiment,
    deviation_tail_exact,
    dominance_certificate,
    dominance_sweep,
    dominates_by_upper_sets,
    martingale_audit,
    scaling_check,
    two_point_comparison,
)
from randomsurfaces.gibbs import (
    annealed_member_probabilities,
    identity_check_suite,
    quenched_measure,
    required_window,
)
from randomsurfaces.heights import (
    enumerate_extensions,
    extremal_boundary,
    kirszbraun_extendable,
    parity_height,
)
from randomsurfaces.lattice import Region, boundary, graph_distance, make_box
from randomsurfaces.potential import PotentialModel, sample_potential
from randomsurfaces.sampler import BoxGlauber, coupled_run, transition_matrix

BOX3 = make_box((0, 0), (2, 2))
RING3_REGION = Region(v for v in BOX3 if v != (1, 1))


@pytest.fixture
def report(capsys):
    def _report(name: str, ok: bool, detail: str):
        line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


def ring_datasets(n):
    """Parity, steepest-up, steepest-down ring data and their +2 shifts."""
    box = make_box((0, 0), (n - 1, n - 1))
    p = parity_height(box).restrict(boundary(box))
    su = extremal_boundary(box, 1, 0)
    sd = extremal_boundary(box, -1, 0)
    base = [p, su, sd]
    return box, base + [f.shift(2) for f in base]


def test_01_boundary_gap_obstruction(report):
    pin = {(0, 1): 1, (2, 1): 5}
    t0 = time.monotonic()
    on_ring = enumerate_extensions(RING3_REGION, pin)
    extendable_box = kirszbraun_extendable(BOX3, pin)
    on_box = enumerate_extensions(BOX3, pin)
    d_ring = graph_distance(RING3_REGION, (0, 1), (2, 1))
    d_box = graph_distance(BOX3, (0, 1), (2, 1))
    elapsed = time.monotonic() - t0
    ok = (
        len(on_ring) == 1
        and not extendable_box
        and len(on_box) == 0
        and d_ring == 4
        and d_box == 2
        and elapsed < 1.0
    )
    report(
        "boundary-gap obstruction",
        ok,
        f"ring admits {len(on_ring)} extension, box {len(on_box)} "
        f"(extendable={extendable_box}); distance {d_ring} on the ring "
        f"vs {d_box} in the box ({elapsed:.3f} s < 1 s)",
    )


def test_02_measure_identities(report):
    t0 = time.monotonic()
    res = identity_check_suite(samples=120, seed=0)
    elapsed = time.monotonic() - t0
    ok = (
        res.checks >= 100
        and res.nontrivial_localizations > 0
        and res.max_relative_complement_gap <= 1e-12
        and res.max_shift_gap <= 1e-12
        and elapsed < 30.0
    )
    report(
        "measure identities",
        ok,
        f"{res.checks} instances ({res.nontrivial_localizations} with "
        f"dropped edges); worst relative gaps "
        f"{res.max_relative_complement_gap:.2e} (localization) / "
        f"{res.max_shift_gap:.2e} (even shift), tolerance 1e-12 "
        f"({elapsed:.1f} s < 30 s)",
    )


def test_03_stochastic_dominance(report):
    t0 = time.monotonic()
    model = PotentialModel("uniform", 1.0, 0)
    total_pairs = 0
    total_checks = 0
    failures = []
    worst_marginal = 0.0
    for n in (3, 4):
        box, data = ring_datasets(n)
        pairs = [
            (f, g)
            for i, f in enumerate(data)
            for j, g in enumerate(data)
            if i != j and f.le(g)
        ]
        sweep = dominance_sweep(box, pairs, model, draws=50)
        total_pairs += sweep.pairs
        total_checks += sweep.checks
        failures.extend(sweep.failures)
        worst_marginal = max(worst_marginal, sweep.max_marginal_error)

    # flow verdict vs exhaustive upper-set oracle, ordered and reversed,
    # wherever the union of supports has at most 12 distinct atoms
    box, data = ring_datasets(3)
    agreements = 0
    for d in range(5):
        for f in data:
            for g in data:
                if f == g:
                    continue
                lo1, hi1 = required_window(box, f)
                lo2, hi2 = required_window(box, g)
                p = sample_potential(
                    model, (min(lo1, lo2), max(hi1, hi2)), draw=d
                )
                mu = quenched_measure(box, f, p)
                nu = quenched_measure(box, g, p)
                atoms = {m.heights for m in mu.support} | {
                    m.heights for m in nu.support
                }
                if len(atoms) > 12:
                    continue
                cert = dominance_certificate(mu, nu)
                verdict, _ = dominates_by_upper_sets(mu, nu)
                if cert.dominated != verdict:
                    failures.append(("oracle-mismatch", d, cert.flow_value))
                else:
                    agreements += 1
    elapsed = time.monotonic() - t0
    ok = (
        total_pairs >= 20
        and not failures
        and worst_marginal <= 1e-9
        and agreements > 0
        and elapsed < 120.0
    )
    report(
        "stochastic dominance",
        ok,
        f"{total_pairs} ordered pairs x 50 draws = {total_checks} "
        f"certificates, 0 failures, worst coupling marginal "
        f"{worst_marginal:.2e} <= 1e-9; flow verdict agreed with the "
        f"upper-set oracle on {agreements} instances "
        f"({elapsed:.1f} s < 120 s)",
    )


def test_04_two_point_monotonicity(report):
    t0 = time.monotonic()
    instances = []
    for length in (2, 4, 6):
        path = make_box((0,), (length,))
        mid = (length // 2,)
        ends = [(0,), (length,)]
        combos = [
            ((0, 0), (0, 0)),
            ((0, 0), (2, 2)),
            ((2, 2), (0, 0)),
            ((0, 2), (0, 2)),
            ((0, 2), (0, 0)),
        ]
        for low_vals, high_vals in combos:
            instances.append(
                (
                    path,
                    dict(zip(ends, low_vals)),
                    dict(zip(ends, high_vals)),
                    mid,
                )
            )
    _, (p, su, sd, p2, su2, sd2) = ring_datasets(3)
    for low, high in [
        (p, p), (p, p2), (p2, p), (p, su), (su, p), (su, su2), (su2, su),
    ]:
        instances.append((BOX3, low, high, (1, 1)))

    model = PotentialModel("twopoint", 1.0, 0)
    exact_margin = -math.inf
    for region, low, high, v in instances:
        lhs, rhs = two_point_comparison(region, low, high, v, model)
        exact_margin = max(exact_margin, lhs.value - rhs.value - 2.0)
    mc_margin = -math.inf
    mc_ok = True
    for region, low, high, v in instances:
        lhs, rhs = two_point_comparison(
            region, low, high, v, model.with_seed(1),
            mode="mc", samples=300,
        )
        slack = 3.0 * math.hypot(lhs.stderr, rhs.stderr)
        margin = lhs.value - rhs.value - 2.0
        mc_margin = max(mc_margin, margin - slack)
        mc_ok = mc_ok and margin <= slack
    elapsed = time.monotonic() - t0
    ok = (
        len(instances) >= 20
        and exact_margin <= 1e-12
        and mc_ok
        and elapsed < 120.0
    )
    report(
        "two-point monotonicity",
        ok,
        f"{len(instances)} instances; exact worst lhs-(rhs+2) = "
        f"{exact_margin:.2e} <= 1e-12; Monte Carlo worst margin minus "
        f"3 sigma = {mc_margin:.2e} <= 0 ({elapsed:.1f} s < 120 s)",
    )


def test_05_value_revealing_martingale(report):
    t0 = time.monotonic()
    model = PotentialModel("twopoint", 1.0, 0)
    c_grid = (0.5, 0.75, 1.0, 1.5, 2.0, 3.0)
    total_walks = 0
    worst_increment = 0.0
    tail_checks = 0
    tail_failures = 0
    for n in (3, 4):
        box = make_box((0, 0), (n - 1, n - 1))
        ring = parity_height(box).restrict(boundary(box))
        interior = sorted(set(box.vertex_list) - set(ring.domain))
        support = enumerate_extensions(box, ring)
        probs = annealed_member_probabilities(support, model)
        walks = boundary_to_interior_walks(box, ring.domain, interior)
        total_walks += len(walks)
        for walk in walks:
            audit = martingale_audit(box, ring, walk, model, support=support)
            worst_increment = max(worst_increment, audit.max_diff)
            length = len(walk)
            tails = deviation_tail_exact(
                support, probs, walk[-1], [length * c for c in c_grid]
            )
            for c, tail in zip(c_grid, tails):
                bound = azuma_bound(length, c)
                if bound >= 1.0:
                    continue
                tail_checks += 1
                tail_failures += tail > bound
    elapsed = time.monotonic() - t0
    ok = (
        total_walks >= 30
        and worst_increment <= 2.0
        and tail_failures == 0
        and tail_checks > 0
        and elapsed < 300.0
    )
    report(
        "value-revealing martingale",
        ok,
        f"{total_walks} walks, max increment {worst_increment:.6f} <= 2; "
        f"{tail_checks} exact tail checks under 2 exp(-l c^2 / 2), "
        f"{tail_failures} failures ({elapsed:.1f} s < 300 s)",
    )


def test_06_sampler_matches_exact_measure(report):
    t0 = time.monotonic()
    model = PotentialModel("uniform", 1.0, 0)

    # (a) total variation on the corner-pinned box: 44 members
    corner_pin = {(0, 0): 0, (2, 2): 0}
    lo, hi = required_window(BOX3, corner_pin)
    p = sample_potential(model, (lo, hi), draw=0)
    mu = quenched_measure(BOX3, corner_pin, p)
    B, snaps, thin, burn = 2000, 50, 5, 100
    eng = BoxGlauber(BOX3, corner_pin, [p] * B, np.random.default_rng(1))
    eng.sweep(burn)
    index = {m.heights: i for i, m in enumerate(mu.support.members)}
    counts = np.zeros(len(mu))
    for s in range(snaps):
        if s:
            eng.sweep(thin)
        for row in eng.height_matrix():
            counts[index[tuple(int(z) for z in row)]] += 1
    samples_a = B * snaps
    tv_corner = 0.5 * float(np.abs(counts / samples_a - mu.probabilities).sum())

    # (b) ring-pinned box, one free site: one sweep is an exact draw
    ring_pin = parity_height(BOX3).restrict(boundary(BOX3))
    lo, hi = required_window(BOX3, ring_pin)
    p2 = sample_potential(model.with_seed(1), (lo, hi), draw=0)
    nu = quenched_measure(BOX3, ring_pin, p2)
    B2 = 100_000
    eng2 = BoxGlauber(BOX3, ring_pin, [p2] * B2, np.random.default_rng(2))
    eng2.sweep(1)
    center = eng2.height_matrix()[:, BOX3.position((1, 1))]
    emp = np.array([(center == m[(1, 1)]).mean() for m in nu.support.members])
    tv_ring = 0.5 * float(np.abs(emp - nu.probabilities).sum())

    # stationarity of the exact kernel on supports of size <= 64
    stat_err = 0.0
    for region, pin in [
        (BOX3, corner_pin),
        (BOX3, ring_pin),
        (make_box((0,), (4,)), {(0,): 0, (4,): 0}),
    ]:
        m = quenched_measure(
            region, pin,
            sample_potential(model.with_seed(2), required_window(region, pin)),
        )
        assert len(m) <= 64
        P = transition_matrix(m)
        pi = m.probabilities
        stat_err = max(stat_err, float(np.max(np.abs(pi @ P - pi))))

    # order preservation over 1e5 coupled steps (raises on violation)
    lo, hi = required_window(BOX3, ring_pin.shift(2))
    p3 = sample_potential(model.with_seed(3), (lo - 2, hi))
    f_low, f_high = coupled_run(
        BOX3, ring_pin, ring_pin.shift(2), p3, 100_000,
        np.random.default_rng(3),
    )
    ordered = f_low.le(f_high)
    elapsed = time.monotonic() - t0
    ok = (
        samples_a + B2 >= 100_000
        and tv_corner < 0.05
        and tv_ring < 0.05
        and stat_err <= 1e-12
        and ordered
    )
    report(
        "sampler correctness",
        ok,
        f"TV {tv_corner:.4f} (44-member support, {samples_a} samples) and "
        f"{tv_ring:.4f} (single free site, {B2} samples), both < 0.05; "
        f"stationarity residual {stat_err:.2e} <= 1e-12; order kept over "
        f"100000 coupled steps ({elapsed:.1f} s)",
    )


def test_07_concentration_envelope_and_scaling(report):
    t0 = time.monotonic()
    config = ExperimentConfig()
    exp_report = concentration_experiment(config)
    violations = exp_report.violations()
    hypotheses_ok = all(
        s.diam_l1 <= config.A * s.n
        and 2 * s.max_walk_length <= config.A * s.n
        for s in exp_report.summaries
    )
    bounded = [r for r in exp_report.rows if r.bound < 1.0]
    worst = max(bounded, key=lambda r: r.tail_freq - r.bound - r.slack())
    scaling = scaling_check(PotentialModel("twopoint", 1.0, 0))
    elapsed = time.monotonic() - t0
    ok = (
        not violations
        and hypotheses_ok
        and scaling.fraction_decreasing >= 0.9
        and elapsed < 1800.0
    )
    report(
        "concentration envelope and scaling",
        ok,
        f"{len(bounded)} bounded rows over n={config.ns}, 0 violations "
        f"(tightest: n={worst.n} c={worst.c:g} tail {worst.tail_freq:.4f} "
        f"vs bound {worst.bound:.4f} + slack {worst.slack():.4f}); "
        f"normalized median deviation fell 25->100 in "
        f"{scaling.fraction_decreasing:.0%} of {scaling.seeds} paired "
        f"environments >= 90% ({elapsed / 60:.1f} min < 30 min)",
    )


def test_08_cli_determinism(report, tmp_path):
    t0 = time.monotonic()
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "ns = 3\nc_values = 1.0, 2.0\nmodel = twopoint:a=1\nmode = mc\n"
        "tail_samples = 20\nmean_draws = 5\nmean_samples_per_draw = 3\n"
        "burn_factor = 0.5\nthin_factor = 0.1\nseed = 2\n"
    )
    commands = {
        "enumerate": ["enumerate", "--box", "4", "--boundary", "extremal",
                      "--list"],
        "surface": ["surface", "--n", "5", "--boundary", "extremal",
                    "--model", "twopoint:a=1", "--seed", "3",
                    "--sweeps", "20", "--out", "OUT"],
        "concentration": ["concentration", "--config", str(cfg),
                          "--out", "OUT"],
        "verify": ["verify", "identities", "--samples", "5", "--seed", "2"],
    }
    mismatches = []
    for name, argv in commands.items():
        outputs = []
        for run_id in (1, 2):
            out_file = tmp_path / f"{name}_{run_id}.out"
            cmd = [
                str(out_file) if a == "OUT" else a for a in argv
            ]
            proc = subprocess.run(
                [sys.executable, "-m", "randomsurfaces.cli", *cmd],
                capture_output=True,
            )
            if proc.returncode != 0:
                mismatches.append(f"{name} exited {proc.returncode}")
                break
            blob = proc.stdout
            if "OUT" in argv:
                blob += b"\x00" + out_file.read_bytes()
                # file paths differ between runs; compare content only
                blob = blob.replace(str(out_file).encode(), b"OUT")
            outputs.append(blob)
        if len(outputs) == 2 and outputs[0] != outputs[1]:
            mismatches.append(name)
    elapsed = time.monotonic() - t0
    ok = not mismatches
    report(
        "determinism",
        ok,
        f"{len(commands)} commands run twice, byte-identical stdout and "
        f"output files"
        + (f"; mismatches: {mismatches}" if mismatches else "")
        + f" ({elapsed:.1f} s)",
    )
