"""The benchmark's workloads: inputs made from a seed, operations, checks.

An operation is one top-level call into randomsurfaces (a CLI command, a
report, an enumeration, a certificate batch, a feasibility query).  Its
``run`` is the timed call; its ``check`` compares the output with
``oracles`` or with properties the method must have, outside the timed
part, and returns the problems it found.  Every operation rebuilds what
it passes on from plain inputs, so a check never warms a cache that a
later operation reads, and every round of a run repeats the same calls.

Package functions are looked up on their modules at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles
from randomsurfaces import analysis, cli, gibbs, heights, lattice, potential, sampler

WORKLOADS = ("mc-report", "big-box", "exact-lab")

C_VALUES = (0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)  # the CLI's default
A = 2.0


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    """Generate the workload's inputs from ``seed`` and return its operations."""
    builders = {
        "mc-report": _mc_report,
        "big-box": _big_box,
        "exact-lab": _exact_lab,
    }
    return builders[workload](seed, np.random.default_rng([seed, 2111]), workdir)


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# concentration reports and sampled surfaces (mc-report, big-box)

_SUMMARY = re.compile(
    r"^n=(\d+): \|R\|=(\d+) diam_l1=(\d+) max_walk=(\d+) "
    r"window=\[(-?\d+),(-?\d+)\] dev_max=(\S+)$"
)


def _concentration_op(name, workdir, seed, ns, cs, samples, extra) -> Op:
    """``concentration`` on extremal data over boxes ``ns``, checked row by row."""
    cfg = workdir / f"{name}.cfg"
    csv = workdir / f"{name}.csv"
    lines = [
        f"ns = {','.join(str(n) for n in ns)}",
        f"c_values = {','.join(str(c) for c in cs)}",
        "model = twopoint:a=1",
        "boundary = extremal",
        f"A = {A}",
        "mode = mc",
        f"tail_samples = {samples}",
        f"seed = {seed}",
    ] + [f"{k} = {v}" for k, v in extra.items()]
    cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
    windows = {n: oracles.window((n, n), oracles.extremal_ring(n)) for n in ns}

    def run():
        return _cli(["concentration", "--config", str(cfg), "--out", str(csv)])

    def check(out):
        code, text = out
        if code != 0:
            return [f"exit code {code}"]
        return concentration_problems(
            text, csv.read_text(encoding="utf-8"), ns, cs, samples, windows
        )

    return Op(name, run, check)


def concentration_problems(stdout, csv_text, ns, cs, samples, windows) -> list[str]:
    """Check a concentration report against the closed forms and the envelope."""
    problems = []
    dev_max = {}
    for line in stdout.splitlines():
        m = _SUMMARY.match(line)
        if not m:
            continue
        n, size, diam, walk, wlo, whi = (int(x) for x in m.groups()[:6])
        dev_max[n] = float(m.group(7))
        want = (n * n, oracles.diam_l1(n, n), oracles.max_walk(n, n), windows[n])
        got = (size, diam, walk, (wlo, whi))
        if got != want:
            problems.append(f"n={n}: summary {got} != closed form {want}")
    if sorted(dev_max) != sorted(ns):
        problems.append(f"summaries for {sorted(dev_max)}, expected {list(ns)}")
        return problems

    rows = [r.split(",") for r in csv_text.strip().splitlines()]
    if rows[0] != ["n", "c", "samples", "tail_freq", "bound", "mean_stderr_max"]:
        return problems + [f"bad CSV header {rows[0]}"]
    expect = [(n, c) for n in ns for c in cs]
    if len(rows) - 1 != len(expect):
        return problems + [f"{len(rows) - 1} CSV rows, expected {len(expect)}"]
    bounded = 0
    for (n, c), r in zip(expect, rows[1:]):
        rn, rc, rs = int(r[0]), float(r[1]), int(r[2])
        tail, bound, stderr = float(r[3]), float(r[4]), float(r[5])
        if (rn, rc, rs) != (n, c, samples):
            problems.append(f"row ({rn},{rc},{rs}) != ({n},{c},{samples})")
            continue
        want = oracles.concentration_bound(n, c, A)
        if not math.isclose(bound, want, rel_tol=1e-9):
            problems.append(f"n={n} c={c}: bound {bound} != {want}")
        hits = tail * samples
        if not (0.0 <= tail <= 1.0 and abs(hits - round(hits)) < 1e-6):
            problems.append(f"n={n} c={c}: tail {tail} is no frequency")
        if not (stderr >= 0.0 and math.isfinite(stderr)):
            problems.append(f"n={n} c={c}: stderr {stderr}")
        if want < 1.0:
            bounded += 1
            if tail > want + oracles.binomial_slack(tail, samples):
                problems.append(f"n={n} c={c}: tail {tail} over bound {want}")
        # the largest sampled deviation decides which thresholds were hit
        thr = c * math.sqrt(n)
        if thr > dev_max[n] * (1 + 1e-5) and tail != 0.0:
            problems.append(f"n={n} c={c}: tail {tail} above dev_max")
        if thr < dev_max[n] * (1 - 1e-5) and tail < 1.0 / samples:
            problems.append(f"n={n} c={c}: tail 0 below dev_max")
    verdicts = [ln for ln in stdout.splitlines() if ln.startswith(("PASS", "FAIL"))]
    if len(verdicts) != bounded or any(v.startswith("FAIL") for v in verdicts):
        problems.append(f"{len(verdicts)} verdict lines for {bounded} bounded rows")
    return problems


def read_grid(text: str) -> np.ndarray:
    lines = text.split("\n")
    head = lines[0].split()
    n0, n1 = int(head[1]), int(head[2])
    body = [[int(z) for z in ln.split()] for ln in lines[1 : 1 + n0]]
    grid = np.asarray(body, dtype=np.int64)
    if head[0] != "2" or grid.shape != (n0, n1):
        raise ValueError(f"bad grid file header {head}")
    return grid


def _surface_op(name, workdir, seed, n, sweeps) -> Op:
    """``surface`` on the n x n box with extremal data, checked as a height function."""
    out_path = workdir / f"{name}.txt"
    argv = ["surface", "--n", str(n), "--boundary", "extremal",
            "--model", "twopoint:a=1", "--seed", str(seed), "--out", str(out_path)]
    if sweeps is not None:
        argv += ["--sweeps", str(sweeps)]
    data = oracles.extremal_ring(n)
    low, high = oracles.envelopes((n, n), data)

    def check(out):
        code, _ = out
        if code != 0:
            return [f"exit code {code}"]
        grid = read_grid(out_path.read_text(encoding="utf-8"))
        if grid.shape != (n, n):
            return [f"grid shape {grid.shape}"]
        return oracles.grid_problems(grid, data, low, high)

    return Op(name, lambda: _cli(argv), check)


def _sampled_law_op(seed, rng) -> Op:
    """Many independent BoxGlauber chains on the 5x5 parity ring, one draw each.

    The empirical law of the end states must be within the total-variation
    radius that the chain count allows of the brute-force Gibbs weights.
    """
    # Heat-bath chains mix slowly on this ring: with +-1 potentials some laws are
    # bimodal and trap chains for thousands of sweeps, and even at +-0.25
    # 100 sweeps leave a visible bias.  +-0.25 and 300 sweeps leave the
    # worst of the 16 potentials at 0.071 against a radius of 0.128.
    n, chains, sweeps = 5, 2000, 300
    data = oracles.parity_ring(n, shift=2 * int(rng.integers(-2, 3)))
    lo, hi = oracles.window((n, n), data)
    values = rng.choice([-0.25, 0.25], size=hi - lo + 1)
    members = oracles.list_extensions((n, n), data)
    law = oracles.gibbs_probabilities(members, oracles.box_edges((n, n)), lo, values)
    index = oracles.index_of_rows(members)

    def run():
        region = lattice.make_box((0, 0), (n - 1, n - 1))
        p = potential.Potential(lo, hi, values)
        eng = sampler.BoxGlauber(
            region, data, [p] * chains, np.random.default_rng([seed, 5]), start="low"
        )
        eng.sweep(sweeps)
        return eng.height_matrix()

    def check(states):
        return sampled_law_problems(states, index, law)

    return Op("sampled-law", run, check)


def sampled_law_problems(states, index, law) -> list[str]:
    counts = np.zeros(len(law))
    for row in states:
        k = index.get(tuple(int(z) for z in row))
        if k is None:
            return [f"sampled state {row.tolist()} is no extension"]
        counts[k] += 1
    tv = 0.5 * float(np.abs(counts / len(states) - law).sum())
    radius = oracles.tv_bound(len(law), len(states))
    return [] if tv <= radius else [f"total variation {tv:.4f} > {radius:.4f}"]


def _mc_report(seed, rng, workdir) -> list[Op]:
    return [
        _concentration_op(
            "concentration", workdir, seed, (9, 15, 25), C_VALUES, 20,
            {"mean_draws": 8, "mean_samples_per_draw": 4},
        ),
        _surface_op("surface-chain", workdir, seed, 9, None),
        _sampled_law_op(seed, rng),
    ]


# ---------------------------------------------------------------------------
# big-box: one 100 x 100 box with extremal data


def _feasibility_op(name, n, data, infeasible) -> Op:
    def run():
        region = lattice.make_box((0, 0), (n - 1, n - 1))
        return heights.kirszbraun_violation(region, data)

    def check(out):
        return feasibility_problems(out, data, infeasible)

    return Op(name, run, check)


def feasibility_problems(out, data, infeasible) -> list[str]:
    if not infeasible:
        return [] if out is None else [f"feasible data flagged: {out}"]
    if out is None:
        return ["infeasible data passed"]
    x, y, gap, dist = out
    l1 = sum(abs(a - b) for a, b in zip(x, y))
    if x not in data or y not in data:
        return [f"witness {x}, {y} is not pinned"]
    if gap != abs(data[x] - data[y]) or dist != l1 or not gap > l1:
        return [f"witness {out} is no violation (l1 distance {l1})"]
    return []


def _big_box(seed, rng, workdir) -> list[Op]:
    n = 100
    direction = int(rng.choice([-1, 1]))
    data = oracles.extremal_ring(n, direction, 2 * int(rng.integers(-3, 4)))
    # One interior vertex pinned 2 beyond its envelope.  Its row fixes how
    # many pinned vertices the scan passes before the violation; the seed
    # only moves it along the row.
    a = n // 2
    b = int(rng.integers(n - a, n - 2))
    low, high = oracles.envelopes((n, n), data)
    bad = dict(data)
    bad[(a, b)] = int(high[a, b]) + 2 if direction == 1 else int(low[a, b]) - 2
    return [
        # c = 0.5 is left out: there c sqrt(n) = 5 sits inside the spread
        # of the sampled maximal deviation (see README.md)
        _concentration_op(
            "concentration-100", workdir, seed, (n,), C_VALUES[1:], 8,
            {"mean_draws": 4, "mean_samples_per_draw": 3,
             "burn_factor": 0.01, "thin_factor": 0.002},
        ),
        _surface_op("surface-sweeps", workdir, seed, n, 300),
        _feasibility_op("feasible", n, data, False),
        _feasibility_op("infeasible", n, bad, True),
    ]


# ---------------------------------------------------------------------------
# exact-lab: supports small enough to solve exactly


def _members(support) -> np.ndarray:
    return np.asarray([m.heights for m in support.members], dtype=np.int64)


def _enumeration_op(n, data) -> Op:
    shape = (n, n)
    count = oracles.count_extensions(shape, data)

    def run():
        return heights.enumerate_extensions(lattice.make_box((0, 0), (n - 1, n - 1)), data)

    def check(support):
        if len(support) != count:
            return [f"{len(support)} members, transfer matrix counts {count}"]
        arr = np.asarray([m.heights for m in support.members], dtype=np.int16)
        return oracles.members_problems(arr, shape, data)

    return Op(f"enumerate-{n}", run, check)


def _annealed_op(n, data, a) -> Op:
    shape = (n, n)
    members = oracles.list_extensions(shape, data)
    law = oracles.annealed_twopoint(
        members, oracles.box_edges(shape), oracles.window(shape, data), a
    )
    index = oracles.index_of_rows(members)

    def run():
        support = heights.enumerate_extensions(lattice.make_box((0, 0), (n - 1, n - 1)), data)
        model = potential.PotentialModel("twopoint", a, 0)
        return support, gibbs.annealed_member_probabilities(support, model, mode="exact")

    def check(out):
        support, probs = out
        return probability_problems(_members(support), probs, index, law)

    return Op(f"annealed-{n}", run, check)


def aligned(law, index, members) -> np.ndarray:
    """The oracle's law reordered to the package's member order."""
    return np.asarray([law[index[tuple(int(z) for z in row)]] for row in members])


def probability_problems(members, probs, index, law, tol=1e-9) -> list[str]:
    """Probabilities per member must match the oracle's law and sum to 1."""
    if len(members) != len(law):
        return [f"{len(members)} members, oracle has {len(law)}"]
    if abs(float(np.sum(probs)) - 1.0) > 1e-12:
        return [f"probabilities sum to {float(np.sum(probs))!r}"]
    err = float(np.abs(np.asarray(probs) - aligned(law, index, members)).max())
    return [] if err <= tol else [f"probability error {err:.3e} > {tol:g}"]


def _raise(data, vertices):
    out = dict(data)
    for v in vertices:
        out[v] += 2
    return out


def _ordered_pairs(ring):
    """Ordered boundary pairs on the 5x5 ring; raising keeps steps of 1."""
    r1 = _raise(ring, [(0, 2), (2, 4)])
    r2 = _raise(r1, [(0, 0), (0, 4), (0, 1), (0, 3)])
    return [(ring, r1), (r1, r2), (ring, _raise(ring, ring))]


def _pair_window(lo_data, hi_data):
    w1 = oracles.window((5, 5), lo_data)
    w2 = oracles.window((5, 5), hi_data)
    return min(w1[0], w2[0]), max(w1[1], w2[1])


def _certificate_op(k, lo_data, hi_data, potentials, reverse=False) -> Op:
    """Dominance certificates for one pair under several potentials."""
    n = 5
    shape = (n, n)
    edges = oracles.box_edges(shape)
    lo, hi = _pair_window(lo_data, hi_data)
    sides = []
    for d in (lo_data, hi_data):
        members = oracles.list_extensions(shape, d)
        sides.append((members, oracles.index_of_rows(members)))
    laws = [
        [oracles.gibbs_probabilities(m, edges, lo, v) for m, _ in sides]
        for v in potentials
    ]
    first, second = (hi_data, lo_data) if reverse else (lo_data, hi_data)

    def run():
        region = lattice.make_box((0, 0), (n - 1, n - 1))
        sup = [heights.enumerate_extensions(region, d) for d in (first, second)]
        out = []
        for values in potentials:
            p = potential.Potential(lo, hi, values)
            mu = gibbs.quenched_measure(region, first, p, support=sup[0])
            nu = gibbs.quenched_measure(region, second, p, support=sup[1])
            out.append((mu, nu, analysis.dominance_certificate(mu, nu)))
        return out

    def check(out):
        order = (1, 0) if reverse else (0, 1)
        problems = []
        for (mu, nu, cert), law in zip(out, laws):
            ms = [_members(mu.support), _members(nu.support)]
            for side, m, q in zip(order, ms, (mu.probabilities, nu.probabilities)):
                problems += probability_problems(m, q, sides[side][1], law[side])
            oracle_mu, oracle_nu = (
                aligned(law[side], sides[side][1], m) for side, m in zip(order, ms)
            )
            if reverse:
                if cert.dominated or cert.witness is None:
                    problems.append("reversed pair was not refuted")
                else:
                    problems += oracles.witness_problems(
                        cert.witness, ms[0], ms[1], oracle_mu, oracle_nu
                    )
            elif not cert.dominated:
                problems.append(f"ordered pair not dominated, flow {cert.flow_value}")
            else:
                problems += oracles.coupling_problems(
                    cert.coupling, ms[0], ms[1], oracle_mu, oracle_nu
                )
        return problems

    return Op(f"{'refute' if reverse else 'certify'}-{k}", run, check)


def _sweep_op(pairs, model_seed, a) -> Op:
    def run():
        region = lattice.make_box((0, 0), (4, 4))
        model = potential.PotentialModel("twopoint", a, model_seed)
        return analysis.dominance_sweep(region, pairs, model, draws=2)

    def check(sweep):
        want = 2 * len(pairs)
        if sweep.checks != want or sweep.failures:
            return [f"sweep: {sweep.checks} checks, failures {sweep.failures}"]
        if not sweep.max_marginal_error <= 1e-9:
            return [f"sweep marginal error {sweep.max_marginal_error:.3e}"]
        return []

    return Op("dominance-sweep", run, check)


def _martingale_op(data, a) -> Op:
    n = 5
    shape = (n, n)
    members = oracles.list_extensions(shape, data)
    law = oracles.annealed_twopoint(
        members, oracles.box_edges(shape), oracles.window(shape, data), a
    )
    index = oracles.index_of_rows(members)
    cs = (0.5, 1.0, 1.5, 2.0, 3.0)

    def run():
        region = lattice.make_box((0, 0), (n - 1, n - 1))
        model = potential.PotentialModel("twopoint", a, 0)
        support = heights.enumerate_extensions(region, data)
        interior = sorted(set(region.vertex_list) - set(data))
        walks = analysis.boundary_to_interior_walks(region, list(data), interior)
        probs = gibbs.annealed_member_probabilities(support, model)
        audits = []
        for walk in walks:
            audit = analysis.martingale_audit(region, data, walk, model, support=support)
            tails = [
                analysis.deviation_tail_exact(support, probs, walk[-1], len(walk) * c)
                for c in cs
            ]
            audits.append((audit, tails))
        return support, audits

    def check(out):
        support, audits = out
        mem = _members(support)
        probs = aligned(law, index, mem)
        if not audits:
            return ["no walks"]
        for audit, tails in audits:
            problems = martingale_problems(audit, tails, mem, probs, n, cs)
            if problems:
                return problems
        return []

    return Op("martingale", run, check)


def martingale_problems(audit, tails, members, probs, n, cs) -> list[str]:
    """Increments at most 2, levels equal to the oracle's, tails under Azuma."""
    cols = [v[0] * n + v[1] for v in audit.path]
    if audit.max_diff > 2.0 + 1e-9:
        return [f"increment {audit.max_diff} > 2 on {audit.path}"]
    levels = oracles.conditional_means(members, probs, cols, cols[-1])
    for k, (got, want) in enumerate(zip(audit.levels, levels)):
        if set(got) != set(want):
            return [f"level {k} prefixes differ on {audit.path}"]
        for key, (mass, mean) in want.items():
            if abs(got[key][0] - mass) > 1e-9 or abs(got[key][1] - mean) > 1e-9:
                return [f"level {k} prefix {key} differs on {audit.path}"]
    length = len(audit.path)
    target = members[:, cols[-1]].astype(np.float64)
    dev = np.abs(target - float(target @ probs))
    for c, tail in zip(cs, tails):
        thr = length * c
        # a deviation within rounding of the threshold may fall either side
        lo = float(probs[dev > thr + 1e-9].sum())
        hi = float(probs[dev >= thr - 1e-9].sum())
        if not lo - 1e-9 <= tail <= hi + 1e-9:
            return [f"tail {tail} not in [{lo}, {hi}] at c={c} on {audit.path}"]
        if oracles.azuma(length, c) < 1.0 and tail > oracles.azuma(length, c):
            return [f"tail {tail} over the Azuma envelope at c={c}"]
    return []


_IDENTITIES = re.compile(
    r"^identities: (\d+) instances \((\d+) with dropped edges\), "
    r"max gaps (\S+) / (\S+)$"
)


def _identities_op(seed, samples) -> Op:
    argv = ["verify", "identities", "--samples", str(samples), "--seed", str(seed)]

    def check(out):
        code, text = out
        lines = text.splitlines()
        m = _IDENTITIES.match(lines[0]) if lines else None
        if code != 0 or m is None or lines[-1] != "identities: ok":
            return [f"exit code {code}, output {text!r}"]
        if int(m.group(1)) != samples or int(m.group(2)) < 1:
            return [f"identities ran {m.group(1)} instances, {m.group(2)} nontrivial"]
        if max(float(m.group(3)), float(m.group(4))) > 1e-12:
            return [f"identity gaps {m.group(3)} / {m.group(4)}"]
        return []

    return Op("verify-identities", lambda: _cli(argv), check)


def _fixed_potentials(k, lo, hi, draws):
    """+-1 potentials for pair ``k`` that do not depend on the workload seed."""
    return [
        np.random.default_rng([2111, k, d]).choice([-1.0, 1.0], size=hi - lo + 1)
        for d in draws
    ]


def _exact_lab(seed, rng, workdir) -> list[Op]:
    shift = 2 * int(rng.integers(-2, 3))
    a = float(rng.uniform(0.5, 1.5))
    ring5 = oracles.parity_ring(5, shift)
    ops = [_enumeration_op(n, oracles.parity_ring(n, shift)) for n in range(3, 8)]
    ops.append(_annealed_op(5, ring5, a))
    # The max-flow raises on some potentials, depending on the string-hash
    # order of its nodes (see README.md).  The certificates use fixed
    # potentials, run.py fixes the hash seed, and pair 2 keeps one input on
    # which the flow raises: that operation fails in every round.
    pairs = _ordered_pairs(oracles.parity_ring(5))
    for k, draws in ((0, range(4)), (1, range(4)), (2, [3])):
        lo, hi = _pair_window(*pairs[k])
        ops.append(_certificate_op(k, *pairs[k], _fixed_potentials(k, lo, hi, draws)))
    lower, upper = _ordered_pairs(ring5)[0]
    lo, hi = _pair_window(lower, upper)
    ops.append(
        _certificate_op(0, lower, upper, [rng.choice([-a, a], size=hi - lo + 1)], reverse=True)
    )
    ops.append(_sweep_op(pairs[:2], 0, 1.0))
    ops.append(_martingale_op(ring5, a))
    ops.append(_identities_op(seed, 40))
    return ops
