"""Order, martingale, and concentration analysis for height measures.

Three layers:

* stochastic dominance between two quenched measures on a common
  region, certified by an exact optimal-transport feasibility flow
  (a coupling supported on ordered pairs) or refuted by an upper-set
  witness extracted from the minimum cut;
* a conditional-expectation audit along a vertex walk: exposing the
  pinned-to-interior martingale whose increments are bounded by 2, and
  the resulting exponential tail bounds;
* sampling experiments on growing boxes that compare empirical maximal
  deviations of the surface from its annealed mean against the
  2 |R| exp(-n c^2 / A) envelope, including a paired-seed scaling probe.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import networkx as nx
import numpy as np

from .gibbs import (
    QuenchedMeasure,
    annealed_expectation,
    annealed_member_probabilities,
    quenched_measure,
    required_window,
)
from .heights import (
    ExtensionSet,
    HeightFunction,
    as_height_function,
    enumerate_extensions,
    extremal_boundary,
    parity_height,
)
from .lattice import (
    Region,
    Vertex,
    boundary,
    make_box,
    multi_source_distances,
)
from .potential import PotentialModel, sample_potential
from .sampler import BoxGlauber

__all__ = [
    "DominanceCertificate",
    "dominance_certificate",
    "dominates_by_upper_sets",
    "DominanceSweep",
    "dominance_sweep",
    "two_point_comparison",
    "MartingaleAudit",
    "martingale_audit",
    "boundary_to_interior_walks",
    "azuma_bound",
    "concentration_bound",
    "deviation_tail_exact",
    "ExperimentConfig",
    "ReportRow",
    "SizeSummary",
    "ConcentrationReport",
    "concentration_experiment",
    "ScalingResult",
    "scaling_check",
    "box_boundary_data",
]

_FLOW_TOL = 1e-9


# ---------------------------------------------------------------------------
# stochastic dominance


@dataclass(frozen=True)
class DominanceCertificate:
    """Outcome of a dominance test between two quenched measures.

    ``dominated`` means the second (upper) measure stochastically
    dominates the first: a coupling concentrated on pointwise-ordered
    pairs exists.  ``coupling`` lists (lower index, upper index, mass)
    triples; ``witness`` on failure names an upper set with more lower
    than upper mass.
    """

    dominated: bool
    flow_value: float
    max_marginal_error: float
    coupling: tuple[tuple[int, int, float], ...] | None
    witness: dict | None


def _compat_matrix(lower: ExtensionSet, upper: ExtensionSet) -> np.ndarray:
    a = lower.members_array
    b = upper.members_array
    return (a[:, None, :] <= b[None, :, :]).all(axis=2)


def dominance_certificate(
    lower: QuenchedMeasure,
    upper: QuenchedMeasure,
    pair_cap: int = 2_000_000,
) -> DominanceCertificate:
    """Strassen test: upper dominates lower iff the transport flow fills.

    Builds the bipartite network source -> lower members (capacity =
    lower mass) -> compatible upper members -> sink (capacity = upper
    mass), where compatibility is pointwise <=.  Max-flow 1 yields the
    coupling; otherwise the lower members reachable in the residual
    graph generate an upper set carrying strictly more lower mass.
    """
    if lower.region.vertex_list != upper.region.vertex_list:
        raise ValueError("measures live on different regions")
    p, q = len(lower), len(upper)
    if p * q > pair_cap:
        raise ValueError(f"support pair count {p * q} exceeds cap {pair_cap}")
    compat = _compat_matrix(lower.support, upper.support)
    mu = lower.probabilities
    nu = upper.probabilities

    G = nx.DiGraph()
    for i in range(p):
        G.add_edge("s", ("a", i), capacity=float(mu[i]))
    for j in range(q):
        G.add_edge(("b", j), "t", capacity=float(nu[j]))
    ai, bj = np.nonzero(compat)
    for i, j in zip(ai.tolist(), bj.tolist()):
        G.add_edge(("a", i), ("b", j), capacity=2.0)
    if "s" not in G or "t" not in G:
        raise ValueError("degenerate supports")

    value, flow = nx.maximum_flow(G, "s", "t")
    if value >= 1.0 - _FLOW_TOL:
        coupling = []
        row_sums = np.zeros(p)
        col_sums = np.zeros(q)
        for i in range(p):
            for tgt, f in flow[("a", i)].items():
                if tgt == "s" or f <= 0.0:
                    continue
                j = tgt[1]
                coupling.append((i, j, float(f)))
                row_sums[i] += f
                col_sums[j] += f
        err = max(
            float(np.max(np.abs(row_sums - mu))),
            float(np.max(np.abs(col_sums - nu))),
        )
        return DominanceCertificate(
            True, float(value), err, tuple(sorted(coupling)), None
        )

    # residual reachability from the source gives the min cut
    reach_a: set[int] = set()
    reach_b: set[int] = set()
    seen = {"s"}
    stack = ["s"]
    while stack:
        node = stack.pop()
        for _, tgt, cap in G.out_edges(node, data="capacity"):
            f = flow[node].get(tgt, 0.0)
            if cap - f > _FLOW_TOL and tgt not in seen:
                seen.add(tgt)
                stack.append(tgt)
        for src, _, _ in G.in_edges(node, data="capacity"):
            if flow[src].get(node, 0.0) > _FLOW_TOL and src not in seen:
                seen.add(src)
                stack.append(src)
    for node in seen:
        if isinstance(node, tuple):
            (reach_a if node[0] == "a" else reach_b).add(node[1])

    gen = sorted(reach_a)
    a = lower.support.members_array
    above_gen = (a[None, :, :] >= a[gen][:, None, :]).all(axis=2).any(axis=0)
    upper_in = compat[gen].any(axis=0)
    witness = {
        "lower_indices": tuple(int(i) for i in np.nonzero(above_gen)[0]),
        "upper_indices": tuple(int(j) for j in np.nonzero(upper_in)[0]),
        "lower_mass": float(mu[above_gen].sum()),
        "upper_mass": float(nu[upper_in].sum()),
    }
    return DominanceCertificate(False, float(value), 0.0, None, witness)


def dominates_by_upper_sets(
    lower: QuenchedMeasure,
    upper: QuenchedMeasure,
    atom_cap: int = 20,
    tol: float = 1e-12,
) -> tuple[bool, dict | None]:
    """Exhaustive dominance check over all upper sets of atoms.

    Reference oracle, exponential in the number of distinct
    configurations across both supports; intended for small instances.
    """
    if lower.region.vertex_list != upper.region.vertex_list:
        raise ValueError("measures live on different regions")
    atoms = sorted(
        {m.heights for m in lower.support} | {m.heights for m in upper.support}
    )
    n = len(atoms)
    if n > atom_cap:
        raise ValueError(f"{n} atoms exceed the oracle cap {atom_cap}")
    arr = np.asarray(atoms, dtype=np.int64)
    leq = (arr[:, None, :] <= arr[None, :, :]).all(axis=2)
    up_bits = [
        sum(1 << j for j in range(n) if leq[i, j]) for i in range(n)
    ]
    mu_mass = np.zeros(n)
    nu_mass = np.zeros(n)
    index = {a: i for i, a in enumerate(atoms)}
    for m, pr in zip(lower.support, lower.probabilities):
        mu_mass[index[m.heights]] += pr
    for m, pr in zip(upper.support, upper.probabilities):
        nu_mass[index[m.heights]] += pr

    worst = None
    for mask in range(1, 1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        if any(up_bits[i] & ~mask for i in members):
            continue  # not upward closed
        mm = float(mu_mass[members].sum())
        nm = float(nu_mass[members].sum())
        if mm > nm + tol and (worst is None or mm - nm > worst["gap"]):
            worst = {
                "atoms": tuple(atoms[i] for i in members),
                "lower_mass": mm,
                "upper_mass": nm,
                "gap": mm - nm,
            }
    return (worst is None), worst


@dataclass(frozen=True)
class DominanceSweep:
    """Aggregate of dominance certificates over pairs x potential draws."""

    pairs: int
    draws: int
    checks: int
    max_marginal_error: float
    failures: tuple[tuple[int, int, float], ...]  # (pair, draw, flow value)


def dominance_sweep(
    region: Region,
    pinned_pairs: Sequence[tuple[Mapping[Vertex, int], Mapping[Vertex, int]]],
    model: PotentialModel,
    draws: int,
    first_draw: int = 0,
) -> DominanceSweep:
    """Certify dominance for each ordered boundary pair under each draw.

    Each pair (low data, high data) must be pinned on a common vertex
    set with low <= high pointwise; both measures see the same potential
    realization per draw.
    """
    checks = 0
    max_err = 0.0
    failures = []
    for k, (pin_low, pin_high) in enumerate(pinned_pairs):
        low_f = as_height_function(pin_low)
        high_f = as_height_function(pin_high)
        if low_f.domain != high_f.domain:
            raise ValueError(f"pair {k}: pinned sets differ")
        if not low_f.le(high_f):
            raise ValueError(f"pair {k}: boundary data not ordered")
        sup_low = enumerate_extensions(region, low_f)
        sup_high = enumerate_extensions(region, high_f)
        lo1, hi1 = required_window(region, low_f)
        lo2, hi2 = required_window(region, high_f)
        window = (min(lo1, lo2), max(hi1, hi2))
        for d in range(draws):
            p = sample_potential(model, window, draw=first_draw + d)
            mu = quenched_measure(region, low_f, p, support=sup_low)
            nu = quenched_measure(region, high_f, p, support=sup_high)
            cert = dominance_certificate(mu, nu)
            checks += 1
            if cert.dominated:
                max_err = max(max_err, cert.max_marginal_error)
            else:
                failures.append((k, d, cert.flow_value))
    return DominanceSweep(
        len(pinned_pairs), draws, checks, max_err, tuple(failures)
    )


def two_point_comparison(
    region: Region,
    pinned_low: Mapping[Vertex, int],
    pinned_high: Mapping[Vertex, int],
    v: Vertex,
    model: PotentialModel,
    mode: str = "exact",
    samples: int = 0,
    first_draw: int = 0,
):
    """Annealed means of h(v) under two boundary datasets differing by <= 2.

    Checks the premise low <= high + 2 pointwise and returns the two
    AnnealedEstimates (low side, high side); the monotonicity conclusion
    is mean_low <= mean_high + 2.
    """
    low_f = as_height_function(pinned_low)
    high_f = as_height_function(pinned_high)
    if low_f.domain != high_f.domain:
        raise ValueError("boundary datasets must share a pinned set")
    if not low_f.le(high_f.shift(2)):
        raise ValueError("premise needs low <= high + 2 pointwise")
    v = tuple(v)
    f = lambda g: float(g[v])
    lhs = annealed_expectation(
        region, low_f, model, f, mode=mode, samples=samples,
        first_draw=first_draw,
    )
    rhs = annealed_expectation(
        region, high_f, model, f, mode=mode, samples=samples,
        first_draw=first_draw + samples,
    )
    return lhs, rhs


# ---------------------------------------------------------------------------
# martingale audit and tail bounds


@dataclass(frozen=True)
class MartingaleAudit:
    """Conditional means of h(target) along a walk from the pinned set.

    ``levels[k]`` maps each reachable prefix of the first k walk values
    to (probability mass, conditional mean of h(target)).  Level 0 has
    the empty prefix: the unconditional mean.  ``max_diff`` is the
    largest |child mean - parent mean| across consecutive levels; the
    exposed sequence is a Doob martingale, so each difference is at
    most 2 in exact arithmetic.
    """

    path: tuple[Vertex, ...]
    target_mean: float
    levels: tuple[dict[tuple[int, ...], tuple[float, float]], ...]
    max_diff: float


def martingale_audit(
    region: Region,
    pinned: Mapping[Vertex, int],
    path: Sequence[Vertex],
    model: PotentialModel,
    mode: str = "exact",
    samples: int = 0,
    first_draw: int = 0,
    support: ExtensionSet | None = None,
) -> MartingaleAudit:
    """Expose the value-revealing martingale along ``path``.

    The walk must start at a pinned vertex and move through adjacent
    vertices of the region to the target path[-1].  Member probabilities
    are annealed (exactly for finite-support models, else Monte Carlo).
    """
    pinned_f = as_height_function(pinned)
    walk = [tuple(v) for v in path]
    if len(walk) < 1:
        raise ValueError("empty walk")
    if walk[0] not in pinned_f:
        raise ValueError(f"walk must start at a pinned vertex, got {walk[0]}")
    for a, b in zip(walk, walk[1:]):
        if sum(abs(x - y) for x, y in zip(a, b)) != 1:
            raise ValueError(f"walk step {a} -> {b} is not a lattice edge")
    if support is None:
        support = enumerate_extensions(region, pinned_f)
    probs = annealed_member_probabilities(
        support, model, mode=mode, samples=samples, first_draw=first_draw
    )
    cols = [region.position(v) for v in walk]
    vals = support.members_array[:, cols]  # (members, walk length)
    target = support.members_array[:, region.position(walk[-1])].astype(float)

    levels = []
    for k in range(len(walk) + 1):
        groups: dict[tuple[int, ...], tuple[float, float]] = {}
        keys = [tuple(int(z) for z in row[:k]) for row in vals]
        acc: dict[tuple[int, ...], list[float]] = {}
        for key, pr, tv in zip(keys, probs, target):
            mass_sum = acc.setdefault(key, [0.0, 0.0])
            mass_sum[0] += pr
            mass_sum[1] += pr * tv
        for key, (mass, wsum) in acc.items():
            groups[key] = (mass, wsum / mass)
        levels.append(groups)

    max_diff = 0.0
    for k in range(len(walk)):
        for key, (_, child_mean) in levels[k + 1].items():
            parent_mean = levels[k][key[:k]][1]
            max_diff = max(max_diff, abs(child_mean - parent_mean))
    return MartingaleAudit(
        tuple(walk), levels[0][()][1], tuple(levels), max_diff
    )


def boundary_to_interior_walks(
    region: Region,
    pinned_domain: Iterable[Vertex],
    targets: Iterable[Vertex],
) -> list[list[Vertex]]:
    """Shortest walks from each pinned vertex to each target (BFS paths)."""
    starts = sorted({tuple(v) for v in pinned_domain})
    tgts = sorted({tuple(v) for v in targets})
    walks = []
    for x0 in starts:
        # BFS tree rooted at x0
        parent: dict[Vertex, Vertex | None] = {x0: None}
        queue = deque([x0])
        while queue:
            cur = queue.popleft()
            i = region.position(cur)
            for j in region.neighbor_positions(i):
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


def azuma_bound(length: int, c: float) -> float:
    """Exponential tail envelope 2 exp(-l c^2 / 2) for a length-l walk."""
    if length < 1:
        raise ValueError("walk length must be >= 1")
    if c <= 0:
        raise ValueError("c must be positive")
    return 2.0 * math.exp(-length * c * c / 2.0)


def concentration_bound(region_size: int, n: int, c: float, A: float) -> float:
    """Union envelope 2 |R| exp(-n c^2 / A) over the region's vertices."""
    if region_size < 1 or n < 1:
        raise ValueError("region size and n must be positive")
    if c <= 0 or A <= 0:
        raise ValueError("c and A must be positive")
    return 2.0 * region_size * math.exp(-n * c * c / A)


def deviation_tail_exact(
    support: ExtensionSet,
    probs: np.ndarray,
    v: Vertex,
    threshold: float,
) -> float:
    """P(|h(v) - E h(v)| >= threshold) under member probabilities."""
    col = support.region.position(tuple(v))
    vals = support.members_array[:, col].astype(float)
    mean = float(vals @ probs)
    return float(probs[np.abs(vals - mean) >= threshold].sum())


# ---------------------------------------------------------------------------
# concentration experiments on boxes


def box_boundary_data(
    region: Region, kind: str, direction: int = 1
) -> HeightFunction:
    """Pinned data on the boundary ring: 'parity' or 'extremal'."""
    if kind == "parity":
        return parity_height(region).restrict(boundary(region))
    if kind == "extremal":
        arr = np.asarray(region.vertex_list, dtype=np.int64)
        anchor_vertex = tuple(int(x) for x in arr.min(axis=0))
        anchor = sum(anchor_vertex) & 1
        return extremal_boundary(region, direction, anchor)
    raise ValueError(f"boundary kind must be 'parity' or 'extremal', got {kind!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs for the box concentration experiment (all deterministic)."""

    ns: tuple[int, ...] = (9, 15, 25)
    c_values: tuple[float, ...] = (0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)
    model: PotentialModel = PotentialModel("twopoint", 1.0, 0)
    boundary: str = "extremal"
    direction: int = 1
    A: float = 2.0
    mode: str = "mc"
    tail_samples: int = 400
    mean_draws: int = 200
    mean_samples_per_draw: int = 50
    burn_factor: float = 2.0  # burn sweeps = factor * (height span)^2
    thin_factor: float = 0.125  # thin sweeps = factor * (height span)^2
    start: str = "mid"
    seed: int = 0


@dataclass(frozen=True)
class ReportRow:
    n: int
    c: float
    samples: int
    tail_freq: float
    bound: float
    mean_stderr_max: float

    def slack(self, sigmas: float = 3.0) -> float:
        """Binomial standard-error allowance on the observed frequency.

        Zero when ``samples == 0`` (exact mode); otherwise ``sigmas``
        standard errors with a 1/samples variance floor so that a zero
        count still carries uncertainty.
        """
        if self.samples <= 0:
            return 0.0
        var = max(self.tail_freq * (1.0 - self.tail_freq), 1.0 / self.samples)
        return sigmas * math.sqrt(var / self.samples)


@dataclass(frozen=True)
class SizeSummary:
    n: int
    region_size: int
    diam_l1: int
    max_walk_length: int
    window: tuple[int, int]
    samples: int
    mean_stderr_max: float
    dev_quantiles: tuple[tuple[float, float], ...]  # (quantile, value)


@dataclass(frozen=True)
class ConcentrationReport:
    rows: tuple[ReportRow, ...]
    summaries: tuple[SizeSummary, ...]
    config: ExperimentConfig

    def to_csv(self) -> str:
        lines = ["n,c,samples,tail_freq,bound,mean_stderr_max"]
        for r in self.rows:
            lines.append(
                f"{r.n},{r.c:.10g},{r.samples},{r.tail_freq:.10g},"
                f"{r.bound:.10g},{r.mean_stderr_max:.10g}"
            )
        return "\n".join(lines) + "\n"

    def violations(self, sigmas: float = 3.0) -> list[ReportRow]:
        """Rows with bound < 1 whose tail frequency clears the bound.

        The slack is ``sigmas`` binomial standard errors of the observed
        frequency (zero in exact mode, where samples == 0).
        """
        return [
            r
            for r in self.rows
            if r.bound < 1.0 and r.tail_freq > r.bound + r.slack(sigmas)
        ]


def _max_walk_length(region: Region) -> int:
    """max over v of (graph distance to the boundary ring + 1)."""
    ring = dict.fromkeys(boundary(region), 0)
    return int(multi_source_distances(region, ring).max()) + 1


def _check_hypotheses(region: Region, n: int, A: float) -> tuple[int, int]:
    diam = region.l1_diameter()
    max_l = _max_walk_length(region)
    if diam > A * n:
        raise ValueError(
            f"l1 diameter {diam} exceeds A*n = {A * n}; enlarge A"
        )
    if 2 * max_l > A * n:
        raise ValueError(
            f"max walk length {max_l} exceeds A*n/2 = {A * n / 2}; enlarge A"
        )
    return diam, max_l


def _mean_field(
    region: Region,
    pinned: HeightFunction,
    model: PotentialModel,
    window: tuple[int, int],
    draws: int,
    per_draw: int,
    burn: int,
    thin: int,
    start: str,
    seed_key: Sequence[int],
    first_draw: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Annealed per-vertex means and their standard errors, by batch MCMC.

    One chain per potential draw; after burn-in, ``per_draw`` thinned
    configurations are averaged per chain, then across chains.
    """
    pots = [
        sample_potential(model, window, draw=first_draw + d)
        for d in range(draws)
    ]
    rng = np.random.default_rng(list(seed_key))
    eng = BoxGlauber(region, pinned, pots, rng, start=start)
    eng.sweep(burn)
    acc = np.zeros((draws, len(region)))
    for s in range(per_draw):
        if s:
            eng.sweep(thin)
        acc += eng.height_matrix()
    per_chain = acc / per_draw
    mean = per_chain.mean(axis=0)
    stderr = (
        per_chain.std(axis=0, ddof=1) / math.sqrt(draws)
        if draws > 1
        else np.full(len(region), np.inf)
    )
    return mean, stderr


def _deviation_samples(
    region: Region,
    pinned: HeightFunction,
    model: PotentialModel,
    window: tuple[int, int],
    count: int,
    burn: int,
    start: str,
    seed_key: Sequence[int],
    first_draw: int,
    mean: np.ndarray,
) -> np.ndarray:
    """Max-over-vertices absolute deviation, one sample per fresh draw."""
    pots = [
        sample_potential(model, window, draw=first_draw + d)
        for d in range(count)
    ]
    rng = np.random.default_rng(list(seed_key))
    eng = BoxGlauber(region, pinned, pots, rng, start=start)
    eng.sweep(burn)
    H = eng.height_matrix()
    return np.abs(H - mean).max(axis=1)


_MEAN_DRAW_OFFSET = 1_000_000  # keeps mean-field draws disjoint from tails


def concentration_experiment(config: ExperimentConfig) -> ConcentrationReport:
    """Empirical maximal-deviation tails against the union bound, per box.

    For each n: pin the configured boundary data on the ring of the
    [0, n-1]^2 box, estimate the annealed mean surface, then draw fresh
    environment/configuration samples and record how often the maximal
    absolute deviation reaches c sqrt(n), against
    2 |R| exp(-n c^2 / A).  Exact mode replaces sampling by full
    enumeration (tiny boxes only).
    """
    rows: list[ReportRow] = []
    summaries: list[SizeSummary] = []
    qs = (0.5, 0.9, 0.99, 1.0)
    for n in config.ns:
        region = make_box((0, 0), (n - 1, n - 1))
        pinned = box_boundary_data(region, config.boundary, config.direction)
        diam, max_l = _check_hypotheses(region, n, config.A)
        window = required_window(region, pinned)

        if config.mode == "exact":
            support = enumerate_extensions(region, pinned)
            probs = annealed_member_probabilities(support, config.model)
            vals = support.members_array.astype(float)
            mean = probs @ vals
            devs_by_member = np.abs(vals - mean).max(axis=1)
            for c in config.c_values:
                thr = c * math.sqrt(n)
                tail = float(probs[devs_by_member >= thr].sum())
                rows.append(
                    ReportRow(
                        n, c, 0, tail,
                        concentration_bound(len(region), n, c, config.A),
                        0.0,
                    )
                )
            dev_q = tuple(
                (q, float(np.quantile(devs_by_member, q))) for q in qs
            )
            summaries.append(
                SizeSummary(
                    n, len(region), diam, max_l, window, 0, 0.0, dev_q,
                )
            )
            continue

        span = window[1] - window[0] + 2  # height levels in play
        burn = max(50, int(round(config.burn_factor * span * span)))
        thin = max(1, int(round(config.thin_factor * span * span)))
        mean, stderr = _mean_field(
            region, pinned, config.model, window,
            config.mean_draws, config.mean_samples_per_draw,
            burn, thin, config.start,
            (config.seed, n, 1), _MEAN_DRAW_OFFSET,
        )
        devs = _deviation_samples(
            region, pinned, config.model, window,
            config.tail_samples, burn, config.start,
            (config.seed, n, 2), 0, mean,
        )
        stderr_max = float(stderr.max())
        for c in config.c_values:
            thr = c * math.sqrt(n)
            tail = float((devs >= thr).mean())
            rows.append(
                ReportRow(
                    n, c, config.tail_samples, tail,
                    concentration_bound(len(region), n, c, config.A),
                    stderr_max,
                )
            )
        dev_q = tuple((q, float(np.quantile(devs, q))) for q in qs)
        summaries.append(
            SizeSummary(
                n, len(region), diam, max_l, window,
                config.tail_samples, stderr_max, dev_q,
            )
        )
    return ConcentrationReport(tuple(rows), tuple(summaries), config)


@dataclass(frozen=True)
class ScalingResult:
    """Paired-seed comparison of normalized max deviations at two sizes."""

    n_small: int
    n_large: int
    seeds: int
    dev_small: tuple[float, ...]
    dev_large: tuple[float, ...]
    fraction_decreasing: float


def scaling_check(
    model: PotentialModel,
    n_small: int = 25,
    n_large: int = 100,
    seeds: int = 50,
    boundary_kind: str = "extremal",
    direction: int = 1,
    mean_draws: int = 60,
    mean_samples_per_draw: int = 10,
    burn_factor: float = 0.25,
    thin_factor: float = 0.02,
    start: str = "mid",
    seed: int = 0,
) -> ScalingResult:
    """Does max |h - mean| / n shrink with n, seed by seed?

    The d-th tail sample at both sizes shares the environment stream
    (draw index d), pairing the disorder; the fraction of pairs with a
    strict decrease of the normalized deviation is returned.
    """
    devs = {}
    for tag, n in ((1, n_small), (2, n_large)):
        region = make_box((0, 0), (n - 1, n - 1))
        pinned = box_boundary_data(region, boundary_kind, direction)
        window = required_window(region, pinned)
        span = window[1] - window[0] + 2
        burn = max(50, int(round(burn_factor * span * span)))
        thin = max(1, int(round(thin_factor * span * span)))
        mean, _ = _mean_field(
            region, pinned, model, window,
            mean_draws, mean_samples_per_draw, burn, thin, start,
            (seed, 7, tag, 1), _MEAN_DRAW_OFFSET,
        )
        devs[n] = _deviation_samples(
            region, pinned, model, window,
            seeds, burn, start, (seed, 7, tag, 2), 0, mean,
        )
    small = devs[n_small] / n_small
    large = devs[n_large] / n_large
    frac = float((large < small).mean())
    return ScalingResult(
        n_small, n_large, seeds,
        tuple(float(x) for x in devs[n_small]),
        tuple(float(x) for x in devs[n_large]),
        frac,
    )
