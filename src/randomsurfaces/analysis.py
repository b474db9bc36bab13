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
import numbers
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .gibbs import (
    QuenchedMeasure,
    annealed_expectation,
    annealed_member_probabilities,
    quenched_measure,
)
from .heights import (
    ExtensionSet,
    HeightFunction,
    _Boundary,
    _boundary,
    _heights,
    _resolve_support,
    as_height_function,
    enumerate_extensions,
    extremal_boundary,
    parity_height,
)
from .lattice import (
    Region,
    Vertex,
    _bfs,
    _distances,
    boundary,
    make_box,
)
from .potential import (
    PotentialModel,
    _check_finite_support,
    sample_potential,
)
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
_PAIR_CAP = 2_000_000  # lower x upper support pairs a flow test may hold
_ORACLE_ATOM_CAP = 20  # distinct configurations the upper-set oracle takes
_ORACLE_TOL = 1e-12  # mass gap the upper-set oracle counts as a violation


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


def _transport_flow(
    compat: np.ndarray, mu: np.ndarray, nu: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Max flow source -> lower i -> compatible upper j -> sink.

    The source edge of lower ``i`` has capacity ``mu[i]``, the sink edge
    of upper ``j`` has ``nu[j]``, and every compatible pair
    (``compat[i, j]``) is uncapacitated.  A greedy pass first fills the
    direct paths row by row; shortest augmenting paths (Edmonds-Karp)
    then finish the flow.  Each search grows breadth-first levels: an
    upper is entered from any compatible lower of the level before, a
    lower from any upper it already sends flow to.

    Residual tests are exact (``> 0.0``).  Every augmentation zeroes its
    bottleneck exactly, so the searches end as in exact arithmetic; a
    per-edge tolerance would let the leftovers add up to a short flow.
    Returns ``(value, flow, lower_side, upper_side)``: the flow matrix,
    and as boolean masks what the last, failed search reached, which is
    the source side of a minimum cut.
    """
    p, q = compat.shape
    flow = np.zeros((p, q))
    src = np.array(mu, dtype=float)  # residual capacity source -> lower
    snk = np.array(nu, dtype=float)  # residual capacity upper -> sink
    for i in np.flatnonzero(src > 0.0):
        for j in np.flatnonzero(compat[i] & (snk > 0.0)):
            flow[i, j] = delta = min(src[i], snk[j])
            src[i] -= delta
            snk[j] -= delta
            if not src[i] > 0.0:
                break
    while True:
        seen_a = src > 0.0
        seen_b = np.zeros(q, dtype=bool)
        via_b = np.full(p, -1)  # upper a lower was entered from (-1: source)
        via_a = np.zeros(q, dtype=np.intp)  # lower an upper was entered from
        front = np.flatnonzero(seen_a)
        end = -1
        while front.size:
            reach = compat[front] & ~seen_b
            new_b = np.flatnonzero(reach.any(axis=0))
            if not new_b.size:
                break
            via_a[new_b] = front[reach[:, new_b].argmax(axis=0)]
            seen_b[new_b] = True
            open_b = new_b[snk[new_b] > 0.0]
            if open_b.size:
                end = int(open_b[0])
                break
            back = (flow[:, new_b] > 0.0) & ~seen_a[:, None]
            front = np.flatnonzero(back.any(axis=1))
            via_b[front] = new_b[back[front].argmax(axis=1)]
            seen_a[front] = True
        if end < 0:
            return float(flow.sum()), flow, seen_a, seen_b
        # walk back from the sink: forward edges (i, j) and backward (i, j')
        forward, backward = [], []
        j = end
        while j >= 0:
            i = int(via_a[j])
            forward.append((i, j))
            j = int(via_b[i])
            if j >= 0:
                backward.append((i, j))
        delta = min(src[i], snk[end], *(flow[e] for e in backward))
        for e in forward:
            flow[e] += delta
        for e in backward:
            flow[e] -= delta
        src[i] -= delta
        snk[end] -= delta


def dominance_certificate(
    lower: QuenchedMeasure,
    upper: QuenchedMeasure,
) -> DominanceCertificate:
    """Strassen test: upper dominates lower iff the transport flow fills.

    The flow runs on the bipartite network source -> lower members
    (capacity = lower mass) -> compatible upper members -> sink
    (capacity = upper mass), where compatibility is pointwise <=; see
    ``_transport_flow``.  A flow of value 1 (up to ``_FLOW_TOL``) is the
    coupling.  Otherwise the lower members its last search reached
    generate an upper set carrying strictly more lower than upper mass:
    ``lower_mass - upper_mass`` is at least ``1 - flow_value``.
    """
    if lower.region.vertex_list != upper.region.vertex_list:
        raise ValueError("measures live on different regions")
    p, q = len(lower), len(upper)
    if p * q > _PAIR_CAP:
        raise ValueError(f"support pair count {p * q} exceeds cap {_PAIR_CAP}")
    if p == 0 or q == 0:
        raise ValueError("degenerate supports")
    compat = _compat_matrix(lower.support, upper.support)
    mu = lower.probabilities
    nu = upper.probabilities

    value, flow, reach_a, reach_b = _transport_flow(compat, mu, nu)
    if value >= 1.0 - _FLOW_TOL:
        err = max(
            float(np.max(np.abs(flow.sum(axis=1) - mu))),
            float(np.max(np.abs(flow.sum(axis=0) - nu))),
        )
        coupling = tuple(
            (int(i), int(j), float(flow[i, j]))
            for i, j in zip(*np.nonzero(flow > 0.0))
        )
        return DominanceCertificate(True, float(value), err, coupling, None)

    a = lower.support.members_array
    above_gen = (a[None, :, :] >= a[reach_a][:, None, :]).all(axis=2).any(axis=0)
    witness = {
        "lower_indices": tuple(int(i) for i in np.nonzero(above_gen)[0]),
        "upper_indices": tuple(int(j) for j in np.nonzero(reach_b)[0]),
        "lower_mass": float(mu[above_gen].sum()),
        "upper_mass": float(nu[reach_b].sum()),
    }
    return DominanceCertificate(False, float(value), 0.0, None, witness)


def dominates_by_upper_sets(
    lower: QuenchedMeasure,
    upper: QuenchedMeasure,
) -> tuple[bool, dict | None]:
    """Exhaustive dominance check over all upper sets of atoms.

    Reference oracle, exponential in the number of distinct
    configurations across both supports; intended for small instances.
    """
    if lower.region.vertex_list != upper.region.vertex_list:
        raise ValueError("measures live on different regions")
    lower_rows = list(map(tuple, lower.support.members_array.tolist()))
    upper_rows = list(map(tuple, upper.support.members_array.tolist()))
    atoms = sorted(set(lower_rows) | set(upper_rows))
    n = len(atoms)
    if n > _ORACLE_ATOM_CAP:
        raise ValueError(f"{n} atoms exceed the oracle cap {_ORACLE_ATOM_CAP}")
    arr = np.asarray(atoms, dtype=np.int64)
    leq = (arr[:, None, :] <= arr[None, :, :]).all(axis=2)
    up_bits = [
        sum(1 << j for j in range(n) if leq[i, j]) for i in range(n)
    ]
    mu_mass = np.zeros(n)
    nu_mass = np.zeros(n)
    index = {a: i for i, a in enumerate(atoms)}
    for row, pr in zip(lower_rows, lower.probabilities):
        mu_mass[index[row]] += pr
    for row, pr in zip(upper_rows, upper.probabilities):
        nu_mass[index[row]] += pr

    worst = None
    for mask in range(1, 1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        if any(up_bits[i] & ~mask for i in members):
            continue  # not upward closed
        mm = float(mu_mass[members].sum())
        nm = float(nu_mass[members].sum())
        if mm > nm + _ORACLE_TOL and (worst is None or mm - nm > worst["gap"]):
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
    realization per draw.  Data that admits no extension raises
    NoExtensionError before the pair's first draw.
    """
    checks = 0
    max_err = 0.0
    failures = []
    for k, (pin_low, pin_high) in enumerate(pinned_pairs):
        sup_low = enumerate_extensions(region, pin_low)
        sup_high = enumerate_extensions(region, pin_high)
        if sup_low.pinned.domain != sup_high.pinned.domain:
            raise ValueError(f"pair {k}: pinned sets differ")
        if not sup_low.pinned.le(sup_high.pinned):
            raise ValueError(f"pair {k}: boundary data not ordered")
        lo1, hi1 = sup_low._boundary.check().window
        lo2, hi2 = sup_high._boundary.check().window
        window = (min(lo1, lo2), max(hi1, hi2))
        for d in range(draws):
            p = sample_potential(model, window, draw=first_draw + d)
            mu = quenched_measure(region, sup_low.pinned, p, sup_low)
            nu = quenched_measure(region, sup_high.pinned, p, sup_high)
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
    A given ``support`` must have been enumerated from ``pinned`` on
    ``region``, else ValueError.
    """
    walk = [tuple(v) for v in path]
    if len(walk) < 1:
        raise ValueError("empty walk")
    for v in walk:
        if v not in region:
            raise ValueError(f"walk vertex {v} lies outside the region")
    if walk[0] not in pinned:
        raise ValueError(f"walk must start at a pinned vertex, got {walk[0]}")
    for a, b in zip(walk, walk[1:]):
        if sum(abs(x - y) for x, y in zip(a, b)) != 1:
            raise ValueError(f"walk step {a} -> {b} is not a lattice edge")
    support = _resolve_support(region, pinned, support)
    probs = annealed_member_probabilities(
        support, model, mode=mode, samples=samples, first_draw=first_draw
    )
    # heights along the walk, as offsets from support.base
    steps = support.offsets.take([region.position(v) for v in walk], axis=1)
    weighted = probs * _heights(steps[:, -1], support.base).astype(float)
    # walk vertices are adjacent, so every member steps by exactly +-1:
    # up[j] is 1 where it goes up from walk[j] to walk[j + 1]
    up = np.ascontiguousarray((steps[:, 1:] > steps[:, :-1]).T, dtype=np.intp)

    # Group members by walk prefix, level by level, numbering the groups
    # in order of first appearance, the order the per-member dict grouping
    # gives.  walk[0] is pinned, so levels 0 and 1 are one group.  A
    # prefix of length k >= 2 is its parent prefix and step k - 2, coded
    # as 2 * (parent group) + up[k - 2], below twice the parent count;
    # minimum.at finds each code's first member.  bincount adds in member
    # order, so every mass and sum is the same float as a member-by-member
    # sum.
    size = len(steps)
    rows = np.arange(size)
    group = np.zeros(size, dtype=np.intp)
    first = rows[:1]
    mass = np.bincount(group, weights=probs)
    mean = np.bincount(group, weights=weighted) / mass
    levels = []
    max_diff = 0.0
    for k in range(len(walk) + 1):
        if k >= 2:
            codes = 2 * group + up[k - 2]
            seen = np.full(2 * len(first), size, dtype=np.intp)
            np.minimum.at(seen, codes, rows)
            first = seen[seen < size]
            first.sort()
            parents = codes[first]
            rank = np.empty_like(seen)
            rank[parents] = np.arange(len(first))
            group = rank[codes]
            parent_mean = mean[parents >> 1]
            mass = np.bincount(group, weights=probs)
            mean = np.bincount(group, weights=weighted) / mass
            diff = np.fmax.reduce(np.abs(mean - parent_mean))
            max_diff = max(max_diff, float(diff))  # a nan never wins, as in max()
        keys = map(tuple, _heights(steps[first, :k], support.base).tolist())
        levels.append(dict(zip(keys, zip(mass.tolist(), mean.tolist()))))

    return MartingaleAudit(
        tuple(walk), levels[0][()][1], tuple(levels), max_diff
    )


def boundary_to_interior_walks(
    region: Region,
    pinned_domain: Iterable[Vertex],
    targets: Iterable[Vertex],
) -> list[list[Vertex]]:
    """Shortest walks from each pinned vertex to each target.

    One breadth-first search per start (sorted); each walk follows that
    search's tree from the start to a target (sorted), skipping the start
    itself.  A start or target outside the region raises ValueError.
    """
    starts = sorted({tuple(v) for v in pinned_domain})
    tgts = sorted({tuple(v) for v in targets})
    for v in (*starts, *tgts):
        if v not in region:
            raise ValueError(f"walk endpoint {v} lies outside the region")
    vertex_list = region.vertex_list
    cols = [region.position(t) for t in tgts]
    walks = []
    for x0 in starts:
        i0 = region.position(x0)
        _, via = _bfs(region._neighbor_positions, [(0, i0)])
        for j in cols:
            if j == i0:
                continue
            pathway = [j]
            while pathway[-1] != i0:
                pathway.append(via[pathway[-1]])
            walks.append([vertex_list[i] for i in reversed(pathway)])
    return walks


def _check_finite_positive(key: str, value: float | tuple[float, ...]) -> None:
    """Reject a value, or a tuple with a value, that is not finite and > 0.

    nan fails too: with a nan c or A no bound is below 1, so no row
    would be judged.  The error names ``key``.
    """
    values = value if isinstance(value, tuple) else (value,)
    if not all(0 < x < math.inf for x in values):
        raise ValueError(f"{key} must be finite and > 0, got {value}")


def azuma_bound(length: int, c: float) -> float:
    """Exponential tail envelope 2 exp(-l c^2 / 2) for a length-l walk."""
    if length < 1:
        raise ValueError("walk length must be >= 1")
    _check_finite_positive("c", c)
    return 2.0 * math.exp(-length * c * c / 2.0)


def concentration_bound(region_size: int, n: int, c: float, A: float) -> float:
    """Union envelope 2 |R| exp(-n c^2 / A) over the region's vertices."""
    if region_size < 1 or n < 1:
        raise ValueError("region size and n must be positive")
    _check_finite_positive("c", c)
    _check_finite_positive("A", A)
    return 2.0 * region_size * math.exp(-n * c * c / A)


def deviation_tail_exact(
    support: ExtensionSet,
    probs: np.ndarray,
    v: Vertex,
    threshold: float | np.ndarray,
) -> float | np.ndarray:
    """P(|h(v) - E h(v)| >= threshold) under member probabilities.

    ``probs`` holds one probability per member of ``support``, ``v`` is a
    vertex of its region and no threshold is nan; else ValueError.  A
    float threshold gives a float, an array of them an array of tails.
    """
    col = support.region._position.get(tuple(v))
    if col is None:
        raise ValueError(f"v = {v} lies outside the region")
    probs = np.asarray(probs)
    if probs.shape != (len(support),):
        raise ValueError(
            f"probs must hold one probability per member ({len(support)}), "
            f"got shape {probs.shape}"
        )
    thr = np.asarray(threshold, dtype=float)
    ts = thr.ravel().tolist()
    if any(map(math.isnan, ts)):
        raise ValueError("threshold must not be nan")
    vals = support.members_array[:, col].astype(float)
    dev = np.abs(vals - float(vals @ probs))
    tails = [float(probs[dev >= t].sum()) for t in ts]
    return np.reshape(tails, thr.shape) if thr.ndim else tails[0]


# ---------------------------------------------------------------------------
# concentration experiments on boxes


def box_boundary_data(
    region: Region, kind: str, direction: int = 1
) -> HeightFunction:
    """Pinned data on the boundary ring: 'parity' or 'extremal'."""
    if kind == "parity":
        return parity_height(region).restrict(boundary(region))
    if kind == "extremal":
        anchor = sum(region._bounds[0]) & 1
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

    def __post_init__(self):
        # checked up front: exact mode never reads start, and mc mode
        # would read it only after building the box and its envelopes
        for key, allowed in (
            ("mode", ("mc", "exact")),
            ("boundary", ("parity", "extremal")),
            ("direction", (1, -1)),
            ("start", ("low", "mid")),
        ):
            value = getattr(self, key)
            if value not in allowed:
                choices = " or ".join(map(repr, allowed))
                raise ValueError(f"{key} must be {choices}, got {value!r}")
        for key in ("ns", "c_values"):
            if not getattr(self, key):
                raise ValueError(f"{key} must name at least one value")
        # checked up front: a bad size would fail only after the sizes
        # before it had run
        if not all(isinstance(n, numbers.Integral) and n >= 1 for n in self.ns):
            raise ValueError(f"ns must be integers >= 1, got {self.ns}")
        _check_finite_positive("A", self.A)
        _check_finite_positive("c_values", self.c_values)
        _check_sampling_knobs(
            {
                key: getattr(self, key)
                for key in ("tail_samples", "mean_draws", "mean_samples_per_draw")
            },
            {key: getattr(self, key) for key in ("burn_factor", "thin_factor")},
        )


def _check_sampling_knobs(
    counts: Mapping[str, int], factors: Mapping[str, float]
) -> None:
    """Reject counts that are not integers >= 1 and factors that are
    negative or not finite.

    The error names the offending argument.  Burn and thin lengths are
    ``round(factor * span^2)`` sweeps, so a factor must be a finite
    number >= 0.
    """
    for key, value in counts.items():
        if not isinstance(value, numbers.Integral):
            raise ValueError(f"{key} must be an integer, got {value!r}")
        if value < 1:
            raise ValueError(f"{key} must be >= 1, got {value}")
    for key, value in factors.items():
        if not 0 <= value < math.inf:  # also rejects nan
            raise ValueError(f"{key} must be finite and >= 0, got {value}")


_SLACK_SIGMAS = 3.0  # binomial standard errors a sampled row may exceed by


@dataclass(frozen=True)
class ReportRow:
    n: int
    c: float
    samples: int
    tail_freq: float
    bound: float
    mean_stderr_max: float

    @property
    def bounded(self) -> bool:
        """Whether the envelope says anything: only such rows are judged."""
        return self.bound < 1.0

    def slack(self) -> float:
        """Binomial standard-error allowance on the observed frequency.

        Zero when ``samples == 0`` (exact mode); otherwise
        ``_SLACK_SIGMAS`` standard errors with a 1/samples variance floor
        so that a zero count still carries uncertainty.
        """
        if self.samples <= 0:
            return 0.0
        var = max(self.tail_freq * (1.0 - self.tail_freq), 1.0 / self.samples)
        return _SLACK_SIGMAS * math.sqrt(var / self.samples)


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

    def violations(self) -> list[ReportRow]:
        """Bounded rows whose tail frequency clears the bound plus slack."""
        return [
            r
            for r in self.rows
            if r.bounded and r.tail_freq > r.bound + r.slack()
        ]


def _max_walk_length(region: Region) -> int:
    """max over v of (graph distance to the boundary ring + 1).

    The ring is the vertices of in-region degree below 2m, as in
    ``boundary``, read as positions off the degree array.
    """
    ring = np.flatnonzero(region._degree < 2 * region.dimension).tolist()
    return int(_distances(region, ring, [0] * len(ring)).max()) + 1


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
    eng: BoxGlauber, per_draw: int, thin: int
) -> tuple[np.ndarray, np.ndarray]:
    """Annealed per-vertex means and their standard errors, by batch MCMC.

    ``per_draw`` configurations, ``thin`` sweeps apart, are averaged per
    chain of the burned-in ``eng``, then across chains.
    """
    draws, n = eng.batch, len(eng.region)
    acc = np.zeros((draws, n))
    for s in range(per_draw):
        if s:
            eng.sweep(thin)
        acc += eng.height_matrix()
    per_chain = acc / per_draw
    mean = per_chain.mean(axis=0)
    stderr = (
        per_chain.std(axis=0, ddof=1) / math.sqrt(draws)
        if draws > 1
        else np.full(n, np.inf)
    )
    return mean, stderr


def _sampled_deviations(
    boundary: _Boundary,
    config: ExperimentConfig,
    seed_key: tuple[int, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """Max-over-vertices |h - annealed mean|, one per fresh draw, by MCMC.

    ``boundary`` is the pinned data's ``heights._Boundary``; the
    potentials live on its window, between the minimal and maximal
    extensions.  Every chain runs under its own potential draw and is
    burned in for burn_factor * span^2 sweeps.  Two groups of chains
    share one engine and are burned together: ``config.mean_draws``
    mean-field chains from draw ``_MEAN_DRAW_OFFSET`` on, on generator seed
    ``seed_key + (1,)``, then ``config.tail_samples`` tail chains from
    draws 0, 1, ... on seed ``seed_key + (2,)``.  Each group draws its
    uniforms from its own generator, so both go through exactly the
    states of two engines burned one after the other.  The tail heights
    are read at the end of the burn; the engine then keeps only the
    mean-field chains, which go on to sample the mean.  Returns
    (deviations, mean-field standard errors).
    """
    window = boundary.window
    span = window[1] - window[0] + 2  # height levels in play
    burn = max(50, int(round(config.burn_factor * span * span)))
    thin = max(1, int(round(config.thin_factor * span * span)))
    groups = []
    for tag, chains, first_draw in (
        (1, config.mean_draws, _MEAN_DRAW_OFFSET),
        (2, config.tail_samples, 0),
    ):
        rng = np.random.default_rng([*seed_key, tag])
        pots = [
            sample_potential(config.model, window, draw=first_draw + d)
            for d in range(chains)
        ]
        groups.append((boundary, rng, pots))
    eng = BoxGlauber(boundary.region, start=config.start, _groups=groups)
    eng.sweep(burn)
    tails = eng._keep_first_group()
    mean, stderr = _mean_field(eng, config.mean_samples_per_draw, thin)
    return np.abs(tails - mean).max(axis=1), stderr


_MEAN_DRAW_OFFSET = 1_000_000  # keeps mean-field draws disjoint from tails
_QUANTILES = (0.5, 0.9, 0.99, 1.0)  # of the max deviation, per size
# Side of the largest box exact mode enumerates: the 7x7 parity ring has
# 64,914 extensions (0.2 s, 138 MB), the 8x8 extremal ring 218,348
# (1.5 s, 760 MB), and the 9x9 extremal ring's 10,850,216 exhaust memory.
_EXACT_MAX_N = 7


def concentration_experiment(config: ExperimentConfig) -> ConcentrationReport:
    """Empirical maximal-deviation tails against the union bound, per box.

    For each n: pin the configured boundary data on the ring of the
    [0, n-1]^2 box, estimate the annealed mean surface, then draw fresh
    environment/configuration samples and record how often the maximal
    absolute deviation reaches c sqrt(n), against
    2 |R| exp(-n c^2 / A).  Exact mode replaces sampling by full
    enumeration, weighting each member by its annealed probability; it
    takes boxes up to ``_EXACT_MAX_N`` on a side and models of finite
    support, and rejects any other input before any work.
    """
    if config.mode == "exact":
        if max(config.ns) > _EXACT_MAX_N:
            raise ValueError(
                f"exact mode enumerates every extension and takes n <= "
                f"{_EXACT_MAX_N}, got n = {max(config.ns)}; use mode = mc"
            )
        _check_finite_support(config.model)
    rows: list[ReportRow] = []
    summaries: list[SizeSummary] = []
    for n in config.ns:
        region = make_box((0, 0), (n - 1, n - 1))
        pinned = box_boundary_data(region, config.boundary, config.direction)
        diam, max_l = _check_hypotheses(region, n, config.A)
        # each mode gives the max deviations and its tail rule at a threshold
        if config.mode == "exact":
            support = enumerate_extensions(region, pinned)
            boundary = support._boundary
            probs = annealed_member_probabilities(support, config.model)
            vals = support.members_array.astype(float)
            devs = np.abs(vals - probs @ vals).max(axis=1)
            tail = lambda thr: float(probs[devs >= thr].sum())
            samples, stderr_max = 0, 0.0
        else:
            boundary = _boundary(region, pinned).check()
            devs, stderr = _sampled_deviations(
                boundary, config, (config.seed, n)
            )
            tail = lambda thr: float((devs >= thr).mean())
            samples, stderr_max = config.tail_samples, float(stderr.max())
        rows += [
            ReportRow(
                n, c, samples, tail(c * math.sqrt(n)),
                concentration_bound(len(region), n, c, config.A), stderr_max,
            )
            for c in config.c_values
        ]
        summaries.append(
            SizeSummary(
                n, len(region), diam, max_l, boundary.window,
                samples, stderr_max,
                tuple((q, float(np.quantile(devs, q))) for q in _QUANTILES),
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
    _check_sampling_knobs(
        {
            "seeds": seeds,
            "mean_draws": mean_draws,
            "mean_samples_per_draw": mean_samples_per_draw,
        },
        {"burn_factor": burn_factor, "thin_factor": thin_factor},
    )
    config = ExperimentConfig(
        model=model, tail_samples=seeds, mean_draws=mean_draws,
        mean_samples_per_draw=mean_samples_per_draw,
        burn_factor=burn_factor, thin_factor=thin_factor, start=start,
    )
    devs = {}
    for tag, n in ((1, n_small), (2, n_large)):
        region = make_box((0, 0), (n - 1, n - 1))
        pinned = box_boundary_data(region, boundary_kind, direction)
        devs[n], _ = _sampled_deviations(
            _boundary(region, pinned).check(), config, (seed, 7, tag)
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
