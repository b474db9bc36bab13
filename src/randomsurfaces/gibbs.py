"""Gibbs measures on extension sets under a height-axis potential.

A height configuration h on a vertex set is scored by the interior
Hamiltonian H(h) = sum over induced edges {x, y} of omega_{min(h(x),
h(y))}: an edge whose endpoint heights are z and z+1 contributes the
potential value at height-axis edge {z, z+1}, so H(h) = sum_z omega_z
N_z(h) with N_z(h) the number of edges whose lower end is at level z;
every H on an extension set is read off those counts.  The quenched
measure weights members by exp H; annealed quantities average the
quenched ones over the potential law.  All weight arithmetic is in log
space; every log Z comes from one numpy log-sum-exp (``_logsumexp``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .heights import (
    ExtensionSet,
    HeightFunction,
    _check_nonempty,
    _envelope_window,
    _pinned_envelopes,
    _resolve_support,
    enumerate_extensions,
    kirszbraun_extendable,
)
from .lattice import Region, Vertex, induced_edges, make_box, outer_extension
from .potential import (
    Potential,
    PotentialModel,
    enumerate_potentials,
    sample_potential,
    shift_even,
)

__all__ = [
    "QuenchedMeasure",
    "AnnealedEstimate",
    "hamiltonian_interior",
    "hamiltonian_plus",
    "partition_function",
    "quenched_measure",
    "quenched_expectation",
    "annealed_expectation",
    "annealed_member_probabilities",
    "required_window",
    "check_relative_complement_identity",
    "check_shift_identity",
    "IdentitySuiteResult",
    "identity_check_suite",
]


def _logsumexp(a, axis=None):
    """log sum exp(a) over all of ``a``, or along ``axis``; finite input.

    The largest term is split off for precision: with a_max the maximum,
    m the number of entries equal to it and s the sum of exp(a - a_max)
    over the others, the result is log1p(s / m) + log(m) + a_max.  This
    is scipy.special.logsumexp's formula for real input (scipy 1.15 and
    later), step for step, so the two agree to the last bit.  An empty
    input gives -inf.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.size == 0:
        return np.full(np.shape(a.sum(axis=axis)), -np.inf)[()]
    a_max = a.max(axis=axis, keepdims=True)
    top = a == a_max
    m = top.sum(axis=axis, dtype=np.float64)
    # one temporary the size of a; a itself (possibly the caller's
    # array, as asarray does not copy float64 input) is never written
    t = np.subtract(a, a_max, out=np.empty_like(a))
    t[top] = -np.inf
    s = np.exp(t, out=t).sum(axis=axis)
    s /= m  # m >= 1, and 0 / m stays 0
    return (np.log1p(s) + np.log(m) + a_max.squeeze(axis))[()]


def _edge_mins(f: HeightFunction) -> np.ndarray:
    """Height-axis indices felt by each induced edge of f's domain."""
    edges = induced_edges(f.domain)
    if not edges:
        return np.empty(0, dtype=np.int64)
    vals = f._map
    return np.asarray(
        [min(vals[x], vals[y]) for x, y in edges], dtype=np.int64
    )


def hamiltonian_interior(f: HeightFunction, p: Potential) -> float:
    """Sum of potential values over the induced edges of f's domain."""
    return float(p.values_at(_edge_mins(f)).sum())


def hamiltonian_plus(
    region: Region, f: HeightFunction, p: Potential
) -> float:
    """Interior Hamiltonian of the outer extension of ``region``.

    ``f`` must assign heights to every vertex of the outer extension
    (the region plus all lattice neighbors of its vertices).
    """
    rplus = outer_extension(region)
    for v in rplus.vertex_list:
        if v not in f:
            raise ValueError(
                f"height data missing at outer-extension vertex {v}"
            )
    return hamiltonian_interior(f.restrict(rplus.vertex_list), p)


def partition_function(
    members: Sequence[HeightFunction], p: Potential
) -> float:
    """log sum of exp(H(g)) over the given height functions."""
    if not members:
        raise ValueError("partition function of an empty family")
    energies = [hamiltonian_interior(g, p) for g in members]
    return float(_logsumexp(energies))


def _hamiltonians(support: ExtensionSet, values, lo: int, edges=slice(None)):
    """Each member's H: ``values`` (one potential, or a row per potential,
    on levels lo, lo + 1, ...) times its counts of ``edges`` by the level
    of their lower end.  A level outside the window raises IndexError."""
    ea, eb = (e[edges] for e in support.region.edge_arrays())
    mins = np.minimum(support.offsets[:, ea], support.offsets[:, eb])
    k0, k1 = (int(mins.min()), int(mins.max())) if mins.size else (0, -1)
    start, hi = support.base + k0 - lo, lo + values.shape[-1] - 1
    if mins.size and (start < 0 or support.base + k1 > hi):
        raise IndexError(f"indices outside potential window [{lo}, {hi}]")
    counts = np.empty((k1 - k0 + 1, len(mins)))  # N_z, z = base + k0, ...
    for k in range(k0, k1 + 1):
        counts[k - k0] = (mins == k).sum(axis=1)
    return values[..., start : start + len(counts)] @ counts


def _active_edges(region: Region, pinned: Sequence[int]) -> np.ndarray:
    """Mask of the edges touching S = region \\ R' or the boundary of R'.

    R' is the pinned set, given by its region positions, and its relative
    boundary the pinned vertices with a free neighbour, so an edge misses
    both exactly when its two ends and all their neighbours are pinned.
    """
    pin = np.zeros(len(region) + 1, dtype=bool)
    pin[pinned] = True
    pin[-1] = True  # the neighbour matrix pads rows with -1
    deep = pin[:-1] & pin[region._neighbors].all(axis=1)
    ea, eb = region.edge_arrays()
    return ~(deep[ea] & deep[eb])


@dataclass(frozen=True)
class QuenchedMeasure:
    """The Gibbs measure exp(H(g)) / Z on a finite extension set."""

    support: ExtensionSet
    potential: Potential
    log_weights: np.ndarray
    log_z: float

    @cached_property
    def probabilities(self) -> np.ndarray:
        return np.exp(self.log_weights - self.log_z)

    @property
    def region(self) -> Region:
        return self.support.region

    def probability_of(self, member: HeightFunction) -> float:
        return float(self.probabilities[self.support.index_of(member)])

    def __len__(self) -> int:
        return len(self.support)


def quenched_measure(
    region: Region,
    pinned: Mapping[Vertex, int],
    p: Potential,
    support: ExtensionSet | None = None,
) -> QuenchedMeasure:
    """Gibbs measure on M(region; pinned) under the potential ``p``.

    Raises NoExtensionError when the pinned data is inextendable.  A
    ``support`` pre-enumerated from the same data on the same region may
    be passed to avoid re-enumeration; any other raises ValueError.
    """
    support = _resolve_support(region, pinned, support)
    _check_nonempty(support)
    lw = _hamiltonians(support, p.values, p.lo)
    return QuenchedMeasure(support, p, lw, float(_logsumexp(lw)))


def quenched_expectation(
    mu: QuenchedMeasure, f: Callable[[HeightFunction], float]
) -> float:
    """E_mu[f] by direct summation over the support."""
    vals = np.asarray([f(g) for g in mu.support], dtype=np.float64)
    return float(vals @ mu.probabilities)


def required_window(
    region: Region, pinned: Mapping[Vertex, int]
) -> tuple[int, int]:
    """Height-axis index window felt by any extension of the pinned data.

    Heights of extensions live in [lo, hi] (see ``height_window``), so
    edges feel indices lo..hi-1.
    """
    return _envelope_window(_pinned_envelopes(region, pinned))


def _annealed_weights_by_potential(
    support: ExtensionSet,
    model: PotentialModel,
    mode: str,
    samples: int,
    first_draw: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Member probabilities under each potential, with potential weights.

    Returns (prob_matrix, pot_weights): prob_matrix[i, j] is the quenched
    probability of member j under potential i.
    """
    _check_nonempty(support)
    lo, hi = _envelope_window(support._boundary)
    if mode == "exact":
        pots = enumerate_potentials(model, (lo, hi))
        values = np.stack([p.values for p, _ in pots])
        weights = np.asarray([w for _, w in pots])
    elif mode == "mc":
        if samples < 1:
            raise ValueError("monte carlo mode needs samples >= 1")
        values = np.stack([
            sample_potential(model, (lo, hi), draw=first_draw + i).values
            for i in range(samples)
        ])
        weights = np.full(samples, 1.0 / samples)
    else:
        raise ValueError(f"mode must be 'exact' or 'mc', got {mode!r}")
    probs = _hamiltonians(support, values, lo)
    probs -= _logsumexp(probs, axis=1)[:, None]
    np.exp(probs, out=probs)
    return probs, weights


@dataclass(frozen=True)
class AnnealedEstimate:
    """An annealed expectation, exact or with a Monte Carlo error bar."""

    value: float
    mode: str
    samples: int = 0
    stderr: float = 0.0


def annealed_expectation(
    region: Region,
    pinned: Mapping[Vertex, int],
    model: PotentialModel,
    f: Callable[[HeightFunction], float],
    mode: str = "exact",
    samples: int = 0,
    first_draw: int = 0,
) -> AnnealedEstimate:
    """E over the potential of E_quenched[f], exactly or by Monte Carlo.

    Exact mode enumerates the potential's support (finite-support models
    only); mc mode averages ``samples`` quenched expectations at
    independent draws and reports the standard error of the mean.
    """
    support = enumerate_extensions(region, pinned)
    fvals = np.asarray([f(g) for g in support], dtype=np.float64)
    probs, weights = _annealed_weights_by_potential(
        support, model, mode, samples, first_draw
    )
    per_potential = probs @ fvals
    value = float(weights @ per_potential)
    if mode == "exact":
        return AnnealedEstimate(value, "exact", len(weights), 0.0)
    n = len(per_potential)
    stderr = float(np.std(per_potential, ddof=1) / np.sqrt(n)) if n > 1 else float("inf")
    return AnnealedEstimate(value, "mc", n, stderr)


def annealed_member_probabilities(
    support: ExtensionSet,
    model: PotentialModel,
    mode: str = "exact",
    samples: int = 0,
    first_draw: int = 0,
) -> np.ndarray:
    """Annealed probability of each member of the extension set.

    The law is computed once per (model, mode, samples, first_draw) and
    kept on ``support``; every call returns a fresh copy of it.
    """
    key = (model, mode, samples, first_draw)
    law = support._annealed_laws.get(key)
    if law is None:
        probs, weights = _annealed_weights_by_potential(
            support, model, mode, samples, first_draw
        )
        law = support._annealed_laws[key] = weights @ probs
    return law.copy()


def check_relative_complement_identity(
    region: Region,
    sub: Iterable[Vertex],
    pinned: Mapping[Vertex, int],
    p: Potential,
    support: ExtensionSet | None = None,
) -> float:
    """Max probability gap between the measure and its localized form.

    Pinning data on a subset R' and reweighting only the edges that touch
    S = (region \\ R') together with the relative boundary of R' must
    reproduce the quenched measure: edges strictly inside the rest of R'
    contribute a weight factor constant across members, which cancels.
    Returns max_g |mu(g) - mu_localized(g)| / mu(g).  ``support`` is as
    for ``quenched_measure``.
    """
    mu = quenched_measure(region, pinned, p, support)
    support = mu.support
    if set(support.pinned.domain) != {tuple(v) for v in sub}:
        raise ValueError("sub must be the pinned vertex set")
    touch = _active_edges(region, support._boundary[0])
    lw = _hamiltonians(support, p.values, p.lo, touch)
    local_probs = np.exp(lw - _logsumexp(lw))
    return float(
        np.max(np.abs(mu.probabilities - local_probs) / mu.probabilities)
    )


def check_shift_identity(
    region: Region,
    pinned: Mapping[Vertex, int],
    p: Potential,
    support: ExtensionSet | None = None,
) -> float:
    """Max probability gap across the even height shift.

    The measure with pinned data raised by 2 under omega must equal the
    measure with the original data under the potential reindexed by 2
    (member g corresponds to g - 2).  ``p`` must cover the window of the
    raised data; the reindexed potential then covers the original.
    Returns the max relative probability difference over members.
    ``support`` is as for ``quenched_measure``; the raised data is always
    enumerated afresh, so that the member alignment below is a real check.
    """
    support = _resolve_support(region, pinned, support)
    mu_raised = quenched_measure(region, support.pinned.shift(2), p)
    mu_base = quenched_measure(region, support.pinned, shift_even(p, 2), support)
    if len(mu_raised) != len(mu_base):
        raise AssertionError("shifted extension sets differ in size")
    # lexicographic member order is preserved by the constant shift
    if not np.array_equal(
        mu_raised.support.members_array, mu_base.support.members_array + 2
    ):
        raise AssertionError("member alignment broken under shift")
    return float(
        np.max(
            np.abs(mu_raised.probabilities - mu_base.probabilities)
            / mu_raised.probabilities
        )
    )


@dataclass(frozen=True)
class IdentitySuiteResult:
    """Outcome of a randomized run of both measure identities.

    ``checks`` counts instances; ``nontrivial_localizations`` counts
    those whose localized reweighting actually dropped at least one
    edge, so the two computation routes differ structurally and the
    comparison is not a tautology.
    """

    checks: int
    nontrivial_localizations: int
    max_relative_complement_gap: float
    max_shift_gap: float


def _cycle_bridge(values_start: int, length: int, rng) -> list[int]:
    """Random +-1 walk of ``length`` steps returning to its start value.

    Gives the height profile along an even cycle: each step is chosen
    uniformly among the signs that keep the remaining distance closable.
    """
    if length % 2:
        raise ValueError("cycle bridge needs an even length")
    vals = [values_start]
    for k in range(1, length):
        remaining = length - k  # edges left after placing position k
        choices = [
            s
            for s in (-1, 1)
            if abs(vals[-1] + s - values_start) <= remaining
        ]
        vals.append(vals[-1] + choices[int(rng.integers(len(choices)))])
    return vals


def _ring_cycle(region: Region) -> list[Vertex]:
    """Boundary vertices of a 2D box in cycle order."""
    (a0, a1), (b0, b1) = region._bounds
    ring = [(a0, j) for j in range(a1, b1)]
    ring += [(i, b1) for i in range(a0, b0)]
    ring += [(b0, j) for j in range(b1, a1, -1)]
    ring += [(i, a1) for i in range(b0, a0, -1)]
    return ring


def _random_pinned_instance(
    trial: int, seed: int
) -> tuple[Region, HeightFunction]:
    """A feasible pinned-data instance for the identity checks.

    Three families cycle by trial index: 1D paths with pinned endpoints,
    2D boxes with a random bridge pinned on the boundary ring, and
    thickly pinned instances (a full random extension pinned everywhere
    except a small patch) whose localization drops interior edges.
    """
    rng = np.random.default_rng((seed, trial))
    family = trial % 3
    if family == 0:
        length = int(rng.integers(3, 8))
        region = make_box((0,), (length - 1,))
        z0 = 2 * int(rng.integers(-2, 3))
        walk = [z0]
        for _ in range(length - 1):
            walk.append(walk[-1] + (1 if rng.random() < 0.5 else -1))
        data = HeightFunction.from_dict(
            {(0,): walk[0], (length - 1,): walk[-1]}
        )
        return region, data
    n0 = int(rng.integers(3, 5))
    n1 = int(rng.integers(3, 5))
    region = make_box((0, 0), (n0 - 1, n1 - 1))
    cycle = _ring_cycle(region)
    z0 = 2 * int(rng.integers(-2, 3))
    # a bridge can be valid around the cycle yet break the shorter
    # across-the-box metric constraints; resample until it extends.  A
    # thick trial enumerates each bridge, as it needs the members anyway
    while True:
        vals = _cycle_bridge(z0, len(cycle), rng)
        ring_data = HeightFunction.from_dict(dict(zip(cycle, vals)))
        if family == 1:
            if kirszbraun_extendable(region, ring_data):
                return region, ring_data
        else:
            support = enumerate_extensions(region, ring_data)
            if len(support):
                break
    g = support.members[int(rng.integers(len(support)))]
    patch = {region.vertex_list[int(rng.integers(len(region)))]}
    nbrs = [
        region.vertex_list[j]
        for j in region.neighbor_positions(region.position(next(iter(patch))))
    ]
    if nbrs and rng.random() < 0.5:
        patch.add(nbrs[int(rng.integers(len(nbrs)))])
    keep = [v for v in region.vertex_list if v not in patch]
    return region, g.restrict(keep)


def identity_check_suite(samples: int = 100, seed: int = 0) -> IdentitySuiteResult:
    """Run both measure identities on randomized feasible instances.

    Alternates uniform and two-point potentials across trials and
    returns the worst relative probability gaps observed.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    worst_rel = worst_shift = 0.0
    nontrivial = 0
    for trial in range(samples):
        region, data = _random_pinned_instance(trial, seed)
        model = (
            PotentialModel("uniform", 2.0, seed + 1)
            if trial % 2
            else PotentialModel("twopoint", 1.0, seed + 2)
        )
        support = enumerate_extensions(region, data)
        wlo, whi = _envelope_window(support._boundary)
        p = sample_potential(model, (wlo, whi + 2), draw=trial)
        # the localized route omits an edge's weight as constant
        nontrivial += not _active_edges(region, support._boundary[0]).all()
        worst_rel = max(
            worst_rel,
            check_relative_complement_identity(
                region, data.domain, data, p, support=support
            ),
        )
        worst_shift = max(
            worst_shift, check_shift_identity(region, data, p, support=support)
        )
    return IdentitySuiteResult(samples, nontrivial, worst_rel, worst_shift)
