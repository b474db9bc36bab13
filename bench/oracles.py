"""Independent reference computations for the benchmark's checks.

Standard library and numpy only, and none of randomsurfaces' algorithms.
A box is [0, n0-1] x [0, n1-1]; its vertices are taken in row-major
order, which is the lexicographic order the package uses, so the flat
index i * n1 + j is vertex (i, j).  Pinned data is a dict mapping
(i, j) to an integer height.

On a box the graph distance is the l1 distance, so the extension
envelopes, the height window, the l1 diameter and the longest walk from
the boundary ring all have closed forms.  Extensions are counted and
listed by a row-by-row transfer matrix.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


# ---------------------------------------------------------------------------
# closed-form box facts


def ring(n0: int, n1: int) -> list[tuple[int, int]]:
    """Vertices of the box with a lattice neighbour outside it."""
    return [
        (i, j)
        for i in range(n0)
        for j in range(n1)
        if i in (0, n0 - 1) or j in (0, n1 - 1)
    ]


def parity_ring(n: int, shift: int = 0) -> dict[tuple[int, int], int]:
    """h(i, j) = (i + j) mod 2 + shift on the ring of the n x n box."""
    return {v: (v[0] + v[1]) % 2 + shift for v in ring(n, n)}


def extremal_ring(n: int, direction: int = 1, shift: int = 0):
    """h(i, j) = shift + direction * |i - j| on the ring of the n x n box."""
    return {v: shift + direction * abs(v[0] - v[1]) for v in ring(n, n)}


def envelopes(shape, pinned) -> tuple[np.ndarray, np.ndarray]:
    """low(v) = max_x h(x) - |x - v|_1 and high(v) = min_x h(x) + |x - v|_1."""
    ii, jj = np.indices(shape)
    low = np.full(shape, np.iinfo(np.int64).min // 4, dtype=np.int64)
    high = np.full(shape, np.iinfo(np.int64).max // 4, dtype=np.int64)
    for (x0, x1), z in pinned.items():
        d = np.abs(ii - x0) + np.abs(jj - x1)
        np.maximum(low, z - d, out=low)
        np.minimum(high, z + d, out=high)
    return low, high


def window(shape, pinned) -> tuple[int, int]:
    """Height-axis edge indices any extension can feel: [lo, hi - 1]."""
    low, high = envelopes(shape, pinned)
    lo, hi = int(low.min()), int(high.max())
    return (lo, lo) if hi == lo else (lo, hi - 1)


def diam_l1(n0: int, n1: int) -> int:
    return (n0 - 1) + (n1 - 1)


def max_walk(n0: int, n1: int) -> int:
    """max over v of (distance from v to the ring) + 1."""
    return (min(n0, n1) - 1) // 2 + 1


def concentration_bound(n: int, c: float, A: float) -> float:
    """2 |R| exp(-n c^2 / A) for the n x n box."""
    return 2.0 * n * n * math.exp(-n * c * c / A)


def binomial_slack(freq: float, samples: int, sigmas: float = 3.0) -> float:
    """sigmas standard errors of a frequency, with a 1/samples floor."""
    if samples <= 0:
        return 0.0
    var = max(freq * (1.0 - freq), 1.0 / samples)
    return sigmas * math.sqrt(var / samples)


def azuma(length: int, c: float) -> float:
    return 2.0 * math.exp(-length * c * c / 2.0)


def tv_bound(support_size: int, samples: int, delta: float = 1e-9) -> float:
    """Total-variation radius holding with probability >= 1 - delta.

    From P(||p_hat - p||_1 >= e) <= (2^K - 2) exp(-N e^2 / 2) for N iid
    draws from a law on K atoms; total variation is half the l1 distance.
    """
    l1 = math.sqrt(
        2.0 * (support_size * math.log(2.0) + math.log(1.0 / delta)) / samples
    )
    return 0.5 * l1


# ---------------------------------------------------------------------------
# height functions on a box


def grid_problems(grid, pinned, low=None, high=None) -> list[str]:
    """Why ``grid`` is not an extension of ``pinned`` on its box (empty if it is)."""
    g = np.asarray(grid, dtype=np.int64)
    problems = []
    if g.ndim != 2:
        return [f"grid has shape {g.shape}, expected 2D"]
    ii, jj = np.indices(g.shape)
    bad = np.argwhere((g - ii - jj) % 2 != 0)
    if bad.size:
        problems.append(f"parity broken at {tuple(bad[0])}")
    for axis in (0, 1):
        d = np.abs(np.diff(g, axis=axis))
        bad = np.argwhere(d != 1)
        if bad.size:
            problems.append(f"step {axis} not 1 at {tuple(bad[0])}")
    for (i, j), z in pinned.items():
        if g[i, j] != z:
            problems.append(f"pinned ({i},{j}) is {g[i, j]}, expected {z}")
            break
    if low is not None and (g < low).any():
        problems.append(f"below the envelope at {tuple(np.argwhere(g < low)[0])}")
    if high is not None and (g > high).any():
        problems.append(f"above the envelope at {tuple(np.argwhere(g > high)[0])}")
    return problems


def box_edges(shape) -> tuple[np.ndarray, np.ndarray]:
    """Flat index pairs of the box's nearest-neighbour edges."""
    n0, n1 = shape
    a, b = [], []
    for i in range(n0):
        for j in range(n1):
            if i + 1 < n0:
                a.append(i * n1 + j)
                b.append((i + 1) * n1 + j)
            if j + 1 < n1:
                a.append(i * n1 + j)
                b.append(i * n1 + j + 1)
    return np.asarray(a, dtype=np.intp), np.asarray(b, dtype=np.intp)


def _row_states(i, n1, pinned, low_row, high_row) -> np.ndarray:
    """All +-1 walks along row i with the row's parity, pins and envelopes."""
    out = []

    def extend(prefix):
        j = len(prefix)
        if j == n1:
            out.append(tuple(prefix))
            return
        if j == 0:
            candidates = range(int(low_row[0]), int(high_row[0]) + 1)
        else:
            candidates = (prefix[-1] - 1, prefix[-1] + 1)
        for z in candidates:
            if (z - i - j) % 2 or not low_row[j] <= z <= high_row[j]:
                continue
            if (i, j) in pinned and pinned[(i, j)] != z:
                continue
            prefix.append(z)
            extend(prefix)
            prefix.pop()

    extend([])
    return np.asarray(out, dtype=np.int64).reshape(len(out), n1)


def _rows_and_links(shape, pinned):
    n0, n1 = shape
    low, high = envelopes(shape, pinned)
    rows = [_row_states(i, n1, pinned, low[i], high[i]) for i in range(n0)]
    links = [
        (np.abs(a[:, None, :] - b[None, :, :]) == 1).all(axis=2)
        for a, b in zip(rows, rows[1:])
    ]
    return rows, links


def count_extensions(shape, pinned) -> int:
    """Number of height functions on the box that agree with ``pinned``."""
    rows, links = _rows_and_links(shape, pinned)
    vec = [1] * len(rows[0])
    for link in links:
        vec = [
            sum(vec[s] for s in np.nonzero(link[:, t])[0])
            for t in range(link.shape[1])
        ]
    return int(sum(vec))


def list_extensions(shape, pinned) -> np.ndarray:
    """All extensions as rows of flat heights, in lexicographic order."""
    rows, links = _rows_and_links(shape, pinned)
    n0, n1 = shape
    out = []

    def extend(r, s, prefix):
        prefix = prefix + rows[r][s].tolist()
        if r == n0 - 1:
            out.append(prefix)
            return
        for t in np.nonzero(links[r][s])[0]:
            extend(r + 1, t, prefix)

    for s in range(len(rows[0])):
        extend(0, s, [])
    out.sort()
    return np.asarray(out, dtype=np.int64).reshape(len(out), n0 * n1)


def sorted_distinct_problems(members: np.ndarray) -> list[str]:
    """Rows must be strictly increasing in lexicographic order."""
    if len(members) < 2:
        return []
    diff = members[1:].astype(np.int64) - members[:-1].astype(np.int64)
    nz = diff != 0
    first = nz.argmax(axis=1)
    if not nz.any(axis=1).all():
        return [f"duplicate member at {int(np.argmin(nz.any(axis=1))) + 1}"]
    if (diff[np.arange(len(diff)), first] < 0).any():
        return ["members are not in lexicographic order"]
    return []


def members_problems(members: np.ndarray, shape, pinned) -> list[str]:
    """Each row must be an extension; rows sorted and distinct."""
    n0, n1 = shape
    grids = members.reshape(len(members), n0, n1).astype(np.int64)
    problems = []
    ii, jj = np.indices(shape)
    if ((grids - ii - jj) % 2).any():
        problems.append("a member breaks parity")
    if (np.abs(np.diff(grids, axis=1)) != 1).any() or (
        np.abs(np.diff(grids, axis=2)) != 1
    ).any():
        problems.append("a member has a step other than 1")
    for (i, j), z in pinned.items():
        if (grids[:, i, j] != z).any():
            problems.append(f"a member moves pinned vertex ({i},{j})")
            break
    return problems + sorted_distinct_problems(members)


# ---------------------------------------------------------------------------
# Gibbs weights by direct summation


def gibbs_probabilities(members, edges, lo: int, values) -> np.ndarray:
    """exp(sum over edges of omega_{min(h(x), h(y))}) / Z, summed directly.

    ``values[k - lo]`` is omega_k.  Plain exp, no log-space shift.
    """
    ea, eb = edges
    mins = np.minimum(members[:, ea], members[:, eb]) - lo
    omega = np.asarray(values, dtype=np.float64)
    weights = np.asarray(
        [math.exp(math.fsum(omega[row])) for row in mins], dtype=np.float64
    )
    return weights / weights.sum()


def annealed_twopoint(members, edges, window_, a: float) -> np.ndarray:
    """Average of the Gibbs probabilities over every +-a potential on the window."""
    lo, hi = window_
    acc = np.zeros(len(members))
    patterns = list(itertools.product((-a, a), repeat=hi - lo + 1))
    for signs in patterns:
        acc += gibbs_probabilities(members, edges, lo, signs)
    return acc / len(patterns)


def index_of_rows(members: np.ndarray) -> dict[tuple[int, ...], int]:
    return {tuple(int(z) for z in row): k for k, row in enumerate(members)}


def conditional_means(members, probs, cols, target_col):
    """Per walk prefix length k: {prefix: (mass, E[h(target) | prefix])}."""
    levels = []
    target = members[:, target_col].astype(np.float64)
    for k in range(len(cols) + 1):
        acc: dict[tuple[int, ...], list[float]] = {}
        for row, pr, tv in zip(members[:, cols[:k]], probs, target):
            key = tuple(int(z) for z in row)
            slot = acc.setdefault(key, [0.0, 0.0])
            slot[0] += pr
            slot[1] += pr * tv
        levels.append({key: (m, s / m) for key, (m, s) in acc.items()})
    return levels


def coupling_problems(coupling, lower, upper, mu, nu, tol=1e-9) -> list[str]:
    """A coupling must sit on ordered pairs and have marginals mu and nu."""
    rows = np.zeros(len(lower))
    cols = np.zeros(len(upper))
    for i, j, mass in coupling:
        if mass < 0:
            return [f"negative mass at ({i},{j})"]
        if (lower[i] > upper[j]).any():
            return [f"pair ({i},{j}) is not pointwise ordered"]
        rows[i] += mass
        cols[j] += mass
    err = max(float(np.abs(rows - mu).max()), float(np.abs(cols - nu).max()))
    if err > tol:
        return [f"coupling marginal error {err:.3e} > {tol:g}"]
    return []


def witness_problems(witness, lower, upper, mu, nu) -> list[str]:
    """The witness must be an upper set with more lower than upper mass."""
    U = sorted(witness["lower_indices"])
    in_u = np.zeros(len(lower), dtype=bool)
    in_u[U] = True
    if not U:
        return ["empty witness"]
    above = (lower[None, :, :] >= lower[U][:, None, :]).all(axis=2).any(axis=0)
    if (above & ~in_u).any():
        return ["witness is not upward closed in the lower support"]
    generated = (upper[None, :, :] >= lower[U][:, None, :]).all(axis=2).any(axis=0)
    if set(np.nonzero(generated)[0].tolist()) != set(witness["upper_indices"]):
        return ["witness upper indices are not the generated upper set"]
    lower_mass = float(mu[in_u].sum())
    upper_mass = float(nu[generated].sum())
    if not lower_mass > upper_mass + 1e-12:
        return [f"witness masses {lower_mass:.6g} <= {upper_mass:.6g}"]
    return []
