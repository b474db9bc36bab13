"""Heat-bath dynamics for height functions under a height-axis potential.

The single-site (Glauber) move at a free vertex v resamples h(v) from
its conditional law given the neighbors: the candidates are
max(nbrs) - 1 and min(nbrs) + 1 (equal when the neighbors span a gap of
2), weighted by exp of the local energy sum_u omega_{min(z, h(u))}.
The decision rule "take the upper candidate iff u < P(upper)" with a
shared uniform u and shared vertex choice couples two chains so that a
pointwise height ordering is preserved forever.

Two engines are provided: a functional single-site chain on arbitrary
regions, and a vectorized checkerboard-sweep engine for 2D boxes that
runs many chains in parallel.  Both have the same stationary law (on a
bipartite graph, same-parity sites have disjoint neighborhoods, so a
half-sweep is a composition of commuting heat-bath kernels).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .gibbs import QuenchedMeasure, _edge_window
from .heights import (
    ExtensionSet,
    HeightFunction,
    min_max_extensions,
)
from .lattice import Region, Vertex
from .potential import Potential

__all__ = [
    "ChainState",
    "glauber_step",
    "run_chain",
    "coupled_run",
    "exact_sample",
    "sample_indices",
    "transition_matrix",
    "BoxGlauber",
]


@dataclass(frozen=True)
class ChainState:
    """A Glauber chain snapshot: configuration, environment, step count."""

    region: Region
    pinned: HeightFunction
    heights: tuple[int, ...]
    potential: Potential
    step: int = 0

    @property
    def current(self) -> HeightFunction:
        return HeightFunction(self.region.vertex_list, self.heights)


def _chain_arrays(region: Region, pinned: HeightFunction):
    """Free-vertex positions and per-position neighbor index arrays."""
    pinned_pos = {region.position(v) for v in pinned.domain}
    free = np.asarray(
        [i for i in range(len(region)) if i not in pinned_pos],
        dtype=np.int64,
    )
    nbrs = tuple(
        np.asarray(row, dtype=np.intp)
        for row in region._neighbor_positions
    )
    return free, nbrs


def _start_state(
    region: Region, pinned: Mapping[Vertex, int], p: Potential
) -> ChainState:
    low, high = min_max_extensions(region, pinned)
    if isinstance(pinned, HeightFunction):
        pinned_f = pinned
    else:
        pinned_f = HeightFunction.from_dict(pinned)
    lo, hi = _edge_window(min(low.heights), max(high.heights))
    if not p.covers(lo, hi):
        raise ValueError(
            f"potential window {p.window} does not cover required [{lo}, {hi}]"
        )
    return ChainState(region, pinned_f, low.heights, p, 0)


def _site_update(
    heights: np.ndarray,
    i: int,
    nbrs: tuple[int, ...],
    pvals: np.ndarray,
    plo: int,
    u: float,
) -> int:
    """New height at position i under the shared-threshold heat-bath rule."""
    nv = heights[nbrs]
    m = int(nv.min())
    big = int(nv.max())
    lo, hi = big - 1, m + 1
    e_lo = pvals[np.minimum(lo, nv) - plo].sum()
    e_hi = pvals[np.minimum(hi, nv) - plo].sum()
    p_hi = 1.0 / (1.0 + np.exp(e_lo - e_hi))
    return hi if u < p_hi else lo


def glauber_step(state: ChainState, rng: np.random.Generator) -> ChainState:
    """One heat-bath update at a uniformly random free vertex."""
    free, nbrs = _chain_arrays(state.region, state.pinned)
    if free.size == 0:
        return replace(state, step=state.step + 1)
    h = np.asarray(state.heights, dtype=np.int64)
    i = int(free[rng.integers(free.size)])
    u = float(rng.random())
    h[i] = _site_update(
        h, i, nbrs[i], state.potential.values, state.potential.lo, u
    )
    return replace(state, heights=tuple(int(z) for z in h), step=state.step + 1)


def run_chain(
    region: Region,
    pinned: Mapping[Vertex, int],
    p: Potential,
    steps: int,
    rng: np.random.Generator,
) -> HeightFunction:
    """Run single-site Glauber from the minimal extension; return the end state."""
    state = _start_state(region, pinned, p)
    free, nbrs = _chain_arrays(region, state.pinned)
    h = np.asarray(state.heights, dtype=np.int64)
    if free.size == 0 or steps == 0:
        return state.current
    picks = rng.integers(free.size, size=steps)
    us = rng.random(steps)
    pvals, plo = p.values, p.lo
    for t in range(steps):
        i = int(free[picks[t]])
        h[i] = _site_update(h, i, nbrs[i], pvals, plo, float(us[t]))
    return HeightFunction(region.vertex_list, tuple(int(z) for z in h))


def coupled_run(
    region: Region,
    pinned_low: Mapping[Vertex, int],
    pinned_high: Mapping[Vertex, int],
    p: Potential,
    steps: int,
    rng: np.random.Generator,
) -> tuple[HeightFunction, HeightFunction]:
    """Evolve two chains with shared vertex choices and uniforms.

    Boundary data must be pinned on the same vertex set and ordered
    (low <= high pointwise); the chains start at their minimal
    extensions, which are then ordered, and the shared-threshold rule
    keeps them ordered at every step (checked, raising AssertionError
    on violation — which would indicate a broken update rule).
    """
    s_low = _start_state(region, pinned_low, p)
    s_high = _start_state(region, pinned_high, p)
    if s_low.pinned.domain != s_high.pinned.domain:
        raise ValueError("coupled chains need a common pinned vertex set")
    if not s_low.pinned.le(s_high.pinned):
        raise ValueError("boundary data must be ordered low <= high")
    free, nbrs = _chain_arrays(region, s_low.pinned)
    h_low = np.asarray(s_low.heights, dtype=np.int64)
    h_high = np.asarray(s_high.heights, dtype=np.int64)
    if not (h_low <= h_high).all():
        raise AssertionError("minimal extensions not ordered")
    pvals, plo = p.values, p.lo
    if free.size and steps:
        picks = rng.integers(free.size, size=steps)
        us = rng.random(steps)
        for t in range(steps):
            i = int(free[picks[t]])
            u = float(us[t])
            h_low[i] = _site_update(h_low, i, nbrs[i], pvals, plo, u)
            h_high[i] = _site_update(h_high, i, nbrs[i], pvals, plo, u)
            if h_low[i] > h_high[i]:
                raise AssertionError(
                    f"coupling lost the order at vertex "
                    f"{region.vertex_list[i]}, step {t}"
                )
    to_f = lambda h: HeightFunction(
        region.vertex_list, tuple(int(z) for z in h)
    )
    return to_f(h_low), to_f(h_high)


def sample_indices(
    mu: QuenchedMeasure, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Indices into the support, iid from the quenched measure."""
    cum = np.cumsum(mu.probabilities)
    cum[-1] = 1.0
    return np.searchsorted(cum, rng.random(size), side="right")


def exact_sample(
    mu: QuenchedMeasure, rng: np.random.Generator
) -> HeightFunction:
    """One member drawn from the quenched measure by inverse CDF."""
    return mu.support.members[int(sample_indices(mu, rng, 1)[0])]


def transition_matrix(mu: QuenchedMeasure) -> np.ndarray:
    """Single-site Glauber transition kernel on the support of ``mu``.

    Row g: choose a free vertex uniformly, then resample it.  The kernel
    is reversible for the quenched measure; tests verify stationarity
    and detailed balance directly from this matrix.
    """
    support = mu.support
    region = support.region
    free, nbrs = _chain_arrays(region, support.pinned)
    if free.size == 0:
        return np.eye(len(support))
    index = {m.heights: i for i, m in enumerate(support.members)}
    P = np.zeros((len(support), len(support)))
    pvals, plo = mu.potential.values, mu.potential.lo
    for s, g in enumerate(support.members):
        h = np.asarray(g.heights, dtype=np.int64)
        for i in free:
            nv = h[nbrs[i]]
            m, big = int(nv.min()), int(nv.max())
            lo, hi = big - 1, m + 1
            e_lo = pvals[np.minimum(lo, nv) - plo].sum()
            e_hi = pvals[np.minimum(hi, nv) - plo].sum()
            p_hi = 1.0 / (1.0 + np.exp(e_lo - e_hi))
            for z, w in ((hi, p_hi), (lo, 1.0 - p_hi)):
                h2 = h.copy()
                h2[i] = z
                t = index[tuple(int(x) for x in h2)]
                P[s, t] += w / free.size
    return P


class BoxGlauber:
    """Vectorized checkerboard heat-bath on a 2D box, batched over chains.

    Runs one chain per potential in ``potentials`` (all sharing a
    window), each started at the minimal extension of the pinned data.
    A sweep updates all even-parity free sites simultaneously, then all
    odd-parity ones; within a half-sweep the updated sites are mutually
    non-adjacent, so the parallel update equals a product of single-site
    heat baths.
    """

    def __init__(
        self,
        region: Region,
        pinned: Mapping[Vertex, int],
        potentials: Sequence[Potential],
        rng: np.random.Generator,
        start: str = "low",
    ):
        if region.dimension != 2:
            raise ValueError("BoxGlauber runs on 2D boxes")
        arr = np.asarray(region.vertex_list, dtype=np.int64)
        lows = arr.min(axis=0)
        highs = arr.max(axis=0)
        if not region.is_box():
            raise ValueError("BoxGlauber needs a full box region")
        if not potentials:
            raise ValueError("need at least one potential")
        win = potentials[0].window
        for p in potentials:
            if p.window != win:
                raise ValueError("all potentials must share one window")
        lo_f, hi_f = min_max_extensions(region, pinned)
        need_lo, need_hi = _edge_window(min(lo_f.heights), max(hi_f.heights))
        if not potentials[0].covers(need_lo, need_hi):
            raise ValueError(
                f"potential window {win} does not cover required "
                f"[{need_lo}, {need_hi}]"
            )

        self.region = region
        self.low = int(lows[0]), int(lows[1])
        self.shape = (int(highs[0] - lows[0] + 1), int(highs[1] - lows[1] + 1))
        n0, n1 = self.shape
        self.batch = len(potentials)
        self.rng = rng
        self.plo = win[0]
        self.ptable = np.stack([p.values for p in potentials])  # (B, P)

        if isinstance(pinned, HeightFunction):
            pinned_f = pinned
        else:
            pinned_f = HeightFunction.from_dict(pinned)
        self.pinned_mask = np.zeros(self.shape, dtype=bool)
        for v in pinned_f.domain:
            self.pinned_mask[v[0] - self.low[0], v[1] - self.low[1]] = True

        low_grid = np.asarray(lo_f.heights, dtype=np.int64).reshape(self.shape)
        if start == "low":
            init = low_grid
        elif start == "mid":
            # clip a flat parity-adjusted plane between the envelopes: the
            # median of three height functions is again a height function,
            # and this start sits near the equilibrium plateau
            high_grid = np.asarray(hi_f.heights, dtype=np.int64).reshape(
                self.shape
            )
            t = int(np.round((low_grid + high_grid).mean() / 2.0))
            ii, jj = np.meshgrid(
                np.arange(n0) + self.low[0],
                np.arange(n1) + self.low[1],
                indexing="ij",
            )
            flat = t + ((t + ii + jj) % 2)
            init = np.clip(flat, low_grid, high_grid)
        else:
            raise ValueError(f"start must be 'low' or 'mid', got {start!r}")
        self.flat = np.broadcast_to(
            init.reshape(-1), (self.batch, n0 * n1)
        ).copy()

        # per parity: flat indices of updatable sites, their four neighbor
        # indices (aliased to the site itself when outside the box), and
        # validity masks; parity follows ambient coordinates
        self._upd: list[np.ndarray] = []
        self._nbr: list[np.ndarray] = []  # (dirs, sites) index matrix
        self._ok: list[np.ndarray | None] = []  # None: all dirs valid
        ii, jj = np.meshgrid(np.arange(n0), np.arange(n1), indexing="ij")
        site_parity = (ii + self.low[0] + jj + self.low[1]) % 2
        offsets = ((-1, 0), (1, 0), (0, -1), (0, 1))
        for par in (0, 1):
            sel = (site_parity == par) & ~self.pinned_mask
            si, sj = np.nonzero(sel)
            self._upd.append((si * n1 + sj).astype(np.intp))
            nbrs, oks = [], []
            for di, dj in offsets:
                ti, tj = si + di, sj + dj
                ok = (0 <= ti) & (ti < n0) & (0 <= tj) & (tj < n1)
                nbrs.append(
                    np.where(ok, ti * n1 + tj, si * n1 + sj).astype(np.intp)
                )
                oks.append(ok)
            self._nbr.append(np.stack(nbrs))
            ok_mat = np.stack(oks)
            self._ok.append(None if ok_mat.all() else ok_mat)
        plen = self.ptable.shape[1]
        self._flat_table = self.ptable.reshape(-1)
        self._brow = (np.arange(self.batch, dtype=np.intp) * plen)[
            :, None, None
        ]

    def half_sweep(self, parity: int) -> None:
        upd = self._upd[parity]
        if upd.size == 0:
            return
        cur = self.flat
        ok = self._ok[parity]
        nvs = cur[:, self._nbr[parity]]  # (batch, dirs, sites)
        plen = self.ptable.shape[1]
        if ok is None:
            mn = nvs.min(axis=1)
            mx = nvs.max(axis=1)
            lo = mx - 1
            hi = mn + 1
            idx = np.minimum(lo[:, None, :], nvs) - self.plo
            e_lo = self._flat_table[self._brow + idx].sum(axis=1)
            idx = np.minimum(hi[:, None, :], nvs) - self.plo
            e_hi = self._flat_table[self._brow + idx].sum(axis=1)
        else:
            BIG = np.iinfo(np.int64).max // 4
            mn = np.where(ok, nvs, BIG).min(axis=1)
            mx = np.where(ok, nvs, -BIG).max(axis=1)
            lo = mx - 1
            hi = mn + 1
            idx = np.clip(
                np.minimum(lo[:, None, :], nvs) - self.plo, 0, plen - 1
            )
            e_lo = np.where(
                ok, self._flat_table[self._brow + idx], 0.0
            ).sum(axis=1)
            idx = np.clip(
                np.minimum(hi[:, None, :], nvs) - self.plo, 0, plen - 1
            )
            e_hi = np.where(
                ok, self._flat_table[self._brow + idx], 0.0
            ).sum(axis=1)
        p_hi = 1.0 / (1.0 + np.exp(e_lo - e_hi))
        u = self.rng.random((self.batch, upd.size))
        cur[:, upd] = np.where(u < p_hi, hi, lo)

    def sweep(self, n: int = 1) -> None:
        for _ in range(n):
            self.half_sweep(0)
            self.half_sweep(1)

    @property
    def heights(self) -> np.ndarray:
        """(batch, n0, n1) view of the current configurations."""
        return self.flat.reshape(self.batch, *self.shape)

    def height_matrix(self) -> np.ndarray:
        """(batch, region size) heights aligned with region.vertex_list."""
        return self.flat.copy()
