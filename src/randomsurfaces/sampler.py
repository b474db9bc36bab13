"""Heat-bath dynamics for height functions under a height-axis potential.

The single-site (Glauber) move at a free vertex v resamples h(v) from
its conditional law given its in-region neighbours.  On the bipartite
lattice those neighbours share a parity, so their heights span 0 or 2:

* span 2 (heights m and m + 2): the only choice is h(v) = m + 1;
* span 0 (all k neighbours at z): h(v) = z + 1 or z - 1, with weights
  exp(k omega_z) and exp(k omega_{z-1}) since each of the k edges feels
  omega at the lower endpoint, so P(up) = expit(k (omega_z - omega_{z-1})).

Every path reads P(up) from one table per potential, indexed by k and
z, built with ``expit`` (no overflow for any potential).  The decision
rule "take the upper candidate iff u < P(upper)" with a shared uniform u
and shared vertex choice couples two chains so that a pointwise height
ordering is preserved forever.

Two engines are provided: a single-site chain on arbitrary regions
(``run_chain``, ``coupled_run``, ``glauber_step``; a Python loop over
lists that draws its picks and uniforms in fixed chunks, with
``transition_matrix`` as its exact kernel), and a vectorized
checkerboard-sweep engine for 2D boxes that runs many chains in
parallel (``BoxGlauber``).  Both have the same stationary law (on a
bipartite graph, same-parity sites have disjoint neighborhoods, so a
half-sweep is a composition of commuting heat-bath kernels).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np
from scipy.special import expit

from .gibbs import QuenchedMeasure, _edge_window
from .heights import HeightFunction, as_height_function, min_max_extensions
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

# updates drawn per chunk by the single-site chains
_CHUNK = 1 << 14


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


def _flip_table(values: np.ndarray, kmax: int) -> np.ndarray:
    """Heat-bath P(up) at a free site whose k neighbours all sit at z.

    ``values`` holds potential values on the window [lo, hi] in its last
    axis; entry [..., k, z - lo] of the result is
    expit(k (omega_z - omega_{z-1})), for k = 0..kmax.  Column 0 would
    need omega_{lo-1}: it holds 1/2 and is read only by forced updates,
    which ignore it.
    """
    step = np.diff(values, axis=-1, prepend=values[..., :1])
    k = np.arange(kmax + 1, dtype=np.float64)[:, None]
    return expit(k * step[..., None, :])


def _single_site_plan(region: Region, pinned: HeightFunction, p: Potential):
    """Free positions, neighbour positions, and each position's table row."""
    pinned_pos = {region.position(v) for v in pinned.domain}
    free = [i for i in range(len(region)) if i not in pinned_pos]
    nbrs = region._neighbor_positions
    tab = _flip_table(p.values, max(map(len, nbrs))).tolist()
    return free, nbrs, [tab[len(nb)] for nb in nbrs]


def _up_probability(
    h: list[int], nb: tuple[int, ...], row: list[float], plo: int
) -> tuple[int, float]:
    """Lowest neighbour height m and P(new height = m + 1).

    Neighbours of a site share a parity, so they span 0 or 2.  Spanning
    2 forces m + 1 (probability 1); otherwise the site sees k neighbours
    at m and goes to m + 1 with the table probability, else to m - 1.
    """
    mn = mx = h[nb[0]]
    for j in nb:
        z = h[j]
        if z < mn:
            mn = z
        elif z > mx:
            mx = z
    return mn, (row[mn - plo] if mn == mx else 1.0)


def _start_state(
    region: Region, pinned: Mapping[Vertex, int], p: Potential
) -> ChainState:
    low, high = min_max_extensions(region, pinned)
    lo, hi = _edge_window(min(low.heights), max(high.heights))
    if not p.covers(lo, hi):
        raise ValueError(
            f"potential window {p.window} does not cover required [{lo}, {hi}]"
        )
    return ChainState(region, as_height_function(pinned), low.heights, p, 0)


def _site_draws(rng: np.random.Generator, free: list[int], steps: int):
    """Chosen positions and uniforms for ``steps`` updates, chunk by chunk.

    Yields, as lists, exactly the values of
    ``rng.integers(len(free), size=steps)`` (mapped to positions) and
    then ``rng.random(steps)``, and leaves ``rng`` in that end state, but
    holds at most ``_CHUNK`` of each at a time: a copy of the generator
    draws the picks while ``rng``, first advanced past them, draws the
    uniforms.
    """
    picker = copy.deepcopy(rng)
    chunks = [min(_CHUNK, steps - s) for s in range(0, steps, _CHUNK)]
    for c in chunks:
        rng.integers(len(free), size=c)
    positions = np.asarray(free, dtype=np.intp)
    for c in chunks:
        picks = picker.integers(len(free), size=c)
        yield positions[picks].tolist(), rng.random(c).tolist()


def glauber_step(state: ChainState, rng: np.random.Generator) -> ChainState:
    """One heat-bath update at a uniformly random free vertex."""
    free, nbrs, rows = _single_site_plan(
        state.region, state.pinned, state.potential
    )
    if not free:
        return replace(state, step=state.step + 1)
    h = list(state.heights)
    i = free[int(rng.integers(len(free)))]
    u = float(rng.random())
    mn, p_up = _up_probability(h, nbrs[i], rows[i], state.potential.lo)
    h[i] = mn + 1 if u < p_up else mn - 1
    return replace(state, heights=tuple(h), step=state.step + 1)


def run_chain(
    region: Region,
    pinned: Mapping[Vertex, int],
    p: Potential,
    steps: int,
    rng: np.random.Generator,
) -> HeightFunction:
    """Run single-site Glauber from the minimal extension; return the end state."""
    state = _start_state(region, pinned, p)
    free, nbrs, rows = _single_site_plan(region, state.pinned, p)
    if not free or steps == 0:
        return state.current
    h = list(state.heights)
    plo = p.lo
    for positions, us in _site_draws(rng, free, steps):
        for i, u in zip(positions, us):
            mn, p_up = _up_probability(h, nbrs[i], rows[i], plo)
            h[i] = mn + 1 if u < p_up else mn - 1
    return HeightFunction(region.vertex_list, tuple(h))


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
    free, nbrs, rows = _single_site_plan(region, s_low.pinned, p)
    h_low = list(s_low.heights)
    h_high = list(s_high.heights)
    if any(a > b for a, b in zip(h_low, h_high)):
        raise AssertionError("minimal extensions not ordered")
    plo = p.lo
    t = 0
    for positions, us in _site_draws(rng, free, steps) if free else ():
        for i, u in zip(positions, us):
            nb, row = nbrs[i], rows[i]
            mn, p_up = _up_probability(h_low, nb, row, plo)
            h_low[i] = mn + 1 if u < p_up else mn - 1
            mn, p_up = _up_probability(h_high, nb, row, plo)
            h_high[i] = mn + 1 if u < p_up else mn - 1
            if h_low[i] > h_high[i]:
                raise AssertionError(
                    f"coupling lost the order at vertex "
                    f"{region.vertex_list[i]}, step {t}"
                )
            t += 1
    return (
        HeightFunction(region.vertex_list, tuple(h_low)),
        HeightFunction(region.vertex_list, tuple(h_high)),
    )


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
    free, nbrs, rows = _single_site_plan(
        support.region, support.pinned, mu.potential
    )
    if not free:
        return np.eye(len(support))
    index = {m.heights: i for i, m in enumerate(support.members)}
    P = np.zeros((len(support), len(support)))
    plo = mu.potential.lo
    for s, g in enumerate(support.members):
        h = list(g.heights)
        for i in free:
            mn, p_up = _up_probability(h, nbrs[i], rows[i], plo)
            h[i] = mn + 1
            P[s, index[tuple(h)]] += p_up / len(free)
            if p_up < 1.0:  # a free choice: the lower height is a member
                h[i] = mn - 1
                P[s, index[tuple(h)]] += (1.0 - p_up) / len(free)
            h[i] = g.heights[i]
    return P


class BoxGlauber:
    """Vectorized checkerboard heat-bath on a 2D box, batched over chains.

    Runs one chain per potential in ``potentials`` (all sharing a
    window), each started at the minimal extension of the pinned data.
    A sweep updates all even-parity free sites simultaneously, then all
    odd-parity ones; within a half-sweep the updated sites are mutually
    non-adjacent, so the parallel update equals a product of single-site
    heat baths.

    Each update is the closed form of the heat bath: with mn and mx the
    lowest and highest of a site's in-box neighbours, the new height is
    mn + 1 when mx = mn + 2, and otherwise mn + 1 with probability
    expit(k (omega_mn - omega_{mn-1})) (k in-box neighbours), else
    mn - 1.  Those probabilities are looked up in a per-potential table
    built once.  A uniform is drawn for every updated site, forced or
    not, so the random stream depends only on the batch and the box.
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

        self.pinned_mask = np.zeros(self.shape, dtype=bool)
        for v in as_height_function(pinned).domain:
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

        # table (batch, k, z - lo), flattened; chain b at a site with k
        # in-box neighbours reads it at z + base[b, site]
        offsets = ((-1, 0), (1, 0), (0, -1), (0, 1))
        tab = _flip_table(
            np.stack([p.values for p in potentials]), len(offsets)
        )
        self._table = tab.reshape(-1)
        brow = np.arange(self.batch, dtype=np.intp)[:, None] * tab[0].size

        # per parity: flat indices of updatable sites, their four neighbour
        # slots (an off-box slot repeats an in-box neighbour, which leaves
        # min and max unchanged) and their table bases; parity follows
        # ambient coordinates
        self._upd: list[np.ndarray] = []
        self._nbr: list[np.ndarray] = []  # (dirs, sites) index matrix
        self._base: list[np.ndarray] = []  # (batch, sites)
        ii, jj = np.meshgrid(np.arange(n0), np.arange(n1), indexing="ij")
        site_parity = (ii + self.low[0] + jj + self.low[1]) % 2
        for par in (0, 1):
            sel = (site_parity == par) & ~self.pinned_mask
            si, sj = np.nonzero(sel)
            self._upd.append((si * n1 + sj).astype(np.intp))
            nbrs, oks = [], []
            for di, dj in offsets:
                ti, tj = si + di, sj + dj
                oks.append((0 <= ti) & (ti < n0) & (0 <= tj) & (tj < n1))
                nbrs.append(ti * n1 + tj)
            ok = np.stack(oks)
            nbr = np.stack(nbrs)
            first = nbr[ok.argmax(axis=0), np.arange(si.size)]
            self._nbr.append(np.where(ok, nbr, first).astype(np.intp))
            k = ok.sum(axis=0)
            self._base.append(brow + (k * tab.shape[-1] - win[0]))

    def half_sweep(self, parity: int) -> None:
        upd = self._upd[parity]
        if upd.size == 0:
            return
        cur = self.flat
        nvs = cur[:, self._nbr[parity]]  # (batch, dirs, sites)
        mn = nvs.min(axis=1)
        mx = nvs.max(axis=1)
        p_up = self._table[mn + self._base[parity]]
        u = self.rng.random((self.batch, upd.size))
        cur[:, upd] = mn + 1 - 2 * ((mx == mn) & (u >= p_up))

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
