"""Heat-bath dynamics for height functions under a height-axis potential.

The single-site (Glauber) move at a free vertex v resamples h(v) from
its conditional law given its in-region neighbours.  On the bipartite
lattice those neighbours share a parity, so their heights span 0 or 2:

* span 2 (heights m and m + 2): the only choice is h(v) = m + 1;
* span 0 (all k neighbours at z): h(v) = z + 1 or z - 1, with weights
  exp(k omega_z) and exp(k omega_{z-1}) since each of the k edges feels
  omega at the lower endpoint, so P(up) = expit(k (omega_z - omega_{z-1})).

This closed form is the module's one heat-bath rule.  It reads P(up)
from one table per potential, indexed by k and z, built with the
logistic function expit(t) = 1 / (1 + exp(-t)) in libm's ``exp``
through ``math.exp`` (overflow gives 0, and steps are clipped to stay
finite, so any finite potential is safe), once per distinct argument.

Every sampled surface comes from ``BoxGlauber``, a vectorized
checkerboard-sweep engine on any region in any dimension that runs many
chains in parallel (heights stored sites-major with the free sites of
each parity in one contiguous block, so a half-sweep is one neighbour
gather and one block write).  Its chains form groups, each given as
one (boundary triple, generator, potentials) value: the group's
boundary data as ``heights._pinned_envelopes`` returns it, the
generator its uniforms come from, and one potential per chain.  On a
bipartite graph same-parity sites have disjoint neighbourhoods, so a
half-sweep is a composition of commuting single-site heat-bath
kernels; ``transition_matrix`` is that kernel in exact form.  The
decision "take the upper candidate iff u < P(upper)" is monotone in
the heights, so two chains fed the same uniforms keep a pointwise order
forever: ``coupled_run`` sweeps such a pair as one engine with two
single-chain groups, one per boundary datum.
"""

from __future__ import annotations

import copy
import math
import operator
from typing import Mapping, Sequence

import numpy as np

from .gibbs import QuenchedMeasure
from .heights import (
    HeightFunction,
    _Envelopes,
    _envelope_window,
    _pinned_envelopes,
)
from .lattice import Region, Vertex
from .potential import Potential

__all__ = [
    "coupled_run",
    "exact_sample",
    "sample_indices",
    "transition_matrix",
    "BoxGlauber",
]


def _expit(t: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-t)) elementwise, evaluated once per distinct value.

    ``math.exp`` is libm's ``exp``, the one scipy.special.expit calls, so
    the two agree to the last bit; numpy's own vectorised ``exp`` may
    differ from it by an ulp.  So ``math.exp`` runs over the distinct
    arguments in one ``map`` pass, and 1 / (1 + e) in numpy, whose IEEE
    add and divide round as Python's float operations do.  exp(-t)
    overflows for t < -709.78, where the result is 0: the arguments below
    -709 go one by one.
    """
    uniq, inv = np.unique(t.ravel(), return_inverse=True)
    vals = np.empty(uniq.size)
    near = int(np.searchsorted(uniq, -709.0))  # uniq[:near] < -709
    for i, x in enumerate(uniq[:near].tolist()):
        try:
            vals[i] = 1.0 / (1.0 + math.exp(-x))
        except OverflowError:
            vals[i] = 0.0
    args = (-uniq[near:]).tolist()
    e = np.fromiter(map(math.exp, args), dtype=float, count=len(args))
    np.divide(1.0, 1.0 + e, out=vals[near:])
    return vals[inv.reshape(t.shape)]


def _flip_table(values: np.ndarray, kmax: int) -> np.ndarray:
    """Heat-bath P(up) at a free site whose k neighbours all sit at z.

    ``values`` holds potential values on the window [lo, hi] in its last
    axis; entry [..., k, z - lo] of the result is
    expit(k (omega_z - omega_{z-1})), for k = 0..kmax.  Column 0 would
    need omega_{lo-1}: it holds 1/2 and is read only by forced updates,
    which ignore it.
    """
    with np.errstate(over="ignore"):  # a step past the float range is +-inf
        step = np.diff(values, axis=-1, prepend=values[..., :1])
    k = np.arange(kmax + 1, dtype=np.float64)[:, None]
    # beyond +-1e300 every row k >= 1 already reads exactly 0 or 1, and
    # the clip keeps k * step finite
    return _expit(k * np.clip(step, -1e300, 1e300, out=step)[..., None, :])


def _neighbor_slots(region: Region, sites: np.ndarray):
    """In-region degrees k and a (sites, kmax) matrix of neighbour
    positions for ``sites``, padded to the region's largest degree by
    repeating a site's first neighbour (which leaves min and max as
    they are)."""
    deg = region._degree
    kmax = int(deg.max())
    k = deg[sites]
    nb = region._neighbors[sites, :kmax]
    return k, np.where(np.arange(kmax) < k[:, None], nb, nb[:, :1])


def coupled_run(
    region: Region,
    pinned_low: Mapping[Vertex, int],
    pinned_high: Mapping[Vertex, int],
    p: Potential,
    steps: int,
    rng: np.random.Generator,
) -> tuple[HeightFunction, HeightFunction]:
    """Evolve two heat-bath chains on shared uniforms, one per datum.

    Boundary data must be extendable, pinned on the same vertex set and
    ordered (low <= high pointwise).  The pair is one ``BoxGlauber`` with two
    single-chain groups, each started at the minimal extension of its
    own datum: the first group draws from ``rng``, the second from a
    copy of it in the same state, so both chains see the same uniforms
    and ``rng`` ends where one chain's engine would leave it.  The pair
    runs ceil(steps / free sites) sweeps, so each chain makes at least
    ``steps`` site updates.  The shared-threshold rule keeps the chains
    ordered; the order is checked after every half-sweep, raising
    AssertionError on violation — which would indicate a broken update
    rule.
    """
    try:
        steps = operator.index(steps)
    except TypeError:
        raise ValueError(
            f"number of steps must be an integer, got {steps!r}"
        ) from None
    if steps < 0:
        raise ValueError(f"number of steps must be >= 0, got {steps}")
    env_low = _pinned_envelopes(region, pinned_low)
    env_high = _pinned_envelopes(region, pinned_high)
    if env_low[0] != env_high[0]:
        raise ValueError("coupled chains need a common pinned vertex set")
    if (env_low[1] > env_high[1])[env_low[0]].any():  # the pinned values
        raise ValueError("boundary data must be ordered low <= high")
    groups = [(env_low, rng, [p]), (env_high, copy.deepcopy(rng), [p])]
    eng = BoxGlauber(region, _groups=groups)
    free = int((~eng.pinned_mask).sum())
    sweeps = -(-steps // free) if free else 0
    h = eng._h  # (storage rows, 2), written in place by every half-sweep
    for t, _ in enumerate(eng._half_sweeps(sweeps)):
        if (h[:, 0] > h[:, 1]).any():
            low, high = eng.height_matrix()
            v = region.vertex_list[int(np.argmax(low > high))]
            raise AssertionError(
                f"coupling lost the order at vertex {v}, half-sweep {t}"
            )
    rows = eng.height_matrix().tolist()
    return tuple(HeightFunction._trusted(region.vertex_list, tuple(r)) for r in rows)


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

    Row g: choose a free vertex uniformly, then resample it by the heat
    bath.  mn, mx and P(up) come for every member and free vertex at
    once, as in ``BoxGlauber.half_sweep``.  Each move to another member
    changes one vertex, so it is an off-diagonal entry of its own; the
    weights of staying put add up on the diagonal in free-vertex order.
    The kernel is reversible for the quenched measure; tests verify
    stationarity and detailed balance directly from this matrix.
    """
    support = mu.support
    region = support.region
    free = np.setdiff1d(np.arange(len(region)), support._boundary[0])
    if not free.size:
        return np.eye(len(support))
    h = support.members_array
    k, nb = _neighbor_slots(region, free)
    nvs = h[:, nb]  # (members, free, kmax)
    mn, mx = nvs.min(axis=2), nvs.max(axis=2)
    tab = _flip_table(mu.potential.values, nb.shape[1])
    choice = mx == mn
    p_up = np.where(choice, tab[k, mn - mu.potential.lo], 1.0)
    up = h[:, free] == mn + 1
    w_up, w_down = p_up / free.size, (1.0 - p_up) / free.size
    # members at a free choice move to their other candidate, found by
    # binary search on whole rows viewed as one void key each
    s, j = np.nonzero(choice)
    to = h[s]
    to[np.arange(s.size), free[j]] = np.where(up, mn - 1, mn + 1)[s, j]
    row = np.dtype((np.void, h.itemsize * h.shape[1]))
    keys = h.view(row)[:, 0]
    order = np.argsort(keys)
    t = order[np.searchsorted(keys[order], to.view(row)[:, 0])]
    P = np.zeros((len(support), len(support)))
    P[s, t] = np.where(up, w_down, w_up)[s, j]
    np.fill_diagonal(P, np.cumsum(np.where(up, w_up, w_down), axis=1)[:, -1])
    return P


def _check_table_reach(
    nb: np.ndarray, low: np.ndarray, high: np.ndarray, window: tuple[int, int]
) -> None:
    """Reject a P(up) table that misses some free site's neighbour minimum.

    ``nb`` lists each free site's neighbour positions.  Every chain stays
    between the envelopes ``low`` and ``high``, so the lowest neighbour of
    a site ranges over [min low(nb), min high(nb)], and the table row on
    ``window`` must hold all of it: half-sweeps read the table with
    ``take(..., mode="clip")``, which checks no bounds of its own.
    """
    if not nb.size:
        return
    lo = int(low[nb].min(axis=1).min())
    hi = int(high[nb].min(axis=1).max())
    if lo < window[0] or hi > window[1]:
        raise ValueError(
            f"neighbour minima reach [{lo}, {hi}], outside the potential "
            f"window {window}"
        )


class BoxGlauber:
    """Vectorized checkerboard heat-bath on any region, batched over chains.

    Runs one chain per potential in ``potentials`` (all sharing a
    window), each started at the minimal extension of the pinned data
    (``start="low"``) or at a flat surface clipped between the envelopes
    (``start="mid"``).  A sweep updates all free sites of even ambient
    parity (coordinate sum) simultaneously, then all odd ones; within a
    half-sweep the updated sites are mutually non-adjacent, so the
    parallel update equals a product of single-site heat baths.

    Each update is the closed form of the heat bath: with mn and mx the
    lowest and highest of a site's k in-region neighbours, the new
    height is mn + 1 when mx = mn + 2, and otherwise mn + 1 with
    probability expit(k (omega_mn - omega_{mn-1})), else mn - 1.  Those
    probabilities are looked up in a per-potential table built once.  A
    uniform is drawn for every updated site, forced or not, as one
    (batch, sites) block per half-sweep with the sites in vertex order,
    so the random stream depends only on the batch and the region.

    The chains form consecutive groups, each under its own boundary data
    and generator.  ``_groups``, for callers inside the package, is a
    sequence of (boundary triple, generator, potentials) values, and
    replaces ``pinned``, ``potentials`` and ``rng``, which are then left
    out; without it all chains form one group: the triple of ``pinned``,
    ``rng`` and ``potentials``.  A boundary triple is what
    ``heights._pinned_envelopes`` returns: the pinned positions in
    ascending order, and the minimal and maximal extensions as int64
    arrays aligned with ``region.vertex_list``.  All triples pin one
    vertex set, and the pinned sites are the first triple's positions.  A
    group's chain count is the length of its potentials list.  Chains
    never interact: each group starts from, and is reach-checked against,
    its own envelopes, its pinned sites keep their values, and group g
    fills its rows of the uniform block with
    ``generator_g.random((count_g, sites))``, in group order.  So each
    group's chains and generator pass through exactly the states of a
    separate engine that holds that group alone, and
    ``_keep_first_group()``, which drops every other chain, leaves the
    engine in the state of the first group's own engine.  The experiments
    burn their mean-field and tail chains together this way, and
    ``coupled_run`` runs an ordered pair under two boundary datasets, without
    changing any random stream.

    Heights are stored sites-major, one row of ``batch`` chains per site,
    in the narrowest signed integer type that holds the window +-2.  The
    rows are permuted so that the free sites of each parity form one
    contiguous block (vertex order within it) and the pinned sites come
    last; a half-sweep gathers each free site's neighbour rows through a
    (k, sites) slot matrix, padded by repeating a real neighbour, and
    writes the new heights into its block's rows in place.  Its
    intermediates go to work arrays that ``sweep`` builds once per call
    and both parities share.

    ``height_matrix()`` (int64, rows aligned with ``region.vertex_list``)
    and ``heights`` undo the permutation on each call.  On a box, in
    particular a 2D one, ``shape`` is its side lengths, ``low`` its lowest
    corner, ``pinned_mask`` a boolean array of that shape and ``heights``
    a (batch, *shape) array; on other regions ``shape`` is
    ``(len(region),)``, ``low`` the coordinatewise minimum and both arrays
    follow ``region.vertex_list``.
    """

    def __init__(
        self,
        region: Region,
        pinned: Mapping[Vertex, int] | None = None,
        potentials: Sequence[Potential] = (),
        rng: np.random.Generator | None = None,
        start: str = "low",
        *,
        _groups: Sequence[
            tuple[_Envelopes, np.random.Generator, Sequence[Potential]]
        ] | None = None,
    ):
        if _groups is None:
            _groups = [(_pinned_envelopes(region, pinned), rng, potentials)]
        potentials = [p for _, _, group in _groups for p in group]
        if not potentials:
            raise ValueError("need at least one potential")
        win = potentials[0].window
        for p in potentials:
            if p.window != win:
                raise ValueError("all potentials must share one window")
        if start not in ("low", "mid"):
            raise ValueError(f"start must be 'low' or 'mid', got {start!r}")
        for _, g, group in _groups:
            if not isinstance(g, np.random.Generator):
                raise ValueError(
                    f"each group needs a numpy Generator, got {type(g).__name__}"
                )
            if not group:
                raise ValueError("each group needs >= 1 potentials, got none")
        # (generator, chain count) per group, as half-sweeps draw
        self._groups = tuple((g, len(group)) for _, g, group in _groups)
        envelopes = [env for env, _, _ in _groups]

        coords = region._coords
        lows, highs = region._bounds
        sides = tuple(b - a + 1 for a, b in zip(lows, highs))
        self.region = region
        self.batch = len(potentials)
        self.low = tuple(lows)
        self.shape = sides if region.is_box() else (len(region),)
        pinned_flat = np.zeros(len(region), dtype=bool)
        pinned_flat[envelopes[0][0]] = True
        self.pinned_mask = pinned_flat.reshape(self.shape)

        parity = coords.sum(axis=1) % 2
        # per distinct envelope triple (groups may share one): its
        # envelopes and the start they give
        starts = {}
        for env in envelopes:
            if id(env) in starts:
                continue
            # the window must cover every edge minimum between the envelopes
            lo, hi = _envelope_window(env)
            if not potentials[0].covers(lo, hi):
                raise ValueError(
                    f"potential window {win} does not cover required [{lo}, {hi}]"
                )
            _, low, high = env
            if start == "low":
                init = low
            else:
                # clip a flat parity-adjusted plane between the envelopes:
                # the median of three height functions is again a height
                # function, and this start sits near the equilibrium plateau
                t = int(np.round((low + high).mean() / 2.0))
                init = np.clip(t + (t + parity) % 2, low, high)
            starts[id(env)] = (low, high, init)

        # sites-major storage: free sites of parity 0, of parity 1, pinned
        blocks = [
            np.flatnonzero(~pinned_flat & (parity == par)) for par in (0, 1)
        ]
        order = np.concatenate(blocks + [np.flatnonzero(pinned_flat)])
        self._slot = np.empty_like(order)  # vertex position -> storage row
        self._slot[order] = np.arange(order.size)
        dtype = next(
            t for t in (np.int8, np.int16, np.int32, np.int64)
            if np.iinfo(t).min <= win[0] - 2 and win[1] + 2 <= np.iinfo(t).max
        )
        inits = [starts[id(env)][2][order].astype(dtype) for env in envelopes]
        self._h = np.repeat(
            np.stack(inits, axis=1), [c for _, c in self._groups], axis=1
        )

        kmax = int(region._degree.max())
        # table (batch, k, z - lo), flattened; chain b at a site with k
        # in-region neighbours reads it at z + base[site, b]
        tab = _flip_table(np.stack([p.values for p in potentials]), kmax)
        self._table = tab.reshape(-1)
        brow = np.arange(self.batch, dtype=np.intp) * tab[0].size
        self._blocks: list[slice] = []
        self._slots: list[np.ndarray] = []  # (k, sites) storage rows
        self._base: list[np.ndarray] = []  # (sites, batch)
        top = 0
        for sites in blocks:
            self._blocks.append(slice(top, top + sites.size))
            top += sites.size
            k, nb = _neighbor_slots(region, sites)
            for low, high, _ in starts.values():
                _check_table_reach(nb, low, high, win)
            self._slots.append(np.ascontiguousarray(self._slot[nb].T))
            self._base.append(brow + (k[:, None] * tab.shape[-1] - win[0]))
        self._work: list[tuple[np.ndarray, ...]] | None = None

    def _work_arrays(self) -> list[tuple[np.ndarray, ...]]:
        """Per parity: neighbour heights, mn, mx, table index, P(up),
        uniforms (chains-major), down and free-choice arrays.

        Each kind is one buffer, sized for the larger block; the two
        parities take views of its start.  The uniforms reuse the table
        index's memory, which is dead once P(up) is read.

        The buffers are kept for speed, not for the result: a half-sweep
        that allocates fresh temporaries ends in bit-identical heights and
        generator states, but took the bench's 100x100 concentration run
        from 198 to 314 ms on a 2-core machine, while the 9-25 sizes did
        not move.  Large allocations and page faults on every half-sweep
        are the likely cause (not verified).
        """
        k, b = self._slots[0].shape[0], self.batch
        sizes = [slots.shape[1] for slots in self._slots]

        def shared(dtype, shape):
            flat = np.empty(max(math.prod(shape(s)) for s in sizes), dtype)
            return [
                flat[: math.prod(shape(s))].reshape(shape(s)) for s in sizes
            ]

        def rows(s):
            return (s, b)

        hdt = self._h.dtype
        index = shared(np.int64, rows)
        return list(zip(
            shared(hdt, lambda s: (k, s, b)),
            shared(hdt, rows),
            shared(hdt, rows),
            index,
            shared(np.float64, rows),
            [i.view(np.float64).reshape(b, s) for i, s in zip(index, sizes)],
            shared(np.bool_, rows),
            shared(np.bool_, rows),
        ))

    def half_sweep(self, parity: int) -> None:
        if parity not in (0, 1):
            raise ValueError(f"parity must be 0 or 1, got {parity!r}")
        slots = self._slots[parity]
        if slots.shape[1] == 0:
            return
        work = self._work if self._work is not None else self._work_arrays()
        nvs, mn, mx, idx, p_up, u, down, free = work[parity]
        h = self._h
        # every slot is a storage row, and every index lies in the table
        # (_check_table_reach), so "clip" never clips; "raise" would copy
        h.take(slots, axis=0, out=nvs, mode="clip")  # (k, sites, batch)
        np.minimum.reduce(nvs, out=mn)
        np.maximum.reduce(nvs, out=mx)
        np.add(mn, self._base[parity], out=idx)
        self._table.take(idx, out=p_up, mode="clip")
        top = 0  # u overwrites idx from here on
        for rng, chains in self._groups:
            rng.random(out=u[top : top + chains])
            top += chains
        np.greater_equal(u.T, p_up, out=down)
        down &= np.equal(mx, mn, out=free)
        # new height mn + 1 - 2 down, written in place into the block's rows
        out = h[self._blocks[parity]]
        np.add(mn, 1, out=out)
        step = down.view(np.int8)
        out -= step
        out -= step

    def sweep(self, n: int = 1) -> None:
        for _ in self._half_sweeps(n):
            pass

    def _half_sweeps(self, n: int):
        """Run ``n`` sweeps, yielding after each half-sweep.

        The work arrays are built once for all of them.
        """
        try:
            n = operator.index(n)
        except TypeError:
            raise ValueError(
                f"number of sweeps must be an integer, got {n!r}"
            ) from None
        if n < 0:
            raise ValueError(f"number of sweeps must be >= 0, got {n}")
        self._work = self._work_arrays()
        try:
            for _ in range(n):
                for parity in (0, 1):
                    self.half_sweep(parity)
                    yield
        finally:
            self._work = None

    def _keep_first_group(self) -> np.ndarray:
        """Drop every chain outside the first group; return their heights.

        The engine is then in the state, and draws the stream, of one
        built with the first group's potentials and generator alone.  The
        dropped chains' heights come as a (chains, region size) array in
        the storage dtype, rows aligned with ``region.vertex_list``.
        """
        chains = self._groups[0][1]
        dropped = self._h[:, chains:].take(self._slot, axis=0).T
        per_chain = self._table.size // self.batch
        self._groups = self._groups[:1]
        self.batch = chains
        self._h = np.ascontiguousarray(self._h[:, :chains])
        self._table = self._table[: chains * per_chain].copy()
        self._base = [np.ascontiguousarray(b[:, :chains]) for b in self._base]
        return dropped

    @property
    def heights(self) -> np.ndarray:
        """(batch, *shape) int64 copy of the current configurations."""
        return self.height_matrix().reshape(self.batch, *self.shape)

    def height_matrix(self) -> np.ndarray:
        """(batch, region size) int64 heights aligned with region.vertex_list."""
        rows = np.take(self._h, self._slot, axis=0)
        return rows.T.astype(np.int64, order="C")
