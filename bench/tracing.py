"""Spans and counters at the public-function boundaries of randomsurfaces.

``Tracer.install`` wraps every public function of the seven modules, plus
``Region.__init__``, ``BoxGlauber.__init__`` and ``BoxGlauber.sweep``, in
the module that defines it and in every module that imported it by name
(``analysis.BoxGlauber``, ``gibbs.enumerate_extensions``, ...), so calls
between modules are seen too.  A span is [id, parent id, name, start,
end, round]; spans stay in memory until the run ends.  ``uninstall``
puts the originals back.

Per-layer metrics are computed from the spans and counters of the traced
rounds and reported per round.
"""

from __future__ import annotations

import functools
import io
import json
import os
import sys
import time
from collections import Counter

import numpy as np

import randomsurfaces
from randomsurfaces import analysis, cli, gibbs, heights, lattice, potential, sampler

MODULES = {
    "lattice": lattice,
    "heights": heights,
    "potential": potential,
    "gibbs": gibbs,
    "sampler": sampler,
    "analysis": analysis,
    "cli": cli,
}

# metric -> span names whose union of intervals is the metric's time
TIMES = {
    "lattice.region_s": ("lattice.Region", "lattice.make_box"),
    "lattice.bfs_s": ("lattice.distance_map",),
    "heights.envelope_s": ("heights.min_max_extensions",),
    "heights.feasibility_s": ("heights.kirszbraun_violation",),
    "heights.enumerate_s": ("heights.enumerate_extensions",),
    "potential.draw_s": ("potential.sample_potential", "potential.enumerate_potentials"),
    "gibbs.measure_s": (
        "gibbs.quenched_measure",
        "gibbs.annealed_member_probabilities",
        "gibbs.annealed_expectation",
    ),
    "sampler.engine_init_s": ("sampler.BoxGlauber",),
    "sampler.sweep_s": ("sampler.BoxGlauber.sweep",),
    "sampler.chain_s": ("sampler.run_chain",),
    "analysis.dominance_s": ("analysis.dominance_certificate", "analysis.dominance_sweep"),
    "analysis.audit_s": ("analysis.martingale_audit",),
}

# metric -> span name whose self time (duration minus children) it is
SELF_TIMES = {
    "analysis.report_self_s": "analysis.concentration_experiment",
    "cli.self_s": "cli.main",
}

COUNTS = {
    "lattice.regions": "lattice.Region",
    "lattice.bfs_calls": "lattice.distance_map",
    "heights.envelope_calls": "heights.min_max_extensions",
    "gibbs.measures": TIMES["gibbs.measure_s"],
    "analysis.certificates": "analysis.dominance_certificate",
}

# metric -> (numerator, denominator); a rate or a share
RATIOS = {
    "heights.members_per_s": ("heights.members", "heights.enumerate_s"),
    "sampler.site_updates_per_s": ("sampler.site_updates", "sampler.sweep_s"),
    "sampler.chain_steps_per_s": ("sampler.chain_steps", "sampler.chain_s"),
    "sampler.free_choice_frac": ("sampler.free_choice", "sampler.free_sites"),
}

FREE_CHOICE_EVERY = 16  # sample the free-choice share at every 16th half-sweep


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.round = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._half_sweeps = 0
        self._cli_out = 0

    # -- recording --------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            rec = [len(tracer.spans), tracer._stack[-1] if tracer._stack else -1,
                   name, time.perf_counter(), 0.0, tracer.round]
            tracer.spans.append(rec)
            tracer._stack.append(rec[0])
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(tracer, args, kwargs, out)
            return out

        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap the public functions and rebind every by-name import of them."""
        replace = {}
        for short, mod in MODULES.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if callable(fn) and not isinstance(fn, type) and fn.__module__ == mod.__name__:
                    before, after = HOOKS.get(f"{short}.{attr}", (None, None))
                    replace[id(fn)] = self._wrap(f"{short}.{attr}", fn, before, after)
        for mod in (randomsurfaces, *MODULES.values()):
            for attr, value in list(vars(mod).items()):
                if id(value) in replace and not attr.startswith("__"):
                    self._patch(mod, attr, replace[id(value)])
        self._patch(lattice.Region, "__init__",
                    self._wrap("lattice.Region", lattice.Region.__init__))
        glauber = sampler.BoxGlauber
        self._patch(glauber, "__init__", self._wrap("sampler.BoxGlauber", glauber.__init__))
        self._patch(glauber, "sweep",
                    self._wrap("sampler.BoxGlauber.sweep", glauber.sweep, after=_count_sweeps))
        half = glauber.half_sweep

        @functools.wraps(half)
        def half_sweep(eng, parity):
            self._half_sweeps += 1
            if self._half_sweeps % FREE_CHOICE_EVERY == 0:
                _count_free_choice(self, eng, parity)
            return half(eng, parity)

        self._patch(glauber, "half_sweep", half_sweep)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reporting ----------------------------------------------------------

    def metrics(self, rounds: list[int]) -> dict[str, dict]:
        """Per-layer metrics per traced round over ``rounds``, with units."""
        keep = set(rounds)
        spans = [s for s in self.spans if s[5] in keep]
        by_id = {s[0]: s for s in self.spans}
        totals = Counter(self.counts)
        for metric, names in TIMES.items():
            totals[metric] = _union_time(spans, by_id, set(names))
        child_time = Counter()
        for s in spans:
            child_time[s[1]] += s[4] - s[3]
        for metric, name in SELF_TIMES.items():
            totals[metric] = sum(
                s[4] - s[3] - child_time[s[0]] for s in spans if s[2] == name
            )
        for metric, names in COUNTS.items():
            names = {names} if isinstance(names, str) else set(names)
            totals[metric] = sum(1 for s in spans if s[2] in names)
        out = {}
        for metric in PER_LAYER:
            if metric in RATIOS:
                num, den = RATIOS[metric]
                value = totals[num] / totals[den] if totals[den] else 0.0
            else:
                value = totals[metric] / max(1, len(rounds))
            out[metric] = {"value": value, "unit": unit(metric)}
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines: id, parent, name, start, end, round."""
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


def _union_time(spans, by_id, names) -> float:
    """Summed duration of spans named in ``names`` that have no such ancestor."""
    total = 0.0
    for s in spans:
        if s[2] not in names:
            continue
        parent = s[1]
        while parent >= 0 and by_id[parent][2] not in names:
            parent = by_id[parent][1]
        if parent < 0:
            total += s[4] - s[3]
    return total


# -- counters kept at the same boundaries ------------------------------------


def _count_members(tracer, args, kwargs, out):
    tracer.counts["heights.members"] += len(out)


def _count_draws(tracer, args, kwargs, out):
    tracer.counts["potential.draws"] += len(out) if isinstance(out, list) else 1


def _count_chain_steps(tracer, args, kwargs, out):
    steps = kwargs["steps"] if "steps" in kwargs else args[3]
    tracer.counts["sampler.chain_steps"] += int(steps)


def _count_sweeps(tracer, args, kwargs, out):
    eng = args[0]
    n = kwargs.get("n", args[1] if len(args) > 1 else 1)
    free = int((~eng.pinned_mask).sum())
    tracer.counts["sampler.sweeps"] += n
    tracer.counts["sampler.site_updates"] += n * eng.batch * free


def _count_free_choice(tracer, eng, parity):
    """Updated sites whose in-box neighbours all sit at one height."""
    h = eng.heights
    n0, n1 = eng.shape
    big = np.iinfo(h.dtype).max
    lo = np.full((eng.batch, n0 + 2, n1 + 2), big, dtype=h.dtype)
    hi = np.full((eng.batch, n0 + 2, n1 + 2), -big, dtype=h.dtype)
    lo[:, 1:-1, 1:-1] = h
    hi[:, 1:-1, 1:-1] = h
    nmin = np.minimum.reduce([lo[:, :-2, 1:-1], lo[:, 2:, 1:-1], lo[:, 1:-1, :-2], lo[:, 1:-1, 2:]])
    nmax = np.maximum.reduce([hi[:, :-2, 1:-1], hi[:, 2:, 1:-1], hi[:, 1:-1, :-2], hi[:, 1:-1, 2:]])
    ii, jj = np.indices((n0, n1))
    sites = ((ii + jj + eng.low[0] + eng.low[1]) % 2 == parity) & ~eng.pinned_mask
    tracer.counts["sampler.free_choice"] += int((nmin == nmax)[:, sites].sum())
    tracer.counts["sampler.free_sites"] += eng.batch * int(sites.sum())


def _certificate_pairs(tracer, args, kwargs, out):
    lower, upper = args[0], args[1]
    a = np.asarray([m.heights for m in lower.support.members])
    b = np.asarray([m.heights for m in upper.support.members])
    tracer.counts["analysis.flow_pairs"] += int((a[:, None, :] <= b[None, :, :]).all(axis=2).sum())


def _cli_before(tracer, args, kwargs):
    tracer._cli_out = sys.stdout.tell() if isinstance(sys.stdout, io.StringIO) else 0


def _cli_after(tracer, args, kwargs, out):
    argv = list(args[0] if args else kwargs.get("argv") or [])
    size = 0
    if isinstance(sys.stdout, io.StringIO):
        size += len(sys.stdout.getvalue()) - tracer._cli_out
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            size += os.path.getsize(path)
    tracer.counts["cli.output_bytes"] += size


HOOKS = {
    "heights.enumerate_extensions": (None, _count_members),
    "potential.sample_potential": (None, _count_draws),
    "potential.enumerate_potentials": (None, _count_draws),
    "sampler.run_chain": (None, _count_chain_steps),
    "analysis.dominance_certificate": (None, _certificate_pairs),
    "cli.main": (_cli_before, _cli_after),
}

PER_LAYER = (
    "lattice.region_s", "lattice.regions", "lattice.bfs_calls", "lattice.bfs_s",
    "heights.envelope_s", "heights.envelope_calls", "heights.feasibility_s",
    "heights.enumerate_s", "heights.members", "heights.members_per_s",
    "potential.draws", "potential.draw_s",
    "gibbs.measures", "gibbs.measure_s",
    "sampler.engine_init_s", "sampler.sweeps", "sampler.sweep_s",
    "sampler.site_updates", "sampler.site_updates_per_s", "sampler.free_choice_frac",
    "sampler.chain_steps", "sampler.chain_steps_per_s",
    "analysis.certificates", "analysis.flow_pairs", "analysis.dominance_s",
    "analysis.audit_s", "analysis.report_self_s",
    "cli.self_s", "cli.output_bytes",
)


def unit(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac"):
        return "ratio"
    if metric.endswith("_bytes"):
        return "B"
    return "count"
