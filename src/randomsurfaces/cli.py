"""Command line interface for the random-surfaces toolkit.

Subcommands:

* ``enumerate``      count (and optionally list) boundary extensions
* ``surface``        sample one surface on a box and write the grid
* ``concentration``  deviation-tail experiment, CSV report
* ``verify``         run a verification suite (identities, dominance,
                     martingale)

Exit codes: 0 success; 1 usage or configuration error; 2 infeasible
boundary data (a metric witness pair is printed); 3 a verification
check failed (the witness is printed).

Config files use ``key = value`` lines, ``#`` comments, and
comma-separated lists.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Sequence

import numpy as np

from . import analysis, gibbs, heights, lattice, potential, sampler

__all__ = ["main", "parse_config"]


class UsageError(Exception):
    pass


class VerificationFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


def parse_config(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; later keys override earlier ones."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno}: expected key = value")
        key, val = line.split("=", 1)
        key = key.strip()
        if not key:
            raise UsageError(f"config line {lineno}: empty key")
        out[key] = val.strip()
    return out


def _split_list(value: str) -> list[str]:
    return [part.strip() for part in value.split(",") if part.strip()]


def _load_region(args) -> lattice.Region:
    if getattr(args, "region_file", None):
        try:
            return lattice.read_region(args.region_file)
        except ValueError as err:
            raise UsageError(f"{args.region_file}: {err}") from None
    if getattr(args, "box", None):
        n = args.box
        if n < 2:
            raise UsageError("--box needs n >= 2")
        return lattice.make_box((0, 0), (n - 1, n - 1))
    raise UsageError("need --region-file or --box")


def _load_boundary(args, region: lattice.Region) -> heights.HeightFunction:
    if getattr(args, "boundary_file", None):
        try:
            return heights.read_heights(args.boundary_file)
        except ValueError as err:
            raise UsageError(f"{args.boundary_file}: {err}") from None
    kind = getattr(args, "boundary", None)
    if kind:
        try:
            return analysis.box_boundary_data(
                region, kind, getattr(args, "direction", 1)
            )
        except (ValueError, NotImplementedError) as err:
            raise UsageError(str(err)) from None
    raise UsageError("need --boundary-file or --boundary")


def _model(args) -> potential.PotentialModel:
    try:
        return potential.parse_model(args.model, seed=args.seed)
    except ValueError as err:
        raise UsageError(str(err)) from None


def _check_out(path: str) -> None:
    """Refuse an ``--out`` path that cannot be written, before the work.

    The checks only read the file system, so a refused run leaves no
    file behind; the final write still maps any other OSError to exit 1.
    """
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        raise UsageError(f"--out {path}: is a directory")
    if not os.path.isdir(parent):
        raise UsageError(f"--out {path}: no directory {parent}")
    if not os.access(parent, os.W_OK):
        raise UsageError(f"--out {path}: directory {parent} is not writable")


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_enumerate(args) -> int:
    region = _load_region(args)
    data = _load_boundary(args, region)
    try:
        support = heights.enumerate_extensions(region, data)
    except ValueError as err:
        raise UsageError(str(err)) from None
    support._boundary.check()
    print(f"extensions: {len(support)}")
    if args.list:
        print("vertices: " + "  ".join(_fmt_vertex(v) for v in region))
        for row in support.members_array.tolist():
            print(" ".join(map(str, row)))
    return 0


def _fmt_vertex(v) -> str:
    return "(" + ",".join(str(c) for c in v) + ")"


def _cmd_surface(args) -> int:
    if args.n < 2:
        raise UsageError("--n must be at least 2")
    if (args.sweeps or 0) < 0:
        raise UsageError("--sweeps must be >= 0")
    region = lattice.make_box((0, 0), (args.n - 1, args.n - 1))
    data = _load_boundary(args, region)
    model = _model(args)
    _check_out(args.out)
    try:
        boundary = heights._boundary(region, data)
    except ValueError as err:
        raise UsageError(str(err)) from None
    window = boundary.check().window
    p = potential.sample_potential(model, window, draw=0)
    sweeps = args.sweeps
    if sweeps is None:
        # about 10 span^2 updates per site, in burn_factor's span^2 unit
        span = window[1] - window[0] + 2
        sweeps = 10 * span * span
    rng = np.random.default_rng([args.seed, 17])
    eng = sampler.BoxGlauber(region, _groups=[(boundary, rng, [p])])
    eng.sweep(sweeps)
    grid = eng.heights[0]
    _write_text(args.out, heights.format_grid(grid))
    print(f"wrote {args.n}x{args.n} surface to {args.out}")
    return 0


def _experiment_config(cfg: dict[str, str]) -> analysis.ExperimentConfig:
    """Parse config values over the ``ExperimentConfig`` defaults."""
    fields = {
        f.name: f.default for f in dataclasses.fields(analysis.ExperimentConfig)
    }
    unknown = set(cfg) - set(fields)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")

    def parse(key, read):
        try:
            return read(cfg[key])
        except ValueError as err:
            raise UsageError(f"bad config value for {key}: {err}") from None

    seed = parse("seed", int) if "seed" in cfg else fields["seed"]
    values = {"seed": seed, "model": fields["model"].with_seed(seed)}
    if "model" in cfg:
        values["model"] = parse(
            "model", lambda text: potential.parse_model(text, seed=seed)
        )
    for key, default in fields.items():
        if key in cfg and key not in values:
            if isinstance(default, tuple):
                item = type(default[0])
                values[key] = parse(
                    key, lambda text: tuple(map(item, _split_list(text)))
                )
            else:
                values[key] = parse(key, type(default))
    try:
        return analysis.ExperimentConfig(**values)
    except ValueError as err:
        raise UsageError(f"bad config value: {err}") from None


# command-line flag -> the config key it overrides
_CONCENTRATION_FLAGS = (
    ("seed", "seed"), ("samples", "tail_samples"), ("A", "A"),
    ("c", "c_values"), ("model", "model"), ("mode", "mode"),
)


def _cmd_concentration(args) -> int:
    cfg: dict[str, str] = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as f:
                text = f.read()
        except UnicodeDecodeError as err:
            raise UsageError(f"{args.config}: {err}") from None
        cfg = parse_config(text)
    for flag, key in _CONCENTRATION_FLAGS:
        if getattr(args, flag) is not None:
            cfg[key] = str(getattr(args, flag))
    config = _experiment_config(cfg)
    _check_out(args.out)
    try:
        report = analysis.concentration_experiment(config)
    except ValueError as err:
        raise UsageError(str(err)) from None
    _write_text(args.out, report.to_csv())
    for s in report.summaries:
        print(
            f"n={s.n}: |R|={s.region_size} diam_l1={s.diam_l1} "
            f"max_walk={s.max_walk_length} window=[{s.window[0]},{s.window[1]}] "
            f"dev_max={s.dev_quantiles[-1][1]:.6g}"
        )
    failed = report.violations()
    for r in report.rows:
        if r.bounded:
            print(
                f"{'FAIL' if r in failed else 'PASS'} n={r.n} c={r.c:g}: "
                f"tail={r.tail_freq:.6g} bound={r.bound:.6g} "
                f"slack={r.slack():.6g}"
            )
    if failed:
        return 3
    print(f"wrote report to {args.out}; all bounded rows pass")
    return 0


def _verify_identities(args) -> list[str]:
    result = gibbs.identity_check_suite(samples=args.samples, seed=args.seed)
    if (
        result.max_relative_complement_gap > 1e-12
        or result.max_shift_gap > 1e-12
    ):
        raise VerificationFailure(
            f"identity gap: relative-complement "
            f"{result.max_relative_complement_gap:.3e}, "
            f"shift {result.max_shift_gap:.3e} (tolerance 1e-12)"
        )
    return [
        f"identities: {result.checks} instances "
        f"({result.nontrivial_localizations} with dropped edges), "
        f"max gaps {result.max_relative_complement_gap:.3e} / "
        f"{result.max_shift_gap:.3e}"
    ]


def _verify_dominance(args) -> list[str]:
    region = lattice.make_box((0, 0), (2, 2))
    ring = analysis.box_boundary_data(region, "parity")
    pairs = [(ring, ring.shift(2)), (ring, ring.shift(4))]
    model = potential.PotentialModel("uniform", 1.0, args.seed)
    sweep = analysis.dominance_sweep(
        region, pairs, model, draws=max(1, args.samples // 10)
    )
    if sweep.failures:
        raise VerificationFailure(
            f"dominance failed at (pair, draw, flow): {sweep.failures[:3]}"
        )
    if sweep.max_marginal_error > 1e-9:
        raise VerificationFailure(
            f"coupling marginal error {sweep.max_marginal_error:.3e} > 1e-9"
        )
    # reversed data must be caught
    support = heights.enumerate_extensions(region, ring)
    wlo, whi = support._boundary.window
    p = potential.sample_potential(model, (wlo, whi + 4), draw=0)
    mu = gibbs.quenched_measure(region, ring.shift(2), p)
    nu = gibbs.quenched_measure(region, ring, p, support)
    cert = analysis.dominance_certificate(mu, nu)
    if cert.dominated or cert.witness is None:
        raise VerificationFailure(
            "reversed boundary pair was not refuted by the flow test"
        )
    if cert.witness["lower_mass"] <= cert.witness["upper_mass"]:
        raise VerificationFailure("refutation witness is not violating")
    return [
        f"dominance: {sweep.checks} certificates, max marginal error "
        f"{sweep.max_marginal_error:.3e}; reversed pair refuted "
        f"(upper-set gap {cert.witness['lower_mass'] - cert.witness['upper_mass']:.3f})"
    ]


def _verify_martingale(args) -> list[str]:
    model = potential.PotentialModel("twopoint", 1.0, args.seed)
    cs = (0.5, 1.0, 1.5, 2.0, 3.0)
    lines = []
    for n in (3, 4):
        region = lattice.make_box((0, 0), (n - 1, n - 1))
        ring = analysis.box_boundary_data(region, "parity")
        interior = sorted(set(region.vertex_list) - set(ring.domain))
        walks = analysis.boundary_to_interior_walks(
            region, ring.domain, interior
        )
        support = heights.enumerate_extensions(region, ring)
        probs = gibbs.annealed_member_probabilities(support, model)
        worst = 0.0
        for walk in walks:
            audit = analysis.martingale_audit(
                region, ring, walk, model, support=support
            )
            worst = max(worst, audit.max_diff)
            length = len(walk)
            tails = analysis.deviation_tail_exact(
                support, probs, walk[-1], [length * c for c in cs]
            )
            for c, tail in zip(cs, tails):
                bound = analysis.azuma_bound(length, c)
                if bound < 1.0 and tail > bound:
                    raise VerificationFailure(
                        f"tail {tail:.3e} exceeds bound {bound:.3e} "
                        f"(walk {walk}, c={c})"
                    )
            if audit.max_diff > 2.0 + 1e-9:
                raise VerificationFailure(
                    f"martingale increment {audit.max_diff:.6f} > 2 "
                    f"on walk {walk}"
                )
        lines.append(
            f"martingale {n}x{n}: {len(walks)} walks, "
            f"max increment {worst:.6f}"
        )
    return lines


def _cmd_verify(args) -> int:
    if args.samples < 1:
        raise UsageError(f"--samples must be >= 1, got {args.samples}")
    # the identities suite seeds its potential models with seed + 1, + 2
    if not 0 <= args.seed < 2**63 - 2:
        raise UsageError(f"--seed must be in [0, 2^63 - 2), got {args.seed}")
    suites = {
        "identities": _verify_identities,
        "dominance": _verify_dominance,
        "martingale": _verify_martingale,
    }
    try:
        for line in suites[args.suite](args):
            print(line)
    except VerificationFailure as err:
        print(f"verification failure: {err}")
        return 3
    print(f"{args.suite}: ok")
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="randomsurfaces", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("enumerate", help="count boundary extensions")
    pe.add_argument("--region-file")
    pe.add_argument("--box", type=int, help="n for an n-by-n box at origin")
    pe.add_argument("--boundary-file")
    pe.add_argument("--boundary", choices=("parity", "extremal"))
    pe.add_argument("--direction", type=int, default=1, choices=(1, -1))
    pe.add_argument("--list", action="store_true")
    pe.set_defaults(func=_cmd_enumerate)

    ps = sub.add_parser("surface", help="sample a surface on an n-by-n box")
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--boundary-file")
    ps.add_argument(
        "--boundary", choices=("parity", "extremal"), default="extremal"
    )
    ps.add_argument("--direction", type=int, default=1, choices=(1, -1))
    ps.add_argument("--model", default="zero")
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument(
        "--sweeps", type=int,
        help="checkerboard heat-bath sweeps (default 10 * span^2, where "
        "span = hi - lo + 2 for the potential window [lo, hi])",
    )
    ps.add_argument("--out", required=True)
    ps.set_defaults(func=_cmd_surface)

    pc = sub.add_parser("concentration", help="deviation-tail experiment")
    pc.add_argument("--config")
    pc.add_argument("--out", required=True)
    pc.add_argument("--seed", type=int)
    pc.add_argument("--samples", type=int)
    pc.add_argument("--A", type=float)
    pc.add_argument("--c", help="comma list of c values")
    pc.add_argument("--model")
    pc.add_argument("--mode", choices=("exact", "mc"))
    pc.set_defaults(func=_cmd_concentration)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument(
        "suite", choices=("identities", "dominance", "martingale")
    )
    pv.add_argument("--samples", type=int, default=100)
    pv.add_argument("--seed", type=int, default=0)
    pv.set_defaults(func=_cmd_verify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, OSError) as err:  # OSError: no such file, a dir, ...
        print(f"error: {err}", file=sys.stderr)
        return 1
    except heights.NoExtensionError as err:
        print(
            f"infeasible boundary: |h({_fmt_vertex(err.x)}) - "
            f"h({_fmt_vertex(err.y)})| = {err.gap} exceeds graph "
            f"distance {err.distance}"
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
