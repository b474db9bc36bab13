"""Benchmark of randomsurfaces: one workload in one process.

    python3 bench/run.py --workload mc-report --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from its
``src`` directory.  The workload's inputs are made from ``--seed``; the
run repeats whole rounds of the workload's operations until ``--seconds``
have passed, checking every output outside the timed part.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics:

* ``setup_s``: median over separate processes of the time from starting
  the interpreter until the workload's inputs exist (interpreter start,
  ``import randomsurfaces``, input generation);
* ``wall_s``: median over rounds of the time spent in the round's
  operations, each operation's time scaled to the reference CPU speed
  (see ``_calibrate``); the unscaled median is ``raw_wall_s`` in the
  run facts;
* ``peak_rss_mb``: peak resident memory of this process.

With ``--trace 1`` untraced and traced rounds alternate; the last line
has the per-layer metrics of the traced rounds, and the line before it
the tracing overhead.  Spans and run facts go to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_PROBES = 3
# networkx's max-flow visits nodes in string-hash order, and on some inputs
# it raises for some orders only; one hash seed makes every run take the
# same path, so an operation either always fails or never does.
HASH_SEED = "0"
CAL_LOOPS = 60_000
# Time of the calibration loop on the machine the README figures come from
# (2-core x86-64 VM, Python 3.11).  It only sets the scale of wall_s.
REFERENCE_CAL_S = 0.0066


def _import_package():
    """Import randomsurfaces from this checkout's src, or exit with an error."""
    if not (SRC / "randomsurfaces" / "__init__.py").is_file():
        sys.exit(f"error: no randomsurfaces package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import randomsurfaces

    if Path(randomsurfaces.__file__).resolve().parent != SRC / "randomsurfaces":
        sys.exit(f"error: imported randomsurfaces from {randomsurfaces.__file__}")


def _parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("mc-report", "big-box", "exact-lab"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="import and make the inputs, print 'ready', exit")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def _host_cpu():
    """(steal, total) clock ticks of the host from /proc/stat, or None."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def _measure_setup(args) -> list[float]:
    """Start a fresh interpreter that imports and makes the inputs, several times."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed: {line!r}, exit {code}")
        times.append(t1 - t0)
    return times


def _calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop.

    On the shared 2-core VM the reference figures come from, the CPU
    speed drifts by up to a fifth over seconds, and whole runs inherit
    part of it.  Each operation's time is divided by the mean loop time
    just before and after it and multiplied by REFERENCE_CAL_S: that
    cancels the drift and keeps seconds as the unit.
    """
    t0 = time.perf_counter()
    s = 0
    for i in range(CAL_LOOPS):
        s += i * i % 7
    return time.perf_counter() - t0


def _run_round(ops, failures: list[str], op_times: dict):
    """Run every operation once.

    Returns (scaled op seconds, raw op seconds, attempted, failed, correct).
    """
    busy = raw = 0.0
    failed = 0
    correct = True
    for op in ops:
        before = _calibrate()
        t0 = time.perf_counter()
        try:
            out = op.run()
            err = None
        except Exception as exc:  # a raising operation counts as failed
            err = exc
        dt = time.perf_counter() - t0
        scaled = dt * REFERENCE_CAL_S / ((before + _calibrate()) / 2)
        raw += dt
        busy += scaled
        op_times.setdefault(op.name, []).append(scaled)
        if err is not None:
            failed += 1
            failures.append(f"{op.name}: raised {type(err).__name__}: {err}")
            continue
        try:
            problems = op.check(out)
        except Exception as exc:  # output the check cannot read is wrong
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        del out
        if problems:
            failed += 1
            correct = False
            failures.append(f"{op.name}: {'; '.join(problems[:3])}")
    return busy, raw, len(ops), failed, correct


def _versions() -> dict[str, str]:
    from importlib import metadata

    out = {"python": sys.version.split()[0]}
    for dist in ("numpy", "scipy", "networkx"):
        try:
            out[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            out[dist] = None
    return out


def main(argv=None) -> int:
    args = _parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = {**os.environ, "PYTHONHASHSEED": HASH_SEED}
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)
    _import_package()
    import tracing
    import workloads

    workdir = RESULTS / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        setup = [] if args.trace else _measure_setup(args)
        tracer = tracing.Tracer() if args.trace else None
        result = _measure(args, ops, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if setup:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        result["info"]["setup_samples_s"] = setup
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.dump(RESULTS / f"spans-{tag}.jsonl")
    with open(RESULTS / f"result-{tag}.json", "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1)
    for line in result["info"]["failures"][:10]:
        print(f"failed: {line}", file=sys.stderr)
    print(json.dumps({"info": result["info"]}))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def _measure(args, ops, tracer) -> dict:
    failures: list[str] = []
    attempted = failed = 0
    correct = True
    plain, traced, raw = [], [], []
    op_times: dict[str, list[float]] = {}
    cpu0, host0 = time.process_time(), _host_cpu()
    start = time.perf_counter()
    k = 0
    while True:
        trace_this = tracer is not None and k % 2 == 1
        gc.collect()
        if trace_this:
            tracer.round = k
            tracer.install()
        try:
            busy, raw_busy, n_ops, n_failed, ok = _run_round(ops, failures, op_times)
        finally:
            if trace_this:
                tracer.uninstall()
        (traced if trace_this else plain).append((k, busy))
        raw.append(raw_busy)
        attempted += n_ops
        failed += n_failed
        correct &= ok
        k += 1
        if time.perf_counter() - start >= args.seconds and (tracer is None or traced):
            break
    elapsed = time.perf_counter() - start
    cpu, host1 = time.process_time() - cpu0, _host_cpu()
    steal = None
    if host0 and host1 and host1[1] > host0[1]:
        steal = (host1[0] - host0[0]) / (host1[1] - host0[1])
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": k,
        "round_s": [b for _, b in sorted(plain + traced)],
        "raw_round_s": raw,
        "raw_wall_s": statistics.median(raw[r] for r, _ in plain),
        "elapsed_s": elapsed,
        "process_cpu_s": cpu,
        "cpu_per_round_s": cpu / k,
        "host_steal_share": steal,
        "nproc": os.cpu_count(),
        "versions": _versions(),
        "failures": failures,
        "op_s": op_times,
    }
    wall = statistics.median(b for _, b in plain)
    if tracer is None:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    else:
        metrics = tracer.metrics([r for r, _ in traced])
        info["untraced_wall_s"] = wall
        info["traced_wall_s"] = statistics.median(b for _, b in traced)
        info["tracing_overhead_s"] = info["traced_wall_s"] - wall
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "info": info}


if __name__ == "__main__":
    sys.exit(main())
