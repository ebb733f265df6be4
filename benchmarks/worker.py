"""Child process of the benchmark: runs one workload's passes through
`catdamp.cli.main` and reports their times, exit codes and output digests
as one JSON line on stdout.

    python3 worker.py --src SRC --rundir DIR --calls JSON --seconds S --trace 0|1

Each pass writes into a new, empty directory under DIR; a file rewritten in
place costs an extra flush on close, which is not the program's work.  The
first pass's files stay for the parent to check; later passes are reduced to
digests and removed.  The output checks run in the parent, so they neither
take time here nor raise this process's peak RSS.

With --trace 1 the passes of the first half of the run are untraced (their
wall and CPU times, and the per-check wall times `run_validation` returns),
those of the second half traced; the difference of the two median pass
times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time

MIN_PASSES = 3
MIN_TRACE_PASSES = 2


def _digest(path: str) -> str | None:
    # in 1 MiB blocks: reading a 12 MB output whole would raise the peak RSS
    # this process reports
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            while block := fh.read(1 << 20):
                digest.update(block)
    except OSError:
        return None
    return digest.hexdigest()


def _run_pass(cli, calls: list[dict], passdir: str) -> tuple[float, float, list]:
    """Run one pass; return its wall time, CPU time and per-call [exit code,
    error, output digest]."""
    os.mkdir(passdir)
    argvs = [[passdir + "/" + c["out"] if a == "{out}" else a for a in c["argv"]]
             for c in calls]
    results = []
    sink = io.StringIO()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for argv in argvs:
        try:
            with contextlib.redirect_stdout(sink):
                code = cli.main(argv)
            error = None
        except SystemExit as exc:  # argparse rejects its arguments this way
            code, error = exc.code, "SystemExit"
        except Exception as exc:  # noqa: BLE001 - a failed call counts as failed
            code, error = 1, f"{type(exc).__name__}: {exc}"
        results.append([code, error])
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    for result, call in zip(results, calls):
        result.append(_digest(os.path.join(passdir, call["out"])))
    return wall, cpu, results


def _passes(cli, calls, rundir, first, seconds, min_passes, on_pass=None) -> dict:
    walls, cpus, ops = [], [], []
    started = time.perf_counter()
    k = first
    while len(walls) < min_passes or time.perf_counter() - started < seconds:
        passdir = os.path.join(rundir, f"pass-{k}")
        wall, cpu, results = _run_pass(cli, calls, passdir)
        if k > 0:
            shutil.rmtree(passdir)
        if on_pass is not None:
            on_pass()
        walls.append(wall)
        cpus.append(cpu)
        ops.append(results)
        k += 1
    return {"walls": walls, "cpus": cpus, "ops": ops}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--rundir", required=True)
    ap.add_argument("--calls", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    sys.path.insert(0, args.src)
    import catdamp
    import catdamp.cli as cli
    import numpy
    import scipy

    where = os.path.dirname(os.path.abspath(catdamp.__file__))
    if where != os.path.join(os.path.abspath(args.src), "catdamp"):
        print(f"catdamp imported from {where}, not from {args.src}", file=sys.stderr)
        return 2
    calls = json.loads(args.calls)
    out = {"versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                        "scipy": scipy.__version__}}
    if not args.trace:
        out.update(_passes(cli, calls, args.rundir, 0, args.seconds, MIN_PASSES))
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        from tracer import Tracer

        half = args.seconds / 2.0
        tracer = Tracer()
        per_pass = []
        tracer.install(validation_only=True)
        try:
            untraced = _passes(cli, calls, args.rundir, 0, half, MIN_TRACE_PASSES,
                               on_pass=lambda: per_pass.append(tracer.snapshot()))
        finally:
            tracer.uninstall()
        validation = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
        traced_snaps = []

        def record():
            traced_snaps.append(tracer.snapshot())
            tracer.reset()

        tracer.reset()
        tracer.install()
        try:
            traced = _passes(cli, calls, args.rundir, len(untraced["walls"]), half,
                             MIN_TRACE_PASSES, on_pass=record)
        finally:
            tracer.uninstall()
        out["walls"] = untraced["walls"] + traced["walls"]
        out["ops"] = untraced["ops"] + traced["ops"]
        out["untraced"] = {"walls": untraced["walls"], "cpus": untraced["cpus"]}
        out["traced_walls"] = traced["walls"]
        out["validation"] = validation
        out["trace_passes"] = traced_snaps
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
