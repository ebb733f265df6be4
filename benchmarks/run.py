"""catdamp benchmark: runs one workload through the `catdamp` CLI, checks
every output, and prints its metrics.

    python3 benchmarks/run.py --workload {figures,validate,sweep_dense}
                              [--seed 7] [--seconds 20] [--trace 0|1]

Run it from anywhere inside a checkout: it imports catdamp from the
checkout's `src/` and exits with status 2 if that is missing.  Outputs go to
fresh directories under `.bench_out/` in the checkout, which the run removes
when it ends.  The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; earlier lines starting with
`#` describe the run.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from checks import CheckFailure

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Fresh interpreters timed per run for setup_s; 7 gave medians that moved
# by 10% between runs.
SETUP_SAMPLES = 32
IMPORTTIME_SAMPLES = 5
# The load is one process at a time; BLAS gets one thread (pinning it
# changed no spread, and keeps the load at one core).
BLAS_THREADS = "1"

SETUP_CODE = (
    "import time, catdamp, catdamp.cli as cli\n"
    "cli.build_parser()\n"
    "print(time.clock_gettime(time.CLOCK_MONOTONIC), catdamp.__file__)\n"
)
IMPORT_CODE = "import catdamp.cli as cli\ncli.build_parser()\n"

SPAN_METRICS = (
    "figures.write_csv_s", "sweep.run_sweep_self_s", "formulas.closed_form_s",
    "formulas.damped_state_projection_s", "formulas.ghz_damped_projection_s",
    "coherent.apply_loss_s", "coherent.canonicalize_s", "coherent.density_spectrum_s",
    "logical.project_to_qubits_s", "logical.pure_bipartite_concurrence_s",
    "logical.mixture_weights_s", "fockref.apply_channel_s", "fockref.density_to_fock_s",
)
COUNT_METRICS = (
    "figures.write_csv_bytes", "sweep.points", "formulas.closed_form_calls",
    "formulas.damped_state_projection_calls", "formulas.ghz_damped_projection_calls",
    "coherent.apply_loss_calls", "coherent.apply_loss_dyads", "coherent.canonicalize_calls",
    "coherent.canonicalize_dyads_in", "coherent.canonicalize_dyads_out",
    "coherent.density_spectrum_calls", "coherent.coherent_overlap_calls",
    "logical.project_to_qubits_calls", "logical.project_to_qubits_dyads",
    "logical.overlaps_calls", "fockref.apply_channel_calls", "fockref.n_max_max",
)
COUNT_UNITS = {"figures.write_csv_bytes": "bytes", "fockref.n_max_max": "levels"}
# the 28 checks of `catdamp validate`, in report order
VALIDATION_CHECKS = (
    "beamsplitter_unitarity", "loss_composition", "trace_preservation",
    "hermiticity_preservation", "backend_equivalence", "basis_orthonormality",
    "projection_faithfulness", "xstate_wootters_agreement", "pure_concurrence_closed_form",
    "phase_flip_extraction", "phase_flip_identity_m3", "phase_flip_gap_positive",
    "ghz_diagonal_weight", "ghz_psd", "ghz_projection_residual", "ghz_lossless_reduction",
    "ghz_closed_form_agreement", "ghz_fock_crosscheck", "bound_domination",
    "mmode_lossless_maximal", "mmode_small_alpha_limits", "mmode_vanishing_coincidence",
    "mmode_odd_monotone", "mmode_even_unimodal", "saturation_crossing_monotonic",
    "truncation_adequacy", "kraus_completeness", "fock_channel_composition",
)
IMPORT_PACKAGES = ("scipy", "numpy", "catdamp")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def setup_seconds(env: dict, cwd: str, count: int) -> list[float]:
    """Time from spawning a fresh interpreter until `catdamp.cli` is imported
    and `build_parser()` has returned, `count` times.  One discarded
    interpreter first writes the bytecode caches."""
    samples = []
    for i in range(count + 1):
        started = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=cwd,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"setup interpreter failed: {proc.stderr.strip()}")
        stamp, where = proc.stdout.split(maxsplit=1)
        if not Path(where.strip()).resolve().is_relative_to(SRC):
            raise RuntimeError(f"catdamp imported from {where.strip()}, not from {SRC}")
        if i:
            samples.append(float(stamp) - started)
    return samples


def import_seconds(env: dict, cwd: str) -> dict[str, float]:
    """Median cumulative `-X importtime` time of each package in
    IMPORT_PACKAGES, counting only its outermost modules (those imported
    from outside the package)."""
    per_package = {p: [] for p in IMPORT_PACKAGES}
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_CODE],
                              env=env, cwd=cwd, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"importtime interpreter failed: {proc.stderr.strip()}")
        # lines arrive children first; a line at depth d closes the pending
        # lines deeper than d, which are its children
        pending: list[tuple[int, str, int]] = []
        totals = dict.fromkeys(IMPORT_PACKAGES, 0)
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)$", line)
            if not m:
                continue
            cumulative, depth, name = int(m.group(2)), len(m.group(3)), m.group(4)
            children = [p for p in pending if p[0] > depth]
            pending = [p for p in pending if p[0] <= depth]
            package = name.split(".")[0]
            for _, child_name, child_us in children:
                child_package = child_name.split(".")[0]
                if child_package in totals and child_package != package:
                    totals[child_package] += child_us
            pending.append((depth, name, cumulative))
        for _, name, us in pending:
            if name.split(".")[0] in totals:
                totals[name.split(".")[0]] += us
        for p in IMPORT_PACKAGES:
            per_package[p].append(totals[p] / 1e6)
    return {p: statistics.median(v) for p, v in per_package.items()}


def run_worker(calls: list[dict], rundir: str, seconds: float, trace: int, env: dict) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(SRC), "--rundir", rundir,
           "--calls", json.dumps(calls), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, env=env, cwd=rundir, stdout=subprocess.PIPE, text=True,
                          timeout=seconds + 120)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def count_failures(workload: str, seed: int, spec, calls, rundir: str, ops: list) -> int:
    """Check the first pass's outputs against the references; every later
    call must exit 0 and write the same bytes.  Returns the failed calls."""
    verdicts = []
    for i, (call, (code, error, _)) in enumerate(zip(calls, ops[0])):
        path = os.path.join(rundir, "pass-0", call["out"])
        try:
            if code != 0:
                raise CheckFailure(f"exit status {code} ({error})")
            with open(path, encoding="utf-8") as fh:
                seen = workloads.check(workload, i, fh.read(), seed, spec)
            print(f"# check {call['out']}: ok {json.dumps(seen)}")
            verdicts.append(True)
        except (CheckFailure, OSError) as exc:
            print(f"# check {call['out']}: FAILED {exc}")
            verdicts.append(False)
    failed = 0
    for results in ops:
        for ok, (code, _, digest), first in zip(verdicts, results, ops[0]):
            if not (ok and code == 0 and digest is not None and digest == first[2]):
                failed += 1
    return failed


def trace_metrics(report: dict, imports: dict[str, float]) -> dict:
    snaps = report["trace_passes"]
    metrics = {f"import.{p}_s": _metric(imports[p], "s") for p in IMPORT_PACKAGES}
    for key in SPAN_METRICS:
        metrics[key] = _metric(statistics.median(s.get(key, 0.0) for s in snaps), "s")
    for key in COUNT_METRICS:
        metrics[key] = _metric(snaps[0].get(key, 0), COUNT_UNITS.get(key, "count"))
    for name in VALIDATION_CHECKS:
        key = f"validation.{name}_s"
        metrics[key] = _metric(report["validation"].get(key, 0.0), "s")
    untraced_wall = statistics.median(report["untraced"]["walls"])
    metrics["process.wall_s"] = _metric(untraced_wall, "s")
    metrics["process.cpu_s"] = _metric(statistics.median(report["untraced"]["cpus"]), "s")
    metrics["trace.overhead_s"] = _metric(
        statistics.median(report["traced_walls"]) - untraced_wall, "s")
    counts = [{k: s.get(k, 0) for k in COUNT_METRICS} for s in snaps]
    if any(c != counts[0] for c in counts):
        raise RuntimeError("trace counts differ between traced passes")
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "catdamp" / "cli.py").is_file():
        print(f"run.py: no catdamp sources at {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("run.py: --seconds must be positive", file=sys.stderr)
        return 2

    # on SIGTERM, unwind like on Ctrl-C: subprocess.run then kills and waits
    # for the running child, and the run directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    out_root = ROOT / ".bench_out"
    rundir = out_root / f"{args.workload}-{args.seed}-{os.getpid()}-{time.time_ns()}"
    rundir.mkdir(parents=True)
    try:
        env = _child_env()
        spec = workloads.prepare(args.workload, args.seed, str(rundir))
        calls = workloads.calls(args.workload, args.seed, str(rundir))
        imports = import_seconds(env, str(rundir)) if args.trace else None
        # half the setup samples before the passes and half after, so a
        # machine that slows down during the run affects both alike
        setup = [] if args.trace else setup_seconds(env, str(rundir), SETUP_SAMPLES // 2)
        report = run_worker(calls, str(rundir), args.seconds, args.trace, env)
        if not args.trace:
            setup += setup_seconds(env, str(rundir), SETUP_SAMPLES - len(setup))
        print(f"# workload {args.workload}, seed {args.seed}, inputs {json.dumps(spec)}, "
              f"{len(report['walls'])} passes of {len(calls)} calls, "
              f"BLAS threads {BLAS_THREADS}, nproc {os.cpu_count()}, "
              f"versions {json.dumps(report['versions'])}")
        failed = count_failures(args.workload, args.seed, spec, calls, str(rundir),
                                report["ops"])
        if args.trace:
            metrics = trace_metrics(report, imports)
        else:
            print(f"# pass wall times [s]: {' '.join(f'{w:.4f}' for w in report['walls'])}")
            metrics = {
                "wall_s": _metric(statistics.median(report["walls"]), "s"),
                "setup_s": _metric(statistics.median(setup), "s"),
                "peak_rss_mb": _metric(report["peak_rss_mb"], "MB"),
            }
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            out_root.rmdir()
        except OSError:
            pass
    attempted = sum(len(results) for results in report["ops"])
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
