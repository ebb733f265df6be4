"""The benchmark's workloads: the `catdamp` CLI calls of one pass, the
inputs they get from the workload seed, and the check of each call's output.

* figures: `fig 1` ... `fig 6` at default arguments (the paper's figure set).
* validate: `validate --seed S`.
* sweep_dense: `sweep --config <generated>`, an alpha axis over [0, 4] with
  10^5 steps, at an (eta, m) pair drawn from the seed out of SWEEP_CASES.
"""

from __future__ import annotations

import json
import os
import random

import checks

WORKLOADS = ("figures", "validate", "sweep_dense")

FIGURES = (1, 2, 3, 4, 5, 6)

# (eta, m) pairs the seed chooses from.  On each, both concurrences fall
# below epsilon inside [0, 4], so the odd/even vanishing check compares two
# numbers, never two "none"s; and 2^{m-1} (1 - eta) 16 < 36, so no value
# rounds to an exact 0 or 1/2, which would print as a short "0.0" or "0.5"
# and make one seed's pass cheaper than another's.
SWEEP_CASES = ((0.5, 2), (0.7, 2), (0.5, 3), (0.7, 3), (0.8, 4), (0.9, 4), (0.9, 5), (0.95, 5))
SWEEP_STEPS = 100_001
SWEEP_STOP = 4.0
SWEEP_EPSILON = 1e-3

OUT = "{out}"


def sweep_spec(seed: int) -> dict:
    eta, m = random.Random(seed).choice(SWEEP_CASES)
    return {"eta": eta, "m": m,
            "steps": SWEEP_STEPS, "stop": SWEEP_STOP, "epsilon": SWEEP_EPSILON}


def prepare(workload: str, seed: int, rundir: str) -> dict | None:
    """Write the workload's generated inputs into rundir; return what the
    checks need to know about them."""
    if workload != "sweep_dense":
        return None
    spec = sweep_spec(seed)
    config = {
        "axis": {"name": "alpha", "start": 0.0, "stop": spec["stop"], "steps": spec["steps"]},
        "quantities": list(checks.SWEEP_QUANTITIES),
        "fixed": {"eta": spec["eta"], "m": spec["m"]},
        "epsilon": spec["epsilon"],
    }
    with open(os.path.join(rundir, "sweep.json"), "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    return spec


def calls(workload: str, seed: int, rundir: str) -> list[dict]:
    """The CLI calls of one pass: argv, with OUT standing for the call's
    output path inside the pass's own directory, and that file's name."""
    if workload == "figures":
        return [{"argv": ["fig", str(f), "--out", OUT], "out": f"fig{f}.csv"} for f in FIGURES]
    if workload == "validate":
        return [{"argv": ["validate", "--seed", str(seed), "--out", OUT], "out": "report.json"}]
    return [{"argv": ["sweep", "--config", os.path.join(rundir, "sweep.json"), "--out", OUT],
             "out": "sweep.csv"}]


def check(workload: str, index: int, text: str, seed: int, spec: dict | None) -> dict:
    """Check the output of call `index` of a pass; raises checks.CheckFailure."""
    if workload == "figures":
        return checks.check_figure(FIGURES[index], text)
    if workload == "validate":
        return checks.check_report(text, seed)
    return checks.check_sweep(text, spec, sample_seed=seed)
