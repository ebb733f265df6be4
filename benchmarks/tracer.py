"""Per-layer spans and counts for the traced benchmark run.

The tracer wraps catdamp's public functions from outside the program.
catdamp's modules bind imported names when they load (`formulas`, `logical`
and `validation` each do `from .coherent import apply_loss`), so a wrapper
installed on one module would miss most calls: `install` replaces every
binding of each wrapped function across the loaded `catdamp.*` modules, and
the `overlaps` method on `LogicalBasis`.  `uninstall` puts the originals back.

Spans record time; a span's self time is its duration minus the time its
child spans cover.  Spans that share a metric (the closed forms, whose
`concurrence_m` calls `phase_flip_prob_m`) add only the outermost one's
duration to it, so no interval is counted twice.  The hot scalar kernels,
`coherent_overlap` and `LogicalBasis.overlaps`, get counts only: a span on
each of their ~10^5 calls per pass would dwarf their work.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter, defaultdict


def _dyads(x) -> int:
    # apply_loss accepts a pure state, which it expands into terms^2 dyads
    return len(x.dyads) if hasattr(x, "dyads") else len(x.terms) ** 2


class Tracer:
    def __init__(self):
        self.times: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.maxima: defaultdict[str, int] = defaultdict(int)
        self.validation_results: list = []
        self._stack: list[list[float]] = []  # [child time] per open span
        self._open_spans: Counter[str] = Counter()
        self._installed: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.times.clear()
        self.counts.clear()
        self.maxima.clear()
        self.validation_results = []

    # ------------------------------------------------------------ wrappers

    def _span(self, fn, time_key: str, count_key: str | None, self_time: bool = False,
              after=None):
        """Wrap fn in a span adding to times[time_key]: its self time, or the
        duration of the outermost open span with that key.  `after(args,
        kwargs, result)` records extra counts."""
        stack, open_spans = self._stack, self._open_spans
        times, counts = self.times, self.counts

        def wrapper(*args, **kwargs):
            outermost = open_spans[time_key] == 0
            open_spans[time_key] += 1
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                open_spans[time_key] -= 1
                if stack:
                    stack[-1][0] += duration
                if self_time:
                    times[time_key] += duration - frame[0]
                elif outermost:
                    times[time_key] += duration
            if count_key:
                counts[count_key] += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, fn, count_key: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[count_key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _keep_validation(self, fn):
        def wrapper(*args, **kwargs):
            self.validation_results = fn(*args, **kwargs)
            return self.validation_results

        return wrapper

    def _wrappers(self, catdamp_modules: dict) -> dict:
        coherent = catdamp_modules["catdamp.coherent"]
        logical = catdamp_modules["catdamp.logical"]
        formulas = catdamp_modules["catdamp.formulas"]
        fockref = catdamp_modules["catdamp.fockref"]
        figures = catdamp_modules["catdamp.figures"]
        sweep = catdamp_modules["catdamp.sweep"]
        validation = catdamp_modules["catdamp.validation"]
        counts, maxima = self.counts, self.maxima

        def write_csv_bytes(args, kwargs, result):
            counts["figures.write_csv_bytes"] += os.path.getsize(args[0])

        def sweep_points(args, kwargs, result):
            counts["sweep.points"] += len(result[1])

        def loss_dyads(args, kwargs, result):
            counts["coherent.apply_loss_dyads"] += _dyads(args[0])

        def canon_dyads(args, kwargs, result):
            counts["coherent.canonicalize_dyads_in"] += len(args[0].dyads)
            counts["coherent.canonicalize_dyads_out"] += len(result.dyads)

        def projection_dyads(args, kwargs, result):
            counts["logical.project_to_qubits_dyads"] += len(args[0].dyads)

        def fock_levels(args, kwargs, result):
            maxima["fockref.n_max_max"] = max(maxima["fockref.n_max_max"],
                                              max(result.dims) - 1)

        closed = {}
        for name in ("concurrence_m", "phase_flip_prob", "phase_flip_prob_m",
                     "concurrence_pure"):
            closed[getattr(formulas, name)] = self._span(
                getattr(formulas, name), "formulas.closed_form_s",
                "formulas.closed_form_calls")
        ghz_elements = formulas.ghz_damped_elements
        ghz_closed = self._span(ghz_elements, "formulas.closed_form_s",
                                "formulas.closed_form_calls")

        def ghz_damped_elements(*args, **kwargs):
            method = kwargs.get("method", args[3] if len(args) > 3 else "auto")
            return (ghz_closed if method == "closed" else ghz_elements)(*args, **kwargs)

        return {
            figures.write_csv: self._span(figures.write_csv, "figures.write_csv_s", None,
                                          after=write_csv_bytes),
            sweep.run_sweep: self._span(sweep.run_sweep, "sweep.run_sweep_self_s", None,
                                        self_time=True, after=sweep_points),
            **closed,
            ghz_elements: ghz_damped_elements,
            formulas.damped_state_projection: self._span(
                formulas.damped_state_projection, "formulas.damped_state_projection_s",
                "formulas.damped_state_projection_calls"),
            formulas.ghz_damped_projection: self._span(
                formulas.ghz_damped_projection, "formulas.ghz_damped_projection_s",
                "formulas.ghz_damped_projection_calls"),
            coherent.apply_loss: self._span(coherent.apply_loss, "coherent.apply_loss_s",
                                            "coherent.apply_loss_calls", after=loss_dyads),
            coherent.canonicalize: self._span(coherent.canonicalize, "coherent.canonicalize_s",
                                              "coherent.canonicalize_calls", after=canon_dyads),
            coherent.density_spectrum: self._span(
                coherent.density_spectrum, "coherent.density_spectrum_s",
                "coherent.density_spectrum_calls"),
            coherent.coherent_overlap: self._counted(coherent.coherent_overlap,
                                                     "coherent.coherent_overlap_calls"),
            logical.project_to_qubits: self._span(
                logical.project_to_qubits, "logical.project_to_qubits_s",
                "logical.project_to_qubits_calls", after=projection_dyads),
            logical.pure_bipartite_concurrence: self._span(
                logical.pure_bipartite_concurrence, "logical.pure_bipartite_concurrence_s",
                None),
            logical.mixture_weights: self._span(logical.mixture_weights,
                                                "logical.mixture_weights_s", None),
            fockref.apply_channel: self._span(fockref.apply_channel, "fockref.apply_channel_s",
                                              "fockref.apply_channel_calls", after=fock_levels),
            fockref.density_to_fock: self._span(fockref.density_to_fock,
                                                "fockref.density_to_fock_s", None,
                                                after=fock_levels),
            validation.run_validation: self._keep_validation(validation.run_validation),
        }

    # ------------------------------------------------------- installation

    def install(self, validation_only: bool = False) -> None:
        """Replace every binding of the wrapped functions in the loaded
        catdamp modules.  `validation_only` wraps just `run_validation`, whose
        returned wall times are read off, and leaves every other call alone."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "catdamp" or name.startswith("catdamp.")}
        if validation_only:
            run_validation = modules["catdamp.validation"].run_validation
            wrappers = {id(run_validation): self._keep_validation(run_validation)}
        else:
            wrappers = {id(fn): w for fn, w in self._wrappers(modules).items()}
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self._installed.append((mod, attr, value))
        if not validation_only:
            basis = modules["catdamp.logical"].LogicalBasis
            overlaps = basis.overlaps
            basis.overlaps = self._counted(overlaps, "logical.overlaps_calls")
            self._installed.append((basis, "overlaps", overlaps))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # --------------------------------------------------------------- report

    def snapshot(self) -> dict[str, float]:
        out: dict[str, float] = dict(self.times)
        out.update(self.counts)
        out.update(self.maxima)
        for r in self.validation_results:
            out[f"validation.{r.name}_s"] = r.wall_time
        return out
