"""Span recorder for the traced run.

The recorder wraps public functions of ``susygate`` from outside the
package: it rebinds every module-level binding of each target function
(including by-name imports such as ``gate_synth.propagate_oracle`` or
``cli.save_json``) to a wrapper that records a span, and restores the
originals on exit.  Spans are kept in memory as
``[name, start, end, parent_index, job_id]`` and summarized at the end.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

PACKAGE = "susygate"

# (module, function) pairs.  ``fock`` is not wrapped: its helpers run in
# under a microsecond, so a span would cost more than the call.
TARGETS = (
    ("cli", "main"),
    ("cli", "save_json"),
    ("cli", "line_plot_svg"),
    ("spectrum", "compute_spectrum"),
    ("spectrum", "diagonalize"),
    ("dyson", "dyson_gate"),
    ("dyson", "propagate_oracle"),
    ("gate_synth", "design_matrix"),
    ("gate_synth", "synthesize"),
    ("gate_synth", "sweep"),
    ("channel", "synthesize_channel"),
    ("filter_fit", "sme_simulate"),
    ("filter_fit", "filter_estimate"),
    ("filter_fit", "lindblad_evolve"),
    ("filter_fit", "fit_parameters"),
    ("filter_fit", "ensemble_stats"),
    ("susy_toy", "susy_pair"),
    ("susy_toy", "witten_index"),
)
SPAN_NAMES = tuple(f"{m}.{f}" for m, f in TARGETS)


def _steps(args, result):
    return {"steps": len(args["times"]) - 1}


def _fit_counts(args, result):
    return {"evals": len(result.curve) + len(result.skipped), "skipped": len(result.skipped)}


def _channel_counts(args, result):
    report = result[1]
    return {"evals": report.n_evaluations, "converged": int(bool(report.converged))}


def _artifact_bytes(args, result):
    argv = list(args["argv"])
    out = Path(argv[argv.index("--out-dir") + 1]) if "--out-dir" in argv else Path(".")
    return {"artifact_bytes": sum(e.stat().st_size for e in os.scandir(out) if e.is_file())}


# Counts taken from each call's arguments and return value, after its span.
COUNTERS = {
    "filter_fit.sme_simulate": _steps,
    "filter_fit.filter_estimate": _steps,
    "filter_fit.lindblad_evolve": _steps,
    "filter_fit.fit_parameters": _fit_counts,
    "channel.synthesize_channel": _channel_counts,
    "cli.main": _artifact_bytes,
}


class Recorder:
    """Context manager that traces calls into the target functions."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list = []
        self.counts: dict = defaultdict(float)  # "<span name>.<count>" -> total
        self.absent: list = []
        self.job = None
        self._open: list = []
        self._patches: list = []

    def __enter__(self) -> "Recorder":
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for mod, fn in self.targets:
            name = f"{mod}.{fn}"
            original = getattr(sys.modules.get(f"{PACKAGE}.{mod}"), fn, None)
            if not callable(original):
                if name not in self.absent:
                    self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._patches.append((m, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            m, attr, original = self._patches.pop()
            setattr(m, attr, original)

    def _wrap(self, name: str, func):
        counter = COUNTERS.get(name)
        signature = inspect.signature(func) if counter else None
        spans, open_spans = self.spans, self._open

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, open_spans[-1] if open_spans else None, self.job]
            open_spans.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_spans.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                try:
                    counts = counter(bound.arguments, result)
                except (AttributeError, KeyError, IndexError, TypeError, ValueError):
                    # a renamed argument or result field: record it, keep running
                    counts = {}
                    if f"{name} counts" not in self.absent:
                        self.absent.append(f"{name} counts")
                for key, value in counts.items():
                    self.counts[f"{name}.{key}"] += value
            return result

        return wrapper

    # -- summaries --------------------------------------------------------

    def totals(self) -> dict:
        """Per span name: calls, busy seconds and self seconds (span time
        minus the time covered by its child spans)."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = {n: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for n in SPAN_NAMES}
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["busy_s"] += t1 - t0
            row["self_s"] += t1 - t0 - child[i]
        return out

    def busy_under(self, name: str, ancestor: str) -> float:
        """Busy seconds of ``name`` spans that run inside an ``ancestor`` span."""
        total = 0.0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent is not None and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            if parent is not None:
                total += span[2] - span[1]
        return total

    def children(self, parent_name: str, child_name: str) -> int:
        """Number of ``child_name`` spans whose direct parent is a
        ``parent_name`` span."""
        return sum(
            1 for s in self.spans
            if s[0] == child_name and s[3] is not None and self.spans[s[3]][0] == parent_name
        )

    def layer_metrics(self, n_jobs: int) -> dict:
        """Per-layer metrics, each a (value, unit) pair, per traced job."""
        n = max(n_jobs, 1)
        totals = self.totals()
        metrics = {}
        for name in SPAN_NAMES:
            row = totals[name]
            metrics[f"{name}.calls"] = (row["calls"] / n, "count")
            metrics[f"{name}.busy_s"] = (row["busy_s"] / n, "s")
            metrics[f"{name}.self_s"] = (row["self_s"] / n, "s")
        for fn in ("sme_simulate", "filter_estimate", "lindblad_evolve"):
            name = f"filter_fit.{fn}"
            steps = self.counts.get(f"{name}.steps", 0.0)
            metrics[f"{name}.steps"] = (steps / n, "count")
            metrics[f"{name}.us_per_step"] = (_per(totals[name]["busy_s"] * 1e6, steps), "us")
        fit = "filter_fit.fit_parameters"
        metrics[f"{fit}.evals"] = (self.counts.get(f"{fit}.evals", 0.0) / n, "count")
        metrics[f"{fit}.skipped"] = (self.counts.get(f"{fit}.skipped", 0.0) / n, "count")
        ch = "channel.synthesize_channel"
        evals = self.counts.get(f"{ch}.evals", 0.0)
        metrics[f"{ch}.evals"] = (evals / n, "count")
        metrics[f"{ch}.us_per_eval"] = (_per(totals[ch]["busy_s"] * 1e6, evals), "us")
        converged = self.counts.get(f"{ch}.converged", 0.0)
        metrics[f"{ch}.converged_frac"] = (_per(converged, totals[ch]["calls"]), "frac")
        metrics["cli.artifact_bytes"] = (self.counts.get("cli.main.artifact_bytes", 0.0) / n, "bytes")
        return metrics


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0
