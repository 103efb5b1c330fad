"""Spans around the calls into each cmselect layer, recorded from outside.

Each layer function is wrapped at the name its caller looks up: a module
attribute such as ``cmselect.harness.tilt``, or a class attribute such as
``BootstrapDraws.selection_quantile``. The wrapper records a span (layer,
start, end, parent span, round) in memory; self time is a span's duration
minus the time its child spans cover. A name that no longer exists leaves its
layer absent instead of stopping the run, so renaming a function in the
program cannot break the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter


def _draws_counts(counts, args, kwargs, result):
    draws = args[0]
    counts["critical.BootstrapDraws.draws"] += int(getattr(draws, "n_draws", 0))
    valid = getattr(draws, "valid", None)
    if valid is not None:
        counts["critical.BootstrapDraws.valid"] += int(valid.sum())


def _tilt_counts(counts, args, kwargs, result):
    counts["tilt.tilt.calls"] += 1
    iterations = int(getattr(result, "iterations", 0))
    counts["tilt.newton_iterations"] += iterations
    if not getattr(result, "solved", True):
        counts["tilt.infeasible"] += 1
    elif iterations == 0:
        counts["tilt.uniform"] += 1


def _batch_rows(name, position):
    def count(counts, args, kwargs, result):
        counts[name] += int(args[position].shape[0])

    return count


def _calls(name):
    def count(counts, args, kwargs, result):
        counts[name] += 1

    return count


def _qp_batch_counts(counts, args, kwargs, result):
    counts["qp.nonneg_projection_batch.calls"] += 1
    counts["qp.nonneg_projection_batch.instances"] += int(args[1].shape[0])


# layer -> ([(owner, attribute), ...], counter hook). An owner is a module path,
# or "module:Class" for a method. The same function is wrapped once per
# namespace it is looked up from.
LAYERS = {
    "harness.run_mnrp": ([("cmselect.harness", "run_mnrp")], None),
    "harness.run_power": ([("cmselect.harness", "run_power")], None),
    "harness.simulate_sample": ([("cmselect.harness", "simulate_sample")], None),
    "moments.summarize": (
        [("cmselect.harness", "summarize"), ("cmselect.critical", "summarize"), ("cmselect.tilt", "summarize")],
        None,
    ),
    "moments.load_csv": ([("cmselect.cli", "load_csv")], None),
    "critical.BootstrapDraws": ([("cmselect.critical:BootstrapDraws", "__init__")], _draws_counts),
    "critical.selection_quantile": (
        [("cmselect.critical:BootstrapDraws", "selection_quantile")],
        _calls("critical.selection_quantile.calls"),
    ),
    "critical.rsw_critical_value": (
        [("cmselect.harness", "rsw_critical_value"), ("cmselect.critical", "rsw_critical_value")],
        None,
    ),
    "tilt.tilt": ([("cmselect.harness", "tilt"), ("cmselect.critical", "tilt")], _tilt_counts),
    "selection.phi_k": ([("cmselect.harness", "phi_k"), ("cmselect.critical", "phi_k")], None),
    "statistics.evaluate": ([("cmselect.harness", "evaluate"), ("cmselect.critical", "evaluate")], None),
    "statistics.shifted_statistic_batch": (
        [("cmselect.critical", "shifted_statistic_batch")],
        _batch_rows("statistics.shifted_statistic_batch.draws", 1),
    ),
    "statistics.adjusted_sigma_batch": (
        [("cmselect.statistics", "adjusted_sigma_batch")],
        _batch_rows("statistics.adjusted_sigma_batch.matrices", 0),
    ),
    "qp.nonneg_projection_batch": (
        [("cmselect.statistics", "nonneg_projection_batch")],
        _qp_batch_counts,
    ),
    # The reference solver as the batch solver looks it up: each call is one
    # instance the batch solver could not finish. The statistic on data calls
    # it through cmselect.statistics, which stays unwrapped and inside
    # statistics.evaluate.
    "qp.reference_fallback": ([("cmselect.qp", "nonneg_projection")], _calls("qp.reference_fallbacks")),
    "streams.substream": ([("cmselect.harness", "substream"), ("cmselect.critical", "substream")], None),
    "cli.main": ([("cmselect.cli", "main")], None),
}


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    try:
        target = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(target, class_name, None) if class_name else target


class Tracer:
    """Installs the wrappers, records spans and counts, and removes them."""

    def __init__(self):
        self.spans: list = []  # [layer, start, end, parent index, round]
        self.counts: Counter = Counter()
        self.round = 0
        self.absent: list = []
        self._stack: list = []
        self._patches: list = []

    def install(self):
        self.absent = []
        for layer, (names, hook) in LAYERS.items():
            wrapped = 0
            for owner_name, attr in names:
                owner = _resolve(owner_name)
                original = getattr(owner, attr, None) if owner is not None else None
                if not callable(original):
                    continue
                setattr(owner, attr, self._wrap(layer, original, hook))
                self._patches.append((owner, attr, original))
                wrapped += 1
            if not wrapped:
                self.absent.append(layer)

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, layer, original, hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([layer, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.round])
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if hook is not None:
                try:
                    hook(counts, args, kwargs, result)
                except (AttributeError, IndexError, TypeError):
                    # A changed signature loses the count, never the run.
                    counts[f"{layer}.uncounted"] += 1
            return result

        return traced

    def self_times(self) -> Counter:
        """Total self time per layer, in seconds."""
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Counter = Counter()
        for (layer, start, end, _, _), children in zip(self.spans, child_time):
            totals[layer] += (end - start) - children
        return totals

    def write_spans(self, path):
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index,round,layer,start_us,end_us,parent\n")
            for index, (layer, start, end, parent, round_) in enumerate(self.spans):
                handle.write(
                    f"{index},{round_},{layer},{(start - origin) * 1e6:.3f},"
                    f"{(end - origin) * 1e6:.3f},{parent}\n"
                )
