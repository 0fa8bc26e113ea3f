"""Spans around the calls into notegrade's public functions.

The program is not changed: while a ``Tracer`` is installed, the names
the modules look up at call time (``tasks.parse_abc``,
``harness.score_sample``, ...) are bound to timing wrappers, and the
originals are put back on exit. Spans are kept in memory as
(name, start, end, parent, size) and turned into per-layer figures by
``layer_metrics``.

The span stack is shared by all threads, so traced batches must run
with one worker: with ``workers=1`` the pool's single thread scores
while the main thread waits inside ``run_batch``.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

from notegrade import cli, harness, metrics, tasks
from notegrade.parsers import validators


def _text_size(args, kwargs) -> int:
    return len(args[0])


def _cells(args, kwargs) -> int:
    return len(args[0]) * len(args[1])


# (module, attribute, span name, size of the work in one call)
CALL_SITES = (
    (cli, "load_manifest", "harness.load_manifest", None),
    (cli, "run_batch", "harness.run_batch", None),
    (cli, "write_report", "harness.write_report", None),
    (harness.Report, "to_json_dict", "harness.to_json_dict", None),
    (harness, "load_ground_truth", "parsers.ground_truth.load", None),
    (harness, "score_sample", "harness.score_sample", None),
    (harness, "score_vsu", "tasks.score_vsu", None),
    (harness, "score_cnc", "tasks.score_cnc", None),
    (harness, "score_ast", "tasks.score_ast", None),
    (harness, "score_smg", "tasks.score_smg", None),
    (tasks, "validate_format", "parsers.validate_format", None),
    (tasks, "parse_abc", "parsers.abc_notation.parse", _text_size),
    (tasks, "parse_jianpu", "parsers.jianpu.parse", _text_size),
    (tasks, "parse_ascii_tab", "parsers.tab.parse", _text_size),
    (validators, "parse_abc", "parsers.abc_notation.parse", _text_size),
    (validators, "parse_jianpu", "parsers.jianpu.parse", _text_size),
    (validators, "parse_ascii_tab", "parsers.tab.parse", _text_size),
    (tasks, "project", "projection.project", None),
    (tasks, "project_ground_truth", "projection.project_ground_truth", None),
    (tasks, "quantize_durations", "projection.quantize_durations", None),
    (tasks, "alignment_accuracy", "metrics.alignment_accuracy", None),
    (metrics, "edit_distance", "metrics.edit_distance", _cells),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn, size=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent,
                                size(args, kwargs) if size else 0)
        return traced

    def __enter__(self) -> "Tracer":
        for owner, attr, name, size in CALL_SITES:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, size))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _percentile(sorted_values: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-pct * len(sorted_values) // 100))
    return sorted_values[rank - 1]


# Per-layer self times reported, by span name. trace.unaccounted_ms is the
# batch time none of them covers (mostly cli.main itself).
SELF_TIMES = {
    "parsers.abc_notation.parse": "parsers.abc_notation.parse_ms",
    "parsers.jianpu.parse": "parsers.jianpu.parse_ms",
    "parsers.tab.parse": "parsers.tab.parse_ms",
    "parsers.validate_format": "parsers.validate_format_self_ms",
    "parsers.ground_truth.load": "parsers.ground_truth.load_ms",
    "metrics.edit_distance": "metrics.edit_distance_ms",
    "metrics.alignment_accuracy": "metrics.alignment_accuracy_self_ms",
    "projection.project": "projection.project_ms",
    "projection.project_ground_truth": "projection.project_ground_truth_ms",
    "projection.quantize_durations": "projection.quantize_durations_ms",
    "tasks.score_vsu": "tasks.score_vsu_ms",
    "tasks.score_cnc": "tasks.score_cnc_self_ms",
    "tasks.score_ast": "tasks.score_ast_self_ms",
    "tasks.score_smg": "tasks.score_smg_self_ms",
    "harness.load_manifest": "harness.load_manifest_ms",
    "harness.run_batch": "harness.run_batch_self_ms",
    "harness.score_sample": "harness.score_sample_self_ms",
    "harness.to_json_dict": "harness.to_json_dict_ms",
    "harness.write_report": "harness.write_report_self_ms",
}
PARSERS = ("parsers.abc_notation", "parsers.jianpu", "parsers.tab")


def batch_totals(spans) -> dict:
    """Self seconds, calls and sizes per span name for one batch, and the
    duration of every harness.score_sample span in order."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s, calls, size = defaultdict(float), defaultdict(int), \
        defaultdict(int)
    samples = []
    for i, (name, start, end, _, n) in enumerate(spans):
        self_s[name] += end - start - child[i]
        calls[name] += 1
        size[name] += n
        if name == "harness.score_sample":
            samples.append(end - start)
    return {"self_s": self_s, "calls": calls, "size": size,
            "samples": samples}


def layer_metrics(batches: list[dict], traced_s: list[float],
                  untraced_s: list[float]) -> dict[str, tuple[float, str]]:
    """Per-layer figures, each a mean per traced batch, from the totals
    of every traced batch and the batch times with and without spans."""
    k = len(batches)

    def total(key, name):
        return sum(b[key][name] for b in batches)

    out: dict[str, tuple[float, str]] = {}
    for name, metric in SELF_TIMES.items():
        out[metric] = (1000 * total("self_s", name) / k, "ms")
    for parser in PARSERS:
        seconds = total("self_s", parser + ".parse")
        kb = total("size", parser + ".parse") / 1000
        out[parser + ".kb_per_s"] = (kb / seconds if seconds else 0.0, "KB/s")
    docs = sum(total("calls", f"tasks.score_{task}")
               for task in ("cnc", "ast", "smg"))
    parses = sum(total("calls", p + ".parse") for p in PARSERS)
    out["parsers.parse_calls_per_doc"] = (parses / docs if docs else 0.0,
                                          "count")
    cells = total("size", "metrics.edit_distance")
    seconds = total("self_s", "metrics.edit_distance")
    out["metrics.edit_distance_cells"] = (cells / k, "count")
    out["metrics.edit_distance_mcells_per_s"] = (
        cells / seconds / 1e6 if seconds else 0.0, "Mcells/s")
    out["projection.project_ground_truth_calls"] = (
        total("calls", "projection.project_ground_truth") / k, "count")
    out["harness.to_json_dict_calls"] = (
        total("calls", "harness.to_json_dict") / k, "count")

    # One time per sample: its median over the traced batches.
    per_sample = sorted(statistics.median(times)
                        for times in zip(*(b["samples"] for b in batches)))
    n = len(per_sample)
    # The highest whole percentile with at least ten samples beyond it;
    # below forty samples there is no such tail, so the median stands in.
    pct = (100 * (n - 10)) // n if n >= 40 else 50
    out["harness.score_sample_count"] = (n, "count")
    out["harness.score_sample_p50_ms"] = (
        1000 * _percentile(per_sample, 50), "ms")
    out["harness.score_sample_tail_pct"] = (pct, "%")
    out["harness.score_sample_tail_ms"] = (
        1000 * _percentile(per_sample, pct), "ms")

    batch_ms = 1000 * statistics.median(traced_s)
    accounted = sum(out[m][0] for m in SELF_TIMES.values())
    out["trace.batch_ms"] = (batch_ms, "ms")
    out["trace.unaccounted_ms"] = (1000 * sum(traced_s) / k - accounted, "ms")
    out["trace.overhead_s"] = (
        statistics.median(traced_s) - statistics.median(untraced_s), "s")
    return out
