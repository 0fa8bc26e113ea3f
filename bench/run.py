"""Benchmark `notegrade batch`: manifest in, report JSON and CSV out.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py compare BASE.jsonl NEW.jsonl

A run builds the workload's inputs from the seed (bench/workloads.py),
then drives `notegrade batch` in-process through notegrade.cli.main as
one caller in a closed loop: it repeats the whole batch until S seconds
have passed. With --trace 0 it alternates batches at workers=1 and
workers=2 and reports the end-to-end metrics; with --trace 1 it
alternates plain and traced batches at workers=1 and reports the
per-layer metrics (bench/spans.py). Every report is checked against the
results worked out from how each sample was made (bench/check.py), and
every later batch must write the same bytes as the first.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; it is also appended to
bench/out/results.jsonl (or --results), which compare reads. The
program is imported from the checkout's src/ directory and nowhere
else: without it the run fails and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 120


class BenchError(Exception):
    pass


def _child_env() -> dict:
    """The caller's environment, minus what would change the measured
    work: a notegrade config file, and a ban on writing the bytecode
    cache (without the cache every import would compile the sources)."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("NOTEGRADE_CONFIG", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup() -> float:
    """Median time a fresh interpreter takes to import notegrade.cli,
    after one untimed import has written the bytecode cache."""
    code = ("import time; start = time.perf_counter(); import notegrade.cli; "
            "print(time.perf_counter() - start)")
    times = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                              cwd=ROOT, check=True, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        times.append(float(done.stdout))
    return statistics.median(times[1:])


def measure_rss(manifest: Path, work: Path) -> float:
    done = subprocess.run(
        [sys.executable, str(HERE / "rss_child.py"), str(manifest), str(work)],
        env=_child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise BenchError(f"grading child failed: {done.stderr.strip()}")
    return float(done.stdout.split()[-1])


class Batch:
    """One `notegrade batch` invocation, repeated; checks each output."""

    def __init__(self, cli, workload, work: Path):
        self.cli, self.workload, self.work = cli, workload, work
        self.report, self.csv = work / "report.json", work / "report.csv"
        self.size = len(workload.expected)
        self.first: tuple[bytes, bytes] | None = None
        self.failed_per_batch = 0
        self.problems: list[str] = []
        self.batches = 0

    def run(self, workers: int) -> float:
        argv = ["batch", "--manifest", str(self.workload.manifest),
                "--out", str(self.report), "--csv", str(self.csv),
                "--workers", str(workers)]
        sink = io.StringIO()
        gc.collect()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            code = self.cli.main(argv)
        elapsed = time.perf_counter() - start
        if code != 0 or not sink.getvalue().startswith(
                f"scored {self.size} samples"):
            raise BenchError(f"notegrade batch exited {code}")
        self._check(workers)
        return elapsed

    def _check(self, workers: int) -> None:
        self.batches += 1
        outputs = (self.report.read_bytes(), self.csv.read_bytes())
        if self.first is None:
            self.first = outputs
            verdict = check.check_report(
                json.loads(outputs[0]), outputs[1], self.workload.expected)
            self.failed_per_batch = len(verdict.failed)
            self.problems += verdict.problems
        elif outputs != self.first:
            self.problems.append(
                f"batch {self.batches} (workers={workers}) wrote different "
                f"bytes from the first")

    def result(self, metrics: dict[str, tuple[float, str]]) -> dict:
        for problem in self.problems[:20]:
            print(f"check: {problem}", file=sys.stderr)
        return {
            "correct": not self.problems,
            "attempted": self.size * self.batches,
            "failed": self.failed_per_batch * self.batches,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }


def _alternate(seconds: float, first, second) -> tuple[list, list]:
    """Run ``first`` and ``second`` in turn until ``seconds`` have passed
    and each has run at least twice."""
    a, b = [], []
    start = time.perf_counter()
    while len(a) < 2 or time.perf_counter() - start < seconds:
        a.append(first())
        b.append(second())
    return a, b


def end_to_end(batch: Batch, seconds: float) -> dict[str, tuple[float, str]]:
    setup_s = measure_setup()
    w1, w2 = _alternate(seconds, lambda: batch.run(1), lambda: batch.run(2))
    return {
        "samples_per_s": (batch.size / statistics.median(w1), "samples/s"),
        "samples_per_s_w2": (batch.size / statistics.median(w2), "samples/s"),
        "peak_rss_mb": (measure_rss(batch.workload.manifest, batch.work),
                        "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(batch: Batch, seconds: float, spans_path: Path):
    from spans import Tracer, batch_totals, layer_metrics

    totals: list[dict] = []
    last_spans: list = []

    def traced() -> float:
        nonlocal last_spans
        with Tracer() as tracer:
            elapsed = batch.run(1)
        last_spans = tracer.spans
        totals.append(batch_totals(tracer.spans))
        return elapsed

    plain, with_spans = _alternate(seconds, lambda: batch.run(1), traced)
    with open(spans_path, "w", encoding="utf-8") as handle:
        for span in last_spans:
            handle.write(json.dumps(span) + "\n")
    return layer_metrics(totals, with_spans, plain)


def run(args: argparse.Namespace) -> dict:
    sys.path.insert(0, str(SRC))
    import notegrade
    from notegrade import cli
    if Path(notegrade.__file__).resolve().parent != SRC / "notegrade":
        raise BenchError(f"notegrade imported from {notegrade.__file__}")

    os.environ.pop("NOTEGRADE_CONFIG", None)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        workload = workloads.build(args.workload, args.seed, work / "inputs")
        batch = Batch(cli, workload, work)
        if args.trace:
            metrics = per_layer(
                batch, args.seconds,
                OUT / f"spans-{args.workload}-{args.seed}.jsonl")
        else:
            metrics = end_to_end(batch, args.seconds)
        return batch.result(metrics)
    finally:
        shutil.rmtree(work, ignore_errors=True)


# --- compare -----------------------------------------------------------------

def _load_results(path: str) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                row = json.loads(line)
                if not row["trace"]:
                    by_workload.setdefault(row["workload"], []).append(row)
    return by_workload


def _summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def compare(base_path: str, new_path: str) -> int:
    """Print, per workload and end-to-end metric, both sides' median and
    quartiles and whether the new side is within the metric's bound."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base, new = _load_results(base_path), _load_results(new_path)
    for name in sorted(set(base) & set(new)):
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            a = [r["metrics"][key]["value"] for r in base[name]]
            b = [r["metrics"][key]["value"] for r in new[name]]
            (aq1, am, aq3), (bq1, bm, bq3) = _summary(a), _summary(b)
            sign = 1 if metric["better"] == "lower" else -1
            worse = sign * (bm - am) / am
            spread = max((aq3 - aq1) / am, (bq3 - bq1) / bm)
            all_better = all(sign * (y - x) < 0 for x in a for y in b)
            if key != "setup_s" and spread > bound and not all_better:
                verdict = f"unresolved: spread {spread:.1%} > bound"
            elif worse > bound:
                verdict = "worse by more than the bound"
            else:
                verdict = "within bound"
            print(f"{name} {key}: base {am:.6g} [{aq1:.6g}, {aq3:.6g}] "
                  f"(n={len(a)}), new {bm:.6g} [{bq1:.6g}, {bq3:.6g}] "
                  f"(n={len(b)}), {-worse:+.1%} better, bound {bound:.0%}: "
                  f"{verdict}")
        shares = [{(r["failed"], r["attempted"]) for r in side[name]}
                  for side in (base, new)]
        ratios = [{f / a for f, a in s} for s in shares]
        print(f"{name:12} failed share: base {sorted(ratios[0])} "
              f"new {sorted(ratios[1])}")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare BASE.jsonl NEW.jsonl",
                  file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=str(OUT / "results.jsonl"),
                        help="JSONL file the result line is appended to")
    args = parser.parse_args(argv)
    if not (SRC / "notegrade" / "cli.py").is_file():
        print(f"error: no notegrade sources at {SRC}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    line = json.dumps(result, sort_keys=True)
    with open(args.results, "a", encoding="utf-8") as handle:
        handle.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, **result},
                                sort_keys=True) + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
