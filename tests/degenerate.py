"""Degenerate predictions: one melody repeated until the text reaches a
given size, the failure a model shows when it loops.

Staff and jianpu repeat the melody's body one copy to a line; tablature
repeats it along the six strings, so each string is one long line. The
ground truth is the melody itself.

Run as a script to print how long ``score_ast`` takes on a 1 MB
prediction in each format (best of three runs):

    PYTHONPATH=src python3 tests/degenerate.py
"""

from __future__ import annotations

import gc
import time

from melodies import MELODIES
from notegrade.parsers import parse_ground_truth
from notegrade.score import NotationFormat
from notegrade.tasks import score_ast

# Eighths, quarters and a half note, a dash in jianpu, and frets on two
# strings in tab.
MELODY = next(m for m in MELODIES if m.name == "c_eighths")
FORMATS = ("staff", "jianpu", "tab")


def degenerate_prediction(fmt: str, size: int) -> str:
    """``MELODY`` in ``fmt``, its body repeated until the text holds at
    least ``size`` characters."""
    if fmt == "tab":
        rows = MELODY.tab.splitlines()
        bodies = [row[2:] for row in rows]
        copies = -(-size // sum(map(len, bodies)))
        return "".join(row[:2] + body * copies + "\n"
                       for row, body in zip(rows, bodies))
    source = MELODY.abc if fmt == "staff" else MELODY.jianpu
    head, body = source.rstrip("\n").rsplit("\n", 1)
    if fmt == "staff":
        body = body.removesuffix("]")
    copies = -(-size // (len(body) + 1))
    text = head + "\n" + (body + "\n") * copies
    return text[:-1] + "]\n" if fmt == "staff" else text


def score(fmt: str, text: str):
    gt = parse_ground_truth(MELODY.ground_truth_json(fmt))
    return score_ast("degenerate", gt, text, NotationFormat(fmt))


def best_times(fmt: str, sizes: tuple[int, ...], runs: int = 3):
    """For each size, the fastest of ``runs`` calls of ``score_ast`` on a
    prediction of that many characters, in seconds. The sizes take turns,
    so that a slow spell of the machine hits them alike."""
    texts = [degenerate_prediction(fmt, size) for size in sizes]
    best = [float("inf")] * len(sizes)
    for _ in range(runs):
        for i, text in enumerate(texts):
            gc.collect()
            start = time.perf_counter()
            score(fmt, text)
            best[i] = min(best[i], time.perf_counter() - start)
    return best


if __name__ == "__main__":
    for fmt in FORMATS:
        print(f"{fmt}: {best_times(fmt, (1_000_000,))[0]:.3f} s for 1 MB")
