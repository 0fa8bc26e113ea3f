"""Degenerate predictions: one melody repeated until the text reaches a
given size, the failure a model shows when it loops.

Staff and jianpu repeat the melody's body one copy to a line, or all
copies on one line, or one copy to two lines broken inside its first
measure; tablature repeats it along the six strings, so each string is
one long line. The ground truth is the melody itself.

Non-repeating predictions are as long, but no measure in them repeats,
so a parser that builds each distinct measure once gains nothing: a
seeded draw of eight eighth notes to a measure and four measures to a
line in staff and jianpu, and four one-fret frames to a measure in tab.

Run as a script to print the CPU time ``score_ast`` takes on a 1 MB
prediction of each kind in each format, the CPU time ``validate_format``
(the parse alone) takes on it (best of three runs each), and the
``tracemalloc`` peak of one ``validate_format`` call on it, in bytes:

    PYTHONPATH=src python3 tests/degenerate.py
"""

from __future__ import annotations

import gc
import random
import time
import tracemalloc

from melodies import MELODIES
from notegrade.parsers import parse_ground_truth, validate_format
from notegrade.parsers.tab import STRING_LABELS
from notegrade.score import NotationFormat
from notegrade.tasks import score_ast

# Eighths, quarters and a half note, a dash in jianpu, and frets on two
# strings in tab.
MELODY = next(m for m in MELODIES if m.name == "c_eighths")
FORMATS = ("staff", "jianpu", "tab")
# The formats whose degenerate predictions have a line per copy.
LINES = ("staff", "jianpu")


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


def one_line_prediction(fmt: str, size: int) -> str:
    """``degenerate_prediction`` in staff or jianpu with every copy of the
    body on one line, as each string of tablature has it."""
    head = 4 if fmt == "staff" else 1
    lines = degenerate_prediction(fmt, size).splitlines()
    body = ("" if fmt == "staff" else " ").join(lines[head:])
    return "\n".join(lines[:head] + [body]) + "\n"


def straddling_prediction(fmt: str, size: int) -> str:
    """``degenerate_prediction`` in staff or jianpu with each copy of the
    body broken after its first note, so that in every copy a measure
    spans a line break: no line starts and ends between measures, and
    that measure is read note by note each time."""
    head = 4 if fmt == "staff" else 1
    lines = degenerate_prediction(fmt, size).splitlines()
    body = [line.replace(" ", "\n", 1) for line in lines[head:]]
    return "\n".join(lines[:head] + body) + "\n"


# The notes a non-repeating measure is drawn from: eighths in staff and
# jianpu, over two octaves and more; a fret on one string in tab.
_EIGHTHS = {
    "staff": [f"{letter}{mark}/" for letter in "CDEFGABcdefgab"
              for mark in ("", "'" if letter.islower() else ",")],
    "jianpu": [f"{degree}{mark}_" for degree in "1234567"
               for mark in ("", "'", ",")],
}
_FRETS = [(string, fret) for string in range(6) for fret in range(13)]


def nonrepeating_prediction(fmt: str, size: int) -> str:
    """A prediction in ``fmt`` of at least ``size`` characters, in the key
    and meter of ``MELODY``, in which no measure repeats an earlier one."""
    rng = random.Random(0)
    bar = "|" if fmt == "staff" else " | "
    seen: set = set()
    measures: list = []
    length = 0
    while length < size:
        if fmt == "tab":
            measure = tuple(rng.choice(_FRETS) for _ in range(4))
        else:
            measure = " ".join(rng.choice(_EIGHTHS[fmt]) for _ in range(8))
        if measure not in seen:
            seen.add(measure)
            measures.append(measure)
            # In tab, six strings of four 3-column frames and a barline.
            length += 6 * 13 if fmt == "tab" else len(measure) + len(bar)
    if fmt == "tab":
        return "".join(
            label + "".join("".join(f"{fret:-<3}" if on == string else "---"
                                    for on, fret in measure) + "|"
                            for measure in measures) + "\n"
            for string, label in enumerate(STRING_LABELS))
    lines = [bar.join(measures[i:i + 4]) + bar.rstrip()
             for i in range(0, len(measures), 4)]
    head = (MELODY.abc if fmt == "staff" else MELODY.jianpu).split("\n")[:-2]
    text = "\n".join(head + lines) + "\n"
    return text[:-1] + "]\n" if fmt == "staff" else text


def score(fmt: str, text: str):
    gt = parse_ground_truth(MELODY.ground_truth_json(fmt))
    return score_ast("degenerate", gt, text, NotationFormat(fmt))


def timings(fmt: str, sizes: tuple[int, ...], runs: int = 3,
            prediction=degenerate_prediction) -> list[list[float]]:
    """For each of ``runs`` rounds, the CPU seconds one ``score_ast``
    call takes on a ``prediction`` of each size. The sizes take turns, so
    that a slow spell of the machine hits them alike, and the process's
    own CPU clock leaves out the time other work holds the cores."""
    texts = [prediction(fmt, size) for size in sizes]
    rounds = []
    for _ in range(runs):
        times = []
        for text in texts:
            gc.collect()
            start = time.process_time()
            score(fmt, text)
            times.append(time.process_time() - start)
        rounds.append(times)
    return rounds


def best_times(fmt: str, sizes: tuple[int, ...], runs: int = 3,
               prediction=degenerate_prediction) -> list[float]:
    """For each size, the fastest of its ``timings``, in seconds."""
    return [min(times) for times in zip(*timings(fmt, sizes, runs,
                                                 prediction))]


def best_parse_time(fmt: str, text: str, runs: int = 3) -> float:
    """The fastest of ``runs`` CPU times ``validate_format`` takes on
    ``text``, in seconds."""
    times = []
    for _ in range(runs):
        gc.collect()
        start = time.process_time()
        validate_format(NotationFormat(fmt), text)
        times.append(time.process_time() - start)
    return min(times)


def parse_peak(fmt: str, text: str) -> int:
    """The ``tracemalloc`` peak, in bytes, of one ``validate_format``
    call on ``text``."""
    gc.collect()
    tracemalloc.start()
    try:
        validate_format(NotationFormat(fmt), text)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


if __name__ == "__main__":
    for prediction, formats in ((degenerate_prediction, FORMATS),
                                (one_line_prediction, LINES),
                                (straddling_prediction, LINES),
                                (nonrepeating_prediction, FORMATS)):
        kind = prediction.__name__.removesuffix("_prediction")
        for fmt in formats:
            seconds = best_times(fmt, (1_000_000,), prediction=prediction)[0]
            text = prediction(fmt, 1_000_000)
            parse = best_parse_time(fmt, text)
            print(f"{kind} {fmt}: score_ast {seconds:.3f} s, "
                  f"validate_format {parse:.3f} s, "
                  f"peak {parse_peak(fmt, text):,} bytes for 1 MB")
