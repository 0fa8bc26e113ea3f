"""A differential check of the staff, jianpu and tab parsers.

Writes seeded documents in every layout the parsers read differently:
one copy of a passage to a line, all copies on one line, each copy
broken inside a measure, line breaks at random, jianpu measures opened
by a dash, and any of these with an error written into one copy or
into all of them. The fault groups follow: documents with a fault that
none of those layouts writes (a header field, a key directive, a pitch
out of range, the six tablature lines, a tuning too high for most
frets), so that every rule id of the parsers occurs. For each document
it prints one line: the document's number, format and layout, and a
digest of what ``validate_format`` makes of it (the verdict's JSON,
then the error's rule id, message, line and column, or else the
measures' events and the final barline).

The tier-1 tests compare a parse with other parses by the same code.
This compares two versions of the code: run it on both trees with the
same seed, and the outputs must not differ.

    PYTHONPATH=src python3 tests/differential.py SEED [COUNT] > new.txt
    PYTHONPATH=/path/to/other/src python3 tests/differential.py SEED \\
        [COUNT] > old.txt
    diff old.txt new.txt

COUNT, the number of documents before the fault groups, is 10,000
unless given.

``tests/data/differential.json`` pins the verdicts of ``PINNED_COUNT``
documents, and of the fault groups, for each of ``PINNED_SEEDS``,
grouped by format and layout (``group_digests``);
``tests/test_differential.py`` regenerates them. A change that means to
change a verdict rewrites that file:

    PYTHONPATH=src python3 tests/differential.py pin \
        > tests/data/differential.json
"""

from __future__ import annotations

import hashlib
import json
import random
import sys

from notegrade.parsers import validate_format
from notegrade.pitch import STANDARD_TUNING, Tuning
from notegrade.score import NotationFormat

_STAFF_NOTES = ("C", "D", "E", "F", "G", "A", "B", "c", "d", "e", "^F", "_B",
                "=F", "c'", "C,", "z", "C2", "D/", "E//", "F3/2", "G3",
                "[CEG]", "[DF]2", "A-", "B2-")
_STAFF_BARS = ("|", "|", "|", "||")
# Items that make a staff document raise: an unknown character, a tied
# rest, a stray tie, a final barline inside the music, an empty measure,
# a length finer than a tick, a stray accidental, an unterminated chord.
_STAFF_ERRORS = ("H", "z-", "-", "|]", "| |", "C/3", "^", "[CE")
_JIANPU_NOTES = ("1", "2", "3", "4", "5", "6", "7", "0", "1'", "5,", "3_",
                 "6__", "2'_", "-", "-")
# A degree out of range, an unknown token, a rest with an octave mark, an
# empty measure, a length finer than a tick, a dash with no note before.
_JIANPU_ERRORS = ("8", "9", "1x", "0'", "| |", "1" + "_" * 13, "-")
_TAB_LABELS = ("e|", "B|", "G|", "D|", "A|", "E|")
LAYOUTS = ("aligned", "one_line", "straddled", "random")
PINNED_SEEDS = (1, 2)
PINNED_COUNT = 3_000
FAULT_COUNT = 40  # documents per fault group
# Open strings so high that a fret above 0 on the top string, or above 7
# on the next, is past MIDI 127.
HIGH_TUNING = Tuning((127, 120, 110, 100, 90, 80))
# What replaces line k of a staff document's X:, M:, L: and K: header
# (None drops it), and header lines put before one of them.
_HEADER_FAULTS = (("X:a", "X:", "X:1.5", "X:\u0661", None),
                  ("M:5/0", "M:x", "M:C", "M:C|", "M:4/4/4", None),
                  ("L:0/8", "L:1/0", "L:1", "L:1/x", "L:1/16", None),
                  ("K:H", "K:Dm", "K:", "K:Gb", None))
_EXTRA_HEADERS = ("Q:1/4=100", "R:reel", "X:2", "M:3/4", "L:1/4", "T:a")
# Notes and degrees at or past an end of MIDI 0..127 in some key.
_FAR_NOTES = ("c'''''", "C,,,,,,", "^b''''", "_C,,,,,", "[Ec''''']",
              "b''''2", "g''''", "C,,,,,")
_FAR_DEGREES = ("1'''''", "5'''''", "7'''''", "1,,,,,,", "4,,,,,",
                "3'''''_", "1,,,,,")
# Key directives, well formed or not (None drops the directive line).
_DIRECTIVES = ("1=H", "1=C 4/0", "1=C 0/4", "1=Cm", "1 = C", "1=C 4/4 x",
               "2=C", "1=C \u0664/4", "1=C 3/4", "1=Gb 6/8", None)
_OTHER_LABELS = ("x|", "b|", "E:", "e:", " e|", "E|", "e|")
_OTHER_CHARS = ("h", "p", "/", "x", "~", "\u0663", " ")


def _passage(rng: random.Random, fmt: str) -> list[list[str]]:
    """Up to twelve measures drawn, with repetition, from a pool of up to
    four, each a list of items."""
    notes = _STAFF_NOTES if fmt == "staff" else _JIANPU_NOTES
    pool = []
    for _ in range(rng.randint(1, 4)):
        measure = [rng.choice(notes) for _ in range(rng.randint(1, 5))]
        if fmt == "jianpu" and measure[0] == "-" and rng.random() < 0.7:
            measure[0] = "1"  # mostly not dash-opened
        pool.append(measure)
    return [rng.choice(pool) for _ in range(rng.randint(1, 12))]


def _gaps(rng: random.Random, layout: str, items: list[str]) -> list[str]:
    """What follows each item of a copy but its last: a space or a line
    break. Every copy has the same gaps, so that its lines repeat."""
    gaps = [" "] * (len(items) + 1)  # a mark may lengthen a copy by one
    if layout == "straddled":
        gaps[0] = "\n"
    elif layout == "random":
        gaps = [rng.choice((" ", " ", "\n")) for _ in gaps]
    return gaps


def staff_or_jianpu(rng: random.Random, fmt: str) -> tuple[str, str]:
    """A document of a passage written up to six times, and its layout."""
    bars = _STAFF_BARS if fmt == "staff" else ("|",)
    items: list[str] = ["|"] if rng.random() < 0.2 else []  # opening bar
    for measure in _passage(rng, fmt):
        items += measure + [rng.choice(bars)]
    layout = rng.choice(LAYOUTS)
    gaps = _gaps(rng, layout, items)
    copies = [list(items) for _ in range(rng.randint(1, 6))]
    if rng.random() < 0.3:
        mark = rng.choice(_STAFF_ERRORS if fmt == "staff" else _JIANPU_ERRORS)
        at = rng.randrange(len(items) + 1)
        for copy in copies if rng.random() < 0.5 else [rng.choice(copies)]:
            copy.insert(at, mark)
        layout += "+error"
    between = " " if layout.startswith("one_line") else "\n"
    body = between.join("".join(map(str.__add__, copy, gaps[:len(copy) - 1]
                                    + [""])) for copy in copies)
    if rng.random() < 0.15:  # no final barline
        body = body.rstrip("|").rstrip()
    elif fmt == "staff" and rng.random() < 0.5:
        body = body.rstrip("|") + "|]"
    if fmt == "staff":
        key = rng.choice(("C", "D", "Bb", "F#"))
        meter = rng.choice(("4/4", "3/4", "6/8"))
        return f"X:1\nM:{meter}\nL:1/8\nK:{key}\n{body}\n", layout
    key = rng.choice(("C", "G", "Eb", "F#"))
    return f"1={key} {rng.choice(('4/4', '3/4'))}\n{body}\n", layout


def tab(rng: random.Random) -> tuple[str, str]:
    """Six strings of measures drawn from a pool; maybe a fret out of
    range, a barline out of line, or no final barline."""
    pool = []
    for _ in range(rng.randint(1, 3)):
        slots = rng.randint(1, 3)
        cells = [["-"] * (3 * slots + 1) for _ in range(6)]
        for slot in range(slots):
            for string in rng.sample(range(6), rng.randint(0, 3)):
                fret = str(rng.randint(0, 12))
                cells[string][3 * slot + 1:3 * slot + 1 + len(fret)] = fret
        pool.append(["".join(cell) for cell in cells])
    order = [rng.choice(pool) for _ in range(rng.randint(1, 12))]
    strings = ["|".join(measure[s] for measure in order) for s in range(6)]
    kind = "repeated"
    if rng.random() < 0.3:
        s = rng.randrange(6)
        at = rng.randrange(len(strings[s]))
        mark = rng.choice(("99", "|"))
        strings[s] = strings[s][:at] + mark + strings[s][at + len(mark):]
        kind += "+error"
    end = "" if rng.random() < 0.15 else "|"
    return "".join(label + string + end + "\n"
                   for label, string in zip(_TAB_LABELS, strings)), kind


def _header_fault(rng: random.Random) -> str:
    """A staff document with one header line replaced or dropped, or with
    another header line put before it."""
    lines = staff_or_jianpu(rng, "staff")[0].split("\n")
    k = rng.randrange(4)
    if rng.random() < 0.8:
        line = rng.choice(_HEADER_FAULTS[k])
        lines[k:k + 1] = [] if line is None else [line]
    else:
        lines.insert(k, rng.choice(_EXTRA_HEADERS))
    return "\n".join(lines)


def _far(rng: random.Random, fmt: str) -> str:
    """A staff or jianpu document with a note far up or down put in its
    body, before a space or a line end."""
    text = staff_or_jianpu(rng, fmt)[0]
    head = 4 if fmt == "staff" else 1  # header or key directive lines
    start = sum(len(line) + 1 for line in text.split("\n")[:head])
    at = rng.choice([i for i in range(start, len(text)) if text[i] in " \n"])
    word = rng.choice(_FAR_NOTES if fmt == "staff" else _FAR_DEGREES)
    return f"{text[:at]} {word}{text[at:]}"


def _directive_fault(rng: random.Random) -> str:
    """A jianpu document with its key directive replaced or dropped."""
    line = rng.choice(_DIRECTIVES)
    body = staff_or_jianpu(rng, "jianpu")[0].split("\n", 1)[1]
    return body if line is None else f"{line}\n{body}"


def _lines_fault(rng: random.Random) -> str:
    """A tablature document with one line dropped, doubled, swapped with
    another or relabelled, or with one character replaced."""
    lines = tab(rng)[0].split("\n")[:6]
    s, kind = rng.randrange(6), rng.randrange(5)
    if kind == 0:
        del lines[s]
    elif kind == 1:
        lines.insert(s, lines[s])
    elif kind == 2:
        t = rng.randrange(6)
        lines[s], lines[t] = lines[t], lines[s]
    elif kind == 3:
        lines[s] = rng.choice(_OTHER_LABELS) + lines[s][2:]
    else:
        at = rng.randrange(2, len(lines[s]))
        lines[s] = lines[s][:at] + rng.choice(_OTHER_CHARS) + lines[s][at + 1:]
    return "\n".join(lines) + "\n"


# Each fault group's format, layout and writer, taken in turn.
_FAULTS = (("staff", "header", _header_fault),
           ("staff", "pitch_range", lambda rng: _far(rng, "staff")),
           ("jianpu", "key_directive", _directive_fault),
           ("jianpu", "pitch_range", lambda rng: _far(rng, "jianpu")),
           ("tab", "lines", _lines_fault),
           ("tab", "high_tuning", lambda rng: tab(rng)[0]))


def texts(seed: int, count: int):
    """The number, format, layout, text and tuning of each of ``count``
    documents drawn from ``seed``, then of the fault groups' documents,
    which come from a stream of their own: the first ``count`` do not
    depend on them."""
    rng = random.Random(f"differential:{seed}")
    for n in range(count):
        fmt = ("staff", "jianpu", "tab")[n % 3]
        text, layout = tab(rng) if fmt == "tab" else \
            staff_or_jianpu(rng, fmt)
        yield n, fmt, layout, text, STANDARD_TUNING
    rng = random.Random(f"differential-faults:{seed}")
    for k in range(len(_FAULTS) * FAULT_COUNT):
        fmt, layout, write = _FAULTS[k % len(_FAULTS)]
        yield (count + k, fmt, layout, write(rng),
               HIGH_TUNING if layout == "high_tuning" else STANDARD_TUNING)


def verdicts(seed: int, count: int):
    """The number, format, layout and verdict of each of ``texts``."""
    for n, fmt, layout, text, tuning in texts(seed, count):
        yield n, fmt, layout, validate_format(NotationFormat(fmt), text,
                                              tuning)


def digest(verdict) -> str:
    """A short hash of a verdict of ``validate_format``."""
    parts: list = [json.dumps(verdict.to_json_dict(), sort_keys=True)]
    if verdict.error is not None:
        error = verdict.error
        parts.append((error.rule_id, error.message, error.line, error.column))
    else:
        parts.append(([tuple(map(tuple, m.events))
                       for m in verdict.doc.measures],
                       verdict.doc.final_barline))
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def documents(seed: int, count: int):
    """The number, format, layout and digest of each of ``verdicts``."""
    for n, fmt, layout, verdict in verdicts(seed, count):
        yield n, fmt, layout, digest(verdict)


def group_digests(docs) -> dict[str, dict]:
    """For each format and layout of ``docs``, as ``documents`` yields
    them, the SHA-256 of its documents' lines as ``main`` prints them,
    and a check string of two hex digits from each document's digest in
    turn, which names the document that changed."""
    lines: dict[str, list[str]] = {}
    checks: dict[str, list[str]] = {}
    for n, fmt, layout, short in docs:
        group = f"{fmt} {layout}"
        lines.setdefault(group, []).append(f"{n} {group} {short}\n")
        checks.setdefault(group, []).append(short[:2])
    return {group: {"sha256": hashlib.sha256(
                        "".join(lines[group]).encode()).hexdigest(),
                    "check": "".join(checks[group])}
            for group in sorted(lines)}


def main(argv: list[str]) -> None:
    if argv[1] == "pin":
        print(json.dumps({str(seed): group_digests(documents(seed,
                                                             PINNED_COUNT))
                          for seed in PINNED_SEEDS}, indent=1))
        return
    count = int(argv[2]) if len(argv) > 2 else 10_000
    for line in documents(int(argv[1]), count):
        print(*line)


if __name__ == "__main__":
    main(sys.argv)
