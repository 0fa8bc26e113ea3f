"""The three seeded workloads, and the result every sample must get.

Each workload function writes ground truth, predictions and a JSONL
manifest under a directory, and records for every sample what the
report has to say about it. The expectations come from how the sample
was made, never from running notegrade:

- Substitutions by, and insertions of, pitches that never occur in the
  piece give a pitch edit distance of exactly s + i; such substitutions
  with deletions give s + d. The duration distance is then the length
  difference.
- Insertions alone, of any pitches, give exactly the number inserted;
  deletions alone likewise.
- A prediction made of the ground truth repeated r times is (r - 1) * n
  away on each stream.
- Otherwise (insertions mixed with deletions, or copies mixed with
  substitutions) the distance lies between the length difference and
  the number of edits.

The seed chooses keys, pitches, durations and edit positions. The number
of samples, their kinds and their sizes are fixed per workload, so every
seed asks for the same amount of work.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from music import (
    PIECE_KEYS,
    TONICS,
    Ev,
    Piece,
    diatonic,
    ground_truth_json,
    group_bars,
    render_abc,
    render_jianpu,
    render_tab,
    tab_positions,
)

WORKLOADS = ("mixed_short", "long_align", "degenerate")
FORMATS = ("staff", "jianpu", "tab")
F = Fraction

STAFF_DURS = (F(1, 4), F(1, 2), F(3, 4), F(1), F(1), F(3, 2), F(2), F(3))
JIANPU_DURS = (F(1, 4), F(1, 2), F(1), F(1), F(3, 2), F(2), F(3))
BAR_PATTERNS = {
    (4, 4): ((1, 1, 1, 1), (2, 1, 1), (F(1, 2), F(1, 2), 1, 2),
             (F(3, 2), F(1, 2), 1, 1), (1, 1, 2), (3, 1)),
    (3, 4): ((1, 1, 1), (2, 1), (F(1, 2), F(1, 2), 1, 1),
             (F(3, 2), F(1, 2), 1), (1, 2)),
}
GARBAGE = ("garbage\n", "Sure! Here is the piece you asked for.\n",
           "I cannot convert this score.\n", "")

# The known fault kept in mixed_short: parsers/abc_notation.py lists Cb in
# MAJOR_KEY_SIGNATURES, but pitch.pitch_class_from_name cannot parse it,
# so a K:Cb / 1=Cb prediction of a B-major piece scores 0 instead of 1.
CB_FAULT = "unknown pitch class 'Cb'"


@dataclass(frozen=True)
class Stream:
    """What one alignment stream must report: lengths, and the range the
    edit distance must fall in (``lo == hi`` when it is known exactly)."""

    len_gt: int
    len_pred: int
    lo: int
    hi: int


@dataclass(frozen=True)
class Expected:
    task: str
    fmt: str
    legal: bool | None = None
    rejected: bool = False
    pitch: Stream | None = None
    duration: Stream | None = None
    correct: bool | None = None
    rules: tuple[bool, bool, bool, bool, bool] | None = None
    fault: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    manifest: Path
    expected: dict[str, Expected]


class _Inputs:
    def __init__(self, name: str, root: Path, seed: int):
        self.name, self.root = name, root
        self.rng = random.Random(f"{name}:{seed}")
        self.rows: list[dict] = []
        self.expected: dict[str, Expected] = {}
        (root / "gt").mkdir(parents=True)
        (root / "pred").mkdir()

    def ground_truth(self, name: str, fmt: str, piece: Piece) -> str:
        rel = f"gt/{name}.json"
        (self.root / rel).write_text(ground_truth_json(name, fmt, piece),
                                     encoding="utf-8")
        return rel

    def add(self, sample_id: str, fmt: str, text: str, expected: Expected,
            **fields) -> None:
        rel = f"pred/{sample_id}.txt"
        (self.root / rel).write_text(text, encoding="utf-8")
        self.rows.append({"id": sample_id, "task": expected.task,
                          "format": fmt, "pred_path": rel, **fields})
        self.expected[sample_id] = expected

    def finish(self) -> Workload:
        manifest = self.root / "manifest.jsonl"
        manifest.write_text(
            "".join(json.dumps(row, sort_keys=True) + "\n"
                    for row in self.rows), encoding="utf-8")
        return Workload(self.name, manifest, self.expected)


def build(name: str, seed: int, root: Path) -> Workload:
    """Write workload ``name`` for ``seed`` under ``root`` (which must not
    exist yet)."""
    inputs = _Inputs(name, Path(root), seed)
    {"mixed_short": _mixed_short, "long_align": _long_align,
     "degenerate": _degenerate}[name](inputs)
    return inputs.finish()


# --- pieces -----------------------------------------------------------------

def _fixed_shuffle(rng, pool, n) -> list:
    """``n`` values cycled from ``pool`` in a seeded order: the multiset
    depends on ``n`` alone."""
    values = [pool[i % len(pool)] for i in range(n)]
    rng.shuffle(values)
    return values


def _tab_chord(rng, size: int) -> tuple[int, ...]:
    while True:
        chord = tuple(sorted(rng.sample(range(40, 77), size)))
        try:
            tab_positions(chord)
            return chord
        except ValueError:
            continue


def _pitch(rng, fmt: str, key: str, chord: bool) -> tuple[int, ...]:
    if fmt == "tab":
        return _tab_chord(rng, 2 + rng.randrange(2)) if chord \
            else (rng.randint(40, 76),)
    if chord:
        return tuple(sorted(rng.sample(range(48, 85), 2 + rng.randrange(2))))
    if fmt == "staff" and rng.random() < 0.15:
        return (rng.randint(48, 84),)
    return (diatonic(key, rng.randint(1, 7), rng.randint(-1, 1)),)


def random_piece(rng, fmt: str, n: int) -> Piece:
    """``n`` events: one in 16 a rest, one in 8 a chord (staff and tab),
    one in 10 written as tied halves (staff)."""
    key = "C" if fmt == "tab" else rng.choice(PIECE_KEYS)
    durs = _fixed_shuffle(rng, JIANPU_DURS if fmt == "jianpu" else STAFF_DURS,
                          n)
    order = list(range(n))
    rng.shuffle(order)
    rests = set(order[:n // 16])
    chords = set(order[n // 16:n // 16 + n // 8]) if fmt != "jianpu" else set()
    splits = set(order[-(n // 10):]) if fmt == "staff" and n >= 10 else set()
    events = []
    for i in range(n):
        if i in rests:
            events.append(Ev((), durs[i]))
        else:
            events.append(Ev(_pitch(rng, fmt, key, i in chords), durs[i],
                             split=i in splits))
    return Piece(key, (4, 4), tuple(events))


def _fresh(rng, fmt: str, key: str) -> tuple[int, ...]:
    """A pitch no generated piece uses: above MIDI 95 (staff), three
    octaves up (jianpu), or frets 13-24 on the top string (tab)."""
    if fmt == "staff":
        return (rng.randint(96, 107),)
    if fmt == "jianpu":
        return (diatonic(key, rng.randint(1, 7), 3),)
    return (rng.randint(77, 88),)


# --- edits and renderings ----------------------------------------------------

def edit(rng, piece: Piece, fmt: str, *, subs: int = 0, ins: int = 0,
         dels: int = 0, copies: int = 0):
    """Apply seeded edits; return the edited events and the (lo, hi)
    edit-distance range of the pitch and duration streams.

    ``subs`` and ``ins`` use fresh pitches; ``copies`` inserts copies of
    events already in the piece.
    """
    events = list(piece.events)
    pitched = [i for i, e in enumerate(events) if e.pitches]
    sub_at = set(rng.sample(pitched, subs))
    for i in sorted(sub_at):
        events[i] = Ev(_fresh(rng, fmt, piece.key), events[i].dur)
    del_at = set(rng.sample([i for i in range(len(events)) if i not in sub_at],
                            dels))
    dels_pitched = sum(1 for i in del_at if events[i].pitches)
    events = [e for i, e in enumerate(events) if i not in del_at]
    durs = JIANPU_DURS if fmt == "jianpu" else STAFF_DURS
    inserted = [Ev(_fresh(rng, fmt, piece.key), rng.choice(durs))
                for _ in range(ins)]
    inserted += [rng.choice([e for e in piece.events if e.pitches])
                 for _ in range(copies)]
    for ev in inserted:
        events.insert(rng.randint(0, len(events)), ev)
    added = ins + copies
    if added and dels or copies and subs:
        pitch = (abs(added - dels_pitched), subs + added + dels_pitched)
        duration = (abs(added - dels), added + dels)
    else:
        pitch = (subs + added + dels_pitched,) * 2
        duration = (added + dels,) * 2
    return events, pitch, duration


def render(fmt: str, events, piece: Piece, *, final_bar: bool = True,
           stripped: bool = False, bars: list[int] | None = None) -> str:
    if fmt == "staff":
        return render_abc(events, piece.key, piece.meter, bars=bars,
                          headers="MLK" if stripped else "XMLK",
                          final_bar=final_bar)
    if fmt == "jianpu":
        return render_jianpu(events, piece.key, piece.meter, bars=bars,
                             directive=not stripped, final_bar=final_bar)
    if bars is not None:
        bars = [sum(1 for e in m if e.pitches)
                for m in group_bars(events, bars)]
    return render_tab([e.pitches for e in events if e.pitches], bars=bars,
                      drop_first_line=stripped, final_bar=final_bar)


def conversion(task: str, fmt: str, piece: Piece, events, pitch, duration, *,
               legal: bool = True, fault: str | None = None) -> Expected:
    """The expectation for a scored cnc/ast prediction of ``piece``."""
    pred = Piece(piece.key, piece.meter, tuple(events))
    return Expected(
        task=task, fmt=fmt, legal=legal,
        pitch=Stream(len(piece.pitch_stream()), len(pred.pitch_stream()),
                     *pitch),
        duration=None if fmt == "tab" else Stream(
            len(piece.events), len(events), *duration),
        fault=fault)


def _rejected(task: str, fmt: str) -> Expected:
    return Expected(task=task, fmt=fmt, legal=False, rejected=True)


def smg_expected(fmt: str, measures, capacity: Fraction, final_bar: bool,
                 written_key: str, declared_key: str) -> Expected:
    """The five generation rules, as the README states them."""
    complete = measures if final_bar else measures[:-1]
    arith = all(sum((e.dur for e in m), F(0)) == capacity for m in complete)
    key_ok = fmt == "tab" or TONICS[written_key] == TONICS[declared_key]
    rests_ok = all(any(e.pitches for e in m) for m in measures)
    fits = all(sum((e.dur for e in m[:k + 1]), F(0)) <= capacity
               for m in measures for k in range(len(m)))
    structure = len(complete) >= 2 and final_bar and fits
    legal = final_bar or fmt == "tab"
    return Expected(task="smg", fmt=fmt, legal=legal,
                    rules=(True, arith, key_ok, rests_ok, structure))


def smg_measures(rng, fmt: str, key: str, meter, count: int):
    if fmt == "tab":
        return [[Ev(_pitch(rng, fmt, key, rng.random() < 0.2), F(1))
                 for _ in range(4)] for _ in range(count)]
    measures = []
    for _ in range(count):
        pattern = rng.choice(BAR_PATTERNS[meter])
        measures.append([Ev(_pitch(rng, fmt, key, False), F(d))
                         for d in pattern])
    return measures


def add_smg(b: _Inputs, sample_id: str, fmt: str, measures, meter, key: str,
            *, declared_key: str | None = None, final_bar: bool = True):
    declared_key = declared_key or key
    piece = Piece(key, meter, ())
    events = [e for m in measures for e in m]
    text = render(fmt, events, piece, final_bar=final_bar,
                  bars=[len(m) for m in measures])
    capacity = F(4) if fmt == "tab" else piece.capacity
    meter_text = "4/4" if fmt == "tab" else f"{meter[0]}/{meter[1]}"
    b.add(sample_id, fmt, text,
          smg_expected(fmt, measures, capacity, final_bar, key, declared_key),
          declared_key=declared_key, declared_meter=meter_text)


# --- mixed_short -------------------------------------------------------------

VSU_TEXT_ANSWERS = ("G major", "perfect fifth", "three four time",
                    "dotted quarter note")
CNC_KINDS = ("exact", "fresh_sub", "garbage", "exact", "no_final_bar",
             "mixed", "fresh_sub_ins")
AST_KINDS = ("exact", "stripped", "fresh_sub_ins", "fresh_sub_del", "garbage",
             "mixed")
SMG_KINDS = ("valid", "key_mismatch", "short_measure", "long_measure",
             "no_final_bar", "rest_measure", "garbage")
PER_TASK = 252
GT_PER_FORMAT = 20


def _vsu(i: int, rng) -> tuple[str, str, bool]:
    """(reference answer, prediction, whether it is correct)."""
    if i % 4 == 3:
        answer = VSU_TEXT_ANSWERS[(i // 4) % len(VSU_TEXT_ANSWERS)]
        if (i // 4) % 2:
            return answer, answer.upper() + ".", True
        wrong = rng.choice([a for a in VSU_TEXT_ANSWERS if a != answer])
        return answer, wrong, False
    letter = rng.choice("abcd")
    other = rng.choice([c for c in "abcd" if c != letter])
    phrasing = (i // 4) % 7
    return letter, (
        f"The answer is ({letter.upper()}).",
        letter.upper(),
        f"{letter}) because of the key signature",
        f"Option {letter.upper()}",
        other.upper(),
        "cannot tell",
        "",
    )[phrasing], phrasing < 4


def _mixed_short(b: _Inputs) -> None:
    rng = b.rng
    pools = {}
    for fmt in FORMATS:
        pools[fmt] = []
        for j in range(GT_PER_FORMAT):
            piece = random_piece(rng, fmt, 4 + j % 6)
            pools[fmt].append((piece, b.ground_truth(f"{fmt}-{j:02d}", fmt,
                                                     piece)))

    for i in range(PER_TASK):
        answer, text, correct = _vsu(i, rng)
        fmt = FORMATS[i % 3]
        b.add(f"vsu-{i:04d}", fmt, text,
              Expected(task="vsu", fmt=fmt, correct=correct), answer=answer)

    for task, kinds in (("cnc", CNC_KINDS), ("ast", AST_KINDS)):
        for i in range(PER_TASK):
            fmt = FORMATS[i % 3]
            kind = kinds[(i // 3) % len(kinds)]
            piece, gt_rel = pools[fmt][(i // 3) % GT_PER_FORMAT]
            sample_id = f"{task}-{i:04d}"
            events, exact = list(piece.events), ((0, 0), (0, 0))
            if kind == "garbage":
                b.add(sample_id, fmt, rng.choice(GARBAGE),
                      _rejected(task, fmt), gt_path=gt_rel)
                continue
            if kind in ("fresh_sub", "fresh_sub_ins", "fresh_sub_del",
                        "mixed"):
                counts = {"fresh_sub": {"subs": 1},
                          "fresh_sub_ins": {"subs": 1, "ins": 1},
                          "fresh_sub_del": {"subs": 1, "dels": 1},
                          "mixed": {"copies": 1, "dels": 1}}[kind]
                events, *exact = edit(rng, piece, fmt, **counts)
            final_bar = kind != "no_final_bar"
            stripped = kind == "stripped"
            text = render(fmt, events, piece, final_bar=final_bar,
                          stripped=stripped)
            if (stripped and fmt != "staff") or \
                    (not final_bar and fmt != "tab"):
                expected = _rejected(task, fmt)
            else:
                expected = conversion(task, fmt, piece, events, *exact,
                                      legal=not stripped)
            b.add(sample_id, fmt, text, expected, gt_path=gt_rel)

    for i in range(PER_TASK):
        fmt = FORMATS[i % 3]
        kind = SMG_KINDS[(i // 3) % len(SMG_KINDS)]
        sample_id = f"smg-{i:04d}"
        meter = (4, 4) if fmt == "tab" or i % 2 else (3, 4)
        key = "C" if fmt == "tab" else rng.choice(PIECE_KEYS)
        if kind == "garbage":
            b.add(sample_id, fmt, rng.choice(GARBAGE),
                  Expected(task="smg", fmt=fmt, legal=False,
                           rules=(False,) * 5),
                  declared_key=key, declared_meter=f"{meter[0]}/{meter[1]}")
            continue
        measures = smg_measures(rng, fmt, key, meter, 3)
        declared = None
        if kind == "key_mismatch":
            declared = rng.choice([k for k in PIECE_KEYS
                                   if TONICS[k] != TONICS[key]])
        elif kind == "short_measure":
            measures[1] = measures[1][:-1]
        elif kind == "long_measure":
            extra = Ev(_pitch(rng, fmt, key, False), F(1))
            measures[1] = measures[1] + [extra]
        elif kind == "rest_measure":
            measures.insert(1, [] if fmt == "tab"
                            else [Ev((), F(meter[0] * 4, meter[1]))])
        add_smg(b, sample_id, fmt, measures, meter, key, declared_key=declared,
                final_bar=kind != "no_final_bar")

    _cb_samples(b)


def _cb_samples(b: _Inputs) -> None:
    """Four fixed samples, the same for every seed: a B-major scale
    written in Cb major, the same sounding pitches. They fail today by
    the fault named in CB_FAULT."""
    piece = Piece("B", (4, 4), tuple(
        Ev((diatonic("B", d, 0),), F(1)) for d in range(1, 8)) +
        (Ev((diatonic("B", 1, 1),), F(2)),))
    gt_rel = b.ground_truth("cb-major", "staff", piece)
    spelled = Piece("Cb", piece.meter, piece.events)
    for task in ("cnc", "ast"):
        for fmt in ("staff", "jianpu"):
            text = render(fmt, spelled.events, spelled)
            b.add(f"{task}-cb-{fmt}", fmt, text,
                  conversion(task, fmt, piece, piece.events, (0, 0), (0, 0),
                             fault=CB_FAULT),
                  gt_path=gt_rel)


# --- long_align --------------------------------------------------------------

# (task, format, ground-truth events, edits). Sizes are fixed so that every
# seed aligns the same number of cells.
LONG_SPECS = (
    ("ast", "staff", 900, {"subs": 18, "ins": 18}),
    ("cnc", "jianpu", 400, {"subs": 8, "dels": 8}),
    ("ast", "jianpu", 300, {"copies": 6, "dels": 6}),
    ("cnc", "staff", 200, {"subs": 4, "dels": 4}),
    ("ast", "staff", 150, {"subs": 3, "ins": 3}),
    ("cnc", "staff", 150, {"copies": 3, "dels": 3}),
    ("ast", "jianpu", 150, {"subs": 3, "ins": 3}),
    ("cnc", "jianpu", 150, {}),
)


def _long_align(b: _Inputs) -> None:
    for n, (task, fmt, size, counts) in enumerate(LONG_SPECS):
        piece = random_piece(b.rng, fmt, size)
        sample_id = f"{task}-{fmt}-{n:02d}"
        gt_rel = b.ground_truth(sample_id, fmt, piece)
        events, pitch, duration = edit(b.rng, piece, fmt, **counts)
        text = render(fmt, events, piece)
        b.add(sample_id, fmt, text,
              conversion(task, fmt, piece, events, pitch, duration),
              gt_path=gt_rel)


# --- degenerate --------------------------------------------------------------

# (task, format, kind, size). "repeat" writes the ground truth ``size``
# times; "phrase" appends one of its bars ``size`` times; "bar" is an smg
# piece of ``size`` copies of one bar; "piece" an smg piece of ``size``
# distinct bars. Repetition counts are fixed, so the bytes per sample
# vary only a little between seeds (see short_piece).
DEGENERATE_SPECS = (
    ("ast", "staff", "repeat", 700),
    ("cnc", "staff", "repeat_open", 2300),
    ("ast", "staff", "phrase_open", 500),
    ("smg", "staff", "piece", 350),
    ("smg", "staff", "bar_open", 300),
    ("ast", "jianpu", "repeat", 700),
    ("cnc", "jianpu", "repeat_open", 2000),
    ("ast", "jianpu", "phrase_open", 500),
    ("smg", "jianpu", "piece", 350),
    ("smg", "jianpu", "bar_open", 300),
    ("ast", "tab", "repeat_bars", 312),
    ("cnc", "tab", "phrase_open", 400),
    ("smg", "tab", "piece", 250),
    ("smg", "tab", "bar_open", 200),
)


def short_piece(rng, fmt: str) -> Piece:
    """Eight one-note events: a seeded order of a fixed multiset of scale
    degrees and durations, so each repetition is the same number of
    bytes whatever the seed."""
    key = "C" if fmt == "tab" else rng.choice(PIECE_KEYS)
    degrees = _fixed_shuffle(rng, (1, 2, 3, 4, 5, 6, 7, 5), 8)
    if fmt == "tab":
        durs = [F(1)] * 8
    else:
        durs = _fixed_shuffle(rng, (F(1, 2), F(1, 2), F(1), F(1), F(1), F(1),
                                    F(2), F(1)), 8)
    return Piece(key, (4, 4), tuple(
        Ev((diatonic(key, d, 0),), t) for d, t in zip(degrees, durs)))


def _degenerate(b: _Inputs) -> None:
    rng = b.rng
    for n, (task, fmt, kind, size) in enumerate(DEGENERATE_SPECS):
        sample_id = f"{task}-{fmt}-{n:02d}"
        piece = short_piece(rng, fmt)
        final_bar = not kind.endswith("_open")
        if task == "smg":
            if kind.startswith("bar"):
                bar = smg_measures(rng, fmt, piece.key, piece.meter, 1)[0]
                measures = [bar] * size
            else:
                measures = smg_measures(rng, fmt, piece.key, piece.meter, size)
            add_smg(b, sample_id, fmt, measures, piece.meter, piece.key,
                    final_bar=final_bar)
            continue
        gt_rel = b.ground_truth(sample_id, fmt, piece)
        events = list(piece.events)
        bars = None
        if kind.startswith("repeat"):
            events = events * size
            pitch = duration = ((size - 1) * len(piece.events),) * 2
            if kind == "repeat_bars":
                bars = [1] * len(events)
        else:
            phrase = events[:4]
            events = events + phrase * size
            pitch = duration = (4 * size,) * 2
        text = render(fmt, events, piece, final_bar=final_bar, bars=bars)
        if task == "cnc" and not final_bar and fmt != "tab":
            expected = _rejected(task, fmt)
        else:
            expected = conversion(task, fmt, piece, events, pitch, duration,
                                  legal=final_bar or fmt == "tab")
        b.add(sample_id, fmt, text, expected, gt_path=gt_rel)
