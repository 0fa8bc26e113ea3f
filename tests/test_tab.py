import re
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from notegrade.errors import ParseError, PitchError
from notegrade.parsers import parse_ascii_tab
from notegrade.pitch import (
    STANDARD_TUNING,
    TabEvent,
    Tuning,
    sort_chord,
    tab_to_midi,
)
from notegrade.score import Event, Measure


def _tab(*bodies: str) -> str:
    labels = ("e|", "B|", "G|", "D|", "A|", "E|")
    width = max(len(b) for b in bodies)
    padded = [b.ljust(width, "-") for b in bodies]
    padded += ["-" * width] * (6 - len(padded))
    bar_cols = {i for b in padded for i, ch in enumerate(b) if ch == "|"}
    lines = []
    for label, body in zip(labels, padded):
        cells = ["|" if i in bar_cols and ch == "-" else ch
                 for i, ch in enumerate(body)]
        lines.append(label + "".join(cells))
    return "\n".join(lines) + "\n"


def _pitches(doc):
    return [e.pitches for e in doc.events()]


def test_open_strings():
    doc = parse_ascii_tab(_tab("0-|", "--|", "--|", "--|", "--|", "--|"))
    assert _pitches(doc) == [(64,)]


def test_each_string_resolves_through_tuning():
    text = _tab("0-----------|", "--0---------|", "----0-------|",
                "------0-----|", "--------0---|", "----------0-|")
    doc = parse_ascii_tab(text)
    assert _pitches(doc) == [(64,), (59,), (55,), (50,), (45,), (40,)]


def test_multi_digit_fret_is_one_note():
    doc = parse_ascii_tab(_tab("12--|"))
    assert _pitches(doc) == [(76,)]


def test_adjacent_runs_need_separator():
    doc = parse_ascii_tab(_tab("3-5-|"))
    assert _pitches(doc) == [(67,), (69,)]


def test_same_column_runs_form_a_chord():
    text = _tab("0---|", "1---|", "0---|", "2---|", "3---|", "----|")
    doc = parse_ascii_tab(text)
    assert _pitches(doc) == [(48, 52, 55, 60, 64)]


def test_uniform_one_beat_durations():
    doc = parse_ascii_tab(_tab("3-5-7-|"))
    assert [e.duration_beats for e in doc.events()] == [Fraction(1)] * 3
    assert [e.onset_beats for e in doc.events()] == [Fraction(0), Fraction(1),
                                                     Fraction(2)]


def test_bars_split_measures():
    doc = parse_ascii_tab(_tab("3-|5-|"))
    assert len(doc.measures) == 2
    assert doc.final_barline


def test_trailing_dashes_after_final_bar_are_padding():
    doc = parse_ascii_tab(_tab("3-|--"))
    assert len(doc.measures) == 1
    assert doc.final_barline


def test_trailing_notes_form_open_measure():
    doc = parse_ascii_tab(_tab("3-|5-"))
    assert len(doc.measures) == 2
    assert not doc.final_barline


def test_all_dash_segment_is_a_silent_measure():
    doc = parse_ascii_tab(_tab("3-|--|5-|"))
    assert len(doc.measures) == 3
    assert doc.measures[1].events == ()


def test_double_bar_collapses():
    doc = parse_ascii_tab(_tab("3-||5-|"))
    assert len(doc.measures) == 2


def test_defaults_for_key_and_meter():
    doc = parse_ascii_tab(_tab("3-|"))
    assert doc.key.tonic == 0
    assert doc.meter.text == "4/4"


def test_custom_tuning():
    drop_d = Tuning((64, 59, 55, 50, 45, 38))
    text = _tab("------", "------", "------", "------", "------", "0-----")
    doc = parse_ascii_tab(text, drop_d)
    assert _pitches(doc) == [(38,)]


def test_wrong_line_count_rejected():
    with pytest.raises(ParseError) as info:
        parse_ascii_tab("e|--|\nB|--|\n")
    assert info.value.rule_id == "tab.six_lines"


def test_wrong_label_rejected():
    text = _tab("3-|").replace("G|", "g|")
    with pytest.raises(ParseError) as info:
        parse_ascii_tab(text)
    assert info.value.rule_id == "tab.labels"


def test_wrong_label_order_rejected():
    text = "B|--|\ne|--|\nG|--|\nD|--|\nA|--|\nE|--|\n"
    with pytest.raises(ParseError) as info:
        parse_ascii_tab(text)
    assert info.value.rule_id == "tab.labels"


def test_ragged_lines_rejected():
    text = "e|----|\nB|--|\nG|----|\nD|----|\nA|----|\nE|----|\n"
    with pytest.raises(ParseError) as info:
        parse_ascii_tab(text)
    assert info.value.rule_id == "tab.ragged"


def test_bad_character_rejected():
    with pytest.raises(ParseError) as info:
        parse_ascii_tab(_tab("3-x-|"))
    assert info.value.rule_id == "tab.charset"


def test_misaligned_bar_rejected():
    text = "e|--|-\nB|---|\nG|---|\nD|---|\nA|---|\nE|---|\n"
    with pytest.raises(ParseError) as info:
        parse_ascii_tab(text)
    assert info.value.rule_id == "tab.bar_alignment"


def test_fret_above_24_rejected():
    with pytest.raises(ParseError) as info:
        parse_ascii_tab(_tab("25-|"))
    assert info.value.rule_id == "tab.fret_range"


def test_fret_24_allowed():
    doc = parse_ascii_tab(_tab("24-|"))
    assert _pitches(doc) == [(88,)]


def test_empty_body_rejected():
    with pytest.raises(ParseError):
        parse_ascii_tab("e|\nB|\nG|\nD|\nA|\nE|\n")


def test_all_dashes_rejected():
    with pytest.raises(ParseError, match="no notes"):
        parse_ascii_tab(_tab("----|"))


def test_blank_lines_around_block_ignored():
    doc = parse_ascii_tab("\n" + _tab("3-|") + "\n\n")
    assert _pitches(doc) == [(67,)]


def test_overlong_fret_run_is_out_of_range():
    with pytest.raises(ParseError) as info:
        parse_ascii_tab(_tab("9" * 5000 + "-|"))
    assert info.value.rule_id == "tab.fret_range"
    assert info.value.column == 3


def test_leading_zeros_keep_their_meaning_in_long_runs():
    doc = parse_ascii_tab(_tab("0" * 5000 + "12-|"))
    assert _pitches(doc) == [(76,)]


def test_long_tab_parses_in_linear_time():
    measure = "-3-5-7-9|"
    bodies = [measure] * 3 + ["--------|"] * 3
    text = _tab(*(body * 2500 for body in bodies))
    assert 130_000 < len(text) < 140_000
    start = time.perf_counter()
    doc = parse_ascii_tab(text)
    elapsed = time.perf_counter() - start
    assert len(doc.measures) == 2500
    assert elapsed < 1.0, f"2,500-measure tab took {elapsed:.2f} s"


# --- the frame grouping against the quadratic grouping it replaced ----------

HIGH_TUNING = Tuning((127, 120, 110, 100, 90, 80))


def _oracle(bodies: list[str], tuning: Tuning):
    """Group runs into measures the way the parser did before its one-sweep
    rewrite: each segment between barlines rescans every digit run.
    Returns (measures, final_barline), or the error's rule_id, column and
    message."""
    width = len(bodies[0])
    bar_cols = [c for c in range(width) if bodies[0][c] == "|"]
    runs = []
    for string_idx, body in enumerate(bodies):
        for match in re.finditer(r"[0-9]+", body):
            runs.append((match.start(), string_idx + 1, int(match.group())))

    segments = []
    start = 0
    for col in bar_cols:
        segments.append((start, col))
        start = col + 1
    trailing = (start, width)

    def frames_in(lo, hi):
        frames = {}
        for col, string, fret in runs:
            if lo <= col < hi:
                frames.setdefault(col, []).append((string, fret))
        return frames

    def build_measure(lo, hi):
        frames = frames_in(lo, hi)
        events = []
        for beat, col in enumerate(sorted(frames)):
            pitches = []
            for string, fret in frames[col]:
                try:
                    pitches.append(
                        tab_to_midi(TabEvent(string, fret, col), tuning))
                except PitchError as exc:
                    raise ParseError(str(exc), column=col + 3,
                                     rule_id="tab.pitch_range") from None
            events.append(Event(Fraction(beat), Fraction(1),
                                tuple(sort_chord(pitches))))
        return Measure(tuple(events))

    try:
        measures = [build_measure(lo, hi) for lo, hi in segments if hi > lo]
        if trailing[1] > trailing[0] and frames_in(*trailing):
            measures.append(build_measure(*trailing))
            final_barline = False
        else:
            final_barline = bool(bar_cols)
    except ParseError as exc:
        return exc.rule_id, exc.column, exc.message
    if not any(m.events for m in measures):
        return "tab.parse", None, "tablature contains no notes"
    return tuple(measures), final_barline


# A fret cell: nothing, a fret in range (multi-digit ones included), or a
# fret written with leading zeros.
_CELL = st.one_of(st.none(), st.integers(0, 24).map(str),
                  st.sampled_from(["00", "05", "012", "0024"]))


@st.composite
def _tab_bodies(draw) -> list[str]:
    """Six aligned string bodies built from barlines, rests and blocks. A
    block gives each string an optional fret, shifted by up to one column,
    then a dash, so frames are chords across strings or single notes.
    Empty measures, double bars and an open trailing segment all arise."""
    bodies = [""] * 6
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.integers(0, 4))
        if kind < 2:
            filler = "|" if kind == 0 else "-" * draw(st.integers(1, 2))
            bodies = [body + filler for body in bodies]
            continue
        cells = [("-" * draw(st.integers(0, 1))) + (draw(_CELL) or "")
                 for _ in range(6)]
        width = max(len(cell) for cell in cells) + 1
        bodies = [body + cell.ljust(width, "-")
                  for body, cell in zip(bodies, cells)]
    return bodies


@settings(max_examples=400, deadline=None)
@given(bodies=_tab_bodies(),
       tuning=st.sampled_from([STANDARD_TUNING, HIGH_TUNING]))
@example(bodies=["3-|--|5-", "--|--|--", "--|--|--",
                 "--|--|--", "--|--|--", "--|--|--"],
         tuning=STANDARD_TUNING)
@example(bodies=["|3-||12-|--|"] * 6, tuning=STANDARD_TUNING)
@example(bodies=["-3-|", "12-|", "-5-|", "---|", "---|", "---|"],
         tuning=HIGH_TUNING)
def test_frame_grouping_matches_the_old_grouping(bodies, tuning):
    labels = ("e|", "B|", "G|", "D|", "A|", "E|")
    text = "".join(f"{label}{body}\n" for label, body in zip(labels, bodies))
    expected = _oracle(bodies, tuning)
    try:
        doc = parse_ascii_tab(text, tuning)
    except ParseError as exc:
        assert (exc.rule_id, exc.column, exc.message) == expected
    else:
        assert (doc.measures, doc.final_barline) == expected
