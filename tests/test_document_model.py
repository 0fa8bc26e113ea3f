"""The parsers build events through ``Event.trusted``, which skips the
checks of the public constructor. These properties hold that path to
the same invariants on every document the renderers below can write:
each event survives a rebuild through ``Event(...)``, and within a
measure each onset is the running sum of the earlier durations.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from notegrade.errors import NotegradeError, ParseError
from notegrade.parsers import parse_abc, parse_ascii_tab, parse_jianpu
from notegrade.score import TICKS_PER_BEAT, Event, Measure, TimeSignature

# --- renderers --------------------------------------------------------------

_ABC_PITCHES = ("C", "D", "E", "F", "G", "A", "B", "c", "d", "e", "g", "b")
_ABC_LENGTHS = ("", "", "2", "3", "/", "//", "3/2", "/4", "3/8", "7/16")


@st.composite
def _abc_pitch(draw):
    accidental = draw(st.sampled_from(("", "", "^", "_", "=")))
    octave = draw(st.sampled_from(("", "", "'", ",")))
    return accidental + draw(st.sampled_from(_ABC_PITCHES)) + octave


@st.composite
def _abc_beat(draw):
    """A note, rest or chord with a length multiplier; notes and chords
    may be tied to what follows."""
    kind = draw(st.sampled_from(("note", "note", "rest", "chord")))
    length = draw(st.sampled_from(_ABC_LENGTHS))
    if kind == "rest":
        return "z" + length
    if kind == "chord":
        members = draw(st.lists(_abc_pitch(), min_size=1, max_size=4))
        token = "[" + "".join(members) + "]" + length
    else:
        token = draw(_abc_pitch()) + length
    return token + draw(st.sampled_from(("", "", "-")))


def _render_abc(measures, unit, meter):
    bars = [" ".join(beats) for beats in measures]
    return (f"X:1\nM:{meter}\nL:{unit}\nK:D\n"
            + "|".join(bars) + "|]\n")


@st.composite
def abc_documents(draw):
    measures = draw(st.lists(st.lists(_abc_beat(), min_size=1, max_size=6),
                             min_size=1, max_size=5))
    unit = draw(st.sampled_from(("1/4", "1/8", "1/16", "1/2")))
    meter = draw(st.sampled_from(("4/4", "3/4", "6/8", "C")))
    return _render_abc(measures, unit, meter)


@st.composite
def _jianpu_token(draw):
    degree = draw(st.integers(0, 7))
    marks = "" if degree == 0 else draw(st.sampled_from(("", "", "'", ",")))
    return str(degree) + marks + "_" * draw(st.integers(0, 4))


@st.composite
def jianpu_documents(draw):
    measures = []
    for _ in range(draw(st.integers(1, 5))):
        tokens = [draw(_jianpu_token())]
        for _ in range(draw(st.integers(0, 5))):
            tokens.append(draw(st.one_of(_jianpu_token(), st.just("-"))))
        measures.append(" ".join(tokens))
    # A dash may also open a measure, holding the last note over the bar.
    if len(measures) > 1 and draw(st.booleans()):
        measures[1] = "- " + measures[1]
    meter = draw(st.sampled_from(("", " 4/4", " 3/4", " 6/8")))
    return f"1=G{meter}\n" + " | ".join(measures) + " |\n"


@st.composite
def tab_documents(draw):
    """Six aligned strings; frets at random columns, barlines between
    measures in the same column on every string."""
    strings = [[] for _ in range(6)]
    for _ in range(draw(st.integers(1, 4))):
        slots = draw(st.integers(1, 4))
        cells = [["-"] * (3 * slots + 1) for _ in range(6)]
        # Frets start every third column, so no two runs touch.
        for slot in draw(st.sets(st.integers(0, slots - 1), max_size=4)):
            for string in draw(st.sets(st.integers(0, 5), min_size=1,
                                       max_size=3)):
                fret = str(draw(st.integers(0, 12)))
                cells[string][3 * slot + 1:3 * slot + 1 + len(fret)] = fret
        for string in range(6):
            strings[string].append("".join(cells[string]))
    labels = ("e|", "B|", "G|", "D|", "A|", "E|")
    return "".join(label + "|".join(bodies) + "|\n"
                   for label, bodies in zip(labels, strings))


# --- properties -------------------------------------------------------------

def _assert_trusted_invariants(doc):
    for measure in doc.measures:
        assert Measure(measure.events) == measure
        running = 0
        for event in measure.events:
            rebuilt = Event(event.onset_beats, event.duration_beats,
                            event.pitches, event.tied)
            assert rebuilt == event
            assert event.onset_ticks == running
            running += event.duration_ticks
        onsets = [e.onset_ticks for e in measure.events]
        assert onsets == sorted(onsets)
        assert measure.duration_sum == Fraction(running, TICKS_PER_BEAT)


def _parsed_or_skip(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        # Only the pitch range may reject a rendered document.
        assert exc.rule_id.endswith("pitch_range"), exc
        return None


@settings(max_examples=300, deadline=None)
@given(text=abc_documents())
def test_abc_events_hold_the_public_invariants(text):
    doc = _parsed_or_skip(parse_abc, text)
    if doc is not None:
        _assert_trusted_invariants(doc)


@settings(max_examples=300, deadline=None)
@given(text=jianpu_documents())
def test_jianpu_events_hold_the_public_invariants(text):
    doc = _parsed_or_skip(parse_jianpu, text)
    if doc is not None:
        _assert_trusted_invariants(doc)


@settings(max_examples=200, deadline=None)
@given(text=tab_documents())
def test_tab_events_hold_the_public_invariants(text):
    try:
        doc = parse_ascii_tab(text)
    except ParseError as exc:
        assert exc.rule_id == "tab.parse"  # no notes at all
        return
    _assert_trusted_invariants(doc)


# --- the public constructor -------------------------------------------------

def test_public_event_reads_back_in_beats():
    event = Event(Fraction(3, 2), Fraction(1, 4096), (60, 64), True)
    assert (event.onset_ticks, event.duration_ticks) == (6144, 1)
    assert (event.onset_beats, event.duration_beats) == (Fraction(3, 2),
                                                         Fraction(1, 4096))
    assert event == Event.trusted(6144, 1, (60, 64), True)
    assert hash(event) == hash(Event.trusted(6144, 1, (60, 64), True))
    assert event != Event.trusted(6144, 1, (60, 64))


@pytest.mark.parametrize("args,error", [
    ((Fraction(-1), Fraction(1), ()), "onset -1 must be >= 0"),
    ((Fraction(0), Fraction(0), ()), "duration 0 must be positive"),
    ((Fraction(0), Fraction(1), (64, 60)), "strictly ascending"),
    ((Fraction(1, 3), Fraction(1), ()), "multiples of 1/4096 beat"),
    ((Fraction(0), Fraction(1, 8192), ()), "multiples of 1/4096 beat"),
])
def test_public_event_keeps_its_checks(args, error):
    with pytest.raises(NotegradeError, match=error):
        Event(*args)


def test_every_meter_holds_a_whole_number_of_ticks():
    for denominator in TimeSignature._ALLOWED_DENOMINATORS:
        meter = TimeSignature(3, denominator)
        assert meter.ticks == meter.beats * TICKS_PER_BEAT
