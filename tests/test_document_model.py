"""The parsers build events through ``Event.trusted``, which skips the
checks of the public constructor. These properties hold that path to
the same invariants on every document the renderers below can write:
each event survives a rebuild through ``Event(...)``, and within a
measure each onset is the running sum of the earlier durations.

The parsers also reuse what they built where text repeats: a line in
staff and jianpu, a measure in tab. Documents drawn with repeated
measures hold that reuse to parsing each measure on its own, and to
the errors the parser reports without it.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from notegrade.errors import NotegradeError, ParseError
from notegrade.parsers import parse_abc, parse_ascii_tab, parse_jianpu
from notegrade.pitch import Tuning
from notegrade.projection import project
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


# --- repeated measures ------------------------------------------------------

_ABC_HEAD = "X:1\nM:4/4\nL:1/8\nK:D\n"
_TAB_LABELS = ("e|", "B|", "G|", "D|", "A|", "E|")


def _abc_measure(draw):
    return " ".join(draw(st.lists(_abc_beat(), min_size=1, max_size=4)))


def _jianpu_measure(draw):
    tokens = [draw(_jianpu_token())]
    for _ in range(draw(st.integers(0, 4))):
        tokens.append(draw(st.one_of(_jianpu_token(), st.just("-"))))
    return " ".join(tokens)


def _tab_measure(draw):
    """Six string slices of one measure, with at least one fret."""
    slots = draw(st.integers(1, 3))
    cells = [["-"] * (3 * slots + 1) for _ in range(6)]
    for slot in draw(st.sets(st.integers(0, slots - 1), min_size=1)):
        for string in draw(st.sets(st.integers(0, 5), min_size=1,
                                   max_size=3)):
            fret = str(draw(st.integers(0, 12)))
            cells[string][3 * slot + 1:3 * slot + 1 + len(fret)] = fret
    return tuple("".join(cell) for cell in cells)


# How two measures meet: on one line, or with the line broken after or
# before the barline, so that a line may start with one; staff also
# writes double barlines.
_JOINS = {"staff": ("|", "|", "||", "|\n", "||\n", "\n|"),
          "jianpu": (" | ", " | ", " |\n", "\n| ")}
# A layout may open with a barline; then its copies meet after a barline
# and a line break, or with the last line left mid-measure, which the
# next copy's opening barline closes; otherwise they meet in a barline.
_LEADS = {"staff": "|", "jianpu": "| "}
_TAILS = {"staff": (("|", "||", "|\n", "||\n"), ("|\n", "\n")),
          "jianpu": ((" | ", " |\n"), (" |\n", "\n"))}
# The error of an opening barline after a closed measure: an empty measure.
_EMPTY = {"staff": "abc.parse", "jianpu": "jianpu.measure_bars"}
# A mark that makes the measure it ends raise there, and the rule it breaks.
_MARKS = {"staff": ("H", "abc.parse"), "jianpu": ("9", "jianpu.degree_range"),
          "tab": ("99", "tab.fret_range")}


def _lay_out(draw, fmt, count, end, head):
    """A renderer of ``count`` measures after ``head``, and how many times
    it writes them. Each pair meets in one of ``_JOINS``, and maybe one
    measure is broken over two lines. This layout may open with a barline
    and is written one to three times, verbatim, so that its lines
    repeat; the copies meet in one of ``_TAILS``, and the last is followed
    by ``end``. The renderer gives the text, and the rule id, line and
    column of the empty measure that a copy opening with a barline after
    a closed measure makes, or None."""
    lead = draw(st.sampled_from(("", _LEADS[fmt])))
    tail = draw(st.sampled_from(_TAILS[fmt][bool(lead)]))
    copies = draw(st.integers(1, 3))
    joined = [draw(st.sampled_from(_JOINS[fmt])) for _ in range(count - 1)]
    broken = draw(st.none() | st.integers(0, count - 1))

    def render(measures):
        measures = list(measures)
        if broken is not None:
            measures[broken] = measures[broken].replace(" ", "\n", 1)
        layout = head + lead + "".join(map(str.__add__, measures,
                                           joined + [""]))
        error = None
        if lead and copies > 1 and tail != "\n":
            error = (_EMPTY[fmt], (layout + tail).count("\n") + 1, 1)
        return tail.join([layout] + [layout[len(head):]] * (copies - 1)) \
            + end, error
    return render, copies


@st.composite
def repeated_documents(draw, fmt):
    """A document whose measures are drawn, with repetition, from a pool
    of up to three, and in staff and jianpu maybe written again line for
    line (``_lay_out``); the error it raises outside the pitch range, or
    None; for each measure either None or how it reads alone: a document
    of that one measure, and whether the measure's last event is tied by
    a dash opening the next one; and the document again with one measure
    of the pool marked to raise (``_MARKS``), in every copy."""
    make = {"staff": _abc_measure, "jianpu": _jianpu_measure,
            "tab": _tab_measure}[fmt]
    pool = [make(draw) for _ in range(draw(st.integers(1, 3)))]
    order = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                          max_size=12))
    marked = list(pool)
    bad = draw(st.sampled_from(order))
    mark = _MARKS[fmt][0]
    if fmt == "tab":
        # Zero-width segments: a leading barline and double barlines; and
        # maybe no final barline, leaving a trailing segment of notes.
        lead = draw(st.sampled_from(("", "|")))
        joins = [draw(st.sampled_from(("|", "|", "||"))) for _ in order[1:]]
        joins.append(draw(st.sampled_from(("|", ""))))
        string = draw(st.integers(0, 5))
        marked[bad] = tuple(piece[:1] + mark + piece[3:] if s == string
                            else piece for s, piece in enumerate(pool[bad]))

        def render(pool):
            return "".join(
                label + lead + "".join(map(str.__add__, pieces, joins))
                + "\n" for label, pieces
                in zip(_TAB_LABELS, zip(*(pool[k] for k in order))))
        alone = ["".join(label + piece + "|\n" for label, piece
                         in zip(_TAB_LABELS, pool[k])) for k in order]
        return (render(pool), None, [(one, False) for one in alone],
                render(marked))
    marked[bad] = pool[bad] + " " + mark
    if fmt == "staff":
        render, copies = _lay_out(draw, fmt, len(order), "|]\n", _ABC_HEAD)
        alone = [(_ABC_HEAD + pool[k] + "|]\n", False) for k in order]
        return (*render(pool[k] for k in order), alone * copies,
                render(marked[k] for k in order)[0])
    # A dash may open any measure but the first, holding the note before.
    dashed = [i > 0 and draw(st.booleans()) for i in range(len(order))]
    render, copies = _lay_out(draw, fmt, len(order), " |\n", "1=G\n")

    def written(pool):
        return ["- " + pool[k] if dash else pool[k]
                for k, dash in zip(order, dashed)]
    dashed *= copies
    expected = [None if dash else ("1=G\n" + pool[k] + " |\n", tie_next)
                for k, dash, tie_next
                in zip(order * copies, dashed, dashed[1:] + [False])]
    return (*render(written(pool)), expected, render(written(marked))[0])


_PARSERS = {"staff": parse_abc, "jianpu": parse_jianpu,
            "tab": parse_ascii_tab}


@pytest.mark.parametrize("fmt", ["staff", "jianpu", "tab"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_repeated_measures_parse_as_they_do_alone(fmt, data):
    text, error, alone, marked = data.draw(repeated_documents(fmt))
    parse = _PARSERS[fmt]
    try:
        doc = parse(text)
    except ParseError as exc:
        if exc.rule_id.endswith("pitch_range"):
            return
        assert (exc.rule_id, exc.line, exc.column) == error
    else:
        assert error is None
        _assert_trusted_invariants(doc)
        assert len(doc.measures) == len(alone)
        for measure, expected in zip(doc.measures, alone):
            if expected is None:
                continue
            one, tied_by_next = expected
            events = parse(one).measures[0].events
            if tied_by_next:
                last = events[-1]
                events = events[:-1] + (Event.trusted(
                    last.onset_ticks, last.duration_ticks, last.pitches,
                    True),)
            assert measure.events == events
    # Every measure before the first mark parses, so the error is there.
    mark, rule_id = _MARKS[fmt]
    line, column = next((no, text.index(mark) + 1) for no, text
                        in enumerate(marked.splitlines(), start=1)
                        if mark in text)
    with pytest.raises(ParseError) as raised:
        parse(marked)
    assert (raised.value.rule_id, raised.value.line,
            raised.value.column) == (rule_id, line, column)


# In staff and jianpu, the copies of a line read from a clean state share
# its measures (the first body line starts from no measure, so it is
# not kept); in tab, the copies of a segment share one measure.
@pytest.mark.parametrize("fmt,text", [
    ("staff", _ABC_HEAD + "C D|\n" + "A B c d|\n" * 3),
    # Lines that end at "||".
    ("staff", _ABC_HEAD + "C D|\n" + "A B||\n" * 3),
    ("jianpu", "1=C\n1 2 |\n" + "1 2 3 4 |\n" * 3),
    # A dash inside the line's measure.
    ("jianpu", "1=C\n| 1 2 |\n" + "3 - |\n" * 3),
    ("tab", "".join(label + "-3-5-|-3-5-|-3-5-|\n" for label in _TAB_LABELS)),
])
def test_a_repeated_measure_is_built_once(fmt, text):
    first, *rest = _PARSERS[fmt](text).measures[-3:]
    assert len(rest) == 2 and all(measure is first for measure in rest)


@pytest.mark.parametrize("fmt,text", [
    ("staff", _ABC_HEAD + "A B\nc d|c d|]\n"),
    ("jianpu", "1=C\n1 2\n3 4 | 3 4 |\n"),
])
def test_a_measure_spanning_lines_is_not_reused(fmt, text):
    # The second measure repeats only the first one's last line.
    first, second = _PARSERS[fmt](text).measures
    assert (len(first.events), len(second.events)) == (4, 2)


_HIGH_TUNING = Tuning((127, 120, 110, 100, 90, 80))


def _tab_rows(*rows):
    """Six tablature lines: ``rows`` on the top strings, and below them
    rests with the barlines of the first."""
    rest = "".join(ch if ch == "|" else "-" for ch in rows[0])
    rows = list(rows) + [rest] * (6 - len(rows))
    return "".join(label + row + "\n" for label, row in zip(_TAB_LABELS, rows))


# Each error follows repeats of a measure that parsed cleanly; its rule
# id, line and column are the ones the parser reported before measures
# were reused.
@pytest.mark.parametrize("fmt,text,rule_id,line,column", [
    ("staff", _ABC_HEAD + "A B c d|" * 3 + "A B c H|]\n",
     "abc.parse", 5, 31),
    ("staff", _ABC_HEAD + "A B c d|" * 3 + "A B c d/3|]\n",
     "abc.duration_resolution", 5, 31),
    ("staff", _ABC_HEAD + "A B c d|\n" * 3 + "A B c d|]A B c d|\n",
     "abc.parse", 8, 10),
    ("staff", _ABC_HEAD + "A B c d|\n" * 3 + "A B\nc d|A B [c|\n",
     "abc.parse", 9, 11),
    ("jianpu", "1=C\n" + "1 2 3 4 | " * 3 + "1 2 3 8 |\n",
     "jianpu.degree_range", 2, 37),
    ("jianpu", "1=C\n" + "1 2 3 4 |\n" * 3 + "1 2 3 4x |\n",
     "jianpu.parse", 5, 7),
    ("jianpu", "1=C\n" + "1 2 3 4 | " * 3 + "| 1 2 3 4 |\n",
     "jianpu.measure_bars", 2, 31),
    ("tab", _tab_rows("-0-2-|" * 3 + "-0-25|"), "tab.fret_range", 1, 24),
    ("tab", _tab_rows("-0-2-|" * 4, "-1---|" * 3 + "-1-|-|"),
     "tab.bar_alignment", 1, 24),
    # After runs of repeats on one line, a double barline, a final one,
    # and a line that starts with a barline.
    ("staff", _ABC_HEAD + "A B|A B||A B|A H|]\n", "abc.parse", 5, 16),
    ("staff", _ABC_HEAD + "A B|\nA B|A B|]A B|\n", "abc.parse", 6, 10),
    ("staff", _ABC_HEAD + "A B|A B|\n|A B|\n", "abc.parse", 6, 1),
    ("staff", _ABC_HEAD + "A B|A B|A B\n|A B|]|\n", "abc.parse", 6, 7),
    ("jianpu", "1=C\n1 2 | 1 2 | 3 4 | 1 2 | 1 9 |\n",
     "jianpu.degree_range", 2, 27),
    ("jianpu", "1=C\n1 2 | 1 2 |\n| 1 2 |\n", "jianpu.measure_bars", 3, 1),
    ("jianpu", "1=C\n1 2 | 1 2 | - 8 |\n", "jianpu.degree_range", 2, 15),
    ("tab", _tab_rows("-0-||-0-|-0-|-25|"), "tab.fret_range", 1, 17),
])
def test_an_error_after_repeats_keeps_its_position(fmt, text, rule_id, line,
                                                  column):
    with pytest.raises(ParseError) as raised:
        _PARSERS[fmt](text)
    assert (raised.value.rule_id, raised.value.line,
            raised.value.column) == (rule_id, line, column)


def test_a_pitch_error_after_repeats_keeps_its_column():
    text = _tab_rows("-0-|" * 3 + "-1-|", "-2-|" * 4)
    with pytest.raises(ParseError) as raised:
        parse_ascii_tab(text, _HIGH_TUNING)
    assert (raised.value.rule_id, raised.value.line,
            raised.value.column) == ("tab.pitch_range", None, 16)


def test_a_dash_opening_a_measure_leaves_earlier_copies_untied():
    doc = parse_jianpu("1=C\n1 2 3 4 | 1 2 3 4 | - 5 6 7 | 1 2 3 4 |\n")
    first, second, _, fourth = doc.measures
    assert [e.tied for e in first.events] == [False] * 4
    assert [e.tied for e in second.events] == [False] * 3 + [True]
    assert fourth == first
    assert second.events[:3] == first.events[:3]


# --- repeated lines ---------------------------------------------------------

# The parsers keep the measures of a line read from a clean state and
# take them again where the line repeats. Each error is in a line that
# did not start or did not end clean, or is the first copy of its line;
# its rule id, line and column are the ones the parser reported before
# lines were reused.
@pytest.mark.parametrize("fmt,text,rule_id,line,column", [
    # An opening barline is an empty measure after the first body line.
    ("staff", _ABC_HEAD + "|C D|\n|C D|\n", "abc.parse", 6, 1),
    ("staff", _ABC_HEAD + "|C D|\nE F|\n|C D|\n", "abc.parse", 7, 1),
    ("jianpu", "1=C\n| 1 2 |\n| 1 2 |\n", "jianpu.measure_bars", 3, 1),
    # Nothing may follow a final barline.
    ("staff", _ABC_HEAD + "A B|]\nA B|]\n", "abc.parse", 6, 1),
    ("staff", _ABC_HEAD + "A B|]\n\nA B|]\n", "abc.parse", 7, 1),
    ("staff", _ABC_HEAD + "C D|\nA B|]\nA B|]\n", "abc.parse", 7, 1),
    # After repeats of the first line, an error in the second distinct
    # line is reported at its first copy.
    ("staff", _ABC_HEAD + "A B|\n" * 3 + "c H|\nA B|\nc H|\n",
     "abc.parse", 8, 3),
    ("jianpu", "1=C\n" + "1 2 |\n" * 3 + "3 9 |\n1 2 |\n3 9 |\n",
     "jianpu.degree_range", 5, 3),
])
def test_a_repeated_line_keeps_its_errors(fmt, text, rule_id, line, column):
    with pytest.raises(ParseError) as raised:
        _PARSERS[fmt](text)
    assert (raised.value.rule_id, raised.value.line,
            raised.value.column) == (rule_id, line, column)


@pytest.mark.parametrize("fmt,text,joined", [
    ("staff", _ABC_HEAD + "A B|\nc d|e\nf|\nc d|e\nf|]\n",
     _ABC_HEAD + "A B|\nc d|e f|\nc d|e f|]\n"),
    ("jianpu", "1=C\n1 2 |\n3 4 | 5\n6 |\n3 4 | 5\n6 |\n",
     "1=C\n1 2 |\n3 4 | 5 6 |\n3 4 | 5 6 |\n"),
])
def test_a_repeated_line_ending_mid_measure_is_read_in_full(fmt, text,
                                                            joined):
    # "c d|e" starts clean both times, but leaves "e" pending for "f".
    measures = _PARSERS[fmt](text).measures
    assert len(measures) == 5
    assert measures == _PARSERS[fmt](joined).measures


def test_a_repeated_line_opened_by_a_dash_holds_each_note_before():
    doc = parse_jianpu("1=C\n1 2 |\n- 3 |\n- 3 |\n")
    assert doc.measures == parse_jianpu("1=C\n1 2 | - 3 | - 3 |\n").measures
    first, second, third = doc.measures
    assert (first.events[-1].tied, second.events[-1].tied) == (True, True)
    assert not third.events[-1].tied
    assert (second.events[0].pitches, third.events[0].pitches) == ((62,), (64,))


# --- layout -----------------------------------------------------------------

# Items that raise somewhere in a body: in staff an unknown mark, a tie
# with no note before it, a tied rest, a final barline before more music
# and a length finer than a tick; in jianpu a degree out of range, a rest
# with an octave mark and a length finer than a tick. A jianpu dash
# raises where no note comes before it.
_ABC_STRAYS = ("H", "-", "z-", "|]", "C/3")
_JIANPU_STRAYS = ("9", "0'", "1" + "_" * 13)


@st.composite
def _items(draw, fmt):
    """A passage of notes, rests, chords, dashes and barlines written one
    to four times, maybe with a stray among them."""
    if fmt == "staff":
        sound, others, strays = _abc_beat(), ("|", "|", "||"), _ABC_STRAYS
    else:
        sound, others = _jianpu_token(), ("-", "|", "|")
        strays = _JIANPU_STRAYS
    passage = draw(st.lists(st.one_of(sound, st.sampled_from(others)),
                            min_size=1, max_size=10))
    items = passage * draw(st.integers(1, 4))
    if draw(st.booleans()):
        items.insert(draw(st.integers(0, len(items))),
                     draw(st.sampled_from(strays)))
    return items, len(passage)


def _outcome(fmt, text):
    """What a parse of ``text`` gives: the measures' events, the final
    barline and the projected streams; or the error's rule id, message
    and the offset in ``text`` of the character it points at."""
    try:
        doc = _PARSERS[fmt](text)
    except ParseError as exc:
        starts = [0] + [i + 1 for i, ch in enumerate(text) if ch == "\n"]
        at = None if exc.column is None else \
            starts[exc.line - 1] + exc.column - 1
        return exc.rule_id, exc.message, at
    return ([m.events for m in doc.measures], doc.final_barline,
            project(doc))


@pytest.mark.parametrize("fmt", ["staff", "jianpu"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_line_breaks_between_items_change_nothing(fmt, data):
    # Each gap between two items is a space or a line break: in one text
    # the gaps repeat with the passage, so that its lines repeat, and in
    # the other they are drawn afresh. Every character keeps its offset.
    items, period = data.draw(_items(fmt))
    head = _ABC_HEAD if fmt == "staff" else "1=C\n"

    def gaps(count):
        return data.draw(st.lists(st.sampled_from((" ", " ", "\n")),
                                  min_size=count, max_size=count))

    def written(spaces):
        return head + "".join(map(str.__add__, items,
                                  spaces[:len(items) - 1] + ["\n"]))
    repeating = written(gaps(period) * len(items))
    assert _outcome(fmt, repeating) == _outcome(fmt, written(gaps(len(items))))


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
