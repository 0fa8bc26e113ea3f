from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from notegrade.errors import ConfigError
from notegrade.parsers import parse_abc, parse_ground_truth, parse_jianpu
from notegrade.pitch import KeySignature
from notegrade.projection import (
    beats_text,
    project,
    project_ground_truth,
    quantize_duration,
    quantize_durations,
    sequence_to_json_dict,
)
from notegrade.score import (TICKS_PER_BEAT, Event, Measure, NotationFormat,
                             ScoreDoc, TimeSignature)
from notegrade.tasks import projected


def _abc(body: str):
    return parse_abc(f"X:1\nM:4/4\nL:1/4\nK:C\n{body}\n")


def test_rests_kept_in_durations_only():
    seq = project(_abc("C z E z|]"))
    assert seq.pitch_tokens == ((60,), (64,))
    assert seq.durations == (Fraction(1),) * 4


def test_tie_merges_into_one_unit():
    seq = project(_abc("C2- C2|]"))
    assert seq.pitch_tokens == ((60,),)
    assert seq.durations == (Fraction(4),)


def test_tie_chain_merges_across_measures():
    seq = project(_abc("C3 E-|E- E3|]"))
    assert seq.pitch_tokens == ((60,), (64,))
    assert seq.durations == (Fraction(3), Fraction(5))


def _project_by_loop(doc):
    """The projection as one loop over the events: an event joins the
    unit before it when that unit is tied and has the same pitches."""
    units = []
    for event in doc.events():
        if units and units[-1][2] and units[-1][0] == event.pitches:
            units[-1][1] += event.duration_ticks
            units[-1][2] = event.tied
        else:
            units.append([event.pitches, event.duration_ticks, event.tied])
    return (tuple(pitches for pitches, _, _ in units if pitches),
            tuple(Fraction(ticks, TICKS_PER_BEAT) for _, ticks, _ in units))


_EVENT = st.tuples(st.sampled_from([(), (60,), (62,), (60, 64)]),
                   st.sampled_from([1, 2048, 4096, 6144]), st.booleans())


def _doc(measures) -> ScoreDoc:
    return ScoreDoc(NotationFormat.ABC_STAFF, KeySignature.parse("C"),
                    TimeSignature(4, 4), tuple(measures))


@given(st.lists(st.lists(_EVENT, max_size=5), min_size=1, max_size=4),
       st.lists(st.integers(0, 3), min_size=1, max_size=12))
def test_projection_matches_the_loop_over_events(pool, order):
    # Positions share measure objects, as a parser's memo makes them.
    pool = [Measure.trusted(tuple(Event.trusted(0, ticks, pitches, tied)
                                  for pitches, ticks, tied in events))
            for events in pool]
    doc = _doc(pool[i % len(pool)] for i in order)
    seq = project(doc)
    assert (seq.pitch_tokens, seq.durations) == _project_by_loop(doc)


def test_shared_measure_with_a_tie_into_it_projects_as_its_events():
    tied_into = Measure((Event(0, 1, (60,)), Event(1, 1, (62,)),
                         Event(2, 2, (64,), tied=True)))
    shared = Measure((Event(0, 1, (64,)), Event(1, 1, (65,)),
                      Event(2, 2, (67,))))
    # The tie joins the shared measure's first unit after tied_into only.
    doc = _doc([tied_into, shared, shared, tied_into, shared] * 4)
    seq = project(doc)
    assert (seq.pitch_tokens, seq.durations) == _project_by_loop(doc)
    one = ((60,), (62,), (64,), (65,), (67,), (64,), (65,), (67,),
           (60,), (62,), (64,), (65,), (67,))
    assert seq.pitch_tokens == one * 4
    assert seq.durations == tuple(map(Fraction, (
        1, 1, 3, 1, 2, 1, 1, 2, 1, 1, 3, 1, 2))) * 4


def test_tie_to_different_pitch_does_not_merge():
    seq = project(_abc("C2- E2|]"))
    assert seq.pitch_tokens == ((60,), (64,))


def test_tied_articulation_equals_plain_note():
    held = project(parse_jianpu("1=C 4/4\n1 - - - |\n"))
    plain = project(_abc("C4|]"))
    assert held == plain


def test_chords_stay_sorted_tuples():
    seq = project(_abc("[GEC]2 [CE]2|]"))
    assert seq.pitch_tokens == ((60, 64, 67), (60, 64))


def test_ground_truth_projection():
    gt = parse_ground_truth(
        '{"id": "x", "format": "staff", "key": "C", "meter": "4/4",'
        ' "events": ['
        '{"onset_beats": "0/1", "duration_beats": "1/1", "midi": [60]},'
        '{"onset_beats": "1/1", "duration_beats": "2/1", "midi": []},'
        '{"onset_beats": "3/1", "duration_beats": "1/1", "midi": [60, 67]}]}')
    seq = project_ground_truth(gt)
    assert seq.pitch_tokens == ((60,), (60, 67))
    assert seq.durations == (Fraction(1), Fraction(2), Fraction(1))
    # The projection a ground truth carries is outside its equality.
    carried = projected(gt)
    assert carried.projection == seq and gt.projection is None
    assert carried == gt and hash(carried) == hash(gt)


@pytest.mark.parametrize("duration,grid,expected", [
    (Fraction(1, 3), Fraction(1, 4), Fraction(1, 4)),
    (Fraction(3, 8), Fraction(1, 4), Fraction(1, 2)),
    (Fraction(1), Fraction(1, 4), Fraction(1)),
    (Fraction(7, 8), Fraction(1, 4), Fraction(1)),
    (Fraction(1, 16), Fraction(1, 4), Fraction(1, 4)),
    (Fraction(5, 8), Fraction(1, 2), Fraction(1, 2)),
])
def test_quantize_duration(duration, grid, expected):
    assert quantize_duration(duration, grid) == expected


def test_quantize_midpoint_rounds_up():
    assert quantize_duration(Fraction(3, 8), Fraction(1, 4)) == Fraction(1, 2)
    assert quantize_duration(Fraction(5, 8), Fraction(1, 4)) == Fraction(3, 4)


def test_quantize_rejects_bad_grid():
    with pytest.raises(ConfigError):
        quantize_duration(Fraction(1), Fraction(0))


@given(st.fractions(min_value=Fraction(1, 64), max_value=Fraction(16)),
       st.sampled_from([Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)]))
def test_quantize_lands_on_grid_within_half_step(duration, grid):
    snapped = quantize_duration(duration, grid)
    assert snapped % grid == 0
    assert snapped >= grid
    if duration >= grid / 2:
        assert abs(snapped - duration) <= grid / 2


def test_quantize_durations_batch():
    out = quantize_durations((Fraction(1, 3), Fraction(3, 8)), Fraction(1, 4))
    assert out == (Fraction(1, 4), Fraction(1, 2))


def test_beats_text():
    assert beats_text(Fraction(1)) == "1/1"
    assert beats_text(Fraction(3, 2)) == "3/2"
    assert beats_text(Fraction(2, 4)) == "1/2"


def test_sequence_json_shape():
    seq = project(_abc("C [EG]/|]"))
    data = sequence_to_json_dict(seq, grid=Fraction(1, 4))
    assert data["pitch_tokens"] == [[60], [64, 67]]
    assert data["durations"] == ["1/1", "1/2"]
    assert data["quantized_durations"] == ["1/1", "1/2"]
