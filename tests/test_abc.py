from fractions import Fraction

import pytest

from notegrade.errors import ParseError
from notegrade.parsers import parse_abc
from notegrade.parsers.abc_notation import MAJOR_KEY_SIGNATURES
from notegrade.pitch import KeySignature


def _doc(body: str, key: str = "C", meter: str = "4/4", unit: str = "1/4"):
    return parse_abc(f"X:1\nM:{meter}\nL:{unit}\nK:{key}\n{body}\n")


def _pitches(doc):
    return [e.pitches for e in doc.events()]


def _durations(doc):
    return [e.duration_beats for e in doc.events()]


def test_plain_scale():
    doc = _doc("C D E F|G A B c|]")
    assert _pitches(doc) == [(60,), (62,), (64,), (65,),
                             (67,), (69,), (71,), (72,)]
    assert len(doc.measures) == 2
    assert doc.final_barline


def test_octave_marks():
    doc = _doc("C, C c c'|]")
    assert _pitches(doc) == [(48,), (60,), (72,), (84,)]


def test_key_signature_applies_to_bare_notes():
    doc = _doc("F C G|]", key="A", meter="3/4")
    assert _pitches(doc) == [(66,), (61,), (68,)]


def test_explicit_accidentals_override_key():
    doc = _doc("^C _D =F|]", key="D", meter="3/4")
    assert _pitches(doc) == [(61,), (61,), (65,)]


def test_accidental_applies_to_one_note_only():
    doc = _doc("^F F|]", meter="2/4")
    assert _pitches(doc) == [(66,), (65,)]


def test_flat_key_signature():
    doc = _doc("B e|]", key="Eb", meter="2/4")
    assert _pitches(doc) == [(70,), (75,)]


@pytest.mark.parametrize("token,beats", [
    ("C", Fraction(1)), ("C2", Fraction(2)), ("C/", Fraction(1, 2)),
    ("C//", Fraction(1, 4)), ("C/2", Fraction(1, 2)), ("C3/2", Fraction(3, 2)),
    ("C/8", Fraction(1, 8)), ("C7/8", Fraction(7, 8)), ("C4", Fraction(4)),
])
def test_duration_grammar(token, beats):
    doc = _doc(f"{token}|]")
    assert _durations(doc) == [beats]


def test_unit_length_scales_durations():
    doc = _doc("C C|]", unit="1/8", meter="1/4")
    assert _durations(doc) == [Fraction(1, 2), Fraction(1, 2)]


def test_default_unit_length_follows_meter():
    # L: 1/8 at or above a 3/4 meter ratio, 1/16 below it; a quarter note
    # is one beat.
    doc = parse_abc("X:1\nM:4/4\nK:C\nC C2|]\n")
    assert _durations(doc) == [Fraction(1, 2), Fraction(1)]
    doc = parse_abc("X:1\nM:3/4\nK:C\nC|]\n")
    assert _durations(doc) == [Fraction(1, 2)]
    doc = parse_abc("X:1\nM:2/4\nK:C\nC C4|]\n")
    assert _durations(doc) == [Fraction(1, 4), Fraction(1)]


@pytest.mark.parametrize("field,meter", [("C", "4/4"), ("C|", "2/2")])
def test_common_time_meters(field, meter):
    doc = parse_abc(f"X:1\nM:{field}\nL:1/4\nK:C\nC4|]\n")
    assert doc.meter.text == meter


def test_chord_sorted_regardless_of_source_order():
    assert _pitches(_doc("[CEG]4|]")) == _pitches(_doc("[GEC]4|]"))
    assert _pitches(_doc("[CEG]4|]")) == [(60, 64, 67)]


def test_chord_outer_multiplier():
    doc = _doc("[CE]2 [CE]2|]")
    assert _durations(doc) == [Fraction(2), Fraction(2)]


def test_chord_inner_duration_rejected():
    with pytest.raises(ParseError, match="durations"):
        _doc("[C2E]|]")


def test_rests_have_no_pitches():
    doc = _doc("C z C z|]")
    assert _pitches(doc) == [(60,), (), (60,), ()]
    assert _durations(doc) == [Fraction(1)] * 4


def test_tie_flag_set_on_first_event():
    doc = _doc("C2- C2|]")
    events = list(doc.events())
    assert events[0].tied and not events[1].tied


def test_tie_across_barline():
    doc = _doc("C3 E-|E3 C|]")
    first_measure = doc.measures[0].events
    assert first_measure[-1].tied


def test_tied_rest_rejected():
    with pytest.raises(ParseError, match="rest"):
        _doc("z2- z2|]")


def test_unterminated_final_measure():
    doc = _doc("C D E F|G A")
    assert not doc.final_barline
    assert len(doc.measures) == 2


def test_missing_meter_rejected():
    with pytest.raises(ParseError) as info:
        parse_abc("X:1\nL:1/4\nK:C\nC|]\n")
    assert info.value.rule_id == "abc.header_meter"


def test_missing_key_rejected():
    with pytest.raises(ParseError) as info:
        parse_abc("X:1\nM:4/4\nL:1/4\nC|]\n")
    assert info.value.rule_id == "abc.header_key"


def test_body_before_key_rejected():
    with pytest.raises(ParseError) as info:
        parse_abc("X:1\nC D E F|]\nK:C\n")
    assert info.value.rule_id == "abc.header_key"


def test_unsupported_key_rejected():
    with pytest.raises(ParseError) as info:
        _doc("C|]", key="A#")
    assert info.value.rule_id == "abc.header_key"


def test_unsupported_header_rejected():
    with pytest.raises(ParseError):
        parse_abc("X:1\nQ:120\nM:4/4\nL:1/4\nK:C\nC|]\n")


def test_duplicate_header_rejected():
    with pytest.raises(ParseError):
        parse_abc("X:1\nM:4/4\nM:3/4\nL:1/4\nK:C\nC|]\n")


def test_bad_index_field_rejected():
    with pytest.raises(ParseError) as info:
        parse_abc("T:Title\nX:one\nM:4/4\nL:1/4\nK:C\nC|]\n")
    assert info.value.rule_id == "abc.header_x"
    assert info.value.line == 2


def test_empty_body_rejected():
    with pytest.raises(ParseError, match="no music"):
        parse_abc("X:1\nM:4/4\nL:1/4\nK:C\n")


def test_empty_measure_rejected():
    with pytest.raises(ParseError, match="empty measure"):
        _doc("C| |C|]")


def test_leading_barline_allowed():
    doc = _doc("|C D E F|]")
    assert len(doc.measures) == 1


def test_content_after_final_barline_rejected():
    with pytest.raises(ParseError, match="final barline"):
        _doc("C|] D")


def test_unexpected_character_reports_position():
    with pytest.raises(ParseError) as info:
        _doc("C D ? F|]")
    assert info.value.line == 5
    assert info.value.column == 5


def test_out_of_range_pitch_is_parse_error():
    with pytest.raises(ParseError) as info:
        _doc("C,,,,,,|]")
    assert info.value.rule_id == "abc.pitch_range"


def test_zero_duration_rejected():
    with pytest.raises(ParseError, match="positive"):
        _doc("C0|]")


def test_slashes_before_a_denominator_are_a_malformed_duration():
    with pytest.raises(ParseError) as info:
        _doc("C//3|]")
    assert (str(info.value), info.value.rule_id) == (
        "malformed duration (line 5, col 2)", "abc.parse")


# Digit runs longer than the interpreter's limit on int() (4,300 digits by
# default) are ParseErrors, not ValueErrors that escape the scorers.

def test_overlong_duration_numerator_rejected():
    with pytest.raises(ParseError) as info:
        _doc("C" + "9" * 5000 + " D|]")
    assert info.value.rule_id == "abc.parse"
    assert (info.value.line, info.value.column) == (5, 2)


def test_overlong_duration_denominator_rejected():
    with pytest.raises(ParseError) as info:
        _doc("C/" + "9" * 5000 + " D|]")
    assert info.value.rule_id == "abc.parse"
    assert (info.value.line, info.value.column) == (5, 2)


def test_overlong_unit_length_rejected():
    with pytest.raises(ParseError) as info:
        _doc("C D|]", unit="1/" + "9" * 5000)
    assert info.value.rule_id == "abc.header_unit"
    assert info.value.line == 3


# Cb is listed but does not parse yet; the benchmark pins that fault
# (ROADMAP item 1), so it is mended together with the benchmark.
@pytest.mark.parametrize("key", sorted(MAJOR_KEY_SIGNATURES.keys() - {"Cb"}))
def test_every_listed_key_parses(key):
    doc = _doc("C D E F|G A B c|]", key=key)
    assert doc.key == KeySignature.parse(key)


@pytest.mark.parametrize("meter", ["٣/4", "1_0/4", "+3/4", "3/４", "3 /4",
                                   "5/7"])
def test_meter_takes_ascii_digits_only(meter):
    with pytest.raises(ParseError) as err:
        _doc("C|]", meter=meter)
    assert err.value.rule_id == "abc.header_meter"
    assert err.value.line == 2


@pytest.mark.parametrize("unit", ["١/4", "1/٤", "1_0/4", "+1/4", "0/4"])
def test_unit_length_takes_ascii_digits_only(unit):
    with pytest.raises(ParseError) as err:
        _doc("C|]", unit=unit)
    assert err.value.rule_id == "abc.header_unit"
    assert err.value.line == 3
