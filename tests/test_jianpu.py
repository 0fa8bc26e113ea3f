from fractions import Fraction

import pytest

from notegrade.errors import ParseError
from notegrade.parsers import parse_jianpu
from notegrade.parsers.abc_notation import MAJOR_KEY_SIGNATURES
from notegrade.pitch import KeySignature


def _doc(body: str, directive: str = "1=C 4/4"):
    return parse_jianpu(f"{directive}\n{body}\n")


def _pitches(doc):
    return [e.pitches for e in doc.events()]


def _durations(doc):
    return [e.duration_beats for e in doc.events()]


def test_scale_in_c():
    doc = _doc("1 2 3 4 | 5 6 7 1' |")
    assert _pitches(doc) == [(60,), (62,), (64,), (65,),
                             (67,), (69,), (71,), (72,)]
    assert doc.final_barline


def test_directive_sets_key_and_meter():
    doc = _doc("1 2 3 |", directive="1=F# 3/4")
    assert doc.key.tonic == 6
    assert doc.meter.text == "3/4"


def test_directive_meter_defaults_to_common_time():
    doc = _doc("1 2 3 4 |", directive="1=Bb")
    assert doc.meter.text == "4/4"
    assert _pitches(doc)[0] == (70,)


def test_octave_marks():
    doc = _doc("1, 1 1' 1'' |")
    assert _pitches(doc) == [(48,), (60,), (72,), (84,)]


def test_halving_marks():
    doc = _doc("1 2_ 3__ 4___ |")
    assert _durations(doc) == [Fraction(1), Fraction(1, 2),
                               Fraction(1, 4), Fraction(1, 8)]


def test_dash_continues_previous_note():
    doc = _doc("1 - 3 - |")
    events = list(doc.events())
    assert [e.pitches for e in events] == [(60,), (60,), (64,), (64,)]
    assert events[0].tied and not events[1].tied
    assert doc.measures[0].duration_sum == Fraction(4)


def test_dash_continues_across_barline():
    doc = _doc("1 2 3 4 | - - 5 5 |")
    second = doc.measures[1].events
    assert second[0].pitches == (65,)
    assert doc.measures[0].events[-1].tied


def test_dash_extends_rest():
    doc = _doc("0 - 1 - |")
    assert _pitches(doc) == [(), (), (60,), (60,)]


def test_rest_tokens():
    doc = _doc("0 1 0_ 1 1 |")
    assert _pitches(doc)[0] == ()
    assert _durations(doc)[2] == Fraction(1, 2)


def test_missing_directive_rejected():
    with pytest.raises(ParseError) as info:
        parse_jianpu("1 2 3 4 |\n")
    assert info.value.rule_id == "jianpu.key_directive"


def test_blank_input_rejected():
    with pytest.raises(ParseError) as info:
        parse_jianpu("\n  \n")
    assert info.value.rule_id == "jianpu.key_directive"


def test_directive_without_music_rejected():
    with pytest.raises(ParseError, match="no music"):
        parse_jianpu("1=C 4/4\n")


@pytest.mark.parametrize("token", ["8", "9", "8'", "9_"])
def test_degrees_above_seven_rejected(token):
    with pytest.raises(ParseError) as info:
        _doc(f"1 {token} |")
    assert info.value.rule_id == "jianpu.degree_range"


@pytest.mark.parametrize("token", ["1'.", "x", "1',", "12", "-_", "0'"])
def test_malformed_tokens_rejected(token):
    with pytest.raises(ParseError):
        _doc(f"1 {token} |")


def test_leading_dash_rejected():
    with pytest.raises(ParseError, match="dash"):
        _doc("- 1 2 3 |")


def test_empty_measure_rejected():
    with pytest.raises(ParseError, match="empty measure"):
        _doc("1 2 3 4 | | 5 |")


def test_error_carries_position():
    with pytest.raises(ParseError) as info:
        _doc("1 2 ? |")
    assert info.value.line == 2
    assert info.value.column == 5


def test_unterminated_music_keeps_measure():
    doc = _doc("1 2 3 4 | 5 6")
    assert not doc.final_barline
    assert len(doc.measures) == 2


def test_out_of_range_pitch_is_parse_error():
    with pytest.raises(ParseError) as info:
        _doc("1,,,,,, |")
    assert info.value.rule_id == "jianpu.pitch_range"


def test_key_override_transposes():
    doc = parse_jianpu("1=C 4/4\n1 3 5 |\n",
                       key_override=KeySignature.parse("D"))
    assert _pitches(doc) == [(62,), (66,), (69,)]


# Cb is left out until it is mended with the benchmark (ROADMAP item 1).
@pytest.mark.parametrize("key", sorted(MAJOR_KEY_SIGNATURES.keys() - {"Cb"}))
def test_every_listed_key_parses(key):
    doc = _doc("1 2 3 4 |", directive=f"1={key} 4/4")
    assert doc.key == KeySignature.parse(key)


@pytest.mark.parametrize("tonic", ["Fb", "E#", "B#"])
def test_unknown_tonic_is_a_key_directive_error(tonic):
    with pytest.raises(ParseError) as err:
        parse_jianpu(f"\n\n1={tonic} 4/4\n1 2 3 4 |\n")
    assert err.value.rule_id == "jianpu.key_directive"
    assert err.value.line == 3


@pytest.mark.parametrize("directive", ["1=C ٣/4", "1=C 3/٤", "1=C 1_0/4",
                                       "1=C +3/4"])
def test_directive_meter_takes_ascii_digits_only(directive):
    with pytest.raises(ParseError) as err:
        _doc("1 2 3 |", directive=directive)
    assert err.value.rule_id == "jianpu.key_directive"
