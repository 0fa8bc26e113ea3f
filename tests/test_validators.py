import pytest

from notegrade.errors import ParseError
from notegrade.parsers import validate_format
from notegrade.pitch import STANDARD_TUNING, Tuning
from notegrade.score import FormatVerdict, NotationFormat
from notegrade.tasks import parse_document

STAFF = NotationFormat.ABC_STAFF
JIANPU = NotationFormat.JIANPU
TAB = NotationFormat.ASCII_TAB

GOOD_ABC = "X:1\nM:4/4\nL:1/4\nK:C\nC D E F|G A B c|]\n"
GOOD_JIANPU = "1=C 4/4\n1 2 3 4 | 5 6 7 1' |\n"
GOOD_TAB = ("e|--0-1-|\nB|1-3---|\nG|------|\nD|------|\n"
            "A|------|\nE|------|\n")


def _rules(verdict):
    return [v.rule_id for v in verdict.violations]


@pytest.mark.parametrize("fmt,text", [
    (STAFF, GOOD_ABC), (JIANPU, GOOD_JIANPU), (TAB, GOOD_TAB),
])
def test_legal_documents(fmt, text):
    verdict = validate_format(fmt, text)
    assert verdict.legal
    assert verdict.violations == ()


def test_abc_missing_index():
    verdict = validate_format(STAFF, "M:4/4\nL:1/4\nK:C\nC|]\n")
    assert _rules(verdict) == ["abc.header_x"]


def test_abc_missing_unit_length():
    verdict = validate_format(STAFF, "X:1\nM:4/4\nK:C\nC|]\n")
    assert _rules(verdict) == ["abc.header_unit"]


def test_abc_missing_key_and_meter():
    verdict = validate_format(STAFF, "X:1\nL:1/4\nC|]\n")
    assert set(_rules(verdict)) == {"abc.header_meter", "abc.header_key"}


def test_abc_unterminated():
    verdict = validate_format(STAFF, "X:1\nM:4/4\nL:1/4\nK:C\nC D E F\n")
    assert _rules(verdict) == ["abc.bar_terminated"]


def test_abc_parse_violation_carries_position():
    verdict = validate_format(STAFF, "X:1\nM:4/4\nL:1/4\nK:C\nC ? D|]\n")
    assert not verdict.legal
    violation = verdict.violations[0]
    assert violation.rule_id == "abc.parse"
    assert violation.line == 5
    assert violation.column == 3


def test_abc_structural_and_parse_not_double_counted():
    verdict = validate_format(STAFF, "X:1\nL:1/4\nK:C\nC|]\n")
    assert _rules(verdict) == ["abc.header_meter"]


def test_jianpu_unterminated():
    verdict = validate_format(JIANPU, "1=C 4/4\n1 2 3 4\n")
    assert _rules(verdict) == ["jianpu.measure_bars"]


def test_jianpu_missing_directive():
    verdict = validate_format(JIANPU, "1 2 3 4 |\n")
    assert _rules(verdict) == ["jianpu.key_directive"]


def test_jianpu_bad_degree():
    verdict = validate_format(JIANPU, "1=C 4/4\n1 9 3 4 |\n")
    assert _rules(verdict) == ["jianpu.degree_range"]


def test_tab_wrong_line_count():
    verdict = validate_format(TAB, "e|--3-|\n")
    assert _rules(verdict) == ["tab.six_lines"]


def test_tab_misaligned_bar():
    text = "e|3-|-\nB|---|\nG|---|\nD|---|\nA|---|\nE|---|\n"
    verdict = validate_format(TAB, text)
    assert _rules(verdict) == ["tab.bar_alignment"]


def test_tab_fret_range():
    text = GOOD_TAB.replace("--0-1-", "--99--")
    verdict = validate_format(TAB, text)
    assert _rules(verdict) == ["tab.fret_range"]


def test_empty_input_illegal_everywhere():
    for fmt in NotationFormat:
        assert not validate_format(fmt, "").legal


def test_verdict_json_shape():
    verdict = validate_format(STAFF, "X:1\nM:4/4\nL:1/4\nK:C\nC D\n")
    data = verdict.to_json_dict()
    assert data["legal"] is False
    assert data["violations"][0]["rule_id"] == "abc.bar_terminated"


@pytest.mark.parametrize("fmt,text", [
    (STAFF, GOOD_ABC), (JIANPU, GOOD_JIANPU), (TAB, GOOD_TAB),
])
def test_verdict_carries_the_parsed_document(fmt, text):
    verdict = validate_format(fmt, text)
    assert verdict.error is None
    assert verdict.doc.format is fmt
    assert verdict.doc == parse_document(fmt, text)


@pytest.mark.parametrize("text,tuning,rule_id", [
    (GOOD_TAB.replace("G|------", "G|----25"), STANDARD_TUNING,
     "tab.fret_range"),
    # Raised while handling a PitchError, so it starts with a context.
    (GOOD_TAB.replace("e|--0-1-", "e|--0-24"),
     Tuning((120, 110, 100, 90, 80, 70)), "tab.pitch_range"),
], ids=["fret_range", "pitch_range"])
def test_verdict_carries_the_parse_error_without_frames(text, tuning,
                                                         rule_id):
    verdict = validate_format(TAB, text, tuning)
    assert verdict.doc is None
    assert isinstance(verdict.error, ParseError)
    assert verdict.error.rule_id == rule_id
    assert verdict.error.__traceback__ is None
    assert verdict.error.__context__ is None


def test_document_and_error_stay_out_of_comparison_and_json():
    legal = validate_format(STAFF, GOOD_ABC)
    assert legal == FormatVerdict(())
    assert legal.to_json_dict() == {"legal": True, "violations": []}
    broken = validate_format(STAFF, "X:1\nM:4/4\nL:1/4\nK:C\nC ? D|]\n")
    assert broken == FormatVerdict(broken.violations)
    assert set(broken.to_json_dict()) == {"legal", "violations"}
