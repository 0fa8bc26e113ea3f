import re

import pytest
from hypothesis import given, settings, strategies as st

from notegrade.errors import ParseError
from notegrade.parsers import parse_abc, parse_jianpu, validate_format
from notegrade.pitch import STANDARD_TUNING, Tuning
from notegrade.score import FormatVerdict, NotationFormat, Violation
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


@pytest.mark.parametrize("fmt,text,rule_id,message,line", [
    (STAFF, "X:1\nM:5/7\nL:1/4\nK:C\nC|]\n", "abc.header_meter",
     "meter denominator 7 must be one of (1, 2, 4, 8, 16, 32)", 2),
    (STAFF, "X:1\nM:4/4\n\nL:0/4\nK:C\nC|]\n", "abc.header_unit",
     "malformed L: field '0/4'", 4),
    (STAFF, "T:Title\nX:a\nM:4/4\nL:1/4\nK:C\nC|]\n", "abc.header_x",
     "X: field must be a number", 2),
    (JIANPU, "\n1=H\n1 2 3 4 |\n", "jianpu.key_directive",
     "malformed key directive '1=H'; expected 1=<tonic> [N/D]", 2),
    (JIANPU, "1=C 3/5\n1 2 3 |\n", "jianpu.key_directive",
     "meter denominator 5 must be one of (1, 2, 4, 8, 16, 32)", 1),
], ids=["meter", "unit", "index", "directive", "directive_meter"])
def test_header_errors_carry_their_line(fmt, text, rule_id, message, line):
    verdict = validate_format(fmt, text)
    assert verdict.violations == (Violation(rule_id, message, line),)


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


# --- Oracle: the verdict as it was computed before the parsers reported
# their own soft violations. A separate text scan found the missing
# headers and the unterminated body, then the parse added its error
# unless that rule was already flagged.

_ORACLE_HEADER_RE = re.compile(r"^([A-Za-z]):(.*)$")


def _oracle_abc_structural(text):
    violations = []
    seen = set()
    body = []
    in_body = False
    for raw in text.splitlines():
        if in_body:
            body.append(raw)
            continue
        line = raw.strip()
        if not line:
            continue
        match = _ORACLE_HEADER_RE.match(line)
        if not match:
            break
        seen.add(match.group(1))
        if match.group(1) == "K":
            in_body = True
    for field, rule, label in (
            ("X", "abc.header_x", "X: (index)"),
            ("M", "abc.header_meter", "M: (meter)"),
            ("L", "abc.header_unit", "L: (unit note length)"),
            ("K", "abc.header_key", "K: (key)")):
        if field not in seen:
            violations.append(Violation(rule, f"missing {label} header field"))
    stripped = "\n".join(body).strip()
    if stripped and not (stripped.endswith("|") or stripped.endswith("|]")):
        violations.append(Violation(
            "abc.bar_terminated", "tune does not end with a barline"))
    return violations


def _oracle_header_error(text):
    """Raise the header error the old split_headers raised first."""
    seen = set()
    for idx, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        match = _ORACLE_HEADER_RE.match(line)
        if not match:
            raise ParseError(
                "tune body may not begin before the K: field",
                line=idx, column=1, rule_id="abc.header_key")
        field = match.group(1)
        if field not in "XTKML":
            raise ParseError(
                f"unsupported header field {field}:", line=idx, column=1,
                rule_id="abc.header")
        if field != "T" and field in seen:
            raise ParseError(
                f"duplicate header field {field}:", line=idx, column=1,
                rule_id="abc.header")
        seen.add(field)
        if field == "K":
            return


def _oracle_jianpu_structural(text):
    directive_seen = False
    body = []
    for raw in text.splitlines():
        if directive_seen:
            body.append(raw)
        elif raw.strip():
            directive_seen = True
    stripped = "\n".join(body).strip()
    if stripped and not stripped.endswith("|"):
        return [Violation(
            "jianpu.measure_bars", "music does not end with a barline")]
    return []


def _oracle_verdict(fmt, text):
    if fmt is STAFF:
        violations = _oracle_abc_structural(text)
    else:
        violations = _oracle_jianpu_structural(text)
    flagged = {v.rule_id for v in violations}
    try:
        if fmt is STAFF:
            _oracle_header_error(text)
            parse_abc(text)
        else:
            parse_jianpu(text)
    except ParseError as exc:
        rule_id = exc.rule_id or f"{fmt.value}.parse"
        if rule_id not in flagged:
            violations.append(
                Violation(rule_id, exc.message, exc.line, exc.column))
    return FormatVerdict(tuple(violations)).to_json_dict()


_ABC_FIELDS = (("X:1", "X:a"), ("T:Title", "T:"), ("M:4/4", "M:3/4", "M:C",
               "M:5/7"), ("L:1/4", "L:1/8", "L:0/4"))
_ABC_EXTRAS = ("Q:1/4=120", "x:1", "X:2", "M:2/4", "T:Again", "", "  L:1/8 ")
_ABC_BODY = (
    "C D E F|", "G A B c|]", "C D", "[CEG]2 z|", "C ? D|", "", "   ",
    "|]", "C|] D", "c'2 B,/|", "C - C|", "C D|\t", "|| C ||",
)


@st.composite
def _abc_documents(draw):
    """Headers shuffled, dropped, duplicated or unsupported; a body line
    before K: or no K: at all; bodies with and without a final barline."""
    headers = [draw(st.sampled_from(values[:1] * 4 + values))
               for values in _ABC_FIELDS if draw(st.integers(0, 4))]
    if not draw(st.integers(0, 2)):
        headers += draw(st.lists(st.sampled_from(_ABC_EXTRAS), max_size=2))
    if not draw(st.integers(0, 5)):
        headers.append(draw(st.sampled_from(_ABC_BODY[:5])))
    headers = draw(st.permutations(headers))
    if draw(st.integers(0, 5)):
        headers.append(draw(st.sampled_from(("K:C", "K:D", "K:Bb", "K:H",
                                             "K:C", "K:D"))))
    body = draw(st.lists(st.sampled_from(_ABC_BODY), max_size=4))
    newline = draw(st.sampled_from(("\n", "\r\n")))
    return newline.join(headers + body) + draw(st.sampled_from(("", newline)))


_JIANPU_DIRECTIVES = ("1=C", "1=C 4/4", "1=G 3/4", "1=Bb 2/4", "1=H",
                      "1=C 3/5", "2=C")
_JIANPU_BODY = (
    "1 2 3 4 |", "5 6 7 1' |", "1 2", "| 1 2 |", "1 - - - |", "8 |",
    "| |", "0 0 |", "1_ 1_ 2 |", "- 1 |", "1 2 |\t", "", "  ",
)


@st.composite
def _jianpu_documents(draw):
    lines = draw(st.lists(st.sampled_from(("", " ")), max_size=2))
    if draw(st.integers(0, 5)):
        lines.append(draw(st.sampled_from(_JIANPU_DIRECTIVES)))
    lines += draw(st.lists(st.sampled_from(_JIANPU_BODY), max_size=5))
    newline = draw(st.sampled_from(("\n", "\r\n")))
    return newline.join(lines) + draw(st.sampled_from(("", newline)))


def _verdict_json(fmt, text):
    return validate_format(fmt, text).to_json_dict()


@settings(max_examples=600, deadline=None)
@given(text=_abc_documents())
def test_abc_verdict_matches_the_oracle(text):
    assert _verdict_json(STAFF, text) == _oracle_verdict(STAFF, text)


@settings(max_examples=400, deadline=None)
@given(text=_jianpu_documents())
def test_jianpu_verdict_matches_the_oracle(text):
    assert _verdict_json(JIANPU, text) == _oracle_verdict(JIANPU, text)


@pytest.mark.parametrize("text", [
    "M:4/4\nK:C\nQ:1\nC|]",               # soft violations, then abc.header
    "X:1\nX:2\nM:4/4\nL:1/4\nK:C\nC D",   # duplicate and unterminated
    "X:1\nC D|\nK:C\nC|]",                # body before K:, flagged already
    "X:1\nQ:1\nC D|\nK:C\nC|",            # first header error wins
    "X:1\nX:2\nQ:1\nX:3\nK:C\nC|]",        # so does the first duplicate
    "L:0/4\nK:C\nC|]\n",                  # missing X: and M:, bad L:
    "",
], ids=["unsupported", "duplicate", "body_first", "first_error",
        "first_duplicate", "bad_unit", "empty"])
def test_abc_verdict_matches_the_oracle_on_fixed_documents(text):
    assert _verdict_json(STAFF, text) == _oracle_verdict(STAFF, text)


def test_parsers_report_soft_violations_only_when_asked():
    text = "M:4/4\nK:C\nC D\n"
    violations = []
    parse_abc(text, violations=violations)
    assert [v.rule_id for v in violations] == [
        "abc.header_x", "abc.header_unit", "abc.bar_terminated"]
    assert parse_abc(text) == validate_format(STAFF, text).doc
    violations = []
    parse_jianpu("1=C\n1 2 3 4\n", violations=violations)
    assert [v.rule_id for v in violations] == ["jianpu.measure_bars"]
