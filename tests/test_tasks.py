import json
from fractions import Fraction

import pytest

from notegrade import parsers, tasks
from notegrade.errors import ConfigError, ParseError
from notegrade.metrics import MetricWeights
from notegrade.parsers import parse_abc, parse_ground_truth, validators
from notegrade.pitch import KeySignature
from notegrade.score import Event, Measure, NotationFormat, TimeSignature
from notegrade.tasks import (
    CapabilityWeights,
    Task,
    aggregate_capability,
    extract_option_letter,
    normalize_answer,
    score_ast,
    score_cnc,
    score_smg,
    score_vsu,
    smg_rules,
)

STAFF = NotationFormat.ABC_STAFF
JIANPU = NotationFormat.JIANPU
TAB = NotationFormat.ASCII_TAB


def _gt(midi, durations=None, key="C", meter="4/4", fmt="staff"):
    durations = durations or [Fraction(1)] * len(midi)
    onset = Fraction(0)
    events = []
    for m, d in zip(midi, durations):
        events.append({"onset_beats": f"{onset.numerator}/{onset.denominator}",
                       "duration_beats": f"{d.numerator}/{d.denominator}",
                       "midi": [m] if isinstance(m, int) else list(m)})
        onset += d
    return parse_ground_truth(json.dumps(
        {"id": "t", "format": fmt, "key": key, "meter": meter,
         "events": events}))


SCALE_GT = _gt([60, 62, 64, 65, 67, 69, 71, 72])
SCALE_ABC = "X:1\nM:4/4\nL:1/4\nK:C\nC D E F|G A B c|]\n"
SCALE_JIANPU = "1=C 4/4\n1 2 3 4 | 5 6 7 1' |\n"
SCALE_TAB = ("e|----0-1-|3-5-7-8-|\nB|1-3-----|--------|\nG|--------|--------|\n"
             "D|--------|--------|\nA|--------|--------|\nE|--------|--------|\n")


def test_normalize_answer():
    assert normalize_answer("  The  QUICK fox. ") == "the quick fox"
    assert normalize_answer("(B)") == "b"
    assert normalize_answer("") == ""


@pytest.mark.parametrize("text,letter", [
    ("(b)", "b"),
    ("B", "b"),
    ("b) because the key is G", "b"),
    ("The answer is (C).", "c"),
    ("answer: d", "d"),
    ("Option is A", "a"),
    ("I think the choice is b here", "b"),
    ("no option given", None),
    ("", None),
])
def test_extract_option_letter(text, letter):
    assert extract_option_letter(text) == letter


def test_vsu_exact_match():
    assert score_vsu("v", "G major", "g  major!").correct


def test_vsu_option_letter_paths():
    assert score_vsu("v", "b", "The answer is (B).").correct
    assert score_vsu("v", "(b)", "b").correct
    assert not score_vsu("v", "b", "The answer is (C).").correct


def test_vsu_empty_prediction():
    result = score_vsu("v", "b", "   ")
    assert not result.correct
    assert "empty prediction" in result.diagnostics
    assert result.normalized() == 0


def test_vsu_free_text_requires_exact_normalized_match():
    assert not score_vsu("v", "G major", "A major").correct
    assert score_vsu("v", "3/4", "3 4").correct


def test_cnc_correct_conversion_scores_one():
    result = score_cnc("s", SCALE_GT, SCALE_ABC, STAFF)
    assert result.hybrid == 1
    assert result.fmt_legal
    assert result.acc_pitch.value == 1
    assert result.acc_duration.value == 1
    assert result.normalized() == 1


def test_cnc_illegal_output_rejected_outright():
    result = score_cnc("s", SCALE_GT, "garbage", STAFF)
    assert result.hybrid == 0
    assert result.acc_pitch.value == 0
    assert not result.fmt_legal
    assert result.valid
    assert any("abc." in d for d in result.diagnostics)


def test_cnc_missing_unit_header_is_fatal_by_default():
    no_unit = SCALE_ABC.replace("L:1/4\n", "")
    result = score_cnc("s", SCALE_GT, no_unit, STAFF)
    assert result.hybrid == 0
    assert any("abc.header_unit" in d for d in result.diagnostics)


def test_cnc_lenient_scores_parseable_output():
    no_unit = "X:1\nM:4/4\nL:1/2\nK:C\nC D E F|G A B c|]\n".replace("L:1/2\n", "")
    result = score_cnc("s", SCALE_GT, no_unit, STAFF, lenient=True)
    assert not result.fmt_legal
    assert result.acc_pitch.value == 1
    # default unit for 4/4 is 1/8, so every duration halves
    assert result.acc_duration.value == 0
    assert result.hybrid == Fraction(1, 2)


def test_cnc_tab_target_drops_duration_weight():
    result = score_cnc("s", SCALE_GT, SCALE_TAB, TAB)
    assert result.acc_duration is None
    assert result.acc_pitch.value == 1
    assert result.hybrid == 1


def test_cnc_key_mismatch_is_diagnostic_only():
    transposed = "X:1\nM:4/4\nL:1/4\nK:D\nD E F G|A B c d|]\n"
    result = score_cnc("s", SCALE_GT, transposed, STAFF)
    assert any("key mismatch" in d for d in result.diagnostics)
    assert result.fmt_legal
    assert result.acc_pitch.value < 1


def test_cnc_meter_mismatch_is_diagnostic_only():
    waltz = "X:1\nM:2/4\nL:1/4\nK:C\nC D|E F|G A|B c|]\n"
    result = score_cnc("s", SCALE_GT, waltz, STAFF)
    assert any("meter mismatch" in d for d in result.diagnostics)
    assert result.acc_pitch.value == 1


def test_cnc_custom_weights():
    weights = MetricWeights.parse("1,0,0")
    noisy = "X:1\nM:4/4\nL:1/4\nK:C\nC D E F|G A B B|]\n"
    result = score_cnc("s", SCALE_GT, noisy, STAFF, weights=weights)
    assert result.hybrid == result.acc_pitch.value == Fraction(7, 8)


@pytest.mark.parametrize("scorer", [score_cnc, score_ast])
@pytest.mark.parametrize("grid,message", [
    (Fraction(0), "grid must be positive, got 0"),
    (Fraction(-1, 4), "grid must be positive, got -1/4"),
    (0.25, "grid must be an int or a Fraction, got 0.25"),
    (True, "grid must be an int or a Fraction, got True"),
], ids=["zero", "negative", "float", "bool"])
def test_cnc_and_ast_check_the_grid(scorer, grid, message):
    # The messages EvalConfig gives; a zero grid divided by zero, a
    # float one had no numerator, and the others scored silently.
    with pytest.raises(ConfigError) as err:
        scorer("s", SCALE_GT, SCALE_ABC, STAFF, grid=grid)
    assert str(err.value) == message


def test_ast_scores_parseable_but_illegal_output():
    no_x = SCALE_ABC.replace("X:1\n", "")
    result = score_ast("s", SCALE_GT, no_x, STAFF)
    assert not result.fmt_legal
    assert result.acc_pitch.value == 1
    assert result.hybrid == Fraction(8, 10)


def test_ast_unparseable_scores_zero():
    result = score_ast("s", SCALE_GT, "\x00\x01 junk", STAFF)
    assert result.hybrid == 0
    assert result.valid
    assert any("unparseable" in d for d in result.diagnostics)


def test_ast_length_cap_excludes_degenerate_output():
    long_pred = ("X:1\nM:4/4\nL:1/4\nK:C\n"
                 + "|".join(["C C C C"] * 30) + "|]\n")
    short_gt = _gt([60])
    result = score_ast("s", short_gt, long_pred, STAFF, length_cap=10)
    assert not result.valid
    assert result.normalized() is None
    assert any("excluded" in d for d in result.diagnostics)


def test_ast_length_cap_keeps_reasonable_output():
    result = score_ast("s", SCALE_GT, SCALE_ABC, STAFF, length_cap=10)
    assert result.valid
    assert result.hybrid == 1


def test_smg_perfect_generation():
    result = score_smg("g", SCALE_ABC, STAFF, KeySignature.parse("C"),
                       TimeSignature(4, 4))
    assert result.technical == 5
    assert result.normalized() == 1
    assert result.rules.renderable


def test_smg_unparseable_fails_all_rules():
    result = score_smg("g", "@@@", STAFF, KeySignature.parse("C"),
                       TimeSignature(4, 4))
    assert result.technical == 0
    assert result.rules.passed == 0
    assert result.normalized() == 0


def test_smg_measure_arithmetic_detects_overfull_bar():
    off = "X:1\nM:4/4\nL:1/4\nK:C\nC C C C C/8|C C C C|]\n"
    result = score_smg("g", off, STAFF, KeySignature.parse("C"),
                       TimeSignature(4, 4))
    assert not result.rules.measure_arith_ok
    assert result.rules.renderable


def test_smg_incomplete_final_measure_not_counted_in_arith():
    doc = parse_abc("X:1\nM:4/4\nL:1/4\nK:C\nC C C C|C C C C|C C\n")
    rules = smg_rules(doc, None)
    assert rules.measure_arith_ok
    assert not rules.structure_ok


def test_a_measure_refuses_an_event_past_the_one_before():
    # Durations sum to the meter's four beats, but the last event starts
    # late, so it would end after the barline: no measure holds it.
    with pytest.raises(ParseError, match="onset 10240 must be 8192 ticks"):
        Measure.of((Event(0, 1, (60,)), Event(1, 1, (62,)),
                    Event(Fraction(5, 2), 2, (64,))))


def test_a_measure_refuses_a_gap_between_onsets():
    # The last event ends on the barline, but a beat between onsets is
    # empty: no measure holds it.
    with pytest.raises(ParseError, match="onset 8192 must be 4096 ticks"):
        Measure.of((Event(0, 1, (60,)), Event(2, 2, (62,))))


def test_smg_key_consistency():
    wrong_key = SCALE_ABC.replace("K:C", "K:G")
    result = score_smg("g", wrong_key, STAFF, KeySignature.parse("C"),
                       TimeSignature(4, 4))
    assert not result.rules.key_consistent
    assert result.technical == 4


def test_smg_key_vacuous_for_tab():
    result = score_smg("g", SCALE_TAB, TAB, KeySignature.parse("E"),
                       TimeSignature(4, 4))
    assert result.rules.key_consistent
    assert result.technical == 5


def test_smg_rest_only_measure_fails_rest_rule():
    padded = "X:1\nM:4/4\nL:1/4\nK:C\nC C C C|z4|C C C C|]\n"
    result = score_smg("g", padded, STAFF, KeySignature.parse("C"),
                       TimeSignature(4, 4))
    assert not result.rules.rests_legal
    assert result.rules.measure_arith_ok


def test_smg_structure_needs_two_complete_measures():
    short = "X:1\nM:4/4\nL:1/4\nK:C\nC C C C|]\n"
    result = score_smg("g", short, STAFF, KeySignature.parse("C"),
                       TimeSignature(4, 4))
    assert not result.rules.structure_ok
    assert result.technical == 4


def test_smg_structure_needs_final_barline():
    unterminated = "X:1\nM:4/4\nL:1/4\nK:C\nC C C C|C C C C\n"
    result = score_smg("g", unterminated, STAFF, KeySignature.parse("C"),
                       TimeSignature(4, 4))
    assert not result.rules.structure_ok
    assert not result.fmt_legal


def test_smg_meter_request_mismatch_is_diagnostic():
    result = score_smg("g", SCALE_ABC, STAFF, KeySignature.parse("C"),
                       TimeSignature(3, 4))
    assert result.technical == 5
    assert any("meter mismatch" in d for d in result.diagnostics)


def test_smg_jianpu_generation():
    result = score_smg("g", SCALE_JIANPU, JIANPU, KeySignature.parse("C"),
                       TimeSignature(4, 4))
    assert result.technical == 5


def test_capability_weights_validation():
    with pytest.raises(ConfigError) as err:
        CapabilityWeights(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2),
                          Fraction(1, 2))
    assert str(err.value) == "task weights must sum to 1, got 2"
    with pytest.raises(ConfigError) as err:
        CapabilityWeights(Fraction(-1), 1, 1, 0)
    assert str(err.value) == "task weights must be >= 0"
    with pytest.raises(ConfigError):
        CapabilityWeights.parse("0.25,0.25,0.25")
    parsed = CapabilityWeights.parse("0.4, 0.3, 0.2, 0.1")
    assert parsed.vsu == Fraction(2, 5)


@pytest.mark.parametrize("text", ["0.2_5,0.25,0.25,0.25",
                                  "\u0661/4,1/4,1/4,1/4"])
def test_capability_weights_take_ascii_numbers_only(text):
    with pytest.raises(ConfigError, match="malformed task weights"):
        CapabilityWeights.parse(text)


@pytest.mark.parametrize("weights", [
    (0.25, 0.25, 0.25, 0.25), (True, False, False, False),
    (Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), 0.25)])
def test_capability_weights_must_be_exact_numbers(weights):
    with pytest.raises(ConfigError, match="task weight must be an int or a"):
        CapabilityWeights(*weights)


def test_task_parse_names_an_unknown_task():
    assert Task.parse("smg") is Task.SMG
    with pytest.raises(ConfigError) as err:
        Task.parse("x")
    assert str(err.value) == "unknown task 'x'"


def test_aggregate_capability():
    means = {Task.VSU: Fraction(1), Task.CNC: Fraction(1, 2),
             Task.AST: Fraction(3, 4), Task.SMG: Fraction(4, 5)}
    assert aggregate_capability(means) == Fraction(61, 80)


def test_aggregate_capability_missing_task_contributes_zero():
    means = {Task.VSU: Fraction(1)}
    assert aggregate_capability(means) == Fraction(1, 4)
    weights = CapabilityWeights.parse("1,0,0,0")
    assert aggregate_capability(means, weights) == 1


# --- each prediction is parsed once ------------------------------------------

BAD_ABC = "X:1\nM:4/4\nL:1/4\nK:C\nC ? D|]\n"
NO_UNIT_ABC = SCALE_ABC.replace("L:1/4\n", "")
C_MAJOR, COMMON_TIME = KeySignature.parse("C"), TimeSignature(4, 4)


@pytest.fixture
def parse_calls(monkeypatch):
    """Count calls to every format parser, under every name the scorers
    and the validator can reach them by."""
    calls = []
    for module in (validators, tasks):
        for name in ("parse_abc", "parse_jianpu", "parse_ascii_tab"):
            original = getattr(parsers, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    return calls


def _score(task, fmt, text, **kwargs):
    if task == "cnc":
        return score_cnc("s", SCALE_GT, text, fmt, **kwargs)
    if task == "ast":
        return score_ast("s", SCALE_GT, text, fmt, **kwargs)
    return score_smg("g", text, fmt, C_MAJOR, COMMON_TIME, **kwargs)


@pytest.mark.parametrize("task,fmt,text,kwargs", [
    *(pytest.param(task, fmt, text, {}, id=f"{task}-legal-{fmt.value}")
      for task in ("cnc", "ast", "smg")
      for fmt, text in ((STAFF, SCALE_ABC), (JIANPU, SCALE_JIANPU),
                        (TAB, SCALE_TAB))),
    pytest.param("ast", STAFF, NO_UNIT_ABC, {}, id="ast-illegal-parseable"),
    pytest.param("cnc", STAFF, NO_UNIT_ABC, {}, id="cnc-strict-rejection"),
    pytest.param("cnc", STAFF, NO_UNIT_ABC, {"lenient": True},
                 id="cnc-lenient"),
    pytest.param("cnc", STAFF, BAD_ABC, {}, id="cnc-unparseable"),
    pytest.param("cnc", STAFF, BAD_ABC, {"lenient": True},
                 id="cnc-lenient-unparseable"),
    pytest.param("ast", STAFF, BAD_ABC, {}, id="ast-unparseable"),
    pytest.param("ast", TAB, "e|9-|\n", {}, id="ast-unparseable-tab"),
    pytest.param("smg", STAFF, BAD_ABC, {}, id="smg-unparseable"),
])
def test_each_prediction_is_parsed_once(parse_calls, task, fmt, text, kwargs):
    _score(task, fmt, text, **kwargs)
    assert parse_calls == [{STAFF: "parse_abc", JIANPU: "parse_jianpu",
                            TAB: "parse_ascii_tab"}[fmt]]


@pytest.mark.parametrize("prediction,valid", [
    (SCALE_ABC, True),
    (SCALE_ABC.replace("|]", "|" + "C D E F|" * 20 + "]"), False),
], ids=["scored", "excluded"])
def test_score_ast_projects_each_stream_once(monkeypatch, prediction, valid):
    """The length cap and the score use the same two projections."""
    calls = []
    for name in ("project", "project_ground_truth"):
        def counted(*args, _original=getattr(tasks, name), _name=name):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(tasks, name, counted)
    result = score_ast("s", SCALE_GT, prediction, STAFF, length_cap=10)
    assert result.valid is valid
    assert sorted(calls) == ["project", "project_ground_truth"]


@pytest.mark.parametrize("score,diagnostics", [
    (lambda: score_cnc("s", SCALE_GT, BAD_ABC, STAFF),
     ("abc.parse: unexpected character '?'",)),
    (lambda: score_cnc("s", SCALE_GT, BAD_ABC, STAFF, lenient=True),
     ("abc.parse: unexpected character '?'",
      "unparseable: unexpected character '?' (line 5, col 3)")),
    (lambda: score_ast("s", SCALE_GT, BAD_ABC, STAFF),
     ("abc.parse: unexpected character '?'",
      "unparseable: unexpected character '?' (line 5, col 3)")),
    (lambda: score_ast("s", SCALE_GT, "1=C 4/4\n1 2 x 4 |\n", JIANPU),
     ("jianpu.parse: unexpected token 'x'",
      "unparseable: unexpected token 'x' (line 2, col 5)")),
    (lambda: score_smg("g", BAD_ABC, STAFF, C_MAJOR, COMMON_TIME),
     ("abc.parse: unexpected character '?'",)),
])
def test_unparseable_diagnostics_are_unchanged(score, diagnostics):
    result = score()
    assert result.hybrid in (0, None)
    assert result.diagnostics == diagnostics
