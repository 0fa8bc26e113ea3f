"""A batch resolves each distinct text once, through one memo that
``run_batch`` makes and drops; and it writes each per-sample entry
through a template for the entry's shape. Neither may change a byte:
the memo no verdict, the template no report text."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from differential import PINNED_COUNT, PINNED_SEEDS, staff_or_jianpu, texts
from notegrade import harness
from notegrade.harness import (EvalConfig, Report, SampleRecord,
                               _entry_text, _json_chunks, json_text,
                               load_manifest, run_batch)
from notegrade.metrics import AccuracyScore
from notegrade.parsers import abc_notation, jianpu, validate_format
from notegrade.pitch import KeySignature
from notegrade.score import NotationFormat, TimeSignature
from notegrade.tasks import SmgRuleReport, Task, TaskResult


def _corpus():
    """The documents whose verdicts ``tests/data/differential.json`` pins."""
    for seed in PINNED_SEEDS:
        for _, fmt, _, text, tuning in texts(seed, PINNED_COUNT):
            yield NotationFormat(fmt), text, tuning


def _verdict(fmt, text, tuning, memo):
    verdict = validate_format(fmt, text, tuning, memo)
    error = verdict.error
    return (verdict.violations, verdict.doc, None if error is None else
            (error.rule_id, error.message, error.line, error.column))


def test_a_shared_memo_changes_no_verdict():
    corpus = list(_corpus())
    alone = [_verdict(*doc, None) for doc in corpus]
    shared: dict = {}
    assert [_verdict(*doc, shared) for doc in corpus] == alone
    shared = {}
    backwards = [_verdict(*doc, shared) for doc in reversed(corpus)]
    assert backwards[::-1] == alone
    assert any(key[0] == "abc" for key in shared)
    assert any(key[0] == "jianpu" for key in shared)


def _count_resolutions(monkeypatch) -> dict[str, int]:
    """Calls of the staff and jianpu parsers' resolvers, counted from now."""
    calls = {"abc": 0, "jianpu": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(abc_notation, "_resolve",
                        counted("abc", abc_notation._resolve))
    monkeypatch.setattr(jianpu, "_resolve_token",
                        counted("jianpu", jianpu._resolve_token))
    return calls


def test_the_memo_dies_with_its_batch(tmp_path, monkeypatch):
    """Two batches on one manifest resolve as often as each other: the
    second finds nothing the first resolved."""
    rng = random.Random(7)
    lines = []
    for n in range(30):
        fmt = ("staff", "jianpu")[n % 2]
        text, _ = staff_or_jianpu(rng, fmt)
        (tmp_path / f"s{n}.txt").write_text(text, "utf-8")
        lines.append(json.dumps({
            "id": f"s{n}", "task": "smg", "format": fmt,
            "pred_path": f"s{n}.txt", "declared_key": "C",
            "declared_meter": "4/4"}))
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("\n".join(lines) + "\n", "utf-8")
    calls = _count_resolutions(monkeypatch)
    records = load_manifest(manifest)
    run_batch(records)
    first = dict(calls)
    run_batch(records)
    assert first["abc"] > 0 and first["jianpu"] > 0
    assert calls == {name: 2 * count for name, count in first.items()}


@pytest.mark.parametrize("fmt, text", [
    ("staff", "X:1\nM:4/4\nL:1/4\nK:C\nC C C C|]\n"),
    ("jianpu", "1=C\n1 1 1 1 |\n")], ids=["staff", "jianpu"])
def test_score_sample_resolves_through_the_memo_it_is_given(
        tmp_path, monkeypatch, fmt, text):
    """Calls sharing a memo resolve the repeated note once between them;
    without one, each call resolves it again."""
    (tmp_path / "pred.txt").write_text(text, "utf-8")
    record = SampleRecord("s", Task.SMG, NotationFormat(fmt),
                          tmp_path / "pred.txt",
                          declared_key=KeySignature.parse("C"),
                          declared_meter=TimeSignature(4, 4))
    calls = _count_resolutions(monkeypatch)
    name = "abc" if fmt == "staff" else "jianpu"
    memo: dict = {}
    shared = [harness.score_sample(record, EvalConfig(), None, memo)
              for _ in range(2)]
    assert calls[name] == 1
    alone = [harness.score_sample(record, EvalConfig(), None)
             for _ in range(2)]
    assert calls[name] == 3
    assert shared == alone and shared[0].valid


# Text that JSON escapes: quotes, backslashes, control and non-ASCII.
_TEXT = st.text(st.sampled_from('a"\\\x00\x1f\n\u00e9\u2028\U0001f3b5 |'),
                max_size=8)
_SHARE = st.fractions(min_value=0, max_value=1, max_denominator=60)
_ACCURACY = st.builds(AccuracyScore, _SHARE, st.integers(0, 99),
                      st.integers(0, 99), st.integers(0, 99))
_DIAGNOSTICS = st.lists(_TEXT, max_size=3).map(tuple)
_RESULTS = st.one_of(
    st.builds(TaskResult, _TEXT, st.just(Task.VSU), correct=st.booleans(),
              diagnostics=_DIAGNOSTICS),
    st.builds(TaskResult, _TEXT, st.sampled_from([Task.CNC, Task.AST]),
              valid=st.booleans(), acc_pitch=st.none() | _ACCURACY,
              acc_duration=st.none() | _ACCURACY,
              fmt_legal=st.none() | st.booleans(),
              hybrid=st.none() | _SHARE, diagnostics=_DIAGNOSTICS),
    st.builds(TaskResult, _TEXT, st.just(Task.SMG), valid=st.booleans(),
              fmt_legal=st.booleans(), technical=st.integers(0, 5),
              rules=st.none() | st.builds(SmgRuleReport, *[st.booleans()] * 5),
              diagnostics=_DIAGNOSTICS))
_SCORE = st.none() | st.integers(1, 5) | st.floats(1, 5)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_RESULTS, st.sampled_from(list(NotationFormat)),
                          st.none() | st.fixed_dictionaries(
                              {}, optional={"aesthetic": _SCORE,
                                            "fingering": _SCORE})),
                min_size=1, max_size=6))
def test_entries_are_written_as_json_text_writes_them(drawn):
    results, records, external = [], [], {}
    for k, (result, fmt, scores) in enumerate(drawn):
        result = result._replace(sample_id=f"{k}{result.sample_id}")
        results.append(result)
        records.append(SampleRecord(result.sample_id, result.task, fmt, "p"))
        if scores is not None:
            external[result.sample_id] = scores
    report = Report(EvalConfig(), tuple(records), tuple(results), external)
    data = report.to_json_dict()
    for result, record, entry in zip(results, records, data["per_sample"]):
        scores = external.get(result.sample_id) or {}
        assert entry == {**result.to_json_dict(), "format": record.format.value,
                         "aesthetic": scores.get("aesthetic"),
                         "fingering": scores.get("fingering")}
        assert _entry_text(entry, "\n    ") == json_text(entry, "\n    ")
    assert "".join(_json_chunks(data)) == json_text(data) + "\n"


def test_an_entry_of_another_shape_is_written_by_json_text():
    entry = TaskResult("x", Task.VSU, correct=True).to_json_dict()
    entry.update(format="staff", aesthetic=None, fingering=None)
    for changed in ({"valid": 1}, {"hybrid": [0.5]},
                    {"acc_pitch": {"value": 1.0}}, {"rules": {"a": True}},
                    {"diagnostics": [None, {}]}, {"task": {"a": []}}):
        other = {**entry, **changed}
        assert _entry_text(other, "\n    ") == json_text(other, "\n    ")
    for value in (Fraction(7, 2), ("a",)):  # no text: fails as json_text
        other = {**entry, "aesthetic": value}
        with pytest.raises(KeyError) as expected:
            json_text(other, "\n    ")
        with pytest.raises(KeyError) as failed:
            _entry_text(other, "\n    ")
        assert failed.value.args == expected.value.args
