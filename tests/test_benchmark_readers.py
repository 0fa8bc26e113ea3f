"""Fuzzing the readers of benchmark-side files (ROADMAP item 11).

Whatever a manifest, a ground-truth file, an external-score file, a
``NOTEGRADE_CONFIG`` file or the file ``score --gt`` names holds, as
bytes or as JSON-shaped text, NUL included, its reader either accepts
it or raises its documented error: ``SchemaError`` for benchmark data,
``ConfigError`` for the config file. No other exception escapes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from notegrade.cli import ENV_CONFIG_VAR, main
from notegrade.errors import NotegradeError, SchemaError
from notegrade.harness import load_external_scores, load_manifest
from notegrade.parsers import parse_ground_truth

_NAME = st.text(min_size=1, max_size=6) | st.sampled_from(["p", "a\u0000b"])
_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats()
    | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=12)


def _near(**fields):
    """JSON objects with every key of ``fields``, each value drawn from
    its strategy; or that with one key dropped, one key added, or one
    value replaced by any JSON value."""
    def vary(obj):
        return st.one_of(
            st.just(obj),
            st.sampled_from(sorted(obj)).map(
                lambda key: {k: v for k, v in obj.items() if k != key}),
            st.tuples(st.sampled_from(sorted(obj)) | st.text(max_size=4),
                      _VALUES).map(lambda kv: {**obj, kv[0]: kv[1]}))
    return st.fixed_dictionaries(fields).flatmap(vary)


# Mostly valid values, and some that are not.
_FORMAT = st.sampled_from(["staff", "jianpu", "tab", "staff", "polka"])
_KEY = st.sampled_from(["C", "F#", "Bb", "G", "D", "H"])
_METER = st.sampled_from(["4/4", "6/8", "3/4", "2/2", "0/4", "4/3"])
_MIDI = st.integers(-1, 128)
_TUNING = st.lists(_MIDI, min_size=5, max_size=7)
_ROW = st.one_of(
    _near(id=_NAME, task=st.just("vsu"), format=_FORMAT, pred_path=_NAME,
          answer=_NAME),
    _near(id=_NAME, task=st.sampled_from(["cnc", "ast"]), format=_FORMAT,
          pred_path=_NAME, gt_path=_NAME, tuning=_TUNING),
    _near(id=_NAME, task=st.just("smg"), format=_FORMAT, pred_path=_NAME,
          declared_key=_KEY, declared_meter=_METER))
_BEATS = st.sampled_from(["0/1", "1/1", "1/4", "3/2", "1/2", "-1/2", "1/0",
                          "2"])
_GROUND_TRUTH = _near(
    id=_NAME, format=_FORMAT, key=_KEY, meter=_METER,
    tempo_bpm=st.sampled_from([None, 120, 90.5]) | st.floats(),
    events=st.lists(_near(onset_beats=_BEATS, duration_beats=_BEATS,
                          midi=st.lists(_MIDI, max_size=3)), max_size=4))
_SCORE = st.integers(0, 6) | st.floats()
_EXTERNAL = st.dictionaries(_NAME, _near(aesthetic=_SCORE, fingering=_SCORE),
                            max_size=3)
_CONFIG = _near(
    weights=st.sampled_from(["0.5,0.3,0.2", "1,0,0", "1,1", "-1,1,1"]),
    grid=st.sampled_from(["1/4", "1/8", "0", "-1/4", "x"]), tuning=_TUNING,
    workers=st.integers(-1, 3), cnc_lenient=st.booleans(),
    ast_length_cap=st.none() | st.integers(-1, 5),
    **{"lambda": st.sampled_from(["1,1,1,1", "1,0,0,0", "1"])})


def _files(objects, lines=False):
    """File contents: raw bytes, JSON-like characters, or ``objects`` as
    JSON; with ``lines``, several of these joined as JSON Lines."""
    as_json = objects.map(lambda value: json.dumps(value).encode())
    one = st.one_of(
        st.binary(max_size=40),
        st.text(alphabet='{}[]":,.-/0123456789eE ntrufals\\\u0000\n',
                max_size=40).map(str.encode),
        as_json, as_json)
    return st.lists(one, max_size=4).map(b"\n".join) if lines else one


_FUZZ = settings(max_examples=200, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


def _raises_only(error, call):
    """Run ``call``; a NotegradeError it raises must be an ``error``."""
    try:
        call()
    except NotegradeError as exc:
        assert isinstance(exc, error), repr(exc)


def _run(argv, env=None) -> int:
    """``main(argv)`` with ``env`` added to the environment, its output
    and error text discarded."""
    with mock.patch.dict(os.environ, env or {}), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@_FUZZ
@given(data=_files(_ROW, lines=True))
def test_load_manifest_raises_only_schema_errors(tmp_path, data):
    path = tmp_path / "manifest.jsonl"
    path.write_bytes(data)
    _raises_only(SchemaError, lambda: load_manifest(path))
    # ``batch`` also opens the files the rows name, which do not exist.
    argv = ["batch", "--manifest", str(path),
            "--out", str(tmp_path / "report.json")]
    assert _run(argv) in (0, 2)


@_FUZZ
@given(data=_files(_GROUND_TRUTH))
def test_parse_ground_truth_raises_only_schema_errors(data):
    text = data.decode("utf-8", "replace")
    _raises_only(SchemaError, lambda: parse_ground_truth(text))


@_FUZZ
@given(data=_files(_EXTERNAL))
def test_load_external_scores_raises_only_schema_errors(tmp_path, data):
    path = tmp_path / "external.json"
    path.write_bytes(data)
    _raises_only(SchemaError, lambda: load_external_scores(path))


@pytest.fixture
def one_sample(tmp_path):
    """A manifest of one vsu sample that scores."""
    (tmp_path / "pred.txt").write_text("(B)", encoding="utf-8")
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text(json.dumps(
        {"id": "v", "task": "vsu", "format": "staff", "pred_path": "pred.txt",
         "answer": "B"}) + "\n", encoding="utf-8")
    return manifest


@_FUZZ
@given(data=_files(_CONFIG))
def test_the_config_file_raises_only_config_errors(tmp_path, one_sample,
                                                    data):
    # ``batch`` reads every key of the file; a ConfigError exits with 1,
    # a SchemaError with 2, and any other exception escapes ``main``.
    config = tmp_path / "config.json"
    config.write_bytes(data)
    argv = ["batch", "--manifest", str(one_sample),
            "--out", str(tmp_path / "report.json")]
    assert _run(argv, {ENV_CONFIG_VAR: str(config)}) in (0, 1)


@_FUZZ
@given(task=st.sampled_from(["vsu", "cnc", "ast", "smg"]),
       data=_files(_GROUND_TRUTH))
def test_score_gt_raises_only_schema_errors(tmp_path, task, data):
    pred = tmp_path / "pred.abc"
    pred.write_text("X:1\nM:4/4\nL:1/4\nK:C\nC D E F|]\n", encoding="utf-8")
    gt = tmp_path / "gt.json"
    gt.write_bytes(data)
    argv = ["score", "--task", task, "--format", "staff", "--pred", str(pred),
            "--gt", str(gt)]
    assert _run(argv) in (0, 2)
