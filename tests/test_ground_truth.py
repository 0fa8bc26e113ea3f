import json
from fractions import Fraction

import pytest

from notegrade.errors import SchemaError
from notegrade.parsers import load_ground_truth, parse_ground_truth
from notegrade.score import NotationFormat


def _doc(**overrides) -> dict:
    doc = {
        "id": "s1",
        "format": "staff",
        "key": "C",
        "meter": "4/4",
        "events": [
            {"onset_beats": "0/1", "duration_beats": "1/1", "midi": [60]},
            {"onset_beats": "1/1", "duration_beats": "1/2", "midi": [64, 67]},
        ],
    }
    doc.update(overrides)
    return doc


def test_round_trip():
    gt = parse_ground_truth(json.dumps(_doc()))
    assert gt.id == "s1"
    assert gt.format is NotationFormat.ABC_STAFF
    assert gt.key.name == "C"
    assert gt.meter.text == "4/4"
    assert gt.events[1].midi == (64, 67)
    assert gt.events[1].duration_beats == Fraction(1, 2)
    assert gt.tempo_bpm is None


def test_tempo_accepted():
    gt = parse_ground_truth(json.dumps(_doc(tempo_bpm=96)))
    assert gt.tempo_bpm == 96.0


def test_empty_midi_is_a_rest():
    doc = _doc()
    doc["events"][0]["midi"] = []
    gt = parse_ground_truth(json.dumps(doc))
    assert gt.events[0].midi == ()


def test_empty_events_allowed():
    gt = parse_ground_truth(json.dumps(_doc(events=[])))
    assert gt.events == ()


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("id"),
    lambda d: d.pop("events"),
    lambda d: d.update(id=""),
    lambda d: d.update(id=7),
    lambda d: d.update(format="abc"),
    lambda d: d.update(key="H"),
    lambda d: d.update(meter="44"),
    lambda d: d.update(meter="4/3"),
    lambda d: d.update(tempo_bpm=0),
    lambda d: d.update(tempo_bpm="fast"),
    lambda d: d.update(extra=1),
    lambda d: d.update(events={}),
])
def test_top_level_violations(mutate):
    doc = _doc()
    mutate(doc)
    with pytest.raises(SchemaError):
        parse_ground_truth(json.dumps(doc))


@pytest.mark.parametrize("event", [
    {"onset_beats": "0/1", "duration_beats": "1/1"},
    {"onset_beats": "0/1", "duration_beats": "1/1", "midi": [60], "x": 1},
    {"onset_beats": "0.5", "duration_beats": "1/1", "midi": [60]},
    {"onset_beats": "0/1", "duration_beats": "0/1", "midi": [60]},
    {"onset_beats": "1/0", "duration_beats": "1/1", "midi": [60]},
    {"onset_beats": "0/1", "duration_beats": "1/1", "midi": [128]},
    {"onset_beats": "0/1", "duration_beats": "1/1", "midi": [60.0]},
    {"onset_beats": "0/1", "duration_beats": "1/1", "midi": [64, 60]},
    {"onset_beats": "0/1", "duration_beats": "1/1", "midi": [60, 60]},
    {"onset_beats": "0/1", "duration_beats": "1/1", "midi": "60"},
    "not an object",
])
def test_event_violations(event):
    with pytest.raises(SchemaError):
        parse_ground_truth(json.dumps(_doc(events=[event])))


def test_onsets_must_not_decrease():
    doc = _doc()
    doc["events"][0]["onset_beats"] = "2/1"
    with pytest.raises(SchemaError, match="precedes"):
        parse_ground_truth(json.dumps(doc))


def test_invalid_json_is_schema_error():
    with pytest.raises(SchemaError, match="JSON"):
        parse_ground_truth("{not json")


def test_non_object_is_schema_error():
    with pytest.raises(SchemaError):
        parse_ground_truth("[1, 2]")


def test_missing_file_is_schema_error(tmp_path):
    with pytest.raises(SchemaError, match="cannot read"):
        load_ground_truth(tmp_path / "nope.json")


def test_missing_file_is_named_once(tmp_path):
    path = tmp_path / "nope.json"
    with pytest.raises(SchemaError) as info:
        load_ground_truth(path)
    assert str(info.value) == (
        f"{path}: cannot read ground truth: No such file or directory")


def test_load_from_file(tmp_path):
    path = tmp_path / "gt.json"
    path.write_text(json.dumps(_doc()), encoding="utf-8")
    assert load_ground_truth(path).id == "s1"


@pytest.mark.parametrize("field", ["onset_beats", "duration_beats"])
@pytest.mark.parametrize("value", ["9" * 5000 + "/1", "1/" + "9" * 5000])
def test_overlong_beats_are_schema_errors(field, value):
    doc = _doc()
    doc["events"][0][field] = value
    with pytest.raises(SchemaError, match="digits"):
        parse_ground_truth(json.dumps(doc))


def test_overlong_json_integer_is_schema_error():
    text = json.dumps(_doc()).replace("[60]", "[" + "6" * 5000 + "]")
    with pytest.raises(SchemaError, match="JSON"):
        parse_ground_truth(text)


@pytest.mark.parametrize("beats", ["٣/4", "1/٤", "1_0/4", "+1/4", "1/4\n",
                                   " 1/4"])
def test_beats_take_ascii_digits_only(beats):
    doc = _doc()
    doc["events"][0]["duration_beats"] = beats
    with pytest.raises(SchemaError):
        parse_ground_truth(json.dumps(doc))


@pytest.mark.parametrize("tempo", ["NaN", "Infinity", "-Infinity", "1e400",
                                   "1" + "0" * 400])
def test_tempo_must_be_finite(tempo):
    text = json.dumps(_doc(tempo_bpm="T")).replace('"T"', tempo)
    with pytest.raises(SchemaError) as err:
        parse_ground_truth(text)
    assert "tempo_bpm must be a finite positive number" in str(err.value)


def test_meter_takes_ascii_digits_only():
    with pytest.raises(SchemaError):
        parse_ground_truth(json.dumps(_doc(meter="٣/4")))
