"""What every public record promises, whatever class machinery builds
it: pickle and copy give back an equal record of the same type, fields
cannot be assigned, equal records hash equal, and keyword and
positional construction agree."""

import copy
import enum
import inspect
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

import notegrade
from notegrade import (
    AccuracyScore,
    CanonicalSequence,
    CapabilityWeights,
    EvalConfig,
    Event,
    FormatVerdict,
    GroundTruth,
    JianpuNote,
    KeySignature,
    Measure,
    MetricWeights,
    NotationFormat,
    Report,
    SampleRecord,
    ScientificPitch,
    ScoreDoc,
    SmgRuleReport,
    TabEvent,
    Task,
    TaskResult,
    TimeSignature,
    Tuning,
    parse_abc,
)
from notegrade.score import GroundTruthEvent, Violation

ABC = "X:1\nM:4/4\nL:1/4\nK:G\n[DG]2 -[DG] z|c/2d/2 e2 f|]\n"
DROP_D = (64, 59, 55, 50, 45, 38)


def _doc():
    return parse_abc(ABC)


def _sample():
    return ("s1", Task.SMG, NotationFormat.ASCII_TAB, Path("p/s1.tab"), None,
            None, KeySignature(7), TimeSignature(6, 8), Tuning(DROP_D))


def _result():
    return ("s1", Task.SMG, True, None, None, None, True, 3,
            SmgRuleReport(True, False, True, True, False), None, ("note",))


# Each public record type, with the positional arguments of a valid record.
RECORDS = [
    (TimeSignature, lambda: (6, 8)),
    (Event, lambda: (Fraction(3, 2), Fraction(1, 4), (60, 64), True)),
    (Measure, lambda: tuple(_doc().measures[0])),
    (ScoreDoc, lambda: (NotationFormat.ABC_STAFF, KeySignature(7),
                        TimeSignature(4, 4), _doc().measures, True)),
    (GroundTruthEvent, lambda: (Fraction(1), Fraction(1, 2), (60, 67))),
    (GroundTruth, lambda: (
        "g1", NotationFormat.JIANPU, KeySignature(2), TimeSignature(3, 4),
        (GroundTruthEvent(Fraction(0), Fraction(3), (62,)),), 90.0)),
    (Violation, lambda: ("abc.header_x", "missing X", 1, None)),
    (FormatVerdict, lambda: ((Violation("abc.barline", "no final bar"),),
                             _doc())),
    (ScientificPitch, lambda: ("F", True, 5)),
    (KeySignature, lambda: (9, "major")),
    (Tuning, lambda: (DROP_D,)),
    (TabEvent, lambda: (2, 7, 3)),
    (JianpuNote, lambda: (5, -1, Fraction(1, 2))),
    (AccuracyScore, lambda: (Fraction(2, 3), 1, 3, 3)),
    (MetricWeights, lambda: (Fraction(3, 5), Fraction(1, 5), Fraction(1, 5))),
    (CanonicalSequence, lambda: (((60,), (62, 65)), (2, 1), 4)),
    (SmgRuleReport, lambda: (True, False, True, True, False)),
    (TaskResult, _result),
    (CapabilityWeights, lambda: (Fraction(1, 2), Fraction(1, 4),
                                 Fraction(1, 8), Fraction(1, 8))),
    (EvalConfig, lambda: (MetricWeights(), CapabilityWeights(),
                          Fraction(1, 8), Tuning(DROP_D), True, 4)),
    (SampleRecord, _sample),
    (Report, lambda: (EvalConfig(), (SampleRecord(*_sample()),),
                      (TaskResult(*_result()),), {"s1": {"aesthetic": 4.0}},
                      ("a warning",))),
]
IDS = [cls.__name__ for cls, _ in RECORDS]


def _parameters(cls, args):
    """The constructor's parameter names, as bound to ``args``."""
    return inspect.signature(cls).bind(*args).arguments


def test_every_public_record_type_is_listed():
    public = {getattr(notegrade, name) for name in notegrade.__all__}
    assert {value for value in public if isinstance(value, type) and not
            issubclass(value, (Exception, enum.Enum))} <= set(dict(RECORDS))


@pytest.mark.parametrize("cls,args", RECORDS, ids=IDS)
def test_a_record_survives_pickle_and_copy(cls, args):
    record = cls(*args())
    if cls is Report:
        record.capability()  # fill its cache, which travels too
    for copied in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                   copy.deepcopy(record)):
        assert type(copied) is cls
        assert copied == record


@pytest.mark.parametrize("cls,args", RECORDS, ids=IDS)
def test_a_record_field_cannot_be_assigned(cls, args):
    record = cls(*args())
    for name, value in _parameters(cls, args()).items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)


@pytest.mark.parametrize("cls,args", RECORDS, ids=IDS)
def test_keyword_and_positional_construction_agree(cls, args):
    positional = cls(*args())
    keyword = cls(**_parameters(cls, args()))
    assert type(keyword) is cls
    assert keyword == positional


# A report holds its external scores in a dict, so it has no hash.
@pytest.mark.parametrize("cls,args", RECORDS[:-1], ids=IDS[:-1])
def test_equal_records_hash_equal(cls, args):
    # Built twice, so equal without being the same objects.
    assert cls(*args()) == cls(*args())
    assert hash(cls(*args())) == hash(cls(*args()))


# Each record that checks its fields in __new__, with a field and a value
# that construction rejects.
CHECKED = [
    (TimeSignature, "denominator", 3),
    (ScoreDoc, "measures", ()),
    (ScientificPitch, "octave", 10),
    (KeySignature, "tonic", 12),
    (Tuning, "base", DROP_D[:5]),
    (TabEvent, "fret", -1),
    (JianpuNote, "degree", 8),
    (MetricWeights, "pitch", Fraction(5)),
    (CapabilityWeights, "vsu", Fraction(5)),
    (EvalConfig, "grid", Fraction(0)),
]


def test_every_checking_record_is_listed():
    # A namedtuple subclass with its own __new__; Report's only fills in
    # a default.
    assert {cls for cls, _ in RECORDS if "__new__" in vars(cls)
            and "_make" in vars(cls.__base__)} - {Report} \
        == {cls for cls, *_ in CHECKED}


@pytest.mark.parametrize("cls,field,bad", CHECKED,
                         ids=[cls.__name__ for cls, *_ in CHECKED])
def test_replace_and_make_check_as_construction_does(cls, field, bad):
    args = dict(RECORDS)[cls]()
    fields = {**_parameters(cls, args), field: bad}
    with pytest.raises(Exception) as built:
        cls(**fields)
    record = cls(*args)
    for derive in (lambda: record._replace(**{field: bad}),
                   lambda: cls._make(fields.values())):
        with pytest.raises(Exception) as derived:
            derive()
        assert type(derived.value) is type(built.value)
        assert str(derived.value) == str(built.value)
