"""Deterministic scoring toolkit for symbolic music notation benchmarks.

Parses ABC staff notation, numbered (jianpu) notation, and ASCII guitar
tablature into one document model, projects documents onto canonical
pitch and duration streams, and scores model outputs on four tasks with
exact rational arithmetic.
"""

from .errors import (
    ConfigError,
    NotegradeError,
    ParseError,
    PitchError,
    SchemaError,
)
from .harness import (
    EvalConfig,
    Report,
    SampleRecord,
    load_external_scores,
    load_manifest,
    run_batch,
    score_sample,
    write_report,
)
from .metrics import (
    AccuracyScore,
    MetricWeights,
    alignment_accuracy,
    edit_distance,
    hybrid_score,
)
from .parsers import (
    load_ground_truth,
    parse_abc,
    parse_ascii_tab,
    parse_ground_truth,
    parse_jianpu,
    validate_format,
)
from .pitch import (
    STANDARD_TUNING,
    JianpuNote,
    KeySignature,
    ScientificPitch,
    TabEvent,
    Tuning,
    jianpu_to_midi,
    midi_to_scientific,
    scientific_to_midi,
    sort_chord,
    tab_to_midi,
)
from .projection import (
    CanonicalSequence,
    project,
    project_ground_truth,
    quantize_duration,
    quantize_durations,
)
from .score import (
    Event,
    FormatVerdict,
    GroundTruth,
    Measure,
    NotationFormat,
    ScoreDoc,
    TimeSignature,
)
from .tasks import (
    CapabilityWeights,
    SmgRuleReport,
    Task,
    TaskResult,
    aggregate_capability,
    parse_document,
    score_ast,
    score_cnc,
    score_smg,
    score_vsu,
)


def __getattr__(name: str) -> str:
    """Look ``__version__`` up on first read, not at import (PEP 562)."""
    if name != "__version__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import metadata
    try:
        version = metadata.version("notegrade")
    except metadata.PackageNotFoundError:
        version = "0+unknown"
    return globals().setdefault(name, version)


__all__ = [
    "AccuracyScore",
    "CanonicalSequence",
    "CapabilityWeights",
    "ConfigError",
    "EvalConfig",
    "Event",
    "FormatVerdict",
    "GroundTruth",
    "JianpuNote",
    "KeySignature",
    "Measure",
    "MetricWeights",
    "NotationFormat",
    "NotegradeError",
    "ParseError",
    "PitchError",
    "Report",
    "SampleRecord",
    "SchemaError",
    "ScientificPitch",
    "ScoreDoc",
    "SmgRuleReport",
    "STANDARD_TUNING",
    "TabEvent",
    "Task",
    "TaskResult",
    "TimeSignature",
    "Tuning",
    "aggregate_capability",
    "alignment_accuracy",
    "edit_distance",
    "hybrid_score",
    "jianpu_to_midi",
    "load_external_scores",
    "load_ground_truth",
    "load_manifest",
    "midi_to_scientific",
    "parse_abc",
    "parse_ascii_tab",
    "parse_document",
    "parse_ground_truth",
    "parse_jianpu",
    "project",
    "project_ground_truth",
    "quantize_duration",
    "quantize_durations",
    "run_batch",
    "scientific_to_midi",
    "score_ast",
    "score_cnc",
    "score_sample",
    "score_smg",
    "score_vsu",
    "sort_chord",
    "tab_to_midi",
    "validate_format",
    "write_report",
]
