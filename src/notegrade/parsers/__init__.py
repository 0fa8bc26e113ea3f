"""Format parsers, the ground-truth reader, and legality validators."""

from .abc_notation import parse_abc
from .ground_truth import load_ground_truth, parse_ground_truth
from .jianpu import parse_jianpu
from .tab import parse_ascii_tab
from .validators import parse_document, validate_format

__all__ = [
    "load_ground_truth",
    "parse_abc",
    "parse_ascii_tab",
    "parse_document",
    "parse_ground_truth",
    "parse_jianpu",
    "validate_format",
]
