"""Strict format-legality checking.

A verdict is one parse. The parsers report the soft violations that do
not stop a parse (a missing required header, no terminating barline);
the ParseError that stops one is added unless its rule is already
flagged. The verdict carries the document or the ParseError, so the
scorers never parse a prediction again. Rule ids such as
``abc.header_x`` or ``tab.bar_alignment`` are stable for reporting.
"""

from __future__ import annotations

from ..errors import ParseError
from ..pitch import STANDARD_TUNING, Tuning
from ..score import FormatVerdict, NotationFormat, ScoreDoc, Violation
from .abc_notation import parse_abc
from .jianpu import parse_jianpu
from .tab import parse_ascii_tab


def parse_document(fmt: NotationFormat, text: str,
                   tuning: Tuning = STANDARD_TUNING,
                   violations: list[Violation] | None = None) -> ScoreDoc:
    """Parse with the one parser of ``fmt``; soft violations go into
    ``violations`` when it is given (tablature has none)."""
    if fmt is NotationFormat.ABC_STAFF:
        return parse_abc(text, violations=violations)
    if fmt is NotationFormat.JIANPU:
        return parse_jianpu(text, violations=violations)
    return parse_ascii_tab(text, tuning)


def validate_format(fmt: NotationFormat, text: str,
                    tuning: Tuning = STANDARD_TUNING) -> FormatVerdict:
    """Judge a document against the strict rules of one notation format."""
    violations: list[Violation] = []
    try:
        doc = parse_document(fmt, text, tuning, violations)
    except ParseError as exc:
        rule_id = exc.rule_id or f"{fmt.value}.parse"
        if all(v.rule_id != rule_id for v in violations):
            violations.append(
                Violation(rule_id, exc.message, exc.line, exc.column))
        # Keep no frames: they would pin the prediction text in memory.
        exc.__context__ = None
        return FormatVerdict(tuple(violations),
                             error=exc.with_traceback(None))
    return FormatVerdict(tuple(violations), doc=doc)
