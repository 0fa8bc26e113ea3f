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
from ..score import FormatVerdict, NotationFormat, Violation
from .abc_notation import parse_abc
from .jianpu import parse_jianpu
from .tab import parse_ascii_tab


def validate_format(fmt: NotationFormat, text: str,
                    tuning: Tuning = STANDARD_TUNING) -> FormatVerdict:
    """Judge a document against the strict rules of one notation format."""
    violations: list[Violation] = []
    try:
        if fmt is NotationFormat.ABC_STAFF:
            doc = parse_abc(text, violations=violations)
        elif fmt is NotationFormat.JIANPU:
            doc = parse_jianpu(text, violations=violations)
        else:
            doc = parse_ascii_tab(text, tuning)
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
