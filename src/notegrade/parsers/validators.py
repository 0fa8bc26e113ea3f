"""Strict format-legality checking.

A verdict collects structural violations (missing required headers, no
terminating barline) and then attempts a full parse, so a legal document
is always parseable. The verdict also carries the document (or the
ParseError), so the scorers never parse a prediction again. Violations
carry stable rule identifiers like ``abc.header_x`` or
``tab.bar_alignment`` for downstream reporting.
"""

from __future__ import annotations

from ..errors import ParseError
from ..pitch import STANDARD_TUNING, Tuning
from ..score import FormatVerdict, NotationFormat, Violation
from .abc_notation import _HEADER_RE, parse_abc
from .jianpu import parse_jianpu
from .tab import parse_ascii_tab


def _abc_structural(text: str) -> list[Violation]:
    violations = []
    seen: set[str] = set()
    body: list[str] = []
    in_body = False
    for raw in text.splitlines():
        if in_body:
            body.append(raw)
            continue
        line = raw.strip()
        if not line:
            continue
        match = _HEADER_RE.match(line)
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


def _jianpu_structural(text: str) -> list[Violation]:
    lines = text.splitlines()
    directive_seen = False
    body: list[str] = []
    for raw in lines:
        if directive_seen:
            body.append(raw)
        elif raw.strip():
            directive_seen = True
    stripped = "\n".join(body).strip()
    if stripped and not stripped.endswith("|"):
        return [Violation(
            "jianpu.measure_bars", "music does not end with a barline")]
    return []


def validate_format(fmt: NotationFormat, text: str,
                    tuning: Tuning = STANDARD_TUNING) -> FormatVerdict:
    """Judge a document against the strict rules of one notation format."""
    if fmt is NotationFormat.ABC_STAFF:
        violations = _abc_structural(text)
        parse = parse_abc
    elif fmt is NotationFormat.JIANPU:
        violations = _jianpu_structural(text)
        parse = parse_jianpu
    else:
        violations = []
        def parse(value: str):
            return parse_ascii_tab(value, tuning)
    flagged = {v.rule_id for v in violations}
    try:
        doc = parse(text)
    except ParseError as exc:
        rule_id = exc.rule_id or f"{fmt.value}.parse"
        if rule_id not in flagged:
            violations.append(
                Violation(rule_id, exc.message, exc.line, exc.column))
        # Keep no frames: they would pin the prediction text in memory.
        exc.__context__ = None
        return FormatVerdict(tuple(violations),
                             error=exc.with_traceback(None))
    return FormatVerdict(tuple(violations), doc=doc)
