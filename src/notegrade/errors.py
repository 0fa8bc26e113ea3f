"""Exception taxonomy, and the one reader of files from outside.

The split matters operationally: model-side failures (bad predictions) must
never escape as exceptions from scoring, while benchmark-side failures
(corrupt ground truth, bad manifests, bad config) must abort loudly.
``read_input`` and ``json_object`` make that split for every file the
package reads: how its bytes become text or a JSON object, and which
error a flaw raises.
"""

from __future__ import annotations

import json
import os
from functools import partial


class NotegradeError(Exception):
    """Base class for all errors raised by this package."""


class PitchError(NotegradeError):
    """Pitch arithmetic left its valid domain (bad degree, MIDI out of 0-127)."""


class ParseError(NotegradeError):
    """Notation text rejected by a parser.

    Carries an optional location and a stable rule id so validators can
    report machine-readable violations.
    """

    def __init__(self, message: str, *, line: int | None = None,
                 column: int | None = None, rule_id: str | None = None):
        super().__init__(message)
        self.message = message
        self.line = line
        self.column = column
        self.rule_id = rule_id

    def __str__(self) -> str:
        loc = ""
        if self.line is not None:
            loc = f" (line {self.line}" + (
                f", col {self.column})" if self.column is not None else ")")
        return self.message + loc


class SchemaError(NotegradeError):
    """Ground-truth, manifest, or external-score file violates its schema.

    This is a benchmark-integrity failure, never a model failure.
    """


class ConfigError(NotegradeError):
    """Invalid weights, grid, tuning, or other configuration."""


def read_input(path: str | os.PathLike, what: str = "",
               error: type[NotegradeError] | None = None, *,
               model: bool = False) -> str:
    """The text of the file at ``path``: UTF-8, line endings as written.

    Benchmark and config files are decoded strictly, and one that cannot
    be read or decoded raises ``error("cannot read <what>: ...")``. Model
    output (``model``) reads bad bytes as U+FFFD; with no ``error`` its
    ``OSError`` goes to the caller.
    """
    try:
        # No file object, which costs more; O_BINARY (Windows) keeps "\r\n".
        fd = os.open(path, os.O_RDONLY | getattr(os, "O_BINARY", 0))
        try:
            data = b"".join(iter(partial(os.read, fd, 1 << 16), b""))
        except IsADirectoryError as exc:
            exc.filename = os.fspath(path)  # named, as open() names it
            raise
        finally:
            os.close(fd)
        return data.decode("utf-8", "replace" if model else "strict")
    except (OSError, UnicodeDecodeError) as exc:
        if error is None:
            raise
        # ``what`` names the file; an OSError's text would name it again.
        raise error(f"cannot read {what}: "
                    f"{getattr(exc, 'strerror', None) or exc}") from None


def json_object(value: object, what: str, error: type[NotegradeError], *,
                known=None, required=frozenset(), decode=False) -> dict:
    """``value`` (with ``decode``, the JSON text ``value`` holds) if it is a
    JSON object with only the keys in the set ``known`` (any, if None)
    and every key in the set ``required``; otherwise ``error`` names the
    first flaw."""
    if decode:
        try:
            value = json.loads(value)
        except (ValueError, RecursionError) as exc:  # too many digits, too deep
            raise error(f"{what} is not valid JSON: {exc}") from None
    if not isinstance(value, dict):
        raise error(f"{what} must be a JSON object")
    unknown = set() if known is None else value.keys() - known
    if unknown:
        raise error(f"{what} has unknown keys {sorted(unknown)}")
    missing = required - value.keys() if required else ()
    if missing:
        raise error(f"{what} is missing keys {sorted(missing)}")
    return value
