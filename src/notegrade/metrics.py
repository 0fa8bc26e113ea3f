"""Alignment metrics: edit distance, alignment accuracy, hybrid scoring.

All arithmetic is exact. Accuracies are Fractions in [0, 1] and only
become floats at the serialization boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Hashable, Sequence

from .errors import ConfigError


def edit_distance(a: Sequence[Hashable], b: Sequence[Hashable]) -> int:
    """Levenshtein distance with unit insert, delete, and substitute costs.

    Myers' bit-vector algorithm in Hyyro's global form: a bit per token
    of the longer sequence, a step per token of the shorter. Bit i of
    ``vp`` (``vn``) is set when the distance rises (falls) at row i.
    """
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    masks = _token_masks(a, b)
    ones, top = (1 << len(a)) - 1, 1 << (len(a) - 1)
    vp, vn, distance = ones, 0, len(a)
    for token in b:
        eq = masks.get(token, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        hp = vn | (~(xh | vp) & ones)
        hn = vp & xh
        if hp & top:
            distance += 1
        elif hn & top:
            distance -= 1
        hp = hp << 1 | 1
        hn <<= 1
        vp = ~(xv | hp) & ones | hn
        vn = hp & xv
    return distance


def _token_masks(long: Sequence[Hashable],
                 short: Sequence[Hashable]) -> dict[Hashable, int]:
    """Bit masks over ``long``: bit i of a token's mask is set where
    ``long[i]`` equals it. Each token of ``short`` found in ``long`` has
    one; a token without one occurs nowhere in ``long``.

    Up to ``_SHORT`` tokens, bit by bit. Beyond, in time linear in
    ``len(long)`` per 255 distinct tokens: ``long`` is written backwards
    as one byte per token (its code among the tokens sought, 0 for
    none), and each token's mask is that row read as a base-2 numeral,
    with "1" where its code stands and "0" elsewhere. Every token of
    ``long`` is hashed once per row.
    """
    masks: dict[Hashable, int] = {}
    if len(long) <= _SHORT:
        for i, token in enumerate(long):
            masks[token] = masks.get(token, 0) | 1 << i
        return masks
    distinct = list(dict.fromkeys(short))
    for first in range(0, len(distinct), 255):
        code = dict(zip(distinct[first:first + 255], range(1, 256)))
        row = bytes(map(code.get, reversed(long), repeat(0)))
        for token, k in code.items():
            masks[token] = int(row.translate(_DIGIT_TABLES[k]), 2)
    return masks


# Below this length setting bits one by one is cheaper than the rows of
# bytes, whose fixed cost is some tens of dict and bytes operations; the
# bit-by-bit build is quadratic, but only in the length of a few words.
_SHORT = 64
# Byte k to "1", every other byte to "0".
_DIGIT_TABLES = [b"0" * k + b"1" + b"0" * (255 - k) for k in range(256)]


@dataclass(frozen=True)
class AccuracyScore:
    value: Fraction
    edit_distance: int
    len_gt: int
    len_pred: int

    def to_json_dict(self) -> dict:
        return {
            "value": float(self.value),
            "value_exact": f"{self.value.numerator}/{self.value.denominator}",
            "edit_distance": self.edit_distance,
            "len_gt": self.len_gt,
            "len_pred": self.len_pred,
        }


def alignment_accuracy(gt: Sequence[Hashable],
                       pred: Sequence[Hashable]) -> AccuracyScore:
    """1 - ED/max(|gt|, |pred|), clamped at zero; two empty streams match."""
    if not gt and not pred:
        return AccuracyScore(Fraction(1), 0, 0, 0)
    distance = edit_distance(gt, pred)
    value = max(Fraction(0), 1 - Fraction(distance, max(len(gt), len(pred))))
    return AccuracyScore(value, distance, len(gt), len(pred))


def require_exact(what: str, value: object) -> None:
    """A ConfigError unless ``value`` is an int or a Fraction (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise ConfigError(
            f"{what} must be an int or a Fraction, got {value!r}")


def parse_numbers(text: str, count: int, what: str) -> list[Fraction]:
    """Exactly ``count`` comma-separated exact numbers in ASCII (``Fraction``
    alone takes any Unicode digit and ``_``), or a ConfigError."""
    parts = text.split(",")
    if len(parts) != count:
        plural = "s" if count > 1 else ""
        raise ConfigError(f"{what} must be {count} comma-separated "
                          f"number{plural}, got {text!r}")
    if text.isascii() and "_" not in text:
        try:
            return [Fraction(part.strip()) for part in parts]
        except (ValueError, ZeroDivisionError):
            pass
    raise ConfigError(f"malformed {what} {text!r}")


@dataclass(frozen=True)
class MetricWeights:
    """Hybrid-score weights over pitch accuracy, duration accuracy, and
    format legality."""

    pitch: Fraction = Fraction(1, 2)
    duration: Fraction = Fraction(3, 10)
    format: Fraction = Fraction(1, 5)

    def __post_init__(self) -> None:
        for name, value in (("pitch", self.pitch),
                            ("duration", self.duration),
                            ("format", self.format)):
            require_exact(f"{name} weight", value)
            if value < 0:
                raise ConfigError(f"{name} weight must be >= 0, got {value}")
        total = self.pitch + self.duration + self.format
        if total != 1:
            raise ConfigError(f"weights must sum to 1, got {total}")

    @classmethod
    def parse(cls, text: str) -> "MetricWeights":
        return cls(*parse_numbers(text, 3, "weights"))

    def without_duration(self) -> "MetricWeights":
        """Redistribute the duration weight when a format carries no rhythm."""
        rest = self.pitch + self.format
        if rest == 0:
            raise ConfigError(
                "cannot drop duration weight when pitch and format weights are 0")
        return MetricWeights(self.pitch / rest, Fraction(0), self.format / rest)

    def to_json_dict(self) -> dict:
        return {name: float(value) for name, value in vars(self).items()}


def hybrid_score(acc_pitch: Fraction, acc_duration: Fraction | None,
                 format_legal: bool,
                 weights: MetricWeights = MetricWeights()) -> Fraction:
    """Weighted blend of the accuracies and the format-legality indicator.

    ``acc_duration=None`` means the target format has no duration stream;
    its weight is then redistributed over the other two components.
    """
    if acc_duration is None:
        weights = weights.without_duration()
        acc_duration = Fraction(0)
    return (weights.pitch * acc_pitch
            + weights.duration * acc_duration
            + weights.format * (Fraction(1) if format_legal else Fraction(0)))
