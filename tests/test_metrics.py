import itertools
import random
import time
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

from notegrade.errors import ConfigError
from notegrade.metrics import (
    MetricWeights,
    alignment_accuracy,
    edit_distance,
    hybrid_score,
)


def reference_edit_distance(a: str, b: str) -> int:
    """Straight from the recursive definition, memoized on suffix indexes."""
    @lru_cache(maxsize=None)
    def walk(i: int, j: int) -> int:
        if i == len(a):
            return len(b) - j
        if j == len(b):
            return len(a) - i
        if a[i] == b[j]:
            return walk(i + 1, j + 1)
        return 1 + min(walk(i + 1, j), walk(i, j + 1), walk(i + 1, j + 1))
    return walk(0, 0)


def dp_edit_distance(a, b) -> int:
    """The O(n*m) dynamic program, row by row: the oracle for the
    bit-vector edit_distance on sequences too long for the recursion."""
    previous = list(range(len(b) + 1))
    for i, item_a in enumerate(a, start=1):
        current = [i] + [0] * len(b)
        for j, item_b in enumerate(b, start=1):
            current[j] = min(previous[j] + 1, current[j - 1] + 1,
                             previous[j - 1] + (item_a != item_b))
        previous = current
    return previous[-1]


@pytest.mark.parametrize("a,b,expected", [
    ("", "", 0),
    ("abc", "", 3),
    ("", "abc", 3),
    ("abc", "abc", 0),
    ("kitten", "sitting", 3),
    ("flaw", "lawn", 2),
    ("abc", "acb", 2),
])
def test_edit_distance_known_values(a, b, expected):
    assert edit_distance(a, b) == expected


def test_edit_distance_exhaustive_short_strings():
    alphabet = "xyz"
    strings = [""] + ["".join(p) for n in range(1, 4)
                      for p in itertools.product(alphabet, repeat=n)]
    for a in strings:
        for b in strings:
            assert edit_distance(a, b) == reference_edit_distance(a, b)


def test_edit_distance_works_on_token_tuples():
    a = [(60,), (64, 67), (72,)]
    b = [(60,), (64,), (72,)]
    assert edit_distance(a, b) == 1


@given(st.text(alphabet="abc", max_size=8), st.text(alphabet="abc", max_size=8))
def test_edit_distance_matches_reference(a, b):
    assert edit_distance(a, b) == reference_edit_distance(a, b)


@given(st.text(alphabet="abc", max_size=8), st.text(alphabet="abc", max_size=8))
def test_edit_distance_symmetric_and_bounded(a, b):
    d = edit_distance(a, b)
    assert d == edit_distance(b, a)
    assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))
    assert (d == 0) == (a == b)


@given(st.text(alphabet="ab", max_size=6), st.text(alphabet="ab", max_size=6),
       st.text(alphabet="ab", max_size=6))
def test_edit_distance_triangle_inequality(a, b, c):
    assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)


def test_alignment_accuracy_exact_fractions():
    gt = list("abcd")
    assert alignment_accuracy(gt, gt).value == Fraction(1)
    assert alignment_accuracy(gt, gt + list("wxyz")).value == Fraction(1, 2)
    assert alignment_accuracy(gt, []).value == Fraction(0)


def test_alignment_accuracy_both_empty():
    score = alignment_accuracy([], [])
    assert score.value == Fraction(1)
    assert score.edit_distance == 0


def test_alignment_accuracy_junk_suffix_law():
    gt = list("abcd")
    for k in (0, 4, 36):
        pred = gt + [("junk", i) for i in range(k)]
        assert alignment_accuracy(gt, pred).value == 1 - Fraction(k, 4 + k)


def test_alignment_accuracy_records_lengths():
    score = alignment_accuracy(list("ab"), list("abc"))
    assert (score.len_gt, score.len_pred, score.edit_distance) == (2, 3, 1)


def test_default_weights():
    weights = MetricWeights()
    assert (weights.pitch, weights.duration, weights.format) == \
        (Fraction(1, 2), Fraction(3, 10), Fraction(1, 5))


def test_weights_parse_decimal_strings_exactly():
    weights = MetricWeights.parse("0.5,0.3,0.2")
    assert weights == MetricWeights()
    assert MetricWeights.parse("1/2, 3/10, 1/5") == MetricWeights()


@pytest.mark.parametrize("text", ["0.5,0.5", "0.5,0.4,0.2", "a,b,c",
                                  "0.5,0.3,0.2,0", "-0.1,0.9,0.2",
                                  "\u0660.\u0665,0.3,0.2", "0.5,0.3,0.2_0",
                                  "0.5,0.3,0.\uff12"])
def test_weights_rejects_bad_input(text):
    with pytest.raises(ConfigError):
        MetricWeights.parse(text)


def test_weights_without_duration_renormalizes():
    reduced = MetricWeights().without_duration()
    assert reduced.duration == 0
    assert reduced.pitch == Fraction(5, 7)
    assert reduced.format == Fraction(2, 7)
    assert reduced.pitch + reduced.format == 1


def test_hybrid_score_exact():
    assert hybrid_score(Fraction(1), Fraction(1), True) == 1
    assert hybrid_score(Fraction(0), Fraction(0), False) == 0
    assert hybrid_score(Fraction(1, 2), Fraction(1), False) == \
        Fraction(1, 4) + Fraction(3, 10)


def test_hybrid_score_without_duration_stream():
    assert hybrid_score(Fraction(1), None, True) == 1
    assert hybrid_score(Fraction(1), None, False) == Fraction(5, 7)
    assert hybrid_score(Fraction(0), None, True) == Fraction(2, 7)


@given(st.fractions(min_value=0, max_value=1),
       st.fractions(min_value=0, max_value=1), st.booleans())
def test_hybrid_score_stays_in_unit_interval(p, d, legal):
    value = hybrid_score(p, d, legal)
    assert 0 <= value <= 1


# --- The bit-vector alignment against the DP, at and across the 64-bit
# word boundaries, on the token types the scorers align.

_LENGTHS = (0, 1, 63, 64, 65, 200)


def _tuple_tokens(rng, n, alphabet):
    return [tuple(sorted(rng.sample(range(60, 60 + alphabet),
                                    rng.randint(1, 2))))
            for _ in range(n)]


def _fraction_tokens(rng, n, alphabet):
    return [Fraction(rng.randint(1, alphabet), rng.choice((1, 2, 4, 3)))
            for _ in range(n)]


@pytest.mark.parametrize("make", [_tuple_tokens, _fraction_tokens],
                         ids=["tuples", "fractions"])
@pytest.mark.parametrize("n,m", list(itertools.product(_LENGTHS, _LENGTHS)))
def test_edit_distance_matches_the_dp(make, n, m):
    rng = random.Random(f"{n}x{m}")
    for alphabet in (2, 6, 30):
        a, b = make(rng, n, alphabet), make(rng, m, alphabet)
        expected = dp_edit_distance(a, b)
        assert edit_distance(a, b) == expected
        assert edit_distance(b, a) == expected


def test_edit_distance_matches_the_dp_past_255_distinct_tokens():
    # The masks are built for 255 distinct tokens of the shorter
    # sequence at a time; equal tokens may be distinct objects.
    rng = random.Random(300)
    short = [Fraction(k, 3) for k in rng.sample(range(1_000), 300)]
    long = [Fraction(rng.choice(short)) if rng.random() < 0.7
            else Fraction(rng.randrange(1_000, 1_100)) for _ in range(450)]
    expected = dp_edit_distance(short, long)
    assert edit_distance(short, long) == edit_distance(long, short) == expected


def test_edit_distance_on_characters_built_per_access():
    # Indexing a str of non-Latin-1 characters builds a new object each
    # time, so no token's identity outlives one pass over the sequence.
    a, b = "αβγδ" * 40, "γαβ" * 70
    assert edit_distance(a, b) == dp_edit_distance(a, b)


@pytest.mark.parametrize("n,m", [(1, 2_000), (3, 700), (65, 1_000),
                                 (200, 3)])
def test_edit_distance_matches_the_dp_on_very_unequal_lengths(n, m):
    rng = random.Random(n * m)
    a = _tuple_tokens(rng, n, 4)
    # A repeated fragment of ``a`` and noise, as a degenerate output.
    b = (a * (m // n + 1))[:m]
    for i in rng.sample(range(m), m // 10):
        b[i] = _tuple_tokens(rng, 1, 8)[0]
    assert edit_distance(a, b) == edit_distance(b, a) == dp_edit_distance(a, b)


def test_edit_distance_on_200_by_20000_tokens_is_fast():
    rng = random.Random(11)
    a = _tuple_tokens(rng, 200, 12)
    b = _tuple_tokens(rng, 20_000, 12)
    start = time.perf_counter()
    distance = edit_distance(a, b)
    elapsed = time.perf_counter() - start
    assert 19_800 <= distance <= 20_000
    assert elapsed < 1.0, f"edit_distance took {elapsed:.2f} s"


def test_edit_distance_on_8_by_1000000_tokens_is_fast():
    # The masks of the longer sequence are built in linear time: one
    # mask per token, set bit by bit, would take quadratic time here.
    rng = random.Random(12)
    a = [rng.randrange(16) for _ in range(8)]
    b = [rng.randrange(16) for _ in range(1_000_000)]
    start = time.perf_counter()
    distance = edit_distance(a, b)
    elapsed = time.perf_counter() - start
    assert 999_992 <= distance <= 1_000_000
    assert elapsed < 1.0, f"edit_distance took {elapsed:.2f} s"


@pytest.mark.parametrize("weights", [
    (0.5, 0.3, 0.2), (True, False, False), (Fraction(1, 2), 0.5, 0)])
def test_weights_must_be_exact_numbers(weights):
    with pytest.raises(ConfigError, match="must be an int or a Fraction"):
        MetricWeights(*weights)
