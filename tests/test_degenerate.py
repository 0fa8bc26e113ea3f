"""Scoring time grows linearly with the length of a degenerate
prediction, the usual hostile input: a melody repeated over and over."""

import pytest

from degenerate import FORMATS, best_times


@pytest.mark.parametrize("fmt", FORMATS)
def test_five_times_the_text_takes_at_most_six_times_as_long(fmt):
    short, long = best_times(fmt, (20_000, 100_000))
    assert long <= 6 * short, (
        f"{fmt}: 20 KB in {short * 1000:.1f} ms, "
        f"100 KB in {long * 1000:.1f} ms")
