"""Scoring time grows linearly with the length of a degenerate
prediction, the usual hostile input: a melody repeated over and over;
and with the length of one as long in which no measure repeats."""

import statistics

import pytest

from degenerate import FORMATS, best_times, nonrepeating_prediction, timings


@pytest.mark.parametrize("fmt", FORMATS)
def test_five_times_the_text_takes_at_most_six_times_as_long(fmt):
    short, long = best_times(fmt, (20_000, 100_000))
    assert long <= 6 * short, (
        f"{fmt}: 20 KB in {short * 1000:.1f} ms, "
        f"100 KB in {long * 1000:.1f} ms")


@pytest.mark.parametrize("fmt", FORMATS)
def test_five_times_a_nonrepeating_text_takes_at_most_six_times_as_long(fmt):
    # The median of the rounds' own ratios, not the ratio of the best
    # times: on a shared machine a slow spell can outlast a best-of run,
    # and best-of ratios from 4 to 7 were read on unchanged jianpu code;
    # each round times the two sizes back to back.
    rounds = timings(fmt, (20_000, 100_000), 7, nonrepeating_prediction)
    ratio = statistics.median(long / short for short, long in rounds)
    assert ratio <= 6, f"{fmt}: 100 KB takes {ratio:.2f} times 20 KB"
