"""Scoring time grows linearly with the length of a degenerate
prediction, the usual hostile input: a melody repeated over and over,
one copy to a line, all on one line, or one copy to two lines broken
inside a measure; and with the length of one as long in which no
measure repeats."""

import statistics

import pytest

from degenerate import (FORMATS, LINES, degenerate_prediction,
                        nonrepeating_prediction, one_line_prediction,
                        parse_peak, straddling_prediction, timings)


@pytest.mark.parametrize("prediction, fmt", [
    *(pytest.param(degenerate_prediction, fmt, id=fmt) for fmt in FORMATS),
    *(pytest.param(one_line_prediction, fmt, id=f"oneline-{fmt}")
      for fmt in LINES),
    *(pytest.param(straddling_prediction, fmt, id=f"straddle-{fmt}")
      for fmt in LINES),
    *(pytest.param(nonrepeating_prediction, fmt, id=f"nonrepeating-{fmt}")
      for fmt in FORMATS),
])
def test_five_times_the_text_takes_at_most_six_times_as_long(prediction,
                                                             fmt):
    # The median of the rounds' own ratios, not the ratio of the best
    # times: on a shared machine a slow spell can outlast a best-of run,
    # and best-of ratios from 4 to 7 were read on unchanged code; each
    # round times the two sizes back to back.
    rounds = timings(fmt, (20_000, 100_000), 7, prediction)
    ratio = statistics.median(long / short for short, long in rounds)
    assert ratio <= 6, f"{fmt}: 100 KB takes {ratio:.2f} times 20 KB"


def _chord_prediction(closed: bool):
    """Staff with one chord of at least ``size`` characters, closed or not."""
    def prediction(fmt: str, size: int) -> str:
        return ("X:1\nM:4/4\nL:1/4\nK:C\n[" + "CDEF" * (size // 4)
                + ("]|\n" if closed else "|\n"))
    return prediction


@pytest.mark.parametrize("closed", [True, False],
                         ids=["chord", "unterminated-chord"])
def test_a_chord_five_times_longer_takes_at_most_six_times_as_long(closed):
    rounds = timings("staff", (20_000, 100_000), 7, _chord_prediction(closed))
    ratio = statistics.median(long / short for short, long in rounds)
    assert ratio <= 6, f"a 100 KB chord takes {ratio:.2f} times a 20 KB one"


# The ``tracemalloc`` peak of parsing a long staff or jianpu prediction
# in which no measure repeats, in bytes per byte of text: a measure
# holds the sounds its parser resolved once, about 10 bytes per byte.
PEAK_BYTES_PER_TEXT_BYTE = 12


@pytest.mark.parametrize("fmt", LINES)
def test_parsing_holds_a_few_bytes_per_byte_of_text(fmt):
    text = nonrepeating_prediction(fmt, 200_000)
    peak = parse_peak(fmt, text)
    assert peak <= PEAK_BYTES_PER_TEXT_BYTE * len(text), (
        f"{fmt}: a peak of {peak / len(text):.1f} bytes per byte of text")
