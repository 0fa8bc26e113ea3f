"""The parsers' verdicts on the seeded documents of ``differential.py``
are pinned in ``tests/data/differential.json``: a change to any of them,
an error's rule id, message, line or column included, fails here and is
named by document. A change that means to alter a verdict rewrites the
file (see ``differential.py``) and says which documents changed."""

import json
from pathlib import Path

import pytest

from differential import PINNED_COUNT, PINNED_SEEDS, documents, group_digests

PINNED = json.loads(
    (Path(__file__).parent / "data" / "differential.json").read_text())


def _first_change(seed: int, group: str, old: str, new: str) -> str:
    """The first document of ``group`` whose two check digits went from
    those in ``old`` to those in ``new``."""
    numbers = [n for n, fmt, layout, _ in documents(seed, PINNED_COUNT)
               if f"{fmt} {layout}" == group]
    return next((f"document {n}" for k, n in enumerate(numbers)
                 if old[2 * k:2 * k + 2] != new[2 * k:2 * k + 2]),
                "a document whose check digits still agree")


@pytest.mark.parametrize("seed", PINNED_SEEDS)
def test_parser_verdicts_match_the_pinned_digests(seed):
    pinned = PINNED[str(seed)]
    now = group_digests(seed, PINNED_COUNT)
    assert sorted(now) == sorted(pinned), "the format and layout groups moved"
    for group, digests in now.items():
        if digests != pinned[group]:
            where = _first_change(seed, group, pinned[group]["check"],
                                  digests["check"])
            pytest.fail(f"seed {seed}, {group}: the verdict on {where} "
                        "changed")
