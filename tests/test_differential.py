"""The parsers' verdicts on the seeded documents of ``differential.py``
are pinned in ``tests/data/differential.json``: a change to any of them,
an error's rule id, message, line or column included, fails here and is
named by document. A change that means to alter a verdict rewrites the
file (see ``differential.py``) and says which documents changed. The
documents raise every rule id the parsers name."""

import ast
import json
import re
from pathlib import Path

import pytest

from differential import (PINNED_COUNT, PINNED_SEEDS, digest, group_digests,
                          verdicts)

PINNED = json.loads(
    (Path(__file__).parent / "data" / "differential.json").read_text())
SRC = Path(__file__).resolve().parents[1] / "src"
_RULE_ID = re.compile(r"(abc|jianpu|tab)\.[a-z_]+")


@pytest.fixture(scope="module")
def pinned_verdicts():
    """The number, format, layout and verdict of each pinned document,
    by seed."""
    return {seed: list(verdicts(seed, PINNED_COUNT)) for seed in PINNED_SEEDS}


def _first_change(docs, group: str, old: str, new: str) -> str:
    """The first document of ``group`` whose two check digits went from
    those in ``old`` to those in ``new``."""
    numbers = [n for n, fmt, layout, _ in docs if f"{fmt} {layout}" == group]
    return next((f"document {n}" for k, n in enumerate(numbers)
                 if old[2 * k:2 * k + 2] != new[2 * k:2 * k + 2]),
                "a document whose check digits still agree")


@pytest.mark.parametrize("seed", PINNED_SEEDS)
def test_parser_verdicts_match_the_pinned_digests(seed, pinned_verdicts):
    pinned = PINNED[str(seed)]
    docs = [(n, fmt, layout, digest(verdict))
            for n, fmt, layout, verdict in pinned_verdicts[seed]]
    now = group_digests(docs)
    assert sorted(now) == sorted(pinned), "the format and layout groups moved"
    for group, digests in now.items():
        if digests != pinned[group]:
            where = _first_change(docs, group, pinned[group]["check"],
                                  digests["check"])
            pytest.fail(f"seed {seed}, {group}: the verdict on {where} "
                        "changed")


def test_every_rule_id_in_the_source_occurs_in_the_pinned_verdicts(
        pinned_verdicts):
    named = {node.value for path in SRC.rglob("*.py")
             for node in ast.walk(ast.parse(path.read_text("utf-8")))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and _RULE_ID.fullmatch(node.value)}
    assert {"abc.parse", "jianpu.parse", "tab.parse"} <= named
    raised = {violation.rule_id for docs in pinned_verdicts.values()
              for *_, verdict in docs for violation in verdict.violations}
    assert sorted(named - raised) == []
