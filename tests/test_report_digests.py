"""The report bytes of every benchmark workload are pinned.

Each workload of ``bench/workloads.py`` is built at each of
``PINNED_SEEDS`` and graded in-process by ``notegrade batch --csv``;
the SHA-256 of the JSON report and of the CSV must match
``tests/data/report_digests.json``. A report does not depend on the
directory it is built in, so the digests hold on any checkout;
``tests/test_golden.py`` checks that they hold on the other installed
interpreters and hash seeds too. A change that means to alter a report
rewrites that file and says which samples changed:

    PYTHONPATH=src python3 tests/test_report_digests.py pin \\
        > tests/data/report_digests.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from notegrade import cli  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

PINNED_SEEDS = (1, 2)
PINNED = Path(__file__).parent / "data" / "report_digests.json"


def report_digests(name: str, seed: int, root: Path) -> dict[str, str]:
    """The SHA-256 of the JSON and CSV reports of workload ``name`` at
    ``seed``, built and graded under ``root``."""
    workload = build(name, seed, root / "in")
    report, csv = root / "report.json", root / "report.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["batch", "--manifest", str(workload.manifest),
                         "--out", str(report), "--csv", str(csv)])
    assert code == 0, f"{name} seed {seed}: batch exited {code}"
    return {"json": hashlib.sha256(report.read_bytes()).hexdigest(),
            "csv": hashlib.sha256(csv.read_bytes()).hexdigest()}


def pytest_generate_tests(metafunc):
    """Each workload at each pinned seed. A hook, not a mark, so that
    ``pin`` runs where pytest is not installed."""
    metafunc.parametrize("name", WORKLOADS)
    metafunc.parametrize("seed", PINNED_SEEDS)


def test_report_bytes_match_the_pinned_digests(name, seed, tmp_path):
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    assert report_digests(name, seed, tmp_path) == pinned[name][str(seed)], (
        f"{name} seed {seed}: the report bytes changed")


def main(argv: list[str]) -> None:
    if argv[1:] != ["pin"]:
        sys.exit("usage: tests/test_report_digests.py pin")
    pinned = {}
    for name in WORKLOADS:
        pinned[name] = {}
        for seed in PINNED_SEEDS:
            with tempfile.TemporaryDirectory() as root:
                pinned[name][str(seed)] = report_digests(name, seed,
                                                         Path(root))
    print(json.dumps(pinned, indent=1, sort_keys=True))


if __name__ == "__main__":
    main(sys.argv)
