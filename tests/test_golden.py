"""Byte-identical CLI reports on a frozen corpus.

``tests/golden/<workload>.json`` holds one request per stratum of each
benchmark workload at seed 1 (argv, exit status, stdout), recorded from the
Fraction-coordinate kernel.  Any change to the scalar representation or the
analysis code must reproduce them exactly.
"""
import contextlib
import io
import json
from pathlib import Path

import pytest

from rigidmono import cli

GOLDEN = Path(__file__).parent / "golden"
CASES = [(path.stem, i, case)
         for path in sorted(GOLDEN.glob("*.json"))
         for i, case in enumerate(json.loads(path.read_text()))]


def test_golden_corpus_present():
    assert {name for name, _, _ in CASES} == {"pipeline-cyclo", "tuples-rational",
                                               "tori-calculus"}
    assert len(CASES) == 48


@pytest.mark.parametrize("name,index,case", CASES,
                         ids=[f"{name}-{i}" for name, i, _ in CASES])
def test_golden_report(name, index, case):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(case["argv"])
    assert status == case["status"]
    assert buf.getvalue() == case["stdout"]
