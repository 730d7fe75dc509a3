"""Every performance record at the repository root is complete.

A performance change appends a `BENCH_<date>.json` with its before/after
medians and its 10-seed `a_end` means, so a speed-up that changes results
cannot hide; this checks that each record parses and carries those parts.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
REQUIRED = {"date", "change", "environment", "end_to_end", "tier1", "a_end_means"}


def test_records_exist():
    assert RECORDS, f"no BENCH_*.json under {ROOT}"


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_parses_and_is_complete(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(record, dict)
    assert REQUIRED <= record.keys(), f"missing {sorted(REQUIRED - record.keys())}"
