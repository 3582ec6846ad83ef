"""Every committed BENCH_*.json record at the repository root parses and says
what it measured, how, on which machine, and what the end-to-end metrics did."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
REQUIRED = ("what", "how", "machine", "end_to_end")


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_parses_and_carries_the_required_keys(path):
    record = json.loads(path.read_text())
    assert isinstance(record, dict)
    assert [key for key in REQUIRED if key not in record] == []
