"""The benchmark's golden answers, checked in the test suite: a shortcut that
changes any gluing_check or query_mix answer fails here, not only in the
benchmark.

The workloads are imported from ``perfbench/`` and run read-only; their
answers are compared with the committed ``perfbench/golden/*.json``. The
query_mix workload writes its streams under a temporary root."""

import json
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_gluing_check_answers_match_golden(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import gluing_check

    workload = gluing_check.Workload(None, 0, None)
    workload.setup()
    expected = json.loads((PERFBENCH / "golden" / "gluing_check.json").read_text(encoding="utf-8"))
    assert workload.make_golden() == expected


def test_query_mix_answers_match_golden(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import query_mix

    workload = query_mix.Workload(tmp_path, 0, None)
    workload.setup()
    try:
        golden = workload.make_golden()
    finally:
        workload.teardown()
    expected = json.loads((PERFBENCH / "golden" / "query_mix.json").read_text(encoding="utf-8"))
    assert golden == expected
