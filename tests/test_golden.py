"""The benchmark's golden answers, checked in the test suite: a shortcut that
changes any gluing_check answer fails here, not only in the benchmark.

The workload is imported from ``perfbench/`` and run read-only; its answers
are compared with the committed ``perfbench/golden/gluing_check.json``."""

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
