"""Regenerate the golden answers from the library in src/.

    python3 perfbench/make_golden.py [workload ...]

The answers are the outputs of the code at the time of writing, so run this
only when a change is meant to alter outputs (and say so when it lands).
"""

from __future__ import annotations

import importlib
import json
import sys

import run


def main(names) -> int:
    run.import_library()
    for name in names or run.WORKLOADS:
        workload = importlib.import_module(name).Workload(run.ROOT, 0, None)
        workload.setup()
        try:
            golden = workload.make_golden()
        finally:
            workload.teardown()
        path = run.BENCH / "golden" / f"{name}.json"
        path.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{path.name}: {len(golden)} entries")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
