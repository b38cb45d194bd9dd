"""The README's library tour runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks, "README has no python block"
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert not namespace["fs"].is_circulation(namespace["pc"]).ok
    assert namespace["fs"].is_circulation(namespace["fixed"].as_precirculation()).ok
