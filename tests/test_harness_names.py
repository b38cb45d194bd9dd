"""The benchmark's shared module binds library names when it is imported
(the caches it clears, the uncached open enumeration) and rebuilds streams
through the library's constructors. A cleanup that drops or reshapes one of
them breaks every benchmark run, so each must still work."""

import importlib.util
import sys
from pathlib import Path

from finstream import directed_interval

COMMON = Path(__file__).resolve().parents[1] / "perfbench" / "common.py"


def _common():
    spec = importlib.util.spec_from_file_location("perfbench_common", COMMON)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up
    spec.loader.exec_module(module)
    return module


common = _common()


def test_cleared_caches_have_cache_clear():
    assert common._CACHES
    for fn in common._CACHES:
        assert callable(getattr(fn, "cache_clear", None)), fn


def test_uncached_open_enumeration_is_callable():
    assert callable(common._ALL_OPENS)
    assert common.count_opens(directed_interval(2).space) == len(
        common._ALL_OPENS(directed_interval(2).space, None)
    )


def test_fresh_stream_constructs():
    stream = directed_interval(2)
    fresh = common.fresh_stream(stream)
    assert fresh == stream and fresh.circ is not stream.circ
