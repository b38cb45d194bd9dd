"""The CLI's exit-code contract under corrupted input files: every run ends
with exit 0, 1 or 2 and never raises, and exit 2 prints exactly one
``error:`` line. Canonical stream, space, precirculation and diagram files
are cut short or have bytes deleted, inserted or replaced (non-ASCII bytes
included), then read by the commands that take them."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from finstream import directed_circle, directed_interval
from finstream.cli import main
from finstream.formats import (
    canonical_dumps,
    serialize_precirculation,
    serialize_space,
    serialize_stream,
)
from finstream.models import pathology_fixture

INTERVAL = directed_interval(2)
ENDPOINTS = {p: ("v0" if p == "v2" else p) for p in INTERVAL.space.points}
DIAGRAM = {
    "objects": {"a": serialize_stream(directed_interval(1))},
    "arrows": {"a1": {"source": "a", "target": "a", "map": {"e1": "e1", "v0": "v0", "v1": "v1"}}},
}
CANONICAL = {
    "stream": canonical_dumps(serialize_stream(INTERVAL)),
    "space": canonical_dumps(serialize_space(directed_circle(2).space)),
    "precirculation": canonical_dumps(serialize_precirculation(pathology_fixture().pulled)),
    "diagram": canonical_dumps(DIAGRAM),
}

# (file mutated, command line with BAD for the mutated file; STREAM and SPACE
# name unmutated companions)
CASES = [
    ("stream", ["check", "--input", "BAD"]),
    ("precirculation", ["check", "--input", "BAD"]),
    ("space", ["check", "--input", "BAD"]),
    ("stream", ["query", "--input", "BAD", "--open", "global", "v0", "v2", "--witness"]),
    ("stream", ["query", "--input", "BAD", "--open", "e1,v0,v1", "v0", "e1"]),
    ("stream", ["export", "--input", "BAD", "--fmt", "json"]),
    ("stream", ["export", "--input", "BAD", "--fmt", "dot"]),
    ("diagram", ["combine", "limit", "--diagram", "BAD"]),
    ("diagram", ["combine", "colimit", "--diagram", "BAD"]),
    ("stream", ["combine", "pushforward", "--input", "BAD", "--space", "SPACE", "--map", json.dumps(ENDPOINTS)]),
    ("space", ["combine", "pushforward", "--input", "STREAM", "--space", "BAD", "--map", json.dumps(ENDPOINTS)]),
]

position = st.integers(min_value=0, max_value=1 << 16)
# Any byte, or one that keeps a string or name well formed more often, so
# that parsing gets past the JSON layer into the semantic checks.
byte = st.one_of(st.integers(0, 255), st.sampled_from(b'01ev(),"'))
edit = st.one_of(
    st.tuples(st.just("truncate"), position, st.just(0)),
    st.tuples(st.just("delete"), position, st.just(0)),
    st.tuples(st.just("insert"), position, byte),
    st.tuples(st.just("replace"), position, byte),
)


def mutate(data: bytes, edits) -> bytes:
    for kind, at, value in edits:
        at %= len(data) + 1
        if kind == "truncate":
            data = data[:at]
        elif kind == "delete":
            data = data[:at] + data[at + 1:]
        elif kind == "insert":
            data = data[:at] + bytes([value]) + data[at:]
        else:
            data = data[:at] + bytes([value]) + data[at + 1:]
    return data


@settings(derandomize=True, deadline=None, max_examples=300)
@given(case=st.sampled_from(CASES), edits=st.lists(edit, min_size=1, max_size=3))
def test_corrupted_files_keep_exit_code_contract(case, edits):
    kind, template = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp) / f"{name}.json" for name in ("BAD", "STREAM", "SPACE")}
        paths["BAD"].write_bytes(mutate(CANONICAL[kind].encode("utf-8"), edits))
        paths["STREAM"].write_text(CANONICAL["stream"], encoding="utf-8")
        paths["SPACE"].write_text(CANONICAL["space"], encoding="utf-8")
        argv = [str(paths[word]) if word in paths else word for word in template]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
