import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from finstream import (
    check_connected_intervals,
    directed_circle,
    directed_interval,
    directed_square,
    is_circulation,
    point_stream,
    trivial_stream,
    tuple_point,
)
from finstream import cli
from finstream.cli import COMBINE, COMMANDS, main, make_parser
from finstream.errors import StreamError
from finstream.formats import (
    STREAM_FORMAT,
    canonical_dumps,
    load,
    parse_stream,
    serialize_precirculation,
    serialize_space,
    serialize_stream,
)
from finstream.models import pathology_fixture
from finstream.spaces import all_opens, space_from_min_opens

from conftest import model_streams, query_oracle


def write(path, obj):
    path.write_text(canonical_dumps(obj), encoding="utf-8")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBuild:
    def test_builder_circle(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        out = tmp_path / "circle.json"
        spec.write_text(json.dumps({"builder": "directed_circle", "args": {"n": 2}}))
        code, _, _ = run(capsys, "build", "--input", str(spec), "--output", str(out))
        assert code == 0
        assert load(str(out)) == directed_circle(2)

    def test_explicit_sierpinski(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        out = tmp_path / "s.json"
        spec.write_text(
            json.dumps(
                {
                    "points": ["a", "b"],
                    "min_open": {"a": ["a", "b"], "b": ["b"]},
                    "gen": {
                        "a": [["a", "a"], ["a", "b"], ["b", "b"]],
                        "b": [["b", "b"]],
                    },
                }
            )
        )
        code, _, _ = run(capsys, "build", "--input", str(spec), "--output", str(out))
        assert code == 0
        stream = load(str(out))
        assert stream.underlying().has("a", "b")

    def test_malformed_min_open_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "points": ["a", "b", "c"],
                    "min_open": {"a": ["a", "b"], "b": ["b", "c"], "c": ["c"]},
                    "gen": {"a": [], "b": [], "c": []},
                }
            )
        )
        code, _, err = run(capsys, "build", "--input", str(spec))
        assert code == 2
        assert "min_open" in err

    def test_parse_error_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text("{not json")
        code, _, err = run(capsys, "build", "--input", str(spec))
        assert code == 2
        assert "line" in err

    def test_atlas_build(self, tmp_path, capsys):
        circle = directed_circle(2)
        arc1 = sorted(circle.space.min_open("v0"))
        arc2 = sorted(circle.space.min_open("v1"))
        spec = tmp_path / "atlas.json"
        out = tmp_path / "out.json"
        spec.write_text(
            json.dumps(
                {
                    "atlas": {
                        "space": serialize_space(circle.space),
                        "charts": [
                            {
                                "points": arc1,
                                "order": [list(p) for p in circle.value(arc1).pairs()],
                            },
                            {
                                "points": arc2,
                                "order": [list(p) for p in circle.value(arc2).pairs()],
                            },
                        ],
                    }
                }
            )
        )
        code, _, _ = run(capsys, "build", "--input", str(spec), "--output", str(out))
        assert code == 0
        assert load(str(out)) == circle


class TestCheck:
    def circle_file(self, tmp_path):
        path = tmp_path / "circle.json"
        write(path, serialize_stream(directed_circle(2)))
        return path

    def test_all_pass(self, tmp_path, capsys):
        path = self.circle_file(tmp_path)
        code, out, _ = run(capsys, "check", "--input", str(path), "--which", "circulation")
        assert code == 0
        report = json.loads(out)
        assert report["ok"]

    def test_antisymmetry_fails_on_circle(self, tmp_path, capsys):
        path = self.circle_file(tmp_path)
        code, out, _ = run(capsys, "check", "--input", str(path), "--which", "antisymmetry")
        assert code == 1
        assert not json.loads(out)["ok"]

    def test_pathology_precirculation_fails_with_witness(self, tmp_path, capsys):
        path = tmp_path / "pulled.json"
        write(path, serialize_precirculation(pathology_fixture().pulled))
        code, out, _ = run(
            capsys, "check", "--input", str(path), "--which", "circulation",
            "--mode", "exhaustive",
        )
        assert code == 1
        report = json.loads(out)
        witness = report["checks"][0]["witness"]
        assert witness["pair"] == [tuple_point("v0", "v0"), tuple_point("v1", "v1")]

    def test_empty_stream_passes_vacuously(self, tmp_path, capsys):
        from finstream import empty_stream

        path = tmp_path / "empty.json"
        write(path, serialize_stream(empty_stream()))
        code, out, _ = run(capsys, "check", "--input", str(path), "--which", "all")
        assert code == 0

    def test_stream_gluing_checks_enumerate_no_opens(self, tmp_path, capsys, monkeypatch):
        def no_enumeration(*args, **kwargs):
            raise AssertionError("open lattice enumerated")

        path = tmp_path / "i14.json"
        write(path, serialize_stream(directed_interval(14)))
        monkeypatch.setattr("finstream.circulation.all_opens", no_enumeration)
        code, out, _ = run(capsys, "check", "--input", str(path), "--which", "circulation")
        assert code == 0 and json.loads(out)["ok"]
        code, out, _ = run(capsys, "combine", "join", "--input", str(path))
        assert code == 0 and parse_stream(json.loads(out)) == directed_interval(14)


class TestCheckAgainstScan:
    """A stream's intervals check answers from the theorem; its report is
    the one the scan gives."""

    @staticmethod
    def scanned_report(path, s, which):
        checks = []
        if which == "all":
            ok = is_circulation(s.circ.as_precirculation()).ok
            checks.append({"check": "circulation", "ok": ok, "witness": None})
        ok, pair = check_connected_intervals(s)
        witness = None if pair is None else list(pair)
        checks.append({"check": "intervals", "ok": ok, "witness": witness})
        if which == "all":
            anti = s.underlying().is_antisymmetric()
            checks.append({"check": "antisymmetry", "ok": anti, "witness": None})
        ok = all(c["ok"] for c in checks)
        return canonical_dumps({"input": path, "ok": ok, "checks": checks}), 0 if ok else 1

    def test_reports_match_scan(self, tmp_path, capsys, corpus_streams):
        for k, s in enumerate(corpus_streams + model_streams()):
            path = str(tmp_path / f"s{k}.json")
            write(Path(path), serialize_stream(s))
            for which in ("intervals", "all"):
                expected, expected_code = self.scanned_report(path, s, which)
                code, out, _ = run(capsys, "check", "--input", path, "--which", which)
                assert (out, code) == (expected, expected_code)
                if which == "intervals":
                    assert code == 0

    def test_scan_failure_cannot_be_loaded(self, tmp_path, capsys):
        # The broken circulation the scan fails on (leaving_circulation in
        # test_circulation.py): x's generator relates y to x, off
        # min_open(x). Written by hand: the stream writer lists only the
        # pairs on each minimal open, so it would drop the broken one.
        path = tmp_path / "leaving.json"
        write(path, {
            "format": STREAM_FORMAT,
            "points": ["x", "y"],
            "min_open": {"x": ["x"], "y": ["y"]},
            "gen": {"x": [["x", "x"], ["y", "y"], ["y", "x"]], "y": [["y", "y"]]},
        })
        code, out, err = run(capsys, "check", "--input", str(path), "--which", "intervals")
        assert (code, out) == (2, "")
        assert err == "error: pair ('y', 'y'): 'y' not in carrier\n"


class TestQuery:
    def test_global_loop(self, tmp_path, capsys):
        path = tmp_path / "circle.json"
        write(path, serialize_stream(directed_circle(2)))
        code, out, _ = run(
            capsys, "query", "--input", str(path), "--open", "global", "e1", "e1",
            "--witness",
        )
        assert code == 0
        report = json.loads(out)
        assert report["related"] and report["witness"] == []

    def test_star_orientation(self, tmp_path, capsys):
        path = tmp_path / "circle.json"
        write(path, serialize_stream(directed_circle(2)))
        star = ",".join(sorted(directed_circle(2).space.min_open("v0")))
        code, out, _ = run(capsys, "query", "--input", str(path), "--open", star, "e2", "e1")
        assert code == 0 and json.loads(out)["related"]
        code, out, _ = run(capsys, "query", "--input", str(path), "--open", star, "e1", "e2")
        assert code == 1 and not json.loads(out)["related"]

    def test_witness_chain(self, tmp_path, capsys):
        path = tmp_path / "interval.json"
        write(path, serialize_stream(directed_interval(2)))
        code, out, _ = run(
            capsys, "query", "--input", str(path), "--open", "global", "v0", "v2",
            "--witness",
        )
        assert code == 0
        steps = json.loads(out)["witness"]
        assert steps[0]["from"] == "v0" and steps[-1]["to"] == "v2"

    def test_duplicate_members_reported_once(self, tmp_path, capsys):
        path = tmp_path / "interval.json"
        write(path, serialize_stream(directed_interval(1)))
        code, out, _ = run(capsys, "query", "--input", str(path), "--open", "v0,v0,e1", "v0", "e1")
        assert code == 0
        assert json.loads(out)["open"] == ["e1", "v0"]

    def test_json_open_names_product_points(self, tmp_path, capsys):
        # product points are named "(a,b)": the comma-joined form splits them
        s = directed_square(1, 1)
        path = tmp_path / "square.json"
        write(path, serialize_stream(s))
        for p in s.space.points:
            star = sorted(s.space.min_open(p))
            value = s.value(star)
            for x in s.space.points:
                for y in s.space.points:
                    related = x in value and y in value and value.has(x, y)
                    code, out, _ = run(
                        capsys, "query", "--input", str(path), "--open", json.dumps(star), x, y
                    )
                    assert code == (0 if related else 1)
                    assert json.loads(out) == {"open": star, "x": x, "y": y, "related": related}

    def test_json_open_names_global_and_empty_points(self, tmp_path, capsys):
        for name in ("global", ""):
            path = tmp_path / "point.json"
            write(path, serialize_stream(point_stream(name)))
            where = json.dumps([name])
            code, out, _ = run(capsys, "query", "--input", str(path), "--open", where, name, name)
            assert code == 0 and json.loads(out)["open"] == [name]

    def test_reports_match_preorder_oracle(self, tmp_path, capsys):
        """Every model stream, the global open and a sample of opens (with a
        duplicate member and a set that is not open), with and without a
        witness: same report bytes and exit code as deciding on the open's
        Preorder value; the same error line where that raises."""
        rng = random.Random(7)
        for k, s in enumerate(model_streams()):
            path = tmp_path / f"s{k}.json"
            write(path, serialize_stream(s))
            points = list(s.space.points)
            opens = [s.space.set_of(m) for m in all_opens(s.space)]
            wheres = ["global"] + [",".join(sorted(o)) for o in rng.sample(opens, min(5, len(opens)))]
            if points:
                wheres.append(",".join(points[:1] * 2 + points[-1:]))
                wheres.append(points[0])
            pairs = [(x, y) for x in points for y in points]
            pairs = rng.sample(pairs, min(8, len(pairs))) + [("zz", "zz")]
            for where in wheres:
                for x, y in pairs:
                    for witness in ((), ("--witness",)):
                        try:
                            expected = query_oracle(s, where, x, y, bool(witness))
                        except StreamError as exc:
                            expected = (f"error: {exc}\n", 2)
                        code, out, err = run(
                            capsys, "query", "--input", str(path), "--open", where, *witness, x, y
                        )
                        assert (out or err, code) == expected, (k, where, x, y, witness)


class TestCombine:
    def test_product_then_quotient(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        write(a, serialize_stream(directed_interval(1)))
        prod = tmp_path / "prod.json"
        code, _, _ = run(
            capsys, "combine", "product", "--input", str(a), "--input", str(a),
            "--output", str(prod),
        )
        assert code == 0
        stream = load(str(prod))
        assert stream.space.n == 9

    def test_check_universal_flag_is_gone(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        write(a, serialize_stream(directed_interval(1)))
        with pytest.raises(SystemExit) as caught:
            main(["combine", "join", "--input", str(a), "--check-universal"])
        assert caught.value.code == 2
        assert "unrecognized arguments: --check-universal" in capsys.readouterr().err

    def test_quotient_interval_to_circle(self, tmp_path, capsys):
        a = tmp_path / "i2.json"
        write(a, serialize_stream(directed_interval(2)))
        out = tmp_path / "circle.json"
        code, _, _ = run(
            capsys, "combine", "quotient", "--input", str(a),
            "--partition", json.dumps([["v0", "v2"], ["v1"], ["e1"], ["e2"]]),
            "--output", str(out),
        )
        assert code == 0
        assert load(str(out)) == directed_circle(2)

    def test_substream_error_path(self, tmp_path, capsys):
        a = tmp_path / "i1.json"
        write(a, serialize_stream(directed_interval(1)))
        code, _, err = run(
            capsys, "combine", "substream", "--input", str(a),
            "--points", json.dumps(["v0", "nope"]),
        )
        assert code == 2
        assert "nope" in err

    def test_pushforward(self, tmp_path, capsys):
        a = tmp_path / "i2.json"
        write(a, serialize_stream(directed_interval(2)))
        space_file = tmp_path / "circle_space.json"
        write(space_file, serialize_space(directed_circle(2).space))
        out = tmp_path / "out.json"
        mapping = {"v0": "v0", "v2": "v0", "v1": "v1", "e1": "e1", "e2": "e2"}
        code, _, _ = run(
            capsys, "combine", "pushforward", "--input", str(a),
            "--space", str(space_file), "--map", json.dumps(mapping),
            "--output", str(out),
        )
        assert code == 0
        assert load(str(out)) == directed_circle(2)

    def test_limit_diagram(self, tmp_path, capsys):
        circle = directed_circle(2)
        rot = {"v0": "v1", "v1": "v0", "e1": "e2", "e2": "e1"}
        diagram = tmp_path / "diagram.json"
        diagram.write_text(
            json.dumps(
                {
                    "objects": {
                        "A": serialize_stream(circle),
                        "B": serialize_stream(circle),
                    },
                    "arrows": {
                        "f": {"source": "A", "target": "B", "map": rot},
                        "g": {
                            "source": "A",
                            "target": "B",
                            "map": {p: p for p in circle.space.points},
                        },
                    },
                }
            )
        )
        out = tmp_path / "lim.json"
        code, _, _ = run(
            capsys, "combine", "limit", "--diagram", str(diagram), "--output", str(out)
        )
        assert code == 0
        assert load(str(out)).space.points == ()


class TestExport:
    def test_json_round_trip_bytes(self, tmp_path, capsys):
        path = tmp_path / "circle.json"
        write(path, serialize_stream(directed_circle(2)))
        out = tmp_path / "exported.json"
        code, _, _ = run(
            capsys, "export", "--input", str(path), "--fmt", "json", "--output", str(out)
        )
        assert code == 0
        assert out.read_bytes() == path.read_bytes()

    def test_dot(self, tmp_path, capsys):
        path = tmp_path / "circle.json"
        write(path, serialize_stream(directed_circle(2)))
        code, out, _ = run(capsys, "export", "--input", str(path), "--fmt", "dot")
        assert code == 0
        assert out.startswith("digraph")

    def test_json_output_is_canonical(self, tmp_path, capsys):
        # a compact, unsorted input file is written back in canonical form;
        # an unknown --fmt is test_usage_error_exits_2_with_one_line[bad-fmt]
        obj = serialize_stream(directed_circle(2))
        path = tmp_path / "circle.json"
        path.write_text(json.dumps(dict(reversed(obj.items()))), encoding="utf-8")
        out = tmp_path / "x.json"
        code, _, _ = run(capsys, "export", "--input", str(path), "--fmt", "json", "--output", str(out))
        assert code == 0
        assert out.read_bytes() == canonical_dumps(obj).encode("utf-8")


# A prefix argument that stands for the malformed file itself, for
# operations that read it more than once.
BAD_FILE = "<bad.json>"


def malformed_cases():
    """Inputs that must exit 2 with one error line: a missing or bad builder
    name or argument (a float or a boolean is not an integer), truncated
    diagram JSON, a diagram arrow missing a field, a diagram or atlas of the
    wrong shape, a short generator pair, a precirculation whose ``exact`` is
    not a boolean or that lists an open twice, a stream file that lists a
    point twice, point names, point lists and point maps nested one level
    too deep, JSON nested deeper than the parser's recursion limit, a query
    ``--open`` JSON list that is cut short or holds a non-name, and
    products, limits and colimits whose built point names collide."""
    builders = [
        ("directed_interval", {}), ("directed_circle", {}),
        ("directed_square", {"n": 2}), ("boundary_square", {"m": 2}),
        ("directed_interval", {"n": "x"}), ("directed_interval", {"n": 0}),
        ("directed_circle", {"n": 1}), ("directed_square", {"n": "two", "m": 1}),
        ([], {}), ("point", {"name": []}), ("point", {"name": 5}),
        ("directed_interval", {"n": 1.5}), ("directed_interval", {"n": True}),
    ]
    cases = [
        pytest.param(["build", "--input"], json.dumps({"builder": b, "args": a}), id=f"{b}-{a}")
        for b, a in builders
    ]
    good = {
        "objects": {"a": serialize_stream(directed_interval(1))},
        "arrows": {"a1": {"source": "a", "target": "a", "map": {"e1": "e1", "v0": "v0", "v1": "v1"}}},
    }
    text = json.dumps(good)
    for cut in (1, len(text) // 3, len(text) // 2, len(text) - 1):
        cases.append(pytest.param(["combine", "limit", "--diagram"], text[:cut], id=f"cut{cut}"))
    for field in ("source", "target", "map"):
        broken = json.loads(text)
        del broken["arrows"]["a1"][field]
        cases.append(
            pytest.param(["combine", "colimit", "--diagram"], json.dumps(broken), id=f"no-{field}")
        )
    shapes = {
        "objects-list": {"objects": [], "arrows": {}},
        "arrows-list": {"objects": good["objects"], "arrows": []},
        "object-number": {"objects": {"a": 5}, "arrows": {}},
    }
    for key, diagram in shapes.items():
        cases.append(pytest.param(["combine", "limit", "--diagram"], json.dumps(diagram), id=key))
    space = serialize_space(directed_interval(1).space)
    specs = {
        "atlas-list": {"atlas": []},
        "atlas-no-space": {"atlas": {"charts": []}},
        "chart-no-order": {"atlas": {"space": space, "charts": [{"points": ["e1"]}]}},
        "gen-short-pair": {"points": ["a"], "min_open": {"a": ["a"]}, "gen": {"a": [["a"]]}},
        "charts-number": {"atlas": {"space": space, "charts": 5}},
        "chart-points-nested": {"atlas": {"space": space, "charts": [{"points": [["e1"]], "order": []}]}},
        "points-nested": {"points": [["a"]], "min_open": {"a": ["a"]}, "gen": {"a": []}},
        "min-open-number": {"points": ["a"], "min_open": {"a": 5}, "gen": {"a": []}},
        "min-open-nested": {"points": ["a"], "min_open": {"a": [["a"]]}, "gen": {"a": []}},
    }
    for key, spec in specs.items():
        cases.append(pytest.param(["build", "--input"], json.dumps(spec), id=key))
    precirculation = serialize_precirculation(pathology_fixture().pulled)
    for key, exact in (("exact-string", "false"), ("exact-list", [1])):
        cases.append(
            pytest.param(["check", "--input"], json.dumps({**precirculation, "exact": exact}), id=key)
        )
    listed_twice = {**precirculation, "assign": precirculation["assign"] + precirculation["assign"][-1:]}
    cases.append(pytest.param(["check", "--input"], json.dumps(listed_twice), id="open-listed-twice"))
    precirculation["assign"][0]["open"] = [["e1"]]
    cases.append(pytest.param(["check", "--input"], json.dumps(precirculation), id="open-nested"))
    cases.append(pytest.param(["check", "--input"], "[" * 10_000, id="too-deep"))
    repeated = {**serialize_stream(point_stream("a")), "points": ["a", "a", "b"]}
    repeated["min_open"] = {"a": ["a"], "b": ["b"]}
    repeated["gen"] = {"a": [["a", "a"]], "b": [["b", "b"]]}
    cases.append(pytest.param(["export", "--input"], json.dumps(repeated), id="point-listed-twice"))
    interval = json.dumps(serialize_stream(directed_interval(1)))
    arguments = {
        "partition-number": ["quotient", "--partition", "[5]"],
        "partition-nested": ["quotient", "--partition", '[[["v0"]], ["v1"], ["e1"]]'],
        "substream-points-nested": ["substream", "--points", '[["v0"]]'],
        "partition-too-deep": ["quotient", "--partition", "[" * 10_000],
    }
    for key, argv in arguments.items():
        cases.append(pytest.param(["combine", *argv, "--input"], interval, id=key))
    opens = {"query-open-cut": '["v0"', "query-open-number": "[1]", "query-open-nested": '[["v0"]]'}
    for key, where in opens.items():
        cases.append(pytest.param(["query", "--open", where, "v0", "v0", "--input"], interval, id=key))
    nested_map = json.loads(text)
    nested_map["arrows"]["a1"]["map"]["e1"] = ["e1"]
    cases.append(
        pytest.param(["combine", "limit", "--diagram"], json.dumps(nested_map), id="arrow-map-nested")
    )
    # ("a,a", "a") and ("a", "a,a") are both named "(a,a,a)"
    commas = serialize_stream(trivial_stream(space_from_min_opens(["a", "a,a"], {"a": ["a"], "a,a": ["a,a"]})))
    cases.append(pytest.param(
        ["combine", "product", "--input", BAD_FILE, "--input"], json.dumps(commas), id="product-names-collide"
    ))
    cases.append(pytest.param(
        ["combine", "limit", "--diagram"],
        json.dumps({"objects": {"a": commas, "b": commas}, "arrows": {}}),
        id="limit-names-collide",
    ))
    # object "a" with point "b:c" and object "a:b" with point "c" both give "a:b:c"
    tagged = {"a": serialize_stream(point_stream("b:c")), "a:b": serialize_stream(point_stream("c"))}
    cases.append(pytest.param(
        ["combine", "colimit", "--diagram"], json.dumps({"objects": tagged, "arrows": {}}), id="colimit-names-collide"
    ))
    return cases


@pytest.mark.parametrize("prefix, content", malformed_cases())
def test_malformed_input_exits_2(tmp_path, capsys, prefix, content):
    path = tmp_path / "bad.json"
    path.write_text(content, encoding="utf-8")
    argv = [str(path) if arg == BAD_FILE else arg for arg in prefix]
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def wrong_input_counts():
    """Combine operations given more or fewer --input files than they read."""
    extra = {
        "quotient": ["--partition", "[]"],
        "substream": ["--points", "[]"],
        "pushforward": ["--space", "S", "--map", "{}"],
        "pullback-cosheafify": ["--space", "S", "--map", "{}"],
        "limit": ["--diagram", "D"],
        "colimit": ["--diagram", "D"],
    }
    counts = {
        "product": (0, 1, 3),
        "quotient": (0, 2),
        "substream": (0, 2),
        "pushforward": (0, 2),
        "pullback-cosheafify": (0, 3),
        "limit": (1, 2),
        "colimit": (1,),
        "join": (0,),
    }
    return [
        pytest.param(op, count, extra.get(op, []), id=f"{op}-{count}")
        for op, wrong in counts.items()
        for count in wrong
    ]


@pytest.mark.parametrize("op, count, extra", wrong_input_counts())
def test_wrong_input_count_exits_2(tmp_path, capsys, op, count, extra):
    stream = tmp_path / "i1.json"
    write(stream, serialize_stream(directed_interval(1)))
    diagram = tmp_path / "diagram.json"
    write(diagram, {"objects": {"a": serialize_stream(directed_interval(1))}, "arrows": {}})
    paths = {"S": str(stream), "D": str(diagram)}
    argv = ["combine", op, *[paths.get(a, a) for a in extra]]
    for _ in range(count):
        argv += ["--input", str(stream)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--input" in err


@pytest.mark.parametrize("op, given, needs", [
    pytest.param("quotient", [], "--partition", id="quotient"),
    pytest.param("substream", [], "--points", id="substream"),
    pytest.param("pushforward", [], "--space and --map", id="pushforward"),
    pytest.param("pushforward", ["--space", "S"], "--space and --map", id="pushforward-space"),
    pytest.param("pullback-cosheafify", [], "--space and --map", id="pullback"),
    pytest.param("pullback-cosheafify", ["--map", "{}"], "--space and --map", id="pullback-map"),
    pytest.param("limit", [], "--diagram", id="limit"),
    pytest.param("colimit", [], "--diagram", id="colimit"),
])
def test_missing_combine_option_exits_2(tmp_path, capsys, op, given, needs):
    """An operation run without an option it needs names every option it
    needs on one error line; its --input files are read first."""
    stream = tmp_path / "i1.json"
    write(stream, serialize_stream(directed_interval(1)))
    argv = ["combine", op, *[str(stream) if arg == "S" else arg for arg in given]]
    if COMBINE[op][0]:
        code, _, err = run(capsys, *argv, "--input", str(tmp_path / "none.json"))
        assert code == 2 and "none.json" in err
        argv += ["--input", str(stream)]
    assert run(capsys, *argv) == (2, "", f"error: {op} needs {needs}\n")


@pytest.mark.parametrize("argv", [
    pytest.param(["combine", "join", "--input", "<in>", "--bogus"], id="unknown-option"),
    pytest.param([], id="missing-command"),
    pytest.param(["export"], id="missing-input"),
    pytest.param(["export", "--input", "<in>", "--fmt", "svg"], id="bad-fmt"),
    pytest.param(["check", "--input", "<in>", "--which", "cycles"], id="bad-which"),
])
def test_usage_error_exits_2_with_one_line(tmp_path, capsys, argv):
    stream = tmp_path / "i1.json"
    write(stream, serialize_stream(directed_interval(1)))
    with pytest.raises(SystemExit) as caught:
        main([str(stream) if arg == "<in>" else arg for arg in argv])
    assert caught.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


HELP = Path(__file__).resolve().parent / "help"


def test_help_is_unchanged(monkeypatch, capsys):
    """The help text of the root and of each command, at 80 columns, as the
    parser with every subparser built printed it; tests/help holds one file
    for each."""
    monkeypatch.setenv("COLUMNS", "80")
    for command in (None, "build", "check", "query", "combine", "export"):
        with pytest.raises(SystemExit) as caught:
            main(["--help"] if command is None else [command, "--help"])
        assert caught.value.code == 0
        captured = capsys.readouterr()
        expected = (HELP / f"{command or 'root'}.txt").read_text(encoding="utf-8")
        assert (captured.out, captured.err) == (expected, "")


PARSED = [
    ["build", "--input", "s.json"],
    ["build", "--input=s.json", "--output", "o.json"],
    ["build", "--input", "a.json", "--input", "b.json", "--output=x", "--output", "y"],
    ["check", "--input", "s.json"],
    ["check", "--input", "s.json", "--which", "intervals", "--mode", "exhaustive"],
    ["check", "--which=antisymmetry", "--which", "circulation", "--input", "s.json"],
    ["query", "--input", "s.json", "--open", "global", "v0", "v1"],
    ["query", "v0", "--open=v0,e1", "e1", "--witness", "--input=s.json", "--output", "o"],
    ["query", "--input", "s.json", "--open", "a", "--open", "b", "x", "y", "--witness", "--witness"],
    ["export", "--input", "s.json"],
    ["export", "--input", "s.json", "--fmt", "dot", "--output", "s.dot"],
    ["export", "--fmt=dot", "--fmt", "json", "--input", "s.json"],
    ["combine", "join", "--input=a.json", "--input", "b.json", "--input", "c.json"],
    ["combine", "product", "--output", "x", "--output=y"],
    ["combine", "quotient", "--input", "a", "--partition", '[["v0","v1"]]', "--partition=[]"],
    ["combine", "substream", "--input", "a", "--points", '["v0"]'],
    ["combine", "pushforward", "--input", "a", "--space", "t.json", "--map", '{"v0":"v0"}'],
    ["combine", "pullback-cosheafify", "--input", "a", "--space=s", "--map={}"],
    ["combine", "limit", "--diagram", "d.json"],
    ["combine", "colimit", "--diagram=d.json", "--diagram", "e.json"],
] + [["combine", op] for op in COMBINE]

EXITS = [
    [],
    ["bogus"],
    ["--bogus"],
    ["--input", "s.json"],
    ["combine"],
    ["combine", "nope"],
    ["combine", "join", "--input", "s.json", "--bogus"],
    ["export"],
    ["export", "--input", "s.json", "--fmt", "svg"],
    ["check", "--input", "s.json", "--which", "cycles"],
    ["check", "--input", "s.json", "--mode"],
    ["query", "--input", "s.json", "--open", "global", "v0"],
    ["query", "--input", "s.json"],
    ["build", "--input"],
    ["build", "--input", "s.json", "extra"],
    ["build", "--input", "s.json", "check"],
    ["build", "--help", "--bogus"],
    ["combine", "--help"],
    ["-h"],
]


def _parse(parser, argv, capsys):
    """The namespace, or the exit code and both streams of an exit (a usage
    error or help)."""
    try:
        return vars(parser.parse_args(argv))
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


@pytest.fixture
def recorded(monkeypatch):
    """COMMANDS with every handler replaced by one that records the
    namespace it is called with and returns 0."""
    seen = []

    def record(args):
        seen.append(vars(args))
        return 0

    monkeypatch.setattr(
        cli,
        "COMMANDS",
        {name: (line, arguments, record) for name, (line, arguments, _) in COMMANDS.items()},
    )
    return seen


@pytest.mark.parametrize("argv", PARSED + EXITS, ids=" ".join)
def test_command_parser_matches_full_parser(monkeypatch, capsys, recorded, argv):
    """The parse main does, with the plain reader or else the root parser,
    gives every argv the namespace, or the exit, of the root parser with all
    five subparsers."""
    monkeypatch.setenv("COLUMNS", "80")
    expected = _parse(make_parser(), argv, capsys)
    try:
        assert main(argv) == 0
        got = recorded.pop()
    except SystemExit as exc:
        captured = capsys.readouterr()
        got = exc.code, captured.out, captured.err
    assert recorded == []
    assert got == expected
    if argv in PARSED:
        assert isinstance(got, dict) and got["command"] == argv[0]
    else:
        assert isinstance(got, tuple)


@pytest.fixture
def parsers_built(monkeypatch):
    """The prog of every argparse parser built, subparsers included, in
    order."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return built


# The progs of the root parser and its five subparsers, in build order.
ROOT = ["finstream"] + [f"finstream {name}" for name in COMMANDS]


@pytest.mark.parametrize("argv", PARSED, ids=" ".join)
def test_well_formed_call_builds_no_parser(recorded, parsers_built, argv):
    """A call every token of which is an exact option, its value or a
    positional is read straight from COMMANDS."""
    assert main(argv) == 0
    assert recorded.pop()["command"] == argv[0]
    assert parsers_built == []


@pytest.mark.parametrize("argv", EXITS, ids=" ".join)
def test_declined_call_builds_the_parser_it_exits_from(capsys, recorded, parsers_built, argv):
    """A call the plain reader declines, on a named command or not, builds
    the root parser with every subparser, once."""
    with pytest.raises(SystemExit):
        main(argv)
    assert recorded == []
    assert parsers_built == ROOT


def test_append_option_gets_a_fresh_list(recorded):
    """Each call's --input list is its own, as with argparse, and the
    table's default stays empty."""
    for path in ("a.json", "b.json"):
        assert main(["combine", "join", "--input", path]) == 0
        assert recorded.pop()["input"] == [path]
    assert main(["combine", "limit"]) == 0
    assert recorded.pop()["input"] == []
    assert dict(COMMANDS["combine"][1])[("--input",)]["default"] == []


def test_commands_use_only_what_the_plain_reader_reads():
    """Each argument is one long option or one positional, with only the
    keys _plain_args reads, so that a ``type=``, ``nargs=`` or new action
    fails here rather than making it disagree with argparse."""
    keys = {"required", "default", "help", "choices", "action"}
    for name, (_, arguments, _) in COMMANDS.items():
        for flags, options in arguments:
            assert len(flags) == 1, (name, flags)
            (flag,) = flags
            assert not flag.startswith("-") or flag.startswith("--") and flag[2:3] != "-", (name, flag)
            assert set(options) <= keys, (name, flag, set(options) - keys)
            assert options.get("action", "store_true") in ("store_true", "append"), (name, flag)


# Words any argument may take, choices of every command and values the plain
# reader leaves to argparse among them.
WORDS = ["s.json", "v0", "e1", "global", '["v0"]', "a=b", "", "svg", "cycles", "nope", "build"]
DASHED = ["-1", "-x", "-", "--", "-h", "--help", "--bogus", "--witness=x", "-v0 v1", "--=x"]
FLAGS = sorted({flags[0] for _, arguments, _ in COMMANDS.values() for flags, _ in arguments
                if flags[0].startswith("-")})
CHOICES = sorted({c for _, arguments, _ in COMMANDS.values() for _, o in arguments for c in o.get("choices", ())})


@st.composite
def command_lines(draw):
    """A command name and tokens drawn from its arguments, shuffled: either
    a well-formed line, each option given once or twice, or one with
    missing or extra arguments, bad values and a few extra words, dashed
    tokens, options of other commands or abbreviations of its own."""
    name = draw(st.sampled_from([*COMMANDS, *COMMANDS, "bogus"]))
    if name not in COMMANDS:
        return [name] + draw(st.lists(st.sampled_from(WORDS + FLAGS), max_size=3)), False
    well_formed = draw(st.booleans())
    words, dashed = st.sampled_from(CHOICES + WORDS), st.sampled_from(DASHED)
    pieces = []
    for (flag,), options in COMMANDS[name][1]:
        valid = st.sampled_from(options["choices"]) if "choices" in options else words
        if well_formed:
            given = valid
            counts = [1] if not flag.startswith("-") else [1, 2] if options.get("required") else [0, 1, 2]
        else:
            given = st.one_of(valid, valid, valid, words, dashed)
            counts = [1, 1, 1, 0, 2]
        for _ in range(draw(st.sampled_from(counts))):
            if not flag.startswith("-"):
                pieces.append([draw(given)])
            elif options.get("action") == "store_true":
                pieces.append([flag])
            elif draw(st.booleans()):
                pieces.append([flag, draw(given)])
            else:
                pieces.append([f"{flag}={draw(given)}"])
    own = [flag for (flag,), _ in COMMANDS[name][1] if flag.startswith("--")]
    for _ in range(0 if well_formed else draw(st.sampled_from([0, 1, 1, 2]))):
        flag = draw(st.sampled_from(own))
        abbreviation = flag[:draw(st.integers(3, len(flag) - 1))]
        pieces.append([draw(st.one_of(words, dashed, st.sampled_from(FLAGS + [abbreviation])))])
    return [name] + [token for piece in draw(st.permutations(pieces)) for token in piece], well_formed


@settings(derandomize=True, deadline=None, max_examples=1500,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(line=command_lines())
def test_main_parses_as_the_root_parser(monkeypatch, capsys, recorded, line):
    """Whether the plain reader or a parser reads it, main gives every drawn
    command line the namespace, or the exit code and both output streams, of
    the root parser with all five subparsers; the plain reader reads every
    well-formed one."""
    argv, well_formed = line
    if well_formed:
        assert cli._plain_args(argv[0], argv[1:]) is not None
    monkeypatch.setenv("COLUMNS", "80")
    expected = _parse(make_parser(), argv, capsys)
    try:
        assert main(argv) == 0
        got = recorded.pop()
    except SystemExit as exc:
        captured = capsys.readouterr()
        got = exc.code, captured.out, captured.err
    assert recorded == []
    assert got == expected


@pytest.mark.parametrize("argv", [[], ["bogus"], ["--help"]], ids=str)
def test_call_without_command_builds_the_root(capsys, parsers_built, argv):
    with pytest.raises(SystemExit) as caught:
        main(argv)
    assert caught.value.code == (0 if argv == ["--help"] else 2)
    assert parsers_built == ROOT


def test_main_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["finstream", "query", "--help"])
    with pytest.raises(SystemExit) as caught:
        main()
    assert caught.value.code == 0
    assert capsys.readouterr().out.startswith("usage: finstream query")


@pytest.mark.parametrize("case", ["input-directory", "input-not-utf8", "output-directory"])
def test_unreadable_path_exits_2(tmp_path, capsys, case):
    spec = tmp_path / "spec.json"
    write(spec, {"builder": "directed_interval", "args": {"n": 1}})
    argv = ["build", "--input", str(spec)]
    if case == "input-directory":
        argv[2] = str(tmp_path)
    elif case == "input-not-utf8":
        spec.write_bytes(b'{"builder": "directed_\xe9interval"}')
    else:
        argv += ["--output", str(tmp_path)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


SRC = Path(__file__).resolve().parents[1] / "src"


def _python(argv, tmp_path, **env):
    """Run a fresh interpreter on the library in ``tmp_path``."""
    return subprocess.run(
        [sys.executable, *argv], cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(SRC), **env),
        capture_output=True, timeout=60,
    )


def test_well_formed_call_never_imports_argparse(tmp_path):
    """Importing the CLI and running a call the plain reader reads leave
    argparse unloaded; modules that a site hook loaded before do not count."""
    write(tmp_path / "i1.json", serialize_stream(directed_interval(1)))
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from finstream import cli\n"
        "loaded = 'argparse' in set(sys.modules) - before\n"
        "code = cli.main(['export', '--input', 'i1.json', '--output', 'o.json'])\n"
        "print(loaded, code, 'argparse' in set(sys.modules) - before)\n"
    )
    done = _python(["-c", code], tmp_path)
    assert (done.returncode, done.stdout, done.stderr) == (0, b"False 0 False\n", b"")


def test_stdout_gets_utf8_whatever_its_encoding(tmp_path):
    """A point named outside ASCII reaches an ASCII stdout as the UTF-8 bytes
    --output writes, exit 0; a stdout without a buffer gets the same text."""
    write(tmp_path / "p.json", serialize_stream(point_stream("\u00e9")))
    argv = ["export", "--input", str(tmp_path / "p.json")]
    assert main([*argv, "--output", str(tmp_path / "o.json")]) == 0
    written = (tmp_path / "o.json").read_bytes()
    assert "\u00e9".encode("utf-8") in written
    done = _python(["-m", "finstream.cli", *argv], tmp_path, PYTHONIOENCODING="ascii")
    assert (done.returncode, done.stdout, done.stderr) == (0, written, b"")
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert main(argv) == 0
    assert text.getvalue().encode("utf-8") == written
