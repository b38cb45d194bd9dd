import copy
import json
import random

import pytest

from finstream import (
    DiagramArrow,
    FiniteSpace,
    Stream,
    StreamDiagram,
    all_opens,
    chaotic_precirculation,
    colimit,
    coproduct_stream,
    cosheafify,
    directed_circle,
    directed_interval,
    directed_square,
    empty_stream,
    final_structure,
    initial_structure,
    join_circulations,
    limit,
    point_stream,
    product_stream,
    quotient_stream,
    space_from_min_opens,
    specialization_circulation,
    specialization_preorder,
    subspace,
    substream,
    trivial_circulation,
)
from finstream.corpus import (
    point_names,
    random_precirculation,
    random_preorder,
    random_space,
    random_stream,
)
from finstream.errors import FormatError, InvalidPreorder, StreamError, UnknownPoint
from finstream.formats import (
    canonical_dumps,
    dump,
    parse_any,
    parse_precirculation,
    parse_space,
    parse_stream,
    serialize_precirculation,
    serialize_space,
    serialize_stream,
    stream_to_dot,
    stream_to_json,
)
from finstream.models import interval_endpoint_partition, pathology_fixture

from conftest import (
    model_streams,
    parse_stream_oracle,
    serialize_precirculation_oracle,
    serialize_stream_oracle,
)


def construction_results():
    """The result of each stream construction, on small models."""
    interval, circle = directed_interval(2), directed_circle(2)
    ident = {p: p for p in interval.space.points}
    diagram = StreamDiagram({"a": interval, "b": interval}, {"f": DiagramArrow("a", "b", ident)})
    projection = {p: ("v0" if p == "v2" else p) for p in interval.space.points}
    sub_points = ["v0", "e1", "v1"]
    return [
        product_stream(interval, circle)[0],
        substream(interval, sub_points)[0],
        quotient_stream(interval, interval_endpoint_partition(2))[0],
        coproduct_stream([interval, circle], ["i", "c"])[0],
        limit(diagram)[0],
        colimit(diagram)[0],
        final_structure(circle.space, [(interval, projection)])[0],
        initial_structure(subspace(interval.space, sub_points), [(ident, interval)])[0],
        Stream(circle.space, join_circulations([circle.circ, trivial_circulation(circle.space)])),
        Stream(circle.space, cosheafify(chaotic_precirculation(circle.space))),
        Stream(interval.space, specialization_circulation(interval.space)),
    ]


# Names the writer must escape as json.dumps does under ensure_ascii=False:
# quote, backslash, control characters, DEL, non-ASCII and astral text.
AWKWARD_NAMES = ('a"b', "c\\d", "\u00e9t\u00e9", "x\ny", "\x7f", "tab\there", "\U0001f600", "p0")


def awkward_streams(rng, count):
    """Random streams on random spaces whose points carry awkward names."""
    streams = []
    for _ in range(count):
        names = rng.sample(AWKWARD_NAMES, rng.randint(1, len(AWKWARD_NAMES)))
        p = random_preorder(rng, names)
        streams.append(random_stream(rng, FiniteSpace(p.carrier, p.rows)))
    return streams


class TestStreamWriter:
    def test_matches_canonical_dumps(self, corpus_streams):
        rng = random.Random(14)
        streams = (
            model_streams() + corpus_streams + construction_results() + awkward_streams(rng, 40)
        )
        for s in streams:
            text = stream_to_json(s)
            assert text == canonical_dumps(serialize_stream(s))
            assert parse_stream(json.loads(text)) == s

    def test_dump_writes_the_stream_text(self, tmp_path):
        s = awkward_streams(random.Random(3), 1)[0]
        path = tmp_path / "s.json"
        dump(s, str(path))
        assert path.read_text(encoding="utf-8") == stream_to_json(s)


class TestStreamRoundTrip:
    def test_byte_identical(self, corpus_streams):
        fixed = (directed_interval(2), directed_circle(3), empty_stream())
        for s in fixed + tuple(model_streams() + corpus_streams + construction_results()):
            text = canonical_dumps(serialize_stream(s))
            assert text == canonical_dumps(serialize_stream_oracle(s))
            back = parse_stream(json.loads(text))
            assert back == s
            assert canonical_dumps(serialize_stream(back)) == text

    def test_strict_rejects_unsaturated(self):
        # nested stars: the outer generator omits the inner one's pair, which
        # is a valid preorder but not a saturated table
        obj = {
            "points": ["a", "b", "c"],
            "min_open": {"a": ["a", "b", "c"], "b": ["b", "c"], "c": ["c"]},
            "gen": {
                "a": [["a", "a"], ["b", "b"], ["c", "c"]],
                "b": [["b", "b"], ["b", "c"], ["c", "c"]],
                "c": [["c", "c"]],
            },
        }
        with pytest.raises(InvalidPreorder):
            parse_stream(obj)
        lax = parse_stream(obj, strict=False)
        assert lax.gen_of("a").has("b", "c")  # saturation restores the pair

    def test_rejects_missing_and_unknown(self):
        s = directed_interval(1)
        obj = serialize_stream(s)
        del obj["gen"]["v0"]
        with pytest.raises(FormatError):
            parse_stream(obj)
        obj2 = serialize_stream(s)
        obj2["gen"]["zz"] = []
        with pytest.raises(FormatError):
            parse_stream(obj2)


def outcome(parse, obj, strict):
    """The parsed stream, or the type and message of the error raised."""
    try:
        return parse(obj, strict=strict)
    except StreamError as exc:
        return type(exc), str(exc)


# Nested stars a > b > c, with a saturated gen table.
NESTED = {
    "format": "finstream.stream/1",
    "points": ["a", "b", "c"],
    "min_open": {"a": ["a", "b", "c"], "b": ["b", "c"], "c": ["c"]},
    "gen": {
        "a": [["a", "a"], ["b", "b"], ["b", "c"], ["c", "c"]],
        "b": [["b", "b"], ["b", "c"], ["c", "c"]],
        "c": [["c", "c"]],
    },
}

# Each malformed table as changes to NESTED's gen table: a point's new pair
# list, or None to drop the point.
MALFORMED = {
    "first end outside its star": {"b": [["a", "b"], ["b", "b"], ["c", "c"]]},
    "second end outside its star": {"b": [["b", "b"], ["b", "a"], ["c", "c"]]},
    "unknown first name": {"c": [["c", "c"], ["zz", "c"]]},
    "unknown second name": {"c": [["c", "c"], ["c", "zz"]]},
    "missing reflexive pair": {"b": [["b", "c"], ["c", "c"]]},
    "not transitive": {"a": [["a", "a"], ["a", "b"], ["b", "b"], ["b", "c"], ["c", "c"]]},
    "pair not a list": {"b": [["b", "b"], "bc", ["c", "c"]]},
    "pair an object": {"c": [{"c": "c"}]},
    "pair list not a list": {"c": "cc"},
    "pair too short": {"c": [["c"]]},
    "pair too long": {"c": [["c", "c", "c"]]},
    "pair holds a number": {"c": [["c", 1]]},
    "pair holds null": {"c": [[None, "c"]]},
    "unsaturated": {"a": [["a", "a"], ["b", "b"], ["c", "c"]]},
    "missing gen key": {"c": None},
    "unknown gen key": {"zz": []},
    # precedence
    "bad pair after an outside one": {"b": [["a", "b"], ["b"]]},
    "not reflexive and not transitive": {"a": [["a", "b"], ["b", "c"], ["b", "b"], ["c", "c"]]},
    "first point's fault first": {
        "a": [["a", "a"], ["a", "b"], ["b", "b"], ["b", "c"], ["c", "c"]],
        "c": [["c", "b"]],
    },
    "star fault before saturation": {"a": [["a", "a"], ["b", "b"], ["c", "c"]], "c": [["b", "c"]]},
    "unknown key before a missing one": {"zz": [], "c": None},
}


def malformed(changes):
    obj = copy.deepcopy(NESTED)
    for x, pairs in changes.items():
        if pairs is None:
            del obj["gen"][x]
        else:
            obj["gen"][x] = pairs
    return obj


class TestParserOracle:
    """parse_stream builds generator rows from the pair lists and applies the
    constructor's checks to them; the oracle builds a Preorder per point and
    calls the constructor."""

    def test_valid_streams(self, corpus_streams):
        streams = model_streams() + corpus_streams + construction_results()
        for s in streams + [directed_square(3, 2)]:
            obj = json.loads(canonical_dumps(serialize_stream(s)))
            for strict in (True, False):
                got = parse_stream(obj, strict=strict)
                assert got == parse_stream_oracle(obj, strict=strict) == s

    def test_random_generator_tables(self, small_spaces):
        # preorder tables, mostly unsaturated: strict parsing rejects those
        # and lax parsing saturates them
        rng = random.Random(3131)
        rejected = {True: 0, False: 0}
        for space in small_spaces:
            for _ in range(3):
                gen = {
                    x: [list(pair) for pair in random_preorder(rng, space.min_open(x)).pairs()]
                    for x in space.points
                }
                obj = {**serialize_space(space), "gen": gen}
                for strict in (True, False):
                    got = outcome(parse_stream, obj, strict)
                    assert got == outcome(parse_stream_oracle, obj, strict)
                    rejected[strict] += isinstance(got, tuple)
        assert rejected[True] > 0 and rejected[False] == 0

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_gen_tables(self, case):
        obj = malformed(MALFORMED[case])
        for strict in (True, False):
            expected = outcome(parse_stream_oracle, obj, strict)
            assert outcome(parse_stream, obj, strict) == expected
        assert isinstance(outcome(parse_stream, obj, True), tuple)


class TestSpaceAndPrecirculation:
    def test_space_round_trip(self):
        space = directed_circle(2).space
        obj = serialize_space(space)
        assert parse_space(obj) == space

    @pytest.mark.parametrize("n", range(11, 15))
    def test_random_space_and_stream_round_trip(self, n):
        # point_names(n) is not in name order from n = 11 ("p10" < "p2")
        space = random_space(random.Random(n), n)
        assert specialization_preorder(space) == random_preorder(random.Random(n), point_names(n))
        assert parse_space(serialize_space(space)) == space
        s = random_stream(random.Random(n), space)
        assert parse_stream(serialize_stream(s)) == s

    def test_precirculation_round_trip(self):
        # a corpus precirculation is stored with exact false; the pathology
        # pullback has no stored flag and is written with exact true
        fx = pathology_fixture()
        random_pc = random_precirculation(random.Random(2727), directed_square(2, 1).space, seeds=3)
        for pc, exact in ((random_pc, False), (fx.pulled, True)):
            back = parse_precirculation(serialize_precirculation(pc))
            assert back.space == pc.space
            assert back.exact is exact
            for mask in all_opens(back.space):
                assert back.assign_mask(mask) == pc.assign_mask(mask)
        assert fx.pulled.space == fx.corner_space

    @pytest.mark.parametrize("points, repeated", [
        (["a", "a", "b"], "a"),
        (["b", "a", "c", "a", "b"], "a"),
    ])
    def test_point_listed_twice_is_refused(self, points, repeated):
        obj = {**serialize_stream(point_stream("a")), "points": points}
        obj["min_open"] = {p: [p] for p in points}
        obj["gen"] = {p: [[p, p]] for p in points}
        for parse in (parse_space, parse_stream, parse_any):
            with pytest.raises(FormatError) as caught:
                parse(obj)
            assert str(caught.value) == f"point {repeated!r} is listed twice"

    def test_open_listed_twice_is_refused(self):
        # a second entry for the whole space, with another order, used to win
        obj = serialize_precirculation(chaotic_precirculation(directed_interval(1).space))
        whole = obj["points"]
        obj["assign"].append({"open": whole[::-1], "pairs": [[p, p] for p in whole]})
        with pytest.raises(FormatError) as caught:
            parse_precirculation(obj)
        assert str(caught.value) == f"open {whole!r} is listed twice"

    def test_serialize_precirculation_matches_oracle(self, small_spaces):
        rng = random.Random(5151)
        pcs = [random_precirculation(rng, sp, seeds=rng.randint(1, 3)) for sp in small_spaces]
        pcs += [
            random_precirculation(rng, directed_square(2, 1).space, seeds=3),
            chaotic_precirculation(directed_circle(2).space),
            pathology_fixture().pulled,
        ]
        for pc in pcs:
            expected = canonical_dumps(serialize_precirculation_oracle(pc))
            assert canonical_dumps(serialize_precirculation(pc)) == expected

    def test_dump_refuses_a_bare_circulation(self, tmp_path):
        # a circulation is a precirculation, but its file form is the stream's
        path = tmp_path / "circ.json"
        with pytest.raises(FormatError, match="cannot serialize Circulation"):
            dump(directed_interval(1).circ, str(path))
        assert not path.exists()
        fx = pathology_fixture()
        dump(fx.pulled, str(path))
        assert parse_any(json.loads(path.read_text())).space == fx.corner_space

    def test_parse_any_dispatch(self):
        s = directed_interval(1)
        assert isinstance(parse_any(serialize_stream(s)), Stream)
        assert parse_any(serialize_space(s.space)) == s.space
        with pytest.raises(FormatError):
            parse_any({"format": "nonsense/9"})


class TestDot:
    def test_circle_dot(self):
        text = stream_to_dot(directed_circle(2))
        assert text.startswith("digraph")
        assert '"v0" -> "e1"' in text
        # each vertex star contributes colored, labelled edges
        assert 'label="v0"' in text and 'label="v1"' in text
        assert "color=forestgreen" in text and "color=darkorange" in text

    def test_quote_and_backslash_escaped(self):
        names = ['a"b', "c\\d"]
        space = space_from_min_opens(names, {'a"b': names, "c\\d": ["c\\d"]})
        s = Stream(space, cosheafify(chaotic_precirculation(space)))
        assert stream_to_dot(s) == "\n".join([
            "digraph stream {",
            '  "a\\"b";',
            '  "c\\\\d";',
            '  "a\\"b" -> "c\\\\d" [style=solid color=black];',
            '  "a\\"b" -> "c\\\\d" [color=crimson label="a\\"b" fontcolor=crimson];',
            '  "c\\\\d" -> "a\\"b" [color=crimson label="a\\"b" fontcolor=crimson];',
            "}",
            "",
        ])

    def test_empty_dot(self):
        text = stream_to_dot(empty_stream())
        assert text == "digraph stream {\n}\n"


# Four points, b's star nested in the stars of a and d: b's generator relates
# b to c, so a table must list (b, c) in a's and d's generators as well.
OVERLAP = {
    "format": "finstream.stream/1",
    "points": ["a", "b", "c", "d"],
    "min_open": {"a": ["a", "b", "c"], "b": ["b", "c"], "c": ["c"], "d": ["b", "c", "d"]},
    "gen": {
        "a": [["a", "a"], ["b", "b"], ["b", "c"], ["c", "c"]],
        "b": [["b", "b"], ["b", "c"], ["c", "c"]],
        "c": [["c", "c"]],
        "d": [["b", "b"], ["b", "c"], ["c", "c"], ["d", "d"]],
    },
}

# Each malformed table as (base, changes to its gen table, error class,
# message): the loader's errors, pinned.
PINNED = {
    "key not a point": (NESTED, {"zz": []}, FormatError, "gen table keys unknown point 'zz'"),
    "missing point": (NESTED, {"c": None}, FormatError, "gen table misses 'c'"),
    "pairs not a list": (NESTED, {"c": "cc"}, FormatError, "pairs must be lists of two point names"),
    "pairs an object": (
        NESTED, {"c": {"c": "c"}}, FormatError, "pairs must be lists of two point names"
    ),
    "three names after an unknown one": (
        NESTED,
        {"c": [["c", "c"], ["zz", "c"], ["c", "c", "c"]]},
        FormatError,
        "pairs must be lists of two point names",
    ),
    "first name outside the carrier": (
        NESTED,
        {"b": [["b", "b"], ["a", "b"], ["c", "c"]]},
        UnknownPoint,
        "pair ('a', 'b'): 'a' not in carrier",
    ),
    "second name outside the carrier": (
        NESTED,
        {"b": [["b", "b"], ["b", "a"], ["c", "c"]]},
        UnknownPoint,
        "pair ('b', 'a'): 'a' not in carrier",
    ),
    "second name unknown": (
        NESTED, {"c": [["c", "c"], ["c", "zz"]]}, UnknownPoint, "pair ('c', 'zz'): 'zz' not in carrier"
    ),
    "first outside pair wins": (
        NESTED,
        {"b": [["b", "a"], ["a", "b"], ["b", "b"], ["c", "c"]]},
        UnknownPoint,
        "pair ('b', 'a'): 'a' not in carrier",
    ),
    "not reflexive": (
        NESTED, {"b": [["b", "c"], ["c", "c"]]}, InvalidPreorder, "relation is not reflexive"
    ),
    "not transitive": (
        NESTED,
        {"a": [["a", "a"], ["a", "b"], ["b", "b"], ["b", "c"], ["c", "c"]]},
        InvalidPreorder,
        "relation is not transitive",
    ),
    "unsaturated": (
        NESTED,
        {"a": [["a", "a"], ["b", "b"], ["c", "c"]]},
        InvalidPreorder,
        "generator for 'a' is not saturated",
    ),
    "unsaturated, least point named": (
        OVERLAP,
        {"d": [["b", "b"], ["c", "c"], ["d", "d"]], "a": [["a", "a"], ["b", "b"], ["c", "c"]]},
        InvalidPreorder,
        "generator for 'a' is not saturated",
    ),
    "unsaturated past the first point": (
        OVERLAP,
        {"d": [["b", "b"], ["c", "c"], ["d", "d"]]},
        InvalidPreorder,
        "generator for 'd' is not saturated",
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_loader_error_pinned(case):
    base, changes, kind, message = PINNED[case]
    obj = copy.deepcopy(base)
    for x, pairs in changes.items():
        if pairs is None:
            del obj["gen"][x]
        else:
            obj["gen"][x] = pairs
    with pytest.raises(StreamError) as info:
        parse_stream(obj)
    assert (type(info.value), str(info.value)) == (kind, message)


def test_pinned_bases_load():
    for base in (NESTED, OVERLAP):
        s = parse_stream(base)
        assert stream_to_json(s) == canonical_dumps(base)
