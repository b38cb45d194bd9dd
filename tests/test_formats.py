import json

import pytest

from finstream import (
    DiagramArrow,
    Stream,
    StreamDiagram,
    chaotic_precirculation,
    colimit,
    coproduct_stream,
    cosheafify,
    directed_circle,
    directed_interval,
    empty_stream,
    final_structure,
    initial_structure,
    join_circulations,
    limit,
    product_stream,
    quotient_stream,
    specialization_circulation,
    subspace,
    substream,
    trivial_circulation,
)
from finstream.errors import FormatError, InvalidPreorder
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
)
from finstream.models import interval_endpoint_partition, pathology_fixture

from conftest import model_streams


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


class TestStreamRoundTrip:
    def test_byte_identical(self, corpus_streams):
        fixed = (directed_interval(2), directed_circle(3), empty_stream())
        for s in fixed + tuple(model_streams() + corpus_streams + construction_results()):
            text = canonical_dumps(serialize_stream(s))
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


class TestSpaceAndPrecirculation:
    def test_space_round_trip(self):
        space = directed_circle(2).space
        obj = serialize_space(space)
        assert parse_space(obj) == space

    def test_precirculation_round_trip(self):
        fx = pathology_fixture()
        obj = serialize_precirculation(fx.pulled)
        back = parse_precirculation(obj)
        assert back.space == fx.corner_space
        for mask in range(4):
            if mask and not back.space.set_of(mask):
                continue
            assert back.assign_mask(mask) == fx.pulled.assign_mask(mask)
        assert back.exact is False or back.exact is True

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

    def test_empty_dot(self):
        text = stream_to_dot(empty_stream())
        assert text == "digraph stream {\n}\n"
