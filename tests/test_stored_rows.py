"""A circulation is stored once, as its generator rows.

Equality and hashing read the space and the rows, ``gen`` is built from the
rows when first read, and the constructions build their results from rows
without a Preorder. The two constructors that used to go through Preorders
are compared with those versions, kept in ``conftest`` as oracles.
"""

import dataclasses
import random

from finstream import (
    Circulation,
    DiagramArrow,
    Relation,
    Stream,
    StreamDiagram,
    all_opens,
    colimit,
    coproduct_stream,
    cosheafify,
    directed_circle,
    directed_interval,
    join_circulations,
    limit,
    pathology_fixture,
    product_stream,
    pushforward,
    quotient_stream,
    specialization_circulation,
    stream_from_atlas,
    substream,
    transitive_reflexive_closure,
)
from finstream import circulation
from finstream.corpus import random_precirculation, random_stream
from finstream.formats import canonical_dumps, serialize_stream
from finstream.models import interval_endpoint_partition

from conftest import model_streams, specialization_circulation_oracle, stream_from_atlas_oracle


def canonical(stream):
    return canonical_dumps(serialize_stream(stream))


def random_partial_order(rng, points):
    """Random pairs that go forward in a shuffled ranking, closed: always
    antisymmetric."""
    ranked = list(points)
    rng.shuffle(ranked)
    pairs = [(a, b) for i, a in enumerate(ranked) for b in ranked[i + 1:] if rng.random() < 0.4]
    return transitive_reflexive_closure(Relation.build(points, pairs))


def random_atlas(rng, space):
    """1-3 random opens plus the minimal opens of the points they miss, each
    with the restriction of one partial order, so every pair of charts
    agrees on every shared minimal open."""
    order = random_partial_order(rng, space.points)
    opens = [m for m in all_opens(space) if m]
    masks = [rng.choice(opens) for _ in range(rng.randint(1, 3))] if opens else []
    for i, row in enumerate(space.min_open_rows):
        if not any(m >> i & 1 for m in masks):
            masks.append(row)
    charts = [sorted(space.set_of(m)) for m in masks]
    return [(chart, order.restrict(chart)) for chart in charts]


class TestOneStoredForm:
    def test_fields_are_space_and_rows(self):
        assert [f.name for f in dataclasses.fields(Circulation)] == ["space", "_gen_rows"]
        circ = directed_interval(2).circ
        assert "gen" not in vars(circ)
        gen = circ.gen
        assert circ.gen is gen and len(gen) == circ.space.n

    def test_public_constructor_round_trips(self, corpus_streams):
        for s in corpus_streams + model_streams():
            rebuilt = Circulation(s.space, s.circ.gen)
            assert rebuilt == s.circ
            assert hash(rebuilt) == hash(s.circ)
            assert rebuilt._gen_rows == s.circ._gen_rows


class TestNoPreordersInConstructions:
    def test_constructions_extract_no_preorder(self, monkeypatch):
        interval, circle = directed_interval(2), directed_circle(2)
        diagram = StreamDiagram(
            {"a": interval, "b": interval},
            {"f": DiagramArrow("a", "b", {p: p for p in interval.space.points})},
        )
        projection = {p: ("v0" if p == "v2" else p) for p in interval.space.points}
        rng = random.Random(7)
        stored = random_precirculation(rng, circle.space, seeds=3)
        pulled = pathology_fixture().pulled
        other = random_stream(rng, circle.space).circ
        calls = []
        real = circulation._extract_preorder

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(circulation, "_extract_preorder", spy)
        product_stream(interval, circle)
        substream(interval, ["v0", "e1", "v1"])
        quotient_stream(interval, interval_endpoint_partition(2))
        coproduct_stream([interval, circle], ["i", "c"])
        limit(diagram)
        colimit(diagram)
        pushforward(interval, projection, circle.space)
        join_circulations([circle.circ, other])
        cosheafify(stored)
        cosheafify(pulled)
        specialization_circulation(interval.space)
        assert calls == []


class TestPreorderOracles:
    def test_specialization_circulation(self, small_spaces):
        for space in small_spaces + [s.space for s in model_streams()]:
            expected = specialization_circulation_oracle(space)
            got = specialization_circulation(space)
            assert got == expected
            assert canonical(Stream(space, got)) == canonical(Stream(space, expected))

    def test_stream_from_atlas_on_random_atlases(self, small_spaces):
        rng = random.Random(4242)
        for space in small_spaces + [s.space for s in model_streams()]:
            for _ in range(3):
                charts = random_atlas(rng, space)
                got = stream_from_atlas(space, charts)
                assert canonical(got) == canonical(stream_from_atlas_oracle(space, charts))

    def test_stream_from_atlas_on_model_stars(self):
        for s in (directed_interval(3), directed_circle(3), directed_circle(2)):
            stars = [sorted(s.space.min_open(p)) for p in s.space.points if p.startswith("v")]
            charts = [(star, s.value(star)) for star in stars]
            got = stream_from_atlas(s.space, charts)
            assert got == s
            assert canonical(got) == canonical(stream_from_atlas_oracle(s.space, charts))
