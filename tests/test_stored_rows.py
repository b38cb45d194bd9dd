"""A circulation is stored once, as its saturated generator rows.

Equality and hashing read the space and the rows, ``gen`` is built from the
rows when first read, and the constructions, stream file reading and writing
work on rows without a Preorder. The public constructor accepts exactly
the saturated families. The two constructors that used to go through
Preorders are compared with those versions, kept in ``conftest`` as oracles.
"""

import contextlib
import io
import random
import re

import pytest

from finstream import (
    Circulation,
    DiagramArrow,
    Preorder,
    Relation,
    Stream,
    StreamDiagram,
    all_opens,
    colimit,
    coproduct_stream,
    cosheafify,
    directed_circle,
    directed_interval,
    directed_square,
    is_stream_map,
    join_circulations,
    limit,
    pathology_fixture,
    product_stream,
    pushforward,
    quotient_stream,
    space_from_min_opens,
    specialization_circulation,
    stream_from_atlas,
    stream_from_generators,
    stream_isomorphism,
    substream,
    transitive_reflexive_closure,
)
from finstream import circulation, cli
from finstream.corpus import random_precirculation, random_preorder, random_stream
from finstream.errors import InvalidPreorder
from finstream.formats import (
    canonical_dumps,
    dump,
    load,
    parse_stream,
    serialize_precirculation,
    serialize_stream,
    stream_to_dot,
)
from finstream.models import interval_endpoint_partition

from conftest import (
    full_embed_family,
    model_streams,
    position_rows,
    relabelled,
    specialization_circulation_oracle,
    stream_from_atlas_oracle,
)


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
        circ = directed_interval(2).circ
        assert "gen" not in vars(circ)
        gen = circ.gen
        assert circ.gen is gen and len(gen) == circ.space.n
        # equality and hashing read the space and the rows only: a copy with its
        # own cold memo and no gen is equal and hashes the same
        whole = (1 << circ.space.n) - 1
        circ.value_rows(whole)
        twin = Circulation._by_construction(circ.space, circ._gen_rows)
        assert "gen" not in vars(twin) and whole not in twin._memo
        assert twin == circ and hash(twin) == hash(circ)
        # other rows on the same space, or another space, make it unequal
        other = specialization_circulation(circ.space)
        assert other._gen_rows != circ._gen_rows and other != circ
        assert directed_interval(3).circ != circ

    def test_public_constructor_round_trips(self, corpus_streams):
        for s in corpus_streams + model_streams():
            rebuilt = Circulation(s.space, s.circ.gen)
            assert rebuilt == s.circ
            assert hash(rebuilt) == hash(s.circ)
            assert rebuilt._gen_rows == s.circ._gen_rows


def random_family(rng, space):
    return tuple(random_preorder(rng, sorted(space.min_open(x))) for x in space.points)


class TestEveryCirculationIsSaturated:
    def test_constructor_rejects_exactly_what_saturation_changes(self, small_spaces):
        # The oracle is _saturate on the embedded family; the constructor
        # names the least point whose generator saturation changes. Accepting
        # s.circ.gen of every corpus and model stream is
        # TestOneStoredForm::test_public_constructor_round_trips.
        rng = random.Random(1111)
        verdicts = set()
        for space in small_spaces:
            for _ in range(5):
                gen = random_family(rng, space)
                embedded = position_rows(space, full_embed_family(space, gen))
                saturated = circulation._saturate(space, embedded)._gen_rows
                changed = [x for x, a, b in zip(space.points, embedded, saturated) if a != b]
                verdicts.add(bool(changed))
                if changed:
                    message = f"generator for {changed[0]!r} is not saturated"
                    with pytest.raises(InvalidPreorder, match=f"^{re.escape(message)}$"):
                        Circulation(space, gen)
                else:
                    assert Circulation(space, gen)._gen_rows == embedded
        assert verdicts == {False, True}

    def test_isomorphic_to_a_relabelled_copy(self, small_spaces):
        rng = random.Random(2222)
        for space in small_spaces:
            gens = dict(zip(space.points, random_family(rng, space)))
            s = stream_from_generators(space, gens)
            rename = {p: f"q{space.n - i}" for i, p in enumerate(space.points)}
            copy = relabelled(space, gens, rename)
            iso = stream_isomorphism(s, copy)
            assert iso is not None
            assert is_stream_map(iso, s, copy).ok
            assert is_stream_map({q: p for p, q in iso.items()}, copy, s).ok


class TestNoPreordersInConstructions:
    def test_constructions_extract_no_preorder(self, monkeypatch, tmp_path):
        # no Preorder is built, embedded or extracted by a construction, by
        # loading, dumping or exporting a stream file, or by serializing a
        # precirculation
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
        square = directed_square(6, 6)
        square_file = serialize_stream(square)
        path, out = str(tmp_path / "square.json"), str(tmp_path / "out")
        calls = []

        def spy(name, real):
            def call(*args):
                calls.append(name)
                return real(*args)

            return call

        for name in ("_extract_preorder", "_embed_rows"):
            monkeypatch.setattr(circulation, name, spy(name, getattr(circulation, name)))
        build = spy("Preorder.build", Preorder.build.__func__)
        monkeypatch.setattr(Preorder, "build", classmethod(build))
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
        parse_stream(square_file)
        dump(square, path)
        assert load(path) == square
        stream_to_dot(square)
        serialize_precirculation(stored)
        serialize_precirculation(pulled)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["export", "--input", path, "--output", out]) == 0
            assert cli.main(["export", "--input", path, "--fmt", "dot", "--output", out]) == 0
            assert cli.main(["check", "--input", path, "--which", "antisymmetry"]) == 0
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
