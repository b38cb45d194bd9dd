"""The two lifts behind every stream construction, against their oracles.

Each construction is a space construction plus one lift: the final lift
(pushforward, final_structure, quotient_stream, coproduct_stream, colimit)
or the initial lift (initial_structure, product_stream, substream, limit).
The oracles in conftest compute the same structures the long way, as joins
of pushforwards and as cosheafified meets of pullbacks over every open.
Results are compared as canonical JSON, on corpus streams and on streams
saturated from random generators that were not."""

import random

import pytest

from finstream import (
    DiagramArrow,
    Preorder,
    Stream,
    StreamDiagram,
    circulation_from_generators,
    colimit,
    coproduct_space,
    coproduct_stream,
    enumerate_stream_maps,
    final_structure,
    initial_structure,
    limit,
    product_stream,
    pushforward,
    quotient_space,
    quotient_stream,
    subspace,
    substream,
    trivial_circulation,
)
from finstream.circulation import _saturate
from finstream.corpus import random_continuous_map, random_partition, spaces_upto
from finstream.errors import NotContinuous
from finstream.formats import canonical_dumps, serialize_stream
from finstream.spaces import is_continuous, space_from_min_opens

from conftest import (
    final_structure_oracle,
    initial_structure_oracle,
    limit_oracle,
    model_streams,
    product_oracle,
    pushforward_oracle,
    unsaturated_stream,
)


def as_json(stream, legs=()):
    return canonical_dumps(
        {"stream": serialize_stream(stream), "legs": [leg.mapping for leg in legs]}
    )


@pytest.fixture(scope="module")
def sources(corpus_streams, small_spaces):
    """A seeded sample of the corpus, then a stream saturated from random
    generators on each small space that has a minimal open of two points or
    more."""
    rng = random.Random(31)
    sample = rng.sample(corpus_streams, 40)
    wide = [sp for sp in small_spaces if any(mo.bit_count() > 1 for mo in sp.min_open_rows)]
    return sample + [unsaturated_stream(rng, sp) for sp in wide]


def test_saturating_no_family_is_trivial():
    """trivial_circulation is the saturation of no generators; the identity
    generators give the same circulation."""
    for space in spaces_upto(4):
        identity = {x: Preorder.identity(space.min_open(x)) for x in space.points}
        assert _saturate(space) == trivial_circulation(space)
        assert trivial_circulation(space) == circulation_from_generators(space, identity)


def random_legs(rng, sources, count, space, into):
    """count legs between the space and random sources: (stream, map) into
    the space when ``into``, (map, stream) out of it otherwise."""
    legs = []
    while len(legs) < count:
        s = rng.choice(sources)
        f = random_continuous_map(rng, *((s.space, space) if into else (space, s.space)))
        if f is not None:
            legs.append((s, f) if into else (f, s))
    return legs


@pytest.mark.parametrize("count", [0, 1, 2])
def test_final_structure(sources, tiny_spaces, count):
    rng = random.Random(f"final-{count}")
    for _ in range(60):
        target = rng.choice(tiny_spaces)
        legs = random_legs(rng, sources, count, target, into=True)
        assert as_json(*final_structure(target, legs)) == as_json(
            *final_structure_oracle(target, legs)
        )


def assert_legs_continuous(legs):
    for leg in legs:
        assert is_continuous(leg.mapping, leg.source.space, leg.target.space)


def test_built_legs_are_continuous(corpus_streams):
    """product_stream, substream and limit lift over legs they build, with
    no continuity check: each leg they return is continuous, on the models
    and on the corpus."""
    rng = random.Random(37)
    streams = model_streams() + corpus_streams
    for s in streams:
        t = rng.choice(streams) if s.space.n <= 9 else rng.choice(corpus_streams[:40])
        _, first, second = product_stream(s, t)
        assert_legs_continuous([first, second])
        _, inclusion = substream(s, rng.sample(s.space.points, rng.randint(0, s.space.n)))
        assert_legs_continuous([inclusion])
    small = [s for s in streams if 0 < s.space.n <= 3]
    for shape in SHAPES:
        for _ in range(8):
            _, legs = limit(random_diagram(rng, small, shape))
            assert_legs_continuous(legs.values())


def test_initial_structure_rejects_noncontinuous_legs():
    """The public initial_structure checks every leg before the lift."""
    sierpinski = space_from_min_opens("ab", {"a": "ab", "b": "b"})
    target = initial_structure(sierpinski, [])[0]
    identity, swap = {"a": "a", "b": "b"}, {"a": "b", "b": "a"}
    with pytest.raises(NotContinuous):
        initial_structure(sierpinski, [(identity, target), (swap, target)])


@pytest.mark.parametrize("count", [0, 1, 2])
def test_initial_structure(sources, tiny_spaces, count):
    rng = random.Random(f"initial-{count}")
    for _ in range(60):
        base = rng.choice(tiny_spaces)
        legs = random_legs(rng, sources, count, base, into=False)
        assert as_json(*initial_structure(base, legs)) == as_json(
            *initial_structure_oracle(base, legs)
        )


def test_pushforward(sources, tiny_spaces):
    rng = random.Random(3)
    for s in sources:
        target = rng.choice(tiny_spaces[1:])
        f = random_continuous_map(rng, s.space, target)
        assert as_json(Stream(target, pushforward(s, f, target))) == as_json(
            Stream(target, pushforward_oracle(s, f, target))
        )


def test_product(sources):
    rng = random.Random(5)
    small = [s for s in sources if s.space.n <= 3]
    for s in small:
        t = rng.choice(small)
        prod, first, second = product_stream(s, t)
        assert as_json(prod) == as_json(product_oracle(s, t))
        assert as_json(prod, [first, second]) == as_json(
            *initial_structure_oracle(prod.space, [(first.mapping, s), (second.mapping, t)])
        )


def test_substream(sources):
    rng = random.Random(7)
    for s in sources:
        points = rng.sample(s.space.points, rng.randint(0, s.space.n))
        sub = subspace(s.space, points)
        stream, inclusion = substream(s, points)
        assert as_json(stream, [inclusion]) == as_json(
            *initial_structure_oracle(sub, [({p: p for p in sub.points}, s)])
        )


def test_quotient(sources):
    rng = random.Random(11)
    for s in sources:
        if not s.space.n:
            continue
        partition = random_partition(rng, s.space.points)
        space, projection = quotient_space(s.space, partition)
        stream, leg = quotient_stream(s, partition)
        assert as_json(stream, [leg]) == as_json(
            *final_structure_oracle(space, [(s, projection)])
        )


@pytest.mark.parametrize("count", [0, 1, 2])
def test_coproduct(sources, count):
    rng = random.Random(f"coproduct-{count}")
    for _ in range(30):
        family = [rng.choice(sources) for _ in range(count)]
        space, inclusions = coproduct_space([s.space for s in family])
        assert as_json(*coproduct_stream(family)) == as_json(
            *final_structure_oracle(space, list(zip(family, inclusions)))
        )


SHAPES = {
    "product": ("ab", []),
    "span": ("abc", ["ba", "bc"]),
    "cospan": ("abc", ["ab", "cb"]),
    "self-loop": ("a", ["aa"]),
    "empty": ("", []),
}


def random_diagram(rng, streams, shape):
    names, arrows = SHAPES[shape]
    objects = {k: rng.choice(streams) for k in names}
    return StreamDiagram(
        objects,
        {
            f"f{i}": DiagramArrow(a, b, rng.choice(enumerate_stream_maps(objects[a], objects[b])))
            for i, (a, b) in enumerate(arrows)
        },
    )


@pytest.mark.parametrize("shape", SHAPES)
def test_limit_and_colimit(sources, shape):
    rng = random.Random(f"diagram-{shape}")
    small = [s for s in sources if 0 < s.space.n <= 3]
    for _ in range(8):
        d = random_diagram(rng, small, shape)
        stream, legs = limit(d)
        expected, expected_legs = limit_oracle(d)
        assert as_json(stream, legs.values()) == as_json(expected, expected_legs.values())
        stream, legs = colimit(d)
        keys = d.object_keys()
        cocone = [(d.objects[k], legs[k].mapping) for k in keys]
        assert as_json(stream, legs.values()) == as_json(
            *final_structure_oracle(stream.space, cocone)
        )
