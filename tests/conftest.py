"""Shared oracles and corpus fixtures.

Oracles here are deliberately naive (fixpoint iteration, quantifier scans,
partition searches) and independent of the bitmask implementations they
check.
"""

from __future__ import annotations

import itertools
import random

import pytest

from finstream import (
    AlternatingChain,
    Circulation,
    FuncPrecirculation,
    Precirculation,
    Preorder,
    StoredPrecirculation,
    Stream,
    StreamMap,
    all_opens,
    bounded_interval,
    chaotic_precirculation,
    circulation_from_generators,
    closure_set,
    cosheafify,
    directed_circle,
    directed_interval,
    directed_square,
    boundary_square,
    empty_stream,
    is_connected,
    join_circulations,
    point_stream,
    product_space,
    pullback,
    space_from_min_opens,
    specialization_circulation,
    subspace,
    trivial_circulation,
    trivial_stream,
    tuple_point,
)
from finstream._kernels import closure_rows
from finstream.corpus import all_spaces, random_preorder, random_stream, spaces_upto
from finstream.errors import NotRelated, UnknownPoint
from finstream.formats import canonical_dumps
from finstream.relations import iter_bits
from finstream.spaces import require_open_mask


def closure_oracle(carrier, pairs):
    """Reflexive pairs plus iterated relational composition to a fixpoint."""
    closed = set(pairs) | {(x, x) for x in carrier}
    while True:
        step = {
            (x, z)
            for (x, y) in closed
            for (w, z) in closed
            if y == w
        } - closed
        if not step:
            return closed
        closed |= step


def convex_oracle(p, subset):
    subset = set(subset)
    for x in subset:
        for z in subset:
            for y in p.carrier:
                if p.has(x, y) and p.has(y, z) and y not in subset:
                    return False
    return True


def connected_oracle(space, subset):
    """No partition into two disjoint nonempty relatively open pieces."""
    members = frozenset(subset)
    if not members:
        return True
    opens = [space.set_of(m) for m in all_opens(space)]
    for u in opens:
        for v in opens:
            a = u & members
            b = v & members
            if a and b and not (a & b) and (a | b) == members:
                return False
    return True


def connected_intervals_oracle(s):
    """check_connected_intervals on point-name sets: the bounded interval of
    the underlying preorder for each pair (x then y, in point order), its
    closure, and the connectivity of that closure."""
    under = s.underlying()
    for x in s.space.points:
        for y in s.space.points:
            interval = bounded_interval(under, x, y)
            if not interval:
                continue
            if not is_connected(s.space, closure_set(s.space, interval)):
                return False, (x, y)
    return True, None


def open_sets(space):
    return [space.set_of(m) for m in all_opens(space)]


def continuity_oracle(f, src, dst):
    """The definition: the preimage of every open is open."""
    src_opens = open_sets(src)
    return all(
        frozenset(p for p in src.points if f[p] in v) in src_opens
        for v in open_sets(dst)
    )


def initial_structure_oracle(source, legs):
    """initial_structure as the cosheafification of the meet of the legs'
    pullbacks, on every open; of the chaotic precirculation with no legs.
    Returns the stream and its legs."""
    if legs:
        pulled = [pullback(s, f, source) for f, s in legs]

        def meet(mask):
            rows = pulled[0].rows_on(mask)
            for pb in pulled[1:]:
                rows = tuple(r & p for r, p in zip(rows, pb.rows_on(mask)))
            return rows

        pc = Precirculation(source, meet)
    else:
        pc = chaotic_precirculation(source)
    stream = Stream(source, cosheafify(pc))
    return stream, [StreamMap(stream, s, dict(f)) for f, s in legs]


def pushforward_oracle(s, f, target):
    """pushforward by its definition: per target minimal open, the image of
    the source value on its preimage, closed by fixpoint iteration; the
    family of those values is then saturated."""
    gens = {}
    for j in target.points:
        u = target.min_open(j)
        value = s.value([p for p in s.space.points if f[p] in u])
        gens[j] = Preorder.build(u, closure_oracle(u, {(f[a], f[b]) for a, b in value.pairs()}))
    return circulation_from_generators(target, gens)


def final_structure_oracle(target, legs):
    """final_structure as the join of the legs' pushforward oracles; trivial
    with no legs. Returns the stream and its legs."""
    if legs:
        circ = join_circulations([pushforward_oracle(s, f, target) for s, f in legs])
    else:
        circ = trivial_circulation(target)
    stream = Stream(target, circ)
    return stream, [StreamMap(s, stream, dict(f)) for s, f in legs]


def product_oracle(s, t):
    """product_stream as the componentwise order of the projected values on
    each open of the product space, cut down to the open and cosheafified.
    Returns the stream only."""
    space = product_space(s.space, t.space)
    pairs = {tuple_point(x, y): (x, y) for x in s.space.points for y in t.space.points}

    def assign(mask):
        members = sorted(space.set_of(mask))
        left = s.value({pairs[p][0] for p in members})
        right = t.value({pairs[p][1] for p in members})
        related = [
            (p, q)
            for p in members
            for q in members
            if left.has(pairs[p][0], pairs[q][0]) and right.has(pairs[p][1], pairs[q][1])
        ]
        return Preorder.build(members, related)

    return Stream(space, cosheafify(FuncPrecirculation(space, assign)))


def specialization_circulation_oracle(space):
    """specialization_circulation through Preorders: the specialization
    preorder restricted to each minimal open, saturated."""
    spec = Preorder(space.points, space.min_open_rows)
    gens = {x: spec.restrict(space.min_open(x)) for x in space.points}
    return circulation_from_generators(space, gens)


def stream_from_atlas_oracle(space, charts):
    """stream_from_atlas on a valid atlas as the cosheafification of a
    precirculation stored on the minimal opens, each taking its order from
    any chart around its point."""
    stored = {}
    for x in space.points:
        local = space.min_open(x)
        order = next(order for chart, order in charts if x in chart)
        stored[local] = order.restrict(local)
    return Stream(space, cosheafify(StoredPrecirculation(space, stored, exact=True)))


def unsaturated_stream(rng, space):
    """A stream built directly from random generators that are not
    saturated: gen(x) need not hold the generators of min_open(x)'s
    points, so reading a generator instead of a value goes wrong."""
    gen = tuple(random_preorder(rng, sorted(space.min_open(x))) for x in space.points)
    return Stream(space, Circulation(space, gen))


def limit_oracle(diagram):
    """limit by building the whole product of the objects' spaces, keeping
    the tuples every arrow respects and cutting the product down to them,
    with the initial structure oracle over the projections."""
    keys = diagram.object_keys()
    spaces = [diagram.objects[k].space for k in keys]
    if len(spaces) == 1:
        prod, assoc = spaces[0], {p: (p,) for p in spaces[0].points}
    else:
        assoc = {
            tuple_point(*combo): combo
            for combo in itertools.product(*(sp.points for sp in spaces))
        }
        table = {
            name: {
                tuple_point(*c)
                for c in itertools.product(*(sp.min_open(x) for sp, x in zip(spaces, combo)))
            }
            for name, combo in assoc.items()
        }
        prod = space_from_min_opens(assoc.keys(), table)
    slot = {k: i for i, k in enumerate(keys)}
    compatible = [
        name
        for name, combo in assoc.items()
        if all(
            arrow.mapping[combo[slot[arrow.source]]] == combo[slot[arrow.target]]
            for arrow in diagram.arrows.values()
        )
    ]
    base = subspace(prod, compatible)
    legs = [
        ({name: assoc[name][slot[k]] for name in base.points}, diagram.objects[k])
        for k in keys
    ]
    stream, stream_legs = initial_structure_oracle(base, legs)
    return stream, dict(zip(keys, stream_legs))


def model_streams():
    """Canonical models a little larger than the corpus."""
    return [
        directed_interval(3),
        directed_interval(5),
        directed_circle(4),
        directed_square(1, 1),
        directed_square(2, 1),
        boundary_square(1),
        boundary_square(2),
        empty_stream(),
    ]


def full_carrier_join(space, mask, members):
    """_join_on without its mask shortcut: OR every row of every member,
    close over the whole carrier, then zero the rows off the mask."""
    rows = [0] * space.n
    for member in members:
        for k, row in enumerate(member):
            rows[k] |= row
    closed = closure_rows(rows, space.n)
    return tuple(closed[i] if mask >> i & 1 else 0 for i in range(space.n))


def chain_witness_oracle(s, open_set, x, y):
    """chain_witness deciding on the open's Preorder value: the same errors,
    then a breadth-first search over the generators' pairs."""
    mask = require_open_mask(s.space, s.space.mask_of(open_set))
    value = s.value_mask(mask)
    if x not in value or y not in value:
        raise UnknownPoint(f"{x!r} or {y!r} outside the open set")
    if not value.has(x, y):
        raise NotRelated(f"{x!r} is not below {y!r} on the open set")
    if x == y:
        return []
    steps = {p: [] for p in value.carrier}
    for z in (s.space.points[i] for i in iter_bits(mask)):
        for a, b in s.gen_of(z).pairs():
            if a != b:
                steps[a].append((z, b))
    parents = {x: None}
    frontier = [x]
    while frontier:
        nxt = []
        for a in frontier:
            for z, b in steps[a]:
                if b in parents:
                    continue
                parents[b] = (a, z)
                if b == y:
                    out = []
                    while parents[b] is not None:
                        prev, via = parents[b]
                        out.append((prev, via, b))
                        b = prev
                    return out[::-1]
                nxt.append(b)
        frontier = nxt
    raise AssertionError("related pair admits no generator chain")


def alternating_witness_oracle(s, u, v, x, y):
    """alternating_witness as a breadth-first search over (point, last
    label) states on the two opens' Preorder values, so that consecutive
    steps alternate by construction; the same errors."""
    union_value = s.value(set(u) | set(v))
    if x not in union_value or y not in union_value:
        raise UnknownPoint(f"{x!r} or {y!r} outside the union")
    if not union_value.has(x, y):
        raise NotRelated(f"{x!r} is not below {y!r} on the union")
    if x == y:
        return AlternatingChain((x,), ())
    values = (("U", s.value(u)), ("V", s.value(v)))
    start = (x, "")
    parents = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for point, last in frontier:
            for label, value in values:
                if label == last or point not in value:
                    continue
                for q in sorted(value.image_set(point)):
                    state = (q, label)
                    if q == point or state in parents:
                        continue
                    parents[state] = (point, last)
                    if q == y:
                        points, labels = [], []
                        while state is not None:
                            points.append(state[0])
                            labels.append(state[1])
                            state = parents[state]
                        return AlternatingChain(tuple(points[::-1]), tuple(labels[::-1][1:]))
                    nxt.append(state)
        frontier = nxt
    raise AssertionError("related pair admits no alternating chain")


def query_oracle(s, open_arg, x, y, witness):
    """The CLI query's report text and exit code, decided on the open's
    Preorder value; raises the library's error where the CLI exits 2."""
    if open_arg == "global":
        members = sorted(s.space.points)
    else:
        members = [p for p in open_arg.split(",") if p]
    s.space.index(x)
    s.space.index(y)
    value = s.value(members)
    related = x in value and y in value and value.has(x, y)
    report = {"open": sorted(set(members)), "x": x, "y": y, "related": related}
    if related and witness:
        steps = chain_witness_oracle(s, members, x, y)
        report["witness"] = [{"from": a, "via_star_of": z, "to": b} for a, z, b in steps[:100]]
        if len(steps) > 100:
            report["witness_truncated"] = True
    return canonical_dumps(report), 0 if related else 1


@pytest.fixture(scope="session")
def rng():
    return random.Random(20240811)


@pytest.fixture(scope="session")
def tiny_spaces():
    """All spaces on up to 3 labeled points."""
    return spaces_upto(3)


@pytest.fixture(scope="session")
def small_spaces(rng):
    """All spaces on up to 3 points plus a seeded sample of 4-point spaces."""
    sample = all_spaces(4)
    picks = rng.sample(range(len(sample)), 40)
    return spaces_upto(3) + [sample[i] for i in picks]


@pytest.fixture(scope="session")
def corpus_streams(small_spaces, rng):
    """Fixture models plus seeded random streams over the small spaces."""
    streams: list[Stream] = [
        directed_interval(1),
        directed_interval(2),
        directed_circle(2),
        directed_circle(3),
        directed_square(1, 1),
        boundary_square(1),
        point_stream(),
    ]
    for space in small_spaces:
        streams.append(trivial_stream(space))
        streams.append(Stream(space, specialization_circulation(space)))
        streams.append(random_stream(rng, space))
    return streams
