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
    Stream,
    all_opens,
    bounded_interval,
    closure_set,
    directed_circle,
    directed_interval,
    directed_square,
    boundary_square,
    initial_structure,
    is_connected,
    point_stream,
    space_from_min_opens,
    specialization_circulation,
    subspace,
    trivial_stream,
    tuple_point,
)
from finstream.corpus import all_spaces, random_stream, spaces_upto


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


def limit_oracle(diagram):
    """limit by building the whole product of the objects' spaces, keeping
    the tuples every arrow respects and cutting the product down to them,
    with the initial structure over the projections."""
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
    stream, stream_legs = initial_structure(base, legs)
    return stream, dict(zip(keys, stream_legs))


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
