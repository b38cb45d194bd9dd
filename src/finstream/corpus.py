"""Enumerated and seeded generators of small spaces, streams, and maps.

Finite spaces on a labeled point set correspond exactly to preorders (the
minimal-open rows are the up-set rows), so enumerating spaces reuses the
preorder enumeration. Random generation goes through transitive-reflexive
closure, so every draw is valid by construction.
"""

from __future__ import annotations

import random
from typing import Sequence

from .category import enumerate_point_maps
from .circulation import (
    Circulation,
    Precirculation,
    Stream,
    StoredPrecirculation,
    circulation_from_generators,
)
from .relations import Preorder, _all_preorder_rows, transitive_reflexive_closure, Relation
from .spaces import FiniteSpace, all_opens, is_continuous


def point_names(n: int) -> tuple[str, ...]:
    return tuple(f"p{i}" for i in range(n))


def all_spaces(n: int) -> list[FiniteSpace]:
    """Every finite space on n labeled points (n at most 4)."""
    pts = point_names(n)
    return [FiniteSpace(pts, rows) for rows in _all_preorder_rows(n)]


def spaces_upto(n: int) -> list[FiniteSpace]:
    out: list[FiniteSpace] = []
    for k in range(n + 1):
        out.extend(all_spaces(k))
    return out


def random_preorder(rng: random.Random, carrier: Sequence[str]) -> Preorder:
    pts = tuple(sorted(carrier))
    pairs = []
    for x in pts:
        for y in pts:
            if rng.random() < 0.3:
                pairs.append((x, y))
    return transitive_reflexive_closure(Relation.build(pts, pairs))


def random_space(rng: random.Random, n: int) -> FiniteSpace:
    p = random_preorder(rng, point_names(n))
    return FiniteSpace(p.carrier, p.rows)


def random_circulation(rng: random.Random, space: FiniteSpace) -> Circulation:
    gens = {x: random_preorder(rng, space.min_open(x)) for x in space.points}
    return circulation_from_generators(space, gens)


def random_stream(rng: random.Random, space: FiniteSpace) -> Stream:
    return Stream(space, random_circulation(rng, space))


def random_precirculation(
    rng: random.Random, space: FiniteSpace, seeds: int = 2
) -> Precirculation:
    """Monotone hull of a few random preorders stored on random opens."""
    opens = list(all_opens(space))
    stored = {}
    for _ in range(seeds):
        mask = rng.choice(opens)
        members = space.set_of(mask)
        stored[frozenset(members)] = random_preorder(rng, sorted(members))
    return StoredPrecirculation(space, stored, exact=False)


def continuous_maps(src: FiniteSpace, dst: FiniteSpace) -> list[dict[str, str]]:
    return [
        f for f in enumerate_point_maps(src, dst) if is_continuous(f, src, dst)
    ]


def random_continuous_map(
    rng: random.Random, src: FiniteSpace, dst: FiniteSpace
) -> dict[str, str] | None:
    """Uniform draw over all continuous maps; None when there are none
    (only possible for an empty target and nonempty source)."""
    candidates = continuous_maps(src, dst)
    if not candidates:
        return None
    return rng.choice(candidates)


def random_partition(rng: random.Random, points: Sequence[str]) -> list[list[str]]:
    classes: list[list[str]] = []
    for p in points:
        if classes and rng.random() < 0.5:
            rng.choice(classes).append(p)
        else:
            classes.append([p])
    return classes
