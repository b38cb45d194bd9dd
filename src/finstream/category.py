"""Maps of streams and the universal constructions built from them.

A stream map is a continuous function that preserves each open set's order:
whenever x is below y on the preimage of an open U of the target, the images
are related on U. Checking the condition on the target's minimal opens
suffices (preimages commute with unions, the source value on a preimage
glues from the preimages of minimal opens, and closure cannot escape a
preorder), and the equivalence with the all-opens check is property-tested.

Every construction is a construction on the underlying spaces plus one of
two lifts of one generator family: the final lift (the smallest circulation
making a cocone of maps into stream maps), one saturation of the legs'
images, for quotients, coproducts, colimits and pushforwards, and the
initial lift (the largest circulation making a cone of maps into stream
maps), whose family is already saturated and closes nothing, for products,
substreams, limits and cosheafified pullbacks. The test suite compares both
with their definitions: joins of pushforwards, and cosheafified meets of
pullbacks.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Mapping, Sequence

from ._kernels import iter_bits, reach, transpose_rows
from ._record import Record
from .circulation import (
    Stream,
    _final_lift,
    _initial_lift,
    _preimage_rows,
    substream_circulation,
)
from .errors import IllTypedDiagram, NotContinuous, NotStreamMap
from .relations import tuple_point
from .spaces import (
    FiniteSpace,
    _tuple_space,
    all_opens,
    coproduct_space,
    is_continuous,
    product_space,
    quotient_space,
)


class StreamMapCheck(Record):
    _fields = ("ok", "continuous", "witness")

    def __init__(
        self, ok: bool, continuous: bool, witness: tuple[tuple[str, ...], str, str] | None = None
    ):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "continuous", continuous)
        object.__setattr__(self, "witness", witness)


def is_stream_map(
    f: Mapping[str, str], source: Stream, target: Stream, mode: str = "fast"
) -> StreamMapCheck:
    """Does the point map preserve the circulations?

    fast first asks whether f carries every source generator row gen(y)[a]
    into the target's gen(f(y))[f(a)], which costs one mask test per pair
    and closes no value. That is the condition on the target's minimal
    opens: the source value on a preimage is the closure of the generators
    over it, and gen(y) is the value on min_open(y), which lies in the
    preimage of min_open(f(y)). Only a map that fails it is scanned on the
    target's minimal opens, for the witness. exhaustive checks every open
    of the target. A failure reports the open and the pair whose images it
    fails to relate."""
    if not is_continuous(f, source.space, target.space):
        return StreamMapCheck(False, False)
    src, tgt = source.space, target.space
    fidx = [tgt.index(f[p]) for p in src.points]
    fibres = transpose_rows([1 << t for t in fidx], tgt.n)
    if mode == "fast":
        gens = source.circ._gen_rows
        if all(not gens[x][a] & ~pre for x, a, pre in _preimage_rows(src, fidx, fibres, target)):
            return StreamMapCheck(True, True)
        masks = list(dict.fromkeys(tgt.min_open_rows))
    elif mode == "exhaustive":
        masks = list(all_opens(tgt))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    for umask in masks:
        pre = reach(umask, fibres)
        rows = source.circ.value_rows(pre)
        trows = target.circ.value_rows(umask)
        for i in iter_bits(pre):
            missed = rows[i] & ~reach(trows[fidx[i]], fibres)
            if missed:
                j = next(iter_bits(missed))
                open_pts = tuple(sorted(tgt.set_of(umask)))
                return StreamMapCheck(False, True, (open_pts, src.points[i], src.points[j]))
    return StreamMapCheck(True, True)


class StreamMap(Record):
    """A verified stream map; public construction re-checks the definition
    (identities, composites and the legs that universal constructions return
    are stream maps by construction and skip it, see
    :meth:`_by_construction`). Equality reads all three fields, the hash
    only the source and target."""

    _fields = ("source", "target", "mapping")

    def __init__(self, source: Stream, target: Stream, mapping: dict[str, str]):
        check = is_stream_map(mapping, source, target)
        if not check.continuous:
            raise NotContinuous("not continuous, hence not a stream map")
        if not check.ok:
            raise NotStreamMap(f"order not preserved on {check.witness[0]!r}")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "mapping", mapping)

    @classmethod
    def _by_construction(
        cls, source: Stream, target: Stream, mapping: dict[str, str]
    ) -> "StreamMap":
        """A map that is a stream map by definition (an identity, a
        composite, a leg of a universal construction); skips the re-check
        (the test suite runs :func:`is_stream_map` on every such map)."""
        leg = object.__new__(cls)
        object.__setattr__(leg, "source", source)
        object.__setattr__(leg, "target", target)
        object.__setattr__(leg, "mapping", mapping)
        return leg

    def __hash__(self) -> int:
        return hash((self.source, self.target))

    def __call__(self, x: str) -> str:
        return self.mapping[x]


def identity_map(s: Stream) -> StreamMap:
    return StreamMap._by_construction(s, s, {p: p for p in s.space.points})


def compose(late: StreamMap, early: StreamMap) -> StreamMap:
    """The composite on the source's points (a verified map may hold keys
    outside its source); a composite of stream maps is one."""
    if early.target != late.source:
        raise IllTypedDiagram("composition endpoints do not match")
    mapping = {p: late.mapping[early.mapping[p]] for p in early.source.space.points}
    return StreamMap._by_construction(early.source, late.target, mapping)


def final_structure(
    target: FiniteSpace, legs: Sequence[tuple[Stream, Mapping[str, str]]]
) -> tuple[Stream, list[StreamMap]]:
    """The universal stream on a fixed space making a cocone of continuous
    maps into stream maps: the final lift over the legs, which saturates the
    images of the legs' generators once (trivial for no legs)."""
    stream = Stream(target, _final_lift(target, legs))
    return stream, [StreamMap._by_construction(s, stream, dict(f)) for s, f in legs]


def initial_structure(
    source: FiniteSpace, legs: Sequence[tuple[Mapping[str, str], Stream]]
) -> tuple[Stream, list[StreamMap]]:
    """The universal stream on a fixed space making a cone of continuous maps
    into stream maps: the initial lift over the legs, the chaotic
    minimal-open values cut down by every leg's generators (chaotic for no
    legs). That family is already saturated, so no value is closed. It
    equals the cosheafification of the meet of the pullbacks."""
    stream = Stream(source, _initial_lift(source, legs))
    return stream, [StreamMap._by_construction(stream, s, dict(f)) for f, s in legs]


def product_stream(s: Stream, t: Stream) -> tuple[Stream, StreamMap, StreamMap]:
    """Product space with the initial structure over the two projections."""
    space = product_space(s.space, t.space)
    first = {tuple_point(x, y): x for x in s.space.points for y in t.space.points}
    second = {tuple_point(x, y): y for x in s.space.points for y in t.space.points}
    stream, (to_s, to_t) = initial_structure(space, [(first, s), (second, t)])
    return stream, to_s, to_t


def substream(s: Stream, points: Iterable[str]) -> tuple[Stream, StreamMap]:
    """Subspace with the initial structure over the inclusion."""
    stream = Stream(*substream_circulation(s, points))
    return stream, StreamMap._by_construction(stream, s, {p: p for p in stream.space.points})


def quotient_stream(
    s: Stream, partition: Iterable[Iterable[str]]
) -> tuple[Stream, StreamMap]:
    """Quotient space with the final structure over the projection."""
    space, projection = quotient_space(s.space, partition)
    stream, (leg,) = final_structure(space, [(s, projection)])
    return stream, leg


def coproduct_stream(
    family: Sequence[Stream], tags: Sequence[str] | None = None
) -> tuple[Stream, list[StreamMap]]:
    """Disjoint union with the final structure over the inclusions, whose
    generators are the tagged generators of the summands."""
    space, inclusions = coproduct_space([s.space for s in family], tags)
    return final_structure(space, list(zip(family, inclusions)))


class DiagramArrow(Record):
    _fields = ("source", "target", "mapping")

    def __init__(self, source: str, target: str, mapping: Mapping[str, str]):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "mapping", mapping)


class StreamDiagram(Record):
    """Finitely many streams and stream maps between them, named; equal
    only to itself."""

    _fields = ("objects", "arrows")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, objects: Mapping[str, Stream], arrows: Mapping[str, DiagramArrow]):
        for name, arrow in arrows.items():
            if arrow.source not in objects or arrow.target not in objects:
                raise IllTypedDiagram(f"arrow {name!r} references a missing object")
            check = is_stream_map(arrow.mapping, objects[arrow.source], objects[arrow.target])
            if not check.ok:
                raise IllTypedDiagram(f"arrow {name!r} is not a stream map")
        object.__setattr__(self, "objects", objects)
        object.__setattr__(self, "arrows", arrows)

    def object_keys(self) -> list[str]:
        return sorted(self.objects)


def _product_many(
    spaces: Sequence[FiniteSpace],
    arrows: Sequence[tuple[int, int, Mapping[str, str]]],
) -> tuple[FiniteSpace, dict[str, tuple[str, ...]]]:
    """The compatible tuples of the spaces, as a subspace of their product.

    A tuple t is compatible when mapping[t[i]] == t[j] for every arrow
    (i, j, mapping). Coordinates are assigned in order and each arrow is
    tested as soon as both of its ends are assigned, so an arrow from an
    earlier coordinate forces the later one and only compatible tuples are
    built. The subspace comes from :func:`spaces._tuple_space`, so a single
    factor keeps its own point names and one-object limits return the
    object itself (cut down by its self-loops)."""
    k = len(spaces)
    forced: list[list[tuple[int, Mapping[str, str]]]] = [[] for _ in range(k)]
    checked: list[list[tuple[int, Mapping[str, str]]]] = [[] for _ in range(k)]
    for i, j, mapping in arrows:
        if i < j:
            forced[j].append((i, mapping))
        else:
            checked[i].append((j, mapping))
    combo: list[str] = [""] * k
    combos: list[tuple[str, ...]] = []

    def extend(j: int) -> None:
        if j == k:
            combos.append(tuple(combo))
            return
        if forced[j]:
            i, mapping = forced[j][0]
            candidates: Sequence[str] = (mapping[combo[i]],)
        else:
            candidates = spaces[j].points
        for x in candidates:
            combo[j] = x
            if all(mapping[combo[i]] == x for i, mapping in forced[j]) and all(
                mapping[x] == combo[i] for i, mapping in checked[j]
            ):
                extend(j + 1)

    extend(0)
    return _tuple_space(spaces, combos, "limit")


def limit(diagram: StreamDiagram) -> tuple[Stream, dict[str, StreamMap]]:
    """Compatible tuples inside the product of the objects, with the initial
    structure over the projections."""
    keys = diagram.object_keys()
    slot = {k: i for i, k in enumerate(keys)}
    base, assoc = _product_many(
        [diagram.objects[k].space for k in keys],
        [(slot[a.source], slot[a.target], a.mapping) for a in diagram.arrows.values()],
    )
    legs = {
        k: {name: assoc[name][slot[k]] for name in base.points} for k in keys
    }
    stream, stream_legs = initial_structure(
        base, [(legs[k], diagram.objects[k]) for k in keys]
    )
    return stream, dict(zip(keys, stream_legs))


def colimit(diagram: StreamDiagram) -> tuple[Stream, dict[str, StreamMap]]:
    """Quotient of the tagged disjoint union by the equivalence the arrows
    generate, with the final structure over the insertions."""
    keys = diagram.object_keys()
    streams = [diagram.objects[k] for k in keys]
    space, inclusions = coproduct_space([s.space for s in streams], keys)
    tagged = dict(zip(keys, inclusions))
    parent = {p: p for p in space.points}

    def find(p: str) -> str:
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for arrow in diagram.arrows.values():
        src_inc = tagged[arrow.source]
        dst_inc = tagged[arrow.target]
        for x in diagram.objects[arrow.source].space.points:
            union(src_inc[x], dst_inc[arrow.mapping[x]])
    classes: dict[str, set[str]] = {}
    for p in space.points:
        classes.setdefault(find(p), set()).add(p)
    base, projection = quotient_space(space, classes.values())
    legs = []
    for k, s in zip(keys, streams):
        legs.append((s, {p: projection[tagged[k][p]] for p in s.space.points}))
    stream, stream_legs = final_structure(base, legs)
    return stream, dict(zip(keys, stream_legs))


def enumerate_point_maps(
    source: FiniteSpace, target: FiniteSpace
) -> Iterator[dict[str, str]]:
    """Every function between the point sets, in deterministic order."""
    if source.n == 0:
        yield {}
        return
    for choice in itertools.product(target.points, repeat=source.n):
        yield dict(zip(source.points, choice))


def enumerate_stream_maps(source: Stream, target: Stream) -> list[dict[str, str]]:
    """Every point map that is a stream map."""
    return [
        f
        for f in enumerate_point_maps(source.space, target.space)
        if is_stream_map(f, source, target).ok
    ]


def stream_isomorphism(s: Stream, t: Stream) -> dict[str, str] | None:
    """A point bijection carrying one stream onto the other, or None.

    Backtracking over points grouped by local invariants (minimal-open size,
    generator graph size, specialization degrees); intended for small models.
    """
    if s.space.n != t.space.n:
        return None

    def signature(stream: Stream, p: str) -> tuple:
        space = stream.space
        i = space.index(p)
        mo = space.min_open_rows[i]
        spec_in = sum(
            1 for row in space.min_open_rows if row >> i & 1
        )
        return (mo.bit_count(), spec_in, stream.gen_of(p).graph_size())

    source_sigs = {p: signature(s, p) for p in s.space.points}
    target_pool: dict[tuple, list[str]] = {}
    for q in t.space.points:
        target_pool.setdefault(signature(t, q), []).append(q)
    if sorted(source_sigs.values()) != sorted(
        sig for sig, qs in target_pool.items() for _ in qs
    ):
        return None

    order = sorted(s.space.points, key=lambda p: (source_sigs[p], p))
    assignment: dict[str, str] = {}
    used: set[str] = set()

    def compatible(p: str, q: str) -> bool:
        for p2, q2 in assignment.items():
            if (p2 in s.space.min_open(p)) != (q2 in t.space.min_open(q)):
                return False
            if (p in s.space.min_open(p2)) != (q in t.space.min_open(q2)):
                return False
        return True

    def extend(k: int) -> bool:
        if k == len(order):
            return _is_full_stream_iso(s, t, assignment)
        p = order[k]
        for q in target_pool.get(source_sigs[p], []):
            if q in used or not compatible(p, q):
                continue
            assignment[p] = q
            used.add(q)
            if extend(k + 1):
                return True
            del assignment[p]
            used.discard(q)
        return False

    if extend(0):
        return dict(assignment)
    return None


def _is_full_stream_iso(s: Stream, t: Stream, f: Mapping[str, str]) -> bool:
    for p in s.space.points:
        if {f[q] for q in s.space.min_open(p)} != t.space.min_open(f[p]):
            return False
        g = s.gen_of(p)
        relabeled = {(f[a], f[b]) for a, b in g.pairs()}
        if relabeled != set(t.gen_of(f[p]).pairs()):
            return False
    return True
