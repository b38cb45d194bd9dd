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
from .circulation import Stream, _carries_generators, _final_lift, _initial_lift
from .errors import IllTypedDiagram, NotContinuous, NotStreamMap
from .relations import tuple_point
from .spaces import (
    FiniteSpace,
    _tuple_space,
    coproduct_space,
    is_continuous,
    product_space,
    quotient_space,
    require_continuous,
    subspace,
)


class StreamMapCheck(Record):
    _fields = ("ok", "continuous", "witness")

    def __init__(
        self, ok: bool, continuous: bool, witness: tuple[tuple[str, ...], str, str] | None = None
    ):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "continuous", continuous)
        object.__setattr__(self, "witness", witness)


def is_stream_map(f: Mapping[str, str], source: Stream, target: Stream) -> StreamMapCheck:
    """Does the point map preserve the circulations?

    It first asks whether f carries every source generator row gen(y)[a]
    into the target's gen(f(y))[f(a)], which costs one mask test per pair
    and closes no value. That is the condition on the target's minimal
    opens: the source value on a preimage is the closure of the generators
    over it, and gen(y) is the value on min_open(y), which lies in the
    preimage of min_open(f(y)). Only a map that fails it is scanned on the
    target's minimal opens, in point order, for the witness: the open and
    the pair whose images it fails to relate. The test suite compares both
    with the check on every open of the target."""
    if not is_continuous(f, source.space, target.space):
        return StreamMapCheck(False, False)
    src, tgt = source.space, target.space
    fidx = [tgt.index(f[p]) for p in src.points]
    fibres = transpose_rows([1 << t for t in fidx], tgt.n)
    if _carries_generators(source, fidx, fibres, target):
        return StreamMapCheck(True, True)
    for umask in dict.fromkeys(tgt.min_open_rows):
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
    equals the cosheafification of the meet of the pullbacks.

    Each leg is checked continuous (``NotContinuous`` otherwise) before the
    lift, which assumes it."""
    for f, s in legs:
        require_continuous(f, source, s.space)
    return _initial_structure(source, legs)


def _initial_structure(
    source: FiniteSpace, legs: Sequence[tuple[Mapping[str, str], Stream]]
) -> tuple[Stream, list[StreamMap]]:
    """:func:`initial_structure` over legs continuous by construction (the
    projections and inclusions built here), with no continuity check; the
    test suite checks those legs."""
    stream = Stream(source, _initial_lift(source, legs))
    return stream, [StreamMap._by_construction(stream, s, dict(f)) for f, s in legs]


def product_stream(s: Stream, t: Stream) -> tuple[Stream, StreamMap, StreamMap]:
    """Product space with the initial structure over the two projections."""
    space = product_space(s.space, t.space)
    first = {tuple_point(x, y): x for x in s.space.points for y in t.space.points}
    second = {tuple_point(x, y): y for x in s.space.points for y in t.space.points}
    stream, (to_s, to_t) = _initial_structure(space, [(first, s), (second, t)])
    return stream, to_s, to_t


def substream(s: Stream, points: Iterable[str]) -> tuple[Stream, StreamMap]:
    """Subspace with the initial structure over the inclusion."""
    space = subspace(s.space, points)
    stream, (leg,) = _initial_structure(space, [({p: p for p in space.points}, s)])
    return stream, leg


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
    (i, j, mapping). Tuples are built level by level, one coordinate per
    level: the first arrow from an earlier coordinate forces the new one,
    and every other arrow is tested at the level where both of its ends are
    assigned (a self-loop at its own), so only compatible tuples are built.
    The subspace comes from :func:`spaces._tuple_space`, so a single factor
    keeps its own point names and one-object limits return the object
    itself (cut down by its self-loops)."""
    forcing: list[tuple[int, Mapping[str, str]] | None] = [None] * len(spaces)
    tests: list[list[tuple[int, int, Mapping[str, str]]]] = [[] for _ in spaces]
    for i, j, mapping in arrows:
        if i < j and forcing[j] is None:
            forcing[j] = (i, mapping)
        else:
            tests[max(i, j)].append((i, j, mapping))
    combos: list[tuple[str, ...]] = [()]
    for j, space in enumerate(spaces):
        if forcing[j] is None:
            grown = [c + (x,) for c in combos for x in space.points]
        else:
            i, mapping = forcing[j]
            grown = [c + (mapping[c[i]],) for c in combos]
        combos = [t for t in grown if all(m[t[a]] == t[b] for a, b, m in tests[j])]
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
    stream, stream_legs = _initial_structure(
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

    Backtracking over point indices grouped by local invariants (minimal-open
    size, closure size, generator graph size), on an explicit stack, so the
    depth is not bounded by the interpreter's recursion limit. A point is
    placed only where it keeps the minimal opens and closures of the points
    already placed, so a full placement is a homeomorphism and is accepted
    when it carries each generator onto the target's. The search is
    exponential in the worst case; on the models the invariants leave few
    candidates per point."""
    n = s.space.n
    if n != t.space.n:
        return None

    def signatures(stream: Stream) -> list[tuple[int, int, int]]:
        space, circ = stream.space, stream.circ
        return [
            (mo.bit_count(), cl.bit_count(), sum(row.bit_count() for _, row in circ.gen_items(z)))
            for z, (mo, cl) in enumerate(zip(space.min_open_rows, space.closure_rows))
        ]

    source_sigs, target_sigs = signatures(s), signatures(t)
    if sorted(source_sigs) != sorted(target_sigs):
        return None
    target_pool: dict[tuple[int, int, int], list[int]] = {}
    for q, sig in enumerate(target_sigs):
        target_pool.setdefault(sig, []).append(q)
    order = sorted(range(n), key=lambda p: (source_sigs[p], p))
    smo, tmo = s.space.min_open_rows, t.space.min_open_rows
    scl, tcl = s.space.closure_rows, t.space.closure_rows
    pools = [target_pool[source_sigs[p]] for p in order]
    mapped = [0] * n
    images = [0] * n
    placed = used = 0

    def fits(p: int, q: int) -> bool:
        return not (
            used >> q & 1
            or reach(smo[p] & placed, images) != tmo[q] & used
            or reach(scl[p] & placed, images) != tcl[q] & used
        )

    def carries(p: int) -> bool:
        q = mapped[p]
        moved = {mapped[a]: reach(row, images) for a, row in s.circ.gen_items(p)}
        return moved == dict(t.circ.gen_items(q))

    # tried[k]: how many of level k's candidates have been taken; level k
    # places order[k], and levels below k hold their current placements
    tried = [0] * n
    k = 0
    while True:
        if k == n:
            if all(carries(p) for p in range(n)):
                return {s.space.points[p]: t.space.points[mapped[p]] for p in order}
        else:
            p, pool = order[k], pools[k]
            while tried[k] < len(pool) and not fits(p, pool[tried[k]]):
                tried[k] += 1
            if tried[k] < len(pool):
                q = pool[tried[k]]
                tried[k] += 1
                mapped[p], images[p] = q, 1 << q
                placed, used = placed | 1 << p, used | 1 << q
                k += 1
                continue
            tried[k] = 0
        if k == 0:
            return None
        k -= 1
        p = order[k]
        placed, used = placed ^ 1 << p, used ^ 1 << mapped[p]
