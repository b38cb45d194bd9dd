"""Shared oracles and corpus fixtures.

Oracles here are deliberately naive (fixpoint iteration, quantifier scans,
partition searches) and independent of the bitmask implementations they
check.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import random

import pytest

from finstream import (
    AlternatingChain,
    Circulation,
    FuncPrecirculation,
    Precirculation,
    Preorder,
    Relation,
    StoredPrecirculation,
    Stream,
    StreamMap,
    all_opens,
    chaotic_precirculation,
    circulation_from_generators,
    closure_set,
    cosheafify,
    directed_circle,
    directed_interval,
    directed_square,
    boundary_square,
    empty_stream,
    enumerate_circulations,
    interior,
    is_connected,
    is_stream_map,
    join,
    join_circulations,
    point_stream,
    product,
    product_space,
    product_stream,
    pullback,
    space_from_min_opens,
    specialization_circulation,
    stream_from_generators,
    subspace,
    substream,
    transitive_reflexive_closure,
    trivial_circulation,
    trivial_stream,
    tuple_point,
)
from finstream._kernels import closure_rows, image_rows, reach, transpose_rows
from finstream.circulation import (
    _embed_rows,
    _indices_in,
    _join_on,
    _require_saturated,
    _saturate,
    _shortest_chain,
)
from finstream.corpus import all_spaces, random_preorder, random_stream, spaces_upto
from finstream.errors import (
    CarrierMismatch,
    FormatError,
    IllTypedDiagram,
    InvalidPartition,
    MissingPoint,
    NotContinuous,
    NotMinimal,
    NotRelated,
    NotStreamMap,
    UnknownPoint,
)
from finstream.formats import (
    PRECIRCULATION_FORMAT,
    STREAM_FORMAT,
    _require,
    parse_space,
)
from finstream.relations import _checked_rows, iter_bits
from finstream.spaces import FiniteSpace, closure_mask, require_open_mask


def canonical_dumps_oracle(obj):
    """The canonical text of a JSON value as the standard library writes
    it: the line ``formats.canonical_dumps`` stands for."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


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


def bounded_interval(p, x, y):
    """All z with x <= z and z <= y: the up-set row of x and the down-set
    row of y (UnknownPoint for a name off the carrier)."""
    up = p.rows[p.index(x)]
    j = p.index(y)
    (down,) = transpose_rows([row >> j & 1 for row in p.rows], 1)
    return p.set_of(up & down)


def is_convex(p, points):
    """True iff x <= y <= z with x, z in the set forces y into the set, on
    bitmask rows: no point both above and below the set lies outside it.
    ``convex_oracle`` is the quantifier scan it is tested against."""
    mask = p.mask_of(points)
    up = reach(mask, p.rows)
    down = reach(mask, transpose_rows(p.rows, p.n))
    return not (up & down & ~mask)


def half_cosheaf_holds(pc, collection):
    """The join of the values on the members sits inside the value on their
    union: the half of the gluing condition that monotonicity gives."""
    space = pc.space
    masks = [space.mask_of(open_set) for open_set in collection]
    union = 0
    for mask in masks:
        union |= mask
    joined = _join_on(space, union, (pc.rows_on(mask) for mask in masks))
    big = pc.rows_on(union)
    return all(not joined[i] & ~big[i] for i in range(space.n))


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


def box_identity_oracle(s, t):
    """The pairs of opens (U, V), as sorted point tuples, on which the
    product stream's value on U x V differs from the componentwise product of
    the two values. Empty on every pair of streams: the product's generator
    at (x, y) is gen(x) x gen(y), and a reflexive step moves one coordinate
    at a time."""
    prod, _, _ = product_stream(s, t)
    failures = []
    for umask in all_opens(s.space):
        upoints = s.space.set_of(umask)
        for vmask in all_opens(t.space):
            vpoints = t.space.set_of(vmask)
            box = [tuple_point(x, y) for x in upoints for y in vpoints]
            if prod.value(box) != product([s.value_mask(umask), t.value_mask(vmask)]):
                failures.append((tuple(sorted(upoints)), tuple(sorted(vpoints))))
    return failures


def pseudo_circulation_oracle(s, family):
    """Gluing over a family of (not necessarily open) subsets, each a
    neighborhood of every point of the union it contains: the value on the
    union equals the join of the substream values and the join of the plain
    restrictions. A family without that neighborhood condition is outside
    the theorem: ValueError names its first point in point order."""
    space = s.space
    sets = [frozenset(a) for a in family]
    union = frozenset().union(*sets)
    covered = frozenset().union(*(interior(space, a) for a in sets))
    for p in space.points:
        if p in union and p not in covered:
            raise ValueError(f"no member is a neighborhood of {p!r}")
    carrier = sorted(union)
    big = s.value(carrier)
    via_substreams = join(
        [substream(s, a)[0].underlying() for a in sets], carrier=carrier
    )
    via_restrictions = join([big.restrict(a) for a in sets], carrier=carrier)
    return big == via_substreams == via_restrictions


def antisymmetric_convexity_oracle(s):
    """(hypothesis, antisymmetric): the hypothesis is that the space is T0
    and every minimal open is convex in the underlying preorder (each point
    has a local base of convex neighborhoods); under it the underlying
    preorder must be antisymmetric."""
    space = s.space
    under = s.underlying()
    t0 = Preorder(space.points, space.min_open_rows).is_antisymmetric()
    convex_base = all(is_convex(under, space.min_open(x)) for x in space.points)
    return t0 and convex_base, under.is_antisymmetric()


def stream_map_witness_oracle(f, source, target, mode):
    """is_stream_map's witness, by names: the first target open (minimal
    opens in point order, or every open ascending) whose preimage's value
    has a pair (a, b), in point order, whose images the open's value does
    not relate."""
    space = target.space
    if mode == "fast":
        masks = list(dict.fromkeys(space.min_open_rows))
    else:
        masks = list(all_opens(space))
    for umask in masks:
        u = space.set_of(umask)
        value = source.value([p for p in source.space.points if f[p] in u])
        image = target.value(u)
        for a, b in sorted(value.pairs()):
            if not image.has(f[a], f[b]):
                return tuple(sorted(u)), a, b
    return None


def cosheafify_by_enumeration(pc):
    """Oracle for cosheafification: join of every circulation dominated by
    the precirculation on all opens."""
    space = pc.space
    opens = all_opens(space)
    bounds = {m: pc.rows_on(m) for m in opens}
    dominated = []
    for circ in enumerate_circulations(space):
        ok = True
        for m in opens:
            rows = circ.value_rows(m)
            bound = bounds[m]
            if any(rows[i] & ~bound[i] for i in range(space.n)):
                ok = False
                break
        if ok:
            dominated.append(circ)
    return join_circulations(dominated)


def convex_restriction_oracle(s, points):
    """For a subset convex in the underlying preorder: the value on every
    open that contains the subset's closure restricts on the subset to the
    underlying preorder's restriction."""
    subset = frozenset(points)
    under = s.underlying()
    target = under.restrict(subset)
    closed = closure_mask(s.space, s.space.mask_of(subset))
    return all(
        s.value_mask(umask).restrict(subset) == target
        for umask in all_opens(s.space)
        if not closed & ~umask
    )


def convex_cover_identity_oracle(s, open_set):
    """(hypothesis, identity) on an open set. The hypothesis: every point of
    the set has a convex neighborhood whose closure stays inside the set.
    The identity (None when the hypothesis fails): the value on the set is
    the join of the underlying preorder restricted to the convex subsets
    with closure inside the set. Decided by enumerating every subset of the
    eligible points (those whose closure stays in the set)."""
    space = s.space
    mask = require_open_mask(space, space.mask_of(open_set))
    under = s.underlying()
    eligible = [
        p
        for p in space.set_of(mask)
        if not closure_mask(space, space.mask_of([p])) & ~mask
    ]
    candidates = []
    for r in range(len(eligible) + 1):
        for combo in itertools.combinations(sorted(eligible), r):
            subset = frozenset(combo)
            if closure_mask(space, space.mask_of(subset)) & ~mask:
                continue
            if is_convex(under, subset):
                candidates.append(subset)
    covered = set()
    for a in candidates:
        covered.update(interior(space, a))
    if covered != space.set_of(mask):
        return False, None
    carrier = sorted(space.set_of(mask))
    rhs = join([under.restrict(a) for a in candidates], carrier=carrier)
    return True, s.value_mask(mask) == rhs


def open_sets(space):
    return [space.set_of(m) for m in all_opens(space)]


def open_mask_oracle(space, mask):
    """Openness by definition, bit by bit: every set bit names a point, and
    each such point's minimal open lies inside the mask."""
    if mask < 0 or mask >= 1 << space.n:
        return False
    return all(
        space.min_open_rows[i] & ~mask == 0 for i in range(space.n) if mask >> i & 1
    )


def continuity_oracle(f, src, dst):
    """The definition: the preimage of every open is open."""
    src_opens = open_sets(src)
    return all(
        frozenset(p for p in src.points if f[p] in v) in src_opens
        for v in open_sets(dst)
    )


def isomorphism_oracle(s, t):
    """The definition, over every bijection of the points: one carrying the
    opens of s onto the opens of t and the value of s on each open U onto
    the value of t on the image of U; None when no bijection does."""
    if s.space.n != t.space.n:
        return None
    s_opens = open_sets(s.space)
    t_opens = set(open_sets(t.space))
    for image in itertools.permutations(t.space.points):
        f = dict(zip(s.space.points, image))
        if {frozenset(f[p] for p in u) for u in s_opens} != t_opens:
            continue
        if all(
            {(f[a], f[b]) for a, b in s.value(u).pairs()}
            == set(t.value([f[p] for p in u]).pairs())
            for u in s_opens
        ):
            return f
    return None


def relabelled(space, gens, rename):
    """The stream from the generators with every point p renamed to
    rename[p]."""
    table = {rename[p]: [rename[q] for q in space.min_open(p)] for p in space.points}
    renamed = {
        rename[p]: transitive_reflexive_closure(
            Relation.build(table[rename[p]], [(rename[a], rename[b]) for a, b in g.pairs()])
        )
        for p, g in gens.items()
    }
    return stream_from_generators(space_from_min_opens(table.keys(), table), renamed)


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


def quotient_space_oracle(space, partition):
    """quotient_space by a fixed point per class: the minimal open of a class
    is the smallest open that is a union of classes and contains it, grown
    alternately under minimal opens and under classes until stable, then
    validated through space_from_min_opens. The same errors in the same
    order."""
    classes = [tuple(sorted(set(c))) for c in partition]
    if any(not c for c in classes):
        raise InvalidPartition("empty class")
    seen = {}
    for c in classes:
        for p in c:
            if p not in space:
                raise UnknownPoint(f"partition names unknown point {p!r}")
            if p in seen:
                raise InvalidPartition(f"{p!r} occurs in more than one class")
            seen[p] = c[0]
    if len(seen) != space.n:
        missing = sorted(set(space.points) - set(seen))
        raise InvalidPartition(f"partition misses points {missing!r}")
    class_mask = {c[0]: space.mask_of(c) for c in classes}
    projection = {p: seen[p] for p in space.points}

    def saturate_open(mask):
        while True:
            grown = mask
            for i in iter_bits(mask):
                grown |= space.min_open_rows[i]
            for cmask in class_mask.values():
                if grown & cmask:
                    grown |= cmask
            if grown == mask:
                return mask
            mask = grown

    table = {
        name: {projection[p] for p in space.set_of(saturate_open(cmask))}
        for name, cmask in class_mask.items()
    }
    return space_from_min_opens(table.keys(), table), projection


def coproduct_space_oracle(family, tags):
    """coproduct_space (two or more summands) through the tagged name table
    and space_from_min_opens."""
    table = {}
    inclusions = []
    for tag, space in zip(tags, family):
        inc = {p: f"{tag}:{p}" for p in space.points}
        inclusions.append(inc)
        for p in space.points:
            table[inc[p]] = {inc[q] for q in space.min_open(p)}
    return space_from_min_opens(table.keys(), table), inclusions


def relation_product_oracle(factors):
    """relations.product by testing every pair of tuples coordinatewise."""
    tuples = list(itertools.product(*(f.carrier for f in factors)))
    carrier = tuple(sorted(tuple_point(*t) for t in tuples))
    parts = {tuple_point(*t): t for t in tuples}
    rows = []
    for p in carrier:
        row = 0
        for k, q in enumerate(carrier):
            if all(f.has(x, y) for f, x, y in zip(factors, parts[p], parts[q])):
                row |= 1 << k
        rows.append(row)
    cls = Preorder if all(isinstance(f, Preorder) for f in factors) else Relation
    return cls(carrier, tuple(rows))


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


def parse_stream_oracle(obj, strict=True):
    """parse_stream through Preorders: each gen table entry is checked and
    built by Preorder.build on its point's minimal open, then handed to the
    public Circulation constructor (strict) or to
    circulation_from_generators (lax)."""
    space = parse_space(obj)
    table = _require(obj, "gen", dict)
    for key in table:
        if key not in space:
            raise FormatError(f"gen table keys unknown point {key!r}")
    gens = {}
    for x in space.points:
        if x not in table:
            raise FormatError(f"gen table misses {x!r}")
        raw = table[x]
        if not isinstance(raw, list) or not all(
            isinstance(pair, list) and len(pair) == 2 and all(isinstance(p, str) for p in pair)
            for pair in raw
        ):
            raise FormatError("pairs must be lists of two point names")
        gens[x] = Preorder.build(space.min_open(x), [tuple(pair) for pair in raw])
    if strict:
        return Stream(space, Circulation(space, [gens[x] for x in space.points]))
    return Stream(space, circulation_from_generators(space, gens))


def space_from_min_opens_oracle(points, min_open):
    """space_from_min_opens as it was before its one-walk rewrite: a
    missing point or unknown member in point order, then an unknown key,
    then the nesting rule, each open's positions walked a second time."""
    pts = tuple(sorted(set(points)))
    index = {p: i for i, p in enumerate(pts)}
    rows = []
    for p in pts:
        if p not in min_open:
            raise MissingPoint(f"min_open table misses {p!r}")
        mask = 0
        for q in min_open[p]:
            if q not in index:
                raise UnknownPoint(f"min_open({p!r}) contains unknown point {q!r}")
            mask |= 1 << index[q]
        rows.append(mask)
    for q in min_open:
        if q not in index:
            raise UnknownPoint(f"min_open table keys unknown point {q!r}")
    for i, p in enumerate(pts):
        if not rows[i] >> i & 1:
            raise NotMinimal(f"{p!r} not in its own minimal open", pair=(p, p))
        for j in iter_bits(rows[i]):
            if rows[j] & ~rows[i]:
                raise NotMinimal(
                    f"min_open({pts[j]!r}) not inside min_open({p!r})", pair=(p, pts[j])
                )
    return FiniteSpace(pts, tuple(rows))


def space_reader_oracle(obj):
    """parse_space as it was before the one-pass reader: the point list's
    names and repeats, then every minimal-open entry's names in table
    order, then :func:`space_from_min_opens_oracle`."""
    points = _require(obj, "points")
    if not isinstance(points, list) or not all(isinstance(p, str) for p in points):
        raise FormatError("field 'points' must be a list of point names")
    seen = set()
    for p in points:
        if p in seen:
            raise FormatError(f"point {p!r} is listed twice")
        seen.add(p)
    table = _require(obj, "min_open", dict)
    for p, members in table.items():
        if not isinstance(members, list) or not all(isinstance(q, str) for q in members):
            raise FormatError(f"min_open({p!r}) must be a list of point names")
    return space_from_min_opens_oracle(points, table)


def stream_reader_oracle(obj, strict=True):
    """parse_stream as it was before the one-pass reader, the reference for
    its results, its errors and their order: :func:`space_reader_oracle`,
    then the gen table's keys, then point by point a missing entry or the
    pair list read by ``relations._checked_rows`` on the point's minimal
    open, then the saturation test (strict) or saturation (lax)."""
    space = space_reader_oracle(obj)
    table = _require(obj, "gen", dict)
    for key in table:
        if key not in space:
            raise FormatError(f"gen table keys unknown point {key!r}")
    points = space.points
    family = []
    for x, mo in zip(points, space.min_open_rows):
        if x not in table:
            raise FormatError(f"gen table misses {x!r}")
        where = list(iter_bits(mo))
        slot = {points[a]: k for k, a in enumerate(where)}
        family.append(_checked_rows(slot, [1 << a for a in where], table[x], True, listed=True))
    family = tuple(family)
    if strict:
        _require_saturated(space, family)
        return Stream(space, Circulation._by_construction(space, family))
    return Stream(space, _saturate(space, family))


def _space_body_oracle(space):
    return {
        "points": list(space.points),
        "min_open": {p: sorted(space.min_open(p)) for p in space.points},
    }


def serialize_stream_oracle(s):
    """serialize_stream through Preorders: each generator listed by pairs()."""
    gen = {x: [list(pair) for pair in s.gen_of(x).pairs()] for x in s.space.points}
    return {"format": STREAM_FORMAT, **_space_body_oracle(s.space), "gen": gen}


def serialize_precirculation_oracle(pc):
    """serialize_precirculation through Preorders: each open's value built by
    assign_mask and listed by pairs()."""
    assign = [
        {
            "open": sorted(pc.space.set_of(mask)),
            "pairs": [list(pair) for pair in pc.assign_mask(mask).pairs()],
        }
        for mask in sorted(all_opens(pc.space))
    ]
    return {
        "format": PRECIRCULATION_FORMAT,
        **_space_body_oracle(pc.space),
        "assign": assign,
        "exact": bool(getattr(pc, "exact", True)),
    }


def unsaturated_stream(rng, space):
    """A stream saturated from random generators that are not: gen(x) need
    not hold the generators of min_open(x)'s points until saturation adds
    them."""
    gen = tuple(random_preorder(rng, sorted(space.min_open(x))) for x in space.points)
    return Stream(space, circulation_from_generators(space, dict(zip(space.points, gen))))


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


def cell_chain_table(n, closed):
    """The stars of ``models._cell_chain``, each as its chain of cells."""
    table = {f"e{i}": [f"e{i}"] for i in range(1, n + 1)}
    for i in range(n if closed else n + 1):
        chain = [f"v{i}"]
        if i >= 1 or closed:
            chain.insert(0, f"e{i or n}")
        if i < n:
            chain.append(f"e{i + 1}")
        table[f"v{i}"] = chain
    return table


def cell_chain_oracle(n, closed):
    """The cell chain of ``models._cell_chain`` through the checked
    constructors: the space through ``space_from_min_opens``, and each
    star's chain as the Preorder of its ordered pairs, whose carriers and
    saturation the Circulation constructor checks."""
    table = cell_chain_table(n, closed)
    space = space_from_min_opens(table, table)
    gens = [
        Preorder.build(table[x], itertools.combinations_with_replacement(table[x], 2))
        for x in space.points
    ]
    return Stream(space, Circulation(space, gens))


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


# The former stored form of a circulation: each generator as one full-space
# row per point, zero off its point's minimal open, and the constructions
# that built families of that shape. Oracles for the rows a Circulation now
# keeps on each minimal open only.


def full_gen_rows(circ):
    """A circulation's generators in the full-row form: gen(x) as n rows,
    zero off min_open(x). Asserts that x stores one row per point of its
    minimal open."""
    space = circ.space
    out = []
    for mo, rows in zip(space.min_open_rows, circ._gen_rows):
        where = list(iter_bits(mo))
        assert len(rows) == len(where)
        full = [0] * space.n
        for a, row in zip(where, rows):
            full[a] = row
        out.append(tuple(full))
    return tuple(out)


def position_rows(space, family):
    """A full-row family in the stored form: each member's rows at its
    point's minimal open, in ascending point order."""
    return tuple(
        tuple(rows[a] for a in iter_bits(mo)) for mo, rows in zip(space.min_open_rows, family)
    )


def full_embed_family(space, gen):
    """One Preorder per point as full-space rows."""
    return tuple(_embed_rows(p, space) for p in gen)


def full_saturate(space, *families):
    """The saturation of full-row families: gen(x) is the join, inside
    min_open(x), of every family's generators of min_open(x)'s points."""
    return tuple(
        full_carrier_join(space, mo, [family[j] for j in iter_bits(mo) for family in families])
        for mo in space.min_open_rows
    )


def full_require_saturated(space, family):
    """The least point whose full-row generator misses a row of a generator
    inside its minimal open, or None."""
    for x, (mo, big) in enumerate(zip(space.min_open_rows, family)):
        for y in iter_bits(mo):
            if any(row & ~big[a] for a, row in enumerate(family[y])):
                return space.points[x]
    return None


def full_final_lift(target, legs):
    """The final lift in the full-row form: the member at a target point j
    is the image of every leg generator gen(y) with f(y) = j, saturated."""
    family = [[0] * target.n for _ in range(target.n)]
    for s, f in legs:
        fidx = [target.index(f[p]) for p in s.space.points]
        for y, rows in enumerate(full_gen_rows(s.circ)):
            image_rows(rows, fidx, family[fidx[y]])
    return full_saturate(target, family)


def full_initial_lift(source, legs):
    """The initial lift in the full-row form: at x, row a of min_open(x) is
    min_open(x) cut down by the preimage of row f(a) of every leg's
    generator at f(x)."""
    family = [[mo if mo >> a & 1 else 0 for a in range(source.n)] for mo in source.min_open_rows]
    for f, s in legs:
        fidx = [s.space.index(f[p]) for p in source.points]
        fibres = transpose_rows([1 << t for t in fidx], s.space.n)
        gens = full_gen_rows(s.circ)
        for x, mo in enumerate(source.min_open_rows):
            for a in iter_bits(mo):
                family[x][a] &= reach(gens[fidx[x]][fidx[a]], fibres)
    return tuple(tuple(rows) for rows in family)


def antisymmetry_oracle(s):
    """check --which antisymmetry by closing the global value: the
    underlying preorder's rows, tested pair by pair."""
    everything = (1 << s.space.n) - 1
    return Relation(s.space.points, s.circ.value_rows(everything)).is_antisymmetric()


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


def chain_witness_all_generators(s, open_set, x, y):
    """chain_witness trying, at every point it expands, every generator of
    the open in point order, not only those whose minimal open holds the
    point."""
    space = s.space
    mask = require_open_mask(space, space.mask_of(open_set))
    i, j = _indices_in(space, mask, x, y, "the open set")
    full = full_gen_rows(s.circ)
    gens = [(space.points[z], full[z]) for z in iter_bits(mask)]
    chain = _shortest_chain(i, j, lambda a: ((z, rows[a]) for z, rows in gens))
    if chain is None:
        raise NotRelated(f"{x!r} is not below {y!r} on the open set")
    return [(space.points[a], z, space.points[b]) for a, z, b in chain]


def alternating_witness_fixed_steps(s, u, v, x, y):
    """alternating_witness searching, at every point, a fixed tuple of the
    two opens' value rows, U's before V's; the pair must be related."""
    space = s.space
    steps = (("U", s.circ.value_rows(space.mask_of(u))), ("V", s.circ.value_rows(space.mask_of(v))))
    chain = _shortest_chain(
        space.index(x), space.index(y), lambda a: ((label, rows[a]) for label, rows in steps)
    )
    points = (x,) + tuple(space.points[b] for _, _, b in chain)
    return AlternatingChain(points, tuple(label for _, label, _ in chain))


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
    return canonical_dumps_oracle(report), 0 if related else 1


class Former:
    """The twelve records as ``dataclasses`` declared them: the decorator,
    the fields with their defaults and hash flags, and the ``__post_init__``
    checks, without the hand-written methods the current classes keep.
    Oracles for what the decorator made: ``__init__``, ``__eq__``,
    ``__hash__``, ``__repr__``, ``__match_args__`` and the frozen
    ``__setattr__`` and ``__delattr__``."""

    @dataclasses.dataclass(frozen=True, eq=False)
    class Relation:
        carrier: tuple[str, ...]
        rows: tuple[int, ...]

    @dataclasses.dataclass(frozen=True)
    class FiniteSpace:
        points: tuple[str, ...]
        min_open_rows: tuple[int, ...]

    @dataclasses.dataclass(frozen=True, init=False)
    class Circulation(Precirculation):
        space: FiniteSpace
        _gen_rows: tuple[tuple[int, ...], ...]

    @dataclasses.dataclass(frozen=True)
    class Stream:
        space: FiniteSpace
        circ: Circulation

        def __post_init__(self):
            if self.circ.space != self.space:
                raise CarrierMismatch("circulation lives on a different space")

    @dataclasses.dataclass(frozen=True)
    class CosheafWitness:
        collection: tuple[tuple[str, ...], ...]
        x: str
        y: str

    @dataclasses.dataclass(frozen=True)
    class CirculationCheck:
        ok: bool
        witness: CosheafWitness | None = None

    @dataclasses.dataclass(frozen=True)
    class AlternatingChain:
        points: tuple[str, ...]
        labels: tuple[str, ...]

    @dataclasses.dataclass(frozen=True)
    class StreamMapCheck:
        ok: bool
        continuous: bool
        witness: tuple[tuple[str, ...], str, str] | None = None

    @dataclasses.dataclass(frozen=True)
    class StreamMap:
        source: Stream
        target: Stream
        mapping: dict[str, str] = dataclasses.field(hash=False)

        def __post_init__(self):
            check = is_stream_map(self.mapping, self.source, self.target)
            if not check.continuous:
                raise NotContinuous("not continuous, hence not a stream map")
            if not check.ok:
                raise NotStreamMap(f"order not preserved on {check.witness[0]!r}")

    @dataclasses.dataclass(frozen=True)
    class DiagramArrow:
        source: str
        target: str
        mapping: Mapping[str, str]

    @dataclasses.dataclass(frozen=True, eq=False)
    class StreamDiagram:
        objects: Mapping[str, Stream]
        arrows: Mapping[str, DiagramArrow]

        def __post_init__(self):
            for name, arrow in self.arrows.items():
                if arrow.source not in self.objects or arrow.target not in self.objects:
                    raise IllTypedDiagram(f"arrow {name!r} references a missing object")
                check = is_stream_map(
                    arrow.mapping, self.objects[arrow.source], self.objects[arrow.target]
                )
                if not check.ok:
                    raise IllTypedDiagram(f"arrow {name!r} is not a stream map")

    @dataclasses.dataclass(frozen=True)
    class PathologyFixture:
        host: Stream
        corner_space: FiniteSpace
        inclusion: Mapping[str, str]
        pulled: Precirculation


# The generated repr names the class by its qualified name, as it was at top level.
for _former in vars(Former).values():
    if isinstance(_former, type):
        _former.__qualname__ = _former.__name__


def former_class(record):
    """The former declaration of a record's class; a Preorder's is Relation."""
    return next(
        getattr(Former, c.__name__) for c in type(record).__mro__ if hasattr(Former, c.__name__)
    )


def former_record(record):
    """The former record holding the same field values (the same objects),
    made without its ``__init__``."""
    cls = former_class(record)
    old = object.__new__(cls)
    for f in dataclasses.fields(cls):
        object.__setattr__(old, f.name, getattr(record, f.name))
    return old


# Each test draws from its own generator, seeded from its node id, and each
# session corpus from its own fixed seed, so a test sees the same data run
# alone, by -k or in the full suite.
SEED = 20240811


@pytest.fixture
def rng(request):
    return random.Random(f"{SEED}:{request.node.nodeid}")


@pytest.fixture(scope="session")
def tiny_spaces():
    """All spaces on up to 3 labeled points."""
    return spaces_upto(3)


def make_small_spaces(seed=f"{SEED}:small_spaces"):
    """All spaces on up to 3 points plus a seeded sample of 4-point spaces."""
    sample = all_spaces(4)
    picks = random.Random(seed).sample(range(len(sample)), 40)
    return spaces_upto(3) + [sample[i] for i in picks]


def make_corpus_streams(small_spaces, seed=f"{SEED}:corpus_streams"):
    """Fixture models plus seeded random streams over the small spaces."""
    rng = random.Random(seed)
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


@pytest.fixture(scope="session")
def small_spaces():
    return make_small_spaces()


@pytest.fixture(scope="session")
def corpus_streams(small_spaces):
    return make_corpus_streams(small_spaces)
