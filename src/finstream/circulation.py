"""Circulations: coherent per-open-set preorders on a finite space.

A circulation assigns a preorder to every open set so that the value on any
union of opens is the join of the values on the members (the cosheaf/gluing
condition). On a finite space the cover by minimal opens refines every cover,
so a circulation is determined by its values on minimal opens; that family
is the only thing stored, and every other value is derived by joining. Each
point keeps the bitmask rows of its minimal open's points only, in ascending
point order (``FiniteSpace.min_open_positions``), so a circulation stores
the sum of |min_open(x)| rows rather than n rows per point. The
determination is checked against a brute enumeration oracle in the test
suite.

A precirculation only promises monotonicity under inclusion of opens; it is
the raw material that cosheafification turns into the largest circulation
below it.

The minimal-open determination used throughout is special to spaces whose
arbitrary open intersections are open (here: all finite spaces); no claim is
made beyond that setting.
"""

from __future__ import annotations

import itertools
import threading
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from ._kernels import closure_rows, gather_rows, image_rows, is_acyclic, iter_bits, reach, transpose_rows
from ._record import Record
from .errors import (
    CarrierMismatch,
    FormatError,
    InvalidPreorder,
    MissingPoint,
    NotRelated,
    UnknownPoint,
)
from .relations import Preorder, all_preorders
from .spaces import (
    FiniteSpace,
    all_opens,
    is_connected_mask,
    require_continuous,
    require_open_mask,
)

def _embed_rows(p: Preorder, space: FiniteSpace) -> tuple[int, ...]:
    """Graph of p as full-space bitmask rows (zero rows off its carrier)."""
    return tuple(image_rows(p.rows, [space.index(x) for x in p.carrier], [0] * space.n))


def _extract_preorder(space: FiniteSpace, mask: int, full_rows: Sequence[int]) -> Preorder:
    positions = list(iter_bits(mask))
    points = space.points
    carrier = tuple([points[i] for i in positions])
    rows = []
    for i in positions:
        row = full_rows[i]
        rows.append(sum((row >> j & 1) << k for k, j in enumerate(positions)))
    return Preorder(carrier, tuple(rows))


def _close_on_mask(
    space: FiniteSpace, positions: Sequence[int], rows: Sequence[int]
) -> tuple[int, ...]:
    """Transitive-reflexive closure on an open, in full indexing, given the
    open's positions. Only those rows are closed; the rows must be zero off
    them (see :func:`_join_on`) and stay zero."""
    return closure_rows(rows, space.n, positions)


def _join_on(
    space: FiniteSpace, mask: int, members: Iterable[Sequence[int]]
) -> tuple[int, ...]:
    """Join on an open: the closure, restricted to the mask, of the union of
    the members' full-space rows.

    Invariant: every member is zero off the mask, and its rows on the mask
    have no bits outside it. Only the mask's rows of each member are read
    and only they are closed, so a member and the closure cost the open's
    width, not the space's; a member that broke the invariant would lose
    the paths that leave the open."""
    positions = list(iter_bits(mask))
    rows = [0] * space.n
    for member in members:
        for k in positions:
            rows[k] |= member[k]
    return _close_on_mask(space, positions, rows)


class Precirculation:
    """A memoized, thread-safe assignment of preorders to open sets.

    Values are computed and memoized as full-space rows (zero off the open);
    ``compute``, or a subclass's ``_compute``, maps an open mask to them.
    ``assign_mask`` builds the Preorder. Every memo key is an open mask,
    checked on the miss that stored it (see :meth:`rows_on`); a mask that is
    not open, or has a bit outside the space, raises ``NotOpen``."""

    def __init__(
        self, space: FiniteSpace, compute: Callable[[int], Sequence[int]] | None = None
    ):
        self.space = space
        if compute is not None:
            self._compute = compute
        self._memo: dict[int, tuple[int, ...]] = {}
        self._lock = threading.Lock()

    def _compute(self, mask: int) -> tuple[int, ...]:
        raise NotImplementedError

    def rows_on(self, mask: int) -> tuple[int, ...]:
        """The value on an open mask as full-space rows, memoized.

        Openness is checked on a miss only, before the value is computed
        and stored, so every memo key is an open mask checked on the miss
        that stored it and a hit returns at once. A mask that is not open,
        or has a bit outside the space, is never stored: it misses every
        time and raises ``NotOpen``."""
        with self._lock:
            hit = self._memo.get(mask)
        if hit is not None:
            return hit
        require_open_mask(self.space, mask)
        rows = tuple(self._compute(mask))
        with self._lock:
            self._memo[mask] = rows
        return rows

    def assign_mask(self, mask: int) -> Preorder:
        return _extract_preorder(self.space, mask, self.rows_on(mask))

    def assign(self, open_set: Iterable[str]) -> Preorder:
        return self.assign_mask(self.space.mask_of(open_set))


class FuncPrecirculation(Precirculation):
    """A precirculation given by a function from open masks to preorders on
    those opens; each value is checked against its open and embedded once."""

    def __init__(self, space: FiniteSpace, fn: Callable[[int], Preorder]):
        super().__init__(space)
        self._fn = fn

    def _compute(self, mask: int) -> tuple[int, ...]:
        value = self._fn(mask)
        if frozenset(value.carrier) != self.space.set_of(mask):
            raise CarrierMismatch("assignment returned a preorder off its open set")
        return _embed_rows(value, self.space)


class StoredPrecirculation(Precirculation):
    """Values stored on a generating family of opens; any other open answers
    with the monotone hull (closure of the union of stored graphs of stored
    opens inside the query).

    The hull is monotone by construction, so :func:`check_monotone` accepts
    it without a scan, and only a stored open can be the first to break
    gluing, so :func:`is_circulation` checks those opens alone: neither
    enumerates the open lattice. Taken in ascending mask order, a stored
    open glues, once every earlier one does, exactly when its stored value
    lies inside the closure of the stored values within its points'
    minimal opens, so the check reads no hull (``_compute``) unless an open
    fails, and then only that open's, for the witness.

    ``exact`` records whether the hull is known to reproduce the intended
    assignment everywhere, or is merely a lower approximation.
    """

    def __init__(
        self,
        space: FiniteSpace,
        stored: Mapping[frozenset[str], Preorder] | Mapping[tuple[str, ...], Preorder],
        exact: bool = True,
    ):
        super().__init__(space)
        self.exact = exact
        self._stored: dict[int, tuple[int, ...]] = {}
        for open_set, value in stored.items():
            mask = require_open_mask(space, space.mask_of(open_set))
            if mask in self._stored:
                raise FormatError(f"open {sorted(open_set)!r} is stored twice")
            if frozenset(value.carrier) != frozenset(open_set):
                raise CarrierMismatch(f"stored value off its open {sorted(open_set)!r}")
            self._stored[mask] = _embed_rows(value, space)

    @cached_property
    def _holding(self) -> tuple[list[int], list[tuple[int, ...]]]:
        """The stored opens indexed by point: for each point, the bitmask
        of the numbers k of the stored opens that hold it, and the stored
        values by k."""
        return transpose_rows(list(self._stored), self.space.n), list(self._stored.values())

    def _compute(self, mask: int) -> tuple[int, ...]:
        """The hull on W: the closure on W of the stored values on the
        stored opens inside W, which are those that hold no point outside
        W. The points outside W name, through ``_holding``, the stored
        opens to leave out, so no stored mask is tested against W."""
        holding, values = self._holding
        outside = reach(~mask & ((1 << self.space.n) - 1), holding)
        inside = ((1 << len(values)) - 1) & ~outside
        return _join_on(self.space, mask, [values[k] for k in iter_bits(inside)])


def _scatter(rows: list[int], items: Iterable[tuple[int, int]]) -> None:
    """OR each (a, row) pair into the full-space rows at a."""
    for a, row in items:
        rows[a] |= row


def _embed_family(space: FiniteSpace, gen: Sequence[Preorder]) -> tuple[tuple[int, ...], ...]:
    """One Preorder per point, each on exactly its point's minimal open
    (``CarrierMismatch`` otherwise), as the rows of that open's points in
    the space's numbering."""
    if len(gen) < space.n:
        raise CarrierMismatch(f"no generator for {space.points[len(gen)]!r}")
    if len(gen) > space.n:
        raise CarrierMismatch(f"{len(gen)} generators for {space.n} points")
    for x, mo, p in zip(space.points, space.min_open_rows, gen):
        if frozenset(p.carrier) != space.set_of(mo):
            raise CarrierMismatch(f"generator for {x!r} is not on min_open({x!r})")
    family = []
    for p in gen:
        bits = [1 << space.index(x) for x in p.carrier]
        # ascending bits are ascending positions in min_open(x)
        family.append(tuple([reach(row, bits) for _, row in sorted(zip(bits, p.rows))]))
    return tuple(family)


def _require_saturated(space: FiniteSpace, gen_rows: Sequence[Sequence[int]]) -> None:
    """The constructor's saturation test on a generator family stored on the
    minimal opens: gen(y) lies inside gen(x) for every y in min_open(x),
    otherwise ``InvalidPreorder`` naming the least failing x. gen(x) is laid
    out at its points in one working list, which then holds it on all of
    min_open(y)."""
    positions = space.min_open_positions
    big = [0] * space.n
    for x, where in enumerate(positions):
        for a, row in zip(where, gen_rows[x]):
            big[a] = row
        for y in where:
            if y == x:
                continue
            for a, row in zip(positions[y], gen_rows[y]):
                if row & ~big[a]:
                    raise InvalidPreorder(f"generator for {space.points[x]!r} is not saturated")


class Circulation(Precirculation, Record):
    """A circulation stored once, as its generator rows ``_gen_rows``: one
    member per point x, holding the rows of min_open(x)'s points only, in
    ascending point order, each a bitmask in the space's numbering. So
    storing, loading, writing and lifting cost the sum of |min_open(x)|,
    not n squared; ``gen_items(z)`` reads member z as (point index, row)
    pairs. The family is saturated so that gen(x) is the join of
    the gens inside min_open(x), which is the value on min_open(x).
    Equality and hashing read the space and the rows; ``gen`` builds the
    Preorders on first read.

    A circulation is its own precirculation: it joins the generator rows
    over each open and holds the one memo of those values. The constructor
    takes one Preorder per point on exactly its minimal open
    (``CarrierMismatch`` otherwise), and checks saturation without a
    closure: gen(y) lies inside gen(x) for every y in min_open(x)
    (``InvalidPreorder`` naming the least failing x otherwise). gen(x) is
    itself a member of the join and already closed, so that containment is
    exactly "saturating changes nothing". The gluing and monotonicity checks
    accept a circulation without a scan."""

    _fields = ("space", "_gen_rows")

    def __init__(self, space: FiniteSpace, gen: Sequence[Preorder]):
        rows = _embed_family(space, gen)
        _require_saturated(space, rows)
        self._hold(space, rows)

    @classmethod
    def _by_construction(
        cls, space: FiniteSpace, gen_rows: tuple[tuple[int, ...], ...]
    ) -> Circulation:
        """From rows that meet the constructor's conditions; no check."""
        circ = object.__new__(cls)
        circ._hold(space, gen_rows)
        return circ

    def _hold(self, space: FiniteSpace, gen_rows: tuple[tuple[int, ...], ...]) -> None:
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "_gen_rows", gen_rows)
        object.__setattr__(self, "_memo", {})
        object.__setattr__(self, "_lock", threading.Lock())

    @cached_property
    def gen(self) -> tuple[Preorder, ...]:
        space = self.space
        return tuple(
            Preorder(tuple([space.points[a] for a in where]), gather_rows(rows, mo))
            for where, mo, rows in zip(space.min_open_positions, space.min_open_rows, self._gen_rows)
        )

    def gen_items(self, z: int) -> Iterator[tuple[int, int]]:
        """The generator at point index z as (a, row) pairs: for each point a
        of min_open(z), ascending, the bitmask of the b with a <= b. The
        modules outside this one read the stored rows only through it."""
        return zip(self.space.min_open_positions[z], self._gen_rows[z])

    def _steps(self, points: Iterable[int]) -> list[int]:
        """The generator steps of the given points as full-space rows: row a
        is the union of gen(z)'s rows at a over those z, zero off their
        minimal opens."""
        rows = [0] * self.space.n
        for z in points:
            _scatter(rows, self.gen_items(z))
        return rows

    def _compute(self, mask: int) -> tuple[int, ...]:
        # an open holds the minimal open of each of its points, so the steps
        # are zero off the mask, as _close_on_mask needs
        positions = list(iter_bits(mask))
        return _close_on_mask(self.space, positions, self._steps(positions))

    def gen_of(self, x: str) -> Preorder:
        return self.gen[self.space.index(x)]

    def value_rows(self, mask: int) -> tuple[int, ...]:
        return self.rows_on(mask)

    def value_mask(self, mask: int) -> Preorder:
        return _extract_preorder(self.space, mask, self.value_rows(mask))

    def value(self, open_set: Iterable[str]) -> Preorder:
        return self.value_mask(self.space.mask_of(open_set))

    def underlying(self) -> Preorder:
        return self.value_mask((1 << self.space.n) - 1)

    def underlying_is_antisymmetric(self) -> bool:
        """Whether the underlying preorder is antisymmetric, decided without
        closing it. That preorder is the reachability of the generator
        steps, a to b whenever some gen(z) relates them, so it is
        antisymmetric exactly when the steps, self-loops aside, form no
        cycle."""
        return is_acyclic(self._steps(range(self.space.n)))

    def as_precirculation(self) -> Circulation:
        return self

    def __repr__(self) -> str:
        table = {x: sorted(self.gen_of(x).pairs()) for x in self.space.points}
        return f"Circulation({table!r})"


def _saturate(space: FiniteSpace, *families: Sequence[Sequence[int]]) -> Circulation:
    """The circulation generated by families stored as circulations are, one
    generator per point on that point's minimal open: gen(x) is the join,
    inside min_open(x), of every family's generators of min_open(x)'s
    points. Each join is laid out in one working list, zeroed again after
    its closure."""
    positions = space.min_open_positions
    rows = [0] * space.n
    out = []
    for where in positions:
        for j in where:
            for family in families:
                _scatter(rows, zip(positions[j], family[j]))
        closed = _close_on_mask(space, where, rows)
        out.append(tuple([closed[a] for a in where]))
        for a in where:
            rows[a] = 0
    return Circulation._by_construction(space, tuple(out))


def _final_lift(
    target: FiniteSpace, legs: Sequence[tuple[Stream, Mapping[str, str]]]
) -> Circulation:
    """The smallest circulation on the target making every leg (s, f) a
    stream map: the saturation of one family whose member at a target point
    j is the image of every leg generator gen(y) with f(y) = j.

    Continuity puts the image of gen(y) inside min_open(f(y)), and the
    saturation closes each value, so no source value is closed here. With no
    legs every member is empty and the result is trivial."""
    members: list[dict[int, int]] = [{} for _ in range(target.n)]
    for s, f in legs:
        require_continuous(f, s.space, target)
        fidx = [target.index(f[p]) for p in s.space.points]
        images = [1 << t for t in fidx]
        for y in range(s.space.n):
            member = members[fidx[y]]
            for a, row in s.circ.gen_items(y):
                t = fidx[a]
                member[t] = member.get(t, 0) | reach(row, images)
    family = [
        tuple([member.get(t, 0) for t in where])
        for member, where in zip(members, target.min_open_positions)
    ]
    return _saturate(target, family)


def _preimage_rows(
    source: FiniteSpace, fidx: Sequence[int], fibres: Sequence[int], s: Stream
) -> Iterator[tuple[int, int, int]]:
    """(x, k, mask) for each point x of the source and the k-th point a of
    min_open(x), where the continuous f maps the source's point i to s's
    point fidx[i] and ``fibres`` are f's fibres: mask is the preimage of row
    f(a) of s's generator at f(x), the points b with f(a) <= f(b) on
    min_open(f(x)). A circulation on the source makes f a stream map
    exactly when each of its generator rows lies inside these masks.

    s's generator at f(x) is laid out at its points in a working list;
    continuity puts every f(a) in min_open(f(x)), so only its rows are
    read."""
    value = [0] * s.space.n
    laid = -1
    preimages: dict[int, int] = {}
    for x, where in enumerate(source.min_open_positions):
        z = fidx[x]
        if z != laid:
            for b, row in s.circ.gen_items(z):
                value[b] = row
            laid = z
        for k, a in enumerate(where):
            row = value[fidx[a]]
            pre = preimages.get(row)
            if pre is None:
                pre = preimages[row] = reach(row, fibres)
            yield x, k, pre


def _carries_generators(
    source: Stream, fidx: Sequence[int], fibres: Sequence[int], target: Stream
) -> bool:
    """Whether the continuous f of :func:`_preimage_rows` carries every
    generator row gen(y)[a] of the source into the target's gen(f(y))[f(a)]:
    one mask test per stored row, no value closed."""
    gens = source.circ._gen_rows
    return all(
        not gens[x][k] & ~pre for x, k, pre in _preimage_rows(source.space, fidx, fibres, target)
    )


def _initial_lift(
    source: FiniteSpace, legs: Sequence[tuple[Mapping[str, str], Stream]]
) -> Circulation:
    """The largest circulation on the source making every leg (f, s) a
    stream map: its generator at x relates a to b on min_open(x) when every
    leg relates f(a) to f(b) on min_open(f(x)), which is the leg's generator
    at f(x); with no legs, all of min_open(x) (the chaotic value).

    This family is already saturated, so it is stored as it is, with no
    closure. Each member is a preorder on min_open(x): the chaotic one cut
    down by preimages of preorders, each reflexive on the image of
    min_open(x) by continuity. For y in min_open(x), min_open(y) lies in
    min_open(x) and f(y) in min_open(f(x)), so each leg's saturated
    generator at f(y) lies inside the one at f(x), and the member at y
    inside the member at x. The test suite checks that saturating the
    family returns it unchanged.

    Every leg must be continuous; the callers check the maps they take from
    outside (:func:`category.initial_structure`)."""
    family = [
        [mo] * len(where) for mo, where in zip(source.min_open_rows, source.min_open_positions)
    ]
    for f, s in legs:
        fidx = [s.space.index(f[p]) for p in source.points]
        fibres = transpose_rows([1 << t for t in fidx], s.space.n)
        for x, k, pre in _preimage_rows(source, fidx, fibres, s):
            family[x][k] &= pre
    return Circulation._by_construction(source, tuple(tuple(rows) for rows in family))


class Stream(Record):
    """A finite space together with a circulation on it."""

    _fields = ("space", "circ")

    def __init__(self, space: FiniteSpace, circ: Circulation):
        if circ.space != space:
            raise CarrierMismatch("circulation lives on a different space")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "circ", circ)

    def value(self, open_set: Iterable[str]) -> Preorder:
        return self.circ.value(open_set)

    def value_mask(self, mask: int) -> Preorder:
        return self.circ.value_mask(mask)

    def underlying(self) -> Preorder:
        return self.circ.underlying()

    def gen_of(self, x: str) -> Preorder:
        return self.circ.gen_of(x)

    def __repr__(self) -> str:
        return f"Stream({self.space!r}, {self.circ!r})"


def circulation_from_generators(
    space: FiniteSpace, gens: Mapping[str, Preorder]
) -> Circulation:
    """The circulation whose value on each open U is the closure of the union
    of the generator graphs over U's points. The stored family is the
    saturation of the input: each gen(x) is recomputed as the join, inside
    min_open(x), of the generators of min_open(x)'s points."""
    for x in space.points:
        if x not in gens:
            raise MissingPoint(f"no generator for {x!r}")
    return _saturate(space, _embed_family(space, tuple(gens[x] for x in space.points)))


def stream_from_generators(space: FiniteSpace, gens: Mapping[str, Preorder]) -> Stream:
    return Stream(space, circulation_from_generators(space, gens))


def trivial_circulation(space: FiniteSpace) -> Circulation:
    """Only the diagonal on every open: the saturation of no generators."""
    return _saturate(space)


def trivial_stream(space: FiniteSpace) -> Stream:
    return Stream(space, trivial_circulation(space))


def specialization_circulation(space: FiniteSpace) -> Circulation:
    """Restriction of the specialization preorder to each open set: at x,
    row a of min_open(x) is min_open(a)."""
    rows = space.min_open_rows
    return _saturate(space, [tuple([rows[a] for a in where]) for where in space.min_open_positions])


def join_circulations(circs: Sequence[Circulation]) -> Circulation:
    """Pointwise join of a non-empty family of circulations on one space."""
    if not circs:
        raise ValueError("join of circulations needs a non-empty family")
    space = circs[0].space
    for c in circs[1:]:
        if c.space != space:
            raise CarrierMismatch("circulations live on different spaces")
    return _saturate(space, *(c._gen_rows for c in circs))


class CosheafWitness(Record):
    """A failing instance of the gluing condition: a collection of opens and
    a pair related on one side of the equation but not the other."""

    _fields = ("collection", "x", "y")

    def __init__(self, collection: tuple[tuple[str, ...], ...], x: str, y: str):
        object.__setattr__(self, "collection", collection)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


class CirculationCheck(Record):
    _fields = ("ok", "witness")

    def __init__(self, ok: bool, witness: CosheafWitness | None = None):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "witness", witness)


def _least_mismatch(
    space: FiniteSpace, lhs: Sequence[int], rhs: Sequence[int]
) -> tuple[str, str]:
    best = None
    for i in range(space.n):
        diff = lhs[i] ^ rhs[i]
        if not diff:
            continue
        for j in iter_bits(diff):
            cand = (space.points[i], space.points[j])
            if best is None or cand < best:
                best = cand
    assert best is not None
    return best


def _first_unglued(pc: StoredPrecirculation) -> tuple[int, tuple[int, ...]] | None:
    """The first stored open W, in ascending mask order, whose value is not
    J(W), the closure on W of the stored values inside the minimal open of
    some point of W; returned with J(W), or None when every stored open
    glues. By the lemma in :func:`is_circulation`, W fails exactly when its
    stored value does not lie inside J(W).

    Each stored T is indexed under the points whose minimal open holds it,
    the AND of its points' closures, so one OR over W's points names every
    T that J(W) joins. W indexed under one of its own points is that
    point's minimal open and glues; every other W costs one closure and
    one subset test."""
    space = pc.space
    closures = space.closure_rows
    everywhere = (1 << space.n) - 1
    stored = sorted(pc._stored.items())
    wheres = []
    under = [0] * space.n
    for k, (mask, _) in enumerate(stored):
        where = list(iter_bits(mask))
        wheres.append(where)
        holders = everywhere
        for a in where:
            holders &= closures[a]
        for p in iter_bits(holders):
            under[p] |= 1 << k
    rows = [0] * space.n
    for k, ((mask, value), where) in enumerate(zip(stored, wheres)):
        inside = 0
        for p in where:
            inside |= under[p]
        if inside >> k & 1:
            continue
        for j in iter_bits(inside):
            srows = stored[j][1]
            for a in wheres[j]:
                rows[a] |= srows[a]
        joined = _close_on_mask(space, where, rows)
        for a in where:
            rows[a] = 0
            if value[a] & ~joined[a]:
                return mask, joined
    return None


def is_circulation(pc: Precirculation, mode: str = "fast") -> CirculationCheck:
    """Does the assignment satisfy the gluing condition?

    fast: for every open W, in ascending mask order, compare the assigned
    value with the join of the assigned values on the minimal opens of W's
    points (the minimal-open cover refines every cover, so this is
    equivalent to the full condition; the equivalence is itself
    property-tested). The first failing W gives the witness: its
    minimal-open cover and the least mismatched pair.

    A ``Circulation`` passes without a scan: its generators are saturated,
    so each is the value on its point's minimal open, and the value on W,
    the closure on W of the generators over W, is the join of those values.

    A ``StoredPrecirculation`` is compared on its stored opens only, with
    the same witness. Its value V(W) is the closure of the stored values
    inside W, so it holds J(W), the join over W's minimal opens. If W fails,
    some stored S inside W has its stored value outside J(W), hence outside
    J(S), so S fails too, and S's mask is no larger than W's: the first
    failing open is a stored one. In ascending mask order, once every
    earlier stored open glues, W glues exactly when its stored value lies
    inside J(W): each stored T inside W is a submask, so it comes earlier,
    and its stored value lies in V(T) = J(T), inside J(W). So each stored
    open costs one closure and one subset test (:func:`_first_unglued`),
    and no hull is computed on the way. Only the first failing W reads its
    hull, ``rows_on(W)``, because the witness is the least pair on which
    that hull differs from J(W), as the full comparison reports it.

    Any other precirculation (a pullback, a plain view) is scanned over
    every open.

    exhaustive: literally quantify over collections of nonempty opens, in a
    deterministic order (collections by size, then lexicographically by their
    sorted member point-tuples), and report the first failure with its
    lexicographically least mismatched pair. Collections containing the empty
    set are skipped: the empty member changes neither side. This mode is the
    oracle and takes no shortcut.
    """
    space = pc.space
    if mode == "fast":
        if isinstance(pc, Circulation):
            return CirculationCheck(True)
        if isinstance(pc, StoredPrecirculation):
            failure = _first_unglued(pc)
        else:
            failure = None
            minop_rows = [pc.rows_on(mo) for mo in space.min_open_rows]
            for wmask in all_opens(space):
                expected = _join_on(space, wmask, (minop_rows[i] for i in iter_bits(wmask)))
                if pc.rows_on(wmask) != expected:
                    failure = wmask, expected
                    break
        if failure is None:
            return CirculationCheck(True)
        wmask, expected = failure
        cover = sorted(
            tuple(sorted(space.points[j] for j in iter_bits(mo)))
            for mo in {space.min_open_rows[i] for i in iter_bits(wmask)}
        )
        x, y = _least_mismatch(space, pc.rows_on(wmask), expected)
        return CirculationCheck(False, CosheafWitness(tuple(cover), x, y))
    if mode == "exhaustive":
        opens = [m for m in all_opens(space) if m]
        keys = {m: tuple(sorted(space.set_of(m))) for m in opens}
        opens.sort(key=lambda m: keys[m])
        member_rows = {m: pc.rows_on(m) for m in opens}
        for size in range(1, len(opens) + 1):
            for combo in itertools.combinations(opens, size):
                union = 0
                for m in combo:
                    union |= m
                joined = _join_on(space, union, (member_rows[m] for m in combo))
                actual = pc.rows_on(union)
                if actual != joined:
                    x, y = _least_mismatch(space, actual, joined)
                    collection = tuple(keys[m] for m in combo)
                    return CirculationCheck(False, CosheafWitness(collection, x, y))
        return CirculationCheck(True)
    raise ValueError(f"unknown mode {mode!r}")


def check_monotone(pc: Precirculation) -> tuple[bool, tuple[str, str, str] | None]:
    """Graphs grow with the open set; witness is (open, x, y) naming the
    larger open whose value misses a pair from a smaller one.

    A ``Circulation`` passes without a scan, as in :func:`is_circulation`:
    the value on an open is the closure there of the generators over it,
    each inside the open by construction, and a larger open has more
    generators. A ``StoredPrecirculation`` passes for the same reason: its
    value on an open is the closure of the stored values inside it, and a
    larger open holds more of them (the test suite compares both with the
    scan). Anything else is scanned pair by pair over the open lattice."""
    if isinstance(pc, (Circulation, StoredPrecirculation)):
        return True, None
    opens = all_opens(pc.space)
    for small in opens:
        small_rows = pc.rows_on(small)
        for big in opens:
            if small & ~big:
                continue
            big_rows = pc.rows_on(big)
            for i in range(pc.space.n):
                extra = small_rows[i] & ~big_rows[i]
                if extra:
                    j = next(iter_bits(extra))
                    return False, (
                        ",".join(sorted(pc.space.set_of(big))),
                        pc.space.points[i],
                        pc.space.points[j],
                    )
    return True, None


def cosheafify(pc: Precirculation) -> Circulation:
    """The largest circulation pointwise below the precirculation.

    Only the minimal-open values of the input are consulted: the result's
    generators are exactly those values, then saturated. Any circulation
    below the input has each value below the corresponding join of
    minimal-open values, so this dominates them all; monotonicity of the
    input keeps the result below it."""
    space = pc.space
    values = (pc.rows_on(mo) for mo in space.min_open_rows)
    return _saturate(space, [
        tuple([rows[a] for a in where]) for rows, where in zip(values, space.min_open_positions)
    ])


@lru_cache(maxsize=128)
def enumerate_circulations(space: FiniteSpace) -> tuple[Circulation, ...]:
    """Every circulation on a small space: all generator families, saturated,
    deduplicated. Intended for oracle use; guarded against blowup. The
    answers for the last 128 spaces asked about are kept."""
    choices = [all_preorders(space.min_open(x)) for x in space.points]
    total = 1
    for c in choices:
        total *= len(c)
    if total > 2_000_000:
        raise ValueError("too many generator families to enumerate")
    return tuple(dict.fromkeys(
        circulation_from_generators(space, dict(zip(space.points, combo)))
        for combo in itertools.product(*choices)
    ))


def pushforward(s: Stream, f: Mapping[str, str], target: FiniteSpace) -> Circulation:
    """Transport along a continuous map: the value on an open U of the target
    is the closure of the image of the value on its preimage. This is the
    final lift over the one leg; the test suite compares it with that
    definition on every open."""
    return _final_lift(target, [(s, f)])


def pullback(
    source: Stream | Precirculation,
    f: Mapping[str, str],
    src_space: FiniteSpace,
) -> Precirculation:
    """Transport against a continuous map: the value on an open U of the
    domain is cut out of the value on the smallest open of the codomain
    containing the image of U (which exists here, as the union of the image
    points' minimal opens). The result is a precirculation and in general
    not a circulation."""
    if isinstance(source, Stream):
        source = source.circ
    target_space = source.space
    require_continuous(f, src_space, target_space)
    fidx = [target_space.index(f[p]) for p in src_space.points]
    graph = [1 << t for t in fidx]
    fibres = transpose_rows(graph, target_space.n)

    def compute(umask: int) -> tuple[int, ...]:
        # only the image's bits pull back into U, so each row costs U's width
        image = reach(umask, graph)
        vrows = source.rows_on(reach(image, target_space.min_open_rows))
        rows = [0] * src_space.n
        for a in iter_bits(umask):
            rows[a] = reach(vrows[fidx[a]] & image, fibres) & umask
        return tuple(rows)

    return Precirculation(src_space, compute)


class AlternatingChain(Record):
    """A certificate for x related to y on a union of two opens: points
    x = p0, ..., pn = y with labels alternating between the opens, each step
    related in the labelled open's preorder."""

    _fields = ("points", "labels")

    def __init__(self, points: tuple[str, ...], labels: tuple[str, ...]):
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "labels", labels)  # one of "U", "V" per step

    def __len__(self) -> int:
        return len(self.labels)


def _indices_in(space: FiniteSpace, mask: int, x: str, y: str, where: str) -> tuple[int, int]:
    """The indices of x and y, both in the mask; UnknownPoint otherwise."""
    if x in space and y in space:
        i, j = space.index(x), space.index(y)
        if mask >> i & 1 and mask >> j & 1:
            return i, j
    raise UnknownPoint(f"{x!r} or {y!r} outside {where}")


def _shortest_chain(
    x: int, y: int, steps: Callable[[int], Iterable[tuple[str, int]]]
) -> list[tuple[int, str, int]] | None:
    """Breadth-first search over point indices from x to y. ``steps(a)``
    yields the (label, row) steps out of a, each leading to every bit of
    row. Returns the first shortest chain found as (a, label, b) triples,
    empty when x == y, or None when y is not reachable; points are expanded
    in frontier order, then steps in the order yielded, then targets in
    point order. Reachability is the closure of the steps, so the search
    decides the pair without closing any value."""
    parents: dict[int, tuple[int, str]] = {}
    seen = 1 << x
    frontier = [x]
    while not seen >> y & 1:
        if not frontier:
            return None
        nxt = []
        for a in frontier:
            for label, row in steps(a):
                fresh = row & ~seen
                seen |= fresh
                for b in iter_bits(fresh):
                    parents[b] = (a, label)
                    nxt.append(b)
        frontier = nxt
    out = []
    while y != x:
        a, label = parents[y]
        out.append((a, label, y))
        y = a
    out.reverse()
    return out


def alternating_witness(
    s: Stream, u: Iterable[str], v: Iterable[str], x: str, y: str
) -> AlternatingChain:
    """A minimal-length alternating chain certifying x <= y on the union of
    two opens. Raises NotRelated when the union's preorder does not relate
    the pair.

    The chain is a shortest one over the steps of the two opens' values, U's
    before V's, found in point order, so it is the same in every process.
    Each value is transitive, so two consecutive steps in one open would
    make a shorter chain: a shortest chain alternates. The union's value is
    the closure of those steps, so the search also decides the pair."""
    space = s.space
    umask = require_open_mask(space, space.mask_of(u))
    vmask = require_open_mask(space, space.mask_of(v))
    i, j = _indices_in(space, umask | vmask, x, y, "the union")
    urows, vrows = s.circ.value_rows(umask), s.circ.value_rows(vmask)
    chain = _shortest_chain(i, j, lambda a: (("U", urows[a]), ("V", vrows[a])))
    if chain is None:
        raise NotRelated(f"{x!r} is not below {y!r} on the union")
    points = (x,) + tuple(space.points[b] for _, _, b in chain)
    return AlternatingChain(points, tuple(label for _, label, _ in chain))


def validate_alternating_witness(
    s: Stream, u: Iterable[str], v: Iterable[str], x: str, y: str, chain: AlternatingChain
) -> bool:
    """Re-check a chain against the two opens' preorders: it runs from x to
    y, x lies in the union of the opens, its labels are "U" or "V" and
    alternate, and each step is related in its labelled open's preorder."""
    points, labels = chain.points, chain.labels
    if len(points) != len(labels) + 1 or points[0] != x or points[-1] != y:
        return False
    if any(label not in ("U", "V") for label in labels):
        return False
    if any(a == b for a, b in zip(labels, labels[1:])):
        return False
    pu = s.value(u)
    pv = s.value(v)
    if x not in pu and x not in pv:
        return False
    for k, label in enumerate(labels):
        value = pu if label == "U" else pv
        a, b = chain.points[k], chain.points[k + 1]
        if a not in value or b not in value or not value.has(a, b):
            return False
    return True


def _generator_chain(
    s: Stream, mask: int, i: int, j: int
) -> list[tuple[str, str, str]] | None:
    """A shortest chain of generator steps (a, z, b) from point i to point j
    on the open mask, or None when the open's value does not relate them.

    Steps out of a come from the generators of the mask's points z, in
    point order, and only from the z whose minimal open holds a: no other
    generator has a row at a. gen(z)'s row at a is its k-th, k the number
    of min_open(z)'s points before a. The value on the mask is the closure
    of those steps, so no value is closed here."""
    space = s.space
    gens = s.circ._gen_rows
    mos = space.min_open_rows

    def steps(a: int):
        before = (1 << a) - 1
        for z in iter_bits(space.closure_rows[a] & mask):
            yield space.points[z], gens[z][(mos[z] & before).bit_count()]

    chain = _shortest_chain(i, j, steps)
    if chain is None:
        return None
    return [(space.points[a], z, space.points[b]) for a, z, b in chain]


def chain_witness(
    s: Stream, open_set: Iterable[str], x: str, y: str
) -> list[tuple[str, str, str]]:
    """A minimal chain of generator steps certifying x <= y on an open set:
    each step (a, z, b) is related inside min_open(z) for some z in the set.
    This is the gluing decomposition for the canonical minimal-open cover.

    The chain is a shortest one over the generators of the set's points,
    found in point order, so it is the same in every process. Raises
    UnknownPoint when x or y lies outside the set and NotRelated when the
    set's preorder does not relate them."""
    space = s.space
    mask = require_open_mask(space, space.mask_of(open_set))
    i, j = _indices_in(space, mask, x, y, "the open set")
    chain = _generator_chain(s, mask, i, j)
    if chain is None:
        raise NotRelated(f"{x!r} is not below {y!r} on the open set")
    return chain


def check_connected_intervals(s: Stream) -> tuple[bool, tuple[str, str] | None]:
    """Closures of bounded intervals of the underlying preorder are
    connected; the empty interval passes vacuously. The witness is the first
    failing pair (x, y), x then y in point order.

    Holds for every stream: when x <= p <= y, the generator chains from x to
    p and from p to y stay inside [x, y], and each step (a, z, b) has a and b
    in min_open(z), so z lies in cl{a} and cl{b}; cl([x, y]) is a chain of
    connected closures. The CLI answers from that proof. The scan stays here
    because the ``gluing_check`` benchmark workload times it, and a faster
    workload there reads as a memory regression until the harness stops
    keeping one latency entry per operation; it moves to the test oracles
    with that harness change.

    Works on bitmasks: the interval [x, y] is the up-set row of x and the
    down-set row of y, its closure the union of its points' closures (the
    points whose minimal open holds them), and connectivity is computed once
    per closed mask."""
    space = s.space
    up = s.circ.value_rows((1 << space.n) - 1)
    down = transpose_rows(up, space.n)
    connected: dict[int, bool] = {}
    for x in range(space.n):
        for y in range(space.n):
            interval = up[x] & down[y]
            if not interval:
                continue
            closed = reach(interval, space.closure_rows)
            ok = connected.get(closed)
            if ok is None:
                ok = connected[closed] = is_connected_mask(space, closed)
            if not ok:
                return False, (space.points[x], space.points[y])
    return True, None
