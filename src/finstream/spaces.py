"""Finite topological spaces in minimal-open-neighborhood form.

A finite space is stored as a sorted point tuple plus, for each point, the
bitmask of its smallest open neighborhood. A set is open exactly when it
contains the minimal open of each of its members; arbitrary intersections of
opens are then open, and the whole open lattice is the lattice of up-sets of
the specialization preorder (x below y iff y lies in every neighborhood of x).
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Iterable, Mapping, Sequence

from ._kernels import closure_rows, gather_rows, image_rows, iter_bits, reach, transpose_rows
from ._record import Record
from .errors import (
    InvalidPartition,
    MissingPoint,
    NotContinuous,
    NotMinimal,
    NotOpen,
    StreamError,
    UnknownPoint,
)
from .relations import Preorder, _by_unique_name, _tuple_rows, tuple_point


class FiniteSpace(Record):
    _fields = ("points", "min_open_rows")

    def __init__(self, points: tuple[str, ...], min_open_rows: tuple[int, ...]):
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "min_open_rows", min_open_rows)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {p: i for i, p in enumerate(self.points)}

    @property
    def n(self) -> int:
        return len(self.points)

    def index(self, x: str) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise UnknownPoint(f"{x!r} not a point of the space") from None

    def __contains__(self, x: str) -> bool:
        return x in self._index

    def mask_of(self, points: Iterable[str]) -> int:
        index = self._index
        mask = 0
        for p in points:
            try:
                i = index[p]
            except KeyError:
                raise UnknownPoint(f"{p!r} not a point of the space") from None
            mask |= 1 << i
        return mask

    def set_of(self, mask: int) -> frozenset[str]:
        return frozenset(self.points[i] for i in iter_bits(mask))

    @cached_property
    def closure_rows(self) -> tuple[int, ...]:
        """Each point's closure, the points whose minimal open holds it:
        the converse of ``min_open_rows``."""
        return tuple(transpose_rows(self.min_open_rows, self.n))

    @cached_property
    def min_open_positions(self) -> tuple[tuple[int, ...], ...]:
        """Each point's minimal open as its point indices, ascending: the
        positions of the rows a circulation stores for that point."""
        return tuple(tuple(iter_bits(mo)) for mo in self.min_open_rows)

    def min_open(self, x: str) -> frozenset[str]:
        return self.set_of(self.min_open_rows[self.index(x)])

    def __repr__(self) -> str:
        table = {p: sorted(self.min_open(p)) for p in self.points}
        return f"FiniteSpace({table!r})"


def space_from_min_opens(
    points: Iterable[str], min_open: Mapping[str, Iterable[str]]
) -> FiniteSpace:
    """Validated construction from a point set and minimal-open table.

    Rejects tables missing a point, containing unknown names, omitting the
    point from its own neighborhood, or breaking the nesting rule that
    y in min_open(x) forces min_open(y) inside min_open(x).

    Each neighborhood is read once into its mask, and one walk over each
    mask's bits then takes its positions and checks the nesting rule; the
    space keeps the point index and those positions."""
    pts = tuple(sorted(set(points)))
    index = {p: i for i, p in enumerate(pts)}
    bits = [1 << i for i in range(len(pts))]
    rows = []
    for p in pts:
        try:
            members = min_open[p]
        except KeyError:
            raise MissingPoint(f"min_open table misses {p!r}") from None
        mask = 0
        for q in members:
            i = index.get(q)
            if i is None:
                raise UnknownPoint(f"min_open({p!r}) contains unknown point {q!r}")
            mask |= bits[i]
        rows.append(mask)
    if len(min_open) != len(pts):
        for q in min_open:
            if q not in index:
                raise UnknownPoint(f"min_open table keys unknown point {q!r}")
    positions = []
    for i, (p, mask) in enumerate(zip(pts, rows)):
        if not mask & bits[i]:
            raise NotMinimal(f"{p!r} not in its own minimal open", pair=(p, p))
        where = []
        outside = ~mask
        rest = mask
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            if rows[j] & outside:
                raise NotMinimal(
                    f"min_open({pts[j]!r}) not inside min_open({p!r})", pair=(p, pts[j])
                )
            where.append(j)
            rest ^= low
        positions.append(tuple(where))
    space = FiniteSpace(pts, tuple(rows))
    # fill the two cached properties from this reading
    vars(space).update(_index=index, min_open_positions=tuple(positions))
    return space


def is_open(space: FiniteSpace, subset: Iterable[str]) -> bool:
    mask = space.mask_of(subset)
    return is_open_mask(space, mask)


def is_open_mask(space: FiniteSpace, mask: int) -> bool:
    """Whether the mask is an open of the space: it holds the minimal open
    of each of its points. A mask with a bit that names no point, a
    negative one or one at or above ``space.n``, is not."""
    rows = space.min_open_rows
    if mask < 0 or mask >> len(rows):
        return False
    rest = mask
    while rest:
        low = rest & -rest
        if rows[low.bit_length() - 1] & ~mask:
            return False
        rest ^= low
    return True


def require_open_mask(space: FiniteSpace, mask: int) -> int:
    if not is_open_mask(space, mask):
        if mask < 0 or mask >> space.n:
            raise NotOpen(f"mask {mask:#x} has a bit outside the space's {space.n} points")
        raise NotOpen(f"{sorted(space.set_of(mask))!r} is not open")
    return mask


def interior(space: FiniteSpace, subset: Iterable[str]) -> frozenset[str]:
    mask = space.mask_of(subset)
    out = 0
    for i in iter_bits(mask):
        if not space.min_open_rows[i] & ~mask:
            out |= 1 << i
    return space.set_of(out)


def closure_set(space: FiniteSpace, subset: Iterable[str]) -> frozenset[str]:
    mask = space.mask_of(subset)
    return space.set_of(closure_mask(space, mask))


def closure_mask(space: FiniteSpace, mask: int) -> int:
    return reach(mask, space.closure_rows)


def specialization_preorder(space: FiniteSpace) -> Preorder:
    """x <= y iff y lies in min_open(x); the rows are the minimal opens."""
    return Preorder(space.points, space.min_open_rows)


def is_continuous(f: Mapping[str, str], src: FiniteSpace, dst: FiniteSpace) -> bool:
    """Preimages of opens are open; on finite spaces that is equivalent to
    the map being monotone for the specialization preorders, which is what
    is computed. The test suite checks the equivalence against a preimage
    oracle."""
    for p in src.points:
        if p not in f:
            raise MissingPoint(f"map undefined on {p!r}")
        if f[p] not in dst:
            raise UnknownPoint(f"map sends {p!r} outside the target space")
    # the image of every row with f(a) = t must lie in t's row
    image = image_rows(src.min_open_rows, [dst.index(f[p]) for p in src.points], [0] * dst.n)
    return not any(row & ~big for row, big in zip(image, dst.min_open_rows))


def require_continuous(f: Mapping[str, str], src: FiniteSpace, dst: FiniteSpace) -> None:
    if not is_continuous(f, src, dst):
        raise NotContinuous("map is not continuous")


def is_connected(space: FiniteSpace, subset: Iterable[str] | None = None) -> bool:
    """Connectivity of the subspace, via reachability in the comparability
    graph of the specialization preorder restricted to the subset. The empty
    subspace counts as connected here."""
    mask = (
        (1 << space.n) - 1 if subset is None else space.mask_of(subset)
    )
    return is_connected_mask(space, mask)


def is_connected_mask(space: FiniteSpace, mask: int) -> bool:
    """:func:`is_connected` for a subset given as a bitmask."""
    if not mask:
        return True
    undirected = {}
    for i in iter_bits(mask):
        nbrs = space.min_open_rows[i] & mask
        undirected[i] = nbrs
    for i in list(undirected):
        for j in iter_bits(undirected[i]):
            undirected[j] |= 1 << i
    start = next(iter_bits(mask))
    seen = 1 << start
    frontier = [start]
    while frontier:
        i = frontier.pop()
        for j in iter_bits(undirected[i] & ~seen):
            seen |= 1 << j
            frontier.append(j)
    return seen == mask


def subspace(space: FiniteSpace, subset: Iterable[str]) -> FiniteSpace:
    """Subspace topology; the minimal open of a point a is A intersected with
    its ambient minimal open, which is already minimal in the subspace."""
    sub = tuple(sorted(set(subset)))
    mask = space.mask_of(sub)
    rows = gather_rows([space.min_open_rows[i] for i in iter_bits(mask)], mask)
    return FiniteSpace(sub, rows)


def _tuple_space(
    factors: Sequence[FiniteSpace], tuples: Iterable[tuple[str, ...]], what: str
) -> tuple[FiniteSpace, dict[str, tuple[str, ...]]]:
    """The tuples as a subspace of the factors' product, and each point's
    tuple by its name (:func:`tuple_point`; a single factor keeps its names,
    and a collision raises a StreamError labelled ``what``). The minimal open
    of t is the tuples s with s[i] in min_open(t[i]) for every i
    (:func:`relations._tuple_rows`)."""
    single = len(factors) == 1
    assoc = _by_unique_name(((c[0] if single else tuple_point(*c), c) for c in tuples), what)
    points = tuple(sorted(assoc))
    coords = [[sp.index(x) for sp, x in zip(factors, assoc[p])] for p in points]
    rows = _tuple_rows([sp.min_open_rows for sp in factors], coords)
    return FiniteSpace(points, rows), assoc


def product_space(left: FiniteSpace, right: FiniteSpace) -> FiniteSpace:
    """Product topology: min_open((x,y)) = min_open(x) x min_open(y)."""
    pairs = ((x, y) for x in left.points for y in right.points)
    return _tuple_space((left, right), pairs, "product")[0]


def coproduct_space(
    family: Sequence[FiniteSpace], tags: Sequence[str] | None = None
) -> tuple[FiniteSpace, list[dict[str, str]]]:
    """Disjoint union with tagged points; returns the space and the point
    maps of the inclusions. A single summand keeps its own names, so
    one-object colimits return the object itself."""
    if tags is None:
        tags = [str(i) for i in range(len(family))]
    if len(tags) != len(family):
        raise StreamError(f"{len(tags)} coproduct tags for {len(family)} summands")
    if len(set(tags)) != len(tags):
        raise StreamError("coproduct tags repeat")
    if len(family) == 1:
        return family[0], [{p: p for p in family[0].points}]
    assoc = _by_unique_name(
        ((f"{tag}:{p}", (tag, p)) for tag, space in zip(tags, family) for p in space.points),
        "coproduct",
    )
    points = tuple(sorted(assoc))
    index = {name: k for k, name in enumerate(points)}
    rows = [0] * len(points)
    inclusions = []
    for tag, space in zip(tags, family):
        inc = {p: f"{tag}:{p}" for p in space.points}
        inclusions.append(inc)
        image_rows(space.min_open_rows, [index[inc[p]] for p in space.points], rows)
    return FiniteSpace(points, tuple(rows)), inclusions


def quotient_space(
    space: FiniteSpace, partition: Iterable[Iterable[str]]
) -> tuple[FiniteSpace, dict[str, str]]:
    """Quotient topology for a partition of the points.

    Classes are named by their sorted first element. A set of classes is open
    iff its preimage is open, so the specialization preorder of the quotient
    is the transitive-reflexive closure of the image of the space's: the
    minimal open of a class is its row in the closure of the image relation.
    """
    classes = [tuple(sorted(set(c))) for c in partition]
    if any(not c for c in classes):
        raise InvalidPartition("empty class")
    seen: dict[str, str] = {}
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
    projection = {p: seen[p] for p in space.points}
    names = tuple(sorted(c[0] for c in classes))
    number = {name: k for k, name in enumerate(names)}
    cls = [number[seen[p]] for p in space.points]
    rows = image_rows(space.min_open_rows, cls, [0] * len(names))
    return FiniteSpace(names, closure_rows(rows, len(names))), projection


@lru_cache(maxsize=4096)
def all_opens(space: FiniteSpace, cap: int | None = None) -> tuple[int, ...]:
    """Every open set as a bitmask, ascending; optionally capped (raises
    ValueError beyond the cap). The opens are the up-sets of specialization,
    i.e. the unions of minimal opens, discovered one extension at a time."""
    opens = {0}
    frontier = [0]
    while frontier:
        mask = frontier.pop()
        for row in space.min_open_rows:
            u = mask | row
            if u not in opens:
                opens.add(u)
                frontier.append(u)
                if cap is not None and len(opens) > cap:
                    raise ValueError(f"open lattice exceeds cap {cap}")
    return tuple(sorted(opens))


@lru_cache(maxsize=4096)
def count_opens(space: FiniteSpace, cap: int) -> int | None:
    """Number of opens, or None when it exceeds the cap."""
    try:
        return len(all_opens(space, cap=cap))
    except ValueError:
        return None


def empty_space() -> FiniteSpace:
    return FiniteSpace((), ())


def point_space(name: str = "pt") -> FiniteSpace:
    return FiniteSpace((name,), (1,))
