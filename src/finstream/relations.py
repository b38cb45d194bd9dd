"""Relations and preorders on finite named carriers.

A relation keeps its carrier as a sorted tuple of point names and its graph
as one successor bitmask per carrier index, so equality is bit-exact and
serialization order is canonical. Values are immutable and shareable.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, Sequence

from ._kernels import closure_rows, gather_rows, image_rows, iter_bits, reach, transpose_rows
from ._record import Record
from .errors import FormatError, InvalidPreorder, StreamError, UnknownPoint


def tuple_point(*parts: str) -> str:
    """Canonical name of a product point, e.g. tuple_point("a", "b") == "(a,b)"."""
    return "(" + ",".join(parts) + ")"


def _checked_rows(
    slot: Mapping[str, int],
    bits: Sequence[int],
    pairs: Iterable[tuple[str, str]],
    preorder: bool,
    listed: bool = False,
) -> tuple[int, ...]:
    """The one check of a pair table, read in one pass: its successor rows,
    one per carrier point, where ``slot`` numbers the carrier's names 0, 1,
    ... and the k-th point is bit ``bits[k]`` of a row (its own index, or
    its index in a larger space).

    ``listed`` pairs come from a JSON file: the table must be a list and
    each pair a list of two point names (FormatError), checked pair by pair.
    Both ends of each pair lie in the carrier: the first pair with an end
    outside raises UnknownPoint once every pair has been read, so a
    malformed pair later in the list still raises FormatError. Then, for a
    preorder, the carrier's points are reflexive and each pair (a, b) has
    row b inside row a, which is transitivity (InvalidPreorder)."""
    if listed and not isinstance(pairs, list):
        raise FormatError("pairs must be lists of two point names")
    rows = [0] * len(bits)
    edges = []
    outside = None
    for pair in pairs:
        if listed and not (
            isinstance(pair, list)
            and len(pair) == 2
            and isinstance(pair[0], str)
            and isinstance(pair[1], str)
        ):
            raise FormatError("pairs must be lists of two point names")
        if outside is not None:
            continue
        x, y = pair
        i, j = slot.get(x, -1), slot.get(y, -1)
        if i < 0:
            outside = UnknownPoint(f"pair ({x!r}, {y!r}): {x!r} not in carrier")
        elif j < 0:
            outside = UnknownPoint(f"pair ({x!r}, {y!r}): {y!r} not in carrier")
        else:
            rows[i] |= bits[j]
            if i != j:  # row i holds itself
                edges.append((i, j))
    if outside is not None:
        raise outside
    if preorder:
        for row, bit in zip(rows, bits):
            if not row & bit:
                raise InvalidPreorder("relation is not reflexive")
        for i, j in edges:
            if rows[j] & ~rows[i]:
                raise InvalidPreorder("relation is not transitive")
    return tuple(rows)


def _carrier_rows(
    points: Iterable[str], pairs: Iterable[tuple[str, str]], preorder: bool, listed: bool = False
) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """The sorted carrier of the points and the checked rows of the pairs on
    it (:func:`_checked_rows`)."""
    carrier = tuple(sorted(set(points)))
    slot = {p: i for i, p in enumerate(carrier)}
    bits = [1 << i for i in range(len(carrier))]
    return carrier, _checked_rows(slot, bits, pairs, preorder, listed)


class Relation(Record):
    """A binary relation: sorted carrier plus one successor bitmask per point.

    Direct construction trusts its arguments; use :meth:`build` to
    canonicalize and validate raw data.
    """

    _fields = ("carrier", "rows")

    def __init__(self, carrier: tuple[str, ...], rows: tuple[int, ...]):
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def build(cls, points: Iterable[str], pairs: Iterable[tuple[str, str]]) -> "Relation":
        return cls(*_carrier_rows(points, pairs, False))

    @cached_property
    def _index(self) -> dict[str, int]:
        return {p: i for i, p in enumerate(self.carrier)}

    @property
    def n(self) -> int:
        return len(self.carrier)

    def index(self, x: str) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise UnknownPoint(f"{x!r} not in carrier") from None

    def __contains__(self, x: str) -> bool:
        return x in self._index

    def has(self, x: str, y: str) -> bool:
        return bool(self.rows[self.index(x)] >> self.index(y) & 1)

    def pairs(self) -> tuple[tuple[str, str], ...]:
        """The graph as a sorted pair list."""
        return tuple(
            (x, self.carrier[j])
            for i, x in enumerate(self.carrier)
            for j in iter_bits(self.rows[i])
        )

    def image_set(self, x: str) -> frozenset[str]:
        """All y with x related to y."""
        return frozenset(self.carrier[j] for j in iter_bits(self.rows[self.index(x)]))

    def mask_of(self, points: Iterable[str]) -> int:
        mask = 0
        for p in points:
            mask |= 1 << self.index(p)
        return mask

    def set_of(self, mask: int) -> frozenset[str]:
        return frozenset(self.carrier[i] for i in iter_bits(mask))

    def restrict(self, subset: Iterable[str]) -> "Relation":
        """The relation induced on a sub-carrier: graph intersected with A x A."""
        sub = tuple(sorted(set(subset)))
        mask = self.mask_of(sub)
        return type(self)(sub, gather_rows([self.rows[i] for i in iter_bits(mask)], mask))

    def inverse(self) -> "Relation":
        return type(self)(self.carrier, tuple(transpose_rows(self.rows, self.n)))

    def is_reflexive(self) -> bool:
        return all(row >> i & 1 for i, row in enumerate(self.rows))

    def is_transitive(self) -> bool:
        return not any(reach(row, self.rows) & ~row for row in self.rows)

    def is_antisymmetric(self) -> bool:
        back = transpose_rows(self.rows, self.n)
        return not any(row & back[i] & ~(1 << i) for i, row in enumerate(self.rows))

    def graph_size(self) -> int:
        return sum(row.bit_count() for row in self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self.carrier == other.carrier and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.carrier, self.rows))

    def __repr__(self) -> str:
        kind = type(self).__name__
        return f"{kind}({list(self.carrier)!r}, {sorted(self.pairs())!r})"


class Preorder(Relation):
    """A reflexive, transitive relation. Construction does not re-verify;
    :meth:`build` does."""

    @classmethod
    def build(cls, points: Iterable[str], pairs: Iterable[tuple[str, str]]) -> "Preorder":
        return cls(*_carrier_rows(points, pairs, True))

    @classmethod
    def identity(cls, points: Iterable[str]) -> "Preorder":
        carrier = tuple(sorted(set(points)))
        return cls(carrier, tuple(1 << i for i in range(len(carrier))))

    @classmethod
    def full(cls, points: Iterable[str]) -> "Preorder":
        carrier = tuple(sorted(set(points)))
        all_bits = (1 << len(carrier)) - 1
        return cls(carrier, tuple(all_bits for _ in carrier))


def transitive_reflexive_closure(r: Relation) -> Preorder:
    """The preorder on r's carrier with the smallest graph containing r's."""
    return Preorder(r.carrier, closure_rows(r.rows, r.n))


def join(preorders: Sequence[Preorder], carrier: Iterable[str] | None = None) -> Preorder:
    """Closure of the union: carrier is the union of carriers (plus any extra
    points supplied), graph is the closure of the union of graphs.

    An empty family is allowed only with an explicit carrier and yields the
    identity preorder on it.
    """
    points: set[str] = set(carrier) if carrier is not None else set()
    if not preorders and carrier is None:
        raise ValueError("empty join requires an explicit carrier")
    for p in preorders:
        points.update(p.carrier)
    out = tuple(sorted(points))
    index = {x: i for i, x in enumerate(out)}
    rows = [0] * len(out)
    for p in preorders:
        image_rows(p.rows, [index[x] for x in p.carrier], rows)
    return Preorder(out, closure_rows(rows, len(out)))


def _by_unique_name(
    named: Iterable[tuple[str, tuple[str, ...]]], what: str
) -> dict[str, tuple[str, ...]]:
    """The parts of each point by its name. Built names can collide (the
    product of "a,b" and "c" and that of "a" and "b,c" are both "(a,b,c)");
    a collision raises a StreamError naming the point."""
    out: dict[str, tuple[str, ...]] = {}
    for name, parts in named:
        if name in out:
            raise StreamError(
                f"{what} point name {name!r} stands for both {out[name]!r} and {parts!r}"
            )
        out[name] = parts
    return out


def _tuple_rows(
    factor_rows: Sequence[Sequence[int]], coords: Sequence[Sequence[int]]
) -> tuple[int, ...]:
    """The componentwise relation on the given tuples, each tuple given by
    its coordinate indices: s is in the row of t iff s[i] is in factor i's
    row of t[i] for every i. Each factor contributes one mask per point, the
    tuples whose coordinate i lies in that point's row (the row's preimage
    under the i-th projection), and a tuple's row is the AND of its
    coordinates' masks."""
    ups = []
    for i, rows in enumerate(factor_rows):
        select = transpose_rows([1 << c[i] for c in coords], len(rows))
        ups.append([reach(row, select) for row in rows])
    out = []
    for c in coords:
        row = (1 << len(coords)) - 1
        for up, x in zip(ups, c):
            row &= up[x]
        out.append(row)
    return tuple(out)


def product(factors: Sequence[Relation]) -> Relation:
    """Componentwise relation on the Cartesian product of the carriers.

    Product points are named with :func:`tuple_point`; colliding names raise
    a StreamError. A product of preorders is returned as a Preorder.
    """
    assoc = _by_unique_name(
        ((tuple_point(*t), t) for t in itertools.product(*(f.carrier for f in factors))),
        "product",
    )
    carrier = tuple(sorted(assoc))
    coords = [[f.index(x) for f, x in zip(factors, assoc[p])] for p in carrier]
    cls = Preorder if all(isinstance(f, Preorder) for f in factors) else Relation
    return cls(carrier, _tuple_rows([f.rows for f in factors], coords))


def bounded_interval(p: Preorder, x: str, y: str) -> frozenset[str]:
    """All z with x <= z and z <= y."""
    up = p.rows[p.index(x)]
    j = p.index(y)
    (down,) = transpose_rows([row >> j & 1 for row in p.rows], 1)
    return p.set_of(up & down)


@lru_cache(maxsize=None)
def _all_preorder_rows(n: int) -> tuple[tuple[int, ...], ...]:
    if n > 4:
        raise ValueError("preorder enumeration is limited to 4 points")
    diag = [1 << i for i in range(n)]
    slots = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = []
    for choice in range(1 << len(slots)):
        rows = list(diag)
        for k, (i, j) in enumerate(slots):
            if choice >> k & 1:
                rows[i] |= 1 << j
        if closure_rows(rows, n) == tuple(rows):
            out.append(tuple(rows))
    return tuple(out)


def all_preorders(points: Iterable[str]) -> list[Preorder]:
    """Every preorder on a small carrier (at most 4 points)."""
    carrier = tuple(sorted(set(points)))
    return [Preorder(carrier, rows) for rows in _all_preorder_rows(len(carrier))]


def is_convex(p: Preorder, points: Iterable[str]) -> bool:
    """True iff x <= y <= z with x, z in the set forces y into the set."""
    mask = p.mask_of(points)
    up = reach(mask, p.rows)
    down = reach(mask, transpose_rows(p.rows, p.n))
    return not (up & down & ~mask)
