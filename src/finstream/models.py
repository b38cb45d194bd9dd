"""Canonical stream constructors and the pullback counterexample fixture.

Cell naming is fixed for reproducible serialization: vertices v0, v1, ...
and edges e1, e2, ... with edges open and vertices closed; product points are
named (p,q). The directed interval and the directed circle come from one
cell-chain builder, which stores its rows without the constructor's check;
the tests check them against the checked construction, the interval against
the atlas of its vertex stars and the circle against the interval's
endpoint quotient.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from ._record import Record
from .category import product_stream, substream
from .circulation import (
    Circulation,
    Precirculation,
    Stream,
    cosheafify,
    pullback,
    specialization_circulation,
    stream_from_generators,
    trivial_stream,
)
from .errors import (
    ChartNotPartialOrder,
    IncompatibleCharts,
    InvalidSize,
    NotACover,
    NotAntisymmetric,
    NotOpen,
)
from .relations import Preorder, tuple_point
from .spaces import (
    FiniteSpace,
    empty_space,
    is_open,
    point_space,
    space_from_min_opens,
    subspace,
)


def _cell_chain(n: int, closed: bool) -> Stream:
    """Edges e1, ..., en, each open, and vertices v0, v1, ..., each vertex
    star ordered left edge <= vertex <= right edge as a total chain.
    ``closed`` makes en the left edge of v0 and stops the vertices at
    v(n-1); otherwise they run to vn, and the end vertices have one edge."""
    table: dict[str, list[str]] = {f"e{i}": [f"e{i}"] for i in range(1, n + 1)}
    for i in range(n if closed else n + 1):
        chain = [f"v{i}"]
        if i >= 1 or closed:
            chain.insert(0, f"e{i or n}")
        if i < n:
            chain.append(f"e{i + 1}")
        table[f"v{i}"] = chain
    space = space_from_min_opens(table, table)
    # each star's chain is a total order, so the row of its k-th cell is the
    # cells from k on; a star holds its edges' one-cell chains, so the
    # family is saturated as built
    family = []
    for x in space.points:
        rows, above = {}, 0
        for cell in reversed(table[x]):
            a = space.index(cell)
            above |= 1 << a
            rows[a] = above
        family.append(tuple([rows[a] for a in sorted(rows)]))
    return Stream(space, Circulation._by_construction(space, tuple(family)))


def directed_interval(n: int) -> Stream:
    """2n+1 cells v0, e1, v1, ..., en, vn; each vertex star is oriented
    left-edge <= vertex <= right-edge, so the global order is the total chain
    from v0 to vn."""
    if n < 1:
        raise InvalidSize("directed_interval needs n >= 1")
    return _cell_chain(n, closed=False)


def interval_endpoint_partition(n: int) -> list[list[str]]:
    """Classes of the endpoint-identifying quotient of directed_interval(n)."""
    classes = [["v0", f"v{n}"]]
    classes += [[f"v{i}"] for i in range(1, n)]
    classes += [[f"e{i}"] for i in range(1, n + 1)]
    return classes


def directed_circle(n: int) -> Stream:
    """n vertices and n edges in a cycle, each vertex star oriented
    e_i <= v_i <= e_{i+1} (wrapping e_n <= v0 <= e_1). It equals the
    endpoint quotient of the directed interval, which the tests check."""
    if n < 2:
        raise InvalidSize("directed_circle needs n >= 2")
    return _cell_chain(n, closed=True)


def directed_square(n: int, m: int) -> Stream:
    """Product of two directed intervals."""
    stream, _, _ = product_stream(directed_interval(n), directed_interval(m))
    return stream


def boundary_points(n: int) -> list[str]:
    """Product cells with some coordinate at an endpoint vertex."""
    ends = {"v0", f"v{n}"}
    cells = [f"v{i}" for i in range(n + 1)] + [f"e{i}" for i in range(1, n + 1)]
    return sorted(
        tuple_point(p, q)
        for p in cells
        for q in cells
        if p in ends or q in ends
    )


def boundary_square(n: int) -> Stream:
    """Substream of the directed square on the boundary cells."""
    stream, _ = substream(directed_square(n, n), boundary_points(n))
    return stream


def stream_from_poset(p: Preorder) -> Stream:
    """The space whose minimal opens are the up-sets, with the specialization
    circulation; requires a partial order so the space is T0."""
    if not p.is_antisymmetric():
        raise NotAntisymmetric("poset stream needs an antisymmetric order")
    table = {x: p.image_set(x) for x in p.carrier}
    space = space_from_min_opens(p.carrier, table)
    return Stream(space, specialization_circulation(space))


def stream_from_atlas(
    space: FiniteSpace,
    charts: Sequence[tuple[Iterable[str], Preorder]],
) -> Stream:
    """Stream generated by an atlas: an open cover with a partial order per
    chart, all charts agreeing on every shared minimal open.

    Each point takes as its generator the order of any chart around it,
    restricted to its minimal open (agreement is what compatibility
    checks), and the result is the circulation those generators saturate
    to. The output therefore only depends on the atlas's restrictions to
    the minimal opens, so refining a chart into smaller charts with the
    same orders leaves the stream unchanged."""
    sets = []
    for chart, order in charts:
        members = frozenset(chart)
        if not is_open(space, members):
            raise NotOpen(f"chart {sorted(members)!r} is not open")
        if frozenset(order.carrier) != members:
            raise ChartNotPartialOrder(
                f"chart order carrier differs from chart {sorted(members)!r}"
            )
        if not order.is_antisymmetric():
            raise ChartNotPartialOrder(
                f"chart {sorted(members)!r} carries a non-antisymmetric order"
            )
        sets.append((members, order))
    covered = set().union(*(members for members, _ in sets))
    if covered != set(space.points):
        raise NotACover(f"charts miss points {sorted(set(space.points) - covered)!r}")
    gens: dict[str, Preorder] = {}
    for x in space.points:
        local = space.min_open(x)
        seen: Preorder | None = None
        for members, order in sets:
            if x not in members:
                continue
            restricted = order.restrict(local)
            if seen is None:
                seen = restricted
            elif seen != restricted:
                raise IncompatibleCharts(
                    f"charts disagree on min_open({x!r})"
                )
        gens[x] = seen
    return stream_from_generators(space, gens)


class PathologyFixture(Record):
    """A pullback that is not a circulation: the two diagonal corners of the
    directed square are related globally, but only through opens containing
    interior cells, so pulling back onto the discrete two-corner subspace
    relates them on a disconnected space."""

    _fields = ("host", "corner_space", "inclusion", "pulled")

    def __init__(
        self,
        host: Stream,
        corner_space: FiniteSpace,
        inclusion: Mapping[str, str],
        pulled: Precirculation,
    ):
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "corner_space", corner_space)
        object.__setattr__(self, "inclusion", inclusion)
        object.__setattr__(self, "pulled", pulled)

    def cosheafified(self) -> Circulation:
        return cosheafify(self.pulled)


def pathology_fixture() -> PathologyFixture:
    host = directed_square(1, 1)
    corners = [tuple_point("v0", "v0"), tuple_point("v1", "v1")]
    corner_space = subspace(host.space, corners)
    inclusion = {p: p for p in corner_space.points}
    pulled = pullback(host, inclusion, corner_space)
    return PathologyFixture(host, corner_space, inclusion, pulled)


def point_stream(name: str = "pt") -> Stream:
    return trivial_stream(point_space(name))


def empty_stream() -> Stream:
    return trivial_stream(empty_space())
