"""Canonical stream constructors and the pullback counterexample fixture.

Cell naming is fixed for reproducible serialization: vertices v0, v1, ...
and edges e1, e2, ... with edges open and vertices closed; product points are
named (p,q). The directed circle is built directly; the tests check that it
equals the endpoint quotient of the directed interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

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


def directed_interval(n: int) -> Stream:
    """2n+1 cells v0, e1, v1, ..., en, vn; each vertex star is oriented
    left-edge <= vertex <= right-edge, so the global order is the total chain
    from v0 to vn."""
    if n < 1:
        raise InvalidSize("directed_interval needs n >= 1")
    table: dict[str, set[str]] = {}
    for i in range(1, n + 1):
        table[f"e{i}"] = {f"e{i}"}
    for i in range(n + 1):
        star = {f"v{i}"}
        if i >= 1:
            star.add(f"e{i}")
        if i < n:
            star.add(f"e{i + 1}")
        table[f"v{i}"] = star
    space = space_from_min_opens(table.keys(), table)
    gens: dict[str, Preorder] = {}
    for i in range(1, n + 1):
        gens[f"e{i}"] = Preorder.identity([f"e{i}"])
    for i in range(n + 1):
        chain = []
        if i >= 1:
            chain.append((f"e{i}", f"v{i}"))
        if i < n:
            chain.append((f"v{i}", f"e{i + 1}"))
        if len(chain) == 2:
            chain.append((f"e{i}", f"e{i + 1}"))
        pairs = list(chain) + [(p, p) for p in table[f"v{i}"]]
        gens[f"v{i}"] = Preorder.build(table[f"v{i}"], pairs)
    return stream_from_generators(space, gens)


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
    table: dict[str, set[str]] = {}
    gens: dict[str, Preorder] = {}
    for i in range(1, n + 1):
        table[f"e{i}"] = {f"e{i}"}
        gens[f"e{i}"] = Preorder.identity([f"e{i}"])
    for i in range(n):
        left = f"e{i}" if i >= 1 else f"e{n}"
        right = f"e{i + 1}"
        star = {left, f"v{i}", right}
        table[f"v{i}"] = star
        pairs = [(left, f"v{i}"), (f"v{i}", right), (left, right)]
        pairs += [(p, p) for p in star]
        gens[f"v{i}"] = Preorder.build(star, pairs)
    space = space_from_min_opens(table.keys(), table)
    return stream_from_generators(space, gens)


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


@dataclass(frozen=True)
class PathologyFixture:
    """A pullback that is not a circulation: the two diagonal corners of the
    directed square are related globally, but only through opens containing
    interior cells, so pulling back onto the discrete two-corner subspace
    relates them on a disconnected space."""

    host: Stream
    corner_space: FiniteSpace
    inclusion: Mapping[str, str]
    pulled: Precirculation

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
