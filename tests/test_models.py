import itertools
import random

import pytest

from finstream import (
    Preorder,
    all_opens,
    boundary_square,
    check_connected_intervals,
    directed_circle,
    directed_interval,
    directed_square,
    empty_stream,
    is_circulation,
    is_connected,
    pathology_fixture,
    point_stream,
    stream_from_atlas,
    stream_from_poset,
    stream_isomorphism,
    substream,
    transitive_reflexive_closure,
    tuple_point,
)
from finstream.errors import (
    ChartNotPartialOrder,
    IncompatibleCharts,
    NotACover,
    NotAntisymmetric,
    NotOpen,
)
from finstream.models import boundary_points
from finstream.relations import Relation, product as rel_product

from conftest import antisymmetric_convexity_oracle, closure_oracle


class TestDirectedInterval:
    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            directed_interval(0)

    def test_three_point_chain(self):
        s = directed_interval(1)
        assert s.space.points == ("e1", "v0", "v1")
        under = s.underlying()
        assert under.has("v0", "e1") and under.has("e1", "v1")

    def test_total_chain_and_antisymmetric(self):
        for n in range(1, 6):
            s = directed_interval(n)
            under = s.underlying()
            assert under.is_antisymmetric()
            cells = 2 * n + 1
            # a total order on k cells has k(k+1)/2 pairs
            assert under.graph_size() == cells * (cells + 1) // 2
            order = [f"v{i//2}" if i % 2 == 0 else f"e{(i+1)//2}" for i in range(cells)]
            for a, b in zip(order, order[1:]):
                assert under.has(a, b) and not under.has(b, a)

    def test_connected_intervals(self):
        for n in range(1, 6):
            ok, _ = check_connected_intervals(directed_interval(n))
            assert ok


class TestDirectedCircle:
    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            directed_circle(1)

    def test_four_point_circle_global_full(self):
        s = directed_circle(2)
        assert s.space.n == 4
        assert s.underlying().graph_size() == 16

    def test_star_is_antisymmetric_oriented_chain(self):
        s = directed_circle(2)
        value = s.value(s.space.min_open("v0"))
        assert value.is_antisymmetric()
        assert value.has("e2", "v0") and value.has("v0", "e1")
        assert not value.has("e1", "v0") and not value.has("v0", "e2")

    def test_direct_equals_quotient_for_small_n(self):
        # the constructor itself asserts equality; drive it for n up to 5
        for n in range(2, 6):
            directed_circle(n)

    def test_proper_arcs_carry_total_orders(self):
        for n in (2, 3, 4):
            s = directed_circle(n)
            full = (1 << s.space.n) - 1
            for mask in all_opens(s.space):
                if mask in (0, full):
                    continue
                members = s.space.set_of(mask)
                if not is_connected(s.space, members):
                    continue
                value = s.value_mask(mask)
                assert value.is_antisymmetric()
                for a, b in itertools.combinations(sorted(members), 2):
                    assert value.has(a, b) or value.has(b, a)

    def test_closed_arc_substream_is_interval(self):
        for n in (2, 3, 4):
            s = directed_circle(n)
            for length in range(1, n):
                # closed arc spanning `length` edges starting at v0
                arc = ["v0"]
                for k in range(1, length + 1):
                    arc.append(f"e{k}")
                    arc.append(f"v{k % n}")
                sub, _ = substream(s, arc)
                assert stream_isomorphism(sub, directed_interval(length)) is not None


class TestDirectedSquare:
    def test_nine_point_product_order(self):
        s = directed_square(1, 1)
        under = s.underlying()
        chain = directed_interval(1).underlying()
        expected = rel_product([chain, chain])
        assert under == expected

    def test_interval_value_on_corner_star(self):
        s = directed_square(1, 2)
        corner = tuple_point("v0", "v0")
        box = s.space.min_open(corner)
        value = s.value(box)
        assert value.is_antisymmetric()
        assert value.has(corner, tuple_point("e1", "e1"))


class TestBoundarySquare:
    def test_boundary_point_set(self):
        assert len(boundary_points(1)) == 8
        assert tuple_point("e1", "e1") not in boundary_points(1)

    def test_corners_related_midpoints_incomparable(self):
        s = boundary_square(1)
        under = s.underlying()
        low = tuple_point("v0", "v0")
        high = tuple_point("v1", "v1")
        assert under.has(low, high)
        bottom_mid = tuple_point("e1", "v0")
        left_mid = tuple_point("v0", "e1")
        assert not under.has(bottom_mid, left_mid)
        assert not under.has(left_mid, bottom_mid)

    def test_antisymmetric_with_convex_base(self):
        s = boundary_square(1)
        hyp, anti = antisymmetric_convexity_oracle(s)
        assert anti

    def test_underlying_is_closure_of_shared_face_steps(self):
        # single steps only happen inside a shared face (a coordinate pinned
        # at an endpoint vertex); the global order is their closure
        for n in (1, 2):
            s = boundary_square(n)
            ends = {"v0", f"v{n}"}
            chain = directed_interval(n).underlying()

            def coords(name):
                inner = name[1:-1]
                depth = 0
                for k, ch in enumerate(inner):
                    if ch == "(":
                        depth += 1
                    elif ch == ")":
                        depth -= 1
                    elif ch == "," and depth == 0:
                        return inner[:k], inner[k + 1 :]
                raise AssertionError(name)

            steps = []
            for x in s.space.points:
                for y in s.space.points:
                    a = coords(x)
                    b = coords(y)
                    componentwise = chain.has(a[0], b[0]) and chain.has(a[1], b[1])
                    shared = any(
                        a[j] == b[j] and a[j] in ends for j in range(2)
                    )
                    if componentwise and shared:
                        steps.append((x, y))
            expected = closure_oracle(s.space.points, steps)
            assert set(s.underlying().pairs()) == expected


class TestStreamFromPoset:
    def test_two_chain_is_sierpinski_stream(self):
        chain = Preorder.build("ab", [("a", "a"), ("b", "b"), ("a", "b")])
        s = stream_from_poset(chain)
        assert s.space.min_open("a") == {"a", "b"}
        assert s.space.min_open("b") == {"b"}
        assert s.underlying() == chain

    def test_antichain_is_discrete_trivial(self):
        anti = Preorder.identity("xyz")
        s = stream_from_poset(anti)
        assert all(s.space.min_open(p) == {p} for p in "xyz")
        assert s.underlying() == anti

    def test_rejects_non_antisymmetric(self):
        full = Preorder.full("ab")
        with pytest.raises(NotAntisymmetric):
            stream_from_poset(full)

    def test_underlying_recovers_input_exhaustive_small(self):
        from finstream import all_preorders

        for n in range(5):
            points = tuple(f"p{i}" for i in range(n))
            for p in all_preorders(points):
                if p.is_antisymmetric():
                    assert stream_from_poset(p).underlying() == p

    def test_underlying_recovers_input_sampled_5(self):
        rng = random.Random(99)
        points = tuple(f"p{i}" for i in range(5))
        found = 0
        while found < 300:
            pairs = [
                (rng.choice(points), rng.choice(points)) for _ in range(rng.randrange(9))
            ]
            p = transitive_reflexive_closure(Relation.build(points, pairs))
            if not p.is_antisymmetric():
                continue
            found += 1
            assert stream_from_poset(p).underlying() == p


class TestStreamFromAtlas:
    def circle_two_arc_atlas(self):
        s = directed_circle(2)
        arc1 = sorted(s.space.min_open("v0"))
        arc2 = sorted(s.space.min_open("v1"))
        return s, [(arc1, s.value(arc1)), (arc2, s.value(arc2))]

    def test_two_arc_circle(self):
        s, charts = self.circle_two_arc_atlas()
        assert stream_from_atlas(s.space, charts) == s

    def test_refinement_invariance(self):
        s, charts = self.circle_two_arc_atlas()
        refined = list(charts)
        for edge in ("e1", "e2"):
            refined.append(([edge], Preorder.identity([edge])))
        assert stream_from_atlas(s.space, refined) == stream_from_atlas(
            s.space, charts
        )

    def test_single_chart_interval(self):
        s = directed_interval(2)
        chart = sorted(s.space.points)
        atlas = [(chart, s.underlying())]
        assert stream_from_atlas(s.space, atlas) == s

    def test_single_chart_result_below_chart_closure(self):
        # on a discrete space a nontrivial chart order collapses: circulation
        # values stay inside the chart order but need not reach it
        from finstream.spaces import space_from_min_opens
        from finstream import trivial_stream

        disc = space_from_min_opens("xy", {"x": "x", "y": "y"})
        order = Preorder.build("xy", [("x", "x"), ("y", "y"), ("x", "y")])
        s = stream_from_atlas(disc, [(["x", "y"], order)])
        assert s == trivial_stream(disc)
        assert set(s.underlying().pairs()) <= set(order.pairs())

    def test_rejects_non_cover(self):
        s = directed_circle(2)
        arc1 = sorted(s.space.min_open("v0"))
        with pytest.raises(NotACover):
            stream_from_atlas(s.space, [(arc1, s.value(arc1))])

    def test_rejects_non_open_chart(self):
        s = directed_circle(2)
        with pytest.raises(NotOpen):
            stream_from_atlas(s.space, [(["v0"], Preorder.identity(["v0"]))])

    def test_rejects_non_partial_order_chart(self):
        s = directed_circle(2)
        arc1 = sorted(s.space.min_open("v0"))
        arc2 = sorted(s.space.min_open("v1"))
        with pytest.raises(ChartNotPartialOrder):
            stream_from_atlas(
                s.space, [(arc1, Preorder.full(arc1)), (arc2, s.value(arc2))]
            )

    def test_reversed_arc_is_still_compatible(self):
        # the arcs only overlap in open edges with singleton stars, so a
        # reversed arc stays germ-compatible; it just builds another stream
        s = directed_circle(2)
        arc1 = sorted(s.space.min_open("v0"))
        arc2 = sorted(s.space.min_open("v1"))
        backwards = s.value(arc2).inverse()
        other = stream_from_atlas(s.space, [(arc1, s.value(arc1)), (arc2, backwards)])
        assert other != s
        assert other.gen_of("v1") == backwards

    def test_rejects_incompatible_charts(self):
        # two charts sharing the 3-cell star of v1 with opposite orientations
        s = directed_interval(2)
        left = ["e1", "e2", "v0", "v1"]
        right = ["e1", "e2", "v1", "v2"]
        o_left = s.value(left)
        o_right = s.value(right).inverse()
        with pytest.raises(IncompatibleCharts):
            stream_from_atlas(s.space, [(left, o_left), (right, o_right)])


class TestPathologyFixture:
    def test_shape(self):
        fx = pathology_fixture()
        assert fx.corner_space.n == 2
        assert all(fx.corner_space.min_open(p) == {p} for p in fx.corner_space.points)

    def test_fails_and_cosheafifies(self):
        fx = pathology_fixture()
        assert not is_circulation(fx.pulled, "fast").ok
        assert not is_circulation(fx.pulled, "exhaustive").ok
        fixed = fx.cosheafified()
        assert is_circulation(fixed.as_precirculation(), "exhaustive").ok
        corners = sorted(fx.corner_space.points)
        assert not fixed.underlying().has(corners[0], corners[1])

    def test_related_only_through_interior(self):
        fx = pathology_fixture()
        corners = sorted(fx.corner_space.points)
        interior_cell = tuple_point("e1", "e1")
        for mask in all_opens(fx.host.space):
            members = fx.host.space.set_of(mask)
            if set(corners) <= members and fx.host.value_mask(mask).has(*corners):
                assert interior_cell in members


class TestModelInvariants:
    def test_every_model_passes_core_checks(self):
        models = [
            directed_interval(1),
            directed_interval(3),
            directed_circle(2),
            directed_circle(4),
            directed_square(1, 1),
            boundary_square(1),
            point_stream(),
            empty_stream(),
        ]
        for s in models:
            assert is_circulation(s.circ.as_precirculation(), "fast").ok
            ok, _ = check_connected_intervals(s)
            assert ok
            hyp, anti = antisymmetric_convexity_oracle(s)
            if hyp:
                assert anti
