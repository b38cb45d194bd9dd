import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finstream import (
    Preorder,
    Relation,
    all_preorders,
    join,
    product,
    transitive_reflexive_closure,
    tuple_point,
)
from finstream.errors import InvalidPreorder, StreamError, UnknownPoint

from conftest import bounded_interval, closure_oracle, convex_oracle, is_convex, relation_product_oracle

POINTS3 = ("a", "b", "c")


def rel(points, pairs):
    return Relation.build(points, pairs)


def pairs_strategy(points, max_pairs=8):
    pair = st.tuples(st.sampled_from(points), st.sampled_from(points))
    return st.lists(pair, max_size=max_pairs)


class TestClosure:
    def test_chain(self):
        closed = transitive_reflexive_closure(rel(POINTS3, [("a", "b"), ("b", "c")]))
        assert set(closed.pairs()) == {
            ("a", "a"), ("b", "b"), ("c", "c"),
            ("a", "b"), ("b", "c"), ("a", "c"),
        }

    def test_single_point(self):
        closed = transitive_reflexive_closure(rel(["a"], []))
        assert closed.pairs() == (("a", "a"),)

    def test_against_composition_fixpoint(self):
        rng = random.Random(5)
        points = tuple(f"p{i}" for i in range(5))
        for _ in range(50):
            pairs = [
                (rng.choice(points), rng.choice(points)) for _ in range(rng.randrange(10))
            ]
            closed = transitive_reflexive_closure(rel(points, pairs))
            assert set(closed.pairs()) == closure_oracle(points, pairs)

    @given(pairs_strategy(POINTS3))
    def test_closure_operator_laws(self, pairs):
        r = rel(POINTS3, pairs)
        once = transitive_reflexive_closure(r)
        assert set(r.pairs()) <= set(once.pairs())  # extensive
        assert transitive_reflexive_closure(once) == once  # idempotent

    @given(pairs_strategy(POINTS3), pairs_strategy(POINTS3))
    def test_closure_monotone(self, small, extra):
        lo = transitive_reflexive_closure(rel(POINTS3, small))
        hi = transitive_reflexive_closure(rel(POINTS3, small + extra))
        assert set(lo.pairs()) <= set(hi.pairs())

    def test_preserves_bounded_by_preorder(self):
        # maps landing inside a preorder stay inside it after closing the
        # source: exhaustive over 3-point relations and maps into 2 points
        points = ("x", "y", "z")
        slots = list(itertools.product(points, points))
        targets = all_preorders(("u", "v"))
        maps = [dict(zip(points, img)) for img in itertools.product("uv", repeat=3)]
        for choice in range(1 << len(slots)):
            pairs = [slots[k] for k in range(len(slots)) if choice >> k & 1]
            r = rel(points, pairs)
            closed = None
            for q in targets:
                for f in maps:
                    if all(q.has(f[x], f[y]) for x, y in pairs):
                        if closed is None:
                            closed = transitive_reflexive_closure(r)
                        assert all(q.has(f[x], f[y]) for x, y in closed.pairs())


class TestJoin:
    def test_symmetric_completion(self):
        a = transitive_reflexive_closure(rel("ab", [("a", "b")]))
        b = transitive_reflexive_closure(rel("ab", [("b", "a")]))
        assert join([a, b]) == Preorder.full("ab")

    def test_idempotent(self):
        p = transitive_reflexive_closure(rel(POINTS3, [("a", "b")]))
        assert join([p, p]) == p

    def test_unit_and_carrier_union(self):
        p = transitive_reflexive_closure(rel("ab", [("a", "b")]))
        q = Preorder.identity("c")
        merged = join([p, q])
        assert merged.carrier == ("a", "b", "c")
        assert merged.has("a", "b") and not merged.has("a", "c")

    def test_empty_join_needs_carrier(self):
        assert join([], carrier="ab") == Preorder.identity("ab")
        with pytest.raises(ValueError):
            join([])

    @given(st.lists(pairs_strategy(POINTS3), min_size=1, max_size=3))
    def test_join_is_closure_of_union(self, families):
        members = [transitive_reflexive_closure(rel(POINTS3, f)) for f in families]
        merged = join(members)
        union = [pair for m in members for pair in m.pairs()]
        assert set(merged.pairs()) == closure_oracle(POINTS3, union)


class TestProduct:
    def test_matches_pairwise_oracle(self):
        # 0 to 3 factors, each a random relation (not necessarily reflexive)
        # or its closure, on carriers of 0 to 3 points
        rng = random.Random(1313)
        for _ in range(300):
            factors = []
            for k in range(rng.randint(0, 3)):
                points = [f"{name}{k}" for name in "abc"[: rng.randint(0, 3)]]
                pairs = [(x, y) for x in points for y in points if rng.random() < 0.4]
                factor = rel(points, pairs)
                if rng.random() < 0.5:
                    factor = transitive_reflexive_closure(factor)
                factors.append(factor)
            got, expected = product(factors), relation_product_oracle(factors)
            assert got == expected and type(got) is type(expected)

    def test_colliding_names_raise(self):
        # ("a", "b,c") and ("a,b", "c") would both be named "(a,b,c)"
        message = "product point name '(a,b,c)' stands for both ('a', 'b,c') and ('a,b', 'c')"
        with pytest.raises(StreamError) as caught:
            product([Preorder.identity(["a", "a,b"]), Preorder.identity(["b,c", "c"])])
        assert str(caught.value) == message

    def test_identity_factors(self):
        p = product([Preorder.identity("ab"), Preorder.identity("c")])
        assert isinstance(p, Preorder)
        assert set(p.pairs()) == {(x, x) for x in p.carrier}
        assert p.carrier == (tuple_point("a", "c"), tuple_point("b", "c"))

    def test_two_chains(self):
        c1 = transitive_reflexive_closure(rel("ab", [("a", "b")]))
        c2 = transitive_reflexive_closure(rel("cd", [("c", "d")]))
        p = product([c1, c2])
        expected = set()
        for (x, u), (y, v) in itertools.product(
            itertools.product("ab", "cd"), repeat=2
        ):
            if c1.has(x, y) and c2.has(u, v):
                expected.add((tuple_point(x, u), tuple_point(y, v)))
        assert set(p.pairs()) == expected
        assert len(expected) == 9

    @given(pairs_strategy(POINTS3, 5), pairs_strategy(("x", "y", "z"), 5))
    @settings(max_examples=60)
    def test_closure_of_product_within_product_of_closures(self, left, right):
        r = rel(POINTS3, left)
        s = rel(("x", "y", "z"), right)
        lhs = transitive_reflexive_closure(product([r, s]))
        rhs = product(
            [transitive_reflexive_closure(r), transitive_reflexive_closure(s)]
        )
        assert set(lhs.pairs()) <= set(rhs.pairs())

    @given(pairs_strategy(POINTS3, 5), pairs_strategy(("x", "y", "z"), 5))
    @settings(max_examples=60)
    def test_closure_commutes_with_product_of_reflexives(self, left, right):
        # equality needs reflexive factors: without the diagonal, a chain
        # cannot move one coordinate while holding the other still
        left = left + [(x, x) for x in POINTS3]
        right = right + [(x, x) for x in ("x", "y", "z")]
        r = rel(POINTS3, left)
        s = rel(("x", "y", "z"), right)
        lhs = transitive_reflexive_closure(product([r, s]))
        rhs = product(
            [transitive_reflexive_closure(r), transitive_reflexive_closure(s)]
        )
        assert lhs == rhs

    def test_distributes_over_join(self):
        # componentwise product distributes over joins of families
        rng = random.Random(11)
        for _ in range(30):
            base = transitive_reflexive_closure(
                rel(POINTS3, [(rng.choice(POINTS3), rng.choice(POINTS3))])
            )
            family = [
                transitive_reflexive_closure(
                    rel("xy", [(rng.choice("xy"), rng.choice("xy"))])
                )
                for _ in range(rng.randrange(1, 4))
            ]
            lhs = product([base, join(family)])
            rhs = join([product([base, member]) for member in family])
            assert lhs == rhs


class TestAccessors:
    def test_restrict(self):
        full = Preorder.full(POINTS3)
        assert full.restrict("ab") == Preorder.full("ab")

    def test_restrict_rejects_unknown(self):
        with pytest.raises(UnknownPoint):
            Preorder.full(POINTS3).restrict(["a", "nope"])

    def test_inverse_involution(self):
        r = rel(POINTS3, [("a", "b"), ("b", "c"), ("c", "c")])
        assert r.inverse().inverse() == r

    def test_image_set(self):
        chain = transitive_reflexive_closure(rel(POINTS3, [("a", "b"), ("b", "c")]))
        assert chain.image_set("a") == {"a", "b", "c"}
        with pytest.raises(UnknownPoint):
            chain.image_set("zz")

    def test_preorder_build_validates(self):
        with pytest.raises(InvalidPreorder):
            Preorder.build("ab", [("a", "b")])  # not reflexive
        with pytest.raises(InvalidPreorder):  # reflexive but not transitive
            Preorder.build(POINTS3, [(x, x) for x in POINTS3] + [("a", "b"), ("b", "c")])


def pair_table_oracle(points, pairs, preorder):
    """Relation.build (preorder false) and Preorder.build by the definitions:
    the first pair with an end outside the carrier, then a point without its
    loop, then pairs (x, y), (y, z) without (x, z); else the sorted graph."""
    carrier = set(points)
    for x, y in pairs:
        for end in (x, y):
            if end not in carrier:
                return UnknownPoint, f"pair ({x!r}, {y!r}): {end!r} not in carrier"
    graph = set(pairs)
    if preorder and any((x, x) not in graph for x in carrier):
        return InvalidPreorder, "relation is not reflexive"
    if preorder and any((x, z) not in graph for x, y in graph for w, z in graph if y == w):
        return InvalidPreorder, "relation is not transitive"
    return sorted(graph)


def build_outcome(cls, points, pairs):
    try:
        return sorted(cls.build(points, pairs).pairs())
    except (UnknownPoint, InvalidPreorder) as exc:
        return type(exc), str(exc)


class TestPairTableCheck:
    def test_builds_match_definitions(self):
        # preorders with a pair dropped, added or renamed to an outside name
        rng = random.Random(1515)
        seen = set()
        for _ in range(600):
            points = rng.sample("abcd", rng.randint(0, 4))
            pairs = list(rng.choice(all_preorders(points)).pairs())
            edit = rng.randrange(4)
            if edit == 1 and pairs:
                pairs.pop(rng.randrange(len(pairs)))
            elif edit == 2 and points:
                pairs.append((rng.choice(points), rng.choice(points)))
            elif edit == 3 and pairs:
                x, y = pairs.pop(rng.randrange(len(pairs)))
                pairs.append(rng.choice([(x, "zz"), ("zz", y)]))
            rng.shuffle(pairs)
            for cls, preorder in ((Relation, False), (Preorder, True)):
                got = build_outcome(cls, points, pairs)
                assert got == pair_table_oracle(points, pairs, preorder)
                seen.add(got[1] if isinstance(got, tuple) else "built")
        assert {"built", "relation is not reflexive", "relation is not transitive"} <= seen
        assert any(kind.startswith("pair (") for kind in seen)


class TestIntervalsAndConvexity:
    def chain3(self):
        return transitive_reflexive_closure(rel(POINTS3, [("a", "b"), ("b", "c")]))

    def test_interval_examples(self):
        chain = self.chain3()
        assert bounded_interval(chain, "a", "c") == {"a", "b", "c"}
        assert bounded_interval(chain, "c", "a") == frozenset()
        with pytest.raises(UnknownPoint):
            bounded_interval(chain, "a", "zz")

    def test_convex_examples(self):
        chain = self.chain3()
        assert not is_convex(chain, {"a", "c"})
        assert is_convex(chain, set())
        assert is_convex(chain, set(POINTS3))

    def test_convex_against_scan(self):
        rng = random.Random(7)
        points = tuple(f"p{i}" for i in range(5))
        for _ in range(40):
            pairs = [
                (rng.choice(points), rng.choice(points)) for _ in range(rng.randrange(8))
            ]
            p = transitive_reflexive_closure(rel(points, pairs))
            subset = {x for x in points if rng.random() < 0.5}
            assert is_convex(p, subset) == convex_oracle(p, subset)


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 4), (3, 29), (4, 355)])
    def test_preorder_counts(self, n, count):
        points = tuple(f"q{i}" for i in range(n))
        members = all_preorders(points)
        assert len(members) == count
        assert len(set(members)) == count
        for p in members:
            assert p.is_reflexive() and p.is_transitive()

    def test_products_and_joins_stay_preorders(self):
        members = all_preorders("ab")
        for p, q in itertools.product(members, repeat=2):
            assert isinstance(join([p, q]), Preorder)
            pr = product([p, q])
            assert isinstance(pr, Preorder)
            assert pr.is_reflexive() and pr.is_transitive()
