import itertools
import random

import pytest

from finstream import (
    Preorder,
    all_opens,
    closure_set,
    coproduct_space,
    interior,
    is_connected,
    is_continuous,
    is_open,
    product_space,
    quotient_space,
    space_from_min_opens,
    specialization_preorder,
    subspace,
    tuple_point,
    boundary_square,
    directed_circle,
    directed_interval,
    directed_square,
)
from finstream.corpus import all_spaces, random_partition, spaces_upto
from finstream.errors import (
    InvalidPartition,
    MissingPoint,
    NotMinimal,
    StreamError,
    UnknownPoint,
)

from conftest import (
    connected_oracle,
    continuity_oracle,
    coproduct_space_oracle,
    open_sets,
    quotient_space_oracle,
)


def set_partitions(points):
    """Every partition of the points, as lists of classes."""
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for part in set_partitions(rest):
        yield [[first], *part]
        for k in range(len(part)):
            yield part[:k] + [[first, *part[k]]] + part[k + 1:]


def sierpinski():
    return space_from_min_opens("ab", {"a": "ab", "b": "b"})


def discrete(names):
    return space_from_min_opens(names, {x: {x} for x in names})


class TestConstruction:
    def test_sierpinski_valid(self):
        space = sierpinski()
        assert space.min_open("a") == {"a", "b"}
        assert space.min_open("b") == {"b"}

    def test_discrete_valid(self):
        space = discrete("xyz")
        assert all(space.min_open(p) == {p} for p in "xyz")

    def test_rejects_nonnested_table(self):
        with pytest.raises(NotMinimal) as err:
            space_from_min_opens("abc", {"a": "ab", "b": "bc", "c": "c"})
        assert err.value.pair == ("a", "b")

    def test_rejects_missing_point(self):
        with pytest.raises(MissingPoint):
            space_from_min_opens("ab", {"a": "ab"})

    def test_rejects_self_absence(self):
        with pytest.raises(NotMinimal):
            space_from_min_opens("ab", {"a": "b", "b": "b"})

    def test_rejects_unknown_member(self):
        with pytest.raises(UnknownPoint):
            space_from_min_opens("ab", {"a": "abz", "b": "b"})


class TestOpensAndClosure:
    def test_sierpinski_opens(self):
        space = sierpinski()
        assert is_open(space, {"b"})
        assert not is_open(space, {"a"})
        assert is_open(space, set()) and is_open(space, {"a", "b"})

    def test_sierpinski_closures(self):
        space = sierpinski()
        assert closure_set(space, {"a"}) == {"a"}
        assert closure_set(space, {"b"}) == {"a", "b"}

    def test_interior_and_closure_boundaries(self, tiny_spaces):
        for space in tiny_spaces:
            assert interior(space, space.points) == set(space.points)
            assert closure_set(space, set()) == set()

    def test_closure_is_complement_of_largest_open_outside(self, tiny_spaces):
        """Against the definition, on every subset of every space on up to 4
        points; each space's closure rows are computed once."""
        for space in tiny_spaces + all_spaces(4):
            opens = open_sets(space)
            for r in range(space.n + 1):
                for subset in itertools.combinations(space.points, r):
                    outside = set().union(*(u for u in opens if not u & set(subset)))
                    assert closure_set(space, subset) == set(space.points) - outside
            assert space.closure_rows is space.closure_rows

    def test_intersections_of_opens_are_open(self):
        for space in all_spaces(4):
            opens = open_sets(space)
            for u, v in itertools.combinations(opens, 2):
                assert is_open(space, u & v)

    def test_interior_is_largest_open_inside(self, tiny_spaces):
        for space in tiny_spaces:
            subsets = itertools.chain.from_iterable(
                itertools.combinations(space.points, r)
                for r in range(space.n + 1)
            )
            for subset in subsets:
                inner = interior(space, subset)
                assert is_open(space, inner) and inner <= set(subset)
                for u in open_sets(space):
                    if u <= set(subset):
                        assert u <= inner


class TestSpecializationAndContinuity:
    def test_sierpinski_specialization(self):
        order = specialization_preorder(sierpinski())
        assert order.has("a", "b") and not order.has("b", "a")

    def test_discrete_specialization(self):
        assert specialization_preorder(discrete("xy")) == Preorder.identity("xy")

    def test_interval_specialization(self):
        space = directed_interval(1).space
        order = specialization_preorder(space)
        assert order.has("v0", "e1") and order.has("v1", "e1")
        assert not order.has("e1", "v0")

    def test_identity_and_constant_continuous(self, tiny_spaces):
        for space in tiny_spaces:
            ident = {p: p for p in space.points}
            assert is_continuous(ident, space, space)
            for q in space.points:
                const = {p: q for p in space.points}
                assert is_continuous(const, space, space)

    def test_sierpinski_swap_discontinuous(self):
        space = sierpinski()
        assert not is_continuous({"a": "b", "b": "a"}, space, space)

    def test_continuity_matches_monotonicity(self, tiny_spaces):
        # is_continuous tests monotonicity; the oracle tests preimages
        for src in tiny_spaces[:12]:
            for dst in tiny_spaces[:12]:
                if src.n == 0 or dst.n == 0:
                    continue
                for img in itertools.product(dst.points, repeat=src.n):
                    f = dict(zip(src.points, img))
                    assert is_continuous(f, src, dst) == continuity_oracle(f, src, dst)


class TestConnectivity:
    def test_examples(self):
        assert is_connected(sierpinski())
        assert not is_connected(discrete("xy"))
        circle = directed_circle(2).space
        assert is_connected(circle, set(circle.points) - {"e2"})

    def test_against_partition_oracle(self, tiny_spaces):
        for space in tiny_spaces:
            for r in range(space.n + 1):
                for subset in itertools.combinations(space.points, r):
                    assert is_connected(space, subset) == connected_oracle(
                        space, subset
                    )


class TestSubspaceProductQuotient:
    def test_product_of_sierpinski(self):
        space = product_space(sierpinski(), sierpinski())
        assert space.n == 4
        assert space.min_open(tuple_point("a", "a")) == set(space.points)

    def test_subspace_of_interval_endpoints(self):
        space = subspace(directed_interval(1).space, ["v0", "v1"])
        assert space.min_open("v0") == {"v0"}
        assert space.min_open("v1") == {"v1"}

    def test_quotient_interval_to_circle_space(self):
        interval = directed_interval(2).space
        quotient, projection = quotient_space(
            interval, [["v0", "v2"], ["v1"], ["e1"], ["e2"]]
        )
        assert quotient == directed_circle(2).space
        assert projection["v2"] == "v0"

    def test_quotient_opens_are_preimage_opens(self, tiny_spaces):
        # finest topology making the projection continuous: a set of classes
        # is open iff its preimage is open, for every partition
        for space in tiny_spaces:
            for partition in set_partitions(space.points):
                quotient, projection = quotient_space(space, partition)
                assert (quotient, projection) == quotient_space_oracle(space, partition)
                assert is_continuous(projection, space, quotient)
                for r in range(quotient.n + 1):
                    for classes in itertools.combinations(quotient.points, r):
                        pre = {p for p in space.points if projection[p] in classes}
                        assert is_open(quotient, classes) == is_open(space, pre)

    def test_quotient_matches_oracle_on_four_points(self):
        for space in all_spaces(4):
            for partition in set_partitions(space.points):
                assert quotient_space(space, partition) == quotient_space_oracle(space, partition)

    def test_quotient_matches_oracle_on_models(self):
        rng = random.Random(4242)
        models = [
            directed_square(3, 3), boundary_square(3), directed_interval(10), directed_circle(8),
        ]
        for s in models:
            for _ in range(200):
                partition = random_partition(rng, rng.sample(s.space.points, s.space.n))
                expected = quotient_space_oracle(s.space, partition)
                assert quotient_space(s.space, partition) == expected, partition

    def test_quotient_errors_match_oracle(self):
        space = discrete("xyz")
        bad = [
            [["x"]], [["x", "y"], ["y"]], [["x", "y"], []], [["q"], []],
            [["x", "q"], ["y"], ["z"]], [["x"], ["y", "x"], ["w"]],
        ]
        for partition in bad:
            with pytest.raises(StreamError) as ours:
                quotient_space(space, partition)
            with pytest.raises(StreamError) as oracle:
                quotient_space_oracle(space, partition)
            assert (type(ours.value), str(ours.value)) == (type(oracle.value), str(oracle.value))

    def test_quotient_rejects_bad_partitions(self):
        space = discrete("xy")
        with pytest.raises(InvalidPartition):
            quotient_space(space, [["x"]])
        with pytest.raises(InvalidPartition):
            quotient_space(space, [["x", "y"], ["y"]])
        with pytest.raises(InvalidPartition):
            quotient_space(space, [["x", "y"], []])

    def test_coproduct(self):
        space, inclusions = coproduct_space([sierpinski(), discrete("z")])
        assert space.n == 3
        assert space.min_open(inclusions[0]["a"]) == {"0:a", "0:b"}
        assert is_open(space, {"1:z"})

    def test_coproduct_matches_name_table(self, tiny_spaces):
        # "a-:x" sorts before "a:x", so the summands' points interleave
        for left in tiny_spaces:
            for right in tiny_spaces[::3]:
                for tags in (["a", "a-"], ["0", "1"]):
                    family = [left, right]
                    expected = coproduct_space_oracle(family, tags)
                    assert coproduct_space(family, tags) == expected
        family = tiny_spaces[-3:]
        tags = ["a-", "a", "b"]
        assert coproduct_space(family, tags) == coproduct_space_oracle(family, tags)

    def test_product_matches_definition(self, tiny_spaces):
        # min_open((x,y)) is min_open(x) x min_open(y), on tuple_point names
        for left in tiny_spaces[:12]:
            for right in tiny_spaces[:12]:
                table = {
                    tuple_point(x, y): [
                        tuple_point(a, b) for a in left.min_open(x) for b in right.min_open(y)
                    ]
                    for x in left.points
                    for y in right.points
                }
                assert product_space(left, right) == space_from_min_opens(table, table)

    def test_product_names_collide(self):
        left = space_from_min_opens(["a", "a,b"], {"a": ["a"], "a,b": ["a,b"]})
        right = space_from_min_opens(["b,c", "c"], {"b,c": ["b,c"], "c": ["c"]})
        message = "product point name '(a,b,c)' stands for both ('a', 'b,c') and ('a,b', 'c')"
        with pytest.raises(StreamError) as caught:
            product_space(left, right)
        assert str(caught.value) == message

    def test_subspace_universal_property(self, tiny_spaces):
        # continuous maps landing in A are exactly continuous maps into the
        # subspace, composed with inclusion
        ambient = directed_interval(1).space
        sub = subspace(ambient, ["v0", "e1"])
        for src in tiny_spaces[:10]:
            if src.n == 0:
                continue
            for img in itertools.product(ambient.points, repeat=src.n):
                f = dict(zip(src.points, img))
                if not set(img) <= set(sub.points):
                    continue
                if is_continuous(f, src, ambient):
                    assert is_continuous(f, src, sub)

    def test_product_universal_property(self):
        left, right = sierpinski(), discrete("xy")
        prod = product_space(left, right)
        to_left = {p: p[1] for p in prod.points}
        first = {tuple_point(a, b): a for a in left.points for b in right.points}
        second = {tuple_point(a, b): b for a in left.points for b in right.points}
        assert is_continuous(first, prod, left)
        assert is_continuous(second, prod, right)
        for src in spaces_upto(2):
            if src.n == 0:
                continue
            for limg in itertools.product(left.points, repeat=src.n):
                f = dict(zip(src.points, limg))
                if not is_continuous(f, src, left):
                    continue
                for rimg in itertools.product(right.points, repeat=src.n):
                    g = dict(zip(src.points, rimg))
                    if not is_continuous(g, src, right):
                        continue
                    paired = {
                        p: tuple_point(f[p], g[p]) for p in src.points
                    }
                    assert is_continuous(paired, src, prod)


class TestOpenEnumeration:
    def test_counts(self):
        assert len(all_opens(discrete("abcd"))) == 16
        assert len(all_opens(sierpinski())) == 3

    def test_all_are_open_and_complete(self, tiny_spaces):
        for space in tiny_spaces:
            masks = all_opens(space)
            assert len(set(masks)) == len(masks)
            for mask in masks:
                assert is_open(space, space.set_of(mask))
            for r in range(space.n + 1):
                for subset in itertools.combinations(space.points, r):
                    if is_open(space, subset):
                        assert space.mask_of(subset) in masks
