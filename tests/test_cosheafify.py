import itertools

from finstream import (
    Preorder,
    all_opens,
    chaotic_precirculation,
    cosheafify,
    enumerate_circulations,
    is_circulation,
    trivial_circulation,
)
from finstream.circulation import StoredPrecirculation
from finstream.corpus import random_precirculation, random_stream, spaces_upto
from finstream.spaces import space_from_min_opens

from conftest import cosheafify_by_enumeration


def dominated(circ, pc):
    space = pc.space
    for mask in all_opens(space):
        bound = pc.rows_on(mask)
        rows = circ.value_rows(mask)
        if any(rows[i] & ~bound[i] for i in range(space.n)):
            return False
    return True


class TestFixedPoints:
    def test_circulation_is_fixed(self, rng, tiny_spaces):
        for space in tiny_spaces:
            circ = random_stream(rng, space).circ
            assert cosheafify(circ.as_precirculation()) == circ

    def test_trivial_precirculation(self, tiny_spaces):
        for space in tiny_spaces:
            pc = trivial_circulation(space).as_precirculation()
            assert cosheafify(pc) == trivial_circulation(space)

    def test_chaotic_on_sierpinski(self):
        space = space_from_min_opens("ab", {"a": "ab", "b": "b"})
        circ = cosheafify(chaotic_precirculation(space))
        assert circ.value("b") == Preorder.identity("b")
        assert circ.value("ab") == Preorder.full("ab")


class TestClosureOperatorLaws:
    def test_below_input_and_idempotent(self, rng, tiny_spaces):
        for space in tiny_spaces:
            pc = random_precirculation(rng, space)
            circ = cosheafify(pc)
            assert dominated(circ, pc)
            assert cosheafify(circ.as_precirculation()) == circ
            assert is_circulation(circ.as_precirculation(), "fast").ok

    def test_monotone_in_input(self, rng, tiny_spaces):
        for space in tiny_spaces:
            small = random_precirculation(rng, space, seeds=1)
            # enlarge by storing one more random open's preorder on top
            big = StoredPrecirculation(
                space,
                {
                    **{
                        space.set_of(mask): small.assign_mask(mask)
                        for mask in all_opens(space)
                    },
                    frozenset(space.points): Preorder.full(space.points),
                },
                exact=False,
            )
            lo = cosheafify(small)
            hi = cosheafify(big)
            assert dominated(lo, hi.as_precirculation())


class TestEnumerationOracle:
    def test_enumeration_finds_all_and_only_circulations(self, tiny_spaces):
        for space in tiny_spaces:
            found = enumerate_circulations(space)
            assert len(set(found)) == len(found)
            for circ in found:
                assert is_circulation(circ.as_precirculation(), "exhaustive").ok

    def test_enumeration_matches_direct_filter(self):
        # independently: every saturated generator family, by brute filter
        from finstream import all_preorders, circulation_from_generators

        for space in spaces_upto(2):
            direct = set()
            choices = [all_preorders(space.min_open(x)) for x in space.points]
            for combo in itertools.product(*choices):
                circ = circulation_from_generators(space, dict(zip(space.points, combo)))
                direct.add(circ)
            assert direct == set(enumerate_circulations(space))

    def test_cosheafify_matches_oracle(self, rng, tiny_spaces):
        for space in tiny_spaces:
            for _ in range(4):
                pc = random_precirculation(rng, space)
                assert cosheafify(pc) == cosheafify_by_enumeration(pc)

    def test_oracle_output_is_largest_dominated(self, rng, tiny_spaces):
        for space in tiny_spaces[-6:]:
            pc = random_precirculation(rng, space)
            best = cosheafify_by_enumeration(pc)
            assert dominated(best, pc)
            for circ in enumerate_circulations(space):
                if dominated(circ, pc):
                    assert dominated(circ, best.as_precirculation())
