import gc
import itertools
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finstream import (
    AlternatingChain,
    Circulation,
    DiagramArrow,
    FuncPrecirculation,
    Precirculation,
    Preorder,
    StoredPrecirculation,
    Stream,
    StreamDiagram,
    all_opens,
    alternating_witness,
    boundary_square,
    chain_witness,
    chaotic_precirculation,
    check_connected_intervals,
    check_monotone,
    circulation_from_generators,
    colimit,
    cosheafify,
    directed_circle,
    directed_interval,
    directed_square,
    is_circulation,
    join,
    join_circulations,
    limit,
    point_stream,
    product_stream,
    pullback,
    pushforward,
    quotient_stream,
    specialization_circulation,
    specialization_preorder,
    trivial_circulation,
    trivial_stream,
    validate_alternating_witness,
)
from finstream import circulation
from finstream._kernels import closure_rows
from finstream.corpus import (
    random_continuous_map,
    random_precirculation,
    random_preorder,
    random_space,
    random_stream,
    spaces_upto,
)
from finstream.errors import (
    CarrierMismatch,
    FormatError,
    MissingPoint,
    NotOpen,
    NotRelated,
    UnknownPoint,
)
from finstream.formats import dump, load
from finstream.models import pathology_fixture
from finstream.relations import iter_bits
from finstream.spaces import closure_mask, space_from_min_opens

from conftest import (
    alternating_witness_fixed_steps,
    alternating_witness_oracle,
    antisymmetric_convexity_oracle,
    bounded_interval,
    chain_witness_all_generators,
    chain_witness_oracle,
    closure_oracle,
    connected_intervals_oracle,
    convex_cover_identity_oracle,
    convex_restriction_oracle,
    full_carrier_join,
    full_gen_rows,
    half_cosheaf_holds,
    is_convex,
    model_streams,
    open_sets,
    position_rows,
    pseudo_circulation_oracle,
)


def sierpinski_space():
    return space_from_min_opens("ab", {"a": "ab", "b": "b"})


class FullRowCirculation(Circulation):
    """A circulation whose values join generators kept in the former
    full-row form (``_full``: n rows per point), which can hold a row off
    its point's minimal open; the stored form keeps those rows only and so
    cannot express such a generator."""

    def _compute(self, mask):
        return circulation._join_on(self.space, mask, (self._full[i] for i in iter_bits(mask)))


def leaving_circulation():
    """A broken circulation on the discrete space {x, y}, built past the
    constructor's check: its generator for x sits on {x, y} and relates y to
    x, a nonzero row off min_open(x). The value on {x, y} relates y to x, the
    minimal-open values do not, so gluing fails there."""
    space = space_from_min_opens("xy", {"x": "x", "y": "y"})
    gen_x = Preorder.build("xy", [("x", "x"), ("y", "y"), ("y", "x")])
    full = tuple(circulation._embed_rows(p, space) for p in (gen_x, Preorder.identity("y")))
    circ = object.__new__(FullRowCirculation)
    circ._hold(space, position_rows(space, full))
    object.__setattr__(circ, "_full", full)
    return circ


class TestGenerators:
    def test_trivial_generators_give_trivial(self, tiny_spaces):
        for space in tiny_spaces:
            gens = {x: Preorder.identity(space.min_open(x)) for x in space.points}
            assert circulation_from_generators(space, gens) == trivial_circulation(space)

    def test_interval_generators_already_saturated(self):
        s = directed_interval(1)
        expected = {
            "v0": Preorder.build(["v0", "e1"], [("v0", "v0"), ("e1", "e1"), ("v0", "e1")]),
            "e1": Preorder.identity(["e1"]),
            "v1": Preorder.build(["e1", "v1"], [("v1", "v1"), ("e1", "e1"), ("e1", "v1")]),
        }
        for x, gen in expected.items():
            assert s.gen_of(x) == gen

    def test_circle_generators_unchanged_and_global_full(self):
        s = directed_circle(2)
        star = s.space.min_open("v0")
        assert s.gen_of("v0") == Preorder.build(
            star,
            [(p, p) for p in star] + [("e2", "v0"), ("v0", "e1"), ("e2", "e1")],
        )
        assert s.underlying() == Preorder.full(s.space.points)

    def test_carrier_mismatch_rejected(self):
        space = sierpinski_space()
        gens = {"a": Preorder.identity("ab"), "b": Preorder.identity("ab")}
        with pytest.raises(CarrierMismatch):
            circulation_from_generators(space, gens)

    def test_saturation_joins_inner_stars(self):
        # a generator on a big star absorbs the generators of inner points
        space = sierpinski_space()
        gens = {
            "a": Preorder.identity("ab"),
            "b": Preorder.identity("b"),
        }
        circ = circulation_from_generators(space, gens)
        assert circ == trivial_circulation(space)

    def test_value_is_closure_of_generator_union(self, corpus_streams):
        for s in corpus_streams:
            if s.space.n > 4:
                continue
            for mask in all_opens(s.space):
                members = s.space.set_of(mask)
                value = s.value_mask(mask)
                union = [
                    pair
                    for x in members
                    for pair in s.gen_of(x).pairs()
                ]
                assert set(value.pairs()) == closure_oracle(members, union)


class TestPreorderOnOpen:
    def test_empty_open(self):
        s = directed_interval(1)
        assert s.value([]) == Preorder((), ())

    def test_circle_star(self):
        s = directed_circle(2)
        value = s.value(s.space.min_open("v0"))
        assert value.has("e2", "v0") and value.has("v0", "e1") and value.has("e2", "e1")
        assert value.is_antisymmetric()

    def test_circle_whole_space_full(self):
        s = directed_circle(2)
        assert s.value(s.space.points).graph_size() == 16

    def test_not_open_rejected(self):
        s = directed_interval(1)
        with pytest.raises(NotOpen):
            s.value(["v0"])


class TestIsCirculation:
    def test_trivial_passes_everywhere(self, tiny_spaces):
        for space in tiny_spaces:
            pc = trivial_circulation(space).as_precirculation()
            assert is_circulation(pc, "fast").ok
            assert is_circulation(pc, "exhaustive").ok

    def test_specialization_passes(self, small_spaces):
        for space in small_spaces:
            pc = specialization_circulation(space).as_precirculation()
            assert is_circulation(pc, "fast").ok

    def test_pathology_fails_both_modes_same_witness(self):
        fx = pathology_fixture()
        fast = is_circulation(fx.pulled, "fast")
        slow = is_circulation(fx.pulled, "exhaustive")
        assert not fast.ok and not slow.ok
        assert fast.witness.collection == slow.witness.collection
        assert (fast.witness.x, fast.witness.y) == (slow.witness.x, slow.witness.y)

    def test_modes_agree_on_random_precirculations(self, rng, tiny_spaces):
        # stored precirculations: fast mode checks the stored opens, and
        # agrees with exhaustive mode and with the open-lattice scan
        failed = 0
        for space in tiny_spaces:
            for _ in range(3):
                pc = random_precirculation(rng, space, seeds=rng.randint(1, 3))
                fast = is_circulation(pc, "fast")
                slow = is_circulation(pc, "exhaustive")
                assert fast.ok == slow.ok
                assert fast == is_circulation(plain_view(pc), "fast")
                failed += not fast.ok
        assert failed > 10

    def test_every_generated_circulation_passes(self, corpus_streams):
        for s in corpus_streams:
            assert is_circulation(s.circ.as_precirculation(), "fast").ok


class TestTrivialAndSpecialization:
    def test_trivial_on_discrete_is_only_circulation(self):
        from finstream.circulation import enumerate_circulations

        space = space_from_min_opens("xyz", {p: {p} for p in "xyz"})
        assert enumerate_circulations(space) == (trivial_circulation(space),)

    def test_join_with_trivial_is_identity_law(self, rng, tiny_spaces):
        for space in tiny_spaces:
            c = random_stream(rng, space).circ
            assert join_circulations([c, trivial_circulation(space)]) == c
            assert join_circulations([c, c]) == c

    def test_specialization_values_restrict_global(self, tiny_spaces):
        for space in tiny_spaces:
            circ = specialization_circulation(space)
            spec = specialization_preorder(space)
            for mask in all_opens(space):
                members = space.set_of(mask)
                assert circ.value_mask(mask) == spec.restrict(members)

    def test_sierpinski_specialization_values(self):
        circ = specialization_circulation(sierpinski_space())
        assert circ.value("ab").has("a", "b")
        assert circ.value("b") == Preorder.identity("b")


class TestJoinCirculations:
    def test_two_half_circles(self):
        s = directed_circle(2)
        space = s.space
        star0 = space.min_open("v0")
        star1 = space.min_open("v1")
        half0 = circulation_from_generators(
            space,
            {
                "v0": s.gen_of("v0"),
                "v1": Preorder.identity(star1),
                "e1": Preorder.identity(["e1"]),
                "e2": Preorder.identity(["e2"]),
            },
        )
        half1 = circulation_from_generators(
            space,
            {
                "v0": Preorder.identity(star0),
                "v1": s.gen_of("v1"),
                "e1": Preorder.identity(["e1"]),
                "e2": Preorder.identity(["e2"]),
            },
        )
        assert join_circulations([half0, half1]) == s.circ

    def test_join_value_is_pointwise_join(self, rng, tiny_spaces):
        for space in tiny_spaces:
            a = random_stream(rng, space).circ
            b = random_stream(rng, space).circ
            merged = join_circulations([a, b])
            for mask in all_opens(space):
                members = sorted(space.set_of(mask))
                expected = closure_oracle(
                    members,
                    list(a.value_mask(mask).pairs()) + list(b.value_mask(mask).pairs()),
                )
                assert set(merged.value_mask(mask).pairs()) == expected

    def test_space_mismatch_rejected(self):
        with pytest.raises(CarrierMismatch):
            join_circulations(
                [
                    trivial_circulation(sierpinski_space()),
                    trivial_circulation(space_from_min_opens("x", {"x": "x"})),
                ]
            )


class TestGeneratorShortcut:
    """is_circulation (fast) and check_monotone answer a circulation's own
    values from its generators. The oracle is the open-lattice scan of the
    same values through a plain Precirculation."""

    @staticmethod
    def assert_matches_scan(circ, monotone=True):
        view = circ.as_precirculation()
        plain = Precirculation(circ.space, circ.value_rows)
        assert is_circulation(view, "fast") == is_circulation(plain, "fast")
        if monotone:
            assert check_monotone(view) == check_monotone(plain)

    def test_streams_match_scan(self, corpus_streams):
        for s in corpus_streams + model_streams():
            self.assert_matches_scan(s.circ, monotone=s.space.n <= 9)

    def test_unsaturated_families_match_scan(self, rng, small_spaces):
        # random families, saturated, then given to the public constructor
        for space in small_spaces:
            gen = tuple(random_preorder(rng, sorted(space.min_open(x))) for x in space.points)
            saturated = circulation_from_generators(space, dict(zip(space.points, gen)))
            circ = Circulation(space, saturated.gen)
            assert circ == saturated
            assert is_circulation(circ.as_precirculation(), "fast").ok
            self.assert_matches_scan(circ)

    def test_generator_off_its_min_open_is_scanned(self):
        # The broken circulation's values through a plain precirculation:
        # the scan finds the failure the constructor would have rejected.
        circ = leaving_circulation()
        result = is_circulation(Precirculation(circ.space, circ.value_rows), "fast")
        assert not result.ok
        assert result.witness.collection == (("x",), ("y",))
        assert (result.witness.x, result.witness.y) == ("y", "x")

    def test_off_open_or_missing_generators_rejected(self):
        space = space_from_min_opens("xy", {"x": "x", "y": "y"})
        gen_x = Preorder.build("xy", [("x", "x"), ("y", "y"), ("y", "x")])
        for gen in (
            (gen_x, Preorder.identity("y")),
            (Preorder.identity("xy"), Preorder.identity("y")),
            (Preorder.identity("x"), Preorder.identity("x")),
            (Preorder.identity("x"), Preorder.identity("y"), Preorder.identity("y")),
        ):
            with pytest.raises(CarrierMismatch):
                Circulation(space, gen)
        with pytest.raises(CarrierMismatch, match="'y'"):
            Circulation(space, (Preorder.identity("x"),))
        # circulation_from_generators reports a missing point before a
        # generator off its minimal open
        with pytest.raises(MissingPoint):
            circulation_from_generators(space, {"x": Preorder.identity("xy")})

    def test_stream_checks_enumerate_no_opens(self, monkeypatch):
        def no_enumeration(*args, **kwargs):
            raise AssertionError("open lattice enumerated")

        monkeypatch.setattr("finstream.circulation.all_opens", no_enumeration)
        pc = directed_interval(14).circ.as_precirculation()
        assert is_circulation(pc, "fast").ok
        assert check_monotone(pc) == (True, None)
        with pytest.raises(AssertionError, match="enumerated"):
            is_circulation(Precirculation(pc.space, pc.rows_on), "fast")


def random_member(rng, space, mask):
    """Random full-space rows that are zero off the mask, with no bits
    outside it: the members _join_on accepts."""
    rows = [0] * space.n
    for i in iter_bits(mask):
        rows[i] = rng.getrandbits(space.n) & mask
    return tuple(rows)


class TestMaskedJoin:
    """_join_on reads each member only at the mask's rows. The oracle is the
    full-carrier join, which ORs and closes all n rows."""

    def test_matches_full_carrier_join(self, rng):
        cases = [(space, list(all_opens(space))) for space in spaces_upto(4)]
        square = directed_square(2, 1).space
        cases.append((square, list(all_opens(square))))
        # directed_square(3, 3) has 49 points and too many opens to list; its
        # minimal opens and random unions of them stand in for the lattice
        big = directed_square(3, 3).space
        minimal = list(big.min_open_rows)
        unions = []
        for _ in range(150):
            mask = 0
            for row in rng.sample(minimal, rng.randint(1, 6)):
                mask |= row
            unions.append(mask)
        cases.append((big, minimal + unions + [(1 << big.n) - 1]))
        checked = 0
        for space, masks in cases:
            for mask in masks:
                members = [random_member(rng, space, mask) for _ in range(rng.randint(1, 3))]
                got = circulation._join_on(space, mask, members)
                assert got == full_carrier_join(space, mask, members)
                checked += 1
        assert checked > 3000

    def test_every_call_site_meets_the_invariant(self, monkeypatch, rng, tiny_spaces):
        real = circulation._join_on
        calls = []

        def checked(space, mask, members):
            members = [tuple(m) for m in members]
            for member in members:
                for i, row in enumerate(member):
                    assert not row & ~mask if mask >> i & 1 else row == 0, (mask, i)
            calls.append(mask)
            return real(space, mask, members)

        monkeypatch.setattr(circulation, "_join_on", checked)
        streams = model_streams() + [point_stream()]
        for space in tiny_spaces:
            s = random_stream(rng, space)
            streams.append(s)
            for mode in ("fast", "exhaustive"):
                is_circulation(random_precirculation(rng, space), mode)
                is_circulation(Precirculation(space, s.circ.value_rows), mode)
            for src in tiny_spaces[:8]:
                f = random_continuous_map(rng, src, space)
                if f is not None:
                    cosheafify(pullback(s, f, src))
        for s in model_streams()[:4]:
            is_circulation(Precirculation(s.space, s.circ.value_rows), "fast")
        fx = pathology_fixture()
        is_circulation(fx.pulled, "fast")
        cosheafify(fx.pulled)
        interval, circle = directed_interval(2), directed_circle(2)
        product_stream(directed_interval(1), circle)
        glue = {"v0": "v0", "v2": "v0", "v1": "v1", "e1": "e1", "e2": "e2"}
        pushforward(interval, glue, circle.space)
        quotient_stream(interval, [["v0", "v2"], ["v1"], ["e1"], ["e2"]])
        join_circulations([circle.circ, trivial_circulation(circle.space)])
        identity = {p: p for p in circle.space.points}
        diagram = StreamDiagram(
            {"A": circle, "B": circle}, {"f": DiagramArrow("A", "B", identity)}
        )
        limit(diagram)
        colimit(diagram)
        i1 = directed_interval(1)
        pushout = StreamDiagram(
            {"P": point_stream(), "I": i1, "J": i1},
            {
                "a": DiagramArrow("P", "I", {"pt": "v1"}),
                "b": DiagramArrow("P", "J", {"pt": "v0"}),
            },
        )
        limit(pushout)
        colimit(pushout)
        for s in streams:
            s.underlying()
        assert len(calls) > 1000

    def test_reads_only_the_masks_rows(self):
        reads = []

        class CountingRows(tuple):
            def __getitem__(self, k):
                reads.append(k)
                return tuple.__getitem__(self, k)

        s = directed_square(16, 16)
        space = s.space
        gen_rows = full_gen_rows(s.circ)
        middle = space.index(space.points[space.n // 2])
        for mask in (space.min_open_rows[0], space.min_open_rows[middle], (1 << space.n) - 1):
            members = [CountingRows(gen_rows[i]) for i in iter_bits(mask)]
            reads.clear()
            circulation._join_on(space, mask, members)
            width = bin(mask).count("1")
            assert len(reads) == width * len(members)
            assert set(reads) == set(iter_bits(mask))


class TestValueMemo:
    """A circulation memoizes its values once, in its view, and dropping it
    frees both without the cycle collector."""

    def test_view_is_the_one_value_memo(self, monkeypatch):
        closures = []

        def counting(rows, n, positions=None):
            closures.append(n)
            return closure_rows(rows, n, positions)

        s = directed_interval(3)
        expected = s.underlying()
        circ = Circulation(s.space, s.circ.gen)
        monkeypatch.setattr("finstream.circulation.closure_rows", counting)
        view = circ.as_precirculation()
        assert view is circ.as_precirculation()
        full = (1 << s.space.n) - 1
        rows = view.rows_on(full)
        assert len(closures) == 1
        assert circ.value_rows(full) is rows
        assert circ.underlying() == expected
        assert len(closures) == 1
        star = s.space.min_open_rows[s.space.index("v1")]
        circ.value_mask(star)
        assert len(closures) == 2
        assert view.rows_on(star) is circ.value_rows(star)
        assert len(closures) == 2

    def test_dropped_circulation_freed_without_cycle_collector(self):
        s = directed_interval(3)
        circ = Circulation(s.space, s.circ.gen)
        view = circ.as_precirculation()
        circ.underlying()
        refs = [weakref.ref(circ), weakref.ref(view)]
        gc.disable()
        try:
            del circ, view
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()


class TestMonotonicityAndHalfCosheaf:
    def test_circulations_monotone(self, corpus_streams):
        for s in corpus_streams:
            if s.space.n > 4:
                continue
            ok, witness = check_monotone(s.circ.as_precirculation())
            assert ok, witness

    def test_half_cosheaf_on_precirculations(self, rng, tiny_spaces):
        for space in tiny_spaces:
            pc = random_precirculation(rng, space)
            opens = open_sets(space)
            for r in range(min(3, len(opens)) + 1):
                for collection in itertools.combinations(opens, r):
                    assert half_cosheaf_holds(pc, collection)

    def test_half_cosheaf_fails_when_value_shrinks(self):
        # full on {a, b} but the identity on {a, b, c}: (a, b) is lost in the union
        space = space_from_min_opens(["a", "b", "c"], {"a": ["a"], "b": ["b"], "c": ["c"]})
        ab = space.mask_of(["a", "b"])

        def assign(mask):
            points = space.set_of(mask)
            return Preorder.full(points) if mask == ab else Preorder.identity(points)

        pc = FuncPrecirculation(space, assign)
        assert not half_cosheaf_holds(pc, [["a", "b"], ["a", "b", "c"]])


class TestAlternatingWitness:
    def test_equal_points_empty_chain(self):
        s = directed_interval(1)
        chain = alternating_witness(s, ["e1"], ["e1"], "e1", "e1")
        assert len(chain) == 0

    def test_circle_loop_chain_validates(self):
        # the full loop e1 -> e2 -> e1 is a valid alternating chain between
        # the two stars, though the minimal witness for (e1, e1) is empty
        s = directed_circle(2)
        star0 = s.space.min_open("v0")
        star1 = s.space.min_open("v1")
        loop = AlternatingChain(("e1", "e2", "e1"), ("V", "U"))
        assert validate_alternating_witness(s, star0, star1, "e1", "e1", loop)
        assert len(alternating_witness(s, star0, star1, "e1", "e1")) == 0

    def test_refuses_malformed_certificates(self):
        s = directed_interval(2)
        mo = s.space.min_open
        u, v = mo("v0") | mo("v1"), mo("v1") | mo("v2")
        chain = alternating_witness(s, u, v, "v0", "v2")
        assert chain.labels == ("U", "V")
        assert validate_alternating_witness(s, u, v, "v0", "v2", chain)
        # a label that names neither open
        relabelled = AlternatingChain(chain.points, ("U", "W"))
        assert not validate_alternating_witness(s, u, v, "v0", "v2", relabelled)
        # no points at all
        assert not validate_alternating_witness(s, u, v, "v0", "v0", AlternatingChain((), ()))
        # a zero-step chain at a point outside the union, which
        # alternating_witness refuses
        with pytest.raises(UnknownPoint):
            alternating_witness(s, u, v, "zz", "zz")
        assert not validate_alternating_witness(s, u, v, "zz", "zz", AlternatingChain(("zz",), ()))
        for x in s.space.points:
            stay = AlternatingChain((x,), ())
            assert validate_alternating_witness(s, u, v, x, x, stay) == (x in u | v)

    def test_circle_two_step_minimal_chain(self):
        s = directed_circle(2)
        star0 = s.space.min_open("v0")
        star1 = s.space.min_open("v1")
        chain = alternating_witness(s, star0, star1, "v0", "v1")
        assert len(chain) == 2
        assert validate_alternating_witness(s, star0, star1, "v0", "v1", chain)

    def test_not_related_raises(self):
        s = directed_interval(1)
        with pytest.raises(NotRelated):
            alternating_witness(s, ["e1"], ["e1", "v1"], "v1", "e1")

    def test_exhaustive_on_corpus(self, corpus_streams):
        for s in corpus_streams:
            if s.space.n > 4:
                continue
            opens = open_sets(s.space)
            for u, v in itertools.product(opens, repeat=2):
                value = s.value(u | v)
                for x in value.carrier:
                    for y in value.image_set(x):
                        chain = alternating_witness(s, u, v, x, y)
                        assert validate_alternating_witness(s, u, v, x, y, chain)

    def test_chain_witness_steps_verify(self, corpus_streams):
        for s in corpus_streams[:10]:
            full = sorted(s.space.points)
            value = s.value(full)
            for x in value.carrier:
                for y in value.image_set(x):
                    steps = chain_witness(s, full, x, y)
                    here = x
                    for a, z, b in steps:
                        assert a == here
                        assert s.gen_of(z).has(a, b)
                        here = b
                    assert here == y


WITNESS_SCRIPT = """
from finstream import directed_square
from finstream.circulation import alternating_witness, chain_witness

s = directed_square(3, 3)
u = s.space.min_open("(v1,v1)")
v = s.space.min_open("(v2,v1)")
union = sorted(u | v)
value = s.value(union)
for x in value.carrier:
    for y in sorted(value.image_set(x)):
        print(x, y, alternating_witness(s, u, v, x, y), chain_witness(s, union, x, y))
"""


class TestWitnessesReproducible:
    """Witnesses and error messages do not depend on the hash seed, and the
    alternating witness is as short as the (point, label) search finds."""

    def test_same_output_under_every_hash_seed(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = set()
        for seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            run = subprocess.run(
                [sys.executable, "-c", WITNESS_SCRIPT],
                env=env, capture_output=True, text=True, check=True, timeout=120,
            )
            outputs.add(run.stdout)
        assert len(outputs) == 1
        (text,) = outputs
        assert text.count("AlternatingChain") == 90  # the union's related pairs

    def test_alternating_matches_label_search_oracle(self):
        rng = random.Random(11)
        for s in model_streams():
            space = s.space
            stars = list(dict.fromkeys(space.min_open_rows))
            opens = all_opens(space)
            pairs = list(itertools.combinations_with_replacement(stars, 2))
            pairs += [tuple(rng.sample(opens, 2)) for _ in range(20) if len(opens) > 1]
            for umask, vmask in pairs:
                u, v = space.set_of(umask), space.set_of(vmask)
                value = s.value_mask(umask | vmask)
                for x in value.carrier:
                    for y in value.image_set(x):
                        chain = alternating_witness(s, u, v, x, y)
                        assert len(chain) == len(alternating_witness_oracle(s, u, v, x, y))
                        assert validate_alternating_witness(s, u, v, x, y, chain)
                        assert chain == alternating_witness_fixed_steps(s, u, v, x, y)

    def test_errors_match_label_search_oracle(self):
        s = directed_interval(3)
        u, v = s.space.min_open("v1"), s.space.min_open("v2")

        def outcome(fn, x, y):
            try:
                return len(fn(s, u, v, x, y))
            except (UnknownPoint, NotRelated) as exc:
                return type(exc), str(exc)

        for x in s.space.points + ("zz",):
            for y in s.space.points:
                expected = outcome(alternating_witness_oracle, x, y)
                assert outcome(alternating_witness, x, y) == expected


class TestChainWitness:
    """chain_witness decides on the open's value rows; the oracle decides on
    its Preorder value, as the function did before."""

    @staticmethod
    def outcome(fn, *args):
        try:
            return fn(*args)
        except (UnknownPoint, NotRelated) as exc:
            return type(exc), str(exc)

    def test_matches_preorder_oracle(self):
        for s in model_streams():
            space = s.space
            opens = [space.points] + [space.min_open(x) for x in space.points]
            for open_set in opens:
                for x in space.points:
                    for y in space.points:
                        expected = self.outcome(chain_witness_oracle, s, open_set, x, y)
                        assert self.outcome(chain_witness, s, open_set, x, y) == expected

    def test_matches_all_generators_search(self, corpus_streams):
        """Trying at each point only the generators whose minimal open holds
        it gives the chain the search over every generator gives: on every
        related pair of every open of the corpus streams on up to 4 points,
        and of the whole space and each minimal open of four models."""
        models = [directed_interval(5), directed_circle(4), directed_square(3, 3), boundary_square(2)]
        longest = 0
        for s in [t for t in corpus_streams if t.space.n <= 4] + models:
            space = s.space
            if space.n <= 4:
                opens = open_sets(space)
            else:
                opens = [space.points] + [space.min_open(x) for x in space.points]
            for open_set in opens:
                mask = space.mask_of(open_set)
                rows = s.circ.value_rows(mask)
                for i in iter_bits(mask):
                    for j in iter_bits(rows[i]):
                        x, y = space.points[i], space.points[j]
                        chain = chain_witness(s, open_set, x, y)
                        assert chain == chain_witness_all_generators(s, open_set, x, y)
                        longest = max(longest, len(chain))
        assert longest >= 4

    @pytest.mark.parametrize(
        "open_set, x, y, error, message",
        [
            (["e1"], "v0", "e1", UnknownPoint, "'v0' or 'e1' outside the open set"),
            (["e1"], "e1", "zz", UnknownPoint, "'e1' or 'zz' outside the open set"),
            (["v0", "e1", "v1"], "v1", "v0", NotRelated, "'v1' is not below 'v0' on the open set"),
        ],
    )
    def test_errors_unchanged(self, open_set, x, y, error, message):
        s = directed_interval(1)
        for fn in (chain_witness, chain_witness_oracle):
            with pytest.raises(error) as caught:
                fn(s, open_set, x, y)
            assert str(caught.value) == message


class TestConnectedIntervals:
    def test_trivial_discrete(self):
        space = space_from_min_opens("xy", {"x": "x", "y": "y"})
        ok, _ = check_connected_intervals(trivial_stream(space))
        assert ok

    def test_interval(self):
        ok, _ = check_connected_intervals(directed_interval(2))
        assert ok

    def test_whole_corpus(self, corpus_streams):
        for s in corpus_streams:
            ok, witness = check_connected_intervals(s)
            assert ok, (s, witness)

    def test_matches_point_set_oracle(self, corpus_streams):
        larger = [directed_interval(16), directed_circle(8), directed_square(3, 3)]
        for s in corpus_streams + model_streams() + larger:
            assert check_connected_intervals(s) == connected_intervals_oracle(s)

    def test_chain_proof(self, corpus_streams):
        """The proof the CLI answers from: for x <= p <= y, the generator
        chains from x to p and from p to y stay inside [x, y], and each step
        (a, z, b) has a and b in min_open(z), so z lies in cl{a} and cl{b}.
        cl([x, y]) is then a chain of connected closures."""
        for s in corpus_streams + model_streams():
            space = s.space
            under = s.underlying()
            full = space.points
            for x in full:
                for y in under.image_set(x):
                    interval = bounded_interval(under, x, y)
                    for p in interval:
                        for chain in (chain_witness(s, full, x, p), chain_witness(s, full, p, y)):
                            for a, z, b in chain:
                                assert {a, b} <= space.min_open(z)
                                assert {a, b} <= interval

    def test_failure_matches_point_set_oracle(self):
        # x's generator leaves its minimal open and relates y to x on a
        # discrete space, so the closure of [y, x] is disconnected.
        circ = leaving_circulation()
        s = Stream(circ.space, circ)
        assert check_connected_intervals(s) == connected_intervals_oracle(s) == (False, ("y", "x"))


class TestConvexRestriction:
    # on a subset convex in the underlying preorder, the value on every open
    # around the subset's closure restricts to the underlying preorder
    def test_convex_singletons(self, corpus_streams):
        # singletons need not be convex (on the circle everything global is
        # between everything); where they are, the restriction identity holds
        for s in corpus_streams[:12]:
            under = s.underlying()
            for p in s.space.points:
                if is_convex(under, [p]):
                    assert convex_restriction_oracle(s, [p])

    def test_interval_edge(self):
        assert convex_restriction_oracle(directed_interval(1), ["e1"])

    def test_all_convex_subsets_at_small_scale(self, corpus_streams):
        streams = [s for s in corpus_streams if s.space.n <= 4]
        streams += [directed_interval(3), directed_circle(4), directed_square(1, 1)]
        for s in streams:
            under = s.underlying()
            for r in range(s.space.n + 1):
                for subset in itertools.combinations(s.space.points, r):
                    if is_convex(under, subset):
                        assert convex_restriction_oracle(s, subset)


class TestPseudoCirculations:
    def test_min_open_family(self, corpus_streams):
        for s in corpus_streams[:12]:
            if s.space.n == 0:
                continue
            family = [s.space.min_open(x) for x in s.space.points]
            assert pseudo_circulation_oracle(s, family)

    def test_whole_space_family(self, corpus_streams):
        for s in corpus_streams[:12]:
            if s.space.n == 0:
                continue
            assert pseudo_circulation_oracle(s, [s.space.points])

    def test_neighborhood_condition_enforced(self):
        s = directed_interval(1)
        with pytest.raises(ValueError):
            pseudo_circulation_oracle(s, [["v0"]])

    def test_least_failing_point_named(self):
        # every vertex fails: its minimal open holds edges outside the family
        s = directed_interval(3)
        with pytest.raises(ValueError, match="of 'v0'$"):
            pseudo_circulation_oracle(s, [["v0", "v1", "v2", "v3"]])

    def test_random_valid_families(self, rng, corpus_streams):
        from finstream.spaces import interior

        for s in corpus_streams:
            if not 0 < s.space.n <= 4:
                continue
            subsets = []
            for r in range(1, s.space.n + 1):
                subsets.extend(itertools.combinations(s.space.points, r))
            for _ in range(8):
                family = rng.sample(subsets, min(3, len(subsets)))
                union = {p for a in family for p in a}
                if all(
                    any(p in interior(s.space, a) for a in family) for p in union
                ):
                    assert pseudo_circulation_oracle(s, family)


class TestConvexCoverIdentity:
    def test_all_opens_small(self, corpus_streams):
        streams = [s for s in corpus_streams if s.space.n <= 4]
        streams += [directed_interval(3), directed_circle(3), directed_square(1, 1)]
        outcomes = set()
        for s in streams:
            for mask in all_opens(s.space):
                hyp, holds = convex_cover_identity_oracle(s, s.space.set_of(mask))
                # each point of the set must lie in a subset whose closure
                # stays inside it, so the hypothesis says the set is closed
                assert hyp == (closure_mask(s.space, mask) == mask)
                if hyp:
                    assert holds
                outcomes.add(hyp)
        assert outcomes == {True, False}


class TestAntisymmetricConvexity:
    def test_corpus(self, corpus_streams):
        for s in corpus_streams:
            hyp, anti = antisymmetric_convexity_oracle(s)
            if hyp:
                assert anti

    def test_interval_satisfies_hypotheses(self):
        hyp, anti = antisymmetric_convexity_oracle(directed_interval(2))
        assert hyp and anti

    def test_circle_hypothesis_fails(self):
        # underlying preorder is full, so stars are not convex; T0 alone
        # cannot force antisymmetry
        hyp, anti = antisymmetric_convexity_oracle(directed_circle(2))
        assert not hyp and not anti


def plain_view(pc):
    """The same values through a plain Precirculation, which the checks scan
    over the open lattice."""
    return Precirculation(pc.space, pc.rows_on)


def corpus_precirculations(small_spaces, seed):
    """Stored precirculations as the corpus draws them: 1-4 random values on
    every small space, and on random spaces of 5 and 6 points."""
    rng = random.Random(seed)
    spaces = small_spaces + [random_space(rng, rng.choice((5, 6))) for _ in range(40)]
    return [random_precirculation(rng, space, seeds=rng.randint(1, 4)) for space in spaces]


def dense_precirculation(rng, space, count):
    """``count`` draws of a stored open, repeats allowed: each holds one
    random stream's value there or a random preorder, so stored opens nest,
    and some glue while others break gluing."""
    stream = random_stream(rng, space)
    opens = all_opens(space)
    stored = {}
    for _ in range(count):
        members = sorted(space.set_of(rng.choice(opens)))
        value = stream.value(members) if rng.random() < 0.6 else random_preorder(rng, members)
        stored[frozenset(members)] = value
    return StoredPrecirculation(space, stored, exact=False)


def failing_open(space, witness):
    """The open whose failure a fast witness reports: the union of its
    minimal-open cover."""
    mask = 0
    for members in witness.collection:
        mask |= space.mask_of(members)
    return mask


class TestStoredPrecirculation:
    """is_circulation (fast) checks a StoredPrecirculation on its stored
    opens only, and check_monotone accepts it without a scan. The oracle is
    the open-lattice scan of the same values through a plain view."""

    def test_matches_scan(self, small_spaces):
        failed = 0
        for pc in corpus_precirculations(small_spaces, "stored-scan"):
            result = is_circulation(pc, "fast")
            assert result == is_circulation(plain_view(pc), "fast")
            failed += not result.ok
        assert failed > 20  # the comparison covers witnesses too

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), seeds=st.integers(1, 4))
    @settings(max_examples=300, deadline=None)
    def test_first_failing_open_is_stored(self, seed, n, seeds):
        # the lemma behind the shortcut: the scan's first failing open holds
        # a stored value
        rng = random.Random(seed)
        pc = random_precirculation(rng, random_space(rng, n), seeds=seeds)
        scan = is_circulation(plain_view(pc), "fast")
        if not scan.ok:
            assert failing_open(pc.space, scan.witness) in pc._stored

    def test_dense_families_match_scan(self, rng):
        # the ascending-order lemma: each stored open is decided by its
        # stored value against the join inside its points' minimal opens,
        # given that every earlier stored open glued
        outcomes = {True: 0, False: 0}
        after_glued = 0
        for _ in range(800):
            space = random_space(rng, rng.randint(1, 6))
            pc = dense_precirculation(rng, space, rng.randint(1, 8))
            result = is_circulation(pc, "fast")
            assert result == is_circulation(plain_view(pc), "fast")
            outcomes[result.ok] += 1
            if not result.ok:
                failed = failing_open(space, result.witness)
                after_glued += any(
                    mask < failed and mask not in space.min_open_rows for mask in pc._stored
                )
        assert min(outcomes.values()) > 150
        assert after_glued > 50  # failures behind a stored open that glued

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_every_open_of_interval_with_one_value_perturbed(self, n):
        s = directed_interval(n)
        space = s.space
        values = {frozenset(space.set_of(m)): s.circ.value_mask(m) for m in all_opens(space)}
        assert is_circulation(StoredPrecirculation(space, values), "fast").ok
        # the full preorder on every other open, the identity on the rest
        failed = 0
        for k, open_set in enumerate(values):
            wrong = (Preorder.full, Preorder.identity)[k % 2](open_set)
            pc = StoredPrecirculation(space, {**values, open_set: wrong})
            result = is_circulation(pc, "fast")
            assert result == is_circulation(plain_view(pc), "fast")
            failed += not result.ok
        assert len(values) // 3 < failed < len(values)

    def test_interval8_file_closes_once_per_open_and_reads_one_hull(self, tmp_path, monkeypatch):
        s = directed_interval(8)
        space = s.space
        whole = (1 << space.n) - 1
        full = tuple(whole for _ in space.points)
        glues, breaks = tmp_path / "glues.json", tmp_path / "breaks.json"
        dump(Precirculation(space, s.circ.rows_on), str(glues))
        dump(Precirculation(space, lambda m: full if m == whole else s.circ.rows_on(m)), str(breaks))
        hulls, closures = [], []
        compute = StoredPrecirculation._compute
        monkeypatch.setattr(
            StoredPrecirculation, "_compute", lambda pc, mask: hulls.append(mask) or compute(pc, mask)
        )
        monkeypatch.setattr(
            circulation, "closure_rows", lambda *args: closures.append(1) or closure_rows(*args)
        )
        minimal = len(set(space.min_open_rows))
        for path, ok in ((glues, True), (breaks, False)):
            hulls.clear()
            closures.clear()
            pc = load(str(path))
            assert len(pc._stored) == 4181
            result = is_circulation(pc, "fast")
            assert result.ok is ok
            # minimal opens glue unclosed; the failing open alone reads its hull
            assert hulls == ([] if ok else [whole])
            assert len(closures) == len(pc._stored) - minimal + len(hulls)
        assert failing_open(space, result.witness) == whole
        assert (result.witness.x, result.witness.y) == ("e1", "v0")

    def test_hull_joins_the_stored_values_inside(self, rng):
        # the hull on W, read through the stored opens' per-point index, is
        # the closure of the stored values on the stored opens inside W
        for _ in range(150):
            space = random_space(rng, rng.randint(1, 6))
            opens = all_opens(space)
            stored = {}
            for _ in range(rng.randint(1, 8)):
                members = frozenset(space.set_of(rng.choice(opens)))
                stored[members] = random_preorder(rng, sorted(members))
            pc = StoredPrecirculation(space, stored, exact=False)
            for mask in opens:
                w = space.set_of(mask)
                inside = [value for open_set, value in stored.items() if open_set <= w]
                assert pc.assign_mask(mask) == join(inside, carrier=w)

    def test_interval8_file_dumps_back_byte_identical(self, tmp_path):
        # every one of the 4,181 opens listed: writing the loaded file reads
        # each open's hull
        s = directed_interval(8)
        first, again = tmp_path / "values.json", tmp_path / "again.json"
        dump(Precirculation(s.space, s.circ.rows_on), str(first))
        dump(load(str(first)), str(again))
        assert again.read_bytes() == first.read_bytes()

    def test_hull_is_monotone(self, small_spaces):
        # the library accepts the hull without a scan; the scan agrees
        for pc in corpus_precirculations(small_spaces, "stored-monotone"):
            if pc.space.n > 4:
                continue
            assert check_monotone(pc) == check_monotone(plain_view(pc)) == (True, None)

    def test_checks_enumerate_no_opens(self, monkeypatch):
        def no_enumeration(*args, **kwargs):
            raise AssertionError("open lattice enumerated")

        s = directed_interval(14)
        space = s.space
        # the stream's own minimal-open values glue; the full preorder on
        # min_open(v1) | min_open(v2) does not, and the values inside it are
        # the identity
        holds = StoredPrecirculation(
            space, {frozenset(space.min_open(x)): s.gen_of(x) for x in space.points}
        )
        wide = space.min_open("v1") | space.min_open("v2")
        breaks = StoredPrecirculation(space, {frozenset(wide): Preorder.full(wide)})
        monkeypatch.setattr("finstream.circulation.all_opens", no_enumeration)
        assert is_circulation(holds, "fast").ok
        result = is_circulation(breaks, "fast")
        assert not result.ok
        assert failing_open(space, result.witness) == space.mask_of(wide)
        assert (result.witness.x, result.witness.y) == ("e1", "e2")
        for pc in (holds, breaks):
            assert check_monotone(pc) == (True, None)
        with pytest.raises(AssertionError, match="enumerated"):
            is_circulation(plain_view(breaks), "fast")

    @pytest.mark.parametrize("first", [("a", "b"), ("b", "a")])
    def test_open_stored_twice_is_refused(self, first):
        # one open under two point orders, whichever comes first, is refused
        # rather than keeping one of its two values
        space = space_from_min_opens("ab", {"a": "a", "b": "b"})
        second = first[::-1]
        stored = {first: Preorder.full("ab"), second: Preorder.identity("ab")}
        with pytest.raises(FormatError, match=r"open \['a', 'b'\] is stored twice"):
            StoredPrecirculation(space, stored)

    def test_chaotic_is_monotone_not_circulation(self):
        space = sierpinski_space()
        pc = chaotic_precirculation(space)
        assert check_monotone(pc)[0]
        # full on every open fails gluing when the space is not connected
        disc = space_from_min_opens("xy", {"x": "x", "y": "y"})
        assert not is_circulation(chaotic_precirculation(disc), "fast").ok


class TestFuncPrecirculation:
    def test_value_off_its_open_raises_carrier_mismatch(self):
        space = sierpinski_space()
        pc = FuncPrecirculation(space, lambda mask: Preorder.identity(space.points))
        assert pc.assign_mask(space.mask_of("ab")) == Preorder.identity("ab")
        for _ in range(2):  # a rejected value is not memoized
            with pytest.raises(CarrierMismatch):
                pc.assign_mask(space.mask_of("b"))
