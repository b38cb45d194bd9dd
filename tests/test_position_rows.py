"""A circulation stores each generator on its point's minimal open only.

``Circulation._gen_rows[x]`` holds the rows of min_open(x)'s points, in
ascending point order. The former stored form, n full-space rows per point
and zero off the minimal open, is kept in ``conftest`` together with the
constructions that built it (``full_saturate``, ``full_initial_lift``,
``full_final_lift``); every construction here is compared with it. The
antisymmetry check, now decided on the generator-step graph, is compared
with the closure of the global value, and ``stream_isomorphism`` runs on
more points than the interpreter's recursion limit allows.
"""

import itertools

import pytest

from finstream import (
    Circulation,
    DiagramArrow,
    FiniteSpace,
    Stream,
    StreamDiagram,
    boundary_square,
    circulation_from_generators,
    colimit,
    coproduct_stream,
    cosheafify,
    directed_circle,
    directed_interval,
    directed_square,
    enumerate_circulations,
    join_circulations,
    limit,
    product_stream,
    pullback,
    pushforward,
    quotient_stream,
    specialization_circulation,
    stream_isomorphism,
    substream,
    trivial_circulation,
)
from finstream._kernels import closure_rows, is_acyclic, iter_bits
from finstream.corpus import (
    random_continuous_map,
    random_precirculation,
    random_preorder,
    spaces_upto,
)
from finstream.errors import InvalidPreorder
from finstream.models import boundary_points, interval_endpoint_partition

from conftest import (
    antisymmetry_oracle,
    full_embed_family,
    full_final_lift,
    full_gen_rows,
    full_initial_lift,
    full_require_saturated,
    full_saturate,
    model_streams,
    position_rows,
)


def assert_stored_as(circ, full):
    """circ stores the full-row family on the minimal opens, and the family
    is zero off them."""
    space = circ.space
    for mo, rows in zip(space.min_open_rows, full):
        assert not any(row for a, row in enumerate(rows) if not mo >> a & 1)
    assert full_gen_rows(circ) == full
    assert circ._gen_rows == position_rows(space, full)


def cell_chain_rows(s, n, closed):
    """The cell chain's generators built by hand in the full-row form: each
    vertex star is the chain left edge <= vertex <= right edge."""
    space = s.space
    family = []
    for x in space.points:
        chain = [x]
        if x.startswith("v"):
            i = int(x[1:])
            if i >= 1 or closed:
                chain.insert(0, f"e{i or n}")
            if i < n:
                chain.append(f"e{i + 1}")
        rows = [0] * space.n
        for k, a in enumerate(chain):
            for b in chain[k:]:
                rows[space.index(a)] |= 1 << space.index(b)
        family.append(tuple(rows))
    return tuple(family)


def product_rows(s, t, prod, first, second):
    return full_initial_lift(prod.space, [(first.mapping, s), (second.mapping, t)])


# The models the cli_build benchmark workload builds, by its names.
INTERVALS = (1, 2, 3, 4, 6, 8, 16, 32)
CIRCLES = (2, 3, 4, 6, 8, 12)
SQUARES = ((1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 4), (6, 6))
BOUNDARIES = (1, 2, 3, 5)


class TestModels:
    def test_cell_chains(self):
        for n in INTERVALS:
            s = directed_interval(n)
            assert_stored_as(s.circ, cell_chain_rows(s, n, closed=False))
        for n in CIRCLES:
            s = directed_circle(n)
            assert_stored_as(s.circ, cell_chain_rows(s, n, closed=True))

    def test_squares_and_boundaries(self):
        for n, m in SQUARES:
            left, right = directed_interval(n), directed_interval(m)
            prod, first, second = product_stream(left, right)
            assert prod == directed_square(n, m)
            assert_stored_as(prod.circ, product_rows(left, right, prod, first, second))
        for n in BOUNDARIES:
            square = directed_square(n, n)
            s = boundary_square(n)
            incl = {p: p for p in boundary_points(n)}
            assert_stored_as(s.circ, full_initial_lift(s.space, [(incl, square)]))

    def test_stored_slots_are_the_minimal_opens(self):
        s = directed_square(6, 6)
        assert sum(len(rows) for rows in s.circ._gen_rows) == sum(
            mo.bit_count() for mo in s.space.min_open_rows
        )
        assert s.space.min_open_positions == tuple(
            tuple(iter_bits(mo)) for mo in s.space.min_open_rows
        )


class TestCorpus:
    def test_streams_are_saturated_generators(self, corpus_streams):
        for s in corpus_streams + model_streams():
            full = full_embed_family(s.space, s.circ.gen)
            assert_stored_as(s.circ, full)
            assert full_require_saturated(s.space, full) is None
            assert full_saturate(s.space, full) == full
            assert Circulation._by_construction(s.space, position_rows(s.space, full)) == s.circ

    def test_generator_families(self, small_spaces, rng):
        for space in small_spaces:
            for _ in range(4):
                gen = [random_preorder(rng, sorted(space.min_open(x))) for x in space.points]
                full = full_embed_family(space, gen)
                circ = circulation_from_generators(space, dict(zip(space.points, gen)))
                assert_stored_as(circ, full_saturate(space, full))
                failing = full_require_saturated(space, full)
                if failing is None:
                    assert Circulation(space, gen) == circ
                else:
                    with pytest.raises(InvalidPreorder, match=f"generator for {failing!r}"):
                        Circulation(space, gen)

    def test_points_out_of_order(self, corpus_streams):
        # a hand-built space may list its points unsorted: each generator
        # row is placed by its point's name, not by its rank in the carrier
        for s in corpus_streams:
            n = s.space.n
            points = s.space.points[::-1]
            rows = tuple(
                sum(1 << (n - 1 - j) for j in iter_bits(s.space.min_open_rows[n - 1 - i]))
                for i in range(n)
            )
            circ = Circulation(FiniteSpace(points, rows), [s.gen_of(x) for x in points])
            for x in points:
                assert set(circ.gen_of(x).pairs()) == set(s.gen_of(x).pairs())
            assert set(circ.underlying().pairs()) == set(s.underlying().pairs())


def diagram_on(s, loops):
    """s as a one-object diagram with the given self-maps, or two copies of s
    joined by the identity."""
    ident = {p: p for p in s.space.points}
    if loops:
        return StreamDiagram({"a": s}, {f"f{k}": DiagramArrow("a", "a", f) for k, f in enumerate(loops)})
    return StreamDiagram({"a": s, "b": s}, {"f": DiagramArrow("a", "b", ident)})


class TestConstructions:
    """Each construction's rows against the same construction in the
    full-row form."""

    @pytest.fixture
    def inputs(self, corpus_streams):
        return corpus_streams[::7] + [
            directed_interval(2),
            directed_circle(3),
            directed_square(1, 1),
            boundary_square(1),
        ]

    def test_product_and_coproduct(self, inputs):
        for s, t in itertools.product(inputs[:10], repeat=2):
            prod, first, second = product_stream(s, t)
            assert_stored_as(prod.circ, product_rows(s, t, prod, first, second))
        for family in (inputs[:3], inputs[3:5], [inputs[-1]]):
            tags = [f"t{k}" for k in range(len(family))]
            total, legs = coproduct_stream(family, tags)
            expected = full_final_lift(total.space, [(s, leg.mapping) for s, leg in zip(family, legs)])
            assert_stored_as(total.circ, expected)

    def test_substream_and_quotient(self, inputs, rng):
        for s in inputs:
            for _ in range(3):
                points = rng.sample(s.space.points, rng.randint(0, s.space.n))
                sub, leg = substream(s, points)
                assert_stored_as(sub.circ, full_initial_lift(sub.space, [(leg.mapping, s)]))
        for n in (2, 3, 4):
            s = directed_interval(n)
            glued, leg = quotient_stream(s, interval_endpoint_partition(n))
            assert_stored_as(glued.circ, full_final_lift(glued.space, [(s, leg.mapping)]))
        for s in inputs:
            if not s.space.n:
                continue
            points = list(s.space.points)
            rng.shuffle(points)
            cut = rng.randint(1, len(points))
            classes = [points[:cut], points[cut:]] if cut < len(points) else [points]
            q, leg = quotient_stream(s, classes)
            assert_stored_as(q.circ, full_final_lift(q.space, [(s, leg.mapping)]))

    def test_join_cosheafify_and_specialization(self, inputs, rng):
        for s in inputs:
            space = s.space
            others = [specialization_circulation(space), trivial_circulation(space)]
            for other in others:
                joined = join_circulations([s.circ, other])
                assert_stored_as(joined, full_saturate(space, full_gen_rows(s.circ), full_gen_rows(other)))
            pc = random_precirculation(rng, space, seeds=3)
            values = [pc.rows_on(mo) for mo in space.min_open_rows]
            assert_stored_as(cosheafify(pc), full_saturate(space, values))
            rows = space.min_open_rows
            spec = [[rows[a] if mo >> a & 1 else 0 for a in range(space.n)] for mo in rows]
            assert_stored_as(specialization_circulation(space), full_saturate(space, spec))

    def test_pushforward_and_pullback_cosheafify(self, inputs, tiny_spaces, rng):
        for s in inputs:
            for _ in range(4):
                target = rng.choice(tiny_spaces)
                f = random_continuous_map(rng, s.space, target)
                if f is not None:
                    assert_stored_as(pushforward(s, f, target), full_final_lift(target, [(s, f)]))
                source = rng.choice(tiny_spaces)
                g = random_continuous_map(rng, source, s.space)
                if g is not None:
                    pulled = pullback(s, g, source)
                    values = [pulled.rows_on(mo) for mo in source.min_open_rows]
                    assert_stored_as(cosheafify(pulled), full_saturate(source, values))

    def test_limit_and_colimit(self, inputs):
        circle = directed_circle(3)
        rotate = {"v0": "v1", "v1": "v2", "v2": "v0", "e1": "e2", "e2": "e3", "e3": "e1"}
        diagrams = [diagram_on(s, []) for s in inputs[:8]]
        diagrams.append(diagram_on(circle, [rotate]))
        for d in diagrams:
            keys = d.object_keys()
            lim, legs = limit(d)
            expected = full_initial_lift(lim.space, [(legs[k].mapping, d.objects[k]) for k in keys])
            assert_stored_as(lim.circ, expected)
            colim, legs = colimit(d)
            expected = full_final_lift(colim.space, [(d.objects[k], legs[k].mapping) for k in keys])
            assert_stored_as(colim.circ, expected)


class TestAntisymmetry:
    """The generator-step test against the closure of the global value."""

    def test_every_stream_on_up_to_three_points(self):
        verdicts = set()
        for space in spaces_upto(3):
            for circ in enumerate_circulations(space):
                s = Stream(space, circ)
                verdict = circ.underlying_is_antisymmetric()
                assert verdict == antisymmetry_oracle(s)
                verdicts.add(verdict)
        assert verdicts == {False, True}

    def test_models(self):
        for s in (
            [directed_interval(n) for n in (1, 2, 5, 16)]
            + [directed_square(n, m) for n, m in ((1, 1), (2, 3), (4, 4))]
            + [boundary_square(n) for n in (1, 2, 3)]
        ):
            assert s.circ.underlying_is_antisymmetric() is antisymmetry_oracle(s) is True
        for n in (2, 3, 4, 8, 12):
            s = directed_circle(n)
            assert s.circ.underlying_is_antisymmetric() is antisymmetry_oracle(s) is False

    def test_corpus(self, corpus_streams):
        verdicts = set()
        for s in corpus_streams:
            verdict = s.circ.underlying_is_antisymmetric()
            assert verdict == antisymmetry_oracle(s)
            verdicts.add(verdict)
        assert verdicts == {False, True}

    def test_kernel_against_closure(self, rng):
        for n in range(7):
            for _ in range(60):
                rows = [sum(1 << j for j in range(n) if rng.random() < 0.25) for _ in range(n)]
                closed = closure_rows(rows, n)
                mutual = any(
                    closed[a] >> b & 1 and closed[b] >> a & 1
                    for a in range(n) for b in range(n) if a != b
                )
                assert is_acyclic(rows) is not mutual


def test_isomorphism_beyond_the_recursion_limit():
    # 1,201 points: one search level per point, more than the default
    # recursion limit of 1,000
    s = directed_interval(600)
    assert stream_isomorphism(s, directed_interval(600)) == {p: p for p in s.space.points}
