import itertools
import random

import pytest

from finstream import (
    DiagramArrow,
    Preorder,
    Stream,
    StreamDiagram,
    StreamMap,
    all_opens,
    colimit,
    compose,
    coproduct_stream,
    cosheafify,
    directed_circle,
    directed_interval,
    enumerate_circulations,
    enumerate_point_maps,
    enumerate_stream_maps,
    final_structure,
    identity_map,
    initial_structure,
    is_circulation,
    is_stream_map,
    limit,
    point_stream,
    product_stream,
    pullback,
    pushforward,
    quotient_stream,
    stream_isomorphism,
    substream,
    trivial_stream,
    tuple_point,
)
from finstream import category
from finstream.corpus import random_continuous_map, random_partition, random_stream, spaces_upto
from finstream.errors import IllTypedDiagram, NotStreamMap, StreamError
from finstream.formats import serialize_stream
from finstream.spaces import space_from_min_opens

from conftest import (
    box_identity_oracle,
    canonical_dumps_oracle,
    is_convex,
    isomorphism_oracle,
    limit_oracle,
    product_oracle,
    relabelled,
    stream_map_witness_oracle,
)


def circle_rotation(n):
    rot = {}
    for i in range(n):
        rot[f"v{i}"] = f"v{(i + 1) % n}"
    for i in range(1, n + 1):
        rot[f"e{i}"] = f"e{i % n + 1}"
    return rot


class TestIsStreamMap:
    def test_identity_and_constants(self, corpus_streams):
        for s in corpus_streams[:10]:
            assert is_stream_map({p: p for p in s.space.points}, s, s).ok
        s = directed_interval(1)
        t = directed_circle(2)
        for q in t.space.points:
            const = {p: q for p in s.space.points}
            assert is_stream_map(const, s, t).ok

    def test_circle_rotation_true_flip_false(self):
        s = directed_circle(2)
        assert is_stream_map(circle_rotation(2), s, s).ok
        flip = {"v0": "v0", "v1": "v1", "e1": "e2", "e2": "e1"}
        check = is_stream_map(flip, s, s)
        assert check.continuous and not check.ok
        open_pts, a, b = check.witness
        value = s.value(open_pts)
        assert value.has(a, b) and not value.has(flip[a], flip[b])

    def test_modes_agree(self, rng, tiny_spaces):
        for _ in range(40):
            src = rng.choice(tiny_spaces)
            dst = rng.choice(tiny_spaces)
            if dst.n == 0 and src.n > 0:
                continue
            s = random_stream(rng, src)
            t = random_stream(rng, dst)
            for f in itertools.islice(enumerate_point_maps(src, dst), 20):
                fast = is_stream_map(f, s, t, "fast")
                slow = is_stream_map(f, s, t, "exhaustive")
                assert fast.ok == slow.ok
                if fast.continuous:
                    assert fast.witness == stream_map_witness_oracle(f, s, t, "fast")
                    assert slow.witness == stream_map_witness_oracle(f, s, t, "exhaustive")

    def test_constructor_rejects(self):
        s = directed_circle(2)
        flip = {"v0": "v0", "v1": "v1", "e1": "e2", "e2": "e1"}
        with pytest.raises(NotStreamMap):
            StreamMap(s, s, flip)


class TestCompositionLaws:
    def test_identity_and_associativity(self, rng, tiny_spaces):
        streams = [random_stream(rng, sp) for sp in tiny_spaces[:6] if sp.n > 0]
        for s, t in itertools.product(streams[:4], repeat=2):
            maps = enumerate_stream_maps(s, t)[:4]
            for f in maps:
                fm = StreamMap(s, t, f)
                for composite in (compose(fm, identity_map(s)), compose(identity_map(t), fm)):
                    assert composite == fm and hash(composite) == hash(fm)
                    assert is_stream_map(composite.mapping, s, t, mode="exhaustive").ok
        a, b, c = streams[:3]
        for f in enumerate_stream_maps(a, b)[:3]:
            fm = StreamMap(a, b, f)
            for g in enumerate_stream_maps(b, c)[:3]:
                gm = StreamMap(b, c, g)
                gf = compose(gm, fm)
                assert gf.mapping == {p: g[f[p]] for p in a.space.points}
                assert is_stream_map(gf.mapping, a, c, mode="exhaustive").ok

    def test_identities_are_stream_maps(self, rng, tiny_spaces):
        for space in tiny_spaces:
            s = random_stream(rng, space)
            ident = identity_map(s)
            assert ident == StreamMap(s, s, {p: p for p in space.points})
            assert is_stream_map(ident.mapping, s, s, mode="exhaustive").ok

    def test_equality_reads_source_target_and_mapping(self):
        s = directed_interval(1)
        ident = identity_map(s)
        trivial = trivial_stream(s.space)
        assert ident == identity_map(directed_interval(1))
        assert len({ident, identity_map(directed_interval(1))}) == 1
        assert ident != StreamMap(trivial, s, ident.mapping)
        assert ident != StreamMap(s, s, {**ident.mapping, "zzz": "nowhere"})

    def test_compose_ignores_keys_outside_the_source(self):
        # a verified map may carry keys outside its source: is_continuous
        # reads the source's points only
        s = directed_interval(1)
        junk = StreamMap(s, s, {**{p: p for p in s.space.points}, "zzz": "nowhere"})
        composite = compose(identity_map(s), junk)
        assert composite.mapping == identity_map(s).mapping
        assert composite == identity_map(s)


class TestFinalStructure:
    def test_empty_cocone_trivial(self, tiny_spaces):
        for space in tiny_spaces:
            stream, legs = final_structure(space, [])
            assert stream == trivial_stream(space) and legs == []

    def test_single_identity(self, rng, tiny_spaces):
        for space in tiny_spaces[:10]:
            s = random_stream(rng, space)
            stream, _ = final_structure(space, [(s, {p: p for p in space.points})])
            assert stream == s

    def test_two_intervals_onto_circle(self):
        circle = directed_circle(2)
        interval = directed_interval(1)
        onto_left = {"v0": "v0", "e1": "e1", "v1": "v1"}
        onto_right = {"v0": "v1", "e1": "e2", "v1": "v0"}
        stream, legs = final_structure(
            circle.space, [(interval, onto_left), (interval, onto_right)]
        )
        assert stream == circle
        assert all(isinstance(m, StreamMap) for m in legs)

    def test_universal_factorization(self, rng, tiny_spaces):
        # any cocone through a continuous factor map factors as stream maps
        pool = [sp for sp in tiny_spaces if 0 < sp.n <= 2]
        for _ in range(15):
            src = rng.choice(pool)
            mid = rng.choice(pool)
            d = random_stream(rng, src)
            from finstream.corpus import random_continuous_map

            lam = random_continuous_map(rng, src, mid)
            if lam is None:
                continue
            stream, _ = final_structure(mid, [(d, lam)])
            for other_space in pool[:6]:
                other = random_stream(rng, other_space)
                for eta in enumerate_point_maps(mid, other_space):
                    composite = {p: eta[lam[p]] for p in src.points}
                    from finstream.spaces import is_continuous

                    if not is_continuous(eta, mid, other_space):
                        continue
                    if is_stream_map(composite, d, other).ok:
                        assert is_stream_map(eta, stream, other).ok


class TestInitialStructure:
    def test_single_identity(self, rng, tiny_spaces):
        for space in tiny_spaces[:10]:
            s = random_stream(rng, space)
            stream, _ = initial_structure(space, [({p: p for p in space.points}, s)])
            assert stream == s

    def test_empty_cone_on_sierpinski(self):
        space = space_from_min_opens("ab", {"a": "ab", "b": "b"})
        stream, legs = initial_structure(space, [])
        assert legs == []
        assert stream.value("b") == Preorder.identity("b")
        assert stream.value("ab") == Preorder.full("ab")

    def test_projection_cone_equals_product(self, rng, tiny_spaces):
        for _ in range(8):
            a = random_stream(rng, rng.choice(tiny_spaces[1:]))
            b = random_stream(rng, rng.choice(tiny_spaces[1:]))
            prod, first, second = product_stream(a, b)
            stream, _ = initial_structure(
                prod.space, [(first.mapping, a), (second.mapping, b)]
            )
            assert stream == product_oracle(a, b)

    def test_couniversal(self, rng, tiny_spaces):
        pool = [sp for sp in tiny_spaces if 0 < sp.n <= 2]
        for _ in range(10):
            base = rng.choice(pool)
            tgt = random_stream(rng, rng.choice(pool))
            from finstream.corpus import random_continuous_map
            from finstream.spaces import is_continuous

            f = random_continuous_map(rng, base, tgt.space)
            if f is None:
                continue
            stream, _ = initial_structure(base, [(f, tgt)])
            for other_space in pool[:6]:
                other = random_stream(rng, other_space)
                for g in enumerate_point_maps(other_space, base):
                    if not is_continuous(g, other_space, base):
                        continue
                    composite = {p: f[g[p]] for p in other_space.points}
                    if is_stream_map(composite, other, tgt).ok:
                        assert is_stream_map(g, other, stream).ok


class TestProductStream:
    def test_unit_law(self, rng, tiny_spaces):
        for space in tiny_spaces[1:8]:
            s = random_stream(rng, space)
            prod, first, _ = product_stream(s, point_stream())
            iso = stream_isomorphism(prod, s)
            assert iso is not None
            assert iso == first.mapping

    def test_trivial_times_trivial(self, tiny_spaces):
        for space in tiny_spaces[1:6]:
            prod, _, _ = product_stream(trivial_stream(space), trivial_stream(space))
            assert prod == trivial_stream(prod.space)

    def test_square_corner_box_value(self):
        prod, _, _ = product_stream(directed_interval(1), directed_interval(1))
        corner = tuple_point("v0", "v0")
        box = prod.space.min_open(corner)
        value = prod.value(box)
        chain = directed_interval(1).value(["v0", "e1"])
        from finstream import product as rel_product

        assert value == rel_product([chain, chain])

    def test_universal_property_exhaustive(self, rng, tiny_spaces):
        pool = [sp for sp in tiny_spaces if 0 < sp.n <= 2]
        s = random_stream(rng, pool[3] if len(pool) > 3 else pool[0])
        t = random_stream(rng, pool[-1])
        prod, first, second = product_stream(s, t)
        for r_space in pool[:8]:
            r = random_stream(rng, r_space)
            for f in enumerate_stream_maps(r, s):
                for g in enumerate_stream_maps(r, t):
                    paired = {
                        p: tuple_point(f[p], g[p]) for p in r_space.points
                    }
                    assert is_stream_map(paired, r, prod).ok
                    # uniqueness among point maps commuting with projections
                    matches = [
                        h
                        for h in enumerate_point_maps(r_space, prod.space)
                        if all(
                            first.mapping[h[p]] == f[p]
                            and second.mapping[h[p]] == g[p]
                            for p in r_space.points
                        )
                    ]
                    assert matches == [paired]


class TestSubstream:
    def test_whole_space(self, corpus_streams):
        for s in corpus_streams[:10]:
            sub, inc = substream(s, s.space.points)
            assert sub == s
            assert inc.mapping == {p: p for p in s.space.points}

    def test_open_substream_is_restriction(self, corpus_streams):
        for s in corpus_streams:
            if s.space.n > 4:
                continue
            for mask in all_opens(s.space):
                members = s.space.set_of(mask)
                sub, _ = substream(s, members)
                for inner in all_opens(sub.space):
                    assert sub.value_mask(inner) == s.value(sub.space.set_of(inner))

    def test_closed_convex_matches_concrete_description(self, corpus_streams):
        from finstream.spaces import closure_set

        for s in corpus_streams:
            if s.space.n > 4:
                continue
            under = s.underlying()
            for r in range(s.space.n + 1):
                for subset in itertools.combinations(s.space.points, r):
                    members = frozenset(subset)
                    if closure_set(s.space, members) != members:
                        continue
                    if not is_convex(under, members):
                        continue
                    sub, _ = substream(s, members)
                    # concrete description: restrict the ambient value on the
                    # smallest open around each piece
                    space = s.space
                    for inner in all_opens(sub.space):
                        inner_pts = sub.space.set_of(inner)
                        around = 0
                        for p in inner_pts:
                            around |= space.min_open_rows[space.index(p)]
                        expected = s.value_mask(around).restrict(inner_pts)
                        assert sub.value_mask(inner) == expected

    def test_inclusion_factorization(self, rng, tiny_spaces):
        # stream maps into s with image inside A factor through the substream
        pool = [sp for sp in tiny_spaces if 0 < sp.n <= 2]
        for _ in range(12):
            s = random_stream(rng, rng.choice(tiny_spaces[1:]))
            points = list(s.space.points)
            subset = points[: 1 + len(points) // 2]
            sub, inc = substream(s, subset)
            for r_space in pool[:6]:
                r = random_stream(rng, r_space)
                for f in enumerate_stream_maps(r, s):
                    if not set(f.values()) <= set(subset):
                        continue
                    assert is_stream_map(f, r, sub).ok

    def test_substream_composites(self, rng, tiny_spaces):
        for space in tiny_spaces:
            if not 2 <= space.n <= 3:
                continue
            s = random_stream(rng, space)
            points = list(space.points)
            bigger = points[:2]
            smaller = points[:1]
            via_two, _ = substream(substream(s, bigger)[0], smaller)
            direct, _ = substream(s, smaller)
            assert via_two == direct


class TestQuotientStream:
    def test_identity_partition(self, corpus_streams):
        for s in corpus_streams[:8]:
            if s.space.n == 0:
                continue
            q, proj = quotient_stream(s, [[p] for p in s.space.points])
            assert q == s
            assert proj.mapping == {p: p for p in s.space.points}

    def test_collapse_to_point(self, corpus_streams):
        for s in corpus_streams[:8]:
            if s.space.n == 0:
                continue
            q, _ = quotient_stream(s, [list(s.space.points)])
            assert q.space.n == 1

    def test_interval_to_circle(self):
        from finstream.models import interval_endpoint_partition

        q, proj = quotient_stream(directed_interval(2), interval_endpoint_partition(2))
        assert q == directed_circle(2)
        assert proj.mapping["v2"] == "v0"

    def test_couniversal(self, rng, tiny_spaces):
        pool = [sp for sp in tiny_spaces if 0 < sp.n <= 2]
        for _ in range(10):
            s = random_stream(rng, rng.choice(pool))
            points = list(s.space.points)
            partition = [points[:1], points[1:]] if len(points) > 1 else [points]
            partition = [c for c in partition if c]
            q, proj = quotient_stream(s, partition)
            for t_space in pool[:6]:
                t = random_stream(rng, t_space)
                for g in enumerate_stream_maps(s, t):
                    constant_on_classes = all(
                        g[a] == g[b]
                        for cls in partition
                        for a in cls
                        for b in cls
                    )
                    if not constant_on_classes:
                        continue
                    induced = {proj.mapping[p]: g[p] for p in points}
                    assert is_stream_map(induced, q, t).ok
                    candidates = [
                        h
                        for h in enumerate_point_maps(q.space, t.space)
                        if all(h[proj.mapping[p]] == g[p] for p in points)
                    ]
                    assert candidates == [induced]


class TestCoproduct:
    def test_inclusions_and_universal(self, rng, tiny_spaces):
        pool = [sp for sp in tiny_spaces if 0 < sp.n <= 2]
        a = random_stream(rng, pool[1])
        b = random_stream(rng, pool[2])
        cop, incs = coproduct_stream([a, b])
        assert is_circulation(cop.circ.as_precirculation(), "fast").ok
        for s, inc in zip((a, b), incs):
            for p in s.space.points:
                tagged = {(inc(x), inc(y)) for x, y in s.gen_of(p).pairs()}
                assert set(cop.gen_of(inc(p)).pairs()) == tagged
        for t_space in pool[:5]:
            t = random_stream(rng, t_space)
            for f in enumerate_stream_maps(a, t)[:5]:
                for g in enumerate_stream_maps(b, t)[:5]:
                    merged = {}
                    for p in a.space.points:
                        merged[incs[0].mapping[p]] = f[p]
                    for p in b.space.points:
                        merged[incs[1].mapping[p]] = g[p]
                    assert is_stream_map(merged, cop, t).ok

    def test_repeated_or_miscounted_tags_are_stream_errors(self):
        with pytest.raises(StreamError, match="repeat"):
            coproduct_stream([point_stream(), point_stream()], ["a", "a"])
        with pytest.raises(StreamError, match="1 coproduct tags for 2 summands"):
            coproduct_stream([point_stream(), point_stream()], ["a"])
        with pytest.raises(StreamError, match="3 coproduct tags for 2 summands"):
            coproduct_stream([point_stream(), point_stream()], ["a", "b", "c"])


class TestLimitsAndColimits:
    def test_single_object(self, rng, tiny_spaces):
        for space in tiny_spaces[1:6]:
            s = random_stream(rng, space)
            d = StreamDiagram({"A": s}, {})
            lim, cone = limit(d)
            assert lim == s and cone["A"].mapping == {p: p for p in space.points}
            colim, cocone = colimit(d)
            assert colim == s and cocone["A"].mapping == {p: p for p in space.points}

    def test_equalizer_of_rotation_and_identity(self):
        circle = directed_circle(2)
        d = StreamDiagram(
            {"A": circle, "B": circle},
            {
                "f": DiagramArrow("A", "B", circle_rotation(2)),
                "g": DiagramArrow("A", "B", {p: p for p in circle.space.points}),
            },
        )
        lim, _ = limit(d)
        assert lim.space.points == ()

    def test_pushout_concatenates_intervals(self):
        i1 = directed_interval(1)
        pt = point_stream()
        d = StreamDiagram(
            {"P": pt, "I": i1, "J": i1},
            {
                "a": DiagramArrow("P", "I", {"pt": "v1"}),
                "b": DiagramArrow("P", "J", {"pt": "v0"}),
            },
        )
        colim, legs = colimit(d)
        doubled = directed_interval(2)
        assert stream_isomorphism(colim, doubled) is not None
        for leg in legs.values():
            assert is_stream_map(leg.mapping, leg.source, colim).ok

    def test_coequalizer_of_rotation(self):
        circle = directed_circle(2)
        d = StreamDiagram(
            {"A": circle, "B": circle},
            {
                "f": DiagramArrow("A", "B", circle_rotation(2)),
                "g": DiagramArrow("A", "B", {p: p for p in circle.space.points}),
            },
        )
        colim, _ = colimit(d)
        assert colim.space.n == 2
        assert is_circulation(colim.circ.as_precirculation(), "exhaustive").ok

    def test_limit_universal_property(self, rng, tiny_spaces):
        pool = [sp for sp in tiny_spaces if 0 < sp.n <= 2]
        a = random_stream(rng, pool[2])
        b = random_stream(rng, pool[3])
        maps = enumerate_stream_maps(a, b)
        if not maps:
            pytest.skip("no maps in sampled cospan")
        d = StreamDiagram(
            {"A": a, "B": b}, {"f": DiagramArrow("A", "B", maps[0])}
        )
        lim, cone = limit(d)
        for leg in cone.values():
            assert is_stream_map(leg.mapping, lim, leg.target).ok
        for r_space in pool[:5]:
            r = random_stream(rng, r_space)
            for fa in enumerate_stream_maps(r, a):
                fb = {p: maps[0][fa[p]] for p in r_space.points}
                # (fa, fb) is automatically a commuting cone
                candidates = [
                    h
                    for h in enumerate_point_maps(r_space, lim.space)
                    if all(
                        cone["A"].mapping[h[p]] == fa[p]
                        and cone["B"].mapping[h[p]] == fb[p]
                        for p in r_space.points
                    )
                ]
                assert len(candidates) == 1
                assert is_stream_map(candidates[0], r, lim).ok

    def test_colimit_universal_property(self, rng, tiny_spaces):
        pool = [sp for sp in tiny_spaces if 0 < sp.n <= 2]
        a = random_stream(rng, pool[2])
        b = random_stream(rng, pool[3])
        maps = enumerate_stream_maps(a, b)
        if not maps:
            pytest.skip("no maps in sampled span")
        d = StreamDiagram(
            {"A": a, "B": b}, {"f": DiagramArrow("A", "B", maps[0])}
        )
        colim, cocone = colimit(d)
        assert is_circulation(colim.circ.as_precirculation(), "fast").ok
        for t_space in pool[:5]:
            t = random_stream(rng, t_space)
            for gb in enumerate_stream_maps(b, t):
                ga = {p: gb[maps[0][p]] for p in a.space.points}
                candidates = [
                    h
                    for h in enumerate_point_maps(colim.space, t.space)
                    if all(
                        h[cocone["A"].mapping[p]] == ga[p]
                        for p in a.space.points
                    )
                    and all(
                        h[cocone["B"].mapping[p]] == gb[p]
                        for p in b.space.points
                    )
                ]
                assert len(candidates) == 1
                assert is_stream_map(candidates[0], colim, t).ok

    def test_ill_typed_diagram_rejected(self):
        circle = directed_circle(2)
        flip = {"v0": "v0", "v1": "v1", "e1": "e2", "e2": "e1"}
        with pytest.raises(IllTypedDiagram):
            StreamDiagram(
                {"A": circle, "B": circle}, {"f": DiagramArrow("A", "B", flip)}
            )
        with pytest.raises(IllTypedDiagram):
            StreamDiagram({"A": circle}, {"f": DiagramArrow("A", "Z", circle_rotation(2))})


# Diagram shapes: object names and (source, target) arrows. Objects are
# assigned in name order, so an arrow from a later name to an earlier one is
# tested after both ends are chosen instead of forcing its target.
SHAPES = {
    "chain": ("abc", ["ab", "bc"]),
    "reversed-chain": ("abc", ["cb", "ba"]),
    "span": ("abc", ["ba", "bc"]),
    "cospan": ("abc", ["ab", "cb"]),
    "parallel": ("ab", ["ab", "ab"]),
    "self-loop": ("ab", ["aa", "ba"]),
    "arrowless-object": ("abc", ["ab"]),
    "product": ("ab", []),
    "one-object": ("a", []),
    "one-object-self-loop": ("a", ["aa"]),
    "empty": ("", []),
}


def random_diagram(rng, spaces, shape):
    """Random streams on the given spaces, each arrow a random stream map."""
    names, arrows = SHAPES[shape]
    objects = {k: random_stream(rng, rng.choice(spaces)) for k in names}
    return StreamDiagram(
        objects,
        {
            f"f{i}": DiagramArrow(a, b, rng.choice(enumerate_stream_maps(objects[a], objects[b])))
            for i, (a, b) in enumerate(arrows)
        },
    )


def limit_json(diagram, result):
    stream, legs = result
    assert all(legs[k].source is stream and legs[k].target is diagram.objects[k] for k in legs)
    return canonical_dumps_oracle(
        {"stream": serialize_stream(stream), "legs": {k: leg.mapping for k, leg in legs.items()}}
    )


class TestLimitOracle:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_product_then_filter(self, tiny_spaces, shape):
        rng = random.Random(f"limit-{shape}")
        spaces = [sp for sp in tiny_spaces if sp.n > 0]
        for _ in range(12):
            d = random_diagram(rng, spaces, shape)
            assert limit_json(d, limit(d)) == limit_json(d, limit_oracle(d))

    def test_builds_only_compatible_tuples(self, monkeypatch):
        built = []
        product_many = category._product_many

        def spy(*args, **kwargs):
            result = product_many(*args, **kwargs)
            built.append(result[0].n)
            return result

        monkeypatch.setattr(category, "_product_many", spy)
        interval = directed_interval(3)
        link = {p: p for p in interval.space.points}
        d = StreamDiagram(
            {f"o{i}": interval for i in range(6)},
            {f"a{i}": DiagramArrow(f"o{i}", f"o{i + 1}", link) for i in range(5)},
        )
        lim, legs = limit(d)
        assert lim.space.n == 7 and built == [7]
        diagonal = {tuple_point(*[x] * 6): x for x in interval.space.points}
        assert all(leg.mapping == diagonal for leg in legs.values())


class TestStreamIsomorphism:
    def test_matches_brute_force(self, rng, corpus_streams):
        # relabelled copies are isomorphic; other streams of the same size
        # mostly are not, and many share the search's local invariants
        small = [s for s in corpus_streams if s.space.n <= 4]
        pairs = []
        for s in rng.sample(small, 80):
            names = [f"q{i}" for i in range(s.space.n)]
            rng.shuffle(names)
            gens = {p: s.gen_of(p) for p in s.space.points}
            copy = relabelled(s.space, gens, dict(zip(s.space.points, names)))
            same_size = [t for t in small if t.space.n == s.space.n]
            pairs += [(s, copy), (copy, s), (s, rng.choice(same_size)), (copy, rng.choice(same_size))]
        found = 0
        for s, t in pairs:
            iso = stream_isomorphism(s, t)
            assert (iso is None) == (isomorphism_oracle(s, t) is None)
            if iso is None:
                continue
            found += 1
            assert sorted(iso) == list(s.space.points)
            assert sorted(iso.values()) == list(t.space.points)
            assert is_stream_map(iso, s, t).ok
            assert is_stream_map({q: p for p, q in iso.items()}, t, s).ok
        assert 160 <= found < len(pairs)


class TestLegsByConstruction:
    """Legs of universal constructions skip the StreamMap re-check, and so
    do the maps of the CLI's pushforward and pullback-cosheafify results;
    the definition still holds for every one of them."""

    def test_every_leg_is_a_stream_map(self, corpus_streams, tiny_spaces):
        rng = random.Random(7)
        sample = rng.sample(corpus_streams, 40)
        spaces = [sp for sp in tiny_spaces if sp.n > 0]
        legs = []
        for s, t in zip(sample[::2], sample[1::2]):
            legs += product_stream(s, t)[1:]
            legs += coproduct_stream([s, t])[1]
        for s in sample:
            points = s.space.points
            legs.append(substream(s, rng.sample(points, rng.randint(0, len(points))))[1])
            if points:
                legs.append(quotient_stream(s, random_partition(rng, points))[1])
            other = rng.choice(spaces)
            f = random_continuous_map(rng, s.space, other)
            legs += final_structure(other, [(s, f)])[1]
            pushed = Stream(other, pushforward(s, f, other))
            legs.append(StreamMap._by_construction(s, pushed, f))
            g = random_continuous_map(rng, other, s.space)
            if g is not None:
                legs += initial_structure(other, [(g, s)])[1]
                pulled = Stream(other, cosheafify(pullback(s, g, other)))
                legs.append(StreamMap._by_construction(pulled, s, g))
        for shape in SHAPES:
            for _ in range(3):
                d = random_diagram(rng, spaces, shape)
                legs += limit(d)[1].values()
                legs += colimit(d)[1].values()
        for leg in legs:
            assert is_stream_map(leg.mapping, leg.source, leg.target).ok


class TestBoxIdentity:
    """The product's value on a box U x V is the product of the factors'
    values, on every pair of opens."""

    def test_every_pair_of_streams_on_up_to_two_points(self):
        streams = [
            Stream(space, c) for space in spaces_upto(2) for c in enumerate_circulations(space)
        ]
        assert len(streams) == 15
        for s in streams:
            for t in streams:
                assert box_identity_oracle(s, t) == [], (s, t)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("m", [2, 3])
    def test_interval_times_circle(self, n, m):
        assert box_identity_oracle(directed_interval(n), directed_circle(m)) == []
