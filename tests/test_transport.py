import pytest

from finstream import (
    Preorder,
    Stream,
    all_opens,
    directed_circle,
    directed_interval,
    is_circulation,
    pullback,
    pushforward,
    subspace,
    trivial_circulation,
    trivial_stream,
)
from finstream.corpus import (
    continuous_maps,
    random_continuous_map,
    random_stream,
    spaces_upto,
)
from finstream.errors import NotContinuous
from finstream.models import interval_endpoint_partition, pathology_fixture
from finstream.spaces import quotient_space, space_from_min_opens


class TestPushforward:
    def test_along_identity(self, rng, tiny_spaces):
        for space in tiny_spaces:
            s = random_stream(rng, space)
            ident = {p: p for p in space.points}
            assert pushforward(s, ident, space) == s.circ

    def test_trivial_pushes_to_trivial(self, rng, tiny_spaces):
        for src in tiny_spaces[:8]:
            for dst in tiny_spaces[:8]:
                f = random_continuous_map(rng, src, dst)
                if f is None:
                    continue
                assert pushforward(trivial_stream(src), f, dst) == trivial_circulation(dst)

    def test_interval_quotient_gives_circle(self):
        for n in range(2, 5):
            interval = directed_interval(n)
            circle = directed_circle(n)
            quotient, projection = quotient_space(
                interval.space, interval_endpoint_partition(n)
            )
            assert quotient == circle.space
            assert pushforward(interval, projection, quotient) == circle.circ

    def test_noncontinuous_rejected(self):
        s = directed_interval(1)
        target = space_from_min_opens("ab", {"a": "ab", "b": "b"})
        swap = {"v0": "a", "e1": "a", "v1": "a"}
        bad = {"v0": "b", "e1": "a", "v1": "b"}
        pushforward(s, swap, target)
        with pytest.raises(NotContinuous):
            pushforward(s, bad, target)

    def test_result_is_circulation_on_randoms(self, rng):
        spaces = spaces_upto(3)
        for _ in range(60):
            src = rng.choice(spaces)
            dst = rng.choice(spaces)
            f = random_continuous_map(rng, src, dst)
            if f is None:
                continue
            s = random_stream(rng, src)
            circ = pushforward(s, f, dst)
            assert is_circulation(circ.as_precirculation(), "fast").ok

    def test_matches_direct_definition(self, rng, tiny_spaces):
        # closure of the image of the preimage's value, on every open
        for _ in range(20):
            src = rng.choice(tiny_spaces)
            dst = rng.choice(tiny_spaces)
            f = random_continuous_map(rng, src, dst)
            if f is None:
                continue
            s = random_stream(rng, src)
            circ = pushforward(s, f, dst)
            for mask in all_opens(dst):
                members = dst.set_of(mask)
                pre = [p for p in src.points if f[p] in members]
                image_pairs = [
                    (f[a], f[b]) for a, b in s.value(pre).pairs()
                ]
                from conftest import closure_oracle

                assert set(circ.value_mask(mask).pairs()) == closure_oracle(
                    members, image_pairs
                )

    def test_functoriality(self, rng, tiny_spaces):
        for _ in range(25):
            a = rng.choice(tiny_spaces)
            b = rng.choice(tiny_spaces)
            c = rng.choice(tiny_spaces)
            f = random_continuous_map(rng, a, b)
            g = random_continuous_map(rng, b, c)
            if f is None or g is None:
                continue
            s = random_stream(rng, a)
            composite = {p: g[f[p]] for p in a.points}
            once = pushforward(s, composite, c)
            stepwise = pushforward(Stream(b, pushforward(s, f, b)), g, c)
            assert once == stepwise


class TestPullback:
    def test_along_identity(self, rng, tiny_spaces):
        for space in tiny_spaces:
            s = random_stream(rng, space)
            ident = {p: p for p in space.points}
            pb = pullback(s, ident, space)
            for mask in all_opens(space):
                assert pb.assign_mask(mask) == s.value_mask(mask)

    def test_trivial_iff_injective(self, rng, tiny_spaces):
        for src in tiny_spaces[:10]:
            for dst in tiny_spaces[:10]:
                for f in continuous_maps(src, dst)[:6]:
                    pb = pullback(trivial_stream(dst), f, src)
                    injective = len(set(f.values())) == len(f)
                    stays_trivial = all(
                        pb.assign_mask(mask)
                        == Preorder.identity(src.set_of(mask))
                        for mask in all_opens(src)
                    )
                    assert stays_trivial == injective

    def test_pathology(self):
        fx = pathology_fixture()
        corners = sorted(fx.corner_space.points)
        value = fx.pulled.assign(corners)
        low, high = corners
        assert value.has(low, high)
        assert not is_circulation(fx.pulled, "fast").ok
        cosheafified = fx.cosheafified()
        assert is_circulation(cosheafified.as_precirculation(), "exhaustive").ok
        assert cosheafified == trivial_circulation(fx.corner_space)

    def test_open_inclusion_preserves_circulations(self, rng, corpus_streams):
        for s in corpus_streams:
            if s.space.n > 4:
                continue
            for mask in all_opens(s.space):
                sub = subspace(s.space, s.space.set_of(mask))
                inclusion = {p: p for p in sub.points}
                pb = pullback(s, inclusion, sub)
                assert is_circulation(pb, "fast").ok
                # and the value is the plain restriction
                for inner in all_opens(sub):
                    members = sub.set_of(inner)
                    assert pb.assign_mask(inner) == s.value(members)

    def test_monotone(self, rng, tiny_spaces):
        from finstream import check_monotone

        for _ in range(15):
            src = rng.choice(tiny_spaces)
            dst = rng.choice(tiny_spaces)
            f = random_continuous_map(rng, src, dst)
            if f is None:
                continue
            pb = pullback(random_stream(rng, dst), f, src)
            ok, witness = check_monotone(pb)
            assert ok, witness


class TestUnderlying:
    def test_trivial(self, tiny_spaces):
        for space in tiny_spaces:
            assert trivial_stream(space).underlying() == Preorder.identity(space.points)

    def test_interval_chain(self):
        s = directed_interval(1)
        under = s.underlying()
        assert under.has("v0", "e1") and under.has("e1", "v1") and under.has("v0", "v1")
        assert under.is_antisymmetric()
        # total on the three cells
        assert under.graph_size() == 6

    def test_circle_full(self):
        s = directed_circle(2)
        assert s.underlying() == Preorder.full(s.space.points)
