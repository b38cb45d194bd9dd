"""Decisions taken from generator rows instead of closed values.

Four paths read a circulation's saturated generators where a closure
would re-derive what they already hold: the initial lift stores its family
as built, since it is already saturated, one pair is decided by the
breadth-first search that also finds its witness, a stream map is accepted
when it carries each generator row into the target's, and the interval and
circle models are built from saturated generators. Each is compared with
the closing path it stands for, and the work they save is pinned with a
spy on the closure kernel."""

import itertools
import json
import random

import pytest

from finstream import (
    DiagramArrow,
    Stream,
    StreamDiagram,
    StreamMap,
    alternating_witness,
    all_opens,
    boundary_square,
    chain_witness,
    circulation_from_generators,
    directed_circle,
    directed_interval,
    directed_square,
    is_stream_map,
    limit,
    product_stream,
    substream,
    validate_alternating_witness,
)
from finstream import _kernels, circulation, relations, spaces
from finstream.circulation import _generator_chain, _initial_lift, _saturate
from finstream.cli import main
from finstream.corpus import continuous_maps, random_continuous_map, spaces_upto
from finstream.errors import NotRelated
from finstream.formats import canonical_dumps, serialize_stream
from finstream.models import boundary_points

from conftest import model_streams, stream_map_witness_oracle


@pytest.fixture
def closures(monkeypatch):
    """Every call of the closure kernel, through each module that binds it."""
    calls = []
    kernel = _kernels.closure_rows

    def counting(rows, n, positions=None):
        calls.append(n)
        return kernel(rows, n, positions)

    for module in (_kernels, circulation, relations, spaces):
        monkeypatch.setattr(module, "closure_rows", counting)
    return calls


def interval_to_circle(n):
    """The endpoint quotient map of directed_interval(n) onto directed_circle(n)."""
    return {p: ("v0" if p == f"v{n}" else p) for p in directed_interval(n).space.points}


class TestInitialLiftIsSaturated:
    """The initial lift's family is a fixed point of saturation, so storing
    it as it is gives the circulation its saturation gave."""

    def test_no_legs(self):
        for space in spaces_upto(4):
            lift = _initial_lift(space, [])
            assert _saturate(space, lift._gen_rows) == lift

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_legs(self, corpus_streams, tiny_spaces, count):
        rng = random.Random(f"lift-{count}")
        sources = corpus_streams + model_streams()[:4]
        for _ in range(80):
            base = rng.choice(tiny_spaces)
            legs = []
            while len(legs) < count:
                s = rng.choice(sources)
                f = random_continuous_map(rng, base, s.space)
                if f is not None:
                    legs.append((f, s))
            lift = _initial_lift(base, legs)
            assert _saturate(base, lift._gen_rows) == lift

    def test_models(self):
        for stream in (directed_square(3, 2), boundary_square(2)):
            assert _saturate(stream.space, stream.circ._gen_rows) == stream.circ


class TestPairDecision:
    """The breadth-first search over generator steps relates exactly the
    pairs the open's closed value relates."""

    def test_generator_chain_matches_value_rows(self, corpus_streams):
        streams = [s for s in corpus_streams if s.space.n <= 4] + model_streams()[:6]
        related = 0
        for s in streams:
            for mask in all_opens(s.space):
                rows = s.circ.value_rows(mask)
                for i, j in itertools.product(_kernels.iter_bits(mask), repeat=2):
                    chain = _generator_chain(s, mask, i, j)
                    assert (chain is not None) == bool(rows[i] >> j & 1)
                    related += chain is not None
        assert related > 1000

    def test_chain_witness_raises_not_related_exactly_off_the_value(self):
        s = directed_circle(3)
        for mask in all_opens(s.space):
            members = sorted(s.space.set_of(mask))
            value = s.value_mask(mask)
            for x, y in itertools.product(members, repeat=2):
                if value.has(x, y):
                    chain = chain_witness(s, members, x, y)
                    assert [x] + [b for _, _, b in chain] == [a for a, _, _ in chain] + [y]
                else:
                    with pytest.raises(NotRelated):
                        chain_witness(s, members, x, y)

    def test_alternating_decision_matches_union_value(self):
        for s in (directed_circle(3), directed_square(1, 1)):
            opens = [m for m in all_opens(s.space) if m]
            for umask, vmask in itertools.product(opens[:12], repeat=2):
                u, v = sorted(s.space.set_of(umask)), sorted(s.space.set_of(vmask))
                value = s.value_mask(umask | vmask)
                for x, y in itertools.product(value.carrier, repeat=2):
                    if value.has(x, y):
                        chain = alternating_witness(s, u, v, x, y)
                        assert validate_alternating_witness(s, u, v, x, y, chain)
                    else:
                        with pytest.raises(NotRelated):
                            alternating_witness(s, u, v, x, y)


class TestStreamMapFromGenerators:
    """Carrying every generator row into the target's decides a stream map
    as the exhaustive check does, and a map that fails it gets the
    minimal-open scan's witness, the first minimal open in point order."""

    def test_matches_exhaustive_and_scan(self, corpus_streams):
        rng = random.Random(17)
        streams = [s for s in corpus_streams if s.space.n <= 3] + [
            directed_interval(2),
            directed_circle(2),
            directed_circle(3),
        ]
        failures = total = 0
        for _ in range(150):
            s, t = rng.choice(streams), rng.choice(streams)
            maps = continuous_maps(s.space, t.space)
            for f in rng.sample(maps, min(12, len(maps))):
                check = is_stream_map(f, s, t)
                assert check.ok == (stream_map_witness_oracle(f, s, t, "exhaustive") is None)
                assert check.witness == stream_map_witness_oracle(f, s, t, "fast")
                failures += not check.ok
                total += 1
        assert total > 1000 and failures > 100


class TestModelsSaturated:
    def test_interval_and_circle_equal_their_saturations(self):
        for s in [directed_interval(n) for n in range(1, 8)] + [
            directed_circle(n) for n in range(2, 8)
        ]:
            gens = {x: s.gen_of(x) for x in s.space.points}
            assert s == Stream(s.space, circulation_from_generators(s.space, gens))


class TestNoClosures:
    """These paths close no value: the spy on the kernel stays empty."""

    def test_query_global_on_large_square(self, tmp_path, capsys, closures):
        s = directed_square(6, 6)
        path = tmp_path / "square.json"
        path.write_text(canonical_dumps(serialize_stream(s)), encoding="utf-8")
        for x, y, code in (("(v0,v0)", "(v6,v6)", 0), ("(v6,v6)", "(v0,v0)", 1)):
            closures.clear()
            argv = ["query", "--input", str(path), "--open", "global", "--witness", x, y]
            assert main(argv) == code
            report = json.loads(capsys.readouterr().out)
            assert report["related"] == ("witness" in report) == (code == 0)
            assert closures == []

    def test_initial_lift_constructions(self, closures):
        product_stream(directed_interval(2), directed_circle(3))
        substream(directed_square(2, 2), boundary_points(2))
        i3, c3 = directed_interval(3), directed_circle(3)
        diagram = StreamDiagram(
            {"a": i3, "b": c3}, {"f": DiagramArrow("a", "b", interval_to_circle(3))}
        )
        stream, _ = limit(diagram)
        assert stream.space.n == i3.space.n
        assert closures == []

    def test_stream_map_constructor(self, closures):
        StreamMap(directed_interval(3), directed_circle(3), interval_to_circle(3))
        assert closures == []
