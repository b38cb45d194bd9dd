"""gluing_check: a verification campaign over the gluing (cosheaf) condition.

``is_circulation`` in fast mode on stored streams whose open lattices run
from a few opens to about 25k, on stored precirculations from
``finstream.corpus`` (a good share of which fail), and on pullbacks such as
the pathology fixture; exhaustive mode on tiny spaces; ``check_monotone`` on
small ones; ``check_connected_intervals`` on streams. Work scales with the
open lattice rather than the point count. Each operation gets fresh
circulation or precirculation objects, so value memos start cold; the
library's caches are cleared at the start of each round, so a round is one
campaign in a new process. The round mix is fixed; the seed picks the order
and the corpus members and subspaces that run.
"""

from __future__ import annotations

import contextlib
import random
from pathlib import Path

from finstream import circulation, corpus, models, spaces

from common import (Op, clear_library_caches, count_opens, digest, draw_round, endpoint_projection,
                    fresh_stream, open_masks)

NAME = "gluing_check"

STREAMS = {
    **{f"I{n}": (models.directed_interval, (n,)) for n in (1, 2, 3, 4, 5, 6, 8, 16)},
    **{f"C{n}": (models.directed_circle, (n,)) for n in (2, 3, 4, 5, 6, 8)},
    **{f"S{n}{m}": (models.directed_square, (n, m)) for n, m in ((1, 1), (2, 1), (2, 2), (3, 3))},
    **{f"B{n}": (models.boundary_square, (n,)) for n in (1, 2)},
}
# Per round. The four checks on directed_interval(8) straddle the p99 rank,
# so the p99 is the middle of that group rather than the edge between two
# kinds, and each lasts long enough (about half a second) to average the
# machine's short-term speed changes.
FAST_COUNTS = {
    "I1": 8, "I2": 8, "I3": 8, "I4": 8, "I5": 4, "I6": 2, "I8": 4,
    "C2": 8, "C3": 8, "C4": 8, "C5": 4, "C6": 2, "C8": 1,
    "S11": 8, "S21": 2, "S22": 1, "B1": 4, "B2": 1,
}
INTERVALS_COUNTS = {"I8": 2, "I16": 1, "C8": 2, "S22": 2, "S33": 1, "B2": 2}
CORPUS_POINTS = (3, 4, 5, 6)
CORPUS_SIZE = 32  # precirculations per point count
CORPUS_COUNT = 40  # per point count and round
PULLBACK_COUNTS = {"pathology": 8, "corner1": 4, "corner2": 2, "corner3": 1, "sub:S22": 8, "sub:B2": 8, "proj": 8}
EXHAUSTIVE_COUNT = 32
MONOTONE_COUNT = 24
VARIANTS = 8


def _corpus_precirculation(rng, n):
    """A space and stored values as ``corpus.random_precirculation`` draws
    them: random preorders on 1-3 random opens of a random space. Kept as
    raw inputs so that every operation can construct a fresh copy."""
    space = corpus.random_space(rng, n)
    opens = open_masks(space)
    stored = {}
    for _ in range(rng.randint(1, 3)):
        members = space.set_of(rng.choice(opens))
        stored[frozenset(members)] = corpus.random_preorder(rng, sorted(members))
    return space, stored


def _small_precirculations(rng, count, max_opens):
    """Corpus draws on 2-3 points whose lattices have at most max_opens opens."""
    found = []
    while len(found) < count:
        space, stored = _corpus_precirculation(rng, rng.randint(2, 3))
        if len(open_masks(space)) <= max_opens:
            found.append((space, stored))
    return found


def _stored_maker(space, stored):
    return lambda: circulation.StoredPrecirculation(space, stored, exact=False)


def _stream_maker(stream):
    return lambda: fresh_stream(stream).circ.as_precirculation()


class Workload:
    name = NAME

    def __init__(self, root: Path, seed: int, golden: dict | None):
        self.seed = seed
        self.golden = golden or {}
        self.slots: list = []

    def setup(self) -> None:
        """Build the streams, the corpus and the pullback inputs."""
        rng = random.Random(4242)
        streams = {name: build(*args) for name, (build, args) in STREAMS.items()}
        slots = []

        for name, count in FAST_COUNTS.items():
            make = _stream_maker(streams[name])
            slots.append((count, [self._check(f"fast:{name}", "fast_stream", streams[name].space, make, "fast")]))

        for n in CORPUS_POINTS:
            variants = []
            for k in range(CORPUS_SIZE):
                space, stored = _corpus_precirculation(rng, n)
                make = _stored_maker(space, stored)
                variants.append(self._check(f"corpus{n}:{k}", "fast_precirculation", space, make, "fast"))
            slots.append((CORPUS_COUNT, variants))

        fixture = models.pathology_fixture()
        pulls = {"pathology": [("pathology", fixture.host, fixture.inclusion, fixture.corner_space)]}
        for n in (1, 2, 3):
            host = streams[f"S{n}{n}"]
            sub = spaces.subspace(host.space, ["(v0,v0)", f"(v{n},v{n})"])
            pulls[f"corner{n}"] = [(f"corner{n}", host, {p: p for p in sub.points}, sub)]
        for host_name in ("S22", "B2"):
            host = streams[host_name]
            variants = []
            for k in range(VARIANTS):
                sub = spaces.subspace(host.space, rng.sample(host.space.points, rng.randint(3, 6)))
                variants.append((f"sub:{host_name}:{k}", host, {p: p for p in sub.points}, sub))
            pulls[f"sub:{host_name}"] = variants
        pulls["proj"] = [
            (f"proj:{n}", streams[f"C{n}"], endpoint_projection(n), streams[f"I{n}"].space) for n in (2, 3, 4, 5)
        ]
        for name, count in PULLBACK_COUNTS.items():
            slots.append((count, [self._pullback(*args) for args in pulls[name]]))

        def pathology():
            return circulation.pullback(fresh_stream(fixture.host), fixture.inclusion, fixture.corner_space)

        tiny = [
            ("pathology", fixture.corner_space, pathology),
            ("I1", streams["I1"].space, _stream_maker(streams["I1"])),
            ("C2", streams["C2"].space, _stream_maker(streams["C2"])),
        ]
        tiny += [(f"small{k}", space, _stored_maker(space, stored))
                 for k, (space, stored) in enumerate(_small_precirculations(rng, 13, 8))]
        slots.append((EXHAUSTIVE_COUNT, [
            self._check(f"exhaustive:{key}", "exhaustive", space, make, "exhaustive") for key, space, make in tiny
        ]))

        small = [(f"corpus{k}", space, _stored_maker(space, stored))
                 for k, (space, stored) in enumerate(_small_precirculations(rng, 12, 16))]
        small += [(name, streams[name].space, _stream_maker(streams[name])) for name in ("I2", "C3", "S11", "B1")]
        slots.append((MONOTONE_COUNT, [
            self._check(f"monotone:{key}", "monotone", space, make, "monotone") for key, space, make in small
        ]))

        for name, count in INTERVALS_COUNTS.items():
            stream = streams[name]

            def prepare(stream=stream):
                fresh = fresh_stream(stream)
                return lambda: circulation.check_connected_intervals(fresh)

            slots.append((count, [(f"intervals:{name}", "connected_intervals", stream.space, prepare)]))
        self.slots = slots

    @staticmethod
    def _check(key, kind, space, make, mode):
        """is_circulation (or check_monotone) on a fresh precirculation."""
        def prepare():
            fresh = make()
            if mode == "monotone":
                return lambda: circulation.check_monotone(fresh)
            return lambda: circulation.is_circulation(fresh, mode=mode)
        return (key, kind, space, prepare)

    @staticmethod
    def _pullback(key, host, mapping, sub):
        def prepare():
            fresh = fresh_stream(host)
            return lambda: circulation.is_circulation(circulation.pullback(fresh, mapping, sub))
        return (f"pullback:{key}", "fast_pullback", sub, prepare)

    def teardown(self) -> None:
        pass

    def running(self):
        return contextlib.nullcontext()

    def _op(self, spec) -> Op:
        key, kind, _, prepare = spec
        entry = self.golden.get(key, {})
        return Op(kind, key, prepare, lambda result: digest(repr(result)),
                  entry.get("answer"), entry.get("points"), entry.get("opens"))

    def round_ops(self, index: int) -> list[Op]:
        clear_library_caches()
        rng = random.Random(f"{NAME}:{self.seed}:{index}")
        return [self._op(spec) for spec in draw_round(self.slots, rng)]

    def make_golden(self) -> dict:
        golden = {}
        for _, variants in self.slots:
            for spec in variants:
                key, _, space, _ = spec
                if key not in golden:
                    op = self._op(spec)
                    golden[key] = {"answer": op.answer(op.prepare()()), "points": space.n,
                                   "opens": count_opens(space)}
        return golden
