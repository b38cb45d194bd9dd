"""query_mix: the read path on large streams loaded during set-up.

Requests have Zipf popularity over a fixed pool of several thousand opens of
four streams. Each is a value plus relatedness query, a chain witness on a
related pair, an alternating witness on two opens, or the underlying
preorder. The pool and the per-open request parameters are fixed, so the
golden answers cover every request; the seed draws the request sequence. Every round starts from fresh circulation objects,
so value memos start cold, as in a new reader process: misses (a closure
each) set the tail and hits set the median. Answers are checked on separate
copies of the streams, so checking never warms the memo under test.
"""

from __future__ import annotations

import contextlib
import random
import shutil
from itertools import accumulate
from pathlib import Path

from finstream import circulation, formats, models

from common import Op, count_opens, digest, fresh_stream, preorder_digest

NAME = "query_mix"

STREAMS = {
    "S66": (lambda: models.directed_square(6, 6), 1200),
    "B5": (lambda: models.boundary_square(5), 600),
    "I48": (lambda: models.directed_interval(48), 600),
    "C32": (lambda: models.directed_circle(32), 600),
}
POOL_SEED = 31337
REQUESTS_PER_ROUND = 3000
ZIPF_S = 1.1
SIZE_CLASSES = 10  # open-size deciles per stream for the popularity ranking
KINDS = {"value": 5, "chain_witness": 2, "alternating_witness": 2, "underlying": 1}


def _pool(stream, size, rng):
    """Distinct opens, each the union of the minimal opens of 1-3 points."""
    space = stream.space
    seen = {}
    while len(seen) < size:
        mask = 0
        for p in rng.sample(space.points, rng.randint(1, 3)):
            mask |= space.min_open_rows[space.index(p)]
        if mask not in seen:
            members = sorted(space.set_of(mask))
            seen[mask] = (members, rng.choice(members), rng.choice(members))
    return list(seen.values())


def _related_pair(value, rng):
    pairs = [(a, b) for a, b in value.pairs() if a != b]
    return rng.choice(pairs) if pairs else (value.carrier[0], value.carrier[0])


class Workload:
    name = NAME

    def __init__(self, root: Path, seed: int, golden: dict | None):
        self.work = root / ".perfbench" / NAME
        self.seed = seed
        self.golden = golden or {}
        self.streams: dict = {}
        self.pools: dict = {}
        self.partners: dict = {}
        self.live: dict = {}
        self.check: dict = {}

    def setup(self) -> None:
        """Build the streams, write them, load them back, draw the pool."""
        self.streams, self.live, self.check = {}, {}, {}  # drop a previous set-up's streams first
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        rng = random.Random(POOL_SEED)
        self.pools, self.partners = {}, {}
        for name, (build, size) in STREAMS.items():
            path = self.work / f"{name}.json"
            formats.dump(build(), str(path))
            stream = formats.load(str(path))
            self.streams[name] = stream
            self.pools[name] = _pool(stream, size, rng)
            self.partners[name] = [rng.randrange(size) for _ in range(size)]
        self.check = {name: fresh_stream(s) for name, s in self.streams.items()}
        self.ranking = self._ranking()

    def teardown(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def running(self):
        return contextlib.nullcontext()

    def _entry(self, name, i):
        fields = self.golden["entries"][name][i].split()
        return fields[0], (int(fields[1]), int(fields[2])), fields[3], (int(fields[4]), int(fields[5])), fields[6]

    def _op(self, kind, name, i) -> Op:
        stream = self.live[name]
        check = self.check[name]
        members, x, y = self.pools[name][i]
        sizes = self.golden.get("sizes", {}).get(name, {})
        key = f"{name}:{i}:{kind}"
        expected = None
        if kind == "underlying":
            call = stream.underlying
            answer = preorder_digest
            expected = self.golden.get("underlying", {}).get(name)
        elif kind == "value":
            def call():
                value = stream.value(members)
                return value, value.has(x, y)

            def answer(result):
                return f"{preorder_digest(result[0])}{int(result[1])}"
        else:
            entry = self._entry(name, i) if self.golden else None
            if kind == "chain_witness":
                a, b = (members[k] for k in entry[1]) if entry else (x, x)

                def call():
                    return circulation.chain_witness(stream, members, a, b)

                def answer(steps):
                    return digest(repr(steps))
            else:
                other = self.pools[name][self.partners[name][i]][0]
                union = sorted(set(members) | set(other))
                a, b = (union[k] for k in entry[3]) if entry else (union[0], union[0])

                def call():
                    return circulation.alternating_witness(stream, members, other, a, b)

                def answer(chain):
                    valid = circulation.validate_alternating_witness(check, members, other, a, b, chain)
                    return f"{len(chain)}{'v' if valid else 'x'}"
        if expected is None and self.golden:
            value_d, _, chain_d, _, alt = self._entry(name, i)
            expected = {"value": value_d, "chain_witness": chain_d, "alternating_witness": alt}.get(kind)
        return Op(kind, key, lambda: call, answer, expected, sizes.get("points"), sizes.get("opens"))

    def _ranking(self):
        """Popularity ranking, fixed like the pool: shuffled within strata
        (stream and open-size decile) and interleaved in proportion to
        stratum size, so that the hot set spans every stream and size. It
        is not drawn by the seed because the few hottest opens take a large
        share of the requests, and a seed-drawn hot set moved throughput by
        a third between seeds."""
        rng = random.Random(POOL_SEED + 2)
        keyed = []
        for name in STREAMS:
            pool = self.pools[name]
            by_size = sorted(range(len(pool)), key=lambda i: (len(pool[i][0]), i))
            step = len(by_size) / SIZE_CLASSES
            for c in range(SIZE_CLASSES):
                stratum = by_size[round(c * step):round((c + 1) * step)]
                rng.shuffle(stratum)
                for pos, i in enumerate(stratum):
                    keyed.append(((pos + 0.5) / len(stratum), name, c, i))
        keyed.sort()
        return [(name, i) for _, name, _, i in keyed]

    def round_ops(self, index: int) -> list[Op]:
        """A fresh request sequence, drawn by the seed, over cold copies of
        the streams."""
        self.live = {name: fresh_stream(s) for name, s in self.streams.items()}
        weights = list(accumulate(1.0 / (r + 1) ** ZIPF_S for r in range(len(self.ranking))))
        rng = random.Random(f"{NAME}:{self.seed}:{index}")
        picks = rng.choices(self.ranking, cum_weights=weights, k=REQUESTS_PER_ROUND)
        kinds = rng.choices(list(KINDS), weights=list(KINDS.values()), k=REQUESTS_PER_ROUND)
        return [self._op(kind, name, i) for kind, (name, i) in zip(kinds, picks)]

    def make_golden(self) -> dict:
        rng = random.Random(POOL_SEED + 1)
        golden = {"entries": {}, "underlying": {}, "sizes": {}}
        for name, stream in self.streams.items():
            golden["underlying"][name] = preorder_digest(stream.underlying())
            golden["sizes"][name] = {"points": stream.space.n, "opens": count_opens(stream.space)}
            rows = []
            for i, (members, x, y) in enumerate(self.pools[name]):
                value = stream.value(members)
                a, b = _related_pair(value, rng)
                chain = circulation.chain_witness(stream, members, a, b)
                other = self.pools[name][self.partners[name][i]][0]
                union = sorted(set(members) | set(other))
                u, v = _related_pair(stream.value(union), rng)
                alt = circulation.alternating_witness(stream, members, other, u, v)
                valid = circulation.validate_alternating_witness(stream, members, other, u, v, alt)
                rows.append(" ".join([
                    f"{preorder_digest(value)}{int(value.has(x, y))}",
                    str(members.index(a)), str(members.index(b)), digest(repr(chain)),
                    str(union.index(u)), str(union.index(v)), f"{len(alt)}{'v' if valid else 'x'}",
                ]))
            golden["entries"][name] = rows
        return golden
