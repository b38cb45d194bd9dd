"""Acceptance criteria, one test per criterion.

Each test prints one `ACCEPTANCE <k>: PASS (<seconds>)` line (visible with
`pytest -s` or on failure) and enforces the stated time budget.
"""

import itertools
import json
import random
import time

import pytest

from finstream import (
    Preorder,
    Stream,
    all_opens,
    alternating_witness,
    check_connected_intervals,
    cosheafify,
    directed_circle,
    directed_interval,
    enumerate_point_maps,
    enumerate_stream_maps,
    is_circulation,
    is_connected,
    is_convex,
    is_stream_map,
    limit,
    colimit,
    product_stream,
    pushforward,
    quotient_stream,
    specialization_circulation,
    substream,
    trivial_stream,
    tuple_point,
    validate_alternating_witness,
    DiagramArrow,
    StreamDiagram,
)
from finstream.corpus import (
    all_spaces,
    continuous_maps,
    random_precirculation,
    random_stream,
    spaces_upto,
)
from finstream.models import interval_endpoint_partition, pathology_fixture
from finstream.spaces import closure_set, interior, quotient_space

from conftest import (
    convex_restriction_oracle,
    cosheafify_by_enumeration,
    pseudo_circulation_oracle,
)


class Budget:
    def __init__(self, criterion: int, seconds: float):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.criterion} exceeded {self.seconds}s budget"
            )
            print(f"ACCEPTANCE {self.criterion}: PASS ({elapsed:.2f}s)")
        else:
            print(f"ACCEPTANCE {self.criterion}: FAIL ({elapsed:.2f}s)")
        return False


@pytest.fixture
def acceptance_rng(request):
    """Each criterion's own generator, seeded from its node id, so a
    criterion run alone (``-k criterion_5``) draws what it draws in the
    full module."""
    return random.Random(f"1729:{request.node.nodeid}")


@pytest.fixture(scope="module")
def acceptance_streams():
    """Streams over every space with up to 3 points plus sampled 4-point
    spaces: trivial, specialization, and one seeded random circulation each.
    Drawn from a generator of their own, so they do not depend on which
    criterion asks first."""
    rng = random.Random("1729:acceptance_streams")
    spaces = spaces_upto(3)
    four = all_spaces(4)
    spaces += [four[i] for i in rng.sample(range(len(four)), 12)]
    streams = []
    for space in spaces:
        streams.append(trivial_stream(space))
        streams.append(Stream(space, specialization_circulation(space)))
        streams.append(random_stream(rng, space))
    streams += [
        directed_interval(1),
        directed_interval(2),
        directed_circle(2),
    ]
    return streams


def test_criterion_1_directed_circle_phenomenon():
    with Budget(1, 1.0):
        for n in range(2, 6):
            s = directed_circle(n)
            cells = 2 * n
            assert s.underlying() == Preorder.full(s.space.points)
            full = (1 << cells) - 1
            for mask in all_opens(s.space):
                if mask in (0, full):
                    continue
                members = s.space.set_of(mask)
                if not is_connected(s.space, members):
                    continue
                value = s.value_mask(mask)
                assert value.is_antisymmetric()
                # unique linear orientation: comparability is total on the arc
                for a, b in itertools.combinations(sorted(members), 2):
                    assert value.has(a, b) != value.has(b, a)


def test_criterion_2_quotient_coherence():
    with Budget(2, 1.0):
        for n in range(2, 31):
            interval = directed_interval(n)
            space, projection = quotient_space(
                interval.space, interval_endpoint_partition(n)
            )
            transported = pushforward(interval, projection, space)
            direct = directed_circle(n)
            assert space == direct.space
            assert transported.gen == direct.circ.gen


def test_criterion_3_cosheafification_oracle(acceptance_rng):
    rng = acceptance_rng
    with Budget(3, 30.0):
        count = 0
        for space in spaces_upto(3):
            for k in range(6):
                pc = random_precirculation(rng, space, seeds=1 + k % 3)
                assert cosheafify(pc) == cosheafify_by_enumeration(pc)
                count += 1
        assert count >= 200


def test_criterion_4_predicate_modes_agree(acceptance_rng, acceptance_streams):
    rng = acceptance_rng
    with Budget(4, 60.0):
        instances = []
        for s in acceptance_streams:
            if s.space.n <= 4:
                instances.append(s.circ.as_precirculation())
        for space in spaces_upto(3):
            instances.append(random_precirculation(rng, space))
        for space in [sp for sp in all_spaces(4)[::30]]:
            instances.append(random_precirculation(rng, space))
        for pc in instances:
            fast = is_circulation(pc, "fast")
            slow = is_circulation(pc, "exhaustive")
            assert fast.ok == slow.ok


def test_criterion_5_pushforwards_circulate(acceptance_rng):
    rng = acceptance_rng
    with Budget(5, 60.0):
        spaces = spaces_upto(4)
        done = 0
        while done < 500:
            src = rng.choice(spaces)
            dst = rng.choice(spaces)
            maps = continuous_maps(src, dst)
            if not maps:
                continue
            f = rng.choice(maps)
            s = random_stream(rng, src)
            circ = pushforward(s, f, dst)
            assert is_circulation(circ.as_precirculation(), "fast").ok
            done += 1


def test_criterion_6_pullback_pathology():
    with Budget(6, 5.0):
        fx = pathology_fixture()
        low = tuple_point("v0", "v0")
        high = tuple_point("v1", "v1")
        for mode in ("fast", "exhaustive"):
            result = is_circulation(fx.pulled, mode)
            assert not result.ok
            assert result.witness.collection == ((low,), (high,))
            assert (result.witness.x, result.witness.y) == (low, high)
        fixed = fx.cosheafified()
        assert is_circulation(fixed.as_precirculation(), "exhaustive").ok


def test_criterion_7_witness_extraction(acceptance_streams):
    with Budget(7, 60.0):
        for s in acceptance_streams:
            if s.space.n > 4 or s.space.n == 0:
                continue
            opens = [s.space.set_of(m) for m in all_opens(s.space)]
            for u, v in itertools.product(opens, repeat=2):
                value = s.value(u | v)
                for x in value.carrier:
                    for y in value.image_set(x):
                        chain = alternating_witness(s, u, v, x, y)
                        assert validate_alternating_witness(s, u, v, x, y, chain)


def test_criterion_8_connectedness_and_convex(acceptance_streams):
    with Budget(8, 60.0):
        for s in acceptance_streams:
            ok, witness = check_connected_intervals(s)
            assert ok, witness
            if s.space.n > 4:
                continue
            under = s.underlying()
            for r in range(s.space.n + 1):
                for subset in itertools.combinations(s.space.points, r):
                    if is_convex(under, subset):
                        assert convex_restriction_oracle(s, subset)


def _assert_unique_factorization(candidates, expected):
    assert candidates == [expected]


def test_criterion_9_universal_properties(acceptance_rng, acceptance_streams):
    rng = acceptance_rng
    small = [s for s in acceptance_streams if 0 < s.space.n <= 3]
    probes = [s for s in small if s.space.n <= 2][:8] + [
        s for s in small if s.space.n == 3
    ][:4]
    checked = 0
    with Budget(9, 120.0):
        # product: pairing exists, is a stream map, and is unique
        for s, t in [(small[1], small[2]), (small[3], small[5]), (small[-1], small[-2])]:
            prod, first, second = product_stream(s, t)
            for r in probes:
                for f in enumerate_stream_maps(r, s):
                    for g in enumerate_stream_maps(r, t):
                        paired = {
                            p: tuple_point(f[p], g[p]) for p in r.space.points
                        }
                        assert is_stream_map(paired, r, prod).ok
                        matches = [
                            h
                            for h in enumerate_point_maps(r.space, prod.space)
                            if all(
                                first.mapping[h[p]] == f[p]
                                and second.mapping[h[p]] == g[p]
                                for p in r.space.points
                            )
                        ]
                        _assert_unique_factorization(matches, paired)
                        checked += 1
        # quotient: couniversal among class-constant maps
        for s in small[2:5]:
            points = list(s.space.points)
            partition = [points[:1], points[1:]] if len(points) > 1 else [points]
            partition = [c for c in partition if c]
            q, proj = quotient_stream(s, partition)
            for t in probes:
                for g in enumerate_stream_maps(s, t):
                    if any(
                        g[a] != g[b] for cls in partition for a in cls for b in cls
                    ):
                        continue
                    induced = {proj.mapping[p]: g[p] for p in points}
                    assert is_stream_map(induced, q, t).ok
                    matches = [
                        h
                        for h in enumerate_point_maps(q.space, t.space)
                        if all(h[proj.mapping[p]] == g[p] for p in points)
                    ]
                    _assert_unique_factorization(matches, induced)
                    checked += 1
        # substream: maps landing in the subset factor through it, uniquely
        for s in small[1:4]:
            points = list(s.space.points)
            subset = points[: 1 + len(points) // 2]
            sub, inc = substream(s, subset)
            for r in probes:
                for f in enumerate_stream_maps(r, s):
                    if not set(f.values()) <= set(subset):
                        continue
                    assert is_stream_map(f, r, sub).ok
                    matches = [
                        h
                        for h in enumerate_point_maps(r.space, sub.space)
                        if all(inc.mapping[h[p]] == f[p] for p in r.space.points)
                    ]
                    _assert_unique_factorization(matches, dict(f))
                    checked += 1
        # limit of a cospan and colimit of a span, full candidate scans
        a, b = small[2], small[4]
        maps_ab = enumerate_stream_maps(a, b)
        if maps_ab:
            diagram = StreamDiagram(
                {"A": a, "B": b}, {"f": DiagramArrow("A", "B", maps_ab[0])}
            )
            lim, cone = limit(diagram)
            for leg in cone.values():
                assert is_stream_map(leg.mapping, lim, leg.target).ok
            colim, cocone = colimit(diagram)
            assert is_circulation(colim.circ.as_precirculation(), "fast").ok
            for r in probes[:4]:
                for fa in enumerate_stream_maps(r, a):
                    fb = {p: maps_ab[0][fa[p]] for p in r.space.points}
                    matches = [
                        h
                        for h in enumerate_point_maps(r.space, lim.space)
                        if all(
                            cone["A"].mapping[h[p]] == fa[p]
                            and cone["B"].mapping[h[p]] == fb[p]
                            for p in r.space.points
                        )
                    ]
                    assert len(matches) == 1
                    assert is_stream_map(matches[0], r, lim).ok
                    checked += 1
            for t in probes[:4]:
                for gb in enumerate_stream_maps(b, t):
                    ga = {p: gb[maps_ab[0][p]] for p in a.space.points}
                    matches = [
                        h
                        for h in enumerate_point_maps(colim.space, t.space)
                        if all(h[cocone["A"].mapping[p]] == ga[p] for p in a.space.points)
                        and all(h[cocone["B"].mapping[p]] == gb[p] for p in b.space.points)
                    ]
                    assert len(matches) == 1
                    assert is_stream_map(matches[0], colim, t).ok
                    checked += 1
        assert checked >= 200, f"only {checked} factorization instances scanned"


def test_criterion_10_pseudo_circulations_and_convex_substreams(acceptance_streams):
    with Budget(10, 60.0):
        for s in acceptance_streams:
            if not 0 < s.space.n <= 4:
                continue
            space = s.space
            subsets = []
            for r in range(1, space.n + 1):
                subsets.extend(frozenset(c) for c in itertools.combinations(space.points, r))
            families = [
                family
                for size in (1, 2)
                for family in itertools.combinations(subsets, size)
            ]
            for family in families:
                union = {p for a in family for p in a}
                if not all(
                    any(p in interior(space, a) for a in family) for p in union
                ):
                    continue
                assert pseudo_circulation_oracle(s, family)
            # closed convex substreams match the concrete restriction
            under = s.underlying()
            for subset in subsets:
                if closure_set(space, subset) != subset:
                    continue
                if not is_convex(under, subset):
                    continue
                sub, _ = substream(s, subset)
                for inner_mask in all_opens(sub.space):
                    inner = sub.space.set_of(inner_mask)
                    around = 0
                    for p in inner:
                        around |= space.min_open_rows[space.index(p)]
                    expected = s.value_mask(around).restrict(inner)
                    assert sub.value_mask(inner_mask) == expected


def test_criterion_11_cli_round_trip(tmp_path):
    from finstream.cli import main
    from finstream.formats import serialize_space

    circle = directed_circle(2)
    arc1 = sorted(circle.space.min_open("v0"))
    arc2 = sorted(circle.space.min_open("v1"))
    specs = {
        "interval": {"builder": "directed_interval", "args": {"n": 2}},
        "circle": {"builder": "directed_circle", "args": {"n": 3}},
        "square": {"builder": "directed_square", "args": {"n": 1, "m": 1}},
        "boundary": {"builder": "boundary_square", "args": {"n": 1}},
        "point": {"builder": "point"},
        "empty": {"builder": "empty"},
        "atlas": {
            "atlas": {
                "space": serialize_space(circle.space),
                "charts": [
                    {
                        "points": arc1,
                        "order": [list(p) for p in circle.value(arc1).pairs()],
                    },
                    {
                        "points": arc2,
                        "order": [list(p) for p in circle.value(arc2).pairs()],
                    },
                ],
            }
        },
    }
    with Budget(11, 30.0):
        for name, spec in specs.items():
            spec_file = tmp_path / f"{name}.spec.json"
            built = tmp_path / f"{name}.stream.json"
            exported = tmp_path / f"{name}.exported.json"
            spec_file.write_text(json.dumps(spec), encoding="utf-8")
            assert main(["build", "--input", str(spec_file), "--output", str(built)]) == 0
            assert (
                main(
                    [
                        "export",
                        "--input",
                        str(built),
                        "--fmt",
                        "json",
                        "--output",
                        str(exported),
                    ]
                )
                == 0
            )
            assert exported.read_bytes() == built.read_bytes()
            again = tmp_path / f"{name}.again.json"
            assert main(["export", "--input", str(exported), "--fmt", "json", "--output", str(again)]) == 0
            assert again.read_bytes() == built.read_bytes()
