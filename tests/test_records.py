"""The library's records are plain classes on ``_record.Record``.

Each is compared with its former ``dataclasses`` declaration, kept in
``conftest.Former``, on model and corpus instances: the repr, the partition
that equality and hashing induce, keyword construction and defaults,
``__match_args__``, refusal of assignment and deletion, and the errors of
construction. A fresh interpreter imports the library without the
dataclasses machinery.
"""

import dataclasses
import inspect
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import finstream
from finstream import (
    AlternatingChain,
    Circulation,
    CirculationCheck,
    DiagramArrow,
    FiniteSpace,
    Relation,
    Stream,
    StreamDiagram,
    StreamMap,
    alternating_witness,
    identity_map,
    is_circulation,
    is_stream_map,
    pathology_fixture,
    product_stream,
    quotient_stream,
    trivial_stream,
)
from finstream._record import Record
from finstream.category import StreamMapCheck
from finstream.corpus import random_precirculation
from finstream.models import interval_endpoint_partition

from conftest import (
    Former,
    former_class,
    former_record,
    full_gen_rows,
    model_streams,
    position_rows,
)

SRC = Path(__file__).resolve().parents[1] / "src"
# The four modules the benchmark harness imports in a fresh interpreter.
TIMED_MODULES = ("finstream", "finstream.cli", "finstream.corpus", "finstream.formats")
MACHINERY = ("dataclasses", "inspect", "ast", "dis", "tokenize")
# Former classes whose body wrote these methods itself; the decorator kept them.
OWN_REPR = {"Relation", "FiniteSpace", "Circulation", "Stream"}
OWN_EQ = {"Relation"}


def chains(s, rng, count):
    """Alternating chains on pairs of minimal opens of s, on related pairs."""
    space = s.space
    found = []
    mins = sorted(set(space.min_open_rows))
    for u, v in itertools.product(mins, repeat=2):
        both = u | v
        rows = s.circ.value_rows(both)
        for i, j in itertools.product(range(space.n), repeat=2):
            if both >> i & 1 and rows[i] >> j & 1:
                found.append((space.set_of(u), space.set_of(v), space.points[i], space.points[j]))
    picks = rng.sample(found, min(count, len(found)))
    return [alternating_witness(s, *pick) for pick in picks]


@pytest.fixture(scope="module")
def records(corpus_streams):
    """Instances of the twelve records (and of Preorder), by class name, each
    class with copies equal to some of its members, so that the equality
    classes are not all singletons."""
    rng = random.Random(18)
    streams = model_streams() + corpus_streams[::5]
    out = {}

    def add(*items):
        for item in items:
            out.setdefault(type(item).__name__, []).append(item)

    for s in streams:
        space = FiniteSpace(s.space.points, s.space.min_open_rows)
        circ = Circulation(space, s.circ.gen)
        whole = s.underlying()
        add(s, s.space, s.circ, space, circ, Stream(space, circ), trivial_stream(s.space))
        add(whole, Relation(whole.carrier, whole.rows), *s.circ.gen[:3])
        add(is_circulation(s.circ), *chains(s, rng, 3))
        ident = identity_map(s)
        add(ident, StreamMap(s, s, dict(ident.mapping)), is_stream_map(ident.mapping, s, s))
        add(is_stream_map(ident.mapping, s, trivial_stream(s.space), mode="exhaustive"))
        arrow = DiagramArrow("a", "a", ident.mapping)
        add(arrow, DiagramArrow("a", "a", dict(ident.mapping)), DiagramArrow("a", "b", {}))
        add(StreamDiagram({"a": s}, {"f": arrow}), StreamDiagram({"a": s}, {}))
        if s.space.n:
            prod, first, second = product_stream(s, s)
            add(prod, first, second, is_stream_map(first.mapping, prod, s))
    for n in (2, 3):
        for space in [sp for s in corpus_streams if s.space.n == n for sp in [s.space]][:12]:
            pc = random_precirculation(rng, space)
            checks = [is_circulation(pc), is_circulation(pc, mode="exhaustive")]
            add(*checks, *(c.witness for c in checks if c.witness is not None))
    interval = model_streams()[0]
    circle, leg = quotient_stream(interval, interval_endpoint_partition(3))
    swap = {p: p for p in interval.space.points} | {"v0": "e1", "e1": "v0"}
    add(leg, is_stream_map(swap, interval, interval))
    fx = pathology_fixture()
    pulled = is_circulation(fx.pulled)
    add(fx, fx, pathology_fixture(), pulled, pulled.witness)
    names = {cls.__name__ for cls in vars(Former).values() if isinstance(cls, type)}
    assert names | {"Preorder"} == set(out), "every record has instances"
    assert not pulled.ok and any(not c.ok and c.witness for c in out["StreamMapCheck"])
    assert any(not c.continuous for c in out["StreamMapCheck"])
    return out


def outcome(fn, *args):
    """What a call gives: its value, or the type name and text of its error."""
    try:
        return fn(*args)
    except (TypeError, AttributeError) as exc:
        return ("raised", "AttributeError" if isinstance(exc, AttributeError) else "TypeError",
                str(exc))


def test_repr_is_byte_identical(records):
    for name, group in records.items():
        for r in group:
            if former_class(r).__name__ in OWN_REPR:
                assert type(r).__repr__ is not Record.__repr__
            else:
                assert repr(r) == repr(former_record(r))


def test_equality_and_hash_partition_as_before(records):
    for name, group in records.items():
        if former_class(group[0]).__name__ in OWN_EQ:
            assert type(group[0]).__eq__ is not Record.__eq__
            continue
        olds = [former_record(r) for r in group]
        new_hashes = [outcome(hash, r) for r in group]
        old_hashes = [outcome(hash, o) for o in olds]
        for i, j in itertools.product(range(len(group)), repeat=2):
            assert (group[i] == group[j]) == (olds[i] == olds[j]), (name, i, j)
            assert (group[i] != group[j]) == (olds[i] != olds[j]), (name, i, j)
            assert (new_hashes[i] == new_hashes[j]) == (old_hashes[i] == old_hashes[j])
        for r, o, new, old in zip(group, olds, new_hashes, old_hashes):
            if type(o).__hash__ is object.__hash__:
                assert new == object.__hash__(r), name  # by identity, as before
            else:
                assert new == old, name  # the same value, or the same TypeError
    assert outcome(hash, records["DiagramArrow"][0])[1] == "TypeError"
    assert outcome(hash, records["PathologyFixture"][0])[1] == "TypeError"
    _, first, second = product_stream(*model_streams()[:1] * 2)
    assert hash(first) == hash(second) and first != second  # the hash skips the mapping
    # equal fields make equal records only within one class
    space, chain = FiniteSpace(("a",), (1,)), AlternatingChain(("a",), (1,))
    assert space != chain and former_record(space) != former_record(chain)
    assert hash(space) == hash(chain) == hash(former_record(chain))


def test_circulation_field_is_the_stored_rows(records):
    # the Circulation records' equality and hash read the rows on the
    # minimal opens, and partition the group as the former full rows do
    group = records["Circulation"]
    full = [(c.space, full_gen_rows(c)) for c in group]
    for c, (space, rows) in zip(group, full):
        assert c._gen_rows == position_rows(space, rows)
        assert hash(c) == hash(former_record(c)) == hash((c.space, c._gen_rows))
    for i, j in itertools.product(range(len(group)), repeat=2):
        assert (group[i] == group[j]) == (full[i] == full[j])
        assert (hash(group[i]) == hash(group[j])) == (full[i] == full[j])


def test_construction_by_keyword_and_defaults(records):
    for name, group in records.items():
        r, cls = group[0], former_class(group[0])
        assert type(r).__match_args__ == cls.__match_args__, name
        if cls is Former.Circulation:
            rebuilt = Circulation(space=r.space, gen=r.gen)
            assert rebuilt == r and rebuilt._gen_rows == r._gen_rows
            continue
        params = inspect.signature(type(r)).parameters.values()
        assert [(p.name, p.kind, p.default) for p in params] == [
            (p.name, p.kind, p.default) for p in inspect.signature(cls).parameters.values()
        ], name
        fields = {f.name: getattr(r, f.name) for f in dataclasses.fields(cls)}
        new = type(r)(**fields)
        assert all(getattr(new, f) is value for f, value in fields.items()), name
        if name not in OWN_REPR | {"Preorder"}:
            assert repr(new) == repr(cls(**fields))
    for new, old in [
        (CirculationCheck(True), Former.CirculationCheck(True)),
        (StreamMapCheck(False, False), Former.StreamMapCheck(False, False)),
    ]:
        assert new.witness is None and repr(new) == repr(old)
    assert CirculationCheck(ok=True) == CirculationCheck(True, None)


def test_assignment_and_deletion_raise(records):
    for name, group in records.items():
        for r in group[:3]:
            o = former_record(r)
            names = [f.name for f in dataclasses.fields(o)]
            if type(r).__name__ == type(o).__name__:
                names.append("extra")  # the decorated class refused every name
            for attr in names:
                assert outcome(setattr, r, attr, None) == outcome(setattr, o, attr, None)
                assert outcome(delattr, r, attr) == outcome(delattr, o, attr)
                assert outcome(setattr, r, attr, None)[0] == "raised"


def test_construction_errors_as_before():
    interval, circle = model_streams()[0], model_streams()[2]
    ident = {p: p for p in interval.space.points}
    swap = ident | {"v0": "e1", "e1": "v0"}
    arrow = DiagramArrow("a", "a", ident)
    cases = [
        ("Stream", (interval.space, circle.circ)),
        ("StreamMap", (interval, interval, swap)),
        ("StreamMap", (interval, trivial_stream(interval.space), ident)),
        ("StreamDiagram", ({"a": interval}, {"f": DiagramArrow("a", "b", ident)})),
        ("StreamDiagram", ({"a": interval}, {"f": DiagramArrow("a", "a", swap)})),
        ("StreamDiagram", ({"a": interval}, {"f": arrow, "g": DiagramArrow("a", "a", swap)})),
    ]
    seen = set()
    for name, args in cases:
        errors = []
        for cls in (getattr(finstream, name), getattr(Former, name)):
            with pytest.raises(Exception) as caught:
                cls(*args)
            errors.append((type(caught.value), str(caught.value)))
        assert errors[0] == errors[1], name
        seen.add(errors[0][0].__name__)
    assert seen == {"CarrierMismatch", "NotContinuous", "NotStreamMap", "IllTypedDiagram"}


def test_fresh_import_loads_no_dataclasses_machinery():
    """A new interpreter imports the harness's modules without adding any of
    the dataclasses machinery to sys.modules; modules that a site hook
    loaded before the import do not count."""
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        f"import {', '.join(TIMED_MODULES)}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    added = set(json.loads(done.stdout))
    assert set(TIMED_MODULES) <= added
    assert not added & set(MACHINERY), sorted(added & set(MACHINERY))
