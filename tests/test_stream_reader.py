"""The one-pass stream reader against the reader it replaced.

``conftest.stream_reader_oracle`` keeps the former reader: the space
table's names checked first and read by the former ``space_from_min_opens``,
then each point's pair list through ``relations._checked_rows``, then the
saturation test or saturation. Stream, space and diagram objects and
``gen`` specs are mutated structurally, and both readers must give an
equal stream (with equal minimal-open positions) or raise the same
exception class with the same message."""

import copy
import json
import random
from types import MappingProxyType
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from finstream import (
    boundary_square,
    directed_circle,
    directed_interval,
    directed_square,
    empty_stream,
    point_stream,
    space_from_min_opens,
)
from finstream import cli
from finstream.corpus import random_space, random_stream
from finstream.errors import (
    FormatError,
    InvalidPreorder,
    MissingPoint,
    NotMinimal,
    UnknownPoint,
)
from finstream.formats import parse_space, parse_stream, serialize_stream

from conftest import space_from_min_opens_oracle, space_reader_oracle, stream_reader_oracle


def _bases():
    rng = random.Random(4141)
    streams = [
        directed_interval(2),
        directed_circle(2),
        directed_square(1, 1),
        boundary_square(1),
        point_stream("a"),
        empty_stream(),
    ]
    # random spaces have points that share a minimal open (not T0)
    streams += [random_stream(rng, random_space(rng, n)) for n in (3, 4, 5, 5)]
    bases = [json.loads(json.dumps(serialize_stream(s))) for s in streams]
    # nested stars a > b > c, a table whose pair lists are not in name order
    bases.append({
        "format": "finstream.stream/1",
        "points": ["c", "a", "b"],
        "min_open": {"a": ["c", "b", "a"], "b": ["b", "c"], "c": ["c"]},
        "gen": {
            "a": [["c", "c"], ["b", "c"], ["a", "a"], ["b", "b"]],
            "b": [["b", "c"], ["b", "b"], ["c", "c"]],
            "c": [["c", "c"]],
        },
    })
    return bases


BASES = _bases()
# Names that are not strings: hashable ones can also be table keys.
HASHABLE = (1, None, 2.5, True, ("v0",))
UNHASHABLE = (["v0"], {"v0": "v0"})


def _some_point(obj, rng):
    points = [p for p in obj["points"] if isinstance(p, str)] if isinstance(obj["points"], list) else []
    return rng.choice(points) if points else "v0"


def _some_list(table, rng):
    """A key of the table whose entry is a non-empty list, or None."""
    keys = [k for k, v in table.items() if isinstance(v, list) and v]
    return rng.choice(keys) if keys else None


def _star(obj, x):
    members = obj["min_open"].get(x, [])
    return [q for q in members if isinstance(q, str)]


def drop(obj, rng):
    x = _some_point(obj, rng)
    place = rng.choice(("points", "min_open", "gen", "member", "pair", "everywhere"))
    if place in ("points", "everywhere") and x in obj["points"]:
        obj["points"].remove(x)
    if place in ("min_open", "everywhere"):
        obj["min_open"].pop(x, None)
    if place in ("gen", "everywhere"):
        obj["gen"].pop(x, None)
    if place == "everywhere":
        for key, members in obj["min_open"].items():
            obj["min_open"][key] = [q for q in members if q != x]
        for key, pairs in obj["gen"].items():
            obj["gen"][key] = [pair for pair in pairs if x not in pair]
    table = obj["min_open"] if place == "member" else obj["gen"]
    key = _some_list(table, rng)
    if place in ("member", "pair") and key is not None:
        del table[key][rng.randrange(len(table[key]))]


def duplicate(obj, rng):
    place = rng.choice(("points", "member", "pair"))
    if place == "points":
        if obj["points"]:
            obj["points"].insert(rng.randrange(len(obj["points"]) + 1), rng.choice(obj["points"]))
        return
    table = obj["min_open"] if place == "member" else obj["gen"]
    key = _some_list(table, rng)
    if key is not None:
        table[key].append(copy.deepcopy(rng.choice(table[key])))


def _replace_name(obj, old, new, place, rng):
    if place == "points":
        obj["points"] = [new if p == old else p for p in obj["points"]]
    elif place in ("min_open", "gen"):
        table = obj[place]
        if old in table:
            obj[place] = {(new if k == old else k): v for k, v in table.items()}
    elif place == "member":
        key = _some_list(obj["min_open"], rng)
        if key is not None:
            members = obj["min_open"][key]
            members[rng.randrange(len(members))] = new
    elif place == "pair":
        key = _some_list(obj["gen"], rng)
        if key is not None:
            pair = rng.choice(obj["gen"][key])
            if isinstance(pair, list) and pair:
                pair[rng.randrange(len(pair))] = new


def rename(obj, rng):
    x = _some_point(obj, rng)
    new = rng.choice(("zz", "a0", _some_point(obj, rng)))
    place = rng.choice(("points", "min_open", "gen", "member", "pair", "everywhere"))
    if place != "everywhere":
        _replace_name(obj, x, new, place, rng)
        return
    obj["points"] = [new if p == x else p for p in obj["points"]]
    obj["min_open"] = {
        (new if k == x else k): [new if q == x else q for q in v] for k, v in obj["min_open"].items()
    }
    obj["gen"] = {
        (new if k == x else k): [[new if q == x else q for q in pair] for pair in v]
        for k, v in obj["gen"].items()
    }


def bad_name(obj, rng):
    place = rng.choice(("points", "min_open", "gen", "member", "pair"))
    pool = HASHABLE if place in ("min_open", "gen") else HASHABLE + UNHASHABLE
    name = copy.deepcopy(rng.choice(pool))
    if place == "points":
        if obj["points"]:
            obj["points"][rng.randrange(len(obj["points"]))] = name
        else:
            obj["points"].append(name)
    else:
        _replace_name(obj, _some_point(obj, rng), name, place, rng)


def pair_shape(obj, rng):
    key = _some_list(obj["gen"], rng)
    if key is None:
        return
    pairs = obj["gen"][key]
    k = rng.randrange(len(pairs))
    pair = pairs[k]
    a = pair[0] if isinstance(pair, list) and pair else key
    # one and three names, a tuple (possible through the API), a string,
    # an object, an empty list
    pairs[k] = rng.choice(([a], [a, a, a], (a, a), a + a, {a: a}, []))


def outside_star(obj, rng):
    x = _some_point(obj, rng)
    star = _star(obj, x)
    others = [p for p in obj["points"] if isinstance(p, str) and p not in star]
    if x in obj["gen"] and isinstance(obj["gen"][x], list) and others:
        inside = rng.choice(star) if star else x
        pair = [inside, rng.choice(others)]
        if rng.random() < 0.5:
            pair.reverse()
        obj["gen"][x].insert(rng.randrange(len(obj["gen"][x]) + 1), pair)


def inside_pair(obj, rng):
    # a pair of the star: often not transitive, or not saturated
    x = _some_point(obj, rng)
    star = _star(obj, x)
    if x in obj["gen"] and isinstance(obj["gen"][x], list) and star:
        obj["gen"][x].append([rng.choice(star), rng.choice(star)])


def container(obj, rng):
    place = rng.choice(("points", "min_open", "gen", "min_open entry", "gen entry"))
    value = rng.choice((None, 3, "v0", ("v0",), {"v0": "v0"}))
    if place in ("points", "min_open", "gen"):
        obj[place] = value
        return
    table = obj["min_open" if place == "min_open entry" else "gen"]
    if isinstance(table, dict) and table:
        table[rng.choice(list(table))] = value


def mapping(obj, rng):
    # a non-dict mapping passed through the API: accepted at the top level,
    # refused as a table
    place = rng.choice(("min_open", "gen"))
    obj[place] = MappingProxyType(obj[place])


MUTATIONS = {
    f.__name__: f
    for f in (drop, duplicate, rename, bad_name, pair_shape, outside_star, inside_pair, container, mapping)
}


def mutated(base, seed, kinds):
    rng = random.Random(seed)
    obj = copy.deepcopy(BASES[base])
    for kind in kinds:
        try:
            MUTATIONS[kind](obj, rng)
        except (AttributeError, KeyError, TypeError):
            pass  # an earlier mutation left no table of the shape this one edits
    if rng.random() < 0.2:
        obj = MappingProxyType(obj)
    return obj


def outcome(read, *args):
    """What a reader gives, comparably: a stream or space with its
    minimal-open positions, a diagram's objects with theirs, or the class
    and message (and a NotMinimal's pair) of what it raises."""
    try:
        value = read(*args)
    except Exception as exc:  # any class: both readers must raise the same
        return type(exc), str(exc), getattr(exc, "pair", None)
    if hasattr(value, "objects"):  # a diagram is equal only to itself
        return {k: (s, s.space.min_open_positions) for k, s in value.objects.items()}
    return value, getattr(value, "space", value).min_open_positions


def outcomes(obj):
    return [
        (outcome(parse_stream, obj, strict), outcome(stream_reader_oracle, obj, strict))
        for strict in (True, False)
    ] + [(outcome(parse_space, obj), outcome(space_reader_oracle, obj))]


@settings(derandomize=True, deadline=None, max_examples=600)
@given(
    base=st.integers(0, len(BASES) - 1),
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(st.sampled_from(sorted(MUTATIONS)), min_size=1, max_size=3),
)
def test_mutated_objects_read_as_the_former_reader_reads_them(base, seed, kinds):
    obj = mutated(base, seed, kinds)
    for got, expected in outcomes(obj):
        assert got == expected
    # the space table straight through the API, whatever the names
    if isinstance(obj.get("points"), list) and isinstance(obj.get("min_open"), dict):
        points, table = obj["points"], obj["min_open"]
        assert outcome(space_from_min_opens, points, table) == outcome(
            space_from_min_opens_oracle, points, table
        )


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    base=st.integers(0, len(BASES) - 1),
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(st.sampled_from(sorted(MUTATIONS)), min_size=1, max_size=2),
)
def test_diagram_objects_and_gen_specs_use_the_same_reader(base, seed, kinds, tmp_path_factory):
    # the mutated object as a file holds it: a diagram's second object, and
    # a gen spec; the expected outcome puts the former reader in the CLI
    obj = {k: v for k, v in mutated(base, seed, kinds).items() if not isinstance(v, MappingProxyType)}
    try:
        text = json.dumps({"objects": {"a": BASES[0], "b": obj}, "arrows": {}})
    except TypeError:  # a key JSON cannot hold
        assume(False)
    path = tmp_path_factory.mktemp("diagram") / "diagram.json"
    path.write_text(text, encoding="utf-8")
    spec = {k: v for k, v in json.loads(text)["objects"]["b"].items() if k != "format"}
    got = [outcome(cli._load_diagram, str(path)), outcome(cli._build_from_spec, spec)]
    with mock.patch.object(cli, "parse_stream", stream_reader_oracle):
        expected = [outcome(cli._load_diagram, str(path)), outcome(cli._build_from_spec, spec)]
    assert got == expected


def test_mutations_reach_every_outcome():
    # the mutations above reach each of the reader's outcomes
    seen = set()
    rng = random.Random(77)
    for _ in range(3000):
        kinds = rng.sample(sorted(MUTATIONS), rng.randint(1, 2))
        obj = mutated(rng.randrange(len(BASES)), rng.getrandbits(32), kinds)
        for got, expected in outcomes(obj):
            assert got == expected
            seen.add(got[0] if isinstance(got[0], type) else "read")
    assert {"read", FormatError, UnknownPoint, MissingPoint, NotMinimal, InvalidPreorder} <= seen
