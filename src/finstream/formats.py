"""Canonical JSON interchange and dot export.

Canonical form: UTF-8 JSON with sorted keys, points as strings, opens as
sorted point lists, graphs as sorted pair lists (reflexive pairs included),
two-space indent, trailing newline. Serializing a parsed canonical file
reproduces it byte for byte.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from .circulation import (
    Circulation,
    Precirculation,
    Stream,
    StoredPrecirculation,
    circulation_from_generators,
)
from .errors import FormatError
from .relations import Preorder
from .spaces import FiniteSpace, all_opens, space_from_min_opens

SPACE_FORMAT = "finstream.space/1"
STREAM_FORMAT = "finstream.stream/1"
PRECIRCULATION_FORMAT = "finstream.precirculation/1"


def canonical_dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _space_body(space: FiniteSpace) -> dict:
    return {
        "points": list(space.points),
        "min_open": {p: sorted(space.min_open(p)) for p in space.points},
    }


def serialize_space(space: FiniteSpace) -> dict:
    return {"format": SPACE_FORMAT, **_space_body(space)}


def _pairs(p: Preorder) -> list[list[str]]:
    return [list(pair) for pair in p.pairs()]


def serialize_stream(s: Stream) -> dict:
    return {
        "format": STREAM_FORMAT,
        **_space_body(s.space),
        "gen": {x: _pairs(s.gen_of(x)) for x in s.space.points},
    }


def serialize_precirculation(pc: Precirculation) -> dict:
    """Stored form: the values on every open."""
    assign = []
    for mask in sorted(all_opens(pc.space)):
        value = pc.assign_mask(mask)
        assign.append(
            {"open": sorted(pc.space.set_of(mask)), "pairs": _pairs(value)}
        )
    exact = getattr(pc, "exact", True)
    return {
        "format": PRECIRCULATION_FORMAT,
        **_space_body(pc.space),
        "assign": assign,
        "exact": bool(exact),
    }


def _require(obj: Mapping, key: str, kind=None):
    if not isinstance(obj, Mapping):
        raise FormatError(f"expected an object with field {key!r}")
    if key not in obj:
        raise FormatError(f"missing field {key!r}")
    value = obj[key]
    if kind is not None and not isinstance(value, kind):
        raise FormatError(f"field {key!r} has the wrong type")
    return value


def _parse_pairs(raw) -> list[tuple[str, str]]:
    """A JSON pair list: each pair a list of two point names."""
    if not isinstance(raw, list) or not all(
        isinstance(pair, list) and len(pair) == 2 and all(isinstance(p, str) for p in pair)
        for pair in raw
    ):
        raise FormatError("pairs must be lists of two point names")
    return [tuple(pair) for pair in raw]


def _point_names(raw, what: str) -> list[str]:
    """A JSON list of point names (an open, a chart, a partition class)."""
    if not isinstance(raw, list) or not all(isinstance(p, str) for p in raw):
        raise FormatError(f"{what} must be a list of point names")
    return raw


def _point_map(raw, what: str) -> dict[str, str]:
    """A JSON object sending point names to point names."""
    if not isinstance(raw, dict) or not all(isinstance(q, str) for q in raw.values()):
        raise FormatError(f"{what} must map point names to point names")
    return raw


def parse_space(obj: Mapping) -> FiniteSpace:
    points = _point_names(_require(obj, "points"), "field 'points'")
    table = {
        p: _point_names(members, f"min_open({p!r})")
        for p, members in _require(obj, "min_open", dict).items()
    }
    return space_from_min_opens(points, table)


def _parse_gen_table(space: FiniteSpace, table: Mapping) -> dict[str, Preorder]:
    gens = {}
    for key in table:
        if key not in space:
            raise FormatError(f"gen table keys unknown point {key!r}")
    for x in space.points:
        if x not in table:
            raise FormatError(f"gen table misses {x!r}")
        gens[x] = Preorder.build(space.min_open(x), _parse_pairs(table[x]))
    return gens


def parse_stream(obj: Mapping, strict: bool = True) -> Stream:
    """A stream file. Strict parsing takes the gen table as the circulation
    (``InvalidPreorder`` when it is not saturated); lax parsing saturates it."""
    space = parse_space(obj)
    gens = _parse_gen_table(space, _require(obj, "gen", dict))
    if strict:
        return Stream(space, Circulation(space, [gens[x] for x in space.points]))
    return Stream(space, circulation_from_generators(space, gens))


def parse_precirculation(obj: Mapping) -> StoredPrecirculation:
    space = parse_space(obj)
    stored = {}
    for entry in _require(obj, "assign", list):
        members = frozenset(_point_names(_require(entry, "open"), "field 'open'"))
        pairs = _parse_pairs(_require(entry, "pairs", list))
        stored[members] = Preorder.build(members, pairs)
    exact = obj.get("exact", True)
    if not isinstance(exact, bool):
        raise FormatError("field 'exact' must be true or false")
    return StoredPrecirculation(space, stored, exact=exact)


def parse_any(obj: Mapping) -> FiniteSpace | Stream | StoredPrecirculation:
    kind = _require(obj, "format", str)
    if kind == SPACE_FORMAT:
        return parse_space(obj)
    if kind == STREAM_FORMAT:
        return parse_stream(obj)
    if kind == PRECIRCULATION_FORMAT:
        return parse_precirculation(obj)
    raise FormatError(f"unknown format {kind!r}")


def _read_object(path: str) -> dict:
    """The JSON object a file holds; FormatError for anything else."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            obj = json.load(handle)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text: {exc.reason}")
        except RecursionError:
            raise FormatError(f"{path}: JSON nested too deeply")
    if not isinstance(obj, dict):
        raise FormatError(f"{path}: top level must be an object")
    return obj


def load(path: str) -> FiniteSpace | Stream | StoredPrecirculation:
    return parse_any(_read_object(path))


def dump(value, path: str) -> None:
    if isinstance(value, Stream):
        obj = serialize_stream(value)
    elif isinstance(value, FiniteSpace):
        obj = serialize_space(value)
    elif isinstance(value, Precirculation) and not isinstance(value, Circulation):
        obj = serialize_precirculation(value)
    else:
        raise FormatError(f"cannot serialize {type(value).__name__}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(canonical_dumps(obj))


_PALETTE = (
    "crimson",
    "royalblue",
    "forestgreen",
    "darkorange",
    "purple",
    "teal",
    "saddlebrown",
    "deeppink",
    "olive",
    "navy",
)


def stream_to_dot(s: Stream) -> str:
    """Specialization order solid, each star's order colored per star."""
    lines = ["digraph stream {"]
    for p in s.space.points:
        lines.append(f'  "{p}";')
    for p in s.space.points:
        for q in sorted(s.space.min_open(p)):
            if q != p:
                lines.append(f'  "{p}" -> "{q}" [style=solid color=black];')
    for k, z in enumerate(s.space.points):
        color = _PALETTE[k % len(_PALETTE)]
        for a, b in s.gen_of(z).pairs():
            if a != b:
                lines.append(
                    f'  "{a}" -> "{b}" [color={color} label="{z}" fontcolor={color}];'
                )
    lines.append("}")
    return "\n".join(lines) + "\n"
