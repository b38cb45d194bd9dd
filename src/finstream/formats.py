"""Canonical JSON interchange and dot export.

Canonical form: UTF-8 JSON with sorted keys, points as strings, opens as
sorted point lists, graphs as sorted pair lists (reflexive pairs included),
two-space indent, trailing newline. Serializing a parsed canonical file
reproduces it byte for byte.

Stream files are read into generator rows and written straight from them,
each point's rows on its minimal open only. A stream file is read in one
pass over the space's own name index: ``space_from_min_opens`` takes each
minimal open's mask, positions and nesting test in one walk, and
``_parse_gen_table`` reads each point's pair list once, through the index,
into the rows of its minimal open. Only a list that fails the reader's
per-pair test goes to ``relations._checked_rows``, the pair-table check
``Preorder.build`` runs, which names its error, so a load raises the errors
of ``Preorder.build`` on each minimal open, in its order; a stream load
builds no ``Preorder``. A JSON pair list reaches that check only once
``_require_pairs`` has found it a list of two-name lists, so a malformed
pair anywhere in it comes first. Build specs and diagram objects go
through the same reader, laxly.
Text is written by two writers, both byte-identical to
``json.dumps(..., sort_keys=True, indent=2, ensure_ascii=False)``:
``stream_to_json`` writes a stream file straight from its generator rows,
with no dict in between, and ``canonical_dumps`` writes every other value
(reports, spaces, precirculations) by a recursive writer over exact JSON
types that leaves anything else to that ``json.dumps`` call.
``serialize_stream``, the dict form, has no caller in the library and stays
for the tests and the benchmark, which build diagram files from it.
``_write_text`` encodes a text to UTF-8 before it opens a file and writes
the bytes, for ``dump`` and for every CLI command.
A file that lists a point twice is refused.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Mapping
from json.encoder import encode_basestring
from typing import Any, NoReturn

from ._kernels import iter_bits
from .circulation import (
    Circulation,
    Precirculation,
    Stream,
    StoredPrecirculation,
    _require_saturated,
    _saturate,
)
from .errors import FormatError, InvalidPreorder, StreamError
from .relations import Preorder, _carrier_rows
from .spaces import FiniteSpace, all_opens, space_from_min_opens

SPACE_FORMAT = "finstream.space/1"
STREAM_FORMAT = "finstream.stream/1"
PRECIRCULATION_FORMAT = "finstream.precirculation/1"


def canonical_dumps(obj: Any) -> str:
    """The canonical text of a JSON value: the text of
    ``json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False)`` and a
    newline.

    Exact ``dict``, ``list``, ``tuple``, ``str``, ``int``, ``bool`` and
    ``None`` values are written by ``_canonical``. Anything else (a float, a
    subclass, a non-string key) and a ``RecursionError`` from circular or
    very deep input send the whole object to that ``json.dumps`` call, so
    its text or its exception is the answer."""
    try:
        return _canonical(obj, "") + "\n"
    except (TypeError, RecursionError):
        return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _canonical(obj: Any, indent: str) -> str:
    """``obj`` as ``json.dumps`` indents it at depth ``indent``; TypeError
    for a value it does not write. Values are told apart by exact type and
    strings go to the C string encoder, so no code of the caller's runs
    here."""
    kind = type(obj)
    if kind is str:
        return encode_basestring(obj)
    if kind is dict:
        if not obj:
            return "{}"
        inner = indent + "  "
        for key in obj:
            if type(key) is not str:
                raise TypeError("not a string key")
        body = [encode_basestring(k) + ": " + _canonical(obj[k], inner) for k in sorted(obj)]
        return "{\n" + inner + (",\n" + inner).join(body) + "\n" + indent + "}"
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        inner = indent + "  "
        sep = ",\n" + inner
        if type(obj[0]) is str:
            try:  # a list of point names: one encoder pass, one join
                return "[\n" + inner + sep.join(map(encode_basestring, obj)) + "\n" + indent + "]"
            except TypeError:
                pass
        return "[\n" + inner + sep.join([_canonical(v, inner) for v in obj]) + "\n" + indent + "]"
    if kind is int:
        return int.__repr__(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    raise TypeError(f"not written here: {kind.__name__}")


def _names(points: tuple[str, ...], mask: int) -> list[str]:
    """The points of a mask; points are sorted, so bit order is name order."""
    return [points[i] for i in iter_bits(mask)]


def _row_pairs(points: tuple[str, ...], items) -> list[list[str]]:
    """The graph of (a, row) pairs, a ascending, as a sorted pair list."""
    return [[points[a], points[b]] for a, row in items for b in iter_bits(row)]


def _space_body(space: FiniteSpace) -> dict:
    points = space.points
    return {
        "points": list(points),
        "min_open": {p: _names(points, row) for p, row in zip(points, space.min_open_rows)},
    }


def serialize_space(space: FiniteSpace) -> dict:
    return {"format": SPACE_FORMAT, **_space_body(space)}


def serialize_stream(s: Stream) -> dict:
    points = s.space.points
    return {
        "format": STREAM_FORMAT,
        **_space_body(s.space),
        "gen": {x: _row_pairs(points, s.circ.gen_items(z)) for z, x in enumerate(points)},
    }


def stream_to_json(s: Stream) -> str:
    """The canonical text of ``serialize_stream(s)``, written straight from
    the generator rows.

    Each point name is encoded once, with the string encoder ``json.dumps``
    uses under ``ensure_ascii=False``, and indented once per depth it sits at;
    every pair block and minimal-open list is then one ``str.join``. Keys
    come out sorted because the points are sorted. A value is a preorder
    on its minimal open, so no pair list or minimal-open list is empty.
    """
    space = s.space
    enc = [encode_basestring(p) for p in space.points]
    at4 = ["    " + e for e in enc]
    at6 = ["      " + e for e in enc]
    at8 = ["        " + e for e in enc]
    # a's pairs (a, b), (a, c) are head[a] + mid[a].join([b, c]) + "\n      ]"
    head = ["      [\n" + e + ",\n" for e in at8]
    mid = ["\n      ],\n" + h for h in head]
    gen = []
    min_open = []
    for z, (key, where) in enumerate(zip(at4, space.min_open_positions)):
        pairs = ",\n".join([
            head[a] + mid[a].join([at8[b] for b in iter_bits(row)]) + "\n      ]"
            for a, row in s.circ.gen_items(z)
        ])
        gen.append(key + ": [\n" + pairs + "\n    ]")
        min_open.append(key + ": [\n" + ",\n".join([at6[b] for b in where]) + "\n    ]")
    if not enc:
        return (
            '{\n  "format": "' + STREAM_FORMAT + '",\n  "gen": {},\n'
            '  "min_open": {},\n  "points": []\n}\n'
        )
    return (
        '{\n  "format": "' + STREAM_FORMAT + '",\n  "gen": {\n'
        + ",\n".join(gen)
        + '\n  },\n  "min_open": {\n'
        + ",\n".join(min_open)
        + '\n  },\n  "points": [\n'
        + ",\n".join(at4)
        + "\n  ]\n}\n"
    )


def serialize_precirculation(pc: Precirculation) -> dict:
    """Stored form: the values on every open."""
    points = pc.space.points
    assign = []
    for mask in sorted(all_opens(pc.space)):
        rows = pc.rows_on(mask)
        assign.append({
            "open": _names(points, mask),
            "pairs": _row_pairs(points, [(a, rows[a]) for a in iter_bits(mask)]),
        })
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


def _require_pairs(raw) -> list:
    """A JSON pair list, checked whole to be a list of lists of two point
    names (FormatError) before any name in it is looked up."""
    if not isinstance(raw, list) or not all(
        isinstance(pair, list) and len(pair) == 2 and isinstance(pair[0], str)
        and isinstance(pair[1], str) for pair in raw
    ):
        raise FormatError("pairs must be lists of two point names")
    return raw


def _parse_preorder(points, raw) -> Preorder:
    """A JSON pair list as a preorder on the points: its shape, then
    ``Preorder.build``'s checks."""
    return Preorder(*_carrier_rows(points, _require_pairs(raw), True))


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
    """A space file: its points, each listed once, and its minimal-open
    table, each entry a list of point names, read by
    :func:`space_from_min_opens`. A name that is not a string misses the
    space's index there; the table is then scanned for the first entry
    that is not a list of names, whose FormatError comes before any other
    fault of the table."""
    points = _point_names(_require(obj, "points"), "field 'points'")
    if len(set(points)) < len(points):
        seen = set()
        for p in points:
            if p in seen:
                raise FormatError(f"point {p!r} is listed twice")
            seen.add(p)
    table = _require(obj, "min_open", dict)
    if not all(isinstance(members, list) for members in table.values()):
        _require_member_names(table)
    try:
        return space_from_min_opens(points, table)
    except (StreamError, TypeError):  # TypeError: a name that cannot be hashed
        _require_member_names(table)
        raise


def _require_member_names(table: dict) -> None:
    """FormatError for the first minimal-open entry, in table order, that
    is not a list of point names."""
    for p, members in table.items():
        _point_names(members, f"min_open({p!r})")


def _parse_gen_table(space: FiniteSpace, table: Mapping) -> tuple[tuple[int, ...], ...]:
    """The gen table as generator rows, each point's pair list read once.

    Point z's pairs go through the space's own index into one full-space
    working list, at the positions of min_open(z), as ``_require_saturated``
    lays a generator out. A pair costs a list test, two index lookups and a
    test that both ends lie in min_open(z). The first pair that fails them
    stops the read, and :func:`_pair_fault` raises the list's error. Then
    z's rows must be reflexive and transitive (InvalidPreorder). The errors
    and their order are ``Preorder.build``'s on the open, point by point: a
    malformed pair anywhere in the list (FormatError), then the list's
    first pair with an end outside the open (UnknownPoint), then a
    reflexive and then a transitive fault."""
    index = space._index
    for key in table:
        if key not in index:
            raise FormatError(f"gen table keys unknown point {key!r}")
    n = space.n
    bits = [1 << k for k in range(n)]
    rows = [0] * n
    # star[k] == z while position k lies in min_open(z); position n stands
    # for a name the index misses, which lies in no minimal open
    star = [-1] * (n + 1)
    family = []
    for z, (x, where) in enumerate(zip(space.points, space.min_open_positions)):
        pairs = table.get(x)
        if not isinstance(pairs, list):
            if x not in table:
                raise FormatError(f"gen table misses {x!r}")
            _pair_fault(space, where, pairs)
        for a in where:
            rows[a] = 0
            star[a] = z
        for pair in pairs:
            if not isinstance(pair, list) or len(pair) != 2:
                _pair_fault(space, where, pairs)
            try:
                i = index.get(pair[0], n)
                j = index.get(pair[1], n)
            except TypeError:  # a name that cannot be hashed
                _pair_fault(space, where, pairs)
            if star[i] != z or star[j] != z:
                _pair_fault(space, where, pairs)
            rows[i] |= bits[j]
        # a reflexive fault anywhere in the star comes first
        gen = []
        transitive = True
        for a in where:
            row = rows[a]
            if not row & bits[a]:
                raise InvalidPreorder("relation is not reflexive")
            rest = row ^ bits[a]
            if rest:
                outside = ~row
                while rest:
                    low = rest & -rest
                    if rows[low.bit_length() - 1] & outside:
                        transitive = False
                    rest ^= low
            gen.append(row)
        if not transitive:
            raise InvalidPreorder("relation is not transitive")
        family.append(tuple(gen))
    return tuple(family)


def _pair_fault(space: FiniteSpace, where: tuple[int, ...], pairs) -> NoReturn:
    """Raise the error of a pair list that failed the reader's test on the
    minimal open at ``where``: :func:`_parse_preorder` on the open's points
    names it, since every list that fails the test has a pair that its
    shape test or ``relations._checked_rows`` refuses."""
    _parse_preorder([space.points[a] for a in where], pairs)
    raise AssertionError("the pair-table check accepted a pair list the reader refused")


def parse_stream(obj: Mapping, strict: bool = True) -> Stream:
    """A stream file. Strict parsing applies the ``Circulation`` constructor's
    saturation test to the gen table's rows (``InvalidPreorder`` when it is
    not saturated); lax parsing saturates them."""
    space = parse_space(obj)
    rows = _parse_gen_table(space, _require(obj, "gen", dict))
    if strict:
        _require_saturated(space, rows)
        return Stream(space, Circulation._by_construction(space, rows))
    return Stream(space, _saturate(space, rows))


def parse_precirculation(obj: Mapping) -> StoredPrecirculation:
    space = parse_space(obj)
    stored = {}
    for entry in _require(obj, "assign", list):
        members = frozenset(_point_names(_require(entry, "open"), "field 'open'"))
        if members in stored:
            raise FormatError(f"open {sorted(members)!r} is listed twice")
        stored[members] = _parse_preorder(members, _require(entry, "pairs", list))
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
        text = stream_to_json(value)
    elif isinstance(value, FiniteSpace):
        text = canonical_dumps(serialize_space(value))
    elif isinstance(value, Precirculation) and not isinstance(value, Circulation):
        text = canonical_dumps(serialize_precirculation(value))
    else:
        raise FormatError(f"cannot serialize {type(value).__name__}")
    _write_text(text, path)


def _write_text(text: str, path: str | None) -> None:
    """Write ``text`` as UTF-8 bytes to the file ``path``, or to stdout when
    ``path`` is None; the bytes are written as they are, so newlines are
    ``\\n`` on every platform.

    The text is encoded before any file is opened: text UTF-8 cannot carry
    (a lone surrogate in a point name) is a FormatError, and no file is
    created or truncated. Stdout gets the bytes on its binary buffer
    whatever its own encoding, so a point named in any script reaches an
    ASCII terminal too; a stdout without a buffer (an ``io.StringIO`` a
    caller set) is written as text."""
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise FormatError(f"cannot write {exc.object[exc.start:exc.end]!r} as UTF-8: {exc.reason}")
    if path is None:
        buffer = getattr(sys.stdout, "buffer", None)
        if buffer is None:
            sys.stdout.write(text)
        else:
            sys.stdout.flush()
            buffer.write(data)
        return
    with open(path, "wb", buffering=0) as handle:
        done = handle.write(data)
        while done < len(data):  # an unbuffered write may stop short
            done += handle.write(data[done:])


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


def _dot_id(name: str) -> str:
    """A point name as a quoted DOT string: backslash and quote escaped."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def stream_to_dot(s: Stream) -> str:
    """Specialization order solid, each star's order colored per star."""
    mos = s.space.min_open_rows
    ids = [_dot_id(p) for p in s.space.points]
    lines = ["digraph stream {"]
    lines.extend(f"  {node};" for node in ids)
    for p, mo in enumerate(mos):
        for q in iter_bits(mo & ~(1 << p)):
            lines.append(f"  {ids[p]} -> {ids[q]} [style=solid color=black];")
    for z in range(s.space.n):
        color = _PALETTE[z % len(_PALETTE)]
        for a, row in s.circ.gen_items(z):
            for b in iter_bits(row & ~(1 << a)):
                lines.append(
                    f"  {ids[a]} -> {ids[b]} [color={color} label={ids[z]} fontcolor={color}];"
                )
    lines.append("}")
    return "\n".join(lines) + "\n"
