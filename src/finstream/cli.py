"""Command-line front end: build, check, query, combine, export.

Exit codes: 0 success, 1 a requested check failed, 2 input or validation
error. Reports are single JSON documents on stdout.

A command line has two readers. A call on a named command is read straight
from the ``COMMANDS`` table when every token after the name is an exact long
option, its value or a positional and the line is well formed
(``_plain_args``); no argparse parser is built and argparse is not imported.
Every other call (help, an abbreviation, ``--``, a value starting with
``-``, a usage error, a missing or unknown command) goes to the root
argparse parser with all five subparsers (``make_parser``), whose help
text, usage errors, exit codes and parsed arguments are the reference. No
parser is cached."""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace
from typing import Sequence

from . import models
from .category import (
    DiagramArrow,
    StreamDiagram,
    colimit,
    final_structure,
    initial_structure,
    limit,
    product_stream,
    quotient_stream,
    substream,
)
from .circulation import (
    Precirculation,
    Stream,
    _generator_chain,
    is_circulation,
    join_circulations,
)
from .errors import FormatError, StreamError
from .formats import (
    _parse_preorder,
    _point_map,
    _point_names,
    _read_object,
    _require,
    _write_text,
    canonical_dumps,
    load,
    parse_space,
    parse_stream,
    stream_to_dot,
    stream_to_json,
)
from .spaces import FiniteSpace, require_open_mask


def _int_arg(args: dict, key: str) -> int:
    """A builder's integer argument, a JSON integer (not a boolean); the
    model checks its range."""
    if key not in args:
        raise FormatError(f"builder needs argument {key!r}")
    value = args[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise FormatError(f"builder argument {key!r} must be an integer")
    return value


def _str_arg(args: dict, key: str, default: str) -> str:
    """A builder's point-name argument."""
    value = args.get(key, default)
    if not isinstance(value, str):
        raise FormatError(f"builder argument {key!r} must be a point name")
    return value


BUILDERS = {
    "directed_interval": lambda args: models.directed_interval(_int_arg(args, "n")),
    "directed_circle": lambda args: models.directed_circle(_int_arg(args, "n")),
    "directed_square": lambda args: models.directed_square(
        _int_arg(args, "n"), _int_arg(args, "m")
    ),
    "boundary_square": lambda args: models.boundary_square(_int_arg(args, "n")),
    "point": lambda args: models.point_stream(_str_arg(args, "name", "pt")),
    "empty": lambda args: models.empty_stream(),
}


def _load_stream(path: str) -> Stream:
    value = load(path)
    if not isinstance(value, Stream):
        raise FormatError(f"{path}: expected a stream file")
    return value


def _build_from_spec(obj: dict) -> Stream:
    if "builder" in obj:
        name = _require(obj, "builder", str)
        if name not in BUILDERS:
            raise FormatError(f"unknown builder {name!r}")
        args = obj.get("args", {})
        if not isinstance(args, dict):
            raise FormatError("builder 'args' must be an object")
        return BUILDERS[name](args)
    if "atlas" in obj:
        atlas = _require(obj, "atlas", dict)
        space = parse_space(_require(atlas, "space", dict))
        raw_charts = atlas.get("charts", [])
        if not isinstance(raw_charts, list):
            raise FormatError("atlas 'charts' must be a list")
        charts = []
        for chart in raw_charts:
            members = _point_names(_require(chart, "points"), "chart 'points'")
            charts.append((members, _parse_preorder(members, _require(chart, "order", list))))
        return models.stream_from_atlas(space, charts)
    if "gen" in obj:
        return parse_stream(obj, strict=False)
    raise FormatError("spec needs a 'builder', 'atlas', or explicit 'gen' block")


def cmd_build(args) -> int:
    stream = _build_from_spec(_read_object(args.input))
    _write_text(stream_to_json(stream), args.output)
    return 0


def _circulation_check(pc, mode: str) -> dict:
    result = is_circulation(pc, mode=mode)
    return {
        "check": "circulation",
        "ok": result.ok,
        "witness": None
        if result.witness is None
        else {
            "collection": [list(o) for o in result.witness.collection],
            "pair": [result.witness.x, result.witness.y],
        },
    }


def _check_stream(stream: Stream, which: str, mode: str) -> list[dict]:
    checks = []
    if which in ("all", "circulation"):
        checks.append(_circulation_check(stream.circ, mode))
    if which in ("all", "intervals"):
        # every stream passes: check_connected_intervals gives the proof
        # and is the scan
        checks.append({"check": "intervals", "ok": True, "witness": None})
    if which in ("all", "antisymmetry"):
        anti = stream.circ.underlying_is_antisymmetric()
        checks.append({"check": "antisymmetry", "ok": anti, "witness": None})
    return checks


def cmd_check(args) -> int:
    value = load(args.input)
    if isinstance(value, Stream):
        checks = _check_stream(value, args.which, args.mode)
    else:
        if not isinstance(value, Precirculation):
            raise FormatError(f"{args.input}: expected a stream or precirculation")
        if args.which not in ("all", "circulation"):
            raise FormatError("precirculation files only support the circulation check")
        checks = [_circulation_check(value, args.mode)]
    ok = all(c["ok"] for c in checks)
    # a path that is not UTF-8 names its stray bytes as \xNN escapes
    name = os.fsencode(args.input).decode("utf-8", "backslashreplace")
    report = {"input": name, "ok": ok, "checks": checks}
    _write_text(canonical_dumps(report), args.output)
    return 0 if ok else 1


def cmd_query(args) -> int:
    stream = _load_stream(args.input)
    space = stream.space
    if args.open == "global":
        members = sorted(space.points)
    elif args.open.startswith("["):
        # a JSON list names any point, "(a,b)" and "global" included
        members = _point_names(_parse_json_arg(args.open, "--open"), "--open")
    else:
        members = [p for p in args.open.split(",") if p]
    ix, iy = space.index(args.x), space.index(args.y)  # UnknownPoint on junk names
    mask = require_open_mask(space, space.mask_of(members))
    # the shortest generator chain decides the pair and is the witness
    chain = _generator_chain(stream, mask, ix, iy) if mask >> ix & 1 and mask >> iy & 1 else None
    related = chain is not None
    report: dict = {
        "open": sorted(set(members)),
        "x": args.x,
        "y": args.y,
        "related": related,
    }
    if related and args.witness:
        report["witness"] = [
            {"from": a, "via_star_of": z, "to": b} for a, z, b in chain[:100]
        ]
        if len(chain) > 100:
            report["witness_truncated"] = True
    _write_text(canonical_dumps(report), args.output)
    return 0 if related else 1


def _parse_json_arg(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad {what}: {exc.msg}")
    except RecursionError:
        raise FormatError(f"bad {what}: nested too deeply")


def _load_diagram(path: str) -> StreamDiagram:
    obj = _read_object(path)
    raw_objects = obj.get("objects", {})
    raw_arrows = obj.get("arrows", {})
    if not isinstance(raw_objects, dict) or not isinstance(raw_arrows, dict):
        raise FormatError("diagram 'objects' and 'arrows' must be objects")
    objects = {key: parse_stream(value, strict=False) for key, value in raw_objects.items()}
    arrows = {}
    for name, a in raw_arrows.items():
        if not isinstance(a, dict):
            raise FormatError(f"arrow {name!r} must be an object")
        arrows[name] = DiagramArrow(
            _require(a, "source", str),
            _require(a, "target", str),
            _point_map(_require(a, "map"), f"arrow {name!r} 'map'"),
        )
    return StreamDiagram(objects, arrows)


def _load_space(path: str) -> FiniteSpace:
    value = load(path)
    if isinstance(value, Stream):
        return value.space
    if isinstance(value, FiniteSpace):
        return value
    raise FormatError(f"{path}: expected a space or stream file")


def _quotient(args, inputs: list[Stream]) -> Stream:
    partition = _parse_json_arg(args.partition, "--partition")
    if not isinstance(partition, list):
        raise FormatError("--partition must be a list of classes")
    for cls in partition:
        _point_names(cls, "a --partition class")
    return quotient_stream(inputs[0], partition)[0]


def _substream(args, inputs: list[Stream]) -> Stream:
    points = _point_names(_parse_json_arg(args.points, "--points"), "--points")
    return substream(inputs[0], points)[0]


def _join(args, inputs: list[Stream]) -> Stream:
    return Stream(inputs[0].space, join_circulations([s.circ for s in inputs]))


def _space_and_map(args) -> tuple[FiniteSpace, dict[str, str]]:
    """The --space file and the --map along which a stream is moved."""
    return _load_space(args.space), _point_map(_parse_json_arg(args.map, "--map"), "--map")


def _pushforward(args, inputs: list[Stream]) -> Stream:
    target, mapping = _space_and_map(args)
    return final_structure(target, [(inputs[0], mapping)])[0]


def _pullback(args, inputs: list[Stream]) -> Stream:
    source, mapping = _space_and_map(args)
    return initial_structure(source, [(mapping, inputs[0])])[0]


# Each combine operation: the number of --input files it reads (None: one
# or more), the options it needs and its builder, called with the arguments
# and the loaded inputs.
COMBINE = {
    "product": (2, (), lambda args, inputs: product_stream(*inputs)[0]),
    "quotient": (1, ("partition",), _quotient),
    "substream": (1, ("points",), _substream),
    "join": (None, (), _join),
    "pushforward": (1, ("space", "map"), _pushforward),
    "pullback-cosheafify": (1, ("space", "map"), _pullback),
    "limit": (0, ("diagram",), lambda args, inputs: limit(_load_diagram(args.diagram))[0]),
    "colimit": (0, ("diagram",), lambda args, inputs: colimit(_load_diagram(args.diagram))[0]),
}


def cmd_combine(args) -> int:
    """Extra or missing --input files are an error, never silently ignored,
    and so is a missing option the operation needs, once the inputs load."""
    count, needs, builder = COMBINE[args.operation]
    if count is None and not args.input:
        raise FormatError(f"{args.operation} needs at least 1 --input file")
    if count is not None and len(args.input) != count:
        raise FormatError(
            f"{args.operation} takes {count} --input file(s), got {len(args.input)}"
        )
    inputs = [_load_stream(p) for p in args.input]
    if any(getattr(args, option) is None for option in needs):
        raise FormatError(
            f"{args.operation} needs " + " and ".join(f"--{option}" for option in needs)
        )
    stream = builder(args, inputs)
    _write_text(stream_to_json(stream), args.output)
    return 0


def cmd_export(args) -> int:
    stream = _load_stream(args.input)
    if args.fmt == "json":
        _write_text(stream_to_json(stream), args.output)
    else:
        _write_text(stream_to_dot(stream), args.output)
    return 0


# The --input and --output of every command but combine, whose --input
# repeats.
_INPUT = (("--input",), {"required": True, "help": "input file"})
_OUTPUT = (("--output",), {"default": None, "help": "output file (default stdout)"})

# Each command: its help line, its arguments as (flags, options) pairs for
# ``add_argument``, in help order, and its handler.
COMMANDS = {
    "build": ("build a stream from a spec file", (_INPUT, _OUTPUT), cmd_build),
    "check": (
        "run checks on a stream file",
        (
            _INPUT,
            _OUTPUT,
            (
                ("--which",),
                {"choices": ("all", "circulation", "intervals", "antisymmetry"), "default": "all"},
            ),
            (("--mode",), {"choices": ("fast", "exhaustive"), "default": "fast"}),
        ),
        cmd_check,
    ),
    "query": (
        "query one open's order",
        (
            _INPUT,
            _OUTPUT,
            (
                ("--open",),
                {"required": True, "help": '"global", a JSON list of points or comma-joined points'},
            ),
            (("--witness",), {"action": "store_true", "help": "include a witness chain"}),
            (("x",), {}),
            (("y",), {}),
        ),
        cmd_query,
    ),
    "combine": (
        "combine stream files",
        (
            (("operation",), {"choices": tuple(COMBINE)}),
            (("--input",), {"action": "append", "default": [], "help": "input stream file"}),
            (("--output",), {"default": None}),
            (("--partition",), {"help": "JSON list of classes"}),
            (("--points",), {"help": "JSON list of points"}),
            (("--map",), {"help": "JSON object mapping points to points"}),
            (("--space",), {"help": "space or stream file for map endpoints"}),
            (("--diagram",), {"help": "diagram file for limit/colimit"}),
        ),
        cmd_combine,
    ),
    "export": (
        "export a stream file",
        (_INPUT, _OUTPUT, (("--fmt",), {"choices": ("json", "dot"), "default": "json"})),
        cmd_export,
    ),
}


def _plain_args(name: str, argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace ``make_parser().parse_args([name, *argv])`` gives, read
    straight from the ``COMMANDS`` entry of ``name``, or None when the root
    parser has to read the call.

    Every token must be an exact long option with its value next or after
    ``=``, a ``store_true`` flag or a positional. No value may start with
    ``-``, every choice must be valid, every required option given and the
    positional count exact. So help, abbreviations, ``--`` and usage errors
    are left to the root parser. A repeated option keeps its last value, and
    an ``append`` option gets a fresh list, as with argparse."""
    _, arguments, handler = COMMANDS[name]
    values: dict = {"command": name, "fn": handler}
    options, positionals, required = {}, [], set()
    for (flag,), spec in arguments:
        if not flag.startswith("-"):
            positionals.append((flag, spec.get("choices")))
            continue
        dest = flag[2:].replace("-", "_")
        options[flag] = dest, spec
        action = spec.get("action")
        if action == "store_true":
            values[dest] = False
        elif action == "append":
            values[dest] = list(spec.get("default", ()))
        else:
            values[dest] = spec.get("default")
        if spec.get("required"):
            required.add(dest)
    words = []
    tokens = iter(argv)
    for token in tokens:
        if not token.startswith("-"):
            words.append(token)
            continue
        flag, eq, value = token.partition("=")
        if flag not in options:
            return None
        dest, spec = options[flag]
        action = spec.get("action")
        if action == "store_true":
            if eq:
                return None
            values[dest] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None:
                return None
        choices = spec.get("choices")
        if value.startswith("-") or choices is not None and value not in choices:
            return None
        if action == "append":
            values[dest].append(value)
        else:
            values[dest] = value
        required.discard(dest)
    if required or len(words) != len(positionals):
        return None
    for (dest, choices), word in zip(positionals, words):
        if choices is not None and word not in choices:
            return None
        values[dest] = word
    return SimpleNamespace(**values)


def make_parser():
    """The root argparse parser with every command's subparser, which reads
    each call ``_plain_args`` declines. argparse is imported here, so a call
    the plain reader reads never imports it. A usage error (an unknown
    option, a missing argument, a bad choice) is malformed input like any
    other: one ``error:`` line, exit 2. Subparsers are built from the same
    class."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message: str):
            self.exit(2, f"error: {message}\n")

    parser = Parser(prog="finstream", description="Build, combine, and verify finite streams.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, arguments, handler) in COMMANDS.items():
        command = sub.add_parser(name, help=help_line)
        for flags, options in arguments:
            command.add_argument(*flags, **options)
        command.set_defaults(command=name, fn=handler)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv[0], argv[1:]) if argv and argv[0] in COMMANDS else None
    if args is None:
        args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (StreamError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
