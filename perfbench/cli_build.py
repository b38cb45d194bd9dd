"""cli_build: the CLI user's write path, driven through ``finstream.cli.main``.

Every operation is one CLI invocation in-process, on files in a work
directory inside the checkout. Each starts from a cold library state, as a
fresh process would: the library's ``lru_cache``s are cleared before it,
outside the timed region. The round mix is fixed; the seed picks the order
and, where an operation has variants (query points, partitions, subsets,
malformed inputs), which variants run, drawn as evenly as the count allows.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
from pathlib import Path

from finstream import cli, corpus, formats, models, spaces

from common import Op, clear_library_caches, count_opens, digest, draw_round, endpoint_projection

NAME = "cli_build"

MODELS = {
    **{f"I{n}": ("directed_interval", {"n": n}) for n in (1, 2, 3, 4, 6, 8, 16, 32)},
    **{f"C{n}": ("directed_circle", {"n": n}) for n in (2, 3, 4, 6, 8, 12)},
    **{
        f"S{n}{m}": ("directed_square", {"n": n, "m": m})
        for n, m in ((1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 4), (6, 6))
    },
    **{f"B{n}": ("boundary_square", {"n": n}) for n in (1, 2, 3, 5)},
}

# How often each operation runs per round: small models often, large ones
# rarely. Five operations on directed_square(6,6) per round (one build, two
# exports, two queries, all about as costly) straddle the p99 rank, so the
# p99 is the middle of that group rather than the edge between two kinds.
BUILD_COUNTS = {
    "I1": 7, "I2": 7, "I3": 7, "I4": 7, "I6": 7, "I8": 7, "I16": 3, "I32": 1,
    "C2": 6, "C3": 6, "C4": 6, "C6": 6, "C8": 3, "C12": 1,
    "S11": 6, "S21": 6, "S22": 5, "S32": 2, "S33": 1, "S44": 1, "S66": 1,
    "B1": 5, "B2": 3, "B3": 1, "B5": 1,
}
EXPORT_COUNTS = {
    "I2": 5, "I3": 5, "I4": 5, "I8": 5, "C3": 3, "C4": 3, "C8": 3,
    "S11": 4, "S22": 4, "S33": 2, "S44": 1, "B2": 3, "B5": 1, "S66": 2,
}
INTERVALS_COUNTS = {"I2": 4, "I4": 4, "I8": 3, "C4": 2, "C8": 2, "S11": 3, "S22": 3, "B2": 2, "S33": 1, "B5": 1}
ANTISYMMETRY_COUNTS = {"I2": 4, "I4": 4, "I8": 3, "C4": 2, "C8": 2, "S22": 3, "B2": 2, "S44": 1}
QUERY_COUNTS = {"I8": 6, "C8": 6, "S22": 4, "S33": 4, "B5": 4, "S66": 2}
QUOTIENT_COUNTS = {"I4": 5, "I8": 3, "C4": 5, "C8": 3, "S22": 3}
SUBSTREAM_COUNTS = {"S22": 4, "S33": 3, "B2": 3, "C8": 3, "S44": 1}
JOIN_COUNTS = {"I4": 3, "C4": 3, "S22": 2}
PRODUCT_PAIRS = {("I1", "I1"): 5, ("I1", "I2"): 2, ("I2", "C2"): 2, ("I2", "I2"): 2, ("I3", "C3"): 1}
PULLBACK_COUNTS = {"C2": 2, "C3": 2, "C4": 2, "C8": 1, "S11": 2, "S22": 2}
CHAIN_COUNTS = {2: 4, 3: 2, 4: 2, 5: 1}
PROJECTION_COUNTS = {2: 2, 3: 1}
MALFORMED_COUNT = 5  # per malformed kind and round
VARIANTS = 8  # seeded variants per input for queries, partitions, subsets


def _cli_call(argv):
    def call():
        with contextlib.redirect_stderr(io.StringIO()):
            try:
                return cli.main(argv)
            except SystemExit as exc:  # argparse rejects argv this way
                return exc.code

    return call


def _upset(space, rng, k):
    mask = 0
    for p in rng.sample(space.points, min(k, space.n)):
        mask |= space.min_open_rows[space.index(p)]
    return sorted(space.set_of(mask))


class Workload:
    name = NAME

    def __init__(self, root: Path, seed: int, golden: dict | None):
        self.work = root / ".perfbench" / NAME
        self.seed = seed
        self.golden = golden or {}
        self.files: dict[str, object] = {}
        self.models: dict[str, object] = {}
        self.slots: list = []

    # -- set-up ---------------------------------------------------------

    def setup(self) -> None:
        """Draw the operation catalogue and write every input file: build
        specs, model streams, spaces, diagrams and malformed inputs."""
        self.files, self.models = {}, {}
        self.slots = self._catalog()
        shutil.rmtree(self.work, ignore_errors=True)
        for sub in ("spec", "in", "bad"):
            (self.work / sub).mkdir(parents=True)
        for rel, content in self.files.items():
            path = self.work / rel
            if not isinstance(content, str):
                content = formats.canonical_dumps(content)
            path.write_text(content, encoding="utf-8")

    def teardown(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def _file(self, rel, content):
        self.files[rel] = content
        return rel

    def _model(self, name):
        if name not in self.models:
            builder, args = MODELS[name]
            self.models[name] = getattr(models, builder)(**args)
        return self.models[name]

    def _stream_file(self, name):
        rel = f"in/{name}.json"
        if rel not in self.files:
            self.files[rel] = formats.serialize_stream(self._model(name))
        return rel

    # -- the operation catalogue (fixed; independent of the seed) ----------

    def _catalog(self):
        """Slots of (count per round, variants); variants of a slot cost
        about the same, so the seed changes inputs but not the mix."""
        rng = random.Random(20240601)
        slots = []

        def slot(count, variants):
            slots.append((count, variants))

        def op(kind, key, argv, malformed=False):
            return (kind, key, argv, malformed)

        out = ["--output", "out.json"]
        for name, count in BUILD_COUNTS.items():
            builder, args = MODELS[name]
            rel = self._file(f"spec/{name}.json", {"builder": builder, "args": args})
            slot(count, [op("build", f"build:{name}", ["build", "--input", rel, *out])])
        gens = []
        for k in range(VARIANTS):
            space = corpus.random_space(rng, rng.randint(4, 6))
            stream = corpus.random_stream(rng, space)
            body = formats.serialize_stream(stream)
            del body["format"]
            rel = self._file(f"spec/gen{k}.json", body)
            gens.append(op("build", f"build:gen{k}", ["build", "--input", rel, *out]))
        slot(10, gens)
        for name, count in EXPORT_COUNTS.items():
            rel = self._stream_file(name)
            slot(count, [
                op("export", f"export:{name}:{fmt}", ["export", "--input", rel, "--fmt", fmt, *out])
                for fmt in ("json", "dot")
            ])
        for which, counts in (("intervals", INTERVALS_COUNTS), ("antisymmetry", ANTISYMMETRY_COUNTS)):
            for name, count in counts.items():
                rel = self._stream_file(name)
                argv = ["check", "--input", rel, "--which", which, *out]
                slot(count, [op(f"check_{which}", f"check:{which}:{name}", argv)])
        for name, count in QUERY_COUNTS.items():
            rel = self._stream_file(name)
            space = self._model(name).space
            variants = []
            # Product points are named "(a,b)", which the comma-joined --open
            # argument cannot carry, so squares are queried on the whole space.
            named_pairs = name.startswith(("S", "B"))
            for k in range(VARIANTS):
                whole = k == 0 or named_pairs
                members = list(space.points) if whole else _upset(space, rng, rng.randint(1, 3))
                x, y = rng.choice(members), rng.choice(members)
                where = "global" if whole else ",".join(members)
                argv = ["query", "--input", rel, "--open", where, "--witness", x, y, *out]
                variants.append(op("query", f"query:{name}:{k}", argv))
            slot(count, variants)
        for name, count in QUOTIENT_COUNTS.items():
            rel = self._stream_file(name)
            points = list(self._model(name).space.points)
            variants = []
            for k in range(VARIANTS):
                if k == 0 and name.startswith("I"):
                    partition = models.interval_endpoint_partition(int(name[1:]))
                else:
                    partition = corpus.random_partition(rng, rng.sample(points, len(points)))
                argv = ["combine", "quotient", "--input", rel, "--partition", json.dumps(partition), *out]
                variants.append(op("combine_quotient", f"quotient:{name}:{k}", argv))
            slot(count, variants)
        for name, count in SUBSTREAM_COUNTS.items():
            rel = self._stream_file(name)
            points = list(self._model(name).space.points)
            variants = []
            for k in range(VARIANTS):
                chosen = sorted(p for p in points if rng.random() < 0.6) or points[:1]
                argv = ["combine", "substream", "--input", rel, "--points", json.dumps(chosen), *out]
                variants.append(op("combine_substream", f"substream:{name}:{k}", argv))
            slot(count, variants)
        for name, count in JOIN_COUNTS.items():
            rel = self._stream_file(name)
            space = self._model(name).space
            variants = []
            for k in range(VARIANTS):
                other = self._file(
                    f"in/{name}_random{k}.json",
                    formats.serialize_stream(corpus.random_stream(rng, space)),
                )
                argv = ["combine", "join", "--input", rel, "--input", other, *out]
                variants.append(op("combine_join", f"join:{name}:{k}", argv))
            slot(count, variants)
        for (left, right), count in PRODUCT_PAIRS.items():
            argv = ["combine", "product", "--input", self._stream_file(left),
                    "--input", self._stream_file(right), *out]
            slot(count, [op("combine_product", f"product:{left}:{right}", argv)])
        for name, count in PULLBACK_COUNTS.items():
            rel = self._stream_file(name)
            variants = []
            if name.startswith("C"):
                n = int(name[1:])
                space_rel = self._stream_file(f"I{n}")
                argv = ["combine", "pullback-cosheafify", "--input", rel, "--space", space_rel,
                        "--map", json.dumps(endpoint_projection(n)), *out]
                variants.append(op("combine_pullback", f"pullback:{name}:proj", argv))
            else:
                host = self._model(name).space
                for k in range(VARIANTS):
                    chosen = rng.sample(host.points, rng.randint(2, min(5, host.n)))
                    sub = spaces.subspace(host, chosen)
                    space_rel = self._file(f"in/{name}_sub{k}.json", formats.serialize_space(sub))
                    mapping = {p: p for p in sub.points}
                    argv = ["combine", "pullback-cosheafify", "--input", rel, "--space", space_rel,
                            "--map", json.dumps(mapping), *out]
                    variants.append(op("combine_pullback", f"pullback:{name}:{k}", argv))
            slot(count, variants)
        diagrams = {}
        for k in CHAIN_COUNTS:
            link = {p: p for p in models.directed_interval(3).space.points}
            diagrams[f"chain{k}"] = {
                "objects": {f"o{i}": formats.serialize_stream(models.directed_interval(3)) for i in range(k)},
                "arrows": {
                    f"a{i}": {"source": f"o{i}", "target": f"o{i + 1}", "map": link} for i in range(k - 1)
                },
            }
        for n in PROJECTION_COUNTS:
            diagrams[f"proj{n}"] = {
                "objects": {
                    "a": formats.serialize_stream(models.directed_interval(n)),
                    "b": formats.serialize_stream(models.directed_circle(n)),
                },
                "arrows": {"p": {"source": "a", "target": "b", "map": endpoint_projection(n)}},
            }
        counts = {f"chain{k}": c for k, c in CHAIN_COUNTS.items()}
        counts.update({f"proj{n}": c for n, c in PROJECTION_COUNTS.items()})
        for name, build in diagrams.items():
            rel = self._file(f"in/{name}.diagram.json", build)
            for which in ("limit", "colimit"):
                argv = ["combine", which, "--diagram", rel, *out]
                slot(counts[name], [op(f"combine_{which}", f"{which}:{name}", argv)])
        self._malformed(slot, op, out)
        return slots

    def _malformed(self, slot, op, out):
        """Inputs the CLI contract says must exit 2: a missing or bad builder
        argument, malformed diagram JSON, a diagram arrow missing a field."""
        missing = [
            ("directed_interval", {}), ("directed_circle", {}),
            ("directed_square", {"n": 2}), ("boundary_square", {"m": 2}),
        ]
        bad = [
            ("directed_interval", {"n": "x"}), ("directed_interval", {"n": 0}),
            ("directed_circle", {"n": 1}), ("directed_square", {"n": "two", "m": 1}),
        ]
        for kind, cases in (("missing_arg", missing), ("bad_arg", bad)):
            variants = []
            for k, (builder, args) in enumerate(cases):
                rel = self._file(f"bad/{kind}{k}.json", {"builder": builder, "args": args})
                variants.append(op("malformed", f"bad:{kind}{k}", ["build", "--input", rel, *out], malformed=True))
            slot(MALFORMED_COUNT, variants)
        good = {
            "objects": {"a": formats.serialize_stream(models.directed_interval(1))},
            "arrows": {"a1": {"source": "a", "target": "a", "map": {"e1": "e1", "v0": "v0", "v1": "v1"}}},
        }
        text = json.dumps(good)
        variants = []
        for k, cut in enumerate((1, len(text) // 3, len(text) // 2, len(text) - 1)):
            rel = self._file(f"bad/diagram_json{k}.json", text[:cut])
            variants.append(op("malformed", f"bad:diagram_json{k}", ["combine", "limit", "--diagram", rel, *out], malformed=True))
        slot(MALFORMED_COUNT, variants)
        variants = []
        for k, field in enumerate(("source", "target", "map")):
            broken = json.loads(text)
            del broken["arrows"]["a1"][field]
            rel = self._file(f"bad/diagram_field{k}.json", broken)
            variants.append(op("malformed", f"bad:diagram_field{k}", ["combine", "colimit", "--diagram", rel, *out], malformed=True))
        slot(MALFORMED_COUNT, variants)

    # -- operations -----------------------------------------------------

    def _op(self, spec) -> Op:
        kind, key, argv, malformed = spec
        out = self.work / "out.json"

        def prepare():
            clear_library_caches()
            if out.exists():
                out.unlink()
            return _cli_call(argv)

        def answer(rc):
            body = digest(out.read_bytes()) if out.exists() else "-"
            return f"{rc}:{body}"

        entry = self.golden.get(key, {})
        return Op(kind, key, prepare, answer, entry.get("answer"),
                  entry.get("points"), entry.get("opens"), malformed)

    def round_ops(self, index: int) -> list[Op]:
        rng = random.Random(f"{NAME}:{self.seed}:{index}")
        return [self._op(spec) for spec in draw_round(self.slots, rng)]

    @contextlib.contextmanager
    def running(self):
        """CLI paths are relative to the work directory, so reports that
        echo an input path are the same in every checkout."""
        before = os.getcwd()
        os.chdir(self.work)
        try:
            yield
        finally:
            os.chdir(before)

    # -- golden answers -------------------------------------------------

    def make_golden(self) -> dict:
        golden = {}
        with self.running():
            for _, variants in self.slots:
                for spec in variants:
                    kind, key, argv, malformed = spec
                    if malformed or key in golden:
                        continue
                    op = self._op(spec)
                    rc = op.prepare()()
                    entry = {"answer": op.answer(rc)}
                    produced = self.work / "out.json"
                    path = produced if kind.startswith(("build", "combine")) else self.work / argv[2]
                    if path.exists():
                        space = formats.load(str(path)).space
                        entry["points"] = space.n
                        entry["opens"] = count_opens(space)
                    golden[key] = entry
        return golden
