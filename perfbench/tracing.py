"""Spans around calls into each finstream layer, installed from outside.

The library is not edited: the tracer replaces each layer's public functions
(and a few named methods and helpers) with timing wrappers at every import
site, i.e. in every ``finstream`` module and benchmark module that binds the
function. A span records name, start, end, parent span and operation id.
Spans are kept in memory (up to ``SPAN_CAP``) and written out at the end;
per-name calls and self time (duration minus the time covered by child
spans) are accumulated exactly for every call, capped or not.

Code a wrapped function reaches without passing another wrapper (closures,
small helpers such as ``Relation.has``) counts as that function's self time.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import os
import sys
import time
from array import array

LAYERS = {
    "kernels": "finstream._kernels",
    "relations": "finstream.relations",
    "spaces": "finstream.spaces",
    "circulation": "finstream.circulation",
    "category": "finstream.category",
    "models": "finstream.models",
    "formats": "finstream.formats",
    "cli": "finstream.cli",
}

# Called so often that a span would cost more than the work they do, or
# generators, whose span would end before their work starts.
SKIP = {"iter_bits", "tuple_point"}

# Private helpers that are layer boundaries the per-layer metrics name.
PRIVATE = {
    "circulation": ("_embed_rows", "_extract_preorder", "_close_on_mask"),
    "category": ("_product_many",),
}

METHODS = {
    "relations": {
        "Relation": ("build", "restrict", "pairs", "is_reflexive", "is_transitive", "is_antisymmetric"),
        "Preorder": ("build",),
    },
    "circulation": {
        "Precirculation": ("assign_mask",),
        "StoredPrecirculation": ("_compute",),
        "Circulation": ("value_rows", "value_mask"),
    },
}

KERNEL = "kernels.closure_rows"
SPAN_CAP = 500_000

PARSE = ("formats.parse_space", "formats.parse_stream", "formats.parse_precirculation",
         "formats.parse_any", "formats.load")
SERIALIZE = ("formats.canonical_dumps", "formats.serialize_space", "formats.serialize_stream",
             "formats.serialize_precirculation", "formats.dump", "formats.stream_to_dot")


def _targets():
    """Map each function object to trace onto its span name."""
    found = {}
    for layer, modname in LAYERS.items():
        mod = importlib.import_module(modname)
        if layer == "kernels":
            found[mod.closure_rows] = KERNEL
            continue
        for attr, obj in vars(mod).items():
            if attr in SKIP or (attr.startswith("_") and attr not in PRIVATE.get(layer, ())):
                continue
            if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                continue
            if getattr(obj, "__module__", None) == modname:
                found[obj] = f"{layer}.{attr}"
    return found


class Tracer:
    def __init__(self, site_modules):
        self.site_modules = site_modules
        self.active = False
        self.op = -1
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_time: list[float] = []
        self.stack: list[list] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.dropped = 0
        self.counters = dict.fromkeys(
            ("width", "row_ops", "circ_kernel", "full_width", "vr_hits", "vr_misses",
             "opens_enumerated", "opens_hits", "opens_misses", "limit_candidates", "limit_points", "bytes", "exit2"), 0)
        self.width_ctx: list[int] = []
        self.t0 = time.perf_counter()
        self._id(KERNEL)  # id 0: kernel calls are read by other hooks

    def _id(self, name):
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_time.append(0.0)
        return self.ids[name]

    # -- installation ---------------------------------------------------

    def install(self):
        wrappers = {obj: self._wrap(name, obj) for obj, name in _targets().items()}
        prefix = ("finstream",)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname.startswith(prefix) or modname in self.site_modules):
                continue
            for attr, obj in list(vars(mod).items()):
                try:
                    wrapper = wrappers.get(obj)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
        for layer, classes in METHODS.items():
            mod = importlib.import_module(LAYERS[layer])
            for cls_name, methods in classes.items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    name = f"{layer}.{cls_name}.{meth}"
                    if isinstance(raw, classmethod):
                        setattr(cls, meth, classmethod(self._wrap(name, raw.__func__)))
                    else:
                        setattr(cls, meth, self._wrap(name, raw))

    def _hooks(self, name, fn):
        c = self.counters
        if name == KERNEL:
            def after(args, kwargs, result, error, kernels, state):
                n = args[1]
                c["width"] += n
                c["row_ops"] += n * n
                if self.width_ctx:
                    c["circ_kernel"] += 1
                    c["full_width"] += n == self.width_ctx[-1]
            return None, after
        if name == "circulation._close_on_mask":
            def before(args, kwargs):
                self.width_ctx.append(args[0].n)
            def after(args, kwargs, result, error, kernels, state):
                self.width_ctx.pop()
            return before, after
        if name == "circulation.Circulation.value_rows":
            def after(args, kwargs, result, error, kernels, state):
                c["vr_misses" if kernels else "vr_hits"] += 1
            return None, after
        if name == "spaces.all_opens":
            # The benchmark clears this cache between operations, which also
            # resets cache_info(), so hits and misses are read per call.
            def before(args, kwargs):
                return fn.cache_info().misses
            def after(args, kwargs, result, error, kernels, misses):
                if fn.cache_info().misses == misses:
                    c["opens_hits"] += 1
                else:
                    c["opens_misses"] += 1
                    if result is not None:
                        c["opens_enumerated"] += len(result)
                    elif isinstance(error, ValueError):
                        cap = kwargs.get("cap", args[1] if len(args) > 1 else None)
                        c["opens_enumerated"] += (cap or 0) + 1
            return before, after
        if name == "category._product_many":
            def after(args, kwargs, result, error, kernels, state):
                if result is not None:
                    c["limit_candidates"] += result[0].n
            return None, after
        if name == "category.limit":
            def after(args, kwargs, result, error, kernels, state):
                if result is not None:
                    c["limit_points"] += result[0].space.n
            return None, after
        if name in ("formats.canonical_dumps", "formats.stream_to_dot"):
            def after(args, kwargs, result, error, kernels, state):
                if isinstance(result, str):
                    c["bytes"] += len(result.encode("utf-8"))
            return None, after
        if name == "formats.load":
            def before(args, kwargs):
                path = args[0] if args else kwargs.get("path")
                if isinstance(path, str) and os.path.isfile(path):
                    c["bytes"] += os.path.getsize(path)
            return before, None
        if name == "cli.main":
            def after(args, kwargs, result, error, kernels, state):
                code = error.code if isinstance(error, SystemExit) else result
                c["exit2"] += code == 2
            return None, after
        return None, None

    def _wrap(self, name, fn):
        nid = self._id(name)
        before, after = self._hooks(name, fn)
        calls, self_time, stack = self.calls, self.self_time, self.stack
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, ops = self.span_parent, self.span_op
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            state = before(args, kwargs) if before else None
            kernels_before = calls[0]
            if len(names) < SPAN_CAP:
                idx = len(names)
                names.append(nid)
                starts.append(0.0)
                ends.append(0.0)
                parents.append(stack[-1][1] if stack else -1)
                ops.append(tracer.op)
            else:
                idx = -1
                tracer.dropped += 1
            frame = [0.0, idx]
            stack.append(frame)
            t0 = clock()
            try:
                result, error = fn(*args, **kwargs), None
            except BaseException as exc:  # re-raised below, after the span closes
                result, error = None, exc
            t1 = clock()
            stack.pop()
            dur = t1 - t0
            calls[nid] += 1
            self_time[nid] += dur - frame[0]
            if stack:
                stack[-1][0] += dur
            if idx >= 0:
                starts[idx] = t0 - tracer.t0
                ends[idx] = t1 - tracer.t0
            if after:
                after(args, kwargs, result, error, calls[0] - kernels_before, state)
            if error is not None:
                raise error
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def reset(self):
        """Zero the accumulated calls, times and counters; spans are kept."""
        for i in range(len(self.names)):
            self.calls[i] = 0
            self.self_time[i] = 0.0
        for key in self.counters:
            self.counters[key] = 0

    # -- results --------------------------------------------------------

    def _sum(self, table, prefix=None, names=None):
        return sum(
            value for name, value in zip(self.names, table)
            if (names is not None and name in names) or (prefix is not None and name.startswith(prefix))
        )

    def metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics; counts and times are per operation."""
        c = self.counters
        per = max(ops, 1)
        calls = lambda name: self.calls[self.ids[name]] if name in self.ids else 0
        hits, misses = c["opens_hits"], c["opens_misses"]
        kernel_calls = calls(KERNEL)
        value_rows = c["vr_hits"] + c["vr_misses"]
        convert = ("circulation._embed_rows", "circulation._extract_preorder")
        saturate = ("circulation.circulation_from_generators",)
        out = {
            "kernels.calls": (kernel_calls / per, "1/op"),
            "kernels.self_s": (self._sum(self.self_time, "kernels.") / per, "s/op"),
            "kernels.width_mean": (c["width"] / kernel_calls if kernel_calls else 0.0, "points"),
            "kernels.row_ops": (c["row_ops"] / per, "1/op"),
            "kernels.full_width_share": (c["full_width"] / c["circ_kernel"] if c["circ_kernel"] else 0.0, "ratio"),
            "relations.calls": (self._sum(self.calls, "relations.") / per, "1/op"),
            "relations.self_s": (self._sum(self.self_time, "relations.") / per, "s/op"),
            "circulation.convert.calls": (self._sum(self.calls, names=convert) / per, "1/op"),
            "circulation.convert.self_s": (self._sum(self.self_time, names=convert) / per, "s/op"),
            "circulation.value_rows.calls": (value_rows / per, "1/op"),
            "circulation.memo_hit_ratio": (c["vr_hits"] / value_rows if value_rows else 0.0, "ratio"),
            "circulation.memo_entries": (c["vr_misses"] / per, "1/op"),
            "circulation.saturate.calls": (self._sum(self.calls, names=saturate) / per, "1/op"),
            "circulation.saturate.self_s": (self._sum(self.self_time, names=saturate) / per, "s/op"),
            "circulation.is_circulation.self_s": (
                self._sum(self.self_time, names=("circulation.is_circulation",)) / per, "s/op"),
            "circulation.self_s": (self._sum(self.self_time, "circulation.") / per, "s/op"),
            "spaces.all_opens.calls": (calls("spaces.all_opens") / per, "1/op"),
            "spaces.opens_enumerated": (c["opens_enumerated"] / per, "1/op"),
            "spaces.all_opens.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
            "spaces.is_continuous.calls": (calls("spaces.is_continuous") / per, "1/op"),
            "spaces.self_s": (self._sum(self.self_time, "spaces.") / per, "s/op"),
            "category.stream_map_checks": (calls("category.is_stream_map") / per, "1/op"),
            "category.limit.candidates": (c["limit_candidates"] / per, "1/op"),
            "category.limit.useful_ratio": (
                c["limit_points"] / c["limit_candidates"] if c["limit_candidates"] else 0.0, "ratio"),
            "category.self_s": (self._sum(self.self_time, "category.") / per, "s/op"),
            "models.self_s": (self._sum(self.self_time, "models.") / per, "s/op"),
            "formats.parse_s": (self._sum(self.self_time, names=PARSE) / per, "s/op"),
            "formats.serialize_s": (self._sum(self.self_time, names=SERIALIZE) / per, "s/op"),
            "formats.bytes": (c["bytes"] / per, "B/op"),
            "cli.self_s": (self._sum(self.self_time, "cli.") / per, "s/op"),
            "cli.exit2": (c["exit2"] / per, "1/op"),
        }
        return out

    def write_spans(self, path) -> int:
        """Write the kept spans as gzipped TSV; returns how many."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as handle:
            handle.write("span\tname\tstart_s\tend_s\tparent\top\n")
            for i in range(len(self.span_name)):
                handle.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t{self.span_start[i]:.7f}\t"
                    f"{self.span_end[i]:.7f}\t{self.span_parent[i]}\t{self.span_op[i]}\n"
                )
        return len(self.span_name)
