"""finstream benchmark: one workload, end to end or per layer.

    python3 perfbench/run.py --workload cli_build --seed 1 --seconds 15 --trace 0

Run it from the root of a finstream checkout; it imports the library from
``src/``. The load generator is a closed loop: one client, one thread, no
think time, the next operation starting when the previous one returns. Work
comes in rounds whose mix is fixed and whose inputs the seed draws; the run
completes whole rounds until it has measured ``--seconds`` of operations and
at least ``MIN_SAMPLES`` of them. Every output is compared with the golden
answer the seed code produced (``perfbench/golden``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one untraced
round, then the same rounds traced, and prints the per-layer metrics with
the tracing overhead. The line before the last is a report with sample
counts, error rate, kernel backend and Python version; the last line is the
result: ``{"correct", "attempted", "failed", "metrics"}``. Operation records
and spans go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench"
# Bytecode is read and written only here, so the import costs the same
# whatever ran in the checkout before (an in-tree __pycache__ is ignored).
PYCACHE = OUT / "pycache"
sys.pycache_prefix = str(PYCACHE)
sys.dont_write_bytecode = True

WORKLOADS = ("cli_build", "query_mix", "gluing_check")
MODULES = ("finstream", "finstream.cli", "finstream.corpus", "finstream.formats")
# setup_s is sampled as (import, fixture set-up) pairs, at least this many
# and over at least this span, so that a cheap set-up is not timed within
# one short moment of the machine's changing speed.
SETUP_REPEATS = 5
SETUP_SPAN_S = 3.0
MIN_SAMPLES = 1000  # at least ten samples beyond the p99
WALL_LIMIT_S = 140.0  # no new operation after this, so a run ends within 180 s
MICRO_WIDTHS = (8, 32, 64)
# The speed of a shared host changes by up to a factor of two within
# seconds (other tenants on the cores and their hyperthread siblings), and
# CPU time moves with it. So the run times a fixed pure-Python loop, the
# reference, at least every PROBE_EVERY_S between operations, and reports
# every time scaled to a machine on which that loop takes REF_NOMINAL_MS
# (about what it takes on an idle 2-core Xeon sandbox). The wall times are
# in the report line and the operation records.
REF_ITERATIONS = 20_000
REF_REPEATS = 3
REF_NOMINAL_MS = 1.0
PROBE_EVERY_S = 0.1
# Layer times of one traced set-up, reported next to the per-operation ones.
SETUP_LAYERS = ("formats.parse_s", "models.self_s", "circulation.saturate.self_s", "kernels.self_s")


def time_import(src: Path) -> float:
    """Seconds to import the library in a fresh interpreter that reads and
    writes bytecode in PYCACHE."""
    code = (f"import sys, time; sys.path.insert(0, {str(src)!r}); "
            f"t0 = time.perf_counter(); import {', '.join(MODULES)}; print(time.perf_counter() - t0)")
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    done = subprocess.run([sys.executable, "-X", f"pycache_prefix={PYCACHE}", "-c", code],
                          env=env, capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout)


def import_library():
    """Import finstream from this checkout's src/, after one fresh
    interpreter has filled the bytecode cache."""
    src = ROOT / "src"
    if not (src / "finstream" / "__init__.py").is_file():
        sys.exit(f"error: no finstream sources under {src}")
    PYCACHE.mkdir(parents=True, exist_ok=True)
    time_import(src)
    sys.path.insert(0, str(src))
    finstream, *_ = (importlib.import_module(name) for name in MODULES)
    if not Path(finstream.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"error: imported finstream from {finstream.__file__}, not {src}")
    return finstream


def reference_ms() -> float:
    """The reference loop's time at this moment, in ms: the median of
    REF_REPEATS runs of a fixed pure-Python loop."""
    times = []
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        total = 0
        for i in range(REF_ITERATIONS):
            total += i * i
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1000.0


def scaled(seconds: float, before: float, after: float) -> float:
    """A wall time at the reference speed, given the reference loop's times
    taken just before and just after it."""
    return seconds * REF_NOMINAL_MS * 2.0 / (before + after)


def judge(op, result, error) -> str:
    """ok, failed, or violation: a malformed input that the CLI rejected
    with an uncaught exception instead of exit code 2."""
    if op.malformed:
        if error is not None:
            return "violation"
        return "ok" if result == 2 else "failed"
    if error is not None or op.expected is None:
        return "failed"
    return "ok" if op.answer(result) == op.expected else "failed"


class Tally:
    """Latencies and outcome counts of a run. Each operation's record goes
    straight to the log file, so the harness's memory stays flat and
    ``peak_rss_mb`` reflects the library rather than the bookkeeping.

    ``probe`` times the reference loop between operations; ``close`` takes
    the last probe and scales each latency by the probes on either side of
    it. ``latencies`` and ``seconds`` are scaled, ``wall_seconds`` is not."""

    def __init__(self, log):
        self.log = log
        self.wall = array("d")
        self.latencies = array("d")
        self.probes: list[tuple[int, float]] = []  # (operations before it, reference ms)
        self.last_probe = -math.inf
        self.outcomes = {"ok": 0, "failed": 0, "violation": 0}
        self.seconds = 0.0
        self.wall_seconds = 0.0

    def probe(self, force=False):
        if force or time.perf_counter() - self.last_probe >= PROBE_EVERY_S:
            self.probes.append((len(self.wall), reference_ms()))
            self.last_probe = time.perf_counter()

    def add(self, record):
        record["ref_ms"] = self.probes[-1][1]
        self.log.write(json.dumps(record) + "\n")
        self.wall.append(record["ms"])
        self.outcomes[record["outcome"]] += 1
        self.wall_seconds += record["ms"] / 1000.0

    def close(self):
        self.probe(force=True)
        for (start, before), (end, after) in zip(self.probes, self.probes[1:]):
            for ms in self.wall[start:end]:
                self.latencies.append(scaled(ms, before, after))
        self.seconds = math.fsum(self.latencies) / 1000.0

    def merge(self, other):
        self.wall.extend(other.wall)
        self.latencies.extend(other.latencies)
        for key, count in other.outcomes.items():
            self.outcomes[key] += count
        self.seconds += other.seconds
        self.wall_seconds += other.wall_seconds

    def __len__(self):
        return len(self.wall)

    @property
    def throughput(self):
        """Correct operations per second of operation time."""
        return self.outcomes["ok"] / self.seconds if self.seconds else 0.0

    def percentile(self, q):
        """Nearest-rank percentile and the number of samples above it."""
        ordered = sorted(self.latencies)
        rank = max(1, math.ceil(q * len(ordered)))
        return ordered[rank - 1], len(ordered) - rank

    def reference(self):
        refs = [ms for _, ms in self.probes]
        return {"probes": len(refs), "min": min(refs), "median": statistics.median(refs), "max": max(refs)}


def run_rounds(workload, first_round, seconds, min_samples, tally, started, tracer=None, max_rounds=None):
    """Run whole rounds into a fresh tally until it has measured enough wall
    time and samples; returns the rounds run."""
    rounds = 0
    clock = time.perf_counter
    try:
        while True:
            for op in workload.round_ops(first_round + rounds):
                if clock() - started > WALL_LIMIT_S:
                    return rounds
                call = op.prepare()
                tally.probe()
                if tracer is not None:
                    tracer.op += 1
                    tracer.active = True
                t0 = clock()
                try:
                    result, error = call(), None
                except Exception as exc:  # an uncaught library error is a failed operation
                    result, error = None, exc
                elapsed = clock() - t0
                if tracer is not None:
                    tracer.active = False
                tally.add({
                    "workload": workload.name,
                    "round": first_round + rounds,
                    "kind": op.kind,
                    "key": op.key,
                    "points": op.points,
                    "opens": op.opens,
                    "ms": elapsed * 1000.0,
                    "outcome": judge(op, result, error),
                    "error": None if error is None else type(error).__name__,
                })
            rounds += 1
            if max_rounds is not None and rounds >= max_rounds:
                return rounds
            if tally.wall_seconds >= seconds and len(tally) >= min_samples:
                return rounds
    finally:
        tally.close()


def kernel_micro(closure_rows):
    """The closure kernel on random rows (density 0.3), microseconds per
    call for each width; the cases of benchmarks/bench_closure.py."""
    rng = random.Random(7)
    out = {}
    for n in MICRO_WIDTHS:
        cases = [[sum(1 << j for j in range(n) if rng.random() < 0.3) for _ in range(n)] for _ in range(100)]
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            for rows in cases:
                closure_rows(rows, n)
            best = min(best, time.perf_counter() - t0)
        out[f"kernels.micro_us_n{n}"] = (best / len(cases) * 1e6, "us")
    return out


def traced_run(workload, finstream, seconds, log, started, report):
    """Kernel microbenchmark, one untraced reference round, then a traced
    set-up and the same rounds traced; returns the tally of the traced
    rounds and the per-layer metrics."""
    import tracing

    micro = kernel_micro(finstream._kernels.closure_rows)
    reference = Tally(log)
    with workload.running():
        run_rounds(workload, 0, 0.0, 0, reference, started, max_rounds=1)
    tracer = tracing.Tracer({"common", *WORKLOADS})
    tracer.install()
    tracer.active = True
    workload.setup()
    tracer.active = False
    setup_layers = tracer.metrics(1)
    tracer.reset()
    traced, rest = Tally(log), Tally(log)
    with workload.running():
        rounds = run_rounds(workload, 0, 0.0, 0, traced, started, tracer=tracer, max_rounds=1)
        if traced.wall_seconds < seconds:
            rounds += run_rounds(workload, 1, seconds - traced.wall_seconds, 0, rest, started, tracer=tracer)
    ratio = traced.throughput / reference.throughput if reference.throughput else 0.0
    traced.merge(rest)
    metrics = tracer.metrics(len(traced))
    metrics.update(micro)
    metrics.update({f"setup.{name}": (setup_layers[name][0], "s") for name in SETUP_LAYERS})
    metrics["trace.throughput_ratio"] = (ratio, "ratio")
    report.update(
        reference_samples=len(reference),
        spans=tracer.write_spans(OUT / f"spans-{workload.name}.tsv.gz"),
        spans_dropped=tracer.dropped,
    )
    reference.merge(traced)
    return rounds, traced, reference, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    finstream = import_library()
    module = importlib.import_module(args.workload)
    golden_path = BENCH / "golden" / f"{args.workload}.json"
    golden = json.loads(golden_path.read_text(encoding="utf-8"))
    workload = module.Workload(ROOT, args.seed, golden)

    # Import and fixture set-up alternate with reference probes, each sample
    # scaled by the probes on either side of it.
    imports, setups, wall_imports, wall_setups = [], [], [], []
    setup_started = time.perf_counter()
    ref = reference_ms()
    while len(setups) < SETUP_REPEATS or time.perf_counter() - setup_started < SETUP_SPAN_S:
        wall_imports.append(time_import(ROOT / "src"))
        ref_mid = reference_ms()
        imports.append(scaled(wall_imports[-1], ref, ref_mid))
        t0 = time.perf_counter()
        workload.setup()
        wall_setups.append(time.perf_counter() - t0)
        ref = reference_ms()
        setups.append(scaled(wall_setups[-1], ref_mid, ref))
    setup_s = statistics.median(imports) + statistics.median(setups)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "kernel_backend": finstream.kernel_backend,
        "python": platform.python_version(),
        "generator": "closed loop, 1 client, 1 thread, no think time",
    }
    with open(OUT / f"records-{args.workload}.jsonl", "w", encoding="utf-8") as log:
        try:
            if args.trace:
                rounds, timed, everything, metrics = traced_run(
                    workload, finstream, args.seconds, log, started, report)
            else:
                timed = everything = Tally(log)
                report["rss_before_loop_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                with workload.running():
                    rounds = run_rounds(workload, 0, args.seconds, MIN_SAMPLES, timed, started)
                metrics = {
                    "setup_s": (setup_s, "s"),
                    "throughput_ops_s": (timed.throughput, "1/s"),
                    "latency_p50_ms": (timed.percentile(0.50)[0], "ms"),
                    "latency_p99_ms": (timed.percentile(0.99)[0], "ms"),
                    "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
                }
        finally:
            workload.teardown()

    attempted = len(everything)
    failed = everything.outcomes["failed"]
    violations = everything.outcomes["violation"]
    report.update(
        rounds=rounds,
        measured_s=timed.wall_seconds,
        wall={"throughput_ops_s": timed.outcomes["ok"] / timed.wall_seconds if timed.wall_seconds else 0.0,
              "latency_p50_ms": statistics.median(timed.wall),
              "setup_s": statistics.median(wall_imports) + statistics.median(wall_setups)},
        samples=len(timed),
        samples_beyond_p99=timed.percentile(0.99)[1],
        setup_runs_s=wall_setups,
        import_runs_s=wall_imports,
        reference_ms=timed.reference(),
        error_rate={"value": (failed + violations) / attempted, "unit": "ratio",
                    "failed": failed, "contract_violations": violations, "attempted": attempted},
        wall_s=time.perf_counter() - started,
    )
    print(json.dumps({"report": report}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
