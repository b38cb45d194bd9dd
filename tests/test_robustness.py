import json
import threading

from finstream import (
    StreamDiagram,
    all_opens,
    chain_witness,
    colimit,
    directed_circle,
    directed_interval,
    limit,
    pullback,
)
from finstream.cli import main
from finstream.formats import canonical_dumps, serialize_stream


class TestConcurrentReads:
    def test_precirculation_memo_under_threads(self):
        s = directed_circle(3)
        inclusion = {p: p for p in s.space.points}
        pb = pullback(s, inclusion, s.space)
        masks = list(all_opens(s.space))
        results = [None] * 8
        expected = [pb.assign_mask(m) for m in masks]

        def worker(k):
            local = [pb.assign_mask(m) for m in masks]
            results[k] = local

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for local in results:
            assert local == expected

    def test_circulation_value_memo_under_threads(self):
        s = directed_circle(3)
        masks = list(all_opens(s.space))
        expected = [s.value_mask(m) for m in masks]
        failures = []

        def worker():
            got = [s.value_mask(m) for m in masks]
            if got != expected:
                failures.append(got)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures


class TestLargeCarrierFallback:
    def test_long_interval_uses_python_kernel_rows(self):
        # 103 cells need rows wider than a machine word; values must still be exact
        s = directed_interval(51)
        under = s.underlying()
        assert under.has("v0", "v51") and not under.has("v51", "v0")
        assert under.is_antisymmetric()

    def test_cli_witness_truncation(self, tmp_path, capsys):
        # star generators allow edge-to-edge jumps, so the minimal chain on
        # interval(n) has n+2 steps; n=101 overflows the 100-step cap
        s = directed_interval(101)
        path = tmp_path / "long.json"
        path.write_text(canonical_dumps(serialize_stream(s)), encoding="utf-8")
        code = main(
            ["query", "--input", str(path), "--open", "global", "v0", "v101", "--witness"]
        )
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        assert report["related"]
        assert len(report["witness"]) == 100
        assert report["witness_truncated"] is True
        steps = chain_witness(s, sorted(s.space.points), "v0", "v101")
        assert len(steps) == 102


class TestEmptyDiagrams:
    def test_limit_of_empty_diagram_is_terminal(self):
        lim, cone = limit(StreamDiagram({}, {}))
        assert cone == {}
        assert lim.space.n == 1

    def test_colimit_of_empty_diagram_is_initial(self):
        colim, cocone = colimit(StreamDiagram({}, {}))
        assert cocone == {}
        assert colim.space.n == 0


class TestCliErrorPaths:
    def test_query_not_open_exits_2(self, tmp_path, capsys):
        s = directed_interval(1)
        path = tmp_path / "i.json"
        path.write_text(canonical_dumps(serialize_stream(s)), encoding="utf-8")
        code = main(["query", "--input", str(path), "--open", "v0", "v0", "v0"])
        assert code == 2
        assert "not open" in capsys.readouterr().err

    def test_query_unknown_point_exits_2(self, tmp_path, capsys):
        s = directed_interval(1)
        path = tmp_path / "i.json"
        path.write_text(canonical_dumps(serialize_stream(s)), encoding="utf-8")
        code = main(["query", "--input", str(path), "--open", "global", "zz", "v0"])
        assert code == 2

    def test_missing_file_exits_2(self, capsys):
        assert main(["check", "--input", "/nonexistent.json"]) == 2

    def test_combine_wrong_inputs_exit_2(self, tmp_path, capsys):
        s = directed_interval(1)
        path = tmp_path / "i.json"
        path.write_text(canonical_dumps(serialize_stream(s)), encoding="utf-8")
        assert main(["combine", "product", "--input", str(path)]) == 2
        assert main(["combine", "quotient", "--input", str(path)]) == 2
