"""tools/bench_pairs.py refuses pairs that did not compare the same work:
different op-stream digests, an incorrect run or a failed operation
exit with status 1 and leave the output file unwritten."""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _fake_runs(monkeypatch, bad_seed=None, bad_side=None, **bad):
    """run_once answers from canned results; on `bad_seed`, `bad_side`'s
    run carries the fields in `bad`."""

    def run_once(checkout, workload, seed, seconds):
        side = checkout.name
        value = 1.0 if side == "parent" else 0.9
        run = {"seed": seed, "op_stream_sha256": f"{seed:064x}", "environment": "test",
               "result": {"correct": True, "attempted": 10, "failed": 0,
                          "metrics": {k: {"value": value, "unit": "-"} for k in bench_pairs.GATED}}}
        if seed == bad_seed and side == bad_side:
            run.update({k: v for k, v in bad.items() if k == "op_stream_sha256"})
            run["result"].update({k: v for k, v in bad.items() if k != "op_stream_sha256"})
        return run

    monkeypatch.setattr(bench_pairs, "run_once", run_once)


def _main(tmp_path):
    out = tmp_path / "BENCH.json"
    code = bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                             "--workload", "w", "--seeds", "1-4", "--seconds", "1", "--out", str(out)])
    return code, out


def test_agreeing_pairs_are_written(tmp_path, monkeypatch):
    _fake_runs(monkeypatch)
    code, out = _main(tmp_path)
    assert code == 0
    gated = json.loads(out.read_text())["w"]["gated"]
    assert gated["op_cpu_p50_ms"]["pairs_won_by_change"] == 4
    assert gated["ops_per_cpu_s"]["pairs_won_by_change"] == 0


@pytest.mark.parametrize("bad", [
    {"op_stream_sha256": "0" * 63 + "f"},
    {"op_stream_sha256": None},
    {"correct": False},
    {"failed": 1},
], ids=["digest-differs", "digest-missing", "incorrect", "failed-op"])
@pytest.mark.parametrize("side", ["parent", "change"])
def test_a_bad_pair_writes_nothing(tmp_path, monkeypatch, capsys, bad, side):
    _fake_runs(monkeypatch, bad_seed=3, bad_side=side, **bad)
    code, out = _main(tmp_path)
    assert code == 1
    assert not out.exists()
    assert "seed 3" in capsys.readouterr().err
