"""tools/bench_pairs.py refuses pairs that did not compare the same work:
checkouts whose benchmarks differ, different op-stream digests, an
incorrect run or a failed operation exit with status 1 and leave the
output file unwritten. It gates the metrics the parent's BENCHMARK.json
lists under `end_to_end`, each in its declared direction. After the
untraced pairs it makes three traced pairs, on the first three seeds,
checks them the same way, and keeps each side's per-layer spread."""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "setup_s", "better": "lower"}, {"name": "ops_per_cpu_s", "better": "higher"},
              {"name": "op_cpu_p50_ms", "better": "lower"}, {"name": "op_cpu_p95_ms", "better": "lower"}]
# what a run reports: the end-to-end metrics and one that no spec above gates
REPORTED = [metric["name"] for metric in END_TO_END] + ["store.search.us"]


def _fake_runs(monkeypatch, bad_seed=None, bad_side=None, bad_trace=False, **bad):
    """run_once answers from canned results and returns the list of its
    calls; on `bad_seed`, `bad_side`'s run (its traced one if
    `bad_trace`) carries the fields in `bad`."""
    calls = []

    def run_once(checkout, workload, seed, seconds, trace=False):
        side = checkout.name
        calls.append((side, seed, trace))
        value = 1.0 if side == "parent" else 0.9
        if trace:  # a per-layer figure that moves from seed to seed
            value = seed * (1.0 if side == "parent" else 0.5)
        names = ["sim.draw_share"] if trace else REPORTED
        run = {"seed": seed, "op_stream_sha256": f"{seed:064x}", "environment": "test",
               "result": {"correct": True, "attempted": 10, "failed": 0,
                          "metrics": {k: {"value": value, "unit": "-"} for k in names}}}
        if seed == bad_seed and side == bad_side and trace == bad_trace:
            run.update({k: v for k, v in bad.items() if k == "op_stream_sha256"})
            run["result"].update({k: v for k, v in bad.items() if k != "op_stream_sha256"})
        return run

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    return calls


def _checkouts(tmp_path, end_to_end=END_TO_END):
    """Two checkouts with the same benchmark: a BENCHMARK.json whose
    `paths` names one directory holding one file, and which gates
    `end_to_end`."""
    for side in ("parent", "change"):
        root = tmp_path / side
        (root / "bench").mkdir(parents=True)
        (root / "BENCHMARK.json").write_text(json.dumps({"paths": ["bench"], "end_to_end": end_to_end}))
        (root / "bench" / "run.py").write_text("print('work')\n")


def _main(tmp_path, seeds="1-4"):
    if not (tmp_path / "parent").exists():
        _checkouts(tmp_path)
    out = tmp_path / "BENCH.json"
    code = bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                             "--workload", "w", "--seeds", seeds, "--seconds", "1", "--out", str(out)])
    return code, out


def test_agreeing_pairs_are_written(tmp_path, monkeypatch):
    calls = _fake_runs(monkeypatch)
    code, out = _main(tmp_path)
    assert code == 0
    doc = json.loads(out.read_text())["w"]
    gated = doc["gated"]
    assert list(gated) == REPORTED[:4]
    assert gated["op_cpu_p50_ms"]["pairs_won_by_change"] == 4
    assert gated["ops_per_cpu_s"]["pairs_won_by_change"] == 0
    # three traced pairs, on the first three seeds, alternating like the untraced ones
    traced = [("parent", 1, True), ("change", 1, True), ("change", 2, True), ("parent", 2, True),
              ("parent", 3, True), ("change", 3, True)]
    assert [c for c in calls if c[2]] == traced
    assert calls[-6:] == traced
    assert doc["per_layer"] == {
        "seeds": [1, 2, 3],
        "parent": {"sim.draw_share": {"unit": "-", "median": 2.0, "min": 1.0, "max": 3.0}},
        "change": {"sim.draw_share": {"unit": "-", "median": 1.0, "min": 0.5, "max": 1.5}},
    }


def test_the_gated_metrics_are_the_ones_the_benchmark_declares(tmp_path, monkeypatch):
    """The gated metrics and their directions come from the parent's
    BENCHMARK.json: here it gates one reported metric the other way up
    and a second the tool has no list of its own for."""
    _fake_runs(monkeypatch)
    _checkouts(tmp_path, end_to_end=[{"name": "op_cpu_p50_ms", "better": "higher"},
                                     {"name": "store.search.us", "better": "lower"}])
    code, out = _main(tmp_path)
    assert code == 0
    gated = json.loads(out.read_text())["w"]["gated"]
    assert {name: (g["better"], g["pairs_won_by_change"]) for name, g in gated.items()} == {
        "op_cpu_p50_ms": ("higher", 0), "store.search.us": ("lower", 4)}
    assert gated["store.search.us"]["change"]["median"] == 0.9


def test_fewer_than_three_seeds_trace_each_seed(tmp_path, monkeypatch):
    calls = _fake_runs(monkeypatch)
    code, out = _main(tmp_path, seeds="5-6")
    assert code == 0
    assert [c for c in calls if c[2]] == [("parent", 5, True), ("change", 5, True),
                                          ("change", 6, True), ("parent", 6, True)]
    assert json.loads(out.read_text())["w"]["per_layer"]["seeds"] == [5, 6]


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


@pytest.mark.parametrize(("bad", "seed"), [({"op_stream_sha256": None}, 1), ({"correct": False}, 1),
                                           ({"correct": False}, 3)],
                         ids=["digest-missing", "incorrect", "incorrect-third-pair"])
def test_a_bad_traced_run_writes_nothing(tmp_path, monkeypatch, capsys, bad, seed):
    _fake_runs(monkeypatch, bad_seed=seed, bad_side="change", bad_trace=True, **bad)
    code, out = _main(tmp_path)
    assert code == 1
    assert not out.exists()
    assert f"traced seed {seed}" in capsys.readouterr().err


@pytest.mark.parametrize(("edit", "refused"), [
    ("BENCHMARK.json", True),
    ("bench/run.py", True),
    ("bench/added.py", True),
    ("bench/__pycache__/run.cpython-311.pyc", False),
    ("src/outside.py", False),
], ids=["spec-edited", "file-edited", "file-added", "pycache-only", "outside-paths"])
def test_checkouts_whose_benchmarks_differ_are_refused(tmp_path, monkeypatch, capsys, edit, refused):
    """The benchmark is BENCHMARK.json and every file under its `paths`,
    `__pycache__` left out; a change to it stops the tool before any run."""
    calls = _fake_runs(monkeypatch)
    _checkouts(tmp_path)
    target = tmp_path / "change" / edit
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(target.read_text() + " " if target.exists() else "x")
    code, out = _main(tmp_path)
    if refused:
        assert (code, out.exists(), calls) == (1, False, [])
        assert "benchmarks differ" in capsys.readouterr().err
    else:
        assert code == 0 and out.exists()
