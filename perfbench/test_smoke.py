"""Smoke test of the benchmark: every workload, untraced and traced, on
small stores for one second each, with all of its output checks.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.spans import PER_LAYER

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:  # the in-process tests import the package from this checkout
    sys.path.insert(0, str(ROOT / "src"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_runs_and_checks(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        # a one-second run may hold too few samples for op_cpu_p95_ms; it is then withheld as null
        assert all(v["value"] is None or v["value"] > 0 for v in result["metrics"].values())
        assert all(result["metrics"][name]["value"] > 0 for name in ("setup_s", "ops_per_cpu_s", "op_cpu_p50_ms"))


def test_loopback_mix_is_fixed_per_block():
    from collections import Counter
    from itertools import islice

    from perfbench import loopback
    from perfbench.population import Population

    pop = Population(3, loopback.BETA)
    specs = loopback.preload_specs(pop, 120)
    for plan, block in ((loopback.agent_plan, loopback.AGENT_BLOCK), (loopback.owner_plan, loopback.OWNER_BLOCK)):
        ops = [d["op"] for d in islice(plan(pop, specs), 50 * len(block))]
        for i in range(0, len(ops), len(block)):
            assert Counter(ops[i:i + len(block)]) == Counter(block)


def test_pacer_holds_the_agent_to_owner_ratio():
    import threading

    from perfbench import loopback
    from perfbench.common import now

    pacer = loopback.Pacer(now() + 0.3)
    order: list[str] = []

    def stream(name):
        while pacer.turn(name):
            order.append(name)

    threads = [threading.Thread(target=stream, args=(name,)) for name in ("agent", "owner")]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # each start may be appended one step late, hence the slack of 1
    k, agent, owner = loopback.AGENT_PER_OWNER, 0, 0
    for name in order:
        agent += name == "agent"
        owner += name == "owner"
        assert -k - 1 <= agent - k * owner <= k + 1
    assert owner > 10


def test_per_layer_list_matches_benchmark_json():
    assert [(n, u, b) for n, u, b in PER_LAYER] == [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, BENCHMARK["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
