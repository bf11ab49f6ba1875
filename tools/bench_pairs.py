"""Run one benchmark workload on two checkouts in alternating pairs and
record the gated metrics of both sides in a BENCH_*.json file. The gated
metrics, and the direction each improves in, are the `end_to_end` list
of the parent checkout's `BENCHMARK.json`.

    python3 tools/bench_pairs.py --parent <checkout> --change <checkout> \\
        --workload owner_agent_loopback --seeds 11-20 --seconds 30 --out BENCH_11.json

Each seed runs `perfbench/run.py` once in each checkout, untraced, the
parent first on even pairs and the change first on odd ones. The file
keeps, per workload, every run's result line, op-stream digest and
environment, and per gated metric each side's median and quartiles and
the number of pairs the change won. After the pairs, each side makes
three traced runs, on the first three seeds, in the same alternating
order; one traced run swings per-layer figures by several times, so the
file keeps, under `per_layer`, the traced seeds and each side's median,
minimum and maximum of every per-layer metric. Running another workload
into the same file adds it beside the ones already there.

A pair whose two runs report different op-stream digests, or a run that
reports `correct=false` or `failed>0`, stops the tool with exit status 1
before it writes anything: such a pair did not compare the same work.
Each traced pair is checked the same way.

Before any run, the tool takes a SHA-256 over each checkout's
`BENCHMARK.json` and every file under the directories its `paths` lists
(`__pycache__` left out). If the two differ it exits with status 1 and
writes nothing: a change that edits the benchmark cannot be compared
with its parent by that benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

def benchmark_digest(checkout: Path) -> str:
    """SHA-256 over `BENCHMARK.json` and every file under the directories
    its `paths` lists, `__pycache__` left out; each file enters with its
    path relative to the checkout and its length."""
    spec = checkout / "BENCHMARK.json"
    files = [spec]
    for entry in json.loads(spec.read_text())["paths"]:
        found = (checkout / entry).rglob("*")
        files += sorted(f for f in found if f.is_file() and "__pycache__" not in f.relative_to(checkout).parts)
    digest = hashlib.sha256()
    for f in files:
        name, data = f.relative_to(checkout).as_posix().encode(), f.read_bytes()
        digest.update(len(name).to_bytes(4, "big") + name + len(data).to_bytes(8, "big") + data)
    return digest.hexdigest()


def gated_metrics(checkout: Path) -> dict[str, str]:
    """Each end-to-end metric `BENCHMARK.json` declares, with the way it
    improves: "lower" or "higher"."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["better"] for metric in spec["end_to_end"]}


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: bool = False) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    out = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True, check=True).stdout
    *report, last = out.rstrip("\n").split("\n")
    text = "\n".join(report)
    digest = re.search(r"op-stream sha256 ([0-9a-f]{64})", text)
    env = re.search(r"environment: (.*)", text)
    return {"seed": seed, "result": json.loads(last), "op_stream_sha256": digest and digest.group(1),
            "environment": env and env.group(1).strip()}


def pair_problems(parent: dict, change: dict) -> list[str]:
    """Why a pair of runs cannot be compared; empty when it can."""
    problems = []
    if parent["op_stream_sha256"] is None or parent["op_stream_sha256"] != change["op_stream_sha256"]:
        problems.append(f"seed {parent['seed']}: op-stream digests differ "
                        f"({parent['op_stream_sha256']} against {change['op_stream_sha256']})")
    for side, run in (("parent", parent), ("change", change)):
        result = run["result"]
        if result["correct"] is not True or result["failed"]:
            problems.append(f"seed {run['seed']} {side}: correct={result['correct']} failed={result['failed']}")
    return problems


def summary(runs: list[dict], metric: str) -> dict:
    values = [r["result"]["metrics"][metric]["value"] for r in runs]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def spread(runs: list[dict]) -> dict:
    """Median, minimum and maximum of every metric the runs report."""
    out = {}
    for name, first in runs[0]["result"]["metrics"].items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        out[name] = {"unit": first["unit"], "median": statistics.median(values),
                     "min": min(values), "max": max(values)}
    return out


def run_pairs(args: argparse.Namespace, seeds: list[int], gated: dict[str, str], trace: bool = False) -> dict | None:
    """Each seed once per side, the parent first on even pairs and the
    change first on odd ones. Prints why and returns None at the first
    pair that did not compare the same work."""
    sides = {"parent": [], "change": []}
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            sides[side].append(run_once(getattr(args, side), args.workload, seed, args.seconds, trace))
            metrics = sides[side][-1]["result"]["metrics"]
            print(seed, side, "traced" if trace else {k: round(metrics[k]["value"], 4) for k in gated},
                  flush=True)
        problems = pair_problems(sides["parent"][-1], sides["change"][-1])
        if problems:
            print("\n".join(("traced " if trace else "") + p for p in problems), file=sys.stderr)
            return None
    return sides


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="first-last, inclusive")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if benchmark_digest(args.parent) != benchmark_digest(args.change):
        print("the two checkouts' benchmarks differ (BENCHMARK.json or a file under its paths)",
              file=sys.stderr)
        return 1
    first, last = map(int, args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    gated = gated_metrics(args.parent)  # the same as the change's: the digests agree
    sides = run_pairs(args, seeds, gated)
    if sides is None:
        return 1
    traced = run_pairs(args, seeds[:3], gated, trace=True)
    if traced is None:
        return 1
    summaries = {}
    for metric, better in gated.items():
        values = [[r["result"]["metrics"][metric]["value"] for r in sides[s]] for s in ("parent", "change")]
        won = sum(c < p if better == "lower" else c > p for p, c in zip(*values))
        summaries[metric] = {"better": better, "parent": summary(sides["parent"], metric),
                             "change": summary(sides["change"], metric), "pairs_won_by_change": won}
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    per_layer = {"seeds": seeds[:3], **{side: spread(runs) for side, runs in traced.items()}}
    doc[args.workload] = {"seconds": args.seconds, "seeds": [first, last], "gated": summaries,
                          "per_layer": per_layer, "runs": sides}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
