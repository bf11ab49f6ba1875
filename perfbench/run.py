"""Run one benchmark workload, or all of them.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

Run from the repository root (any checkout holding `src/sbfsearch` and
`perfbench/`). A single workload prints its report and, as the last line
of standard output, one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the gated end-to-end metrics with `--trace 0`,
the per-layer metrics with `--trace 1`. `--workload all` runs every
workload untraced and then traced, each in its own process, prints every
report, and ends with one JSON object keyed by workload. `--quick`
shrinks the stores for a smoke run. Exits with status 2, printing no
result, when the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("owner_agent_loopback", "store_churn", "montecarlo_sweeps")
CHILD_TIMEOUT_S = 900


def _use_checkout_source() -> None:
    src = ROOT / "src"
    if not (src / "sbfsearch" / "__init__.py").is_file():
        print(f"error: no package source at {src / 'sbfsearch'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(ROOT), str(src)]
    import sbfsearch

    if Path(sbfsearch.__file__).resolve().parent != (src / "sbfsearch").resolve():
        print(f"error: imported sbfsearch from {sbfsearch.__file__}, not this checkout", file=sys.stderr)
        raise SystemExit(2)


def _parse(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="small stores, for a smoke run")
    args = ap.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        ap.error("--seconds must be positive and --seed non-negative")
    return args


def _run_one(args: argparse.Namespace) -> int:
    from perfbench import churn, loopback, montecarlo
    from perfbench.common import Context, environment, print_report, result_line

    modules = {"owner_agent_loopback": loopback, "store_churn": churn, "montecarlo_sweeps": montecarlo}
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        ctx = Context(root=ROOT, seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                      quick=args.quick, scratch=scratch)
        outcome = modules[args.workload].run(ctx)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    env = environment()
    header = [f"seed={args.seed} seconds={args.seconds:g} trace={args.trace} quick={args.quick}",
              "environment: " + ", ".join(f"{k}={v}" for k, v in env.items()),
              f"attempted={outcome.attempted} failed={outcome.failed} correct={outcome.correct}"]
    print_report(args.workload + (" (traced)" if args.trace else ""), header + outcome.lines)
    print(result_line(outcome.correct, outcome.attempted, outcome.failed, outcome.metrics))
    return 0


def _run_all(args: argparse.Namespace) -> int:
    """Every workload untraced, then traced, each in a fresh process."""
    combined: dict[str, dict] = {}
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.quick:
                cmd.append("--quick")
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
            lines = proc.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0:
                print(f"{workload} (trace={trace}) exited with status {proc.returncode}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            combined[f"{workload}{'/traced' if trace else ''}"] = result
            if not result["correct"]:
                status = 1
    print(json.dumps(combined))
    return status


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    _use_checkout_source()
    return _run_all(args) if args.workload == "all" else _run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
