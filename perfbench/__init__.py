"""The repository benchmark: workloads, tracing and checks for sbfsearch.

Run it with `python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>` from the repository root, or with
`--workload all` for every workload and its traced run. See README.md in
this directory.
"""
