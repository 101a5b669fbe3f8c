#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the driver takes it.

Runs the benchmark command under ten seeds on each workload, then for
each metric prints the distance between the first and third quartile of
its values (statistics.quantiles(values, n=4)) as a share of their
median, next to a third of the metric's bound in BENCHMARK.json. Run
from the repository root:

    python3 benchmark/spread.py [workload ...]
"""
import json
import statistics
import subprocess
import sys

SEEDS = range(1, 11)


def main():
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = sys.argv[1:] or [w["name"] for w in bench["workloads"]]
    bad = 0
    for w in workloads:
        values = {}
        for seed in SEEDS:
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
            try:
                result = json.loads(last)
            except ValueError:
                sys.exit(f"{w} seed {seed}: exit {out.returncode}, no result line")
            if out.returncode != 0 or not result["correct"] or result["failed"]:
                sys.exit(f"{w} seed {seed}: exit {out.returncode}, {last[:120]}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vs in values.items():
            q = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            spread = (q[2] - q[0]) / med if med else 0.0
            flag = ""
            if name != "setup_s" and spread > bounds[name] / 3:
                flag = "  > bound/3" if spread <= bounds[name] else "  > BOUND"
                bad += 1
            print(f"{w:14} {name:22} median {med:12.4f} spread {spread:7.4f}"
                  f" bound/3 {bounds[name] / 3:.4f}{flag}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
