#!/usr/bin/env python3
"""The benchmark trajectory: one entry per (PR, workload) in BENCH_trajectory.json.

Each entry holds the parent and change medians of every gated row of
BENCHMARK.json (its `end_to_end` names), the output digest and the failed
count, over interleaved parent/change pairs of symbench runs.

    # Append one entry per workload from saved symbench stdouts (one file
    # per run; the workload is read from the run's own lines):
    python3 scripts/bench_trajectory.py append --pr <n> --commit <parent sha> \\
        --seed 1 --seconds 20 --parent p/*.txt --change c/*.txt

    # Check that the file parses and that every entry's commit exists:
    python3 scripts/bench_trajectory.py check

`commit` is the parent commit the pairs ran against: the change is the
PR's own commit, which cannot name itself in a file it commits.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "BENCH_trajectory.json"
BENCHMARK = ROOT / "BENCHMARK.json"


def dump(data):
    """The file, one entry per line."""
    entries = ",\n".join("  " + json.dumps(e) for e in data["entries"])
    return f'{{"about": {json.dumps(data["about"])},\n "entries": [\n{entries}\n]}}\n'


def gated_rows():
    return [row["name"] for row in json.loads(BENCHMARK.read_text())["end_to_end"]]


def read_run(path):
    """(workload, metric values, output digest, failed count) of one symbench stdout."""
    lines = Path(path).read_text().splitlines()
    result = json.loads(lines[-1])
    workload = digest = None
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and parts[1] == "output_digest":
            workload, digest = parts[0], parts[2]
    if workload is None:
        sys.exit(f"{path}: no output_digest line; not a symbench run's stdout")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return workload, values, digest, result["failed"]


def summarize(runs, rows):
    """Medians of the gated rows, the digest (one value, or every distinct
    one if the runs disagree) and the failed count (likewise)."""
    def one_or_all(xs):
        distinct = sorted(set(xs))
        return distinct[0] if len(distinct) == 1 else distinct

    medians = {}
    for row in rows:
        xs = [v[row] for _, v, _, _ in runs if v.get(row) is not None]
        medians[row] = float(f"{statistics.median(xs):.9g}") if xs else None
    return (
        medians,
        one_or_all([d for _, _, d, _ in runs]),
        one_or_all([f for _, _, _, f in runs]),
    )


def append(args):
    rows = gated_rows()
    sides = {}
    for side in ("parent", "change"):
        by_workload = {}
        for path in getattr(args, side):
            run = read_run(path)
            by_workload.setdefault(run[0], []).append(run)
        sides[side] = by_workload
    if sorted(sides["parent"]) != sorted(sides["change"]):
        sys.exit("parent and change runs cover different workloads")
    data = json.loads(TRAJECTORY.read_text())
    for workload in sorted(sides["parent"]):
        parent, change = sides["parent"][workload], sides["change"][workload]
        if len(parent) != len(change):
            sys.exit(f"{workload}: {len(parent)} parent runs but {len(change)} change runs")
        (pm, pd, pf), (cm, cd, cf) = summarize(parent, rows), summarize(change, rows)
        data["entries"].append({
            "pr": args.pr,
            "commit": args.commit,
            "workload": workload,
            "seed": args.seed,
            "seconds": int(args.seconds) if args.seconds.is_integer() else args.seconds,
            "pairs": len(parent),
            "backfilled": False,
            "rows": {row: {"parent": pm[row], "change": cm[row]} for row in rows},
            "output_digest": {"parent": pd, "change": cd},
            "failed": {"parent": pf, "change": cf},
        })
    TRAJECTORY.write_text(dump(data))


def check(_args):
    data = json.loads(TRAJECTORY.read_text())
    bad = []
    for entry in data["entries"]:
        for key in ("pr", "commit", "workload", "seed", "pairs", "rows"):
            if key not in entry:
                bad.append(f"PR {entry.get('pr')}: no {key}")
        commit = entry.get("commit", "")
        found = subprocess.run(
            ["git", "cat-file", "-e", f"{commit}^{{commit}}"],
            cwd=ROOT,
            capture_output=True,
        )
        if found.returncode != 0:
            bad.append(f"PR {entry.get('pr')} {entry.get('workload')}: no commit {commit!r}")
    for problem in bad:
        print(f"bench_trajectory: {problem}", file=sys.stderr)
    print(f"bench_trajectory: {len(data['entries'])} entries, {len(bad)} problems")
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    add = sub.add_parser("append", help="append one entry per workload")
    add.add_argument("--pr", type=int, required=True)
    add.add_argument("--commit", required=True, help="the parent commit the pairs ran against")
    add.add_argument("--seed", type=int, required=True)
    add.add_argument("--seconds", type=float, required=True)
    add.add_argument("--parent", nargs="+", required=True, help="parent-side symbench stdouts")
    add.add_argument("--change", nargs="+", required=True, help="change-side symbench stdouts")
    add.set_defaults(run=append)
    sub.add_parser("check", help="the file parses and every commit exists").set_defaults(run=check)
    args = parser.parse_args()
    sys.exit(args.run(args) or 0)


if __name__ == "__main__":
    main()
