#!/usr/bin/env python3
"""
Collect sets of benchmark runs and compare them against the bounds in
``BENCHMARK.json``.

    python3 perfbench/sets.py collect --workload NAME --runs 10 --out FILE
                                      [--first-seed 1]
    python3 perfbench/sets.py compare SET.jsonl [NEW.jsonl] [--regression]

``collect`` runs ``run.py`` untraced once per seed (first-seed,
first-seed + 1, ...) for the ``run_seconds`` of ``BENCHMARK.json`` and
appends each result to FILE. ``compare`` prints, per workload and
end-to-end metric, each set's median and its spread: the distance between
the first and third quartile as a share of the median. It checks every
spread against the metric's bound. With two sets it also checks that both
failed the same share of operations, and that the two medians agree within
the bound: in both directions by default, as two sets of one commit should,
or with ``--regression`` only that the second is not worse than the first.
It exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def collect(args) -> int:
    spec = load_spec()
    for k in range(args.runs):
        seed = args.first_seed + k
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
               "--trace", "0", "--record", str(Path(args.out).resolve())]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        last = done.stdout.strip().splitlines()[-1:] or ["(no result)"]
        print(f"seed {seed}: exit {done.returncode} {last[0][:160]}", flush=True)
        if done.returncode != 0:
            print(done.stderr[-2000:], file=sys.stderr)
            return 1
    return 0


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def read_set(path) -> dict:
    """workload -> list of recorded untraced runs."""
    runs = {}
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        if rec["trace"] == 0:
            runs.setdefault(rec["workload"], []).append(rec["result"])
    return runs


def compare(args) -> int:
    spec = load_spec()
    sets = [read_set(p) for p in args.sets]
    ok = True
    for workload in sorted(set.intersection(*(set(s) for s in sets))):
        groups = [s[workload] for s in sets]
        shares = [sum(r["failed"] for r in g) / sum(r["attempted"] for r in g)
                  for g in groups]
        print(f"{workload}: runs {[len(g) for g in groups]}, failed share {shares}")
        if len(set(shares)) > 1:
            print("  FAIL: the sets failed different shares of operations")
            ok = False
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            series = [[r["metrics"][name]["value"] for r in g] for g in groups]
            medians = [statistics.median(v) for v in series]
            spreads = [spread(v) for v in series]
            line = (f"  {name:14} median {' -> '.join(f'{x:.4g}' for x in medians)} "
                    f"{m['unit']}, spread {' / '.join(f'{x:.3f}' for x in spreads)} "
                    f"(bound {bound})")
            verdicts = []
            if max(spreads) > bound:
                verdicts.append("spread above bound")
            if len(medians) == 2:
                change = (medians[1] - medians[0]) / medians[0]
                worse = change if m["better"] == "lower" else -change
                line += f", change {change:+.3f}"
                if args.regression and worse > bound:
                    verdicts.append("worse than bound")
                elif not args.regression and abs(change) > bound:
                    verdicts.append("medians differ by more than bound")
            print(line + ("  FAIL: " + ", ".join(verdicts) if verdicts else "  ok"))
            ok = ok and not verdicts
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("collect", help="run one workload over several seeds")
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out", required=True, help="JSON-lines file to append to")
    p = sub.add_parser("compare", help="spreads of one set, or two sets against the bounds")
    p.add_argument("sets", nargs="+", metavar="SET.jsonl")
    p.add_argument("--regression", action="store_true",
                   help="fail only if the second set is worse than the first")
    args = parser.parse_args(argv)
    if args.command == "collect":
        return collect(args)
    if len(args.sets) > 2:
        parser.error("compare takes one or two sets")
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
