#!/usr/bin/env python3
"""
Benchmark of the ``hx`` CLI: time to a checked report, its CPU time and
memory, and the set-up cost of importing ``hx`` and building the systems.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--record FILE]

Run it from the root of a checkout; it imports ``hx`` from that checkout's
``src/`` only. With ``--trace 0`` it probes set-up in fresh interpreters,
then runs whole rounds of the workload's ``hx`` invocations for about S
seconds and reports the end-to-end metrics of ``BENCHMARK.json``: the mean
wall and CPU time of a round, the median peak memory of a round, and the
median set-up time. Times are scaled to a reference speed of the machine
(see ``speed_probe``); the unscaled ones go to ``--record``. With ``--trace 1`` it runs one untraced and one traced
round and reports the per-layer metrics, with the tracing overhead. Every
report is checked outside the timed region. A table of all metrics goes to
stderr; the last line of stdout is one JSON object. ``--record`` appends the
result, the run's environment and the raw round figures to a JSON-lines file
that ``sets.py`` compares.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

# set-up probes, each in a fresh interpreter; setup_s is their median. The
# windows before the first round and after the last sample two moments of
# the machine's speed even when a run has a single round.
SETUP_WINDOW = 10    # probes before the first round, and again after the last
SETUP_PER_ROUND = 1  # probe before each later round

# The machine's speed drifts by up to 1.8x over stretches of seconds to
# minutes. A speed probe, fixed pure-Python work of the kind hx does (tuple
# keys into a dict, small-int arithmetic), runs before and after every timed
# process on the same CPU. Each process's times are scaled by
# REFERENCE_PROBE_S over the mean of the two probes around it, which gives
# seconds at the speed where one probe takes REFERENCE_PROBE_S: the median
# probe time on the machine of the recorded baseline (perfbench/README.md).
REFERENCE_PROBE_S = 0.09
PROBE_CHUNKS = 12

# runs in a fresh interpreter: import hx and build the workload's systems
SETUP_PROBE = """\
import json, sys, time
start = time.perf_counter()
import hx
for label, weights in json.loads(sys.argv[1]):
    system = hx.build_system(label)
    hx.HeckeAlgebra(system, hx.WeightFunction(system, weights) if weights else None)
print(json.dumps({"setup_s": time.perf_counter() - start, "hx": hx.__file__}))
"""


def child_env(cache_dir=None) -> dict:
    """The environment of every child: hx from this checkout's src/ only,
    no inherited interpreter settings, and no report cache unless given."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "HX_CACHE_DIR"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    if cache_dir is not None:
        env["HX_CACHE_DIR"] = str(cache_dir)
    return env


def speed_probe() -> float:
    """Seconds this CPU takes for a fixed amount of pure-Python work."""
    start = perf_counter()
    for _ in range(PROBE_CHUNKS):
        table = {}
        for i in range(20000):
            table[(i, i & 7)] = i * 3 + (i >> 2)
        sum(table.values())
    return perf_counter() - start


def pin_to_one_cpu() -> None:
    """Run this process, the processes it starts and the speed probes on
    one CPU, so that each probe measures the CPU the timed process used."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_child(cmd, out_path, err_path, env):
    """Run one process to its end through launch.py:
    (wall s, user+system CPU s, max RSS MiB, exit code)."""
    launch = [sys.executable, "-I", "-S", str(HERE / "launch.py"),
              str(out_path), str(err_path), *cmd]
    done = subprocess.run(launch, env=env, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"launch.py failed ({done.returncode}): {done.stderr[-2000:]}")
    child = json.loads(done.stdout.splitlines()[-1])
    return child["wall"], child["cpu"], child["rss_mib"], child["code"]


def setup_probe(workload, work: Path) -> float:
    """Set-up seconds of one fresh interpreter, not scaled."""
    systems = json.dumps([[label, weights] for label, weights in workload.systems])
    out, err = work / "probe.out", work / "probe.err"
    *_, code = run_child([sys.executable, "-c", SETUP_PROBE, systems], out, err, child_env())
    if code != 0:
        raise RuntimeError(f"set-up probe failed ({code}): {err.read_text()[-2000:]}")
    probe = json.loads(out.read_text())
    if not Path(probe["hx"]).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"hx was imported from {probe['hx']}, not from {SRC}")
    return probe["setup_s"]


def run_round(workload, order, round_dir: Path, traced: bool) -> list[dict]:
    """One pass over the workload's invocations, each in its own process."""
    round_dir.mkdir(parents=True)
    cache = round_dir / "cache" if workload.uses_cache else None
    env = child_env(cache)
    ops = []
    speed = speed_probe()
    for inv in order:
        out = round_dir / f"{inv.tag}.out"
        trace = round_dir / f"{inv.tag}.trace.json"
        if traced:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(trace), "--", *inv.argv]
        else:
            cmd = [sys.executable, "-m", "hx.cli", *inv.argv]
        wall, cpu, rss, code = run_child(cmd, out, round_dir / f"{inv.tag}.err", env)
        before, speed = speed, speed_probe()
        scale = REFERENCE_PROBE_S / ((before + speed) / 2)
        ops.append({"inv": inv, "out": out, "trace": trace if traced else None,
                    "wall": wall, "cpu": cpu, "rss": rss, "code": code,
                    "scaled_wall": wall * scale, "scaled_cpu": cpu * scale})
    return ops


def check_round(ops, seed: int, checked: dict) -> tuple[int, int]:
    """(failed operations, operations with a wrong report) of one round.

    A report byte-identical to one already checked in this run passes
    without repeating the check."""
    failed = wrong = 0
    by_tag = {op["inv"].tag: op["out"].read_bytes() for op in ops}
    for op in ops:
        inv, data = op["inv"], by_tag[op["inv"].tag]
        if op["code"] != 0:
            problems = [f"exit code {op['code']}: "
                        + op["out"].with_suffix(".err").read_text()[-500:]]
        elif inv.same_as is not None:
            problems = [] if data == by_tag[inv.same_as] else [
                f"report differs from {inv.same_as}"]
        elif checked.get(inv.tag) == data:
            problems = []
        else:
            problems = inv.check(json.loads(data), seed)
            if not problems:
                checked[inv.tag] = data
            wrong += bool(problems)
        if problems:
            failed += 1
            print(f"FAILED {inv.tag}: " + "; ".join(problems[:5]), file=sys.stderr)
    return failed, wrong


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "hx").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment() -> dict:
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # a checkout without git metadata; src_sha256 names the code
    return {"commit": commit, "src_sha256": source_digest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "machine": platform.machine()}


def layer_totals(ops) -> dict:
    totals = {}
    for op in ops:
        if op["code"] == 0:
            for name, value in json.loads(op["trace"].read_text()).items():
                totals[name] = totals.get(name, 0) + value
    return totals


def measure(workload, args, work: Path):
    """Returns (metric values, operations, failed, wrong, raw figures)."""
    order = workload.invocations
    checked: dict = {}
    failed = wrong = attempted = 0

    def tally(ops):
        nonlocal failed, wrong, attempted
        f, w = check_round(ops, args.seed, checked)
        failed, wrong, attempted = failed + f, wrong + w, attempted + len(ops)

    if args.trace:
        plain = run_round(workload, order, work / "plain", traced=False)
        traced = run_round(workload, order, work / "traced", traced=True)
        tally(plain)
        tally(traced)
        plain_wall = sum(op["wall"] for op in plain)
        traced_wall = sum(op["wall"] for op in traced)
        values = layer_totals(traced)
        values["trace.untraced_wall_s"] = plain_wall
        values["trace.traced_wall_s"] = traced_wall
        values["trace.overhead_pct"] = 100 * (traced_wall / plain_wall - 1)
        return values, attempted, failed, wrong, {"spans": values}

    def probes(count):
        """(scaled, raw) set-up times of `count` probes, each scaled by the
        speed probes around it."""
        times, speed = [], speed_probe()
        for _ in range(count):
            took = setup_probe(workload, work)
            before, speed = speed, speed_probe()
            times.append((took * REFERENCE_PROBE_S / ((before + speed) / 2), took))
        return times

    pin_to_one_cpu()
    probes(1)  # warm-up: writes byte code, fills the page cache
    setup, rounds = probes(SETUP_WINDOW), []
    start = perf_counter()
    while not rounds or perf_counter() - start + rounds[-1]["wall"] <= args.seconds:
        if rounds:  # probes between rounds see the same machine load as the rounds
            setup += probes(SETUP_PER_ROUND)
        ops = run_round(workload, order, work / f"round-{len(rounds)}", traced=False)
        rounds.append({"ops": ops,
                       "wall": sum(op["wall"] for op in ops),
                       "cpu": sum(op["cpu"] for op in ops),
                       "scaled_wall": sum(op["scaled_wall"] for op in ops),
                       "scaled_cpu": sum(op["scaled_cpu"] for op in ops),
                       "rss": max(op["rss"] for op in ops)})
    setup += probes(SETUP_WINDOW)
    for r in rounds:
        tally(r["ops"])
    values = {
        # means, not medians: the host's speed changes in stretches longer
        # than a round, and over ten runs the mean of rounds spreads less
        "wall_s": statistics.fmean(r["scaled_wall"] for r in rounds),
        "cpu_s": statistics.fmean(r["scaled_cpu"] for r in rounds),
        "peak_rss_mib": statistics.median(r["rss"] for r in rounds),
        "setup_s": statistics.median(scaled for scaled, _ in setup),
    }
    raw = {"setup_s": setup,
           "rounds": [{k: r[k] for k in ("wall", "cpu", "scaled_wall", "scaled_cpu", "rss")}
                      for r in rounds]}
    return values, attempted, failed, wrong, raw


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the result as a JSON line to this file")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "hx" / "cli.py").is_file() or not spec_path.is_file():
        print(f"run.py: {ROOT} is not an hx checkout (needs src/hx and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-{os.getpid()}"
    try:
        work.mkdir(parents=True)
        values, attempted, failed, wrong, raw = measure(workload, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    env = environment()
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} operations, {failed} failed", file=sys.stderr)
    print(json.dumps(env), file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:32} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps({"workload": workload.name, "seed": args.seed,
                                 "seconds": args.seconds, "trace": args.trace,
                                 "env": env, "raw": raw, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
