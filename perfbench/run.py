"""robincheck benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0

Workloads are ``scan``, ``certify`` and ``bigexact`` (see workloads.py).
Each round is a fresh interpreter (round.py) that runs every operation of
the workload once on inputs drawn from the seed.  Every round of a run
gets the same inputs, and the number of rounds depends only on the
workload and ``--seconds``, so every run of a workload attempts the same
operations.  A fresh process per round gives every round the same cold
program caches, so no result computed in one round can be reused by the
next, and it makes set-up and peak memory the workload's own.  Times are
scaled by the machine's speed while they were taken (meter.py) and
reported as medians over the rounds.

Human-readable lines come first; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones.  With ``--trace 1`` rounds come in
pairs on the same inputs, one untraced and one with every layer function
wrapped (tracer.py); the metrics are the per-layer ones from the traced
rounds plus the tracing overhead against the untraced ones.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import numpy

from tracer import unit_of
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 170   # a run that is not done by then fails
MIN_ROUNDS = 3
MIN_SPEED_SAMPLES = 20   # fewer in a part, and the round's mean speed is used


class RoundFailed(Exception):
    pass


def run_round(workload, seed, index, traced, trace_mode, deadline):
    """One fresh round process: (setup seconds at the reference speed,
    report dict)."""
    cmd = [sys.executable, str(HERE / "round.py"), "--workload", workload,
           "--seed", str(seed), "--round", str(index),
           "--traced", str(int(traced)),
           "--trace-mode", str(int(trace_mode))]
    start = time.perf_counter()
    # unbuffered, so readline() takes the ready line and nothing after it
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, bufsize=0)
    try:
        ready, _, _ = select.select([proc.stdout], [], [],
                                    max(0, deadline - time.perf_counter()))
        line = proc.stdout.readline() if ready else b""
        setup_s = time.perf_counter() - start
        words = line.split()
        if len(words) != 2 or words[0] != b"ready":
            raise RoundFailed(f"no ready line (got {line.strip()[:200]!r})")
        setup_s *= float(words[1])
        out, err = proc.communicate(
            timeout=max(0, deadline - time.perf_counter()))
        out, err = out.decode(), err.decode()
    except subprocess.TimeoutExpired:
        raise RoundFailed(f"still running {RUN_LIMIT_S} s after the run began")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RoundFailed(f"round exited {proc.returncode}: {err.strip()[-2000:]}")
    return setup_s, json.loads(out.strip().splitlines()[-1])


def speed(r, part=None):
    """Round r's mean sampled speed during the part's operations, or
    during all its operations when part is None or got too few samples."""
    count, total = r["speed"].get(part, (0, 0.0))
    if count < MIN_SPEED_SAMPLES:
        count = sum(c for c, _ in r["speed"].values())
        total = sum(t for _, t in r["speed"].values())
    return total / count if count else 1.0


def part_time(r, part):
    """The part's time in round r at the reference speed (None if no
    operation of the part succeeded)."""
    ops = r["samples"].get(part)
    return sum(s[0] for s in ops) * speed(r, part) if ops else None


def samples(rounds, *parts):
    """(seconds at the reference speed, work) of every successful
    operation of the parts in the rounds."""
    return [(wall * speed(r, p), work) for r in rounds for p in parts
            for wall, _, work in r["samples"].get(p, [])]


def p50(ss):
    return median(s[0] for s in ss)


def p99(ss):
    walls = sorted(s[0] for s in ss)
    return walls[min(len(walls) - 1, int(0.99 * len(walls)))]


def rate(ss):
    return median(s[1] / s[0] for s in ss)


SCALE = {"us": 1e6, "ms": 1e3}  # times are kept in seconds

# Per-operation figures of each workload: (name, unit, parts, statistic).
OPERATIONS = {
    "scan": [(f"scan_1e{k}_n_per_s", "n/s", (f"scan_1e{k}",), rate)
             for k in (7, 9, 11)]
    + [("scan_jobs2_n_per_s", "n/s", ("scan_jobs2",), rate),
       ("cli_render_s", "s", ("cli_scan",), p50)],
    "certify": [
        ("check_p50_us", "us", ("check",), p50),
        ("check_p99_us", "us", ("check",), p99),
        ("sweep_checks_per_s", "1/s", ("sweep",), rate),
        ("search_s", "s", ("search",), p50),
        ("factor64_p50_ms", "ms", ("factor64",), p50),
    ],
    "bigexact": [
        ("bigcheck_s", "s", ("primorial",), p50),
        ("ca_check_s", "s", ("ca",), p50),
        ("table_rows_per_s", "1/s", ("table",), rate),
        ("cli_render_s", "s", ("cli_conjecture1", "cli_check"), p50),
    ],
}


def end_to_end(workload, rounds, setups):
    parts = {}
    for part in WORKLOADS[workload].gated:
        times = [t for r in rounds if (t := part_time(r, part)) is not None]
        if not times:
            raise RoundFailed(f"no successful operation in part {part}")
        parts[part] = median(times)
    return {
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (median(r["rss_mb"] for r in rounds), "MB"),
        "round_s": (sum(parts.values()), "s"),
        "parts_geomean_s": (
            math.exp(statistics.fmean(math.log(t) for t in parts.values())), "s"),
    }, parts


def per_layer(rounds, plan):
    traced = [r for r, t in zip(rounds, plan) if t]
    plain = [r for r, t in zip(rounds, plan) if not t]
    metrics = {}
    for name in traced[0]["layers"]:
        # layer self times are scaled like the operations that hold them
        unit = unit_of(name)
        metrics[name] = (median(r["layers"][name]
                                * (speed(r) if unit == "s" else 1)
                                for r in traced), unit)

    def total(r):
        return sum(t for p in r["samples"] if (t := part_time(r, p)) is not None)

    overhead = median(total(r) for r in traced) / median(total(r) for r in plain)
    metrics["trace.overhead_ratio"] = (overhead - 1, "ratio")
    return metrics


def environment():
    return (f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
            f"numpy={numpy.__version__} machine={platform.machine()}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    needed = [ROOT / "src" / "robincheck" / "__init__.py",
              ROOT / "tests" / "data" / "violators_2_5040.csv"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not a robincheck checkout, missing {missing}",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    count = max(MIN_ROUNDS, int(args.seconds // workload.nominal_round_s))
    # a traced run is pairs of rounds: untraced, then traced
    plan = [bool(args.trace and i % 2)
            for i in range(2 * max(1, count // 2) if args.trace else count)]
    rounds, setups = [], []
    cpu0 = os.times()
    start = time.perf_counter()
    try:
        for i, traced in enumerate(plan):
            setup_s, report = run_round(args.workload, args.seed, i, traced,
                                        bool(args.trace), start + RUN_LIMIT_S)
            rounds.append(report)
            setups.append(setup_s)
    except RoundFailed as exc:
        print(f"perfbench: {args.workload} round {len(rounds)}: {exc}",
              file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - start
    cpu1 = os.times()

    attempted = sum(sum(r["attempted"].values()) for r in rounds)
    failures = [f for r in rounds for f in r["failures"]]
    correct = all(r["correct"] for r in rounds)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={len(rounds)} wall={elapsed:.2f}s "
          f"cpu={cpu1.children_user + cpu1.children_system - cpu0.children_user - cpu0.children_system:.2f}s "
          f"{environment()}")
    kinds = {}
    for f in failures:
        kinds.setdefault((f["part"], f["kind"]), f["detail"])
    for (part, kind), detail in sorted(kinds.items()):
        count = sum(1 for f in failures if (f["part"], f["kind"]) == (part, kind))
        print(f"failed {part}: {count}x {kind}: {detail}")
    print(f"metric failed_ratio {len(failures) / attempted:.6g} ratio "
          f"({len(failures)} of {attempted} operations)")

    plain = [r for r, t in zip(rounds, plan) if not t]
    if args.trace:
        metrics = per_layer(rounds, plan)
        for r in rounds:
            for name in r.get("missing_layers", []):
                print(f"note: {name} not found, its layer reads 0")
    else:
        metrics, parts = end_to_end(args.workload, plain, setups)
        for part, t in parts.items():
            ss = [s for r in plain for s in r["samples"][part]]
            cpu = median(s[1] / s[0] for s in ss)
            wall = median(sum(s[0] for s in r["samples"][part]) for r in plain)
            speeds = " ".join(f"{speed(r, part):.3f}" for r in plain)
            print(f"part {part} {t:.6g} s per round at the reference speed "
                  f"(wall {wall:.6g} s, speed by round {speeds}, "
                  f"cpu/wall {cpu:.3f})")
        for name, unit, op_parts, statistic in OPERATIONS[args.workload]:
            ss = samples(plain, *op_parts)
            if ss:  # successful operations only
                value = statistic(ss) * SCALE.get(unit, 1)
                print(f"metric {name} {value:.6g} {unit} "
                      f"({len(ss)} samples)")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
