"""One round of one workload, in a fresh interpreter (started by run.py).

The process starts the speed meter (meter.py), imports robincheck from
the checkout's ``src``, does the workload's set-up and prints ``ready``
with the mean speed sampled so far; run.py times set-up from the spawn
to that line.  It then builds its seeded inputs (the same in
every round of a run), warms up, runs every operation of the round once
and prints one JSON line with the samples, failures, peak RSS and, when
traced, the per-layer aggregates.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import statistics
import sys
import types
from pathlib import Path

from meter import SpeedMeter

METER = SpeedMeter()
METER.start()   # before the imports, so that set-up is sampled too

from tracer import MODULES, Tracer  # noqa: E402
from workloads import WORKLOADS, Recorder


def load_robincheck(src: Path):
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("robincheck")
    if Path(pkg.__file__).resolve().parent != (src / "robincheck").resolve():
        raise SystemExit(f"robincheck imported from {pkg.__file__}, not {src}")
    return types.SimpleNamespace(**{
        m: importlib.import_module(f"robincheck.{m}") for m in MODULES})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, required=True,
                    help="index of this round in its run")
    ap.add_argument("--traced", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-mode", type=int, choices=(0, 1), default=0,
                    help="1 when this round is one of a traced run's pairs")
    args = ap.parse_args(argv)
    root = Path(__file__).resolve().parent.parent

    rc = load_robincheck(root / "src")
    tracer = None
    if args.traced:
        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload]()
    workload.setup(rc)
    setup_speed = statistics.fmean(METER.speeds) if METER.speeds else 1.0
    print(f"ready {setup_speed!r}", flush=True)

    workload.prepare(root)
    rng = random.Random(f"robincheck-bench:{args.workload}:{args.seed}")
    inputs = workload.inputs(rc, rng, args.round == 0)
    workload.warmup(rc)
    cache = getattr(rc.robin, "_LN_PRIME_CACHE", {})
    cache_before = len(cache)
    if tracer is not None:
        tracer.clear()

    rec = Recorder(METER)
    workload.run(rc, inputs, rec, bool(args.trace_mode))
    METER.stop()

    report = {
        "samples": rec.samples,
        "attempted": rec.attempted,
        "speed": rec.speed,
        "failures": rec.failures,
        "correct": rec.correct,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        layers = tracer.layer_metrics()
        calls = layers["robin.ln_prime_calls"]
        hits = calls - (len(cache) - cache_before)
        layers["robin.ln_prime_cache_hit_ratio"] = hits / calls if calls else 0.0
        report["layers"] = layers
        report["missing_layers"] = tracer.missing
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
