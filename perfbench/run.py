"""The repository benchmark: three seeded workloads, end-to-end metrics
with tracing off, per-layer metrics from a separate traced run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload figure_traced --seed 1 \\
        --seconds 20 --trace 0

prints one row per metric (value, unit, sample count) and, as its last
line, a JSON object ``{"correct", "attempted", "failed", "metrics"}``;
``--workload all`` does so for each workload in turn.
With ``--trace 0`` the metrics are the end-to-end ones of
:data:`END_TO_END`; with ``--trace 1`` the per-layer ones of
:data:`PER_LAYER`.  Outputs are checked against ``pins.json``; any
mismatch prints ``"correct": false`` and exits 1.

``--write-pins [WORKLOAD ...]`` recomputes the reference table from the
current program and rewrites ``pins.json`` (review the diff: the pins
are the correctness gate).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import (BENCH_DIR, ROOT, SRC,  # noqa: E402
                              measure_setup)
from perfbench.hostspeed import HostSpeed  # noqa: E402

WORKLOADS = ("figure_traced", "advisor_open_loop", "campaigns_journaled")
PINS = BENCH_DIR / "pins.json"

#: name -> (unit, better).  Every workload reports every one; times are
#: reference-speed host seconds.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_latency_s.p50": ("s", "lower"),
    "op_latency_s.p90": ("s", "lower"),
    "ok_ratio": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

_SIM = "ops_per_s on figure_traced"
_SERVE = "op_latency_s.p50/.p90 on advisor_open_loop"
_CAMPAIGN = "ops_per_s on campaigns_journaled"
#: name -> (unit, better, which end-to-end metric it should move, where).
PER_LAYER = {
    "cluster.simulation.events": ("count", "lower", _SIM),
    "cluster.simulation.cancelled_pops": ("count", "lower", _SIM),
    "cluster.simulation.events_per_s": ("1/s", "higher", _SIM),
    **{f"cluster.simulation.events.{k}": ("count", "lower", _SIM)
       for k in ("fluid_wakeup", "process_resume", "timeout", "other")},
    **{f"cluster.simulation.dispatch_s.{k}": ("s", "lower", _SIM)
       for k in ("fluid_wakeup", "process_resume", "timeout", "other")},
    "cluster.fluid.transfer_calls": ("count", "lower", _SIM),
    "cluster.fluid.transfer_s": ("s", "lower", _SIM),
    "cluster.fluid.flows_completed": ("count", "lower", _SIM),
    "cluster.fluid.flows_aborted": ("count", "lower", _SIM),
    "cluster.fluid.bytes_moved": ("B", "lower", _SIM),
    "cluster.trace.records": ("count", "lower", _SIM),
    "cluster.trace.record_s": ("s", "lower", _SIM),
    "core.correlate.resample_s": ("s", "lower", "ops_per_s on figure_traced"),
    "engines.executor_s": ("s", "lower", _SIM),
    "engines.run_s": ("s", "lower", _SIM),
    "workloads.jobs_s": ("s", "lower", _SIM),
    "cluster.deploy_s": ("s", "lower", _SIM + "; setup_s"),
    "harness.parallel.tasks": ("count", "higher", _CAMPAIGN),
    "harness.parallel.attempts": ("count", "lower", _CAMPAIGN),
    "harness.parallel.useful_ratio": ("ratio", "higher", _CAMPAIGN),
    "harness.parallel.spawn_s": ("s", "lower",
                                 _CAMPAIGN + "; none on figure_traced"),
    "harness.checkpoint.saves": ("count", "lower", _CAMPAIGN + "; " + _SERVE),
    "harness.checkpoint.save_s": ("s", "lower", _CAMPAIGN + "; " + _SERVE),
    "harness.checkpoint.open_s": ("s", "lower", "setup_s"),
    "faults.crashes": ("count", "lower", _CAMPAIGN),
    "faults.restarts": ("count", "lower", _CAMPAIGN),
    "faults.retries": ("count", "lower", _CAMPAIGN),
    "streaming.sim_events": ("count", "lower", _CAMPAIGN),
    "scheduler.sim_events": ("count", "lower", _CAMPAIGN),
    "serve.cache.hits": ("count", "higher", _SERVE),
    "serve.cache.misses": ("count", "lower", _SERVE),
    "serve.cache.hit_ratio": ("ratio", "higher", _SERVE),
    "serve.answer_hits": ("count", "higher", _SERVE),
    "serve.pool.attempts": ("count", "lower", _SERVE),
    "serve.pool.retries": ("count", "lower", _SERVE),
    "serve.shed": ("count", "lower", _SERVE),
    "serve.hit_latency_s.p50": ("s", "lower",
                                "op_latency_s.p50 on advisor_open_loop"),
    "serve.miss_latency_s.p50": ("s", "lower",
                                 "op_latency_s.p90 on advisor_open_loop"),
    "serve.cache.get_s": ("s", "lower", _SERVE),
    "serve.cache.put_s": ("s", "lower", _SERVE),
    "serve.pool.run_s": ("s", "lower", _SERVE),
    "serve.planner.candidates_s": ("s", "lower", _SERVE),
    "loadgen.lag_s.p90": ("s", "lower",
                          "validity only: a late generator voids the run"),
    "bench.trace_overhead_ratio": ("ratio", "lower",
                                   "none: the cost of the traced run"),
    "bench.host_speed_factor": ("ratio", "higher",
                                "none: reference loop speed during the run"),
}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 pins: dict, scratch: Path):
    """Run one workload under a host-speed sampler; end-to-end times
    come back in reference-speed host seconds (see ``hostspeed.py``)."""
    with HostSpeed() as speed:
        report = _dispatch(name, seed, seconds, trace, pins, scratch)
    if trace:
        report.add("bench.host_speed_factor", speed.factor, "ratio",
                   speed.samples)
        return report
    for metric in report.metrics.values():
        if metric.kind != "measured":
            continue
        if metric.unit == "s":
            metric.value *= speed.factor
        elif metric.unit == "1/s":
            metric.value /= speed.factor
    return report


def _dispatch(name: str, seed: int, seconds: float, trace: bool,
              pins: dict, scratch: Path):
    rng = random.Random(f"{name}/{seed}")
    if name == "advisor_open_loop":
        from perfbench import advisor
        return advisor.run(rng, seconds, trace, pins, scratch)
    setups = [] if trace else measure_setup(name, scratch)
    if name == "campaigns_journaled":
        from perfbench import campaigns
        return campaigns.run(rng, seconds, trace, setups, pins, scratch)
    from perfbench import sim
    return sim.run(name, rng, seconds, trace, setups, pins)


def print_report(name: str, report, trace: bool) -> None:
    wanted = PER_LAYER if trace else END_TO_END
    print(f"{name} ({'traced, per-layer' if trace else 'end-to-end'}): "
          f"{report.attempted} attempted, {report.failed} failed")
    for metric, spec in wanted.items():
        if metric not in report.metrics:
            # A layer this workload does not exercise.
            report.add(metric, 0.0, spec[0], 0, "unused")
        m = report.metrics[metric]
        moves = f"  -> {spec[2]}" if trace else ""
        print(f"  {metric:40s} {m.value:>16.6g} {m.unit:6s} "
              f"n={m.samples:<6d} {m.kind}{moves}")
    for error in report.errors:
        print(f"  ERROR: {error}")
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {k: {"value": report.metrics[k].value,
                        "unit": report.metrics[k].unit}
                    for k in wanted},
    }), flush=True)


def write_pins(names, scratch: Path) -> None:
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    for name in names or WORKLOADS:
        print(f"pinning {name} ...", file=sys.stderr, flush=True)
        if name == "advisor_open_loop":
            from perfbench import advisor
            pins[name] = advisor.compute_pins()
        elif name == "campaigns_journaled":
            from perfbench import campaigns
            pins[name] = campaigns.compute_pins(scratch)
        else:
            from perfbench import sim
            pins[name] = sim.compute_pins(name)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", nargs="*", metavar="WORKLOAD",
                        choices=WORKLOADS)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is "
              f"missing (run from a checkout of the repository)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    scratch = ROOT / ".perfbench" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.write_pins is not None:
            write_pins(args.write_pins, scratch)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        pins = json.loads(PINS.read_text())
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        correct = True
        for name in names:
            try:
                report = run_workload(name, args.seed, args.seconds,
                                      bool(args.trace), pins, scratch)
            except Exception:  # noqa: BLE001 - no result line on a crash
                traceback.print_exc()
                return 1
            print_report(name, report, bool(args.trace))
            correct = correct and report.correct
        return 0 if correct else 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run is using it


if __name__ == "__main__":
    sys.exit(main())
