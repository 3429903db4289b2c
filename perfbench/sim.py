"""The in-process simulation workload ``figure_traced``.

An operation is one simulated run.  Untraced runs go through the public
entry point ``run_correlated``.  The traced run drives the same public steps
as ``run_once`` (Cluster -> HDFS import -> engine -> ``engine.run``)
from this file, with a kernel observer on ``Simulation.observers`` and
the fluid scheduler's public entry points wrapped on the instance; its
simulated durations and event counts must equal the untraced ones.
"""

from __future__ import annotations

import gc
import time
from collections import defaultdict
from typing import Dict, List, Tuple

from .common import (Report, add_common, deadline_passed,
                     overhead_ratio, spawn_probe)

TiB = float(2 ** 40)

#: Simulation seeds a run draws from; every (case, seed) pair is pinned.
SIM_SEEDS = (0, 1, 2)

KINDS = ("fluid_wakeup", "process_resume", "timeout", "other")


def cases(workload: str) -> Dict[str, Tuple[str, object, object]]:
    """``case name -> (engine, workload object, config)``."""
    from repro.config.presets import medium_graph_preset, terasort_preset
    from repro.workloads import PageRank, TeraSort
    from repro.workloads.datagen.graphs import MEDIUM_GRAPH
    out = {}
    if workload == "figure_traced":
        graph_cfg = medium_graph_preset(55)
        rank = PageRank(MEDIUM_GRAPH, iterations=20,
                        edge_partitions=graph_cfg.spark.edge_partitions)
        sort_cfg = terasort_preset(97)
        sort = TeraSort(3.5 * TiB,
                        num_partitions=sort_cfg.flink.default_parallelism)
        for engine in ("flink", "spark"):
            out[f"{engine}/pagerank-medium-55"] = (engine, rank, graph_cfg)
            out[f"{engine}/terasort-3.5TiB-97"] = (engine, sort, sort_cfg)
    else:
        raise ValueError(workload)
    return out


def panels_digest(frames) -> str:
    from repro.validation.digest import digest_payload
    return digest_payload({
        metric.value: {"times": list(f.times), "mean": list(f.mean),
                       "total": list(f.total)}
        for metric, f in frames.items()})


def untraced_op(case) -> Dict[str, object]:
    """One run through the public entry point; returns what is pinned."""
    from repro.harness.runner import run_correlated
    engine, wl, cfg, seed = case
    run = run_correlated(engine, wl, cfg, seed=seed)
    return {"duration": run.result.duration,
            "events": run.result.sim_events, "_frames": run.frames}


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------
class LayerProbe:
    """Counters and busy times per layer, summed over traced runs.

    Registered on ``Simulation.observers``: each heap pop closes the
    previous event's window (the gap between pops is that event's
    dispatch) and opens a window for the event just popped.
    """

    def __init__(self) -> None:
        from repro.cluster.fluid import FluidScheduler
        from repro.cluster.simulation import Process, Timeout
        self._wakeup = FluidScheduler._on_wakeup
        self._resume = Process._resume
        self._timeout = Timeout
        self.events = dict.fromkeys(KINDS, 0)
        self.dispatch_s = dict.fromkeys(KINDS, 0.0)
        self.cancelled_pops = 0
        self.fluid_calls = 0
        self.fluid_s = 0.0
        #: Fluid entry-point time spent inside each event kind's dispatch.
        self.fluid_s_in = dict.fromkeys(KINDS, 0.0)
        self.deploy_s = self.jobs_s = self.run_s = 0.0
        self.resample_s = 0.0
        self.flows_completed = self.flows_aborted = 0
        self.bytes_moved = 0.0
        self.trace_records = 0
        self._current = None
        self._opened = 0.0

    # -- kernel observer -----------------------------------------------
    def on_kernel_step(self, sim, when, event, pre_triggered,
                       cancelled) -> None:
        now = time.perf_counter()
        if self._current is not None:
            self.dispatch_s[self._current] += now - self._opened
        if cancelled:
            self.cancelled_pops += 1
            self._current = None
        else:
            kind = self._classify(event)
            self.events[kind] += 1
            self._current = kind
        self._opened = time.perf_counter()

    def close_window(self) -> None:
        if self._current is not None:
            self.dispatch_s[self._current] += (time.perf_counter()
                                               - self._opened)
            self._current = None

    def _classify(self, event) -> str:
        if type(event) is self._timeout:
            return "timeout"
        for cb in event.callbacks:
            func = getattr(cb, "__func__", None)
            if func is self._wakeup:
                return "fluid_wakeup"
            if func is self._resume:
                return "process_resume"
        return "other"

    # -- fluid entry points --------------------------------------------
    def wrap_fluid(self, fluid) -> None:
        for name in ("transfer", "transfer_many", "abort_flows",
                     "rescale_capacity"):
            setattr(fluid, name, self._timed(getattr(fluid, name)))

    def _timed(self, fn):
        def call(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.fluid_calls += 1
                self.fluid_s += dt
                if self._current is not None:
                    self.fluid_s_in[self._current] += dt
        return call


def traced_op(case, probe: LayerProbe) -> Dict[str, object]:
    """``run_once``'s public steps, instrumented; returns what is pinned
    plus the run's exact counters."""
    from repro.cluster.topology import Cluster
    from repro.engines.flink.engine import FlinkEngine
    from repro.engines.spark.engine import SparkEngine
    from repro.hdfs.filesystem import HDFS
    engine_name, wl, cfg, seed = case
    before = sum(probe.events.values())
    t0 = time.perf_counter()
    cluster = Cluster(cfg.nodes, seed=seed, trace_detail="full")
    cluster.sim.observers.append(probe)
    hdfs = HDFS(cluster, block_size=cfg.hdfs_block_size, seed=seed)
    for path, size in wl.input_files():
        hdfs.create_file(path, size)
    probe.close_window()
    probe.deploy_s += time.perf_counter() - t0
    probe.wrap_fluid(cluster.fluid)
    if engine_name == "spark":
        engine = SparkEngine(cluster, hdfs, cfg.spark)
    else:
        engine = FlinkEngine(cluster, hdfs, cfg.flink)
    t0 = time.perf_counter()
    plans = list(wl.jobs(engine_name))
    probe.jobs_s += time.perf_counter() - t0
    merged = None
    for plan in plans:
        t0 = time.perf_counter()
        result = engine.run(plan)
        probe.close_window()
        probe.run_s += time.perf_counter() - t0
        # run_once's merge of multi-job workloads.
        if merged is None:
            merged = result
            merged.workload = wl.name
        else:
            merged.jobs.extend(result.jobs)
            merged.end = result.end
            merged.stage_windows.extend(result.stage_windows)
            for key, value in result.metrics.items():
                merged.metrics[key] = merged.metrics.get(key, 0.0) + value
            if not result.success:
                merged.success = False
                merged.failure = result.failure
        if not result.success:
            break
    cluster.sim.observers.remove(probe)
    if not merged.success:
        raise RuntimeError(merged.failure)
    observed = sum(probe.events.values()) - before
    if observed != cluster.sim.steps_executed:
        raise RuntimeError(f"kernel observer saw {observed} events, the "
                           f"kernel counted {cluster.sim.steps_executed}")
    fluid = cluster.fluid
    out = {"duration": merged.duration,
           "events": cluster.sim.steps_executed,
           "flows_completed": fluid.completed_count,
           "flows_aborted": fluid.aborted_count,
           "trace_records": trace_records(cluster)}
    probe.flows_completed += fluid.completed_count
    probe.flows_aborted += fluid.aborted_count
    probe.bytes_moved += fluid.total_bytes_moved
    probe.trace_records += out["trace_records"]
    from repro.core.correlate import correlate
    t0 = time.perf_counter()
    run = correlate(cluster, merged, step=1.0)
    probe.resample_s += time.perf_counter() - t0
    out["_frames"] = run.frames
    return out


def trace_records(cluster) -> int:
    """Points in every capacity's throughput and utilisation series."""
    return sum(len(cap.throughput.times) + len(cap.utilisation.times)
               for node in cluster.nodes
               for cap in (node.cpu, node.disk, node.nic_in, node.nic_out))


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def check(report: Report, pins: Dict[str, dict], key: str,
          out: Dict[str, object], fields: Tuple[str, ...]) -> bool:
    """Compare one run's outputs with the pinned table; True if equal."""
    pin = pins.get(key)
    if pin is None:
        report.error(f"{key}: no pinned reference")
        return False
    got = dict(out)
    if "_frames" in got:
        got["panels_digest"] = panels_digest(got.pop("_frames"))
    bad = [f"{f}={got.get(f)!r} (pinned {pin.get(f)!r})"
           for f in fields if got.get(f) != pin.get(f)]
    if bad:
        report.error(f"{key}: " + ", ".join(bad))
        return False
    return True


def pin_key(case_name: str, seed: int) -> str:
    return f"{case_name}@seed{seed}"


def pinned_fields(traced: bool) -> Tuple[str, ...]:
    fields = ("duration", "events", "panels_digest")
    if traced:
        fields += ("flows_completed", "flows_aborted", "trace_records")
    return fields


def schedule(rng, workload: str):
    """One cycle: every case once, in a seeded order, each with a seed
    drawn from :data:`SIM_SEEDS`."""
    table = cases(workload)
    names = sorted(table)
    rng.shuffle(names)
    return [(name, table[name] + (rng.choice(SIM_SEEDS),))
            for name in names]


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------
def run(workload: str, rng, seconds: float, trace: bool, setup_times,
        pins: Dict[str, dict]) -> Report:
    report = Report()
    window = seconds / 2 if trace else seconds
    ops, busy, latencies = _untraced(workload, rng, window, report, pins)
    if not trace:
        add_common(report, setup_times, ops, busy, latencies)
        return report
    _traced(workload, rng, report, pins, latencies)
    return report


def _untraced(workload, rng, seconds, report, pins):
    # The set-up ``setup_s`` times in fresh interpreters, done here
    # untimed so that the first operation does not pay for imports.
    import repro.harness.runner  # noqa: F401
    fields = pinned_fields(traced=False)
    latencies: Dict[str, List[float]] = defaultdict(list)
    ops, busy = 0, 0.0
    start = time.perf_counter()
    while True:
        for name, case in schedule(rng, workload):
            report.attempted += 1
            # Untimed: garbage left by the previous run's traces is not
            # charged to this one.
            gc.collect()
            t0 = time.perf_counter()
            try:
                out = untraced_op(case)
            except Exception as exc:  # noqa: BLE001 - counted, reported
                report.failed += 1
                report.error(f"{name}: {type(exc).__name__}: {exc}")
                continue
            dt = time.perf_counter() - t0
            latencies[name].append(dt)
            busy += dt
            ops += 1
            if not check(report, pins[workload], pin_key(name, case[3]),
                         out, fields):
                report.failed += 1
        if deadline_passed(start, seconds):
            return ops, busy, latencies


def _traced(workload, rng, report, pins, untraced):
    """One traced cycle, so that its counters are exact for the seed."""
    fields = pinned_fields(traced=True)
    probe = LayerProbe()
    ops, busy = 0, 0.0
    latencies: Dict[str, List[float]] = defaultdict(list)
    detail_s = {"full": 0.0, "off": 0.0}
    for name, case in schedule(rng, workload):
        report.attempted += 1
        t0 = time.perf_counter()
        try:
            out = traced_op(case, probe)
        except Exception as exc:  # noqa: BLE001 - counted, reported
            report.failed += 1
            report.error(f"{name}: {type(exc).__name__}: {exc}")
            continue
        dt = time.perf_counter() - t0
        latencies[name].append(dt)
        busy += dt
        ops += 1
        key = pin_key(name, case[3])
        if not check(report, pins[workload], key, out, fields):
            report.failed += 1
        # Trace layer: the same run through run_once with traces full
        # and off; simulated results must not depend on the detail.
        for mode in ("full", "off"):
            t0 = time.perf_counter()
            plain = plain_run(case, mode)
            detail_s[mode] += time.perf_counter() - t0
            if (plain["duration"], plain["events"]) != (out["duration"],
                                                        out["events"]):
                report.error(f"{key}: trace_detail={mode} changed the "
                             f"run ({plain} vs {out['duration']})")
    if not ops:
        return
    events = sum(probe.events.values())
    report.add("cluster.simulation.events", events, "count", ops, "exact")
    report.add("cluster.simulation.cancelled_pops", probe.cancelled_pops,
               "count", ops, "exact")
    report.add("cluster.simulation.events_per_s", events / busy, "1/s", ops)
    for kind in KINDS:
        report.add(f"cluster.simulation.events.{kind}", probe.events[kind],
                   "count", ops, "exact")
        report.add(f"cluster.simulation.dispatch_s.{kind}",
                   probe.dispatch_s[kind], "s", probe.events[kind])
    report.add("cluster.fluid.transfer_calls", probe.fluid_calls, "count",
               ops, "exact")
    report.add("cluster.fluid.transfer_s", probe.fluid_s, "s",
               probe.fluid_calls)
    report.add("cluster.fluid.flows_completed", probe.flows_completed,
               "count", ops, "exact")
    report.add("cluster.fluid.flows_aborted", probe.flows_aborted, "count",
               ops, "exact")
    report.add("cluster.fluid.bytes_moved", probe.bytes_moved, "B", ops,
               "exact")
    report.add("cluster.trace.records", probe.trace_records, "count", ops,
               "exact")
    report.add("cluster.trace.record_s",
               detail_s["full"] - detail_s["off"], "s", ops)
    report.add("core.correlate.resample_s", probe.resample_s, "s", ops)
    report.add("engines.run_s", probe.run_s, "s", ops)
    report.add("engines.executor_s",
               probe.dispatch_s["process_resume"]
               - probe.fluid_s_in["process_resume"], "s",
               probe.events["process_resume"])
    report.add("workloads.jobs_s", probe.jobs_s, "s", ops)
    report.add("cluster.deploy_s", probe.deploy_s, "s", ops)
    report.add("harness.parallel.spawn_s", spawn_probe(), "s", 4)
    report.add("bench.trace_overhead_ratio",
               overhead_ratio(latencies, untraced), "ratio", ops)


def plain_run(case, detail: str) -> Dict[str, object]:
    from repro.harness.runner import run_once
    engine, wl, cfg, seed = case
    result = run_once(engine, wl, cfg, seed=seed, trace_detail=detail)
    return {"duration": result.duration, "events": result.sim_events}


def compute_pins(workload: str) -> Dict[str, dict]:
    """The reference table: every (case, seed) run once, traced, with
    parity against the untraced entry point."""
    pins = {}
    for name, base in sorted(cases(workload).items()):
        for seed in SIM_SEEDS:
            case = base + (seed,)
            out = traced_op(case, LayerProbe())
            plain = untraced_op(case)
            if (plain["duration"], plain["events"]) != (out["duration"],
                                                        out["events"]):
                raise RuntimeError(f"{name}: traced run diverged")
            if "_frames" in out:
                out["panels_digest"] = panels_digest(out.pop("_frames"))
            pins[pin_key(name, seed)] = out
    return pins
