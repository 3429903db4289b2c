"""Shared pieces of the benchmark: paths, statistics, set-up probes and
the report every workload returns.

Every workload module exposes a ``run(...)`` returning a
:class:`Report`; ``run.py`` prints it as a table (one row per metric,
with unit and sample count) followed by one JSON result line.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent

#: Fresh set-ups measured per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


@dataclass
class Metric:
    value: float
    unit: str
    samples: int
    #: ``exact`` counters must repeat bit-for-bit across runs;
    #: ``timing`` ones depend on wall-clock interleaving; ``measured``
    #: covers times and ratios of times; ``offered`` is a rate the load
    #: generator's clock sets.
    kind: str = "measured"


@dataclass
class Report:
    attempted: int = 0
    failed: int = 0
    #: Human-readable reasons the outputs were judged wrong.
    errors: List[str] = field(default_factory=list)
    metrics: Dict[str, Metric] = field(default_factory=dict)

    def add(self, name: str, value: float, unit: str, samples: int = 1,
            kind: str = "measured") -> None:
        self.metrics[name] = Metric(float(value), unit, int(samples), kind)

    def error(self, message: str) -> None:
        self.errors.append(message)

    @property
    def correct(self) -> bool:
        return not self.errors


def repro_env() -> Dict[str, str]:
    """Environment for child interpreters that import ``repro``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def quantile(values: Sequence[float], q: float) -> float:
    """The Harrell-Davis estimate of the ``q``-quantile (0 < q < 1).

    A Beta-weighted mean of every order statistic rather than one or
    two of them: where a run's latencies form two clusters (cache hits
    and the hits that waited behind a miss's simulations) and the
    quantile falls near the boundary, a single order statistic jumps
    from one cluster to the other between runs; this estimate moves
    smoothly with the clusters' shares.
    """
    vals = sorted(values)
    n = len(vals)
    if not n:
        return math.nan
    if n == 1:
        return vals[0]
    a, b = q * (n + 1), (1 - q) * (n + 1)
    edges = [betainc(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * v for lo, hi, v in zip(edges, edges[1:], vals))


def betainc(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b), by its
    continued fraction (modified Lentz); pure Python, so that the
    benchmark process loads nothing that would count in peak_rss_mb."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def _beta_fraction(a: float, b: float, x: float) -> float:
    tiny = 1e-300

    def guard(v: float) -> float:
        return v if abs(v) > tiny else tiny

    c, d = 1.0, 1.0 / guard(1.0 - (a + b) * x / (a + 1))
    h = d
    for m in range(1, 500):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x
                    / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 / guard(1.0 + num * d)
            c = guard(1.0 + num / c)
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def per_case_quantile(samples: Dict[str, List[float]], q: float) -> float:
    """Geometric mean over cases of each case's ``q``-quantile.

    Workloads that mix cases of very different cost (a 0.5 s sort next
    to a 1.3 s PageRank) would put a plain median on the boundary
    between the two clusters; the per-case summary stays put.
    """
    return geomean([quantile(v, q) for v in samples.values() if v])


def overhead_ratio(traced: Dict[str, List[float]],
                   untraced: Dict[str, List[float]]) -> float:
    """Geometric mean over cases of traced time / untraced median, - 1."""
    return geomean([quantile(times, 0.5) / quantile(untraced[case], 0.5)
                    for case, times in traced.items()
                    if untraced.get(case)]) - 1.0


def peak_rss_mb() -> float:
    """Peak resident set of this process or any reaped descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def measure_setup(workload: str, scratch: Path) -> List[float]:
    """Time :data:`SETUP_REPEATS` fresh interpreters from spawn until
    ``setup_probe.py`` reports the workload ready to time."""
    times = []
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload,
             str(scratch / f"setup-{i}")],
            env=repro_env(), capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - t0
        if out.returncode != 0 or out.stdout.strip() != "ready":
            raise RuntimeError(f"set-up probe for {workload} failed:\n"
                               f"{out.stderr[-2000:]}")
        times.append(elapsed)
    return times


def add_common(report: Report, setup_times: List[float], ops: int,
               busy_seconds: float, latencies: Dict[str, List[float]],
               offered: bool = False) -> None:
    """The end-to-end metrics every workload reports.  ``offered``
    marks an open-loop rate, paced by the client's clock rather than by
    host speed."""
    report.add("setup_s", statistics.median(setup_times), "s",
               len(setup_times))
    report.add("ops_per_s", ops / busy_seconds, "1/s", ops,
               "offered" if offered else "measured")
    n = sum(len(v) for v in latencies.values())
    report.add("op_latency_s.p50", per_case_quantile(latencies, 0.5), "s", n)
    report.add("op_latency_s.p90", per_case_quantile(latencies, 0.9), "s", n)
    report.add("ok_ratio",
               (report.attempted - report.failed) / report.attempted,
               "ratio", report.attempted)
    report.add("peak_rss_mb", peak_rss_mb(), "MB", 1)


def spawn_probe(tasks: int = 4) -> float:
    """Seconds per task for :func:`robust_map` over a no-op: the
    harness's process spawn + IPC round trip with nothing to compute."""
    from repro.harness.parallel import robust_map
    t0 = time.perf_counter()
    results, failures = robust_map(_noop, [()] * tasks, jobs=2)
    elapsed = time.perf_counter() - t0
    if failures or results != [None] * tasks:
        raise RuntimeError(f"spawn probe failed: {failures}")
    return elapsed / tasks


def _noop() -> None:
    return None


def deadline_passed(start: float, seconds: float) -> bool:
    return time.perf_counter() - start >= seconds
