"""The ``advisor_open_loop`` workload: a fresh ``repro serve`` process
driven by an open-loop asyncio client.

The client sends a seeded schedule (:func:`make_schedule`) at
:data:`RATE` requests per second over at most :data:`CONNECTIONS`
connections.  Each request is a capacity query from :func:`catalogue`,
Zipf-weighted; it is timed from when it was due, not from when it was
sent, so a stall also charges the requests queued behind it.  An answer
is correct when its ``answer_digest`` equals the digest
``plan_capacity_sync`` gives for the same query (pinned in
``pins.json``).
"""

from __future__ import annotations

import asyncio
import json
import random
import selectors
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .common import (BENCH_DIR, Report, add_common, quantile, repro_env,
                     spawn_probe)

#: Offered load (requests per second), below the knee where p90 stops
#: repeating from run to run.  Over a 36 s window the misses' forked
#: simulations then keep the two CPUs busy a small share of the time,
#: so few cache hits wait behind them.
RATE = 5.5
CONNECTIONS = 2
#: Zipf exponent: 198 requests then carry 43 distinct queries, about 26
#: of which need new simulations, so p90 falls among those misses and
#: p50 among cache hits (about 78% of requests).
ZIPF_S = 1.4
#: A generator that wakes later than this (p90) voids the run.
MAX_WAKE_LAG_S = 0.05
BANNER_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0

#: Per-workload SLOs (seconds), each met by some candidate at the first
#: feasible size of either ladder, so that every answer miss walks one
#: level (graph workloads: 2 nodes are infeasible without simulating)
#: and miss costs stay comparable.
SLOS = {
    "wordcount": (90.0, 120.0, 180.0),
    "grep": (50.0, 60.0, 90.0),
    "terasort": (80.0, 120.0, 180.0),
    "kmeans": (270.0, 400.0, 600.0),
    "pagerank": (1300.0, 1600.0, 2500.0),
    "connected-components": (800.0, 1000.0, 1500.0),
}
LADDERS = ((2, 4), (4, 8))
#: Graph workloads ignore ``data_scale``, so their distinct answers
#: share cached cells.
DATA_SCALES = (0.02, 0.05, 0.1)


def catalogue() -> List[Dict[str, object]]:
    """Every query the client may send, in popularity-rank order.

    The rank order is fixed (not drawn from the workload seed) so that
    every seed meets the same hot set.
    """
    out = [{"workload": w, "slo_seconds": slo,
            "nodes_candidates": list(ladder), "data_scale": scale}
           for w, slos in SLOS.items() for slo in slos
           for ladder in LADDERS for scale in DATA_SCALES]
    random.Random(0).shuffle(out)
    return out


def query_key(query: Dict[str, object]) -> str:
    return json.dumps(query, sort_keys=True)


def make_schedule(rng, seconds: float) -> List[Tuple[float, int]]:
    """``(due offset, catalogue index)`` pairs for one session.

    The session sends ``RATE * seconds`` requests carrying a
    Zipf-weighted multiset of the catalogue, rounded by largest
    remainder, so every seed sends the same queries and meets the same
    answer misses.  First requests for a query ("novel" ones) arrive as
    a jittered steady stream, in rank order, as a long-running service
    sees new questions; repeats arrive as a Poisson stream (uniform
    order statistics) and each asks a query already introduced,
    weighted by the copies it has left.
    """
    total = round(RATE * seconds)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(catalogue()))]
    scale = total / sum(weights)
    left = [int(w * scale) for w in weights]
    by_remainder = sorted(range(len(weights)),
                          key=lambda i: (left[i] - weights[i] * scale, i))
    for i in by_remainder[:total - sum(left)]:
        left[i] += 1
    fresh = [i for i, copies in enumerate(left) if copies]
    gap = seconds / len(fresh)
    events = [((j + 0.5 + rng.uniform(-0.25, 0.25)) * gap, query)
              for j, query in enumerate(fresh)]
    for query in fresh:
        left[query] -= 1
    events += [(rng.uniform(events[0][0], seconds), None)
               for _ in range(total - len(fresh))]
    events.sort(key=lambda e: e[0])
    out: List[Tuple[float, int]] = []
    seen: List[int] = []
    for due, query in events:
        if query is None:
            pool = [i for i in seen if left[i]] or [max(
                range(len(left)), key=lambda i: left[i])]
            query = rng.choices(pool, [left[i] for i in pool])[0]
            left[query] -= 1
        else:
            seen.append(query)
        out.append((due, query))
    return out


# ----------------------------------------------------------------------
# the service process
# ----------------------------------------------------------------------
class Service:
    """A service child started from a command line; ``start`` returns
    seconds from spawn to the listening banner."""

    def __init__(self, argv: List[str]) -> None:
        self.argv = argv
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.tail: List[str] = []

    def start(self) -> float:
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            self.argv, env=repro_env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        line = _readline(self.proc, BANNER_TIMEOUT_S)
        elapsed = time.perf_counter() - t0
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"service did not start: {line!r} "
                               f"{''.join(self.tail)}")
        self.port = int(line.split("listening on http://")[1]
                        .split()[0].rsplit(":", 1)[1])
        return elapsed

    def stop(self) -> int:
        """SIGTERM, wait for the drain, keep what it printed."""
        if self.proc is None:
            return 0
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            out, err = self.proc.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, err = self.proc.communicate()
        self.tail = (out or "").splitlines() + (err or "").splitlines()
        code = self.proc.returncode
        self.proc = None
        return code


def _readline(proc: subprocess.Popen, timeout: float) -> str:
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    try:
        if not sel.select(timeout):
            return ""
        return proc.stdout.readline()
    finally:
        sel.close()


def serve_argv(cache: Path, traced: bool) -> List[str]:
    if traced:
        return [sys.executable, str(BENCH_DIR / "traced_service.py"),
                str(cache)]
    return [sys.executable, "-m", "repro", "serve", "--port", "0",
            "--jobs", "2", "--cache", str(cache)]


# ----------------------------------------------------------------------
# the open-loop client
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    index: int
    due: float
    woke: float
    sent: float
    done: float
    status: int
    body: Optional[dict]


async def _http(port: int, method: str, path: str,
                payload: Optional[dict] = None) -> Tuple[int, Optional[dict]]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        body = b"" if payload is None else json.dumps(payload).encode()
        head = (f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n")
        writer.write(head.encode("ascii") + body)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    head, _, rest = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1]) if head else 0
    try:
        return status, json.loads(rest) if rest else None
    except ValueError:
        return status, None


async def _drive(port: int, schedule: List[Tuple[float, int]]
                 ) -> List[Outcome]:
    queries = catalogue()
    slots = asyncio.Semaphore(CONNECTIONS)
    loop = asyncio.get_running_loop()
    start = loop.time()

    async def one(due: float, index: int) -> Outcome:
        await asyncio.sleep(max(0.0, start + due - loop.time()))
        woke = loop.time() - start
        async with slots:
            sent = loop.time() - start
            try:
                status, body = await _http(port, "POST", "/v1/plan",
                                           queries[index])
            except OSError:
                status, body = 0, None
        return Outcome(index, due, woke, sent, loop.time() - start,
                       status, body)

    tasks = [asyncio.ensure_future(one(due, index))
             for due, index in schedule]
    return list(await asyncio.gather(*tasks))


def drive(port: int, schedule) -> Tuple[List[Outcome], Optional[dict]]:
    async def main():
        outcomes = await _drive(port, schedule)
        _status, statz = await _http(port, "GET", "/statz")
        return outcomes, statz
    return asyncio.run(main())


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------
def judge(report: Report, outcomes: List[Outcome], pins: Dict[str, str]
          ) -> None:
    queries = catalogue()
    for o in outcomes:
        report.attempted += 1
        key = query_key(queries[o.index])
        if o.status != 200 or o.body is None:
            report.failed += 1
            continue
        if o.body.get("answer_digest") != pins.get(key):
            report.failed += 1
            report.error(f"wrong answer for {key}: "
                         f"{o.body.get('answer_digest')} "
                         f"(pinned {pins.get(key)})")
    wake = quantile([o.woke - o.due for o in outcomes], 0.9)
    if wake > MAX_WAKE_LAG_S:
        report.error(f"load generator ran late (p90 wake lag {wake:.3f}s)"
                     f"; the run is void")


def _session(rng, seconds: float, scratch: Path, traced: bool,
             report: Report, pins, name: str):
    """Start a service on an empty cache, drive it, drain it."""
    cache = scratch / f"serve-cache-{name}"
    shutil.rmtree(cache, ignore_errors=True)
    service = Service(serve_argv(cache, traced))
    setup = service.start()
    try:
        outcomes, statz = drive(service.port,
                                make_schedule(rng, seconds))
    finally:
        code = service.stop()
        shutil.rmtree(cache, ignore_errors=True)
    if code != 0:
        report.error(f"service exited with {code}: {service.tail[-5:]}")
    judge(report, outcomes, pins)
    return setup, outcomes, statz, service.tail


def run(rng, seconds: float, trace: bool, pins, scratch: Path) -> Report:
    report = Report()
    pins = pins["advisor_open_loop"]
    if not trace:
        # Extra fresh starts so that setup_s is a median; the last
        # session is the measured one.
        setups = []
        for i in range(2):
            service = Service(serve_argv(scratch / f"serve-probe-{i}",
                                         traced=False))
            setups.append(service.start())
            service.stop()
            shutil.rmtree(scratch / f"serve-probe-{i}", ignore_errors=True)
        setup, outcomes, _statz, _tail = _session(
            rng, seconds, scratch, False, report, pins, "measured")
        setups.append(setup)
        latencies = [o.done - o.due for o in outcomes]
        span = max(o.done for o in outcomes) - min(o.due for o in outcomes)
        add_common(report, setups, len(outcomes), span,
                   {"plan": latencies}, offered=True)
        return report
    _s, plain, _statz, _tail = _session(rng, seconds / 2, scratch, False,
                                        report, pins, "untraced")
    _s, outcomes, statz, tail = _session(rng, seconds / 2, scratch, True,
                                         report, pins, "traced")
    layers = next((json.loads(line[len("layers "):]) for line in tail
                   if line.startswith("layers ")), None)
    if statz is None or layers is None:
        report.error("traced service reported no /statz or layer timings")
        return report
    ledger, cache = statz["ledger"], statz["cache"]
    n = len(outcomes)
    lookups = cache["hits"] + cache["misses"]
    report.add("serve.cache.hits", cache["hits"], "count", n, "timing")
    report.add("serve.cache.misses", cache["misses"], "count", n, "timing")
    report.add("serve.cache.hit_ratio", cache["hits"] / lookups, "ratio",
               lookups, "timing")
    report.add("serve.answer_hits", ledger["completed_cache_hits"], "count",
               n, "timing")
    report.add("serve.pool.attempts", ledger["sim_attempts"], "count", n,
               "timing")
    report.add("serve.pool.retries", ledger["sim_retried"], "count", n,
               "timing")
    report.add("serve.shed", ledger["shed"], "count", n, "timing")
    for label, flag in (("hit", True), ("miss", False)):
        lat = [o.done - o.due for o in outcomes
               if o.body is not None and o.body.get("cached") is flag]
        report.add(f"serve.{label}_latency_s.p50", quantile(lat, 0.5), "s",
                   len(lat))
    report.add("serve.cache.get_s", layers["cache_get_s"], "s",
               layers["cache_gets"])
    report.add("serve.cache.put_s", layers["cache_put_s"], "s",
               layers["cache_puts"])
    report.add("serve.pool.run_s", layers["pool_run_s"], "s",
               layers["pool_runs"])
    report.add("serve.planner.candidates_s", layers["candidates_s"], "s",
               layers["candidate_calls"])
    report.add("harness.checkpoint.saves", layers["saves"], "count",
               layers["saves"], "timing")
    report.add("harness.checkpoint.save_s", layers["save_s"], "s",
               layers["saves"])
    report.add("harness.checkpoint.open_s", layers["open_s"], "s", 1)
    report.add("loadgen.lag_s.p90",
               quantile([o.sent - o.due for o in outcomes], 0.9), "s", n)
    report.add("harness.parallel.spawn_s", spawn_probe(), "s", 4)
    p50 = quantile([o.done - o.due for o in plain], 0.5)
    report.add("bench.trace_overhead_ratio",
               quantile([o.done - o.due for o in outcomes], 0.5) / p50 - 1,
               "ratio", n)
    return report


def compute_pins() -> Dict[str, str]:
    """``plan_capacity_sync``'s answer digest for every catalogue query
    (one shared cell cache, as the service keeps)."""
    from repro.serve import CapacityQuery, plan_capacity_sync
    from repro.serve.cache import DigestCache
    cache = DigestCache()
    out = {}
    for query in catalogue():
        payload = plan_capacity_sync(CapacityQuery.from_payload(query),
                                     jobs=2, cache=cache)
        out[query_key(query)] = payload["answer_digest"]
    return out
