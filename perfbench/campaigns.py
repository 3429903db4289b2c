"""The ``campaigns_journaled`` workload: three figure campaigns through
their public sweep functions, each with ``jobs=2`` and a
:class:`~repro.harness.checkpoint.CheckpointStore` the benchmark opens
in a fresh directory.

An operation is one campaign cell.  Gap cells (the harness gave up on
them) count as failed operations; the figure digests are pinned with
those gaps in place, so a changed gap set is also a wrong answer.
"""

from __future__ import annotations

import re
import shutil
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from .common import (Report, add_common, deadline_passed,
                     overhead_ratio, spawn_probe)

_ATTEMPTS = re.compile(r"after (\d+) attempt\(s\)")


def campaigns() -> Dict[str, Tuple[Callable, Callable]]:
    """``name -> (sweep(checkpoint) -> figure, payload extractor)``."""
    from repro.resilience.sweep import default_workloads, resilience_sweep
    from repro.scheduler.sweep import tenancy_sweep
    from repro.streaming.sweep import degradation_sweep
    from repro.validation.digest import (resilience_payload,
                                         streaming_payload, tenancy_payload)
    return {
        "fig19-resilience": (
            lambda cp: resilience_sweep(
                workloads=default_workloads(8), trials=2, nodes=8, seed=0,
                jobs=2, checkpoint=cp),
            resilience_payload),
        "fig22-degradation": (
            lambda cp: degradation_sweep(nodes=8, seed=0, jobs=2,
                                         checkpoint=cp),
            streaming_payload),
        "fig23-tenancy": (
            lambda cp: tenancy_sweep(trials=2, nodes=8, seed=0, jobs=2,
                                     checkpoint=cp),
            tenancy_payload),
    }


class _Journal:
    """Times the public ``save`` of the store the sweep is handed."""

    def __init__(self) -> None:
        self.saves = 0
        self.save_s = 0.0
        self.open_s = 0.0

    def open(self, root: Path, name: str):
        from repro.harness.checkpoint import CheckpointStore
        t0 = time.perf_counter()
        store = CheckpointStore(root, {"benchmark": "campaigns_journaled",
                                       "campaign": name})
        self.open_s += time.perf_counter() - t0
        save = store.save

        def timed_save(key, payload):
            t0 = time.perf_counter()
            save(key, payload)
            self.save_s += time.perf_counter() - t0
            self.saves += 1

        store.save = timed_save
        return store


def campaign_op(name: str, scratch: Path, journal=None):
    """Run one campaign against a fresh journal; returns its figure."""
    from repro.harness.checkpoint import CheckpointStore
    sweep, _payload = campaigns()[name]
    root = scratch / f"journal-{name}"
    shutil.rmtree(root, ignore_errors=True)
    if journal is None:
        store = CheckpointStore(root, {"benchmark": "campaigns_journaled",
                                       "campaign": name})
    else:
        store = journal.open(root, name)
    try:
        return sweep(store)
    finally:
        store.close()
        shutil.rmtree(root, ignore_errors=True)


def summarize(name: str, fig) -> Dict[str, object]:
    """What is pinned for one campaign, including its gaps."""
    from repro.validation.digest import digest_payload
    _sweep, payload = campaigns()[name]
    gaps = [c for c in fig.cells if c.gap]
    attempts = len(fig.cells) - len(gaps)
    for gap in gaps:
        found = _ATTEMPTS.search(gap.gap_detail or "")
        attempts += int(found.group(1)) if found else 1
    return {"digest": digest_payload(payload(fig)),
            "cells": len(fig.cells), "gaps": len(gaps),
            "attempts": attempts}


def run(rng, seconds: float, trace: bool, setup_times, pins,
        scratch: Path) -> Report:
    report = Report()
    window = seconds / 2 if trace else seconds
    latencies: Dict[str, List[float]] = defaultdict(list)
    cells, busy = _loop(rng, window, report, pins, scratch, latencies)
    if not trace:
        add_common(report, setup_times, cells, busy, latencies)
        return report
    journal = _Journal()
    totals: Dict[str, float] = defaultdict(float)
    traced: Dict[str, List[float]] = defaultdict(list)
    # One traced cycle, so that its counters are exact.
    cells, _busy = _loop(rng, 0.0, report, pins, scratch, traced,
                        journal, totals)
    report.add("harness.parallel.tasks", totals["cells"], "count",
               totals["campaigns"], "exact")
    report.add("harness.parallel.attempts", totals["attempts"], "count",
               totals["campaigns"], "exact")
    report.add("harness.parallel.useful_ratio",
               (totals["cells"] - totals["gaps"]) / totals["attempts"],
               "ratio", totals["attempts"], "exact")
    report.add("harness.parallel.spawn_s", spawn_probe(), "s", 4)
    report.add("harness.checkpoint.saves", journal.saves, "count",
               journal.saves, "exact")
    report.add("harness.checkpoint.save_s", journal.save_s, "s",
               journal.saves)
    report.add("harness.checkpoint.open_s", journal.open_s, "s",
               totals["campaigns"])
    for field in ("faults.crashes", "faults.restarts", "faults.retries",
                  "streaming.sim_events", "scheduler.sim_events"):
        report.add(field, totals[field], "count", totals["campaigns"],
                   "exact")
    report.add("bench.trace_overhead_ratio",
               overhead_ratio(traced, latencies), "ratio", cells)
    return report


def _loop(rng, seconds, report, pins, scratch, latencies, journal=None,
          totals=None):
    cells, busy = 0, 0.0
    start = time.perf_counter()
    while True:
        names = sorted(campaigns())
        rng.shuffle(names)
        for name in names:
            t0 = time.perf_counter()
            fig = campaign_op(name, scratch, journal)
            dt = time.perf_counter() - t0
            latencies[name].append(dt)
            busy += dt
            got = summarize(name, fig)
            report.attempted += got["cells"]
            report.failed += got["gaps"]
            cells += got["cells"]
            pin = pins["campaigns_journaled"].get(name)
            if got != pin:
                report.error(f"{name}: got {got}, pinned {pin}")
                report.failed += got["cells"] - got["gaps"]
            if totals is not None:
                _tally(totals, name, fig, got)
        if deadline_passed(start, seconds):
            return cells, busy


def _tally(totals, name, fig, got) -> None:
    totals["campaigns"] += 1
    totals["cells"] += got["cells"]
    totals["gaps"] += got["gaps"]
    totals["attempts"] += got["attempts"]
    done = [c for c in fig.cells if not c.gap]
    if name == "fig19-resilience":
        totals["faults.crashes"] += sum(c.crashes for c in done)
        totals["faults.restarts"] += sum(c.restarts for c in done)
        totals["faults.retries"] += sum(c.retries for c in done)
    elif name == "fig22-degradation":
        totals["streaming.sim_events"] += sum(c.sim_events for c in done)
    else:
        totals["scheduler.sim_events"] += sum(c.events for c in done)


def compute_pins(scratch: Path) -> Dict[str, dict]:
    return {name: summarize(name, campaign_op(name, scratch))
            for name in sorted(campaigns())}
