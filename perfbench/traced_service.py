"""The capacity-advisor service with its layer entry points timed.

Usage: ``python3 perfbench/traced_service.py CACHE_DIR`` (with ``src`` on
``PYTHONPATH``).  Starts the same service ``repro serve --port 0 --jobs 2
--cache CACHE_DIR`` starts, with the cache's ``get``/``put``, the worker
pool's ``run``, the planner's ``candidate_descriptors`` and the journal's
``save`` wrapped on their instances (or, for the planner, its module).
It prints the same banner; after the SIGTERM drain it prints one
``layers {...}`` JSON line with the time spent in each.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time


def main(cache_dir: str) -> int:
    from repro.harness.checkpoint import CheckpointStore
    from repro.serve import AdvisorService
    from repro.serve import planner

    layers = dict.fromkeys(
        ("open_s", "save_s", "saves", "cache_get_s", "cache_gets",
         "cache_put_s", "cache_puts", "pool_run_s", "pool_runs",
         "candidates_s", "candidate_calls"), 0)

    def timed(fn, seconds_key, count_key):
        def call(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                layers[seconds_key] += time.perf_counter() - t0
                layers[count_key] += 1
        return call

    t0 = time.perf_counter()
    store = CheckpointStore(cache_dir, {"campaign": "serve-cache",
                                        "version": 1},
                            resume=True, on_corrupt="quarantine")
    layers["open_s"] = time.perf_counter() - t0
    store.save = timed(store.save, "save_s", "saves")
    planner.candidate_descriptors = timed(
        planner.candidate_descriptors, "candidates_s", "candidate_calls")

    async def run() -> None:
        service = AdvisorService(port=0, jobs=2, cache_store=store)
        service.cache.get = timed(service.cache.get, "cache_get_s",
                                  "cache_gets")
        service.cache.put = timed(service.cache.put, "cache_put_s",
                                  "cache_puts")
        pool_run = service.pool.run

        async def timed_run(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return await pool_run(*args, **kwargs)
            finally:
                layers["pool_run_s"] += time.perf_counter() - t0
                layers["pool_runs"] += 1

        service.pool.run = timed_run
        await service.start()
        service.install_signal_handlers()
        print(f"repro serve listening on "
              f"http://{service.host}:{service.port} "
              f"(workers={service.pool.jobs}, "
              f"queue_limit={service.queue_limit})", flush=True)
        await service.serve_forever()
        print(f"drained; {service.ledger.describe()}", flush=True)

    asyncio.run(run())
    print("layers " + json.dumps(layers, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
