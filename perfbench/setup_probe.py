"""One fresh set-up of a workload, timed by the parent from spawn to the
``ready`` line: interpreter start, imports, building the workload's
inputs and, for the campaigns, opening a journal.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD SCRATCH_DIR`` (with
``src`` on ``PYTHONPATH``).
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


def main(workload: str, scratch: str) -> int:
    if workload == "figure_traced":
        from perfbench import sim
        import repro.harness.runner  # noqa: F401 - the timed entry point
        sim.cases(workload)
    elif workload == "campaigns_journaled":
        from perfbench import campaigns
        from repro.harness.checkpoint import CheckpointStore
        campaigns.campaigns()
        root = Path(scratch)
        try:
            CheckpointStore(root, {"benchmark": workload}).close()
        finally:
            shutil.rmtree(root, ignore_errors=True)
    else:
        raise SystemExit(f"no set-up probe for {workload!r}")
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
