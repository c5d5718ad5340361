"""Set-up probe: one fresh process doing exactly the benchmark's set-up.

Usage: probe.py [WORKLOAD SEED WORKDIR] (``src`` must be on PYTHONPATH).
Prints one JSON line with CLOCK_MONOTONIC marks taken right after
``import matchgates.cli`` and, given a workload, when the first timed task
could start, that is after seeded input generation and the untimed warm-up
slice.
"""

import sys
import time

import matchgates.cli  # noqa: F401  (the import every mgh call pays)

imported = time.monotonic()

import json  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    if len(sys.argv) == 1:
        print(json.dumps({"imported": imported}))
        return 0
    from workloads import WORKLOADS, Mix

    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    if workload not in WORKLOADS:
        print(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    mix = Mix(WORKLOADS[workload], seed, workdir)
    failures = mix.warm_up()
    mix.tasks(0)
    ready = time.monotonic()
    mix.discard(0)
    print(json.dumps({"imported": imported, "ready": ready, "failures": failures}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
