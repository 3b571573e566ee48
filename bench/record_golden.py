"""Record the golden sha256 digests of the default seed's job outputs.

    python3 bench/record_golden.py

Writes bench/golden.json: for each workload, every job that a run of the
default seed executes at BENCHMARK.json's run_seconds, as [job spec,
sha256 of the emitted bytes] in run order, taken from the same pass the
benchmark runs.  A longer run checks the jobs past the recorded rounds by
their invariants only.  Every job must pass its invariant checks before it is recorded.  Run it
only on a commit whose outputs are known good; a later change that
alters any recorded output then fails the benchmark's golden gate.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.load_package()
    import jobs
    import spans

    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    no_golden = {workload: [] for workload in jobs.WORKLOADS}
    recorded = {}
    for workload in jobs.WORKLOADS:
        caches = spans.CacheStats(spans.cache_inventory())
        result = run.run_pass(workload, jobs.DEFAULT_SEED, no_golden, caches,
                              jobs.run_rounds(workload, seconds))
        if result.failures:
            sys.exit(f"refusing to record: {result.failures[0][1]}")
        recorded[workload] = result.digests
        print(f"{workload}: {len(result.digests)} jobs", file=sys.stderr)
    parts = []
    for workload, entries in recorded.items():
        rows = ",\n".join("  " + json.dumps(list(entry)) for entry in entries)
        parts.append(f" {json.dumps(workload)}: [\n{rows}\n ]")
    body = ",\n".join(parts)
    run.GOLDEN_PATH.write_text(
        f'{{"default_seed": {jobs.DEFAULT_SEED}, "jobs": {{\n{body}\n}}}}\n'
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
