"""Record the output digests of block 0 for the default seeds.

    python3 bench/record_digests.py

A run whose seed is recorded compares the digest of every block-0 job's
JSON output with ``digests.json`` and fails on a difference, so the
library's answers stay byte-identical across commits.  Re-record only
when the benchmark's inputs change (``pool.json``, ``inputs.py``).
"""

from __future__ import annotations

import json
import sys

import run

DEFAULT_SEEDS = range(1, 11)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import rpphilb.verify

    rows = rpphilb.verify.load_corpus()["rows"]
    recorded = {}
    for workload in run.inputs.WORKLOADS:
        recorded[workload] = {}
        for seed in DEFAULT_SEEDS:
            runner = run.Runner(workload, seed, rows if workload == "verify" else None)
            runner.recorded = {}
            for job in runner.block(0):
                runner.execute(job)
            if runner.failed:
                print("\n".join(runner.failures), file=sys.stderr)
                return 1
            recorded[workload][str(seed)] = runner.digests
    run.DIGESTS.write_text(json.dumps(recorded, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
