"""Self-test of the tracer: traced work counts equal their closed forms.

    python3 perfbench/selftest.py

Runs one traced pass (``--workers 1``, master seed 2) of every workload from
the root of a source checkout and exits 1 unless every count in the
workload's ``counts`` table matches.  A mismatch means the tracer missed a
binding of a traced function, or the program now does a different amount
of work in that layer than when the closed forms were written.
"""

from __future__ import annotations

import sys
import time

import run


def main() -> int:
    if not run.have_sources():
        return 2
    ok = True
    with run.scratch_dir() as scratch:
        for name, workload in run.WORKLOADS.items():
            bench = run.Bench(workload, 2, scratch, time.monotonic() + 600)
            traced = bench.run_pass(1, traced=True)
            print(f"workload {name}")
            ok = run.check_counts(workload, [run.layer_metrics(run.merge_spans(traced))]) and ok
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
