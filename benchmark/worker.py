"""One pass of a workload in a fresh process.

Set-up (interpreter start, ``import nonassoc``, loading the registry,
building the seeded algebras) ends when the first claim starts; the pass
then runs every claim of the workload once, back to back, through
``claims.run_claim`` (the call ``nonassoc reproduce`` makes per claim).
The last line of standard output is one JSON object for ``run.py``.

    python3 benchmark/worker.py --workload NAME --seed N --trace 0|1 [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from nonassoc import claims  # noqa: E402

from workloads import WORKLOADS, SeededAlgebras, select_records  # noqa: E402


def run_pass(records, algebras, tracer=None, entry_points=()) -> dict:
    results = []
    cpu0 = os.times()
    t0 = time.monotonic()
    for rec in records:
        algebras.current = rec
        res = claims.run_claim(rec)
        results.append([res.claim_id, res.scope, res.ok, res.computed, res.seconds])
    wall = time.monotonic() - t0
    cpu1 = os.times()
    out = {
        "first_claim": t0,
        "wall_s": wall,
        "cpu_s": (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "claims": results,
    }
    if tracer is not None:
        out["trace"] = tracer.metrics()
        out["uncalled"] = [e for e in entry_points if not tracer.calls[e]]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    records = select_records(workload)
    algebras = SeededAlgebras(records, args.seed)
    undo = algebras.install()
    if args.setup_only:
        print(json.dumps({"first_claim": time.monotonic()}))
        return 0
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        out = run_pass(records, algebras, tracer, workload.entry_points)
    finally:
        if tracer is not None:
            tracer.uninstall()
        undo()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
