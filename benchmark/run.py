"""Registry benchmark: replay claims of the 330-claim registry and time them.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Each pass runs every claim of the
workload once, in a fresh process (``worker.py``) with NONASSOC_THREADS
pinned to the number of usable cores, and passes follow each other, one
at a time (a closed loop with one client).  A run makes at least
MIN_PASSES passes, and another one only while it is expected to end within
``--seconds``.  Each claim's time is the median over the run's passes, so
that a burst of load from outside that slows one pass does not move the
result.  Set-up is timed in every pass and in extra set-up-only
processes, and reported as a median.

--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced and
one traced pass and prints the per-layer metrics of the traced one.  Every
claim is checked against its recorded value, and every pass of a run must
give the same answers.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"

# set-up samples per run, pass processes included
SETUP_SAMPLES = 9
# passes per run, at least
MIN_PASSES = 3
# a run gives up, without a result, after this many seconds
RUN_LIMIT_S = 170.0
# claims that must lie beyond the reported tail
TAIL_BEYOND = 10


def tail(samples, beyond: int = TAIL_BEYOND):
    """(value, percentile) of the highest order statistic with at least
    ``beyond`` samples above it.  With ``beyond`` samples or fewer no such
    percentile exists, and the median is reported as the 50th."""
    xs = sorted(samples)
    n = len(xs)
    if n > beyond:
        k = n - beyond - 1
        return xs[k], 100.0 * (k + 1) / n
    return statistics.median(xs), 50.0


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def machine(seed: int, threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": usable_cores(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "NONASSOC_THREADS": threads,
        "seed": seed,
    }


class Launcher:
    """Starts worker processes one at a time under a shared deadline."""

    def __init__(self, workload: str, seed: int, threads: int):
        self.base = [sys.executable, str(HERE / "worker.py"),
                     "--workload", workload, "--seed", str(seed)]
        self.env = dict(os.environ, NONASSOC_THREADS=str(threads),
                        PYTHONPATH=str(ROOT / "src"))
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def run(self, *extra) -> tuple:
        """(set-up seconds, worker result) of one worker process."""
        spawned = time.monotonic()
        proc = subprocess.Popen(self.base + list(extra), cwd=ROOT, env=self.env,
                                stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - spawned))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError("worker %s ran past the run limit" % (extra,))
        if proc.returncode != 0:
            raise RuntimeError("worker %s exited with %d" % (extra, proc.returncode))
        result = json.loads(out.strip().splitlines()[-1])
        return result["first_claim"] - spawned, result


def claim_seconds(passes: list) -> list:
    """Each claim's median time over the passes, in claim order."""
    return [statistics.median(p["claims"][i][4] for p in passes)
            for i in range(len(passes[0]["claims"]))]


def end_to_end(passes: list, setups: list) -> dict:
    seconds = claim_seconds(passes)
    tail_s, _pct = tail(seconds)
    return {
        "wall_s": (sum(seconds), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "claim_tail_s": (tail_s, "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }


def per_layer(traced: dict, untraced: dict, units: dict) -> dict:
    values = dict(traced["trace"])
    by_scope = {}
    for _cid, scope, _ok, _computed, sec in traced["claims"]:
        by_scope[scope] = by_scope.get(scope, 0.0) + sec
    for name in units:
        if name.startswith("claims."):
            values[name] = by_scope.get(name[len("claims."):-len("_s")], 0.0)
    values["process.cpu_s"] = traced["cpu_s"]
    values["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    return {name: (values[name], units[name]) for name in units}


def answers(p: dict) -> dict:
    return {c[0]: c[3] for c in p["claims"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "nonassoc" / "__init__.py").is_file():
        print("error: no nonassoc sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print("error: unknown workload %r" % args.workload, file=sys.stderr)
        return 2

    threads = usable_cores()
    launch = Launcher(args.workload, args.seed, threads)
    setups, passes = [], []
    try:
        if args.trace:
            _setup, untraced = launch.run("--trace", "0")
            _setup, traced = launch.run("--trace", "1")
            passes = [untraced, traced]
        else:
            started = time.monotonic()
            while True:
                setup, result = launch.run("--trace", "0")
                setups.append(setup)
                passes.append(result)
                elapsed = time.monotonic() - started
                if (len(passes) >= MIN_PASSES
                        and elapsed + elapsed / len(passes) > args.seconds):
                    break
            while len(setups) < SETUP_SAMPLES:
                setups.append(launch.run("--setup-only")[0])
    except RuntimeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    ok = [c[2] for p in passes for c in p["claims"]]
    failed = ok.count(False)
    same = all(answers(p) == answers(passes[0]) for p in passes)
    correct = failed == 0 and same

    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = per_layer(traced, untraced, units)
        missing = traced["uncalled"]
        if missing:
            print("error: entry points never called: %s" % ", ".join(missing),
                  file=sys.stderr)
            correct = False
    else:
        metrics = end_to_end(passes, setups)

    seconds = claim_seconds(passes)
    _tail, pct = tail(seconds)
    print("machine: " + json.dumps(machine(args.seed, threads)))
    print("run: " + json.dumps({
        "workload": args.workload, "passes": len(passes),
        "claims_per_pass": len(passes[0]["claims"]), "setup_samples": len(setups),
        "claim_tail_percentile": round(pct, 2), "claim_samples": len(seconds),
        "pass_wall_s": [round(p["wall_s"], 3) for p in passes],
        "failed_frac": failed / len(ok), "same_answers": same,
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": len(ok),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
