"""Benchmark entry point for the SPD and BP tensor-network engines.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it runs whole rounds of the workload, each in a fresh
``worker.py`` process, until ``S`` seconds have passed (at least one round),
and reports the medians of ``wall_s`` and ``peak_rss_mb`` over the rounds.
``setup_s`` is the median over the rounds' own set-up and over separate
set-up-only processes, started after one discarded warm-up that fills the
bytecode cache.  With ``--trace 1`` it runs one plain round and one traced
round and reports the per-layer metrics of the traced one, with the tracing
overhead (traced minus plain ``wall_s``).

Every round checks the program's results; an operation whose check fails is
counted in ``failed``.  The last line of standard output is the JSON result;
per-round figures and failed checks go to standard error.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
ROUND_TIMEOUT_S = 150
BUDGET_S = 150  # no round starts that the previous one says would end past this


def _unit(metric: str) -> str:
    if metric.endswith("_mb"):
        return "MiB"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("discarded_weight", "final_residual")):
        return "1"
    return "count"


def _worker(workload: str, seed: int, *flags: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), *flags]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"worker {' '.join(cmd[1:])} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _log_round(kind: str, rec: dict) -> None:
    failed = [(name, why) for name, why in rec["ops"] if why]
    print(f"{kind} round: wall_s={rec['wall_s']:.4f} setup_s={rec['setup_s']:.4f} "
          f"peak_rss_mb={rec['peak_rss_mb']:.1f} ops={len(rec['ops'])} "
          f"failed={len(failed)} csv_sha256={rec.get('csv_sha256', '-')}", file=sys.stderr)
    for name, why in failed:
        print(f"  FAILED {name}: {', '.join(why)}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (HERE.parent / "src" / "spdtn" / "__init__.py").is_file():
        print("error: no spdtn package under src/ next to perfbench/", file=sys.stderr)
        return 2

    begin = time.perf_counter()
    _worker(args.workload, args.seed, "--setup-only")  # warm-up, discarded
    if args.trace:
        plain = _worker(args.workload, args.seed)
        traced = _worker(args.workload, args.seed, "--trace")
        _log_round("plain", plain)
        _log_round("traced", traced)
        rounds = [plain, traced]
        values = dict(traced["layers"])
        values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    else:
        setups = [_worker(args.workload, args.seed, "--setup-only")["setup_s"]
                  for _ in range(SETUP_SAMPLES)]
        rounds = []
        first = time.perf_counter()
        while True:
            started = time.perf_counter()
            rounds.append(_worker(args.workload, args.seed))
            _log_round("timed", rounds[-1])
            now = time.perf_counter()
            if now - first >= args.seconds or now - begin + (now - started) > BUDGET_S:
                break
        setups += [r["setup_s"] for r in rounds]
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
        print(f"setup samples: {' '.join(f'{s:.4f}' for s in setups)}", file=sys.stderr)

    attempted = sum(len(r["ops"]) for r in rounds)
    failed = sum(1 for r in rounds for _, why in r["ops"] if why)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": _unit(m)} for m, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
