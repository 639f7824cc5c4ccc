"""One fresh process: set up one workload, run it once under the clock, check it.

    python3 perfbench/worker.py --workload spd_deep --seed 0 [--trace] [--setup-only]

``run.py`` starts this script once per round and once per set-up sample, so
every measurement comes from a fresh interpreter, with sweeps on one worker.  The last
line of standard output is one JSON object: ``setup_s`` and, unless
``--setup-only``, ``wall_s``, ``peak_rss_mb``, the checked operations and,
for the ``sim sweep`` workloads, a digest of the CSV (it must not change from
run to run); with ``--trace`` also the per-layer metrics, and the spans are
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
sys.path.insert(0, str(HERE.parent / "src"))  # the checkout's own package

from workloads import WORKLOADS, instance_key  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT_DIR)

    start = time.perf_counter()
    workload.setup()
    report = {"setup_s": time.perf_counter() - start}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    if tracer is None:
        result = workload.run()
    else:
        with tracer.span("wall"):
            result = workload.run()
        tracer.uninstall()
    report["wall_s"] = time.perf_counter() - start
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    refs = json.loads((HERE / "references.json").read_text())
    report["ops"] = workload.check(result, refs[instance_key(args.seed)]).ops
    csv_path = getattr(workload, "csv_path", None)
    if csv_path is not None:
        import hashlib  # only after the peak-RSS reading: it maps libcrypto

        report["csv_sha256"] = hashlib.sha256(csv_path.read_bytes()).hexdigest()[:16]
    if tracer is not None:
        report["layers"] = tracer.metrics()
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
