"""One measured run of one workload, in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N --out DIR [--trace] [--setup-only]

Times the set-up (``import lsrigid`` plus the coding stages) and then the
workload, and writes DIR/result.json.  run.py starts one of these per
sample; ``src`` of the checkout must be on PYTHONPATH.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    import workloads  # imports lsrigid: part of set-up

    tr = tracing.Tracer() if args.trace else tracing.NullTracer()
    found = workloads.Found()
    with tracing.patch(workloads.instrument(tr, found) if args.trace else []):
        ms, aug = workloads.setup(args.workload)
        setup_s = time.perf_counter() - T0
        result = {"setup_s": setup_s}
        if not args.setup_only:
            checks = workloads.Checks()
            t1 = time.perf_counter()
            outputs = workloads.run(args.workload, args.seed, out, tr, checks, found, ms, aug)
            result["run_s"] = time.perf_counter() - t1
            result["checks"] = checks.rows
            result["outputs"] = outputs
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace and not args.setup_only:
        result["layers"] = workloads.layer_metrics(tr, found)
        result["coverage"] = workloads.coverage(tr)
    import numpy
    import scipy

    result["versions"] = {
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
    }
    (out / "result.json").write_text(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    main()
