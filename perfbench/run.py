"""lsrigid benchmark: one command for every workload, with output checks.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  --seconds defaults to run_seconds of
BENCHMARK.json.  Every sample is a fresh child interpreter
(perfbench/child.py), one at a time, single-threaded.  With --trace 0 the
command reports the end-to-end metrics of BENCHMARK.json as medians over the
samples; with --trace 1 it alternates untraced and traced samples and reports
the per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; a run without a complete sample prints it with correct false and
no metrics.  The exit code is 0 only when every output check passed.
Full records go to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

MIN_SAMPLES = 2  # untraced samples per run: enough for the determinism probe
MIN_SETUPS = 5  # set-up samples per untraced run, topped up by set-up-only children
RUN_LIMIT_S = 170  # a run must end within 180 s
COVERAGE_FLOOR = 0.9  # layer spans must cover this share of the traced workload time


class Run:
    """Samples, checks and environment of one workload run."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload, self.seed, self.trace = workload, seed, trace
        self.samples: list[dict] = []  # untraced workload samples
        self.traced: list[dict] = []
        self.setups: list[float] = []
        self.checks: list[dict] = []
        self.env: dict = {}

    def check(self, name: str, attempted: int, failed: int, detail: str = "") -> None:
        self.checks.append({"name": name, "attempted": attempted, "failed": failed, "detail": detail})

    @property
    def attempted(self) -> int:
        return sum(c["attempted"] for c in self.checks)

    @property
    def failed(self) -> int:
        return sum(c["failed"] for c in self.checks)


def child(run: Run, tag: str, deadline: float, trace=False, setup_only=False) -> dict | None:
    """Result of one child interpreter; a crash or timeout is a failed operation."""
    out = WORK / "runs" / f"{run.workload}-{run.seed}-{tag}"
    shutil.rmtree(out, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", run.workload,
           "--seed", str(run.seed), "--out", str(out)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        run.check(f"{tag} finished", 1, 1, "timed out")
        return None
    try:
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-3:]
            run.check(f"{tag} finished", 1, 1, f"exit {proc.returncode}: {' | '.join(tail)}")
            print(proc.stderr, file=sys.stderr)
            return None
        return json.loads((out / "result.json").read_text())
    finally:
        shutil.rmtree(out, ignore_errors=True)


def sample(run: Run, tag: str, deadline: float, trace: bool) -> bool:
    result = child(run, tag, deadline, trace=trace)
    if result is None:
        return False
    if trace:
        run.traced.append(result)
    else:
        run.samples.append(result)
        run.setups.append(result["setup_s"])
    for c in result["checks"]:
        run.check(**c)
    return True


def measure(run: Run, seconds: float, started: float) -> None:
    """Samples until the next one is expected to overrun --seconds (closed loop).

    An untimed set-up-only child first warms the file and bytecode caches.  A
    traced run alternates untraced and traced samples, untraced first.  An
    untraced run then fills what is left of the window with set-up-only
    children, and takes at least MIN_SETUPS set-up samples in all.
    """
    deadline = started + RUN_LIMIT_S
    now = time.monotonic()
    if child(run, "warmup", deadline, setup_only=True) is None:
        return
    setup_took = time.monotonic() - now
    took: list[float] = []
    for n, trace in enumerate(itertools.cycle([False, True] if run.trace else [False])):
        now = time.monotonic()
        enough = len(run.samples) >= MIN_SAMPLES or (run.trace and run.samples and run.traced)
        if took and ((enough and now - started + sum(took) / len(took) > seconds)
                     or now + max(took) > deadline):
            break
        if not sample(run, f"s{n}", deadline, trace):
            return
        took.append(time.monotonic() - now)
    while not run.trace and time.monotonic() + 10 < deadline:
        now = time.monotonic()
        if len(run.setups) >= MIN_SETUPS and now - started + setup_took > seconds:
            break
        result = child(run, f"setup{len(run.setups)}", deadline, setup_only=True)
        if result is None:
            return
        run.setups.append(result["setup_s"])
        setup_took = time.monotonic() - now


def cross_checks(run: Run) -> None:
    # outputs hold v*, witness lengths, verdicts and artifact digests (manifest.json
    # is not digested: it records argv and wall time)
    untraced = [s["outputs"] for s in run.samples]
    if len(untraced) >= 2:
        same = all(o == untraced[0] for o in untraced[1:])
        run.check("determinism: identical outputs and artifact digests across samples", 1, 0 if same else 1,
                  f"{len(untraced)} untraced samples")
    if run.traced and untraced:
        same = all(t["outputs"] == untraced[0] for t in run.traced)
        run.check("traced and untraced give identical v*, witness lengths, verdicts", 1, 0 if same else 1)
        low = min(t["coverage"] for t in run.traced)
        run.check(f"layer spans cover >= {COVERAGE_FLOOR:.0%} of traced time", 1,
                  0 if low >= COVERAGE_FLOOR else 1, f"lowest coverage {low:.3f}")


def environment() -> dict:
    commit = "unknown"  # a checkout without .git is identified by source_sha256
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def metrics(run: Run, spec: dict) -> dict:
    if run.trace:
        wanted = spec["per_layer"]
        values = {m["name"]: stats.summary([t["layers"][m["name"]] for t in run.traced])["median"]
                  for m in wanted if m["name"] != "trace.overhead_s"}
        values["trace.overhead_s"] = (
            stats.summary([t["run_s"] for t in run.traced])["median"]
            - stats.summary([s["run_s"] for s in run.samples])["median"]
        )
    else:
        wanted = spec["end_to_end"]
        values = {
            "setup_s": stats.summary(run.setups)["median"],
            "run_s": stats.summary([s["run_s"] for s in run.samples])["median"],
            "peak_rss_mb": stats.summary([s["peak_rss_mb"] for s in run.samples])["median"],
        }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}


def report(run: Run, spec: dict) -> dict | None:
    print(f"== {run.workload}  seed {run.seed}  trace {int(run.trace)}")
    grouped: dict[str, list[dict]] = {}
    for c in run.checks:
        grouped.setdefault(c["name"], []).append(c)
    for name, rows in grouped.items():
        attempted = sum(c["attempted"] for c in rows)
        failed = [c for c in rows if c["failed"]]
        state = f"FAILED {sum(c['failed'] for c in failed)}/{attempted}" if failed else f"ok {attempted}/{attempted}"
        print(f"check {name}: {state} ({(failed or rows)[-1]['detail'] or 'no detail'})")
    rate = run.failed / run.attempted if run.attempted else 1.0
    if not run.samples or (run.trace and not run.traced):
        print(f"error_rate {rate:.6g} (no complete sample)")
        return None
    found = metrics(run, spec)
    print(stats.describe("setup_s", stats.summary(run.setups), "s"))
    print(stats.describe("run_s", stats.summary([s["run_s"] for s in run.samples]), "s"))
    if run.trace:
        print(stats.describe("traced run_s", stats.summary([t["run_s"] for t in run.traced]), "s")
              + f", trace.overhead_s {found['trace.overhead_s']['value']:.6g} s")
    print(stats.describe("peak_rss_mb", stats.summary([s["peak_rss_mb"] for s in run.samples]), "MB"))
    print(f"error_rate {rate:.6g} ratio ({run.failed} of {run.attempted} operations failed)")
    if run.trace:
        for name, m in found.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
    env = dict(run.env, versions=run.samples[0]["versions"])
    print("env " + json.dumps(env, sort_keys=True))
    record = {"workload": run.workload, "seed": run.seed, "trace": run.trace, "env": env,
              "checks": run.checks, "setups": run.setups, "samples": run.samples,
              "traced": run.traced, "metrics": found}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{run.workload}-seed{run.seed}-trace{int(run.trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file() or not (ROOT / "src" / "lsrigid" / "__init__.py").is_file():
        print(f"error: {ROOT} is not an lsrigid checkout (needs BENCHMARK.json and src/lsrigid)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    started = time.monotonic()
    run = Run(args.workload, args.seed, bool(args.trace))
    run.env = dict(environment(), load_before=os.getloadavg())
    measure(run, spec["run_seconds"] if args.seconds is None else args.seconds, started)
    cross_checks(run)
    run.env["load_after"] = os.getloadavg()
    found = report(run, spec)
    correct = found is not None and run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": found or {}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
