"""The pipeline under the benchmark's per-layer instrumentation.

Claims covered:
    - every name the benchmark's instrumentation replaces exists with the
      signature it calls, so ``cli.run_pipeline`` runs inside
      ``tracing.patch(workloads.instrument(...))``
    - the traced run writes the same artifacts, byte for byte, as the
      untraced run of the same config
    - the per-layer figures of that traced run can all be computed
    - the same-point workload (10^6-step ray, sqrt budget, four inner-twist
      pairs) gives the same outputs traced and untraced, passes its checks,
      and yields finite per-layer figures
"""

import json
import math
import sys
from pathlib import Path

from lsrigid import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def test_traced_pipeline_writes_the_untraced_artifacts(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"ray_length": 20_000, "battery_pairs": 3, "seed": 7}))
    plain = cli.run_pipeline(config, tmp_path / "plain")

    original = cli.run_pipeline
    tr, found = tracing.Tracer(), workloads.Found()
    with tracing.patch(workloads.instrument(tr, found)):
        with tr.span("workload"):
            traced = cli.run_pipeline(config, tmp_path / "traced")
    assert cli.run_pipeline is original

    assert traced["outputs"] == plain["outputs"]
    assert traced["v_star"] == plain["v_star"]
    found.ray_file = tmp_path / "traced" / "ray.txt"
    metrics = workloads.layer_metrics(tr, found)
    assert all(math.isfinite(v) for v in metrics.values())
    assert len(found.verdicts) == 3
    assert 0 < workloads.coverage(tr) <= 1


def test_traced_same_point_gives_the_untraced_outputs(tmp_path):
    def run(tr, found, out):
        out.mkdir()
        checks = workloads.Checks()
        ms, aug = workloads.setup("same-point-verify")
        outputs = workloads.run_same_point("same-point-verify", 1, out, tr, checks, found, ms, aug)
        assert all(row["failed"] == 0 for row in checks.rows), checks.rows
        return outputs

    plain = run(tracing.NullTracer(), workloads.Found(), tmp_path / "plain")
    tr, found = tracing.Tracer(), workloads.Found()
    with tracing.patch(workloads.instrument(tr, found)):
        traced = run(tr, found, tmp_path / "traced")

    assert traced == plain
    assert plain["verdicts"] == ["AGREE"] * 4
    metrics = workloads.layer_metrics(tr, found)
    assert all(math.isfinite(v) for v in metrics.values())
    assert metrics["rigidity.pairs"] == 4
