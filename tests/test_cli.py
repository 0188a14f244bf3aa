"""Command-line entry points and the end-to-end pipeline.

Claims covered:
    - pipeline artifacts are a pure function of (config, seed): pinned digests
    - the pipeline runs off the identity-marked rose: the twisted rose
      {a: ab, b: b} and the theta graph give full rank and pinned artifacts
    - a config that is not a JSON object or has a key outside the defaults
      (the retired "k" included) fails at [config]
    - exit codes: 2 for a non-isomorphic marking (tagged with its stage), 3
      for a ball over the resource cap and for a graph whose increment window
      passes the cap (``thermo growth``), 4 for a ray too short for the rigid
      set
    - no command takes --k, and ``ps sample`` takes no --v: its chain exists
      at v* only
    - ``thermo gibbs`` lists every depth-d cylinder of the maximal component
      and rejects depth < 1 with the validation exit code
    - ``selfcheck`` passes every row, the marking-folding row included
"""

import hashlib
import json

import pytest

from lsrigid import cli

ARTIFACTS = ("ray.txt", "E.csv", "rank_report.json", "separation_report.json",
             "witness_lengths.svg", "budget_curve.svg")

# Digests of the artifacts of a short default-config run with seed 7.
PINNED = {
    "ray.txt": "75ea1f71b355cee28b3b78682c4d18d443155c986683b6fd51d7988587d5e8e5",
    "E.csv": "9907dcbfcda3483ebfd28dd5d85c439ef6a9a70eab0d01c7d2b77b06260881ea",
    "rank_report.json": "a6dd6a8edbbfd5defdad5a3d9bdbce7df5f538e031adbd3a5497f30627e0fba3",
    "separation_report.json": "3e96cc75d81a0bb3d0f8a26efd15805ec7ab3cde1e27eb09136b684b44e9b825",
}


def test_pipeline_digests_pinned(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"ray_length": 20000, "battery_pairs": 3, "seed": 7}))
    out = tmp_path / "out"
    assert cli.main(["pipeline", "--config", str(config), "--out", str(out)]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in PINNED}
    assert got == PINNED


# Digests of the artifacts of the off-rose runs (seed 7, the default).
PINNED_OFF_ROSE = {
    "twisted": {
        "ray.txt": "28cea3f2befe946473a9136223583a2d580d9b60a91e40ad9cb712029875124b",
        "E.csv": "5b2ee3fda2aa7502c517c817944934ff77b2b278a88b95ab41583705732bd7a1",
        "rank_report.json": "a6dd6a8edbbfd5defdad5a3d9bdbce7df5f538e031adbd3a5497f30627e0fba3",
        "separation_report.json": "3e96cc75d81a0bb3d0f8a26efd15805ec7ab3cde1e27eb09136b684b44e9b825",
        "witness_lengths.svg": "ec011597654c2af3aee8aca6f8135d92762c494d329191a3ba4862cf58b1677d",
        "budget_curve.svg": "0df4d2b6ad5e7949e37259d19db855406ec37d4b4f0c61129b659f05b782d17c",
    },
    "theta_graph": {
        "ray.txt": "8180192f8efde0d8f07fda7b293bc9af872e1ef70b57f7765ca860d48574777e",
        "E.csv": "42d8b8ebec50f8d6004d19c2c79f4ae164811096746c3c0d896d7048fd138671",
        "rank_report.json": "a6dd6a8edbbfd5defdad5a3d9bdbce7df5f538e031adbd3a5497f30627e0fba3",
        "separation_report.json": "3e96cc75d81a0bb3d0f8a26efd15805ec7ab3cde1e27eb09136b684b44e9b825",
        "witness_lengths.svg": "6fd6ac9e3a7cbbdda108fa3c8bbd6e0c46c3b7f944d214d07b188393ed67d341",
        "budget_curve.svg": "02fa15f4c5d8d20f1ed3810cbdd977067b1d309087b0558f569c7b0466eee80e",
    },
}


@pytest.mark.parametrize("fixture", ["twisted", "theta_graph"])
def test_pipeline_off_the_rose(tmp_path, request, fixture):
    graph = request.getfixturevalue(fixture).to_json()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"graph": graph, "ray_length": 20000, "battery_pairs": 3}))
    out = tmp_path / "out"
    assert cli.main(["pipeline", "--config", str(config), "--out", str(out)]) == 0
    got = {a: hashlib.sha256((out / a).read_bytes()).hexdigest() for a in ARTIFACTS}
    assert got == PINNED_OFF_ROSE[fixture]
    rank = json.loads((out / "rank_report.json").read_text())
    assert rank["full_rank"] and rank["rank"] == 2


@pytest.mark.parametrize("given, message", [
    ({"k": 6}, "unknown config keys: k"),
    ({"ray_lenght": 100}, "unknown config keys: ray_lenght"),
    ([1, 2], "config must be a JSON object"),
])
def test_config_rejected(tmp_path, capsys, given, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(given))
    assert cli.main(["pipeline", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error: [config] {message}")
    assert "k" not in cli._CONFIG_DEFAULTS


def test_exit_code_validation(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"graph": {"rose": [1, 1], "substitution": {"a": "aa", "b": "b"}}}))
    assert cli.main(["pipeline", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: [metric] ")


def test_exit_code_resource_cap(tmp_path, capsys):
    graph = tmp_path / "rose.json"
    graph.write_text(json.dumps({"rose": [1, 1]}))
    assert cli.main(["ps", "nu", "--graph", str(graph), "--n", "16"]) == 3
    assert "cap is" in capsys.readouterr().err


def test_exit_code_window_over_cap(tmp_path, capsys):
    # the proved increment window 7 needs 585,936 words: the potential of a
    # shallower depth would have nothing to bound its defect
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"rose": [1, 1, 1], "substitution": {"a": "abbbbbb", "b": "b", "c": "c"}}))
    assert cli.main(["thermo", "growth", "--rank", "3", "--graph", str(graph)]) == 3
    assert "increment window" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["thermo", "growth", "--k", "6"],
    ["ps", "zcheck", "--k", "6"],
    ["ps", "sample", "--v", "0.5", "--length", "10", "--out", "ray.txt"],
])
def test_retired_options_refused(tmp_path, argv):
    graph = tmp_path / "rose.json"
    graph.write_text(json.dumps({"rose": [1, 1]}))
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--graph", str(graph)])
    assert exc.value.code == 2


def test_exit_code_not_found(tmp_path, capsys):
    graph = tmp_path / "rose.json"
    graph.write_text(json.dumps({"rose": [1, 1]}))
    ray = tmp_path / "ray.txt"
    assert cli.main(["ps", "sample", "--graph", str(graph), "--length", "10", "--out", str(ray)]) == 0
    out = tmp_path / "E.csv"
    assert cli.main(["rigid", "build", "--ray", str(ray), "--budget", "log", "--out", str(out)]) == 4
    assert "ray horizon exhausted" in capsys.readouterr().err


def test_thermo_gibbs_cylinders(tmp_path, capsys):
    graph = tmp_path / "rose.json"
    graph.write_text(json.dumps({"rose": [1, 1]}))
    assert cli.main(["thermo", "gibbs", "--graph", str(graph), "--depth", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split("\t") for line in lines[:-1]]
    # the 12 non-backtracking state pairs, in state order, each of mass 1/12
    assert [name for name, _ in rows][:3] == ["a,a", "a,b", "a,B"]
    assert len(rows) == 12
    assert all(abs(float(w) - 1 / 12) < 1e-12 for _, w in rows)
    assert lines[-1] == "total mass depth 2: 1.000000000000"


def test_thermo_gibbs_rejects_depth_zero(tmp_path, capsys):
    graph = tmp_path / "rose.json"
    graph.write_text(json.dumps({"rose": [1, 1]}))
    assert cli.main(["thermo", "gibbs", "--graph", str(graph), "--depth", "0"]) == 2
    assert "--depth must be at least 1" in capsys.readouterr().err


def test_selfcheck_passes(capsys):
    assert cli.main(["selfcheck"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == len(cli._selfcheck_rows())
    assert any(row.startswith("marking folding") and "PASS" in row for row in rows)
