"""Command-line entry points and the end-to-end pipeline.

Claims covered:
    - pipeline artifacts are a pure function of (config, seed): pinned digests
      of the default config and of a rank-3 run on the rose [1,2,3]
    - the pipeline runs off the identity-marked rose: the twisted rose
      {a: ab, b: b}, the subdivided rose, the theta graph and the barbell
      give full rank and pinned artifacts
    - a config that is not a JSON object or has a key outside the defaults
      (the retired "k" and "validate_radius" included) fails at [config]
    - the [coding] stage and ``coding build`` refuse a rank outside 2..26
      with the validation exit code
    - ``coding validate`` proves the coding exactly: it prints OK, or exits 2
      with the state path of the first bad step, and takes no --radius
    - a structure with two edges joining one pair of states is refused with
      the validation exit code
    - a ray length below the entry prefix plus one block (``ps sample
      --length 0`` or ``-5``, a config ``ray_length`` of 0) exits 2
    - a config ``classes`` below 1 (0 or -1) fails at [config], and ``rigid
      build --classes`` below 1 fails, with the validation exit code
    - ``rigid verify`` refuses a set whose rank is not the metrics' rank, in
      either direction, with the validation exit code
    - ``rigid verify`` refuses a malformed E.csv (a missing column, a
      non-integer, a witness that is not a word or not freely reduced, an
      ell_S that is not its witness's class length, a witness that does not
      end at N or N - 1) with the validation exit code and a message naming
      the file and line
    - exit codes: 2 for a non-isomorphic marking (tagged with its stage), 3
      for a ball over the resource cap and for a graph whose increment window
      passes the cap (``thermo growth``), 4 for a ray too short for the rigid
      set
    - no command takes --k, ``ps sample`` takes no --v (its chain exists at
      v* only), and ``coding validate`` takes no --radius
    - ``thermo gibbs`` lists every depth-d cylinder of the maximal component
      and rejects depth < 1 with the validation exit code
    - ``selfcheck`` passes every row, the marking-folding row included
    - the success path of ``coding components`` (the free coding's exact
      radius 3; the backtracking coding's radius equals the largest modulus
      of a dense eigenvalue reference), ``coding loop``, ``thermo
      pressure|growth|rpf``, ``ps zcheck|cylmass|nu`` and ``rigid
      verify|rank|recover``: exit 0 and the closed forms of the unit rose;
      ``thermo growth`` on the rose [1000, 1000] prints log 3 / 1000
"""

import ast
import hashlib
import json
import math

import numpy as np
import pytest

from lsrigid import cli, coding, fixtures, treemetric

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


# Digests of the artifacts of a rank-3 run on the rose [1,2,3] (seed 7, the default).
PINNED_RANK3 = {
    "ray.txt": "ee2564dc54b4791d450f456db3ab69272bbe62cebb0675fd5e64854367cb6b47",
    "E.csv": "fbb0d5fe6c3bf8b7994129bfc1fb12209565e2d041c26c08a7fbe313ebe292b3",
    "rank_report.json": "b057a6927b8d3c89d6d8eebd3a1f7b018ee6a07dadea912e85e44f31162c716d",
    "separation_report.json": "f0584f4b8bf5cf1a61c3a7c395d46d6d400858aa8750f6f5335a3e5f93bc2156",
    "witness_lengths.svg": "b3d6233ee8b5dc71a670c0777d8b91358eece5c5a2bbbfd684e9292dd9d31778",
    "budget_curve.svg": "2fe98a42b20338094f8728dc4b7e095f0c9b9d3076679b354d59f4d0a2ab1c4a",
}


def test_pipeline_rank_3_digests_pinned(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"rank": 3, "graph": {"rose": [1, 2, 3]}, "classes": 8,
                                  "ray_length": 20000, "battery_pairs": 1}))
    out = tmp_path / "out"
    assert cli.main(["pipeline", "--config", str(config), "--out", str(out)]) == 0
    got = {a: hashlib.sha256((out / a).read_bytes()).hexdigest() for a in ARTIFACTS}
    assert got == PINNED_RANK3
    assert json.loads((out / "rank_report.json").read_text())["full_rank"]


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
    "subdivided_rose": {
        "ray.txt": "8180192f8efde0d8f07fda7b293bc9af872e1ef70b57f7765ca860d48574777e",
        "E.csv": "42d8b8ebec50f8d6004d19c2c79f4ae164811096746c3c0d896d7048fd138671",
        "rank_report.json": "a6dd6a8edbbfd5defdad5a3d9bdbce7df5f538e031adbd3a5497f30627e0fba3",
        "separation_report.json": "3e96cc75d81a0bb3d0f8a26efd15805ec7ab3cde1e27eb09136b684b44e9b825",
        "witness_lengths.svg": "6fd6ac9e3a7cbbdda108fa3c8bbd6e0c46c3b7f944d214d07b188393ed67d341",
        "budget_curve.svg": "02fa15f4c5d8d20f1ed3810cbdd977067b1d309087b0558f569c7b0466eee80e",
    },
    "theta": {
        "ray.txt": "69720221d4328e5d931388b6de3275aacb48e9a4d792a45b948d26066bf6fd8b",
        "E.csv": "621c4f0f2858e169f61a38b2124fe711040e72043fbbbbae997beea87022c099",
        "rank_report.json": "a6dd6a8edbbfd5defdad5a3d9bdbce7df5f538e031adbd3a5497f30627e0fba3",
        "separation_report.json": "3e96cc75d81a0bb3d0f8a26efd15805ec7ab3cde1e27eb09136b684b44e9b825",
        "witness_lengths.svg": "3123668675127f6bad9b7b316af6353814ca76e12e54db7b0622849d32ac60d3",
        "budget_curve.svg": "f8387933345ff8bf2ddc64f5d2b8aeb34ebfaacd93867281674f97cdf7e80f2b",
    },
    "barbell": {
        "ray.txt": "a186864419e80db5cd57ff4703c772f35c7591b05ce2529c9fea7c9dc8997e78",
        "E.csv": "f47816088848fa3688a24dfae8e626434008546ccfc9124ac9a8d8a7591b6e54",
        "rank_report.json": "a6dd6a8edbbfd5defdad5a3d9bdbce7df5f538e031adbd3a5497f30627e0fba3",
        "separation_report.json": "3e96cc75d81a0bb3d0f8a26efd15805ec7ab3cde1e27eb09136b684b44e9b825",
        "witness_lengths.svg": "04cf82b26fd01150cb8aadb6fc5da6fa736bac3b475f78267228687278785d29",
        "budget_curve.svg": "94dfe4461442f00f38a91df97d31de511e87cee2ee7981707a1f8606549f620a",
    },
}


@pytest.mark.parametrize("fixture", ["twisted", "subdivided_rose", "theta", "barbell"])
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
    ({"validate_radius": 0}, "unknown config keys: validate_radius"),
])
def test_config_rejected(tmp_path, capsys, given, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(given))
    assert cli.main(["pipeline", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error: [config] {message}")
    assert "k" not in cli._CONFIG_DEFAULTS


@pytest.mark.parametrize("rank", [1, 27])
def test_config_rank_out_of_range(tmp_path, capsys, rank):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"rank": rank}))
    assert cli.main(["pipeline", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: [coding] rank must be between 2 and 26")


def test_coding_build_rank_out_of_range(capsys):
    assert cli.main(["coding", "build", "--rank", "27"]) == 2
    assert "rank must be between 2 and 26, got 27" in capsys.readouterr().err


def test_coding_validate(tmp_path, capsys):
    assert cli.main(["coding", "validate", "--rank", "3"]) == 0
    assert capsys.readouterr().out == "OK\n"
    structure = tmp_path / "backtrack.json"
    structure.write_text(json.dumps(fixtures.coding_with_backtrack(2).to_json()))
    assert cli.main(["coding", "validate", "--structure", str(structure)]) == 2
    assert "(path * a A)" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.main(["coding", "validate", "--radius", "8"])
    assert exc.value.code == 2


def test_coding_validate_rejects_parallel_edges(tmp_path, capsys):
    edges = [("*", "a", "a"), ("a", "a", "a"), ("a", "a", "b")]
    structure = tmp_path / "parallel.json"
    structure.write_text(json.dumps({
        "rank": 2, "states": ["*", "a"],
        "edges": [{"from": src, "to": dst, "label": label} for src, dst, label in edges],
    }))
    assert cli.main(["coding", "validate", "--structure", str(structure)]) == 2
    assert "two edges a -> a" in capsys.readouterr().err


@pytest.mark.parametrize("length", ["0", "-5"])
def test_ps_sample_rejects_short_length(tmp_path, capsys, length):
    graph = tmp_path / "rose.json"
    graph.write_text(json.dumps({"rose": [1, 1]}))
    argv = ["ps", "sample", "--graph", str(graph), "--length", length, "--out", str(tmp_path / "ray.txt")]
    assert cli.main(argv) == 2
    assert f"ray length {length} is below 1" in capsys.readouterr().err


def test_config_ray_length_zero_rejected(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"ray_length": 0}))
    assert cli.main(["pipeline", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: [ray] ray length 0 is below 1")


@pytest.mark.parametrize("classes", [0, -1])
def test_config_classes_below_one_rejected(tmp_path, capsys, classes):
    # 0 once ended at [plots] with exit 1; -1 once dropped the last class
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"classes": classes}))
    assert cli.main(["pipeline", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: [config] config key classes must be at least 1, got {classes}\n"


@pytest.mark.parametrize("classes", ["0", "-1"])
def test_rigid_build_classes_below_one_rejected(tmp_path, capsys, classes):
    # 0 once wrote an empty E.csv; -1 once built every class but the last
    argv = ["rigid", "build", "--ray", str(tmp_path / "ray.txt"), "--budget", "log",
            "--classes", classes, "--out", str(tmp_path / "E.csv")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: --classes must be at least 1, got {classes}\n"
    assert not (tmp_path / "E.csv").exists()


def test_exit_code_validation(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"graph": {"rose": [1, 1], "substitution": {"a": "aa", "b": "b"}}}))
    assert cli.main(["pipeline", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: [metric] ")


def _rigid_verify(tmp_path, rigid_csv, *graphs):
    args = ["rigid", "verify", "--set", str(rigid_csv)]
    for i, graph in enumerate(graphs, start=1):
        path = tmp_path / f"g{i}.json"
        path.write_text(json.dumps(graph))
        args += [f"--graph{i}", str(path)]
    return cli.main(args)


def test_rigid_verify_rank_2_set_against_rank_3_metrics(rigid7, tmp_path, capsys):
    # the seed-7 set of the default config; it once printed "AGREE on all 10"
    rigid7.to_csv(tmp_path / "E.csv")
    assert _rigid_verify(tmp_path, tmp_path / "E.csv", {"rose": [1, 2, 3]}, {"rose": [1, 2, 5]}) == 2
    assert capsys.readouterr().err == "error: rigid set has rank 2, the metrics rank 3\n"


def test_rigid_verify_rank_3_set_against_rank_2_metrics(tmp_path, capsys):
    # a witness with the letter c makes the set rank 3; it once ended in a KeyError
    (tmp_path / "E.csv").write_text(
        "class,M,N1,N2,witness1,witness2,ell_S(witness1),ell_S(witness2)\n"
        "c,1,1,2,a,ac,1,2\n"
    )
    assert _rigid_verify(tmp_path, tmp_path / "E.csv", {"rose": [1, 2]}, {"rose": [1, 3]}) == 2
    assert capsys.readouterr().err == "error: rigid set has rank 3, the metrics rank 2\n"


_E_HEADER = "class,M,N1,N2,witness1,witness2,ell_S(witness1),ell_S(witness2)\n"


@pytest.mark.parametrize("text, message", [
    (_E_HEADER.replace(",N2", "") + "a,1,1,a,ab,1,2\n", "line 2: no N2 field"),
    (_E_HEADER + "a,x,1,2,a,ab,1,2\n", "line 2: M 'x' is not an integer"),
    (_E_HEADER + "a,1,1,2,a,a-b,1,2\n", "line 2: witness2 'a-b' is not a word"),
    (_E_HEADER + "b,1,1,2,a,ab,1,2\nb,1,2,3,ab,aAb,2,1\n", "line 3: witness2 'aAb' is not freely reduced"),
    # the class of aB has length 2: an ell_S of 7 once loaded and counted as 7
    (_E_HEADER + "b,1,1,2,a,aB,1,2\nb,1,3,2,aB,aB,2,7\n",
     "line 3: an ell_S is not the length of its witness's class"),
    # the witness ab ends at 2, not at N1 = 999999 or one letter before it
    (_E_HEADER + "a,1,999999,2,ab,ab,2,2\n", "line 2: a witness is not its N trimmed by at most one letter"),
], ids=["missing-column", "non-integer", "not-a-word", "not-reduced", "ell-not-the-class-length", "end-not-at-N"])
def test_rigid_verify_refuses_a_malformed_set(tmp_path, capsys, text, message):
    (tmp_path / "E.csv").write_text(text)
    assert _rigid_verify(tmp_path, tmp_path / "E.csv", {"rose": [1, 1]}, {"rose": [1, 2]}) == 2
    assert capsys.readouterr().err == f"error: {tmp_path / 'E.csv'}, {message}\n"


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


# -- success paths -----------------------------------------------------------------


def _run(capsys, *argv):
    assert cli.main(list(argv)) == 0
    return capsys.readouterr().out.splitlines()


@pytest.fixture
def unit_rose_file(tmp_path):
    path = tmp_path / "rose.json"
    path.write_text(json.dumps({"rose": [1, 1]}))
    return str(path)


def test_coding_components_free_and_backtrack(tmp_path, capsys):
    assert _run(capsys, "coding", "components") == [
        "component {a,A,b,B}: spectral radius 3 word-maximal",
        f"growth rate v_S = {math.log(3)!r}",
    ]
    # a -> A gives the state a out-degree 4: no common row sum, so the radius
    # comes from the dense spectrum
    doctored = fixtures.coding_with_backtrack(2)
    path = tmp_path / "backtrack.json"
    path.write_text(json.dumps(doctored.to_json()))
    (line, _) = _run(capsys, "coding", "components", "--structure", str(path))
    head, rest = line.split(": spectral radius ")
    rho, flag = rest.split()
    (comp,) = coding.scc_decompose(doctored)[0]
    reference = max(abs(np.linalg.eigvals(comp.adjacency())))
    assert (head, flag) == ("component {a,A,b,B}", "word-maximal")
    assert abs(float(rho) - reference) <= 1e-12 * reference


def test_coding_loop(capsys):
    assert _run(capsys, "coding", "loop", "--class", "aB") == [
        "loop states: a B a",
        "word: Ba  power: 1  sign: +1",
    ]


def test_thermo_pressure_growth_rpf(unit_rose_file, tmp_path, capsys):
    # every step of the unit rose weighs e^-v and has 3 successors: P(v) = log 3 - v
    assert _run(capsys, "thermo", "pressure", "--graph", unit_rose_file, "--v", "0.5") == [
        f"component {{a,A,b,B}}: pressure {math.log(3) - 0.5:.12f}",
    ]
    lines = _run(capsys, "thermo", "growth", "--graph", unit_rose_file)
    assert abs(float(lines[0].removeprefix("v* = ")) - math.log(3)) <= 1e-9
    assert lines[-1] == "maximal components: ['a,A,b,B']"
    long_rose = tmp_path / "long_rose.json"
    long_rose.write_text(json.dumps({"rose": [1000, 1000]}))
    lines = _run(capsys, "thermo", "growth", "--graph", str(long_rose))
    assert abs(float(lines[0].removeprefix("v* = ")) - math.log(3) / 1000) <= 1e-12
    lines = _run(capsys, "thermo", "rpf", "--graph", unit_rose_file, "--state", "a", "--nmax", "4")
    assert lines[0] == "S_0 = 1.0000000000e+00"
    assert lines[-1] == "band: [1.000000, 1.000000] (bounded)"


def test_ps_zcheck_cylmass_nu(unit_rose_file, capsys):
    # at v* = log 3 the unit rose has Z_n = 1 + 4n/3
    lines = _run(capsys, "ps", "zcheck", "--graph", unit_rose_file, "--nmax", "4")
    assert lines[3] == "3\t5.00000000\t1.66666667"
    assert lines[-1] == "linear growth: yes"
    # words that start with ab: 3^(m-2) of each length m <= 8, each of mass
    # 3^-m, so (7/9) / Z_8 = 1/15
    (line,) = _run(capsys, "ps", "cylmass", "--graph", unit_rose_file, "--prefix", "a,b", "--n", "8")
    prefix, mass = line.removesuffix(" at radius 8").split(": mass estimate ")
    assert prefix == "prefix * a b"
    assert abs(float(mass) - 1 / 15) <= 1e-9
    # the radius-1 ball: the identity weighs 3/7, each letter 1/7
    rows = [line.split("\t") for line in _run(capsys, "ps", "nu", "--graph", unit_rose_file, "--n", "1")]
    assert [w for w, _ in rows] == ["1", "a", "A", "b", "B"]
    assert all(abs(float(p) - q) <= 1e-9 for (_, p), q in zip(rows, [3 / 7] + [1 / 7] * 4))


def test_rigid_verify_rank_recover(rigid7, tmp_path, capsys):
    rigid7.to_csv(tmp_path / "E.csv")
    n = len(rigid7.witness_classes())
    assert _rigid_verify(tmp_path, tmp_path / "E.csv", {"rose": [1, 1]}, {"rose": [1, 1]}) == 0
    assert capsys.readouterr().out == f"AGREE on all {n} witness classes (max diff 0.0)\n"
    assert _rigid_verify(tmp_path, tmp_path / "E.csv", {"rose": [1, 1]}, {"rose": [1, 2]}) == 0
    assert capsys.readouterr().out.startswith("SEPARATED by [")
    assert _run(capsys, "rigid", "rank", "--set", str(tmp_path / "E.csv")) == [
        f"occurrence matrix: {n} classes x 2 generators",
        "rational rank: 2 (full)",
    ]
    graph = treemetric.rose(["3/2", "1/2"])
    targets = tmp_path / "targets.csv"
    targets.write_text("class,length\n" + "".join(
        f"{c},{float(graph.translation_length(c))}\n" for c in rigid7.witness_classes()
    ))
    lengths, residual = _run(capsys, "rigid", "recover", "--set", str(tmp_path / "E.csv"),
                             "--targets", str(targets))
    got = ast.literal_eval(lengths.removeprefix("lengths: "))
    assert max(abs(x - y) for x, y in zip(got, (1.5, 0.5))) <= 1e-9
    assert residual.endswith("(consistent)")
