"""Command-line entry point: coding / thermo / ps / rigid tools, the full
pipeline, and a fast selfcheck.

Exit codes: 0 ok, 2 validation failure, 3 resource cap exceeded, 4 bounded
search exhausted (loop or witness horizon); other failures return 1.  All
stochastic commands are deterministic functions of (config, seed).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, coding, fixtures, psmeasure, rigidity, thermo, treemetric, words
from .errors import LsrigidError, StageError, ValidationError
from .svgplot import Series, line_plot


def _load_structure_arg(args) -> coding.MarkovStructure:
    if getattr(args, "structure", None):
        return coding.load_structure(args.structure)
    return coding.build_free_group_coding(args.rank)


def _graph_for(args) -> treemetric.MetricGraph:
    graph = treemetric.load_graph(args.graph)
    if getattr(args, "float_mode", False):
        graph = treemetric.as_float(graph)
    return graph


# -- coding subcommands ---------------------------------------------------------


def cmd_coding_build(args) -> int:
    ms = coding.build_free_group_coding(args.rank)
    payload = json.dumps(ms.to_json(), indent=2)
    if args.out:
        Path(args.out).write_text(payload + "\n")
    else:
        print(payload)
    return 0


def cmd_coding_validate(args) -> int:
    ms = _load_structure_arg(args)
    report = coding.validate_strongly_markov(ms, radius=args.radius)
    print(report.summary())
    return 0 if report.ok else 2


def cmd_coding_components(args) -> int:
    ms = _load_structure_arg(args)
    report = coding.classify_components(ms)
    for c in report.components:
        rho = c.spectral_radius
        print(
            f"component {{{','.join(c.states)}}}: spectral radius {rho} "
            f"{'word-maximal' if c.word_maximal else 'non-maximal'}"
        )
    if report.transient_states:
        print(f"transient states: {','.join(report.transient_states)}")
    print(f"growth rate v_S = {report.growth_rate!r}")
    return 0


def cmd_coding_loop(args) -> int:
    ms = _load_structure_arg(args)
    cls = words.ConjClass.from_str(args.cls, ms.rank)
    report = coding.classify_components(ms)
    maximal = report.maximal()
    loop = coding.find_loop_for_class(cls, maximal[0].component, m_max=args.mmax)
    print(f"loop states: {' '.join(loop.states)}")
    print(f"word: {loop.word}  power: {loop.power}  sign: {loop.sign:+d}")
    return 0


# -- thermo subcommands -----------------------------------------------------------


def _growth_setup(args):
    ms = _load_structure_arg(args)
    graph = _graph_for(args)
    if graph.rank != ms.rank:
        raise ValidationError(f"graph rank {graph.rank} != coding rank {ms.rank}")
    pot = thermo.potential_from_metric(ms, graph, k=args.k)
    return ms, graph, pot


def cmd_thermo_pressure(args) -> int:
    ms, _, pot = _growth_setup(args)
    report = coding.classify_components(ms)
    for c in report.components:
        td = thermo.pressure(c.component, pot, args.v)
        print(f"component {{{','.join(c.states)}}}: pressure {td.pressure:.12f}")
    return 0


def cmd_thermo_growth(args) -> int:
    ms, _, pot = _growth_setup(args)
    growth = thermo.solve_growth_rate(ms, pot)
    print(f"v* = {growth.v_star:.12f}")
    for states, p in growth.pressures.items():
        print(f"component {{{','.join(states)}}}: pressure at v* = {p:.3e}")
    print(f"maximal components: {[','.join(s) for s in growth.maximal_states()]}")
    return 0


def cmd_thermo_gibbs(args) -> int:
    ms, _, pot = _growth_setup(args)
    growth = thermo.solve_growth_rate(ms, pot)
    comp = growth.maximal_components[0]
    td = thermo.pressure(comp, pot, growth.v_star)
    rows = []
    for path in ms.paths(args.depth - 1, starts=sorted(comp.indices), within=comp.indices):
        names = tuple(ms.states[i] for i in path)
        rows.append((",".join(names), thermo.gibbs_cylinder_weight(td, names)))
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["cylinder", "weight"])
            writer.writerows(rows)
        print(f"{len(rows)} cylinders -> {args.csv}")
    else:
        for name, w in rows:
            print(f"{name}\t{w:.12e}")
    print(f"total mass depth {args.depth}: {sum(w for _, w in rows):.12f}")
    return 0


def cmd_thermo_rpf(args) -> int:
    ms, _, pot = _growth_setup(args)
    growth = thermo.solve_growth_rate(ms, pot)
    report = None
    for comp in coding.classify_components(ms).components:
        if comp.component.contains(args.state):
            td = thermo.pressure(comp.component, pot, growth.v_star)
            report = thermo.check_rpf_sums(td, args.state, n_max=args.nmax)
            break
    if report is None:
        raise ValidationError(f"state {args.state!r} is not in any component")
    for n, s in enumerate(report.values):
        print(f"S_{n} = {s:.10e}")
    if report.bounded:
        print(f"band: [{report.band[0]:.6f}, {report.band[1]:.6f}] (bounded)")
    else:
        print(f"decaying: theta = {report.theta:.6f}, C' = {report.c_prime:.6f}")
    return 0


# -- ps subcommands ------------------------------------------------------------------


def _ps_setup(args):
    ms = _load_structure_arg(args)
    graph = _graph_for(args)
    if graph.rank != ms.rank:
        raise ValidationError(f"graph rank {graph.rank} != coding rank {ms.rank}")
    aug = coding.augment(ms)
    pot = thermo.potential_from_metric(ms, graph, k=args.k)
    if args.v is not None:
        v = args.v
    else:
        v = thermo.solve_growth_rate(ms, pot).v_star
    return ms, aug, graph, pot, v


def cmd_ps_nu(args) -> int:
    _, _, graph, _, v = _ps_setup(args)
    measure = psmeasure.ball_measure(graph, v, args.n)
    items = sorted(measure.weights.items(), key=lambda kv: (len(kv[0]), words.word_key(kv[0].letters)))
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["word", "weight"])
            for w, p in items:
                writer.writerow([str(w), repr(p)])
        print(f"{len(items)} atoms -> {args.csv}")
    else:
        for w, p in items:
            print(f"{w}\t{p:.12e}")
    return 0


def cmd_ps_zcheck(args) -> int:
    _, _, graph, _, v = _ps_setup(args)
    report = psmeasure.partition_sum_check(graph, v, n_max=args.nmax)
    print("n\tZ_n\tZ_n/n")
    for n in range(1, args.nmax + 1):
        print(f"{n}\t{report.sums[n]:.8f}\t{report.ratios[n - 1]:.8f}")
    print(f"band [{report.band[0]:.6f}, {report.band[1]:.6f}], fitted C = {report.c_fitted:.6f}")
    print(f"linear growth: {'yes' if report.looks_linear else 'NO (non-critical multiplier?)'}")
    return 0


def cmd_ps_cylmass(args) -> int:
    _, aug, graph, _, v = _ps_setup(args)
    prefix = ["*"] + [p for p in args.prefix.replace(",", " ").split() if p]
    est = psmeasure.cylinder_mass_estimate(prefix, aug, graph, v, args.n)
    print(f"prefix {' '.join(est.prefix)}: mass estimate {est.value:.10e} at radius {args.n}")
    if est.null_cylinder:
        print("null cylinder: no continuation reaches a word-maximal component")
    return 0


def cmd_ps_sample(args) -> int:
    ms, aug, graph, pot, v = _ps_setup(args)
    growth = thermo.solve_growth_rate(ms, pot)
    transfer = {c: thermo.pressure(c, pot, growth.v_star) for c in growth.maximal_components}
    entries = psmeasure.entry_weight_table(aug, graph, growth.v_star)
    ray = psmeasure.sample_ray(aug, transfer, entries, length=args.length, seed=args.seed)
    psmeasure.save_ray(ray, args.out)
    print(f"ray of length {len(ray)} (seed {args.seed}) -> {args.out}")
    return 0


# -- rigid subcommands -----------------------------------------------------------------


def cmd_rigid_build(args) -> int:
    ms = _load_structure_arg(args)
    aug = coding.augment(ms)
    ray = psmeasure.load_ray(args.ray, aug)
    classes = words.enumerate_classes(ms.rank, args.maxlen, identify_inverse=True)[: args.classes]
    rigid = rigidity.build_rigid_set(ray, classes, args.budget, t_max=args.tmax, m_max=args.mmax)
    rigid.to_csv(args.out)
    print(f"{len(rigid.entries)} entries, {len(rigid.witness_classes())} witness classes -> {args.out}")
    return 0


def cmd_rigid_verify(args) -> int:
    rigid = rigidity.RigidSet.from_csv(args.set)
    t1 = treemetric.load_graph(args.graph1)
    t2 = treemetric.load_graph(args.graph2)
    verdict = rigidity.verify_separation(rigid, t1, t2)
    if verdict.separated:
        print(f"SEPARATED by [{verdict.first_separating}] (diff {verdict.max_diff})")
    else:
        print(f"AGREE on all {len(rigid.witness_classes())} witness classes (max diff {verdict.max_diff})")
    return 0


def cmd_rigid_rank(args) -> int:
    rigid = rigidity.RigidSet.from_csv(args.set)
    rank = rigidity.rose_rank_check(rigid)
    print(f"occurrence matrix: {len(rigid.witness_classes())} classes x {rigid.rank} generators")
    print(f"rational rank: {rank} ({'full' if rank == rigid.rank else 'DEFICIENT'})")
    return 0 if rank == rigid.rank else 2


def cmd_rigid_recover(args) -> int:
    rigid = rigidity.RigidSet.from_csv(args.set)
    targets = {}
    with open(args.targets, newline="") as fh:
        for row in csv.DictReader(fh):
            targets[words.ConjClass.from_str(row["class"], rigid.rank, identify_inverse=True)] = float(
                row["length"]
            )
    result = rigidity.recover_lengths(rigid, targets)
    print(f"lengths: {result.lengths}")
    print(f"residual: {result.residual:.3e} ({'consistent' if result.consistent else 'INCONSISTENT'})")
    return 0 if result.consistent else 2


# -- pipeline ------------------------------------------------------------------------


_CONFIG_DEFAULTS = {
    "rank": 2,
    "graph": {"rose": [1, 1]},
    "k": 6,
    "budget": "log",
    "classes": 5,
    "class_max_length": 4,
    "ray_length": 100_000,
    "tmax": 10_000,
    "mmax": 8,
    "seed": 7,
    "battery_pairs": 50,
    "validate_radius": 6,
}


def _digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digest_file(path) -> str:
    return _digest_bytes(Path(path).read_bytes())


def run_pipeline(config_path, out_dir, seed_override: int | None = None) -> dict:
    t_start = time.time()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    inputs: dict[str, str] = {}

    def stage(name):
        class _Ctx:
            def __enter__(self):
                return None

            def __exit__(self, exc_type, exc, tb):
                if exc is not None and not isinstance(exc, StageError):
                    raise StageError(name, exc) from exc
                return False

        return _Ctx()

    with stage("config"):
        raw = Path(config_path).read_bytes()
        inputs[str(config_path)] = _digest_bytes(raw)
        config = dict(_CONFIG_DEFAULTS)
        config.update(json.loads(raw))
        if seed_override is not None:
            config["seed"] = seed_override
        seed = int(config["seed"])

    with stage("coding"):
        ms = coding.build_free_group_coding(int(config["rank"]))
        aug = coding.augment(ms)
        report = coding.validate_strongly_markov(ms, radius=int(config["validate_radius"]))
        if not report.ok:
            raise ValidationError("coding failed validation", report=report)

    with stage("metric"):
        graph_spec = config["graph"]
        if isinstance(graph_spec, str):
            inputs[graph_spec] = _digest_file(graph_spec)
            graph = treemetric.load_graph(graph_spec)
        else:
            graph = treemetric.graph_from_json(graph_spec)
        if graph.rank != ms.rank:
            raise ValidationError(f"graph rank {graph.rank} != configured rank {ms.rank}")

    with stage("growth"):
        pot = thermo.potential_from_metric(ms, graph, k=int(config["k"]))
        growth = thermo.solve_growth_rate(ms, pot)

    with stage("transfer"):
        transfer = {c: thermo.pressure(c, pot, growth.v_star) for c in growth.maximal_components}

    with stage("ray"):
        entries = psmeasure.entry_weight_table(aug, graph, growth.v_star)
        ray = psmeasure.sample_ray(
            aug, transfer, entries, length=int(config["ray_length"]), seed=seed
        )
        psmeasure.save_ray(ray, out / "ray.txt")

    with stage("rigidset"):
        classes = words.enumerate_classes(
            ms.rank, int(config["class_max_length"]), identify_inverse=True
        )[: int(config["classes"])]
        rigid = rigidity.build_rigid_set(
            ray, classes, str(config["budget"]), t_max=float(config["tmax"]),
            m_max=int(config["mmax"]),
        )
        rigid.to_csv(out / "E.csv")

    with stage("rank"):
        rank = rigidity.rose_rank_check(rigid)
        rank_report = {
            "witness_classes": len(rigid.witness_classes()),
            "generators": rigid.rank,
            "rank": rank,
            "full_rank": rank == rigid.rank,
        }
        (out / "rank_report.json").write_text(json.dumps(rank_report, indent=2) + "\n")

    with stage("battery"):
        battery = rigidity.separation_battery(
            rigid, n_pairs=int(config["battery_pairs"]), seed=seed + 1, rank=ms.rank
        )
        battery_report = {
            "pairs": battery.pairs,
            "separated": battery.separated,
            "all_separated": battery.all_separated,
            "agreeing_pairs": [list(t) for t in battery.agree_tags],
        }
        (out / "separation_report.json").write_text(json.dumps(battery_report, indent=2) + "\n")

    with stage("plots"):
        lengths = [e for entry in rigid.entries for e in (entry.ell1, entry.ell2)]
        line_plot(
            out / "witness_lengths.svg",
            [Series("ell_S of witnesses", list(range(1, len(lengths) + 1)), lengths)],
            title="Witness lengths along the schedule",
            xlabel="witness index",
            ylabel="ell_S",
        )
        budget = rigidity.parse_budget(str(config["budget"]))
        ts = [t for t in range(1, int(config["tmax"]) + 1, max(1, int(config["tmax"]) // 400))]
        line_plot(
            out / "budget_curve.svg",
            [
                Series("#{ell < T}", ts, [rigid.count_below(t) for t in ts]),
                Series(f"f(T) = {budget.name}", ts, [budget(t) for t in ts]),
            ],
            title="Sparsity budget",
            xlabel="T",
            ylabel="count",
        )

    with stage("manifest"):
        outputs = ["ray.txt", "E.csv", "rank_report.json", "separation_report.json",
                   "witness_lengths.svg", "budget_curve.svg"]
        manifest = {
            "command": " ".join(sys.argv),
            "config_digest": _digest_bytes(
                json.dumps(config, sort_keys=True).encode()
            ),
            "seed": seed,
            "inputs": inputs,
            "tool_version": __version__,
            "wall_clock_s": round(time.time() - t_start, 3),
            "outputs": {name: _digest_file(out / name) for name in outputs},
            "v_star": growth.v_star,
            "rank_report": rank_report,
            "battery": battery_report,
        }
        (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest


def cmd_pipeline(args) -> int:
    manifest = run_pipeline(args.config, args.out, seed_override=args.seed)
    print(f"pipeline done in {manifest['wall_clock_s']}s; artifacts in {args.out}")
    print(f"rank: {manifest['rank_report']['rank']}  battery: "
          f"{manifest['battery']['separated']}/{manifest['battery']['pairs']} separated")
    return 0


# -- selfcheck -------------------------------------------------------------------------


def _selfcheck_rows():
    ms2 = coding.build_free_group_coding(2)
    ms3 = coding.build_free_group_coding(3)

    def check_bijection():
        for ms, n_ok in ((ms2, 10), (ms3, 10)):
            for n in range(1, n_ok + 1):
                if ms.count_paths(n) != words.sphere_size(ms.rank, n):
                    return False, f"path count mismatch at rank {ms.rank}, n={n}"
        return True, "path counts match sphere sizes for n <= 10, rank 2 and 3"

    def check_components():
        rep = coding.classify_components(ms2)
        if len(rep.maximal()) != 1 or rep.maximal()[0].spectral_radius != 3:
            return False, "free coding classification wrong"
        doc = coding.classify_components(fixtures.coding_with_tail_cycle(2))
        flags = sorted((str(c.spectral_radius), c.word_maximal) for c in doc.components)
        if flags != [("1", False), ("3", True)]:
            return False, f"doctored classification wrong: {flags}"
        return True, "spectral radii 3 (maximal) and 1 (non-maximal) classified exactly"

    def check_growth():
        unit = treemetric.word_metric(2)
        pot = thermo.potential_from_metric(ms2, unit, k=4)
        v = thermo.solve_growth_rate(ms2, pot).v_star
        err = abs(v - math.log(3))
        return err <= 1e-9, f"unit rose v* = {v:.12f} (err {err:.1e})"

    def check_rpf():
        unit = treemetric.word_metric(2)
        doctored = fixtures.coding_with_tail_cycle(2)
        pot = thermo.potential_from_metric(doctored, unit, k=2)
        growth = thermo.solve_growth_rate(doctored, pot)
        reports = []
        for c in coding.classify_components(doctored).components:
            td = thermo.pressure(c.component, pot, growth.v_star)
            reports.append((c.word_maximal, thermo.check_rpf_sums(td, c.states[0], 10)))
        ok = all(
            (r.bounded and 0.1 < r.band[0] <= r.band[1] < 10) if m else (r.theta is not None and r.theta < 1)
            for m, r in reports
        )
        return ok, "preimage sums bounded on the maximal component, decaying off it"

    def check_partition():
        unit = treemetric.word_metric(2)
        sums = psmeasure.partition_sums(unit, math.log(3), 10)
        gap = max(abs(sums[n] - (1 + 4 * n / 3)) for n in range(11))
        return gap < 1e-10, f"Z_n = 1 + 4n/3 exactly (max gap {gap:.1e})"

    def check_loops():
        comp = coding.classify_components(ms2).maximal()[0].component
        for c in words.enumerate_classes(2, 4, identify_inverse=True)[:30]:
            loop = coding.find_loop_for_class(c, comp)
            if loop.power != 1:
                return False, f"loop power {loop.power} for [{c}]"
        return True, "loop representatives with M = 1 for 30 classes"

    def check_determinism():
        unit = treemetric.word_metric(2)
        aug = coding.augment(ms2)
        pot = thermo.potential_from_metric(ms2, unit, k=1)
        growth = thermo.solve_growth_rate(ms2, pot)
        td = {c: thermo.pressure(c, pot, growth.v_star) for c in growth.maximal_components}
        entries = psmeasure.entry_weight_table(aug, unit, growth.v_star)
        r1 = psmeasure.sample_ray(aug, td, entries, 2000, seed=11)
        r2 = psmeasure.sample_ray(aug, td, entries, 2000, seed=11)
        return r1.states == r2.states, "identical rays from identical seeds"

    def check_doctored_validation():
        rep = coding.validate_strongly_markov(fixtures.coding_with_backtrack(2), radius=3)
        return (not rep.ok) and rep.counterexample is not None, (
            f"backtracking edge flagged (counterexample {rep.counterexample})"
        )

    return [
        ("coding bijection", check_bijection),
        ("component classification", check_components),
        ("growth-rate root", check_growth),
        ("preimage sums", check_rpf),
        ("partition sums", check_partition),
        ("loop representatives", check_loops),
        ("sampler determinism", check_determinism),
        ("doctored validation", check_doctored_validation),
    ]


def cmd_selfcheck(args) -> int:
    failures = 0
    print(f"{'check':<28}{'result':<8}time     detail")
    for name, fn in _selfcheck_rows():
        t0 = time.time()
        try:
            ok, detail = fn()
        except Exception as exc:  # surface, keep going
            ok, detail = False, f"error: {exc}"
        dt = time.time() - t0
        if not ok:
            failures += 1
        print(f"{name:<28}{'PASS' if ok else 'FAIL':<8}{dt:6.2f}s  {detail}")
    return 0 if failures == 0 else 1


# -- parser ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lsrigid",
        description="Sparse length-spectrum rigidity toolkit for free groups.",
    )
    parser.add_argument("--version", action="version", version=f"lsrigid {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, structure=True, rank=True, arithmetic=False):
        if structure:
            p.add_argument("--structure", help="structure JSON file (default: free coding)")
        if rank:
            p.add_argument("--rank", type=int, default=2, help="free group rank (default 2)")
        if arithmetic:
            mode = p.add_mutually_exclusive_group()
            mode.add_argument(
                "--rational", dest="float_mode", action="store_false",
                help="exact rational arithmetic (default)",
            )
            mode.add_argument(
                "--float", dest="float_mode", action="store_true",
                help="binary64 arithmetic",
            )
            p.set_defaults(float_mode=False)

    pc = sub.add_parser("coding", help="build, validate and analyse codings")
    csub = pc.add_subparsers(dest="subcommand", required=True)
    p = csub.add_parser("build", help="free-group coding as JSON")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_coding_build)
    p = csub.add_parser("validate", help="bijection/geodesic checks on a ball")
    add_common(p)
    p.add_argument("--radius", type=int, default=8)
    p.set_defaults(fn=cmd_coding_validate)
    p = csub.add_parser("components", help="strongly connected components and growth")
    add_common(p)
    p.set_defaults(fn=cmd_coding_components)
    p = csub.add_parser("loop", help="loop representative of a conjugacy class")
    add_common(p)
    p.add_argument("--class", dest="cls", required=True, help="class as an ASCII word")
    p.add_argument("--mmax", type=int, default=8)
    p.set_defaults(fn=cmd_coding_loop)

    pt = sub.add_parser("thermo", help="pressure, growth rate, Gibbs data")
    tsub = pt.add_subparsers(dest="subcommand", required=True)
    for name, fn, extra in (
        ("pressure", cmd_thermo_pressure, [("--v", dict(type=float, required=True))]),
        ("growth", cmd_thermo_growth, []),
        ("gibbs", cmd_thermo_gibbs, [("--depth", dict(type=int, default=2)), ("--csv", dict())]),
        ("rpf", cmd_thermo_rpf, [("--state", dict(required=True)), ("--nmax", dict(type=int, default=12))]),
    ):
        p = tsub.add_parser(name)
        add_common(p, arithmetic=True)
        p.add_argument("--graph", required=True, help="metric graph JSON file")
        p.add_argument("--k", type=int, default=6, help="potential truncation depth")
        for flag, kw in extra:
            p.add_argument(flag, **kw)
        p.set_defaults(fn=fn)

    pp = sub.add_parser("ps", help="ball measures, partition sums, ray sampling")
    psub = pp.add_subparsers(dest="subcommand", required=True)
    for name, fn, extra in (
        ("nu", cmd_ps_nu, [("--n", dict(type=int, required=True)), ("--csv", dict())]),
        ("zcheck", cmd_ps_zcheck, [("--nmax", dict(type=int, default=14))]),
        ("cylmass", cmd_ps_cylmass, [("--prefix", dict(required=True)), ("--n", dict(type=int, default=12))]),
        ("sample", cmd_ps_sample, [
            ("--length", dict(type=int, required=True)),
            ("--seed", dict(type=int, default=0)),
            ("--out", dict(required=True)),
        ]),
    ):
        p = psub.add_parser(name)
        add_common(p, arithmetic=True)
        p.add_argument("--graph", required=True)
        p.add_argument("--k", type=int, default=6)
        p.add_argument("--v", type=float, default=None, help="multiplier (default: solve v*)")
        for flag, kw in extra:
            p.add_argument(flag, **kw)
        p.set_defaults(fn=fn)

    pr = sub.add_parser("rigid", help="rigid-set construction and verification")
    rsub = pr.add_subparsers(dest="subcommand", required=True)
    p = rsub.add_parser("build")
    add_common(p)
    p.add_argument("--ray", required=True, help="ray file from `ps sample`")
    p.add_argument("--budget", required=True, help="sqrt | log | linear | poly:p")
    p.add_argument("--tmax", type=float, default=10_000)
    p.add_argument("--classes", type=int, default=20, help="number of classes to cover")
    p.add_argument("--maxlen", type=int, default=4, help="max cyclic length of the enumeration")
    p.add_argument("--mmax", type=int, default=8)
    p.add_argument("--out", default="E.csv")
    p.set_defaults(fn=cmd_rigid_build)
    p = rsub.add_parser("verify")
    p.add_argument("--set", required=True)
    p.add_argument("--graph1", required=True)
    p.add_argument("--graph2", required=True)
    p.set_defaults(fn=cmd_rigid_verify)
    p = rsub.add_parser("rank")
    p.add_argument("--set", required=True)
    p.set_defaults(fn=cmd_rigid_rank)
    p = rsub.add_parser("recover")
    p.add_argument("--set", required=True)
    p.add_argument("--targets", required=True, help="CSV with class,length columns")
    p.set_defaults(fn=cmd_rigid_recover)

    p = sub.add_parser("pipeline", help="end-to-end run emitting all artifacts")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="artifacts")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(fn=cmd_pipeline)

    p = sub.add_parser("selfcheck", help="fast subset of the acceptance checks")
    p.set_defaults(fn=cmd_selfcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except LsrigidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
