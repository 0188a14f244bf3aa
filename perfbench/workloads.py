"""The benchmark's workloads: generated inputs, calls into lsrigid, output checks.

Each workload is a deterministic function of its seed.  ``run`` returns the
outputs that must repeat exactly for one seed (v*, witness lengths, verdicts,
artifact digests) and records every output check in ``Checks``.  With a
``Tracer`` from ``tracing`` the same calls are wrapped in per-layer spans;
``layer_metrics`` turns those spans into the per-layer figures.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import statistics
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from lsrigid import cli, coding, psmeasure, rigidity, thermo, treemetric, words
from tracing import Tracer, self_times

VALIDATE_RADIUS = 6  # the pipeline's default coding check

# Configs passed to ``run_pipeline``; the seed is added per run.
PIPELINE_CONFIGS = {
    # The pipeline's default config, spelled out so the workload stays put if
    # the defaults move.
    "rose2-default": {
        "rank": 2, "graph": {"rose": [1, 1]}, "classes": 5, "budget": "log",
        "ray_length": 100_000, "battery_pairs": 50,
    },
    # Rank 3 makes the coding, potential, rigid set and every MetricGraph
    # heavy.  One battery pair keeps a sample near seven seconds, so that
    # four or five samples fit in one run, and keeps the seed-dependent cost
    # of drawing a rank-3 pair (0.6 to 1.7 s) a small share of run_s.
    "rose3-wide": {
        "rank": 3, "graph": {"rose": [1, 2, 3]}, "classes": 20, "budget": "log",
        "ray_length": 100_000, "battery_pairs": 1,
    },
}

# same-point-verify: long ray, sqrt budget, pairs of one point of Outer Space.
SAME_POINT = {
    "rank": 2, "k": 6, "ray_length": 1_000_000, "classes": 20, "class_max_length": 4,
    "budget": "sqrt", "t_max": 10_000, "m_max": 8, "pairs": 4,
}
LENGTH_MENU = tuple(Fraction(x) for x in ("1/2", "3/4", "1", "5/4", "3/2", "2", "3"))
ARTIFACTS = ("ray.txt", "E.csv", "rank_report.json", "separation_report.json")


def rank_of(workload: str) -> int:
    if workload in PIPELINE_CONFIGS:
        return PIPELINE_CONFIGS[workload]["rank"]
    if workload == "same-point-verify":
        return SAME_POINT["rank"]
    raise ValueError(f"unknown workload {workload!r}")


def unit_rose(workload: str) -> bool:
    if workload in PIPELINE_CONFIGS:
        return set(PIPELINE_CONFIGS[workload]["graph"]["rose"]) == {1}
    return True


# -- output checks ------------------------------------------------------------


@dataclass
class Checks:
    """Every checked operation; a failed one counts against the error rate."""

    rows: list = field(default_factory=list)

    def add(self, name: str, attempted: int, failed: int, detail: str = "") -> None:
        self.rows.append({"name": name, "attempted": attempted, "failed": failed, "detail": detail})

    def expect(self, name: str, ok: bool, detail: str = "") -> None:
        self.add(name, 1, 0 if ok else 1, detail)


def check_common(checks: Checks, workload: str, v_star: float, rank: int, generators: int) -> None:
    checks.expect("full rank", rank == generators, f"rank {rank} of {generators}")
    if unit_rose(workload):
        err = abs(v_star - math.log(3))
        checks.expect("v* = log 3", err <= 1e-9, f"|v* - log 3| = {err:.2e}")


# -- setup: import plus the pipeline's config and coding stages ------------------


def setup(workload: str):
    rank = rank_of(workload)
    ms = coding.build_free_group_coding(rank)
    aug = coding.augment(ms)
    report = coding.validate_strongly_markov(ms, radius=VALIDATE_RADIUS)
    if not report.ok:
        raise RuntimeError(f"free coding of rank {rank} failed validation")
    return ms, aug


# -- same-point pairs -------------------------------------------------------------


def random_reduced(rng: np.random.Generator, rank: int, length: int) -> tuple[int, ...]:
    letters: list[int] = []
    while len(letters) < length:
        l = int(rng.integers(1, rank + 1)) * (1 if rng.integers(2) else -1)
        if not letters or l != -letters[-1]:
            letters.append(l)
    return tuple(letters)


def same_point_specs(seed: int, n_pairs: int, rank: int = 2) -> list[tuple[tuple[Fraction, ...], tuple[int, ...]]]:
    """(edge lengths, conjugator) per pair: lengths from LENGTH_MENU and a
    random reduced conjugator.  Conjugator lengths cycle through 1 to 4, so
    the marking paths, and with them the tightening work, do not depend on
    the seed."""
    rng = np.random.default_rng([seed, rank])
    specs = []
    for i in range(n_pairs):
        lengths = tuple(LENGTH_MENU[int(rng.integers(len(LENGTH_MENU)))] for _ in range(rank))
        specs.append((lengths, random_reduced(rng, rank, 1 + i % 4)))
    return specs


def same_point_pair(lengths, conjugator):
    """The rose with these lengths, and the same rose re-marked by the inner
    automorphism x -> g x g^-1.  Both are one point of Outer Space."""
    rank = len(lengths)
    g = words.Word(conjugator, rank)
    subst = {i: g * words.generator(i, rank) * ~g for i in range(1, rank + 1)}
    return treemetric.rose(lengths), treemetric.marked_rose(lengths, subst, tag="inner_twist")


# -- workloads ------------------------------------------------------------------------


def _digests(folder: Path) -> dict[str, str]:
    return {name: hashlib.sha256((folder / name).read_bytes()).hexdigest() for name in ARTIFACTS}


def _witness_lengths_csv(path: Path) -> list[list[int]]:
    with open(path, newline="") as fh:
        return [[int(r["ell_S(witness1)"]), int(r["ell_S(witness2)"])] for r in csv.DictReader(fh)]


def scanned(witness_classes, verdict) -> int:
    """Witness classes verify_separation reads before its verdict."""
    if verdict.separated:
        return witness_classes.index(verdict.first_separating) + 1
    return len(witness_classes)


@dataclass
class Found:
    """Values the traced wrappers capture from the calls they wrap."""

    states: int = 0
    potential_range: int = 0
    shift_blocks: int = 0
    entry_prefixes: int = 0
    ray_steps: int = 0
    ray_file: Path | None = None
    rigid: object = None
    verdicts: list = field(default_factory=list)


def run_pipeline_workload(workload: str, seed: int, out: Path, tr, checks: Checks, found: Found) -> dict:
    config = dict(PIPELINE_CONFIGS[workload], seed=seed)
    config_path = out / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n")
    art = out / "artifacts"
    with tr.span("workload"):
        manifest = cli.run_pipeline(config_path, art)
    found.ray_file = art / "ray.txt"
    rank_report = manifest["rank_report"]
    check_common(checks, workload, manifest["v_star"], rank_report["rank"], rank_report["generators"])
    battery = manifest["battery"]
    checks.add("battery pairs SEPARATED", battery["pairs"], battery["pairs"] - battery["separated"],
               f"{battery['separated']}/{battery['pairs']} separated")
    return {
        "v_star": manifest["v_star"],
        "witness_lengths": _witness_lengths_csv(art / "E.csv"),
        "verdicts": battery,
        "digests": _digests(art),
    }


def run_same_point(workload: str, seed: int, out: Path, tr, checks: Checks, found: Found, ms, aug) -> dict:
    p = SAME_POINT
    with tr.span("workload"):
        unit = treemetric.rose([1] * p["rank"])
        pot = thermo.potential_from_metric(ms, unit, k=p["k"])
        growth = thermo.solve_growth_rate(ms, pot)
        transfer = {c: thermo.pressure(c, pot, growth.v_star) for c in growth.maximal_components}
        entries = psmeasure.entry_weight_table(aug, unit, growth.v_star)
        ray = psmeasure.sample_ray(aug, transfer, entries, length=p["ray_length"], seed=seed)
        found.ray_file = out / "ray.txt"
        psmeasure.save_ray(ray, found.ray_file)
        classes = words.enumerate_classes(p["rank"], p["class_max_length"], identify_inverse=True)
        rigid = rigidity.build_rigid_set(ray, classes[: p["classes"]], p["budget"],
                                         t_max=p["t_max"], m_max=p["m_max"])
        rigid.to_csv(out / "E.csv")
        rank = rigidity.rose_rank_check(rigid)
        verdicts = []
        for lengths, conjugator in same_point_specs(seed, p["pairs"], p["rank"]):
            with tr.span("rigidity.draw"):
                t1, t2 = same_point_pair(lengths, conjugator)
            with tr.span("rigidity.verify"):
                verdicts.append(rigidity.verify_separation(rigid, t1, t2))
    found.verdicts = verdicts
    check_common(checks, workload, growth.v_star, rank, rigid.rank)
    agree = sum(1 for v in verdicts if not v.separated)
    checks.add("same-point pairs AGREE", len(verdicts), len(verdicts) - agree,
               f"{agree}/{len(verdicts)} agree")
    return {
        "v_star": growth.v_star,
        "witness_lengths": [[e.ell1, e.ell2] for e in rigid.entries],
        "verdicts": [v.verdict for v in verdicts],
        "digests": {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                    for name in ("ray.txt", "E.csv")},
    }


def run(workload: str, seed: int, out: Path, tr, checks: Checks, found: Found, ms, aug) -> dict:
    if workload in PIPELINE_CONFIGS:
        return run_pipeline_workload(workload, seed, out, tr, checks, found)
    return run_same_point(workload, seed, out, tr, checks, found, ms, aug)


# -- tracing ----------------------------------------------------------------------------


def instrument(tr: Tracer, found: Found):
    """(object, attribute, traced replacement) for every layer boundary.

    ``rigidity.separation_battery`` is replaced by the same loop with the
    same Philox keys, split into a draw span and a verify span per pair.
    """

    def keep(attr, transform=lambda r: r):
        return lambda result: setattr(found, attr, transform(result))

    def add_blocks(td):
        found.shift_blocks += td.shift.n_blocks

    def battery(rigid, n_pairs, seed, rank=2, threads=1):
        tags = []
        for i in range(n_pairs):
            rng = np.random.Generator(np.random.Philox(key=[seed, i]))
            with tr.span("rigidity.draw"):
                t1, t2 = rigidity.random_distinct_pair(rng, rank)
            with tr.span("rigidity.verify"):
                verdict = rigidity.verify_separation(rigid, t1, t2)
            found.verdicts.append(verdict)
            if not verdict.separated:
                tags.append((t1.tag, t2.tag))
        return rigidity.BatteryReport(pairs=n_pairs, separated=n_pairs - len(tags), agree_tags=tuple(tags))

    graph_build = "treemetric.graph_build"
    return [
        (coding, "build_free_group_coding",
         tr.wrap("coding.build", coding.build_free_group_coding, keep("states", lambda ms: ms.n_states))),
        (coding, "augment", tr.wrap("coding.augment", coding.augment)),
        (coding, "validate_strongly_markov", tr.wrap("coding.validate", coding.validate_strongly_markov)),
        (treemetric, "rose", tr.wrap(graph_build, treemetric.rose)),
        (treemetric, "marked_rose", tr.wrap(graph_build, treemetric.marked_rose)),
        (rigidity, "rose", tr.wrap(graph_build, rigidity.rose)),
        (rigidity, "marked_rose", tr.wrap(graph_build, rigidity.marked_rose)),
        (thermo, "potential_from_metric",
         tr.wrap("thermo.potential", thermo.potential_from_metric,
                 keep("potential_range", lambda pot: pot.effective_range))),
        (thermo, "solve_growth_rate", tr.wrap("thermo.growth", thermo.solve_growth_rate)),
        (thermo, "pressure", tr.wrap("thermo.transfer", thermo.pressure, add_blocks)),
        (psmeasure, "entry_weight_table",
         tr.wrap("psmeasure.entry_table", psmeasure.entry_weight_table, keep("entry_prefixes", len))),
        (psmeasure, "sample_ray", tr.wrap("psmeasure.sample", psmeasure.sample_ray, keep("ray_steps", len))),
        (psmeasure, "save_ray", tr.wrap("psmeasure.save_ray", psmeasure.save_ray)),
        (rigidity, "build_rigid_set", tr.wrap("rigidity.build", rigidity.build_rigid_set, keep("rigid"))),
        (rigidity, "rose_rank_check", tr.wrap("rigidity.rank", rigidity.rose_rank_check)),
        # the pipeline's rank report and budget plot query the set directly
        (rigidity.RigidSet, "witness_classes",
         tr.wrap("rigidity.set_queries", rigidity.RigidSet.witness_classes)),
        (rigidity.RigidSet, "count_below", tr.wrap("rigidity.set_queries", rigidity.RigidSet.count_below)),
        (rigidity, "separation_battery", battery),
        (cli, "line_plot", tr.wrap("svgplot.plot", cli.line_plot)),
        (cli, "run_pipeline", tr.wrap("cli.run_pipeline", cli.run_pipeline)),
    ]


def coverage(tr: Tracer) -> float:
    """Share of the workload span spent inside layer spans.

    What no layer span covers is the self time of the workload span and of
    ``cli.run_pipeline`` (which is also ``cli.manifest_s``).
    """
    own = self_times(tr.spans)
    (root,) = tr.named("workload")
    uncovered = own[root.id] + sum(own[s.id] for s in tr.named("cli.run_pipeline"))
    return 1.0 - uncovered / root.duration


def layer_metrics(tr: Tracer, found: Found) -> dict[str, float]:
    """Per-layer figures of one traced run (trace.overhead_s is added by run.py)."""
    own = self_times(tr.spans)
    rigid = found.rigid
    witness_classes = rigid.witness_classes()
    lengths = [len(c) for c in witness_classes]
    builds = [s.duration for s in tr.named("treemetric.graph_build")]
    verify_s = tr.total("rigidity.verify")
    draw_s = tr.total("rigidity.draw")
    pairs = len(found.verdicts)
    reads = [scanned(witness_classes, v) for v in found.verdicts]
    # letters tightened: each scanned witness class, once per metric of the pair
    letters = sum(2 * sum(lengths[:n]) for n in reads)
    sample_s = tr.total("psmeasure.sample")
    # coding figures come from the set-up calls, the ones setup_s pays for
    setup_coding = lambda name: sum(s.duration for s in tr.named(name) if s.parent is None)
    return {
        "coding.build_s": setup_coding("coding.build"),
        "coding.validate_s": setup_coding("coding.validate"),
        "coding.states": found.states,
        "treemetric.graph_build_s": statistics.median(builds),
        "treemetric.graphs_built": len(builds),
        "treemetric.tighten_letters_per_s": letters / verify_s,
        "thermo.potential_s": tr.total("thermo.potential"),
        "thermo.growth_s": tr.total("thermo.growth"),
        "thermo.transfer_s": tr.total("thermo.transfer"),
        "thermo.potential_range": found.potential_range,
        "thermo.shift_blocks": found.shift_blocks,
        "psmeasure.entry_table_s": tr.total("psmeasure.entry_table"),
        "psmeasure.entry_prefixes": found.entry_prefixes,
        "psmeasure.sample_s": sample_s,
        "psmeasure.ray_steps_per_s": found.ray_steps / sample_s,
        "psmeasure.save_ray_s": tr.total("psmeasure.save_ray"),
        "psmeasure.ray_bytes": found.ray_file.stat().st_size,
        "rigidity.build_s": tr.total("rigidity.build"),
        "rigidity.witness_classes": len(witness_classes),
        "rigidity.witness_letters": sum(lengths),
        "rigidity.max_witness_len": max(lengths),
        "rigidity.rank_s": tr.total("rigidity.rank"),
        "rigidity.set_queries_s": tr.total("rigidity.set_queries"),
        "rigidity.draw_s": draw_s,
        "rigidity.verify_s": verify_s,
        "rigidity.pairs": pairs,
        "rigidity.pairs_per_s": pairs / (draw_s + verify_s),
        "rigidity.separated": sum(1 for v in found.verdicts if v.separated),
        "rigidity.witnesses_per_verdict": sum(reads) / pairs,
        "svgplot.plot_s": tr.total("svgplot.plot"),
        "cli.manifest_s": sum(own[s.id] for s in tr.named("cli.run_pipeline")),
    }
