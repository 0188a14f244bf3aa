"""Sparse rigid sets.

Claims covered:
    - the witness queries of a rigid set return the witness classes in
      (length, word_key) order and their lengths, the same on every call;
      count_below of a sequence is the list of its counts
    - the budget test agrees with a brute-force count at every integer
      threshold
    - a rigid set built on the seed-7 ray under the log budget keeps
      count_below(T) <= log(1 + T) for every T up to t_max
    - the CSV file round-trips the set: its word, and per entry the class,
      power, positions, witness ends (m1, m2), witness classes and lengths
    - a file in which some witness is not a prefix of the longest is
      refused: a set is one word, so such a file is no set
    - the set built on rose [1,2,3] at seed 1 (10^5 steps, 20 classes, log
      budget) retains at most 4 MB: one word and two ends per entry, no
      copy of each witness
    - the seed-7 set has full rank 2 and recovers the edge lengths of a rose
      from its witness lengths; perturbed targets are inconsistent and a
      rank-deficient set is refused
    - the builder, which reads witness lengths and cores off the ray and
      tells classes apart by their cores, gives the entries, the witness
      classes of each entry, the witness order, the occurrence counts and
      the E.csv bytes of the reference builder that canonicalises every
      candidate, and its word is the ray's letters up to the longest
      witness: rank-2 and rank-3 roses and the twisted rose, log, sqrt and
      linear budgets, three seeds each; among them a twisted-rose ray on
      which a kept pair is feasible only because it repeats a chosen class
    - the seed-7 build runs the least-rotation search on at most two passes
      per kept witness class plus the loop checks of find_loop_for_class
    - two cores of witness classes are one class (inverses identified) iff
      their canonical rotations are equal: ranks 2 to 4, rotations, inverse
      rotations, powers such as (ab)^k against (ba)^k, and unrelated words
    - on the rose [1,2,3] seed-1 set, whose witness classes all have
      distinct lengths, building the set (its loops found beforehand), the
      rank check, count_below, the class count of the rank report and an
      AGREE verification put no word in canonical rotation
    - the builder reads the ray in a doubling prefix: a ray cut right after
      the last kept position gives the same entries, and a ray cut before it
      raises NotFoundError with the horizon of the reference builder
    - verify_separation, which walks the longest witness once per metric,
      gives the verdict, first separating class and largest difference of
      the per-class loop on random distinct pairs at ranks 2 and 3, on
      inner-twist pairs (one point of Outer Space, so AGREE), on binary64
      copies and on a set read back from CSV; every prefix length it reads
      equals translation_length of the class
"""

import csv
import dataclasses
import functools
import gc
import json
import math
import tracemalloc
from array import array
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsrigid import cli, coding, psmeasure, rigidity, thermo, treemetric, words
from lsrigid.coding import find_loop_for_class
from lsrigid.errors import NotFoundError, ValidationError
from lsrigid.rigidity import (
    BUDGET_SLACK,
    RigidSet,
    RigidSetEntry,
    SeparationVerdict,
    _budget_feasible,
    _occurrence_starts,
    parse_budget,
    witness_length,
)


def _entry_classes(rigid, e):
    """The classes of an entry's two witnesses, each canonicalised from its
    prefix of the set's word."""
    letters = tuple(memoryview(rigid.word).cast("b"))
    witness = lambda m: words.Word(letters[:m], rigid.rank)
    return tuple(words.cyclic_reduce(witness(m), identify_inverse=True) for m in (e.m1, e.m2))


def test_witness_queries_order_and_values(aug2, comp2, td_unit, entry_table_unit):
    ray = psmeasure.sample_ray(aug2, {comp2: td_unit}, entry_table_unit, 20_000, seed=3)
    classes = words.enumerate_classes(2, 2, identify_inverse=True)[:4]
    rigid = rigidity.build_rigid_set(ray, classes, "sqrt", t_max=10_000)
    expected = {}
    for e in rigid.entries:
        wc1, wc2 = _entry_classes(rigid, e)
        expected.setdefault(wc1, e.ell1)
        expected.setdefault(wc2, e.ell2)
    order = sorted(expected, key=lambda c: (len(c.letters), words.word_key(c.letters)))
    got = rigid.witness_classes()
    assert got == order
    got.append(got[0])  # callers get a copy, not the cached order
    assert rigid.witness_classes() == order
    lengths = rigid.witness_lengths()
    assert lengths == expected
    lengths.clear()
    assert rigid.witness_lengths() == expected
    for t in (1, 10, 100, 10_000):
        assert rigid.count_below(t) == sum(1 for ell in expected.values() if ell < t)
    ts = sorted({t for ell in expected.values() for t in (ell - 0.5, ell, ell + 1)} | {1, 10_000})
    assert rigid.count_below(ts) == [rigid.count_below(t) for t in ts]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(1, 40), max_size=12),
    st.sampled_from(["sqrt", "log", "linear", "poly:0.5", "poly:1.5"]),
    st.integers(1, 40),
)
def test_budget_feasible_brute_force(values, desc, t_max):
    budget = parse_budget(desc)
    # #{v < T'} <= f(T') for every real T' <= t_max: with integer values the
    # binding T' lie just above an integer T, where the count is #{v <= T}
    brute = all(
        sum(1 for v in values if v <= t) <= budget(t) + BUDGET_SLACK for t in range(1, t_max + 1)
    )
    assert _budget_feasible(values, budget, t_max) == brute


def test_log_budget_keeps_sparse(rigid7):
    assert len(rigid7.entries) == 5
    for t in range(1, 10_001):
        assert rigid7.count_below(t) <= math.log1p(t) + BUDGET_SLACK


def test_rigid_set_csv_round_trip(rigid7, tmp_path):
    path = tmp_path / "E.csv"
    rigid7.to_csv(path)
    again = RigidSet.from_csv(path, rank=2)
    assert again.word == rigid7.word
    assert [(e.m1, e.m2) for e in again.entries] == [(e.m1, e.m2) for e in rigid7.entries]
    assert again == rigid7
    classes = [_entry_classes(rigid7, e) for e in rigid7.entries]
    assert [_entry_classes(again, e) for e in again.entries] == classes
    assert [(e.ell1, e.ell2) for e in again.entries] == [(len(wc1), len(wc2)) for wc1, wc2 in classes]
    assert again.witness_lengths() == rigid7.witness_lengths()


def test_a_file_whose_witnesses_are_not_one_ray_prefix_is_refused(rigid7, tmp_path, capsys):
    # rows of sets built on two rays: no set is one word with these witnesses
    aug, transfer, entry_table = _chain("rose2")
    ray = psmeasure.sample_ray(aug, transfer, entry_table, 22_000, seed=5)
    classes = words.enumerate_classes(2, 3, identify_inverse=True)[:5]
    other = rigidity.build_rigid_set(ray, classes, "sqrt", t_max=10_000)
    other.to_csv(tmp_path / "other.csv")
    rigid7.to_csv(tmp_path / "seed7.csv")
    rows = (tmp_path / "other.csv").read_text().splitlines()[:4]
    rows += (tmp_path / "seed7.csv").read_text().splitlines()[1:]
    (tmp_path / "E.csv").write_text("\n".join(rows) + "\n")
    message = f"{tmp_path / 'E.csv'}, line 2: a witness is not a prefix of the longest witness"
    with pytest.raises(ValidationError) as refused:
        RigidSet.from_csv(tmp_path / "E.csv")
    assert str(refused.value) == message
    (tmp_path / "g1.json").write_text(json.dumps({"rose": [1, 1]}))
    (tmp_path / "g2.json").write_text(json.dumps({"rose": [1, 2]}))
    argv = ["rigid", "verify", "--set", str(tmp_path / "E.csv"),
            "--graph1", str(tmp_path / "g1.json"), "--graph2", str(tmp_path / "g2.json")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_set_retains_one_word_not_a_copy_per_witness():
    aug, transfer, entry_table = _chain("rose3")
    ray = psmeasure.sample_ray(aug, transfer, entry_table, 100_000, seed=1)
    classes = words.first_classes(3, 4, 20, identify_inverse=True)
    gc.collect()
    tracemalloc.start()
    try:
        rigid = rigidity.build_rigid_set(ray, classes, "log", t_max=10_000)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(rigid.entries) == 20
    assert retained <= 4_000_000


def test_rank_and_length_recovery(rigid7):
    assert rigidity.rose_rank_check(rigid7) == 2
    rose = treemetric.rose([Fraction(3, 2), Fraction(1, 2)])
    targets = {c: rose.translation_length(c) for c in rigid7.witness_classes()}
    got = rigidity.recover_lengths(rigid7, targets)
    assert got.consistent
    assert max(abs(x - y) for x, y in zip(got.lengths, (1.5, 0.5))) <= 1e-9
    bent = dict(targets)
    bent[rigid7.witness_classes()[0]] += Fraction(1, 4)
    assert not rigidity.recover_lengths(rigid7, bent).consistent


def test_rank_deficient_set_refused(rigid7):
    # the witnesses a and aa: both classes count only the generator a
    entry = dataclasses.replace(rigid7.entries[0], m1=1, m2=2, ell1=1, ell2=2)
    deficient = RigidSet(rank=2, word=bytes([1, 1]), entries=(entry,))
    assert [str(c) for c in deficient.witness_classes()] == ["a", "aa"]
    assert rigidity.rose_rank_check(deficient) == 1
    with pytest.raises(ValidationError, match="rank 1 < 2"):
        rigidity.recover_lengths(deficient, lambda c: 1.0)


# -- the builder against a reference ------------------------------------------------


def _reference_build(ray, classes, budget, t_max, m_max=8):
    """The builder that canonicalises every candidate witness: for each
    candidate past the optimistic check it builds both witnesses and their
    classes, then tests the budget on the classes kept so far plus these.
    The entries, and the witness classes of each entry."""
    budget = parse_budget(budget)
    letters = ray.word_letters()
    rank = ray.structure.rank
    chosen, entries, pairs = {}, [], []
    for c in classes:
        loop = find_loop_for_class(c, ray.component, m_max)
        pattern = ray.structure.resolve(loop.states)
        for start in _occurrence_starts(ray.indices, pattern):
            n1 = int(start)
            if n1 < 1:
                continue
            n2 = n1 + len(pattern) - 1
            if n2 > len(letters):
                raise NotFoundError("horizon", horizon=len(ray))
            if not _budget_feasible(list(chosen.values()) + [n1, n2], budget, t_max):
                continue
            m1, m2 = witness_length(letters, n1), witness_length(letters, n2)
            wc1 = words.cyclic_reduce(words.Word(letters[:m1], rank), identify_inverse=True)
            wc2 = words.cyclic_reduce(words.Word(letters[:m2], rank), identify_inverse=True)
            tentative = dict(chosen)
            tentative[wc1] = len(wc1)
            tentative[wc2] = len(wc2)
            if not _budget_feasible(list(tentative.values()), budget, t_max):
                continue
            chosen = tentative
            entries.append(RigidSetEntry(c, loop.power, n1, n2, m1, m2, len(wc1), len(wc2)))
            pairs.append((wc1, wc2))
            break
        else:
            raise NotFoundError("horizon", horizon=len(ray))
    return entries, pairs


def _reference_csv(entries, letters, rank, path):
    """E.csv by csv.writer, each witness spelled from the ray's letters up to its end."""
    spell = lambda m: str(words.Word(letters[:m], rank))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class", "M", "N1", "N2", "witness1", "witness2",
                         "ell_S(witness1)", "ell_S(witness2)"])
        for e in entries:
            writer.writerow([str(e.cls), e.power, e.n1, e.n2, spell(e.m1), spell(e.m2),
                             e.ell1, e.ell2])


def _assert_matches_reference(ray, classes, budget, t_max, tmp_path):
    rigid = rigidity.build_rigid_set(ray, classes, budget, t_max=t_max)
    expected, pairs = _reference_build(ray, classes, budget, t_max)
    assert list(rigid.entries) == expected
    letters = ray.word_letters()
    longest = max(m for e in expected for m in (e.m1, e.m2))
    assert rigid.word == bytes(l & 0xFF for l in letters[:longest])
    assert [_entry_classes(rigid, e) for e in rigid.entries] == pairs
    kept = {}
    for wc1, wc2 in pairs:
        kept.setdefault(wc1, len(wc1))
        kept.setdefault(wc2, len(wc2))
    assert rigid.witness_classes() == sorted(kept, key=lambda c: (len(c), words.word_key(c.letters)))
    assert rigid.witness_lengths() == kept
    assert [list(r) for r in rigidity._letter_counts(rigid)] == [
        [sum(1 for l in c.letters if abs(l) == i) for i in range(1, rigid.rank + 1)]
        for c in rigid.witness_classes()
    ]
    rigid.to_csv(tmp_path / "E.csv")
    _reference_csv(expected, letters, rigid.rank, tmp_path / "reference.csv")
    assert (tmp_path / "E.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    return rigid


_GRAPHS = {
    "rose2": lambda: treemetric.rose([1, 1]),
    "rose3": lambda: treemetric.rose([1, 2, 3]),
    "twisted": lambda: treemetric.marked_rose([1, 1], words.parse_substitution({"a": "ab", "b": "b"}, 2)),
}


@functools.cache
def _chain(graph_name):
    graph = _GRAPHS[graph_name]()
    ms = coding.build_free_group_coding(graph.rank)
    aug = coding.augment(ms)
    pot = thermo.potential_from_metric(ms, graph)
    growth = thermo.solve_growth_rate(ms, pot)
    transfer = {c: thermo.pressure(c, pot, growth.v_star) for c in growth.maximal_components}
    return aug, transfer, psmeasure.entry_weight_table(aug, graph, growth.v_star)


@pytest.mark.parametrize("budget", ["log", "sqrt", "linear"])
@pytest.mark.parametrize("graph_name,n_classes,t_max", [("rose2", 5, 10_000), ("twisted", 5, 10_000), ("rose3", 8, 2_000)])
def test_builder_matches_reference(graph_name, n_classes, t_max, budget, tmp_path):
    aug, transfer, entry_table = _chain(graph_name)
    rank = aug.rank
    classes = words.enumerate_classes(rank, 3, identify_inverse=True)[:n_classes]
    for seed in (1, 2, 3):
        ray = psmeasure.sample_ray(aug, transfer, entry_table, 2 * t_max + 2_000, seed=seed)
        _assert_matches_reference(ray, classes, budget, t_max, tmp_path)


def test_builder_keeps_a_pair_that_only_a_repeated_class_makes_feasible(tmp_path):
    # on this ray a kept pair repeats a chosen witness class, and the budget
    # would refuse the pair if that class were counted twice
    aug, transfer, entry_table = _chain("twisted")
    ray = psmeasure.sample_ray(aug, transfer, entry_table, 22_000, seed=1)
    classes = words.enumerate_classes(2, 3, identify_inverse=True)[:5]
    rigid = _assert_matches_reference(ray, classes, "linear", 10_000, tmp_path)
    budget = parse_budget("linear")
    kept, values, repeated = set(), [], []
    for e in rigid.entries:
        wc1, wc2 = _entry_classes(rigid, e)
        if {wc1, wc2} & kept and not _budget_feasible(values + [e.ell1, e.ell2], budget, 10_000):
            repeated.append(e)
        for wc, ell in ((wc1, e.ell1), (wc2, e.ell2)):
            if wc not in kept:
                kept.add(wc)
                values.append(ell)
    assert repeated


def test_seed7_build_canonicalises_only_kept_witnesses(ray7, monkeypatch):
    classes = words.enumerate_classes(2, 4, identify_inverse=True)[:5]
    passed = []
    least_rotation = words._least_rotation_index

    def counted(codes):
        passed.append(len(codes))
        return least_rotation(codes)

    monkeypatch.setattr(words, "_least_rotation_index", counted)
    for c in classes:
        find_loop_for_class(c, ray7.component)
    loop_checks = sum(passed)
    passed.clear()
    rigid = rigidity.build_rigid_set(ray7, classes, "log", t_max=10_000)
    assert sum(passed) <= 2 * sum(e.ell1 + e.ell2 for e in rigid.entries) + loop_checks


def _core(letters):
    """The cyclic core of the free reduction of a letter sequence."""
    core = words.free_reduce(letters)
    while len(core) > 1 and core[0] == -core[-1]:
        core = core[1:-1]
    return core


@st.composite
def _core_pairs(draw):
    """Two cyclically reduced words: unrelated, a rotation of one another or
    of the other's inverse, or such a pair raised to one power."""
    rank = draw(st.integers(2, 4))
    letter = st.integers(1, rank).flatmap(lambda i: st.sampled_from((i, -i)))
    core = st.lists(letter, min_size=1, max_size=8).map(_core).filter(bool)
    a = draw(core)
    kind = draw(st.sampled_from(("other", "rotation", "inverse rotation")))
    b = draw(core) if kind == "other" else a if kind == "rotation" else tuple(-l for l in reversed(a))
    k = draw(st.integers(0, len(b) - 1))
    b = b[k:] + b[:k]
    power = draw(st.sampled_from((1, 1, 2, 3, 4)))
    return a * power, b * power


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_core_pairs())
def test_same_class_is_equality_of_canonical_forms(pair):
    a, b = pair
    same = words._canonical_rotation(a, True) == words._canonical_rotation(b, True)
    assert rigidity._same_class(array("b", a).tobytes(), array("b", b).tobytes()) == same


def test_same_class_on_periodic_words():
    ab, ba = array("b", (1, 2) * 3).tobytes(), array("b", (2, 1) * 3).tobytes()
    a_b, b_a = array("b", (1, -2) * 3).tobytes(), array("b", (-2, 1) * 3).tobytes()
    assert rigidity._same_class(ab, ba) and rigidity._same_class(a_b, b_a)
    assert rigidity._same_class(ab, array("b", (-1, -2) * 3).tobytes())  # (ab)^-3 = (BA)^3
    assert not rigidity._same_class(ab, a_b)
    assert not rigidity._same_class(ab, array("b", (1, 2) * 2).tobytes())


def test_the_hot_path_puts_no_class_in_canonical_rotation(monkeypatch):
    aug, transfer, entry_table = _chain("rose3")
    ray = psmeasure.sample_ray(aug, transfer, entry_table, 100_000, seed=1)
    classes = words.first_classes(3, 4, 20, identify_inverse=True)
    loops = {c: find_loop_for_class(c, ray.component) for c in classes}  # they check their loops canonically
    calls = []
    canonical = words._canonical_rotation

    def counted(letters, identify_inverse):
        calls.append(len(letters))
        return canonical(letters, identify_inverse)

    monkeypatch.setattr(words, "_canonical_rotation", counted)
    monkeypatch.setattr(rigidity, "find_loop_for_class", lambda c, comp, m_max: loops[c])
    rigid = rigidity.build_rigid_set(ray, classes, "log", t_max=10_000)
    rank = rigidity.rose_rank_check(rigid)
    counts = rigid.count_below([1, 100, 10_000, 20_000])
    n_classes = rigid.n_witness_classes
    same_point = _inner_twist_pair((Fraction(1), Fraction(2), Fraction(3)), (2, -3))
    verdict = rigidity.verify_separation(rigid, *same_point)
    assert calls == []
    monkeypatch.undo()
    lengths = [len(c) for c in rigid.witness_classes()]
    assert len(set(lengths)) == len(lengths) == n_classes == 35
    assert rank == 3
    assert counts == [sum(1 for ell in lengths if ell < t) for t in (1, 100, 10_000, 20_000)]
    assert verdict.verdict == "AGREE"


def test_builder_reads_only_the_ray_prefix_it_uses(tmp_path):
    aug, transfer, entry_table = _chain("rose2")
    classes = words.enumerate_classes(2, 3, identify_inverse=True)[:5]
    ray = psmeasure.sample_ray(aug, transfer, entry_table, 30_000, seed=2)
    rigid = _assert_matches_reference(ray, classes, "log", 10_000, tmp_path)
    last = max(e.n2 for e in rigid.entries)
    assert last > rigidity._FIRST_WINDOW  # the prefix doubled at least once

    def cut(states):
        return dataclasses.replace(ray, indices=ray.indices[:states])

    assert rigidity.build_rigid_set(cut(last + 1), classes, "log", t_max=10_000).entries == rigid.entries
    short = cut(last)
    with pytest.raises(NotFoundError) as got:
        rigidity.build_rigid_set(short, classes, "log", t_max=10_000)
    with pytest.raises(NotFoundError) as expected:
        _reference_build(short, classes, "log", 10_000)
    assert got.value.horizon == expected.value.horizon == len(short)


# -- verification against the per-class loop ------------------------------------------


def _reference_verify(rigid, t1, t2):
    """The per-class loop: every witness class tightened from scratch in each
    metric, in witness_classes order, up to the first that separates."""
    tol = 0 if (t1.rational and t2.rational) else 1e-9
    max_diff = 0.0
    for c in rigid.witness_classes():
        diff = abs(t1.translation_length(c) - t2.translation_length(c))
        if diff > tol:
            return SeparationVerdict(separated=True, first_separating=c, max_diff=float(diff))
        max_diff = max(max_diff, float(diff))
    return SeparationVerdict(separated=False, first_separating=None, max_diff=max_diff)


def _inner_twist_pair(lengths, conjugator):
    """A rose and the same rose re-marked by x -> g x g^-1: one point of Outer Space."""
    rank = len(lengths)
    g = words.Word(conjugator, rank)
    subst = {i: g * words.generator(i, rank) * ~g for i in range(1, rank + 1)}
    return treemetric.rose(lengths), treemetric.marked_rose(lengths, subst, tag="inner_twist")


def _pairs(rank, n, key):
    rng = lambda i: np.random.Generator(np.random.Philox(key=[key, i]))
    return [rigidity.random_distinct_pair(rng(i), rank) for i in range(n)]


@functools.cache
def _rank3_set():
    aug, transfer, entry_table = _chain("rose3")
    ray = psmeasure.sample_ray(aug, transfer, entry_table, 6_000, seed=1)
    classes = words.enumerate_classes(3, 3, identify_inverse=True)[:8]
    return rigidity.build_rigid_set(ray, classes, "sqrt", t_max=2_000)


def _assert_verifies_as_reference(rigid, pairs):
    verdicts = []
    for t1, t2 in pairs:
        for a, b in ((t1, t2), (treemetric.as_float(t1), treemetric.as_float(t2))):
            got = rigidity.verify_separation(rigid, a, b)
            assert got == _reference_verify(rigid, a, b)
            verdicts.append(got.verdict)
    return verdicts


def test_verify_matches_the_per_class_loop(rigid7):
    assert "SEPARATED" in _assert_verifies_as_reference(rigid7, _pairs(2, 30, 11))
    assert _assert_verifies_as_reference(_rank3_set(), _pairs(3, 5, 12)).count("SEPARATED") >= 1
    twists = [_inner_twist_pair((Fraction(3, 2), Fraction(1, 2)), g) for g in ((1,), (2, -1), (-2, -2, 1))]
    twists.append(_inner_twist_pair((Fraction(1), Fraction(3, 4), Fraction(2)), (3, 1, -2, 1)))
    assert set(_assert_verifies_as_reference(rigid7, twists[:3])) == {"AGREE"}
    assert set(_assert_verifies_as_reference(_rank3_set(), twists[3:])) == {"AGREE"}


def test_verify_a_set_read_back_from_csv(rigid7, tmp_path):
    rigid7.to_csv(tmp_path / "E.csv")
    again = RigidSet.from_csv(tmp_path / "E.csv", rank=2)
    pairs = _pairs(2, 10, 13) + [_inner_twist_pair((Fraction(5, 4), Fraction(3)), (1, 2))]
    assert _assert_verifies_as_reference(again, pairs)[-2:] == ["AGREE", "AGREE"]


def test_prefix_walk_reads_the_translation_length_of_every_class(rigid7):
    twist2 = _inner_twist_pair((Fraction(3, 4), Fraction(3, 2)), (2, 1))
    twist3 = _inner_twist_pair((Fraction(1, 2), Fraction(5, 4), Fraction(3)), (-3, 2))
    for rigid, graphs in ((rigid7, [*twist2, *_pairs(2, 1, 16)[0]]), (_rank3_set(), [*twist3, *_pairs(3, 1, 17)[0]])):
        letters = memoryview(rigid.word).cast("b")
        for graph in graphs + [treemetric.as_float(g) for g in graphs]:
            walk = rigidity._PrefixWalk(graph, letters, rigid._class_ends)
            for c, (_, m) in zip(rigid.witness_classes(), rigid._classes):
                assert walk.length(m) == graph.translation_length(c)
