"""Cannon codings of free groups.

Claims covered:
    - the shipped coding bijects paths onto reduced words (sphere by sphere)
    - validation reports geodesic violations and bijection deficits with
      counterexamples on doctored structures
    - augmentation adds the absorbing 0 state without changing images
    - the path enumerator and the reachability walk agree with brute force
    - component decomposition, exact spectral radii, word-maximality flags
    - loop representatives spell cyclically reduced words with power 1
"""

import itertools
import json

import numpy as np
import pytest

from lsrigid import coding, fixtures, words
from lsrigid.coding import (
    augment,
    build_free_group_coding,
    classify_components,
    find_loop_for_class,
    scc_decompose,
    validate_strongly_markov,
)
from lsrigid.errors import NotFoundError, ValidationError
from lsrigid.words import ConjClass, Word, conjugation_depth


def _oracle_path_counts(ms, n):
    """Independent count via dense numpy matrix powers."""
    a = ms.transition_matrix().astype(object)
    vec = np.zeros(ms.n_states, dtype=object)
    vec[ms.initial_index] = 1
    for _ in range(n):
        vec = vec @ a
    return int(vec.sum())


def test_free_coding_shape(free2):
    assert free2.n_states == 5
    assert free2.edge_count() == 4 + 4 * 3
    free3 = build_free_group_coding(3)
    assert free3.n_states == 7
    assert free3.edge_count() == 6 + 6 * 5


def test_path_counts_match_spheres(free2):
    for n in range(0, 9):
        assert free2.count_paths(n) == words.sphere_size(2, n)
        assert free2.count_paths(n) == _oracle_path_counts(free2, n)


def test_every_short_path_spells_reduced_word(free2):
    for path in free2.paths(3):
        w = free2.ev(path)
        assert len(w) == 3


def _brute_paths(ms, n, starts, within):
    """Admissible n-edge paths, filtered from all state sequences in index order."""
    out = []
    for s in starts:
        for rest in itertools.product(range(ms.n_states), repeat=n):
            path = (s,) + rest
            if ms.admissible(path) and (within is None or set(rest) <= within):
                out.append(path)
    return out


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_free_group_coding(2),
        lambda: build_free_group_coding(3),
        lambda: fixtures.coding_with_tail_cycle(2),
    ],
    ids=["free2", "free3", "tail_cycle"],
)
def test_paths_match_brute_force(make):
    ms = make()
    everywhere = list(range(ms.n_states))
    comps, _ = scc_decompose(ms)
    for n in range(4):
        assert list(ms.paths(n)) == _brute_paths(ms, n, [ms.initial_index], None)
        assert list(ms.paths(n, starts=everywhere)) == _brute_paths(ms, n, everywhere, None)
        for comp in comps:
            # starts are taken in the order given, not sorted
            starts = sorted(comp.indices, reverse=True)
            got = list(ms.paths(n, starts=starts, within=comp.indices))
            assert got == _brute_paths(ms, n, starts, set(comp.indices))
    with pytest.raises(ValueError):
        next(ms.paths(-1))


def test_reachable_dead_end_and_tail_cycle():
    dead = fixtures.coding_with_dead_end(2)
    d = dead.index("d")
    assert dead.reachable([dead.initial_index]) == set(range(dead.n_states))
    assert dead.reachable([d]) == {d}
    assert dead.reachable([dead.initial_index], skip={d}) == set(range(dead.n_states)) - {d}
    aug = augment(dead)
    assert aug.reachable([d]) == {d, aug.zero_index}
    assert aug.reachable([d], skip={aug.zero_index}) == {d}
    tail = fixtures.coding_with_tail_cycle(2)
    cycle = {tail.index("c1"), tail.index("c2")}
    free_part = {tail.index(s) for s in ("a", "A", "b", "B")}
    assert tail.reachable([tail.index("c2")]) == cycle
    assert tail.reachable([tail.index("a")]) == free_part
    assert tail.reachable([tail.initial_index], skip={tail.index("c1")}) == (
        free_part | {tail.initial_index}
    )


def test_ball_bijection_counts():
    for rank in (2, 3):
        ms = build_free_group_coding(rank)
        total = sum(ms.count_paths(n) for n in range(11))
        assert total == words.ball_size(rank, 10)


def test_validation_clean(free2):
    report = validate_strongly_markov(free2, radius=8)
    assert report.ok
    assert all(r.paths == r.sphere for r in report.rows)
    assert report.counterexample is None


def test_validation_backtracking_edge():
    report = validate_strongly_markov(fixtures.coding_with_backtrack(2), radius=3)
    assert not report.ok
    row2 = report.rows[1]
    assert row2.geodesic_violations > 0
    assert report.counterexample == ("*", "a", "A")


def test_validation_missing_edge():
    report = validate_strongly_markov(fixtures.coding_missing_generator_edge(2), radius=2)
    assert not report.ok
    assert report.rows[0].paths == 3 and report.rows[0].sphere == 4


def test_augment(free2, aug2):
    assert aug2.n_states == 6
    assert aug2.ev(["*", "a", "b", "0", "0"]) == aug2.ev(["*", "a", "b"])
    assert aug2.has_edge(aug2.index("a"), aug2.zero_index)
    assert aug2.has_edge(aug2.zero_index, aug2.zero_index)
    assert not aug2.has_edge(aug2.initial_index, aug2.zero_index)
    # base indices are preserved by augmentation
    for s in free2.states:
        assert aug2.index(s) == free2.index(s)


def test_ev_examples(free2):
    assert str(free2.ev(["*", "a", "b"])) == "ab"
    assert free2.ev(["*"]).is_identity()
    with pytest.raises(ValidationError):
        free2.ev(["*", "a", "A"])


def test_scc_free_coding(free2, comp2):
    comps, transient = scc_decompose(free2)
    assert len(comps) == 1 and not transient
    assert set(comp2.states) == {"a", "A", "b", "B"}


def test_scc_with_transients_and_cycles():
    tail = fixtures.coding_with_tail_cycle(2)
    comps, transient = scc_decompose(tail)
    assert len(comps) == 2 and not transient
    dead = fixtures.coding_with_dead_end(2)
    comps, transient = scc_decompose(dead)
    assert len(comps) == 1 and transient == ["d"]


def test_classification_exact(free2):
    report = classify_components(free2)
    assert len(report.components) == 1
    c = report.components[0]
    assert c.word_maximal and c.spectral_radius == 3
    assert isinstance(c.spectral_radius, __import__("fractions").Fraction)
    report3 = classify_components(build_free_group_coding(3))
    assert report3.components[0].spectral_radius == 5


def test_classification_doctored():
    report = classify_components(fixtures.coding_with_tail_cycle(2))
    by_rho = {c.spectral_radius: c.word_maximal for c in report.components}
    assert by_rho == {3: True, 1: False}


def test_classification_relabelling_invariant(free2):
    # same structure with states listed in a different order
    perm = ["*", "B", "b", "A", "a"]
    old_index = {s: free2.index(s) for s in free2.states}
    new_index = {s: i for i, s in enumerate(perm)}
    succ = [()] * 5
    labels = [()] * 5
    for s in perm:
        i_old = old_index[s]
        pairs = sorted(
            (new_index[free2.states[j]], free2.labels[i_old][k])
            for k, j in enumerate(free2.succ[i_old])
        )
        succ[new_index[s]] = tuple(p for p, _ in pairs)
        labels[new_index[s]] = tuple(l for _, l in pairs)
    shuffled = coding.MarkovStructure(
        rank=2, states=tuple(perm), succ=tuple(succ), labels=tuple(labels)
    )
    report = classify_components(shuffled)
    assert [c.spectral_radius for c in report.components] == [3]
    assert report.maximal()[0].spectral_radius == 3


def test_two_disjoint_maximal_components():
    free = build_free_group_coding(2)
    mirror_states = [s + s for s in free.states if s != "*"]
    edges = []
    for i, targets in enumerate(free.succ):
        for k, j in enumerate(targets):
            src, dst = free.states[i], free.states[j]
            if src != "*":
                edges.append((src + src, dst + dst, free.labels[i][k]))
            else:
                edges.append(("*", dst + dst, free.labels[i][k]))
    doubled = fixtures._with_extra(free, mirror_states, edges)
    report = classify_components(doubled)
    assert sum(1 for c in report.components if c.word_maximal) == 2
    # one edge from the first copy into the second connects the two
    bridged = fixtures._with_extra(free, mirror_states, edges + [("a", "aa", 1)])
    with pytest.raises(ValidationError, match="connected"):
        classify_components(bridged)


def test_find_loop_examples(comp2):
    loop = find_loop_for_class(ConjClass.from_str("ab", 2), comp2)
    assert loop.states == ("a", "b", "a")
    assert str(loop.word) == "ba" and loop.power == 1 and loop.sign == 1
    loop_a = find_loop_for_class(ConjClass.from_str("a", 2), comp2)
    assert loop_a.states == ("a", "a")
    loop_c = find_loop_for_class(ConjClass.from_str("abAB", 2), comp2)
    assert loop_c.power == 1 and len(loop_c.states) == 5
    assert words.cyclic_reduce(loop_c.word) == words.cyclic_reduce(Word.from_str("abAB", 2))


def test_find_loop_with_inverse_identification(comp2):
    # canonical form may be the inverse of the spelled loop; the sign reports it
    for c in words.enumerate_classes(2, 5, identify_inverse=True):
        loop = find_loop_for_class(c, comp2)
        assert loop.power == 1
        target = words.cyclic_reduce(loop.word, identify_inverse=True)
        assert target == c


def test_find_loop_not_found():
    # a 2-cycle component only carries powers of its own label word
    tail = fixtures.coding_with_tail_cycle(2)
    comps, _ = scc_decompose(tail)
    cycle = next(c for c in comps if len(c.states) == 2)
    with pytest.raises(NotFoundError):
        find_loop_for_class(ConjClass.from_str("aa", 2), cycle, m_max=3)


def test_loops_spell_cyclically_reduced_words(free2, comp2):
    # every closed path of length <= 6 inside the component
    member = sorted(comp2.indices)

    def walk(path, remaining):
        if remaining == 0:
            return
        for j in free2.succ[path[-1]]:
            if j in comp2.indices:
                nxt = path + [j]
                if j == path[0] and len(nxt) >= 3:
                    w = free2.ev(nxt)
                    assert conjugation_depth(w) == 0
                walk(nxt, remaining - 1)

    for s in member:
        walk([s], 6)


def test_structure_json_round_trip(free2, tmp_path):
    path = tmp_path / "coding.json"
    path.write_text(json.dumps(free2.to_json()))
    again = coding.load_structure(path)
    assert again.states == free2.states
    assert again.count_paths(5) == free2.count_paths(5)
    assert validate_strongly_markov(again, radius=5).ok


def test_structure_json_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValidationError):
        coding.load_structure(bad)
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"states": ["*", "a"]}))
    with pytest.raises(ValidationError):
        coding.load_structure(missing)
    unreachable = tmp_path / "unreachable.json"
    unreachable.write_text(
        json.dumps(
            {
                "rank": 2,
                "states": ["*", "a", "x"],
                "initial": "*",
                "edges": [{"from": "*", "to": "a", "label": "a"}, {"from": "a", "to": "a", "label": "a"}],
            }
        )
    )
    with pytest.raises(ValidationError):
        coding.load_structure(unreachable)
