"""Cannon codings of free groups.

Claims covered:
    - the shipped coding bijects paths onto reduced words (sphere by sphere)
    - the exact proof accepts the shipped coding of every rank and rejects
      doctored structures with the state path of the first bad step; ranks
      outside 2..26 are refused with the validation error
    - on seeded mutants of the rank-2 coding and of the rank-2 last-two-letters
      coding the proof agrees with the ball-by-ball validation, which reports
      geodesic violations and bijection deficits with counterexamples; both
      accept some mutants that differ from their base (the a -b-> ab edge of
      the last-two-letters coding retargeted to bb is one)
    - augmentation adds the absorbing 0 state without changing images
    - the path enumerator and the reachability walk agree with brute force
    - component decomposition, exact spectral radii, word-maximality flags;
      on random structures the components and transients are those of a
      boolean transitive closure, in state order, and an augmented copy has
      its base coding's components, with the base as their parent
    - loop representatives spell cyclically reduced words with power 1; the
      loop of every class of cyclic length <= 4 at ranks 2 and 3 is the first
      closed path a brute force over ``paths`` finds, by start and rotation;
      a component state with two steps reading one letter is refused
"""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsrigid import coding, fixtures, words
from lsrigid.coding import (
    augment,
    build_free_group_coding,
    classify_components,
    find_loop_for_class,
    check_reduced_coding,
    scc_decompose,
    validate_strongly_markov,
)
from lsrigid.errors import NotFoundError, ValidationError
from lsrigid.words import ConjClass, Word, conjugation_depth


def _oracle_path_counts(ms, n):
    """Independent count via dense numpy matrix powers."""
    a = np.zeros((ms.n_states, ms.n_states), dtype=object)
    for i, targets in enumerate(ms.succ):
        a[i, list(targets)] = 1
    vec = np.zeros(ms.n_states, dtype=object)
    vec[ms.initial_index] = 1
    for _ in range(n):
        vec = vec @ a
    return int(vec.sum())


def test_free_coding_shape(free2):
    assert free2.n_states == 5
    assert sum(map(len, free2.succ)) == 4 + 4 * 3
    free3 = build_free_group_coding(3)
    assert free3.n_states == 7
    assert sum(map(len, free3.succ)) == 6 + 6 * 5


def test_path_counts_match_spheres(free2):
    for n in range(0, 9):
        assert _oracle_path_counts(free2, n) == words.sphere_size(2, n)
        assert sum(1 for _ in free2.paths(n)) == words.sphere_size(2, n)


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
        total = sum(_oracle_path_counts(ms, n) for n in range(11))
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


@pytest.mark.parametrize("rank", [2, 3, 8, 26])
def test_reduced_coding_proof_accepts_free_codings(rank):
    check_reduced_coding(build_free_group_coding(rank))


@pytest.mark.parametrize("rank", [0, 1, 27])
def test_free_coding_rank_out_of_range(rank):
    with pytest.raises(ValidationError, match="rank must be between 2 and 26"):
        build_free_group_coding(rank)


@pytest.mark.parametrize("make, counterexample, message", [
    (fixtures.coding_with_backtrack, ("*", "a", "A"), "reads A, the inverse of the letter before"),
    (fixtures.coding_missing_generator_edge, ("*",), "no step reads b after the path *"),
    (fixtures.coding_with_tail_cycle, ("*", "c1"), "reads a, a letter another step"),
    (fixtures.coding_with_dead_end, ("*", "d"), "reads a, a letter another step"),
])
def test_reduced_coding_proof_counterexamples(make, counterexample, message):
    with pytest.raises(ValidationError, match=message) as exc:
        check_reduced_coding(make(2))
    assert exc.value.counterexample == counterexample


def _mutant(rng, base):
    """The coding with one or two edges relabelled, retargeted, deleted or
    added.  A retargeted or added edge joins a pair of states that no edge
    joins yet: a structure has one edge per pair."""
    edges = [(i, j, l) for i, ls in enumerate(base.labels) for j, l in zip(base.succ[i], ls)]
    letters = words.alphabet(base.rank)
    for _ in range(int(rng.integers(1, 3))):
        kind, k = int(rng.integers(4)), int(rng.integers(len(edges)))
        i, j, l = edges[k]
        if kind == 3:
            i, l = int(rng.integers(base.n_states)), letters[int(rng.integers(len(letters)))]
        joined = {(a, b) for a, b, _ in edges}
        unjoined = [t for t in range(1, base.n_states) if (i, t) not in joined]
        if kind == 0:
            edges[k] = (i, j, letters[int(rng.integers(len(letters)))])
        elif kind == 1 and unjoined:
            edges[k] = (i, unjoined[int(rng.integers(len(unjoined)))], l)
        elif kind == 2:
            del edges[k]
        elif kind == 3 and unjoined:
            edges.append((i, unjoined[int(rng.integers(len(unjoined)))], l))
    succ, labels = [[] for _ in base.states], [[] for _ in base.states]
    for i, j, l in sorted(edges):
        succ[i].append(j)
        labels[i].append(l)
    return coding.MarkovStructure(rank=base.rank, states=base.states, succ=tuple(map(tuple, succ)),
                                  labels=tuple(map(tuple, labels)))


def test_parallel_edges_rejected():
    # one label per (i, j): two loops at a would make paths(2) list (*, a, a) twice
    with pytest.raises(ValidationError, match="two edges a -> a"):
        coding.MarkovStructure(rank=1, states=("*", "a"), succ=((1,), (1, 1)), labels=((1,), (1, -1)))


def _last_two_letters(rank=2):
    """The coding whose states are *, the letters and the reduced two-letter
    words, each state naming the last two letters read: a state's followers
    depend only on its last letter."""
    letters = words.alphabet(rank)
    spell = words.letter_to_char
    states = ("*", *map(spell, letters), *(spell(x) + spell(y) for x in letters for y in letters if y != -x))
    index = {name: i for i, name in enumerate(states)}
    succ, labels = [tuple(index[spell(x)] for x in letters)], [tuple(letters)]
    for name in states[1:]:
        moves = tuple(z for z in letters if z != -words.char_to_letter(name[-1]))
        succ.append(tuple(index[(name + spell(z))[-2:]] for z in moves))
        labels.append(moves)
    return coding.MarkovStructure(rank=rank, states=states, succ=tuple(succ), labels=tuple(labels))


def _edges(ms):
    return ms.succ, ms.labels


def test_last_two_letters_coding_retargeted():
    base = _last_two_letters()
    assert base.n_states == 17
    # a -b-> ab retargeted to bb: bb has ab's followers, so the coding stays exact
    a, ab, bb = base.index("a"), base.index("ab"), base.index("bb")
    succ = tuple(tuple(bb if (i, j) == (a, ab) else j for j in js) for i, js in enumerate(base.succ))
    moved = coding.MarkovStructure(rank=2, states=base.states, succ=succ, labels=base.labels)
    assert _edges(moved) != _edges(base)
    for ms in (base, moved):
        check_reduced_coding(ms)
        assert validate_strongly_markov(ms, radius=5).ok


def test_reduced_coding_proof_agrees_with_ball_validation(free2):
    rng = np.random.default_rng(2024)
    for base in (free2, _last_two_letters()):
        verdicts, changed = [], 0  # changed: accepted mutants that differ from the base
        for _ in range(400):
            try:
                ms = _mutant(rng, base)
            except ValidationError:  # a state became unreachable
                continue
            try:
                check_reduced_coding(ms)
                proved = True
            except ValidationError:
                proved = False
            verdicts.append(proved)
            changed += proved and _edges(ms) != _edges(base)
            assert proved == validate_strongly_markov(ms, radius=5).ok
        assert len(verdicts) > 300 and 0 < sum(verdicts) < len(verdicts)
        if base is not free2:  # every accepted mutant of free2 is free2 itself
            assert changed > 0


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


@st.composite
def _random_structures(draw):
    """2-12 states with random labelled edges (self-loops and edges into the
    initial state among them), each state k > 0 entered from an earlier one,
    so every state is reachable from the initial state."""
    n = draw(st.integers(2, 12))
    letter = st.sampled_from(words.alphabet(2))
    edges = {(draw(st.integers(0, k - 1)), k): draw(letter) for k in range(1, n)}
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n)):
        edges.setdefault((i, j), draw(letter))
    succ = tuple(tuple(sorted(j for (h, j) in edges if h == i)) for i in range(n))
    labels = tuple(tuple(edges[i, j] for j in targets) for i, targets in enumerate(succ))
    states = ("*",) + tuple(f"s{k}" for k in range(1, n))
    return coding.MarkovStructure(rank=2, states=states, succ=succ, labels=labels)


def _closure_components(ms):
    """Components and transients from a boolean transitive closure of the
    non-initial states' adjacency: A | A@A | ... until it stops growing."""
    nodes = [i for i in range(ms.n_states) if i != ms.initial_index]
    a = np.array([[j in ms.succ[i] for j in nodes] for i in nodes], dtype=bool)
    closure = a
    while True:
        grown = closure | ((closure.astype(int) @ closure.astype(int)) > 0)
        if (grown == closure).all():
            break
        closure = grown
    components, transient, placed = [], [], set()
    for p, i in enumerate(nodes):
        if not closure[p, p]:
            transient.append(ms.states[i])
        elif i not in placed:
            members = [nodes[q] for q in range(len(nodes)) if closure[p, q] and closure[q, p]]
            placed.update(members)
            components.append(tuple(ms.states[j] for j in members))
    return components, transient


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_random_structures())
def test_scc_matches_the_transitive_closure(ms):
    comps, transient = scc_decompose(ms)
    assert ([c.states for c in comps], transient) == _closure_components(ms)
    assert all(c.parent is ms for c in comps)
    # an augmented copy has the components of its base coding
    aug_comps, aug_transient = scc_decompose(augment(ms))
    assert (aug_comps, aug_transient) == (comps, transient)
    assert all(c.parent is ms for c in aug_comps)


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


def _brute_loop(c, comp, m_max=8):
    """The first closed path spelling a rotation of c^(sign*m), listed by
    ``MarkovStructure.paths`` inside the component: by m, sign, start state
    and then rotation."""
    ms, member = comp.parent, comp.indices
    inv = tuple(-l for l in reversed(c.letters))
    for m in range(1, m_max + 1):
        for cyc in (c.letters * m, inv * m):
            for s in sorted(member):
                for offset in range(len(cyc)):
                    rotation = cyc[offset:] + cyc[:offset]
                    for path in ms.paths(len(cyc), starts=[s], within=member):
                        if path[-1] == s and tuple(map(ms.label_of, path, path[1:])) == rotation:
                            return tuple(ms.states[i] for i in path)
    return None


@pytest.mark.parametrize(
    "make",
    [lambda: build_free_group_coding(2), lambda: build_free_group_coding(3), lambda: fixtures.coding_with_backtrack(2)],
    ids=["free2", "free3", "backtrack"],
)
def test_find_loop_is_the_first_closed_path_by_start_and_rotation(make):
    ms = make()
    (comp,) = scc_decompose(ms)[0]
    for identify_inverse in (False, True):
        for c in words.enumerate_classes(ms.rank, 4, identify_inverse=identify_inverse):
            assert find_loop_for_class(c, comp).states == _brute_loop(c, comp)


def test_find_loop_refuses_two_steps_reading_one_letter():
    # b steps to a and to a2, both reading a: two paths spell one word
    ms = fixtures._with_extra(build_free_group_coding(2), ["a2"], [("b", "a2", 1), ("a2", "b", 2)])
    (comp,) = scc_decompose(ms)[0]
    assert comp.contains("a2")
    with pytest.raises(ValidationError, match="two steps from b read one letter"):
        find_loop_for_class(ConjClass.from_str("ab", 2), comp)


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
    assert again == free2
    check_reduced_coding(again)
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
