"""Marked metric graphs.

Claims covered:
    - distances agree with an independent substitute-and-tighten oracle
    - Gromov products and the zero-slack four-point condition on trees
    - translation lengths: cyclic tightening vs the iterative-quotient oracle
    - the translation-length formula dist - 2(x, x^-1) is exact on trees
    - marking validation catches broken and non-injective markings
    - folding accepts exactly the markings that are isomorphisms: it rejects
      non-surjective and non-injective markings, accepts every battery draw
      and dangling trees, and agrees with the short-word kernel oracle
    - graphs of rank 8 build (the ball check could not reach them)
    - JSON round trips for roses, twisted roses and general graphs
"""

import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsrigid import rigidity, treemetric, words
from lsrigid.errors import BelowThresholdError, ValidationError
from lsrigid.treemetric import (
    MetricGraph,
    ball_counts,
    dilation,
    gromov_product,
    marked_rose,
    rose,
    tl_via_gromov,
    translation_length,
    word_metric,
)
from lsrigid.words import ConjClass, Word


def _oracle_dist(graph: MetricGraph, w: Word):
    """Tighten-and-sum, reimplemented directly on signed edge lists."""
    path = []
    for letter in w.letters:
        marking = graph.marking[abs(letter) - 1]
        steps = marking if letter > 0 else tuple(-e for e in reversed(marking))
        for e in steps:
            if path and path[-1] == -e:
                path.pop()
            else:
                path.append(e)
    return sum(graph.edges[abs(e) - 1].length for e in path)


def _random_word(rng, rank, max_len):
    letters = []
    alphabet = [i for i in range(1, rank + 1)] + [-i for i in range(1, rank + 1)]
    for _ in range(rng.randint(0, max_len)):
        choices = [l for l in alphabet if not letters or l != -letters[-1]]
        letters.append(rng.choice(choices))
    return Word(tuple(letters), rank)


@pytest.fixture(scope="module")
def theta_graph():
    """Two vertices, a loop plus a two-edge cycle: Betti number 2, not a rose."""
    return treemetric.graph_from_json(
        {
            "rank": 2,
            "vertices": ["u", "w"],
            "edges": [
                {"id": "p", "from": "u", "to": "u", "length": 1},
                {"id": "q", "from": "u", "to": "w", "length": "1/2"},
                {"id": "r", "from": "w", "to": "u", "length": "3/2"},
            ],
            "basepoint": "u",
            "marking": {"a": "p", "b": "q r"},
        }
    )


@pytest.fixture(scope="module")
def twisted():
    subst = words.parse_substitution({"a": "ab", "b": "b"}, 2)
    return marked_rose([1, 1], subst)


def test_dist_examples(rose12):
    assert rose12.dist(words.identity(2)) == 0
    assert rose12.dist(Word.from_str("a", 2)) == 1
    assert rose12.dist(Word.from_str("aBa", 2)) == 4


def test_dist_matches_oracle(rose12, theta_graph, twisted):
    rng = random.Random(7)
    for graph in (rose12, theta_graph, twisted):
        for _ in range(120):
            w = _random_word(rng, 2, 8)
            assert graph.dist(w) == _oracle_dist(graph, w)


def test_dist_symmetric(rose12, theta_graph):
    rng = random.Random(3)
    for graph in (rose12, theta_graph):
        for _ in range(60):
            w = _random_word(rng, 2, 8)
            assert graph.dist(w) == graph.dist(~w)


def test_gromov_product_examples(unit_rose2):
    a, b, ab = (Word.from_str(s, 2) for s in ("a", "b", "ab"))
    assert gromov_product(a, b, unit_rose2) == 0
    assert gromov_product(ab, a, unit_rose2) == 1
    x = Word.from_str("abA", 2)
    assert gromov_product(x, x, unit_rose2) == unit_rose2.dist(x)


def test_four_point_condition_exact(rose12, theta_graph, twisted):
    # trees have zero hyperbolicity slack, checked in exact rationals
    rng = random.Random(11)
    for graph in (rose12, theta_graph, twisted):
        for _ in range(80):
            x, y, z = (_random_word(rng, 2, 8) for _ in range(3))
            xy = gromov_product(x, y, graph)
            xz = gromov_product(x, z, graph)
            yz = gromov_product(y, z, graph)
            assert xy >= min(xz, yz)


def test_translation_length_examples(rose12, unit_rose2):
    assert translation_length(ConjClass.from_str("a", 2), rose12) == 1
    assert translation_length(ConjClass.from_str("abAB", 2), unit_rose2) == 4
    assert translation_length(words.cyclic_reduce(words.identity(2)), rose12) == 0


def test_translation_length_unit_rose_is_cyclic_length(unit_rose2):
    for c in words.enumerate_classes(2, 4):
        assert translation_length(c, unit_rose2) == len(c)


def test_translation_length_vs_iterative_quotient(rose12, theta_graph, twisted):
    # dist(x^64) - dist(x^32) equals 32 * ell exactly on a tree; the plain
    # quotient dist(x^32)/32 converges with the conjugation offset
    rng = random.Random(5)
    for graph in (rose12, theta_graph, twisted):
        for _ in range(25):
            w = _random_word(rng, 2, 6)
            if w.is_identity():
                continue
            ell = translation_length(words.cyclic_reduce(w), graph)
            assert graph.dist(w**64) - graph.dist(w**32) == 32 * ell
            quotient = graph.dist(w**32) / 32
            assert abs(quotient - ell) <= graph.dist(w) / 16


def test_power_scaling(rose12):
    rng = random.Random(9)
    for _ in range(30):
        w = _random_word(rng, 2, 6)
        if w.is_identity():
            continue
        c = words.cyclic_reduce(w)
        base = translation_length(c, rose12)
        for n in range(1, 6):
            assert translation_length(c.power(n), rose12) == n * base


def test_tl_via_gromov_examples(unit_rose2):
    assert tl_via_gromov(Word.from_str("ab", 2), unit_rose2) == 2
    assert tl_via_gromov(Word.from_str("abA", 2), unit_rose2) == 1
    assert tl_via_gromov(Word.from_str("a", 2), unit_rose2) == 1


def test_tl_via_gromov_exact_on_trees(rose12, theta_graph, twisted):
    rng = random.Random(13)
    for graph in (rose12, theta_graph, twisted):
        for _ in range(60):
            w = _random_word(rng, 2, 8)
            if w.is_identity():
                continue
            assert tl_via_gromov(w, graph) == translation_length(words.cyclic_reduce(w), graph)


def test_tl_via_gromov_threshold(unit_rose2):
    with pytest.raises(BelowThresholdError):
        tl_via_gromov(words.identity(2), unit_rose2, threshold=Fraction(1, 2))


def test_dilation(rose12, unit_rose2):
    classes = words.enumerate_classes(2, 2)
    l12 = lambda c: translation_length(c, rose12)
    l11 = lambda c: translation_length(c, unit_rose2)
    assert dilation(l12, l12, classes) == 1
    rose22 = rose([2, 2])
    l22 = lambda c: translation_length(c, rose22)
    assert dilation(l22, l11, words.enumerate_classes(2, 4)) == 2
    two = dilation(l12, l11, [ConjClass.from_str("a", 2), ConjClass.from_str("b", 2)])
    assert two == 2
    with pytest.raises(ZeroDivisionError):
        dilation(l12, lambda c: 0, classes[:1])
    with pytest.raises(ValueError):
        dilation(l12, l11, [])


def test_rational_vs_float_mode(rose12):
    assert rose12.rational
    f = treemetric.as_float(rose12)
    assert not f.rational
    w = Word.from_str("abAB", 2)
    assert abs(float(rose12.dist(w)) - f.dist(w)) < 1e-12


def test_theta_graph_distances(theta_graph):
    # b is marked by the two-edge cycle of length 2, a by the unit loop
    assert theta_graph.dist(Word.from_str("b", 2)) == 2
    assert theta_graph.dist(Word.from_str("ab", 2)) == 3
    assert translation_length(ConjClass.from_str("ab", 2), theta_graph) == 3
    assert not theta_graph.additive


MARKING_BASE = {
    "rank": 2,
    "vertices": ["u", "w"],
    "edges": [
        {"id": "p", "from": "u", "to": "u", "length": 1},
        {"id": "q", "from": "u", "to": "w", "length": 1},
        {"id": "r", "from": "w", "to": "u", "length": 1},
    ],
    "basepoint": "u",
    "marking": {"a": "p", "b": "q r"},
}


def test_marking_validation_errors():
    base = MARKING_BASE
    not_closed = json.loads(json.dumps(base))
    not_closed["marking"]["b"] = "q"
    with pytest.raises(ValidationError):
        treemetric.graph_from_json(not_closed)
    not_composable = json.loads(json.dumps(base))
    not_composable["marking"]["b"] = "r q"
    with pytest.raises(ValidationError):
        treemetric.graph_from_json(not_composable)
    not_injective = json.loads(json.dumps(base))
    not_injective["marking"]["b"] = "p"
    with pytest.raises(ValidationError):
        treemetric.graph_from_json(not_injective)
    wrong_betti = json.loads(json.dumps(base))
    wrong_betti["edges"] = wrong_betti["edges"][:2]
    with pytest.raises(ValidationError):
        treemetric.graph_from_json(wrong_betti)
    bad_length = json.loads(json.dumps(base))
    bad_length["edges"][0]["length"] = 0
    with pytest.raises(ValidationError):
        treemetric.graph_from_json(bad_length)


def _substituted_rose(spec):
    rank = len(spec)
    return marked_rose([1] * rank, words.parse_substitution(spec, rank))


def _short_kernel_word(graph, radius):
    """The brute-force check folding replaced: a non-trivial word of length
    <= radius whose marking path tightens to a point, or None."""
    for w in words.enumerate_ball(graph.rank, radius):
        if not w.is_identity() and graph.dist(w) == 0:
            return w
    return None


@pytest.mark.parametrize(
    "spec",
    [
        {"a": "aa", "b": "b"},  # image of index 2
        {"a": "aba", "b": "b"},  # image of index 2
        {"a": "a", "b": "b", "c": "aaaabbb"},  # not injective: c maps into <a, b>
    ],
)
def test_folding_rejects_non_isomorphisms(spec):
    with pytest.raises(ValidationError) as info:
        _substituted_rose(spec)
    assert info.value.exit_code == 2


def test_folding_accepts_isomorphisms(theta_graph, twisted):
    base = treemetric.graph_from_json(MARKING_BASE)
    assert base.dist(Word.from_str("b", 2)) == 2
    assert theta_graph.dist(Word.from_str("b", 2)) == 2
    assert twisted.dist(Word.from_str("a", 2)) == 2
    # basepoint on a bridge off the core: the marking paths cross it twice
    bridged = treemetric.graph_from_json(
        {
            "rank": 2,
            "vertices": ["o", "u"],
            "edges": [
                {"id": "s", "from": "o", "to": "u", "length": 1},
                {"id": "p", "from": "u", "to": "u", "length": 1},
                {"id": "q", "from": "u", "to": "u", "length": 2},
            ],
            "basepoint": "o",
            "marking": {"a": "s p -s", "b": "s q -s"},
        }
    )
    assert bridged.dist(Word.from_str("a", 2)) == 3
    assert translation_length(ConjClass.from_str("ab", 2), bridged) == 3
    # a dangling edge the marking never reaches, and a marking path that backtracks
    dangling = json.loads(json.dumps(MARKING_BASE))
    dangling["vertices"].append("x")
    dangling["edges"].append({"id": "h", "from": "w", "to": "x", "length": 1})
    dangling["marking"]["b"] = "q h -h r"
    assert treemetric.graph_from_json(dangling).dist(Word.from_str("b", 2)) == 2


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2**32 - 1))
def test_battery_draws_are_accepted(rank, seed):
    graph = rigidity.random_marked_metric(np.random.default_rng(seed), rank)
    assert graph.rank == rank


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 3).flatmap(
        lambda rank: st.tuples(
            st.just(rank),
            st.lists(
                st.lists(st.sampled_from(words.alphabet(rank)), min_size=1, max_size=4),
                min_size=rank,
                max_size=rank,
            ),
        )
    )
)
def test_folding_accepts_no_short_kernel(drawn):
    rank, images = drawn
    subst = {i: words.reduce(raw, rank) for i, raw in enumerate(images, start=1)}
    try:
        graph = marked_rose([1] * rank, subst)
    except ValidationError:
        return
    assert _short_kernel_word(graph, 4) is None


def test_rank8_graphs_build():
    unit = word_metric(8)
    assert unit.dist(Word.from_str("abcdefgh", 8)) == 8
    spec = {c: c for c in "abcdefgh"}
    spec.update(a="ab", h="hG")
    twisted8 = _substituted_rose(spec)
    assert twisted8.dist(Word.from_str("a", 8)) == 2
    assert twisted8.dist(Word.from_str("aB", 8)) == 1


def test_json_round_trip(theta_graph, tmp_path):
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(theta_graph.to_json()))
    again = treemetric.load_graph(path)
    for s in ("ab", "aB", "bbA"):
        w = Word.from_str(s, 2)
        assert again.dist(w) == theta_graph.dist(w)


def test_rose_shorthand(tmp_path):
    path = tmp_path / "rose.json"
    path.write_text(json.dumps({"rose": [1, "1/2"]}))
    g = treemetric.load_graph(path)
    assert g.dist(Word.from_str("ab", 2)) == Fraction(3, 2)
    path2 = tmp_path / "twisted.json"
    path2.write_text(json.dumps({"rose": [1, 1], "substitution": {"a": "ab", "b": "b"}}))
    g2 = treemetric.load_graph(path2)
    assert g2.dist(Word.from_str("aB", 2)) == 1  # ab then b^-1 cancels


def test_ball_counts_additive_vs_enumeration(rose12):
    dp = ball_counts(rose12, [1, 2, 3, 4, 5, 6])
    brute = ball_counts(rose12.oracle(), [1, 2, 3, 4, 5, 6], word_radius=6)
    assert dp == brute


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=10))
def test_unit_rose_matches_word_length(raw):
    w = words.reduce(raw, 2)
    assert word_metric(2).dist(w) == len(w)
