"""Marked metric graphs.

Claims covered:
    - distances agree with an independent substitute-and-tighten oracle, on
      roses, the subdivided rose, the theta graph, the barbell and the
      twisted rose
    - Gromov products (a reference formula kept here) and the zero-slack
      four-point condition on trees
    - translation lengths: cyclic tightening vs the iterative-quotient oracle
      and vs the reference formula dist - 2(x, x^-1), exact on trees
    - integer lengths over one denominator give the values of the Fraction
      arithmetic they replace (kept here as the reference): dist and
      translation_length on the fixtures, 90 battery draws of rank 2 to 4 and
      two graphs with odd denominators, rational and float (bit-identical
      floats but for the summation order of a rotated loop), and
      witness_deviation on the seed-7 rigid set
    - translation_length needs no cyclic reduction: a word, its conjugates and
      its class (with or without inverses identified) get one length; a word
      or class of another rank is refused
    - the theta graph's three circles and the barbell's bridge give the
      expected lengths
    - marking validation catches broken and non-injective markings
    - folding accepts exactly the markings that are isomorphisms: it rejects
      non-surjective and non-injective markings, accepts every battery draw
      and dangling trees, and agrees with the short-word kernel oracle
    - graphs of rank 8 build (the ball check could not reach them)
    - the increment window is 0 on rose12 and the subdivided rose and 1 on the
      twisted rose, summed increments give every distance up to length 6,
      and a window search past its cap exits with code 3
    - ball counts equal the count of reduced closed edge paths at the
      basepoint on rose12, the subdivided rose, the theta graph, the barbell,
      the twisted rose (rational and float) and random marked metrics of
      rank 2 and 3
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
from lsrigid.errors import ResourceCapError, ValidationError
from lsrigid.treemetric import MetricGraph, ball_counts, marked_rose, rose, word_metric
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


def gromov_product(x: Word, y: Word, metric):
    """(x, y) at the identity: half of dist(x) + dist(y) - dist(x^-1 y)."""
    return (metric.dist(x) + metric.dist(y) - metric.dist((~x) * y)) / 2


def tl_via_gromov(x: Word, metric):
    """dist(x) - 2 (x, x^-1): the translation length of x, on trees."""
    return metric.dist(x) - 2 * gromov_product(x, ~x, metric)


def _random_word(rng, rank, max_len):
    letters = []
    alphabet = [i for i in range(1, rank + 1)] + [-i for i in range(1, rank + 1)]
    for _ in range(rng.randint(0, max_len)):
        choices = [l for l in alphabet if not letters or l != -letters[-1]]
        letters.append(rng.choice(choices))
    return Word(tuple(letters), rank)


def test_dist_examples(rose12):
    assert rose12.dist(words.identity(2)) == 0
    assert rose12.dist(Word.from_str("a", 2)) == 1
    assert rose12.dist(Word.from_str("aBa", 2)) == 4


def test_dist_matches_oracle(rose12, subdivided_rose, theta, barbell, twisted):
    rng = random.Random(7)
    for graph in (rose12, subdivided_rose, theta, barbell, twisted):
        for _ in range(120):
            w = _random_word(rng, 2, 8)
            assert graph.dist(w) == _oracle_dist(graph, w)


def test_dist_symmetric(rose12, subdivided_rose):
    rng = random.Random(3)
    for graph in (rose12, subdivided_rose):
        for _ in range(60):
            w = _random_word(rng, 2, 8)
            assert graph.dist(w) == graph.dist(~w)


def test_gromov_product_examples(unit_rose2):
    a, b, ab = (Word.from_str(s, 2) for s in ("a", "b", "ab"))
    assert gromov_product(a, b, unit_rose2) == 0
    assert gromov_product(ab, a, unit_rose2) == 1
    x = Word.from_str("abA", 2)
    assert gromov_product(x, x, unit_rose2) == unit_rose2.dist(x)


def test_four_point_condition_exact(rose12, subdivided_rose, twisted):
    # trees have zero hyperbolicity slack, checked in exact rationals
    rng = random.Random(11)
    for graph in (rose12, subdivided_rose, twisted):
        for _ in range(80):
            x, y, z = (_random_word(rng, 2, 8) for _ in range(3))
            xy = gromov_product(x, y, graph)
            xz = gromov_product(x, z, graph)
            yz = gromov_product(y, z, graph)
            assert xy >= min(xz, yz)


def test_translation_length_examples(rose12, unit_rose2):
    assert rose12.translation_length(ConjClass.from_str("a", 2)) == 1
    assert unit_rose2.translation_length(ConjClass.from_str("abAB", 2)) == 4
    assert rose12.translation_length(words.cyclic_reduce(words.identity(2))) == 0


def test_translation_length_unit_rose_is_cyclic_length(unit_rose2):
    for c in words.enumerate_classes(2, 4):
        assert unit_rose2.translation_length(c) == len(c)


def test_translation_length_vs_iterative_quotient(rose12, subdivided_rose, twisted):
    # dist(x^64) - dist(x^32) equals 32 * ell exactly on a tree; the plain
    # quotient dist(x^32)/32 converges with the conjugation offset
    rng = random.Random(5)
    for graph in (rose12, subdivided_rose, twisted):
        for _ in range(25):
            w = _random_word(rng, 2, 6)
            if w.is_identity():
                continue
            ell = graph.translation_length(words.cyclic_reduce(w))
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
        base = rose12.translation_length(c)
        for n in range(1, 6):
            assert rose12.translation_length(c.power(n)) == n * base


def test_tl_via_gromov_examples(unit_rose2):
    assert tl_via_gromov(Word.from_str("ab", 2), unit_rose2) == 2
    assert tl_via_gromov(Word.from_str("abA", 2), unit_rose2) == 1
    assert tl_via_gromov(Word.from_str("a", 2), unit_rose2) == 1


def test_tl_via_gromov_exact_on_trees(rose12, subdivided_rose, theta, barbell, twisted):
    rng = random.Random(13)
    for graph in (rose12, subdivided_rose, theta, barbell, twisted):
        for _ in range(60):
            w = _random_word(rng, 2, 8)
            if w.is_identity():
                continue
            assert tl_via_gromov(w, graph) == graph.translation_length(words.cyclic_reduce(w))


def test_rational_vs_float_mode(rose12):
    assert rose12.rational
    f = treemetric.as_float(rose12)
    assert not f.rational
    w = Word.from_str("abAB", 2)
    assert abs(float(rose12.dist(w)) - f.dist(w)) < 1e-12


def test_subdivided_rose_distances(subdivided_rose):
    # b is marked by the two-edge cycle of length 2, a by the unit loop
    assert subdivided_rose.dist(Word.from_str("b", 2)) == 2
    assert subdivided_rose.dist(Word.from_str("ab", 2)) == 3
    assert subdivided_rose.translation_length(ConjClass.from_str("ab", 2)) == 3


def test_theta_and_barbell_lengths(theta, barbell):
    ell = lambda graph, c: graph.translation_length(ConjClass.from_str(c, 2))
    # the theta graph's three embedded circles p-q, p-r, q-r
    assert (ell(theta, "a"), ell(theta, "b"), ell(theta, "aB")) == (Fraction(3, 2), Fraction(5, 2), 2)
    # the barbell's b crosses the bridge q twice, its loop r not at all
    assert barbell.dist(Word.from_str("b", 2)) == Fraction(5, 2)
    assert (ell(barbell, "a"), ell(barbell, "b"), ell(barbell, "ab")) == (1, Fraction(3, 2), Fraction(7, 2))


# -- the Fraction arithmetic, kept as the reference ---------------------------------


def _reference_walk(graph: MetricGraph, letters):
    """Tight path and running length, edge by edge in Fraction (or float)
    arithmetic on the edges' own lengths, as before the integer length table."""
    stack, total = [], 0 if all(isinstance(e.length, Fraction) for e in graph.edges) else 0.0
    for letter in letters:
        marking = graph.marking[abs(letter) - 1]
        for e in marking if letter > 0 else tuple(-e for e in reversed(marking)):
            if stack and stack[-1] == -e:
                stack.pop()
                total -= graph.edges[abs(e) - 1].length
            else:
                stack.append(e)
                total += graph.edges[abs(e) - 1].length
    return stack, total


def _reference_translation_length(graph: MetricGraph, x):
    """Cyclically reduce to the canonical rotation, tighten it, peel the ends."""
    c = words.cyclic_reduce(x) if isinstance(x, Word) else x
    path, _ = _reference_walk(graph, c.representative().letters)
    i, j = 0, len(path)
    while j - i >= 2 and path[i] == -path[j - 1]:
        i += 1
        j -= 1
    total = 0 if isinstance(graph.edges[0].length, Fraction) else 0.0
    for e in path[i:j]:
        total += graph.edges[abs(e) - 1].length
    return total


def _assert_same(new, ref, bits=True):
    """Equal Fractions, or floats with the same bits (close, when bits is unset)."""
    if isinstance(ref, float):
        assert isinstance(new, float)
        assert new.hex() == ref.hex() if bits else new == pytest.approx(ref, rel=1e-12)
    else:
        assert isinstance(new, Fraction) and new == ref


def _reference_graphs(*fixtures):
    """The fixtures, 30 battery draws at each of ranks 2, 3 and 4, and two
    graphs whose lengths have no power-of-two denominator."""
    drawn = [rigidity.random_marked_metric(np.random.default_rng([rank, i]), rank)
             for rank in (2, 3, 4) for i in range(30)]
    odd = [rose(["1/3", "2/7", "5/11"]),
           marked_rose(["1/3", "2/7"], words.parse_substitution({"a": "ab", "b": "b"}, 2))]
    return [word_metric(2), *fixtures, *drawn], odd


def _words_and_conjugates(rng, rank, n=8):
    """The identity and random words up to 60 letters, each with a random
    conjugate (which is in general not cyclically reduced)."""
    out = [(words.identity(rank), words.identity(rank))]
    for _ in range(n):
        w, g = _random_word(rng, rank, 60), _random_word(rng, rank, 6)
        out.append((w, g * w * ~g))
    return out


def test_lengths_match_the_fraction_reference(rose12, twisted, subdivided_rose, theta, barbell):
    # dyadic lengths keep every float sum exact, so a rotated loop sums to the
    # same bits; on the odd graphs only the canonical rotation is bit-identical
    dyadic, odd = _reference_graphs(rose12, twisted, subdivided_rose, theta, barbell)
    rng = random.Random(31)
    for graph in dyadic + odd:
        for metric in (graph, treemetric.as_float(graph)):
            for w, conj in _words_and_conjugates(rng, graph.rank):
                for x in (w, conj):
                    _assert_same(metric.dist(x), _reference_walk(metric, x.letters)[1])
                    ref = _reference_translation_length(metric, x)
                    _assert_same(metric.translation_length(x), ref, bits=graph not in odd)
                    _assert_same(metric.translation_length(words.cyclic_reduce(x)), ref)


def test_translation_length_is_a_class_function(rose12, twisted, subdivided_rose, theta, barbell):
    dyadic, odd = _reference_graphs(rose12, twisted, subdivided_rose, theta, barbell)
    rng = random.Random(37)
    for graph in dyadic + odd:
        for w, conj in _words_and_conjugates(rng, graph.rank):
            ell = graph.translation_length(w)
            assert ell == graph.translation_length(conj) == graph.translation_length(words.cyclic_reduce(w))
            assert ell == graph.translation_length(words.cyclic_reduce(conj, identify_inverse=True))


def test_witness_deviation_matches_the_reference(rigid7, rose12, twisted, theta, barbell):
    ell = lambda metric, c: _reference_translation_length(metric, c.representative())
    letters = tuple(memoryview(rigid7.word).cast("b"))
    witness = lambda m: words.cyclic_reduce(words.Word(letters[:m], 2), identify_inverse=True)
    for graph in (rose12, twisted, theta, barbell):
        for metric in (graph, treemetric.as_float(graph)):
            for e in rigid7.entries:
                ref = abs(ell(metric, witness(e.m2)) - ell(metric, witness(e.m1)) - e.power * ell(metric, e.cls))
                _assert_same(rigidity.witness_deviation(rigid7, e, metric), ref)


def test_rank_mismatch_refused(rose12):
    with pytest.raises(ValidationError, match="rank-3 word or class on the rank-2 graph"):
        rose12.translation_length(ConjClass.from_str("c", 3))
    with pytest.raises(ValidationError, match="rank-3"):
        rose12.dist(Word.from_str("ac", 3))
    with pytest.raises(ValidationError, match="rank-2"):
        rose([1, 2, 3]).translation_length(Word.from_str("ab", 2))


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


def test_folding_accepts_isomorphisms(subdivided_rose, twisted):
    base = treemetric.graph_from_json(MARKING_BASE)
    assert base.dist(Word.from_str("b", 2)) == 2
    assert subdivided_rose.dist(Word.from_str("b", 2)) == 2
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
    assert bridged.translation_length(ConjClass.from_str("ab", 2)) == 3
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


def test_json_round_trip(subdivided_rose, tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(subdivided_rose.to_json()))
    again = treemetric.load_graph(path)
    for s in ("ab", "aB", "bbA"):
        w = Word.from_str(s, 2)
        assert again.dist(w) == subdivided_rose.dist(w)


def test_rose_shorthand(tmp_path):
    path = tmp_path / "rose.json"
    path.write_text(json.dumps({"rose": [1, "1/2"]}))
    g = treemetric.load_graph(path)
    assert g.dist(Word.from_str("ab", 2)) == Fraction(3, 2)
    path2 = tmp_path / "twisted.json"
    path2.write_text(json.dumps({"rose": [1, 1], "substitution": {"a": "ab", "b": "b"}}))
    g2 = treemetric.load_graph(path2)
    assert g2.dist(Word.from_str("aB", 2)) == 1  # ab then b^-1 cancels


def _brute_ball_counts(graph: MetricGraph, radii):
    """Orbit points within each radius, counted as the reduced closed edge paths
    at the basepoint: each is the tight path of exactly one group element, and
    its length is that element's distance."""
    lengths = []

    def walk(at, last, length):
        if at == graph.basepoint:
            lengths.append(length)
        for signed in range(-len(graph.edges), len(graph.edges) + 1):
            if signed == 0 or signed == -last:
                continue
            edge = graph.edges[abs(signed) - 1]
            src, dst = (edge.src, edge.dst) if signed > 0 else (edge.dst, edge.src)
            if src == at and length + edge.length <= max(radii):
                walk(dst, signed, length + edge.length)

    walk(graph.basepoint, 0, 0)
    return [sum(1 for l in lengths if l <= t) for t in radii]


def test_ball_counts_additive_vs_enumeration(rose12):
    radii = [1, 2, 3, 4, 5, 6]
    # on rose12 every element within distance 6 has word length <= 6
    values = [rose12.dist(w) for w in words.enumerate_ball(2, 6)]
    brute = [sum(1 for d in values if d <= t) for t in radii]
    assert ball_counts(rose12, radii) == brute == _brute_ball_counts(rose12, radii)


def test_ball_counts_match_edge_paths(rose12, subdivided_rose, theta, barbell, twisted):
    radii = [Fraction(k, 2) for k in range(0, 13)]
    for graph in (rose12, subdivided_rose, theta, barbell, twisted, treemetric.as_float(twisted)):
        assert ball_counts(graph, radii) == _brute_ball_counts(graph, radii)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from([(2, 4), (3, 3)]))
def test_ball_counts_random_metrics(seed, shape):
    rank, t_max = shape
    graph = rigidity.random_marked_metric(np.random.default_rng(seed), rank)
    radii = [Fraction(k, 4) for k in range(4 * t_max + 1)]
    assert ball_counts(graph, radii) == _brute_ball_counts(graph, radii)


def _windowed_dist(inc, w):
    total, state = 0, ()
    for x in w.letters:
        state = inc.step(state, x)
        total += inc.table[state]
    return total


def test_window_increments(rose12, subdivided_rose, twisted):
    assert treemetric.window_increments(rose12).window == 0
    assert treemetric.window_increments(subdivided_rose).window == 0
    assert treemetric.window_increments(word_metric(26)).window == 0
    inc = treemetric.window_increments(twisted)
    assert inc.window == 1
    # a = e1 e2 and b = e2: appending B after a cancels e2, so the distance drops
    assert inc.table[(1, -2)] == -1
    for w in words.enumerate_ball(2, 6):
        assert _windowed_dist(inc, w) == twisted.dist(w)
    # b^6 in front of a pushes the window past the cap
    long_twist = _substituted_rose({"a": "abbbbbb", "b": "b", "c": "c"})
    with pytest.raises(ResourceCapError) as info:
        treemetric.window_increments(long_twist)
    assert info.value.exit_code == 3


def test_window_increments_cached_per_metric(twisted):
    # equal edges and tags, but one graph is exact and the other binary64
    floated = treemetric.as_float(twisted)
    for graph, kind in ((floated, float), (twisted, Fraction), (floated, float)):
        inc = treemetric.window_increments(graph)
        assert inc is treemetric.window_increments(graph)
        assert all(type(d) is kind for d in inc.table.values())


def test_window_increments_left_cancellation():
    # in {a: aab, b: Bab} (a = e1 e1 e2, b = e2^-1 e1 e2) A cancels two edges
    # after b but three after ab, because a cancels the front of b's path; a
    # proof that ignored such left factors would settle on a window of 1
    for spec in ({"a": "a", "b": "aab"}, {"a": "a", "b": "aba"}, {"a": "aab", "b": "Bab"}):
        graph = _substituted_rose(spec)
        inc = treemetric.window_increments(graph)
        assert inc.window == 2
        for w in words.enumerate_ball(2, 7):
            assert _windowed_dist(inc, w) == graph.dist(w)


def test_prefix_reach_covers_left_cancellation(subdivided_rose, twisted):
    """reach(v_1, T(v)) bounds how far any left factor u cancels into v's
    tight path T(v): the common prefix of T(u^-1) and T(v), brute force over
    |u| <= 4."""
    for graph in (subdivided_rose, twisted, _substituted_rose({"a": "aab", "b": "Bab"})):
        reach = treemetric._prefix_reach(graph)
        tight = {w.letters: graph._walk(w)[0] for w in words.enumerate_ball(2, 4)}
        for v in (w for w in tight if 1 <= len(w) <= 3):
            left = 0
            for u in tight:
                if u and u[-1] == -v[0]:
                    continue
                inverse = tight[tuple(-x for x in reversed(u))]
                common = 0
                while common < min(len(inverse), len(tight[v])) and inverse[common] == tight[v][common]:
                    common += 1
                left = max(left, common)
            assert left <= reach(v[0], tight[v]) <= len(tight[v])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.integers(2, 3).flatmap(
        lambda rank: st.tuples(
            st.just(rank),
            st.lists(
                st.lists(st.sampled_from(words.alphabet(rank)), min_size=1, max_size=3),
                min_size=rank,
                max_size=rank,
            ),
        )
    )
)
def test_window_increments_substituted_roses(drawn):
    rank, images = drawn
    subst = {i: words.reduce(raw, rank) for i, raw in enumerate(images, start=1)}
    try:
        graph = marked_rose([1] * rank, subst)
    except ValidationError:
        return
    inc = treemetric.window_increments(graph)
    for w in words.enumerate_ball(rank, 6 if rank == 2 else 4):
        assert _windowed_dist(inc, w) == graph.dist(w)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from([(2, 7), (3, 5), (4, 4)]))
def test_window_increments_random_metrics(seed, shape):
    rank, radius = shape
    graph = rigidity.random_marked_metric(np.random.default_rng(seed), rank)
    inc = treemetric.window_increments(graph)
    for w in words.enumerate_ball(rank, radius):
        assert _windowed_dist(inc, w) == graph.dist(w)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=10))
def test_unit_rose_matches_word_length(raw):
    w = words.reduce(raw, 2)
    assert word_metric(2).dist(w) == len(w)
