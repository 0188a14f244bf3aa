"""Free-group arithmetic.

Claims covered:
    - reduction cancels inverse pairs and is idempotent; a letter outside the
      rank is refused, also when it would cancel
    - letters are ordered a < A < b < B < ... for every canonical choice
    - words and classes spell through one table as ``letter_to_char`` does,
      for every letter of every rank, and a spelled word parses back
    - cyclic reduction is conjugation invariant with canonical rotations
    - sphere and class enumerations match independent brute-force oracles,
      the class enumeration in its order at ranks 2 to 4, lengths 4 and 5
    - resource guards trip before oversized enumerations
    - the least rotation is the least of all rotations, periodic words
      (many candidate starts) included
    - the classes that cyclic_reduce, enumerate_classes and ConjClass.power
      build without re-validation pass the public ConjClass check and equal
      what it builds
    - first_classes(rank, L, n) is enumerate_classes(rank, L)[:n] for every
      n, and trips the same cap as the full enumeration
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsrigid import words
from lsrigid.errors import ResourceCapError
from lsrigid.words import ConjClass, Word, conjugation_depth, cyclic_reduce, reduce


def _oracle_sphere(rank, n):
    """Independent sphere enumeration via filtered cartesian products."""
    letters = [i for i in range(1, rank + 1)] + [-i for i in range(1, rank + 1)]
    out = []
    for tup in itertools.product(letters, repeat=n):
        if all(a != -b for a, b in zip(tup, tup[1:])):
            out.append(tup)
    return set(out)


def _oracle_classes(rank, max_len, identify_inverse):
    """Brute-force rotation dedup over all reduced words of length <= max_len."""
    reps = set()
    for n in range(1, max_len + 1):
        for tup in _oracle_sphere(rank, n):
            if len(tup) >= 2 and tup[0] == -tup[-1]:
                continue
            rotations = [tup[i:] + tup[:i] for i in range(len(tup))]
            if identify_inverse:
                inv = tuple(-x for x in reversed(tup))
                rotations += [inv[i:] + inv[:i] for i in range(len(inv))]
            reps.add(min(rotations, key=words.word_key))
    return reps


def test_reduce_examples():
    assert reduce([1, -1, 2], 2).letters == (2,)
    assert reduce([], 2).letters == ()
    assert reduce([1, 2, -2, 1], 2).letters == (1, 1)


def test_reduce_rejects_out_of_range():
    with pytest.raises(ValueError):
        reduce([3], 2)
    with pytest.raises(ValueError):
        reduce([0], 2)
    with pytest.raises(ValueError):
        Word.from_str("cC", 2)


def test_cyclic_reduce_examples():
    assert str(cyclic_reduce(Word.from_str("abA", 2))) == "b"
    assert str(cyclic_reduce(Word.from_str("Bab", 2))) == "a"
    abab = cyclic_reduce(Word.from_str("abab", 2))
    assert str(abab) == "abab"
    assert cyclic_reduce(Word.from_str("baba", 2)) == abab
    assert cyclic_reduce(words.identity(2)).is_trivial()


def test_word_algebra():
    a, b = words.generator(1, 2), words.generator(2, 2)
    assert str(a * b) == "ab"
    assert (a * ~a).is_identity()
    assert (a * b) ** 2 == Word.from_str("abab", 2)
    assert ~(a * b) == Word.from_str("BA", 2)
    assert (a * b) ** -1 == Word.from_str("BA", 2)


def test_word_requires_reduced():
    with pytest.raises(ValueError):
        Word((1, -1), 2)


def test_sphere_counts_and_contents():
    assert [str(w) for w in words.enumerate_sphere(2, 0)] == ["1"]
    assert len(words.enumerate_sphere(2, 1)) == 4
    sphere3 = words.enumerate_sphere(2, 3)
    assert len(sphere3) == 36
    assert {w.letters for w in sphere3} == _oracle_sphere(2, 3)


@pytest.mark.parametrize("rank,n_enum", [(2, 8), (3, 5)])
def test_sphere_size_formula(rank, n_enum):
    # enumeration where feasible, closed-form count up to 10
    for n in range(n_enum + 1):
        assert len(words.enumerate_sphere(rank, n)) == words.sphere_size(rank, n)
    for n in range(1, 11):
        assert words.sphere_size(rank, n) == 2 * rank * (2 * rank - 1) ** (n - 1)


def test_enumerate_classes_examples():
    assert len(words.enumerate_classes(2, 1)) == 4
    assert len(words.enumerate_classes(2, 1, identify_inverse=True)) == 2
    classes2 = words.enumerate_classes(2, 2)
    assert [str(c) for c in classes2[:4]] == ["a", "A", "b", "B"]
    assert {c.letters for c in classes2} == _oracle_classes(2, 2, False)
    # [ab] and [ba] collapse to one canonical form
    forms = [str(c) for c in classes2]
    assert forms.count("ab") == 1 and "ba" not in forms
    # sorted by (length, canonical form)
    assert forms == sorted(forms, key=lambda s: (len(s), words.word_key(Word.from_str(s, 2).letters)))


def test_enumerate_classes_inverse_identified_oracle():
    got = {c.letters for c in words.enumerate_classes(2, 3, identify_inverse=True)}
    assert got == _oracle_classes(2, 3, True)


@pytest.mark.parametrize("identify_inverse", [False, True])
@pytest.mark.parametrize("rank,max_len", [(2, 5), (3, 4), (4, 4)])
def test_enumerate_classes_matches_the_oracle_in_order(rank, max_len, identify_inverse):
    # the enumeration keeps the first word it meets of each class and
    # canonicalises none; every class is found once, in (length, word_key) order
    got = [c.letters for c in words.enumerate_classes(rank, max_len, identify_inverse)]
    oracle = _oracle_classes(rank, max_len, identify_inverse)
    assert got == sorted(oracle, key=lambda c: (len(c), words.word_key(c)))


def test_resource_guards():
    with pytest.raises(ResourceCapError):
        words.enumerate_sphere(2, 20, cap=1000)
    with pytest.raises(ResourceCapError):
        words.enumerate_classes(2, 20, cap=1000)


@pytest.mark.parametrize("identify_inverse", [False, True])
@pytest.mark.parametrize("rank,max_len", [(2, 4), (3, 3), (4, 2)])
def test_first_classes_is_a_prefix_of_the_enumeration(rank, max_len, identify_inverse, monkeypatch):
    every = words.enumerate_classes(rank, max_len, identify_inverse)
    enumerated = []
    reduced_words = words._reduced_words

    def recorded(rank, n):
        enumerated.append(n)
        return reduced_words(rank, n)

    monkeypatch.setattr(words, "_reduced_words", recorded)
    for n in range(1, len(every) + 2):
        enumerated.clear()
        got = words.first_classes(rank, max_len, n, identify_inverse)
        assert got == every[:n]
        # no length past the one that fills n is enumerated
        assert max(enumerated) == len(got[-1])


def test_first_classes_trips_the_enumeration_cap():
    with pytest.raises(ResourceCapError) as full:
        words.enumerate_classes(2, 20, identify_inverse=True)
    with pytest.raises(ResourceCapError) as first:
        words.first_classes(2, 20, 5, identify_inverse=True)
    assert str(first.value) == str(full.value)
    assert (first.value.requested, first.value.cap) == (full.value.requested, full.value.cap)


def _least_rotation_oracle(codes):
    return min(codes[i:] + codes[:i] for i in range(len(codes)))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(2, 7), min_size=1, max_size=12),
    st.integers(1, 6),
    st.lists(st.integers(2, 7), max_size=3),
)
def test_least_rotation_is_least(period, repeats, tail):
    # period * repeats gives words with many starts of the longest run
    codes = tuple(period * repeats + tail)
    k = words._least_rotation_index(codes)
    assert 0 <= k < len(codes)
    assert codes[k:] + codes[:k] == _least_rotation_oracle(codes)


@pytest.mark.parametrize(
    "codes",
    [(2,) * 40, (2, 3) * 40, (2, 2, 3) * 30 + (2, 2), (3, 2, 2, 4) * 25, (5, 4, 3)],
)
def test_least_rotation_periodic_words(codes):
    k = words._least_rotation_index(codes)
    assert codes[k:] + codes[:k] == _least_rotation_oracle(codes)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 4),
    st.lists(st.tuples(st.integers(1, 4), st.booleans()), max_size=60),
    st.booleans(),
    st.integers(-3, 3),
)
def test_unvalidated_classes_pass_validation(rank, picks, identify_inverse, power):
    letters = [((i - 1) % rank + 1) * (1 if positive else -1) for i, positive in picks]
    c = cyclic_reduce(reduce(letters, rank), identify_inverse)
    for got in (c, c.power(power)):
        assert ConjClass(got.letters, got.rank, got.inverse_identified) == got


@pytest.mark.parametrize("identify_inverse", [False, True])
@pytest.mark.parametrize("rank,max_len", [(2, 5), (3, 3), (4, 3)])
def test_enumerated_classes_pass_validation(rank, max_len, identify_inverse):
    for c in words.enumerate_classes(rank, max_len, identify_inverse):
        assert ConjClass(c.letters, c.rank, c.inverse_identified) == c


def test_conjugation_depth():
    assert conjugation_depth(Word.from_str("abA", 2)) == 1
    assert conjugation_depth(Word.from_str("ab", 2)) == 0
    assert conjugation_depth(Word.from_str("abaBA", 2)) == 2
    assert conjugation_depth(words.identity(2)) == 0


def test_substitutions():
    subst = words.parse_substitution({"a": "ab", "b": "b"}, 2)
    assert str(words.apply_substitution(Word.from_str("aB", 2), subst)) == "a"
    composed = words.compose_substitutions(subst, subst)
    assert str(composed[1]) == "abb"
    with pytest.raises(ValueError):
        words.parse_substitution({"a": "ab"}, 2)


def test_spelling_table_matches_letter_to_char():
    for i in range(1, words.MAX_RANK + 1):
        for l in (i, -i):
            assert str(Word((l,), words.MAX_RANK)) == words.letter_to_char(l)
    assert str(words.identity(3)) == str(ConjClass((), 3)) == "1"
    assert str(ConjClass.from_str("BaB", 2)) == "aBB"


@settings(max_examples=100, deadline=None)
@given(st.integers(1, words.MAX_RANK), st.lists(st.integers(1, 2 * words.MAX_RANK), max_size=40))
def test_spelling_round_trips(rank, picks):
    raw = [(p + 1) // 2 * (1 if p % 2 else -1) for p in picks if (p + 1) // 2 <= rank]
    w = reduce(raw, rank)
    assert Word.from_str(str(w), rank) == w
    assert str(w) == ("".join(words.letter_to_char(l) for l in w.letters) or "1")


_letters2 = st.sampled_from([1, -1, 2, -2])


@st.composite
def raw_words(draw, max_len=12):
    return draw(st.lists(_letters2, max_size=max_len))


@settings(max_examples=200, deadline=None)
@given(raw_words())
def test_reduce_idempotent(raw):
    w = reduce(raw, 2)
    assert reduce(w.letters, 2) == w


@settings(max_examples=200, deadline=None)
@given(raw_words())
def test_reduce_kills_inverse_product(raw):
    w = reduce(raw, 2)
    assert (w * ~w).is_identity()


@settings(max_examples=200, deadline=None)
@given(raw_words(max_len=8), raw_words(max_len=8))
def test_cyclic_reduce_conjugation_invariant(raw_u, raw_w):
    u, w = reduce(raw_u, 2), reduce(raw_w, 2)
    assert cyclic_reduce(u * w * ~u) == cyclic_reduce(w)
    assert cyclic_reduce(u * w * ~u, identify_inverse=True) == cyclic_reduce(
        ~w, identify_inverse=True
    )


@settings(max_examples=150, deadline=None)
@given(raw_words(max_len=9), st.integers(0, 8))
def test_canonical_rotation_invariant(raw, shift):
    w = reduce(raw, 2)
    c = cyclic_reduce(w)
    rotated = c.letters[shift % max(1, len(c)):] + c.letters[: shift % max(1, len(c))]
    if rotated:
        assert cyclic_reduce(Word(rotated, 2)) == c


def test_class_power():
    c = ConjClass.from_str("ab", 2)
    assert str(c.power(2)) == "abab"
    assert c.power(-1) == ConjClass.from_str("AB", 2)
    assert c.power(0).is_trivial()
