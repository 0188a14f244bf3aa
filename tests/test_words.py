"""Free-group arithmetic.

Claims covered:
    - reduction cancels inverse pairs and is idempotent; a letter outside the
      rank is refused, also when it would cancel
    - letters are ordered a < A < b < B < ... for every canonical choice
    - words and classes spell through one table as ``letter_to_char`` does,
      for every letter of every rank, and a spelled word parses back
    - cyclic reduction is conjugation invariant with canonical rotations
    - sphere and class enumerations match independent brute-force oracles
    - resource guards trip before oversized enumerations
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


def test_resource_guards():
    with pytest.raises(ResourceCapError):
        words.enumerate_sphere(2, 20, cap=1000)
    with pytest.raises(ResourceCapError):
        words.enumerate_classes(2, 20, cap=1000)


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
