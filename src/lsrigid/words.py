"""Exact arithmetic on freely reduced words and conjugacy classes of a free group.

Letters are small signed integers: ``i`` is the i-th basis generator,
``-i`` its inverse (1-based, rank at most 26).  The ASCII form writes
generator ``i`` as the i-th lowercase letter and its inverse as the
corresponding uppercase letter, so ``"aBa"`` is a * b^-1 * a.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ResourceCapError

MAX_RANK = 26
DEFAULT_CAP = 2_000_000

_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def letter_to_char(letter: int) -> str:
    ch = _ALPHABET[abs(letter) - 1]
    return ch if letter > 0 else ch.upper()


def char_to_letter(ch: str) -> int:
    idx = _ALPHABET.index(ch.lower()) + 1
    return idx if ch.islower() else -idx


def letter_key(letter: int) -> tuple[int, int]:
    """Total order a < a^-1 < b < b^-1 < ... used for all canonical choices."""
    return (abs(letter), 0 if letter > 0 else 1)


def word_key(letters: Sequence[int]) -> tuple[tuple[int, int], ...]:
    return tuple(letter_key(l) for l in letters)


def alphabet(rank: int) -> list[int]:
    """The 2N signed letters of rank N in ``letter_key`` order: a, A, b, B, ..."""
    return [l for i in range(1, rank + 1) for l in (i, -i)]


def _check_rank(rank: int) -> None:
    if not 1 <= rank <= MAX_RANK:
        raise ValueError(f"rank must be between 1 and {MAX_RANK}, got {rank}")


def free_reduce(letters: Iterable[int]) -> tuple[int, ...]:
    """Cancel adjacent inverse pairs; the result is the unique reduced form."""
    out: list[int] = []
    for l in letters:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


@dataclass(frozen=True)
class Word:
    """A freely reduced word.  The empty word is the identity."""

    letters: tuple[int, ...]
    rank: int

    def __post_init__(self):
        _check_rank(self.rank)
        for a, b in zip(self.letters, self.letters[1:]):
            if a == -b:
                raise ValueError(f"word {self.letters} is not freely reduced")
        for l in self.letters:
            if l == 0 or abs(l) > self.rank:
                raise ValueError(f"letter {l} out of range for rank {self.rank}")

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return "".join(letter_to_char(l) for l in self.letters) or "1"

    def __repr__(self) -> str:
        return f"Word({self!s}, rank={self.rank})"

    def __mul__(self, other: "Word") -> "Word":
        if other.rank != self.rank:
            raise ValueError("rank mismatch")
        return Word(free_reduce(self.letters + other.letters), self.rank)

    def __invert__(self) -> "Word":
        return Word(tuple(-l for l in reversed(self.letters)), self.rank)

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return (~self) ** (-n)
        result = identity(self.rank)
        for _ in range(n):
            result = result * self
        return result

    def is_identity(self) -> bool:
        return not self.letters

    def is_cyclically_reduced(self) -> bool:
        return len(self.letters) < 2 or self.letters[0] != -self.letters[-1]

    @classmethod
    def from_str(cls, text: str, rank: int) -> "Word":
        text = text.strip()
        if text in ("", "1"):
            return identity(rank)
        return cls(free_reduce(char_to_letter(c) for c in text), rank)


def identity(rank: int) -> Word:
    return Word((), rank)


def generator(i: int, rank: int) -> Word:
    return Word((i,), rank)


def reduce(raw: Iterable[int], rank: int) -> Word:
    """Freely reduce a raw letter sequence into a Word of the given rank."""
    letters = tuple(raw)
    for l in letters:
        if l == 0 or abs(l) > rank:
            raise ValueError(f"letter {l} out of range for rank {rank}")
    return Word(free_reduce(letters), rank)


def conjugation_depth(w: Word) -> int:
    """Largest d with w = u v u^-1, |u| = d, v cyclically reduced.

    Equals the Gromov product (w, w^-1) at the identity for the word metric.
    """
    letters = w.letters
    i, j = 0, len(letters)
    while j - i >= 2 and letters[i] == -letters[j - 1]:
        i += 1
        j -= 1
    return i


def _inverse_cyclic(letters: Sequence[int]) -> tuple[int, ...]:
    return tuple(-l for l in reversed(letters))


def _letter_code(letter: int) -> int:
    return (abs(letter) << 1) | (0 if letter > 0 else 1)


def _least_rotation_index(codes: list[int]) -> int:
    """Booth's algorithm: start index of the lexicographically least rotation."""
    n = len(codes)
    doubled = codes + codes
    fail = [-1] * (2 * n)
    k = 0
    for j in range(1, 2 * n):
        cj = doubled[j]
        i = fail[j - k - 1]
        while i != -1 and cj != doubled[k + i + 1]:
            if cj < doubled[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if cj != doubled[k + i + 1]:
            if cj < doubled[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return k % n


def _canonical_rotation(letters: Sequence[int], identify_inverse: bool) -> tuple[int, ...]:
    letters = tuple(letters)
    if not letters:
        return ()
    k = _least_rotation_index([_letter_code(l) for l in letters])
    best = letters[k:] + letters[:k]
    if identify_inverse:
        inv = _inverse_cyclic(letters)
        ki = _least_rotation_index([_letter_code(l) for l in inv])
        candidate = inv[ki:] + inv[:ki]
        if word_key(candidate) < word_key(best):
            best = candidate
    return best


@dataclass(frozen=True)
class ConjClass:
    """A conjugacy class, stored as the canonical cyclically reduced representative.

    Canonical means lexicographically least among all rotations, and also among
    rotations of the inverse word when ``inverse_identified`` is set (so [x] and
    [x^-1] collapse to one class, the convention used for rigidity bookkeeping).
    """

    letters: tuple[int, ...]
    rank: int
    inverse_identified: bool = False

    def __post_init__(self):
        _check_rank(self.rank)
        if self.letters:
            w = Word(self.letters, self.rank)
            if not w.is_cyclically_reduced():
                raise ValueError(f"{self.letters} is not cyclically reduced")
            if self.letters != _canonical_rotation(self.letters, self.inverse_identified):
                raise ValueError(f"{self.letters} is not in canonical rotation")

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return "".join(letter_to_char(l) for l in self.letters) or "1"

    def __repr__(self) -> str:
        return f"ConjClass({self!s}, rank={self.rank})"

    def is_trivial(self) -> bool:
        return not self.letters

    def representative(self) -> Word:
        return Word(self.letters, self.rank)

    def power(self, m: int) -> "ConjClass":
        if m == 0 or not self.letters:
            return ConjClass((), self.rank, self.inverse_identified)
        base = self.letters if m > 0 else _inverse_cyclic(self.letters)
        return ConjClass(
            _canonical_rotation(base * abs(m), self.inverse_identified),
            self.rank,
            self.inverse_identified,
        )

    @classmethod
    def from_str(cls, text: str, rank: int, identify_inverse: bool = False) -> "ConjClass":
        return cyclic_reduce(Word.from_str(text, rank), identify_inverse)


def cyclic_reduce(w: Word, identify_inverse: bool = False) -> ConjClass:
    """Canonical conjugacy class of w.  The identity maps to the empty class."""
    letters = w.letters
    i, j = 0, len(letters)
    while j - i >= 2 and letters[i] == -letters[j - 1]:
        i += 1
        j -= 1
    core = letters[i:j]
    return ConjClass(_canonical_rotation(core, identify_inverse), w.rank, identify_inverse)


def sphere_size(rank: int, n: int) -> int:
    """Number of reduced words of length exactly n: 2N(2N-1)^(n-1)."""
    if n == 0:
        return 1
    return 2 * rank * (2 * rank - 1) ** (n - 1)


def ball_size(rank: int, n: int) -> int:
    return sum(sphere_size(rank, k) for k in range(n + 1))


def _reduced_words(rank: int, n: int) -> list[tuple[int, ...]]:
    """All reduced words of length n as letter tuples, in lexicographic order."""
    out: list[tuple[int, ...]] = [()]
    letters = alphabet(rank)
    for _ in range(n):
        out = [w + (l,) for w in out for l in letters if not w or w[-1] != -l]
    return out


def enumerate_sphere(rank: int, n: int, cap: int = DEFAULT_CAP) -> list[Word]:
    """All reduced words of length n, in lexicographic order."""
    _check_rank(rank)
    if n < 0:
        raise ValueError("radius must be nonnegative")
    expected = sphere_size(rank, n)
    if expected > cap:
        raise ResourceCapError(
            f"sphere of radius {n} has {expected} words, cap is {cap}",
            requested=expected,
            cap=cap,
        )
    return [Word(letters, rank) for letters in _reduced_words(rank, n)]


def enumerate_ball(rank: int, n: int, cap: int = DEFAULT_CAP) -> list[Word]:
    if ball_size(rank, n) > cap:
        raise ResourceCapError(
            f"ball of radius {n} has {ball_size(rank, n)} words, cap is {cap}",
            requested=ball_size(rank, n),
            cap=cap,
        )
    out: list[Word] = []
    for k in range(n + 1):
        out.extend(enumerate_sphere(rank, k, cap=cap))
    return out


def enumerate_classes(
    rank: int,
    max_length: int,
    identify_inverse: bool = False,
    cap: int = DEFAULT_CAP,
) -> list[ConjClass]:
    """All non-trivial conjugacy classes of cyclic length <= max_length.

    Each class appears exactly once, sorted by (length, canonical form).
    """
    _check_rank(rank)
    if max_length < 1:
        raise ValueError("max length must be at least 1")
    if ball_size(rank, max_length) > cap:
        raise ResourceCapError(
            f"class enumeration up to length {max_length} exceeds cap {cap}",
            requested=ball_size(rank, max_length),
            cap=cap,
        )
    out: list[ConjClass] = []
    for length in range(1, max_length + 1):
        seen: set[tuple[int, ...]] = set()
        for letters in _reduced_words(rank, length):
            if len(letters) >= 2 and letters[0] == -letters[-1]:
                continue  # not cyclically reduced
            canon = _canonical_rotation(letters, identify_inverse)
            if canon not in seen:
                seen.add(canon)
                out.append(ConjClass(canon, rank, identify_inverse))
    out.sort(key=lambda c: (len(c.letters), word_key(c.letters)))
    return out


def apply_substitution(w: Word, images: dict[int, Word]) -> Word:
    """Apply the endomorphism sending generator i to images[i]."""
    acc: list[int] = []
    for l in w.letters:
        img = images[abs(l)]
        piece = img.letters if l > 0 else tuple(-x for x in reversed(img.letters))
        for x in piece:
            if acc and acc[-1] == -x:
                acc.pop()
            else:
                acc.append(x)
    return Word(tuple(acc), w.rank)


def compose_substitutions(outer: dict[int, Word], inner: dict[int, Word]) -> dict[int, Word]:
    """Substitution for 'apply inner, then outer'."""
    return {i: apply_substitution(img, outer) for i, img in inner.items()}


def parse_substitution(spec: dict[str, str], rank: int) -> dict[int, Word]:
    images = {}
    for key, val in spec.items():
        letter = char_to_letter(key)
        if letter < 0:
            raise ValueError("substitution keys must be positive generators")
        images[letter] = Word.from_str(val, rank)
    missing = [i for i in range(1, rank + 1) if i not in images]
    if missing:
        raise ValueError(f"substitution misses generators {missing}")
    return images
