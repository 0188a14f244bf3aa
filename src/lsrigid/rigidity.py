"""Sparse spectrally rigid sets of conjugacy classes from recurrent coding rays.

A sampled ray yields witnesses: at every position the spelled prefix, adjusted
by at most one terminal letter towards cyclic reducedness.  For a conjugacy
class, a loop representative inside the word-maximal component occurs along
the ray (recurrence); the positions right before and right after one loop
traversal give a witness pair whose translation-length difference recovers the
class length in any tree metric, up to a uniform measured constant.  Pairs are
scheduled greedily so the number of witness classes shorter than T stays under
any prescribed budget f(T), which is how the sets get arbitrarily sparse.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import groupby
from typing import Callable, Sequence

import numpy as np

from .coding import find_loop_for_class
from .errors import NotFoundError, ValidationError
from .psmeasure import RaySample
from .treemetric import MetricGraph, _cyclic_core, marked_rose, rose
from .words import (
    ConjClass,
    Word,
    _spell_bytes,
    char_to_letter,
    compose_substitutions,
    cyclic_reduce,
    enumerate_classes,
    free_reduce,
    generator,
    word_key,
)

BUDGET_SLACK = 1e-9
_FIRST_WINDOW = 1 << 12  # ray states build_rigid_set reads before it doubles its window


# -- budgets -------------------------------------------------------------------


@dataclass(frozen=True)
class Budget:
    name: str
    fn: Callable[[float], float]

    def __call__(self, t: float) -> float:
        return self.fn(t)


def parse_budget(desc: str) -> Budget:
    """Budget descriptors: ``sqrt``, ``log``, ``linear`` or ``poly:p``."""
    if desc == "sqrt":
        return Budget("sqrt", math.sqrt)
    if desc == "log":
        return Budget("log", lambda t: math.log1p(t))
    if desc == "linear":
        return Budget("linear", lambda t: t)
    if desc.startswith("poly:"):
        p = float(desc.split(":", 1)[1])
        if p <= 0:
            raise ValueError("polynomial budget needs a positive exponent")
        return Budget(desc, lambda t: t**p)
    raise ValueError(f"unknown budget {desc!r}")


# -- witnesses along a ray -------------------------------------------------------


def _prefix_depth(letters: Sequence[int], m: int) -> int:
    d = 0
    while 2 * (d + 1) <= m and letters[d] == -letters[m - 1 - d]:
        d += 1
    return d


def witness_length(letters: Sequence[int], n: int) -> int:
    """Length of the witness at position n: the prefix, shortened by at most
    one letter so the first letter is not the inverse of the last whenever a
    single truncation can achieve that; ties fall back to the smaller
    conjugation depth, preferring the untruncated prefix."""
    if n <= 1:
        return n
    if letters[0] != -letters[n - 1]:
        return n
    if letters[0] != -letters[n - 2]:
        return n - 1
    return n if _prefix_depth(letters, n) <= _prefix_depth(letters, n - 1) else n - 1


def _witness_core(letters: Sequence[int], n: int) -> tuple[int, int]:
    """(m, depth) of the witness at position n: its prefix length and its
    conjugation depth, so its class has length m - 2 * depth."""
    m = witness_length(letters, n)
    return m, _prefix_depth(letters, m)


_NEGATE = bytes(-b & 0xFF for b in range(256))  # a letter's signed byte to its inverse's


def _same_class(a: bytes, b: bytes) -> bool:
    """Whether two cyclically reduced cores (signed bytes) spell one class,
    inverses identified: b or its inverse is a rotation of a."""
    return len(a) == len(b) and (b in a + a or b.translate(_NEGATE)[::-1] in a + a)


def _known(cores: dict[int, list[bytes]], core: bytes) -> bool:
    """Whether the class of ``core`` is among ``cores``, the cores of distinct
    classes by length; only the cores of its own length are compared."""
    return any(_same_class(c, core) for c in cores.get(len(core), ()))


@dataclass(frozen=True)
class RoughRay:
    """Witness family g_n with exact certificates.

    d1 bounds the Gromov products (g_n, g_n^-1) in the word metric, r1 the
    gaps |ell_S[g_n] - |g_n||  (= twice the conjugation depth), and
    k_hausdorff the distance from g_n to the spelled prefix (at most 1 by
    construction).  The certificates are measured, not assumed.
    """

    ray: RaySample = field(repr=False)
    letters: tuple[int, ...] = field(repr=False)
    lengths: np.ndarray = field(repr=False, compare=False)
    depths: np.ndarray = field(repr=False, compare=False)
    d1: int
    r1: int
    k_hausdorff: int

    def witness(self, n: int) -> Word:
        return Word(tuple(self.letters[: int(self.lengths[n - 1])]), self.ray.structure.rank)

    def limit(self) -> int:
        return len(self.lengths)


def rough_ray(ray: RaySample, limit: int | None = None) -> RoughRay:
    letters = ray.word_letters()
    n_max = len(letters) if limit is None else min(limit, len(letters))
    lengths = np.empty(n_max, dtype=np.int64)
    depths = np.empty(n_max, dtype=np.int64)
    for n in range(1, n_max + 1):
        lengths[n - 1], depths[n - 1] = _witness_core(letters, n)
    d1 = int(depths.max(initial=0))
    return RoughRay(
        ray=ray,
        letters=letters,
        lengths=lengths,
        depths=depths,
        d1=d1,
        r1=2 * d1,
        k_hausdorff=int((np.arange(1, n_max + 1) - lengths).max(initial=0)),
    )


# -- witness pairs ----------------------------------------------------------------


class _RayPrefix:
    """The first ``size`` states of a ray and the letters they spell.  The
    prefix starts at 2^12 states and doubles, up to the whole ray, whenever
    a scan for occurrences runs past it; so a set placed early on a long ray
    reads a short prefix of it."""

    def __init__(self, ray: RaySample):
        self.indices = ray.indices
        self.spell = ray._prefix_letters
        self.size = min(_FIRST_WINDOW, len(self.indices))
        self._read()

    def _read(self) -> None:
        self.steps = self.spell(self.size)  # the letters as int8
        self.letters = memoryview(self.steps)  # read as Python ints

    def witness(self, n: int) -> tuple[int, bytes]:
        """The end along the letters of the witness at position n, and the
        core of its class as signed bytes."""
        m, d = _witness_core(self.letters, n)
        return m, self.steps[d : m - d].tobytes()

    def occurrences(self, pattern: Sequence[int]):
        """(n1, n2) for each occurrence of the state pattern at a start
        n1 >= 1, in ray order, where n2 = n1 + len(pattern) - 1, as long as
        n2 is within the ray's letters.  ``letters`` covers n2 when each
        pair is yielded."""
        first = 1
        while True:
            starts = _occurrence_starts(self.indices[: self.size], pattern)
            for n1 in starts[np.searchsorted(starts, first):].tolist():
                n2 = n1 + len(pattern) - 1
                if n2 > len(self.letters):
                    break
                yield n1, n2
                first = n1 + 1
            if self.size == len(self.indices):
                return
            self.size = min(2 * self.size, len(self.indices))
            self._read()


def _occurrence_starts(indices: np.ndarray, pattern: Sequence[int]) -> np.ndarray:
    """Start positions of the exact state pattern inside the ray."""
    n = len(indices)
    l = len(pattern)
    if n < l:
        return np.empty(0, dtype=np.int64)
    hit = indices[: n - l + 1] == pattern[0]
    for off in range(1, l):
        hit = hit & (indices[off : n - l + 1 + off] == pattern[off])
    return np.nonzero(hit)[0]


# -- rigid sets --------------------------------------------------------------------


@dataclass(frozen=True)
class RigidSetEntry:
    """One class of a rigid set and its witness pair.  The witnesses are the
    prefixes ``word[:m1]`` and ``word[:m2]`` of the set's word, read off the
    ray at the positions n1 and n2 that bound one loop traversal; their
    classes have lengths ell1 and ell2, so the core of the first class is
    ``word[d:m1 - d]`` with d = (m1 - ell1) / 2."""

    cls: ConjClass
    power: int
    n1: int
    n2: int
    m1: int
    m2: int
    ell1: int
    ell2: int


@dataclass(frozen=True)
class RigidSet:
    """A rigid set: one word and, for each entry, the ends along it of the
    entry's two witnesses.  ``word`` is the longest witness as signed bytes,
    one letter each; every witness is a prefix of it, since every witness is
    a prefix of one ray's word trimmed by at most one letter."""

    rank: int
    word: bytes = field(repr=False)
    entries: tuple[RigidSetEntry, ...]

    # Witness classes can be thousands of letters long.  Each is told apart
    # from the others by its core along ``word``, and canonicalised only when
    # a caller asks for its ConjClass.

    def _core(self, ell: int, m: int) -> bytes:
        """The core of the class of the witness word[:m], of length ell."""
        d = (m - ell) // 2
        return self.word[d : m - d]

    @cached_property
    def _built(self) -> dict[int, ConjClass]:  # the witness classes asked for, by end
        return {}

    def _witness_class(self, m: int) -> ConjClass:
        """The class of the witness word[:m]."""
        if m not in self._built:
            letters = tuple(memoryview(self.word).cast("b")[:m])
            self._built[m] = cyclic_reduce(Word(letters, self.rank), identify_inverse=True)
        return self._built[m]

    @cached_property
    def _classes(self) -> tuple[tuple[int, int], ...]:
        """(ell, m) for each distinct witness class: its length and the end
        along ``word`` of its first witness in the entries, in (length,
        word_key) order.  word_key is only spelled out within a tie."""
        cores: dict[int, list[bytes]] = {}
        first = []
        for e in self.entries:
            for ell, m in ((e.ell1, e.m1), (e.ell2, e.m2)):
                core = self._core(ell, m)
                if not _known(cores, core):
                    cores.setdefault(ell, []).append(core)
                    first.append((ell, m))
        order: list[tuple[int, int]] = []
        for _, tie in groupby(sorted(first, key=lambda c: c[0]), key=lambda c: c[0]):
            tie = list(tie)
            if len(tie) > 1:
                tie.sort(key=lambda c: word_key(self._witness_class(c[1]).letters))
            order.extend(tie)
        return tuple(order)

    @property
    def n_witness_classes(self) -> int:
        return len(self._classes)

    def witness_classes(self) -> list[ConjClass]:
        return [self._witness_class(m) for _, m in self._classes]

    def witness_lengths(self) -> dict[ConjClass, int]:
        return {self._witness_class(m): ell for ell, m in self._classes}

    @cached_property
    def _sorted_lengths(self) -> np.ndarray:
        return np.array([ell for ell, _ in self._classes], dtype=float)

    def count_below(self, t: float | Sequence[float]) -> int | list[int]:
        """The number of witness classes of length below t; a list of those
        numbers when t is a sequence."""
        return np.searchsorted(self._sorted_lengths, t, side="left").tolist()

    @cached_property
    def _class_ends(self) -> list[int]:
        """The distinct ends of the classes' first witnesses, ascending."""
        return sorted({m for _, m in self._classes})

    def to_csv(self, path) -> None:
        # Every field is letters, digits or "ell_S(...)", so none needs quoting
        # and the lines are those of csv.writer (excel dialect, CRLF endings).
        text = _spell_bytes(self.word)
        rows = [_CSV_HEADER] + [
            [str(e.cls), e.power, e.n1, e.n2, text[: e.m1] or "1", text[: e.m2] or "1", e.ell1, e.ell2]
            for e in self.entries
        ]
        with open(path, "wb") as fh:
            fh.write("".join(",".join(map(str, row)) + "\r\n" for row in rows).encode())

    @classmethod
    def from_csv(cls, path, rank: int | None = None) -> "RigidSet":
        """The set ``to_csv`` wrote; without ``rank``, the rank is the largest
        letter in the file, at least 2.  A missing or malformed field, a
        letter beyond the rank, a witness that is not a prefix of the
        longest (so not of one word), a witness length other than N - 1 or
        N, or an ell_S other than the length of the witness's class is a
        ValidationError naming the line."""
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            rows = [_read_row(row, f"{path}, line {reader.line_num}") for row in reader]
        if not rows:
            raise ValidationError(f"{path}: empty rigid set")
        # each row is (where, class, M, N1, N2, witness1, witness2, ell1, ell2)
        if rank is None:
            rank = max([2, *(abs(l) for r in rows for w in (r[1], *r[5:7]) for l in w)])
        word = max((w for r in rows for w in r[5:7]), key=len)
        entries = []
        for where, c, power, n1, n2, w1, w2, ell1, ell2 in rows:
            if any(abs(l) > rank for w in (c, w1, w2) for l in w):
                raise ValidationError(f"{where}: a letter is beyond rank {rank}")
            if word[: len(w1)] != w1 or word[: len(w2)] != w2:
                raise ValidationError(f"{where}: a witness is not a prefix of the longest witness")
            ends = (len(w1), len(w2))
            if not (n1 - 1 <= ends[0] <= n1 and n2 - 1 <= ends[1] <= n2):
                raise ValidationError(f"{where}: a witness is not its N trimmed by at most one letter")
            cores = [(m, _prefix_depth(word, m)) for m in ends]
            if [m - 2 * d for m, d in cores] != [ell1, ell2]:
                raise ValidationError(f"{where}: an ell_S is not the length of its witness's class")
            indexed = cyclic_reduce(Word(c, rank), identify_inverse=True)
            entries.append(RigidSetEntry(indexed, power, n1, n2, *ends, ell1, ell2))
        return cls(rank=rank, word=array("b", word).tobytes(), entries=tuple(entries))


_CSV_HEADER = ("class", "M", "N1", "N2", "witness1", "witness2", "ell_S(witness1)", "ell_S(witness2)")


def _read_row(row: dict, where: str) -> tuple:
    """``where``, then the fields of an E.csv row in header order: the
    letters of each word ("1" spells the empty word) and each integer."""
    out: list = [where]
    for key in _CSV_HEADER:
        value = row.get(key)
        if value is None:
            raise ValidationError(f"{where}: no {key} field")
        if key not in ("class", "witness1", "witness2"):
            try:
                out.append(int(value))
            except ValueError:
                raise ValidationError(f"{where}: {key} {value!r} is not an integer") from None
            continue
        text = "" if value.strip() == "1" else value.strip()
        if text and not (text.isascii() and text.isalpha()):
            raise ValidationError(f"{where}: {key} {value!r} is not a word")
        letters = tuple(map(char_to_letter, text))
        if free_reduce(letters) != letters:
            raise ValidationError(f"{where}: {key} {value!r} is not freely reduced")
        out.append(letters)
    return tuple(out)


def _budget_feasible(values: Sequence[int], budget: Budget, t_max: float) -> bool:
    """#{v in values : v < T} <= f(T) for every T <= t_max.

    The binding thresholds sit just above each value, so it suffices to check
    the count at each distinct value against f there.
    """
    ordered = sorted(values)
    for i, v in enumerate(ordered):
        if v > t_max:
            break
        if i + 1 < len(ordered) and ordered[i + 1] == v:
            continue  # only check at the last copy of each value
        if i + 1 > budget(v) + BUDGET_SLACK:
            return False
    return True


def build_rigid_set(
    ray: RaySample,
    classes: Sequence[ConjClass],
    budget: Budget | str,
    t_max: float,
    m_max: int = 8,
) -> RigidSet:
    """Greedy witness-pair schedule over the class enumeration.

    For each class the earliest loop occurrence is taken whose two witness
    classes keep the running budget satisfied for every threshold up to
    t_max; witness lengths grow linearly with position, so a feasible
    position always exists on a long enough ray.

    A witness class is read off the ray: its length (prefix length minus
    twice the conjugation depth) and its core, the letters between the
    conjugating ends.  It is told apart from a chosen class, or from the
    pair's other witness, by comparing cores of one length as cyclic words
    (``_same_class``); no witness class is put in canonical form.

    The ray is read only as far as the occurrences it uses, in a prefix
    that doubles from 2^12 states: each class scans the prefix, and the
    prefix is spelled once per doubling.  So the cost is O(classes x P),
    P at most twice the last kept position (or the ray length), not
    O(classes x ray length).  Steps past the prefix are not read, so they
    are not checked against the coding here (``load_ray`` checks a file).

    The set keeps the ray's letters up to its longest witness, and each
    witness as its end along them; no witness is copied.
    """
    if isinstance(budget, str):
        budget = parse_budget(budget)
    prefix = _RayPrefix(ray)
    chosen: dict[int, list[bytes]] = {}  # the cores of the chosen classes, by length
    taken: list[int] = []  # their lengths
    entries: list[RigidSetEntry] = []
    for c in classes:
        if c.is_trivial():
            raise ValueError("rigid sets index non-trivial classes only")
        loop = find_loop_for_class(c, ray.component, m_max)
        pattern = ray.structure.resolve(loop.states)
        for n1, n2 in prefix.occurrences(pattern):
            # optimistic reject: larger values only make the budget easier
            if not _budget_feasible(taken + [n1, n2], budget, t_max):
                continue
            (m1, core1), (m2, core2) = prefix.witness(n1), prefix.witness(n2)
            new1 = not _known(chosen, core1)
            new2 = not _known(chosen, core2) and not _same_class(core1, core2)
            fresh = taken + [len(core1)] * new1 + [len(core2)] * new2
            if not _budget_feasible(fresh, budget, t_max):
                continue
            for new, core in ((new1, core1), (new2, core2)):
                if new:
                    chosen.setdefault(len(core), []).append(core)
            taken = fresh
            entries.append(RigidSetEntry(c, loop.power, n1, n2, m1, m2, len(core1), len(core2)))
            break
        else:
            raise NotFoundError(
                f"ray horizon exhausted after {len(entries)} classes; "
                f"no budget-feasible occurrence for [{c}]",
                horizon=len(ray),
            )
    longest = max((m for e in entries for m in (e.m1, e.m2)), default=0)
    return RigidSet(rank=ray.structure.rank, word=prefix.steps[:longest].tobytes(), entries=tuple(entries))


def witness_deviation(rigid: RigidSet, entry: RigidSetEntry, graph: MetricGraph):
    """|ell(witness2) - ell(witness1) - M * ell(class)| for one entry and metric, exactly."""
    l1 = graph.translation_length(rigid._witness_class(entry.m1))
    l2 = graph.translation_length(rigid._witness_class(entry.m2))
    lc = graph.translation_length(entry.cls)
    return abs(l2 - l1 - entry.power * lc)


# -- occurrence matrix, rank, recovery ----------------------------------------------


def _letter_counts(rigid: RigidSet) -> tuple[tuple[int, ...], ...]:
    """The occurrence matrix: unsigned generator counts of each witness
    class, in ``witness_classes`` order, counted over its core along the
    set's word.  Row sums equal the cyclic lengths, so on the rose stratum
    the translation lengths are this matrix applied to the edge lengths."""
    cores = (np.frombuffer(rigid._core(ell, m), np.uint8) for ell, m in rigid._classes)
    counts = (np.bincount(core, minlength=256) for core in cores)  # letter -i is the byte 256 - i
    return tuple(tuple(int(c[i] + c[256 - i]) for i in range(1, rigid.rank + 1)) for c in counts)


def _rational_rank(rows: Sequence[Sequence[int]]) -> int:
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = None
        for r in range(rank, len(m)):
            if m[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def rose_rank_check(rigid: RigidSet) -> int:
    """Rational rank of the occurrence matrix; equal to the rank of the group
    iff the witness lengths pin down every rose's edge lengths."""
    return _rational_rank(_letter_counts(rigid))


@dataclass(frozen=True)
class Recovery:
    lengths: tuple[float, ...]
    residual: float
    consistent: bool


def recover_lengths(
    rigid: RigidSet,
    targets: dict | Callable[[ConjClass], float],
) -> Recovery:
    """Nonnegative least squares for rose edge lengths from witness lengths.

    Unique when the occurrence matrix has full rank (checked); inconsistent
    targets surface as a residual above 1e-8 with ``consistent`` unset.
    scipy is imported here, so that importing the package does not load it.
    """
    import scipy.optimize

    counts = _letter_counts(rigid)
    rank = _rational_rank(counts)
    if rank < rigid.rank:
        raise ValidationError(f"occurrence matrix rank {rank} < {rigid.rank}")
    getter = targets.__getitem__ if isinstance(targets, dict) else targets
    a = np.array(counts, dtype=float)
    b = np.array([float(getter(c)) for c in rigid.witness_classes()])
    lengths, residual = scipy.optimize.nnls(a, b)
    return Recovery(
        lengths=tuple(float(x) for x in lengths),
        residual=float(residual),
        consistent=bool(residual <= 1e-8),
    )


# -- separation ---------------------------------------------------------------------


@dataclass(frozen=True)
class SeparationVerdict:
    separated: bool
    first_separating: ConjClass | None
    max_diff: float

    @property
    def verdict(self) -> str:
        return "SEPARATED" if self.separated else "AGREE"


class _PrefixWalk:
    """One tightening walk along a word in one metric, taken only as far as
    asked.  ``length(m)`` is the translation length of the prefix word[:m],
    for m among the ascending ends, as ``translation_length`` gives it: at
    each end the walk passes, the cyclic core of its tight path is kept,
    and it is summed when it is asked for."""

    def __init__(self, graph: MetricGraph, letters: Sequence[int], ends: Sequence[int]):
        self.graph = graph
        self.letters = letters
        self.ends = iter(ends)
        self.stack: list[int] = []
        self.walked = 0
        self.loops: dict[int, list[int]] = {}

    def length(self, m: int) -> Fraction | float:
        while m not in self.loops:
            end = next(self.ends)
            self.graph._tighten(self.stack, self.letters[self.walked : end])
            self.walked = end
            self.loops[end] = _cyclic_core(self.stack)
        return self.graph._length(self.loops[m])


def verify_separation(rigid: RigidSet, t1: MetricGraph, t2: MetricGraph) -> SeparationVerdict:
    """AGREE iff the two metrics share every witness length: exactly when
    both graphs are rational, within 1e-9 otherwise.  The set and both
    metrics must have one rank (ValidationError otherwise).

    The witness classes are checked in ``witness_classes`` order, and the
    check stops at the first that separates.  Each class's length is read
    off its witness, a prefix of the set's word, so each metric walks that
    word once, and only as far as the witness of the class being checked.
    So the cost is the letters of the longest witness checked, twice, plus
    one sum over each loop: not the letters of every witness class, twice.
    On a float graph a loop is summed from where its witness enters it, so
    it can differ in the last bits from the length of another
    representative.
    """
    if t1.rank != t2.rank:
        raise ValidationError("metrics have different rank")
    if rigid.rank != t1.rank:
        raise ValidationError(f"rigid set has rank {rigid.rank}, the metrics rank {t1.rank}")
    tol = 0 if t1.rational and t2.rational else 1e-9
    letters = memoryview(rigid.word).cast("b")
    walk1, walk2 = (_PrefixWalk(t, letters, rigid._class_ends) for t in (t1, t2))
    max_diff = 0.0
    for _, m in rigid._classes:
        diff = abs(walk1.length(m) - walk2.length(m))
        if diff > tol:
            c = rigid._witness_class(m)
            return SeparationVerdict(separated=True, first_separating=c, max_diff=float(diff))
        max_diff = max(max_diff, float(diff))
    return SeparationVerdict(separated=False, first_separating=None, max_diff=max_diff)


# -- random test family ---------------------------------------------------------------


_LENGTH_MENU = [Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(5, 4),
                Fraction(3, 2), Fraction(2), Fraction(3)]


def _identity_substitution(rank: int) -> dict[int, Word]:
    return {i: generator(i, rank) for i in range(1, rank + 1)}


def _nielsen_moves(rank: int) -> list[dict[int, Word]]:
    moves = []
    for i in range(1, rank + 1):
        for j in range(1, rank + 1):
            if i == j:
                continue
            right = _identity_substitution(rank)
            right[i] = Word((i, j), rank)
            moves.append(right)
            right_inv = _identity_substitution(rank)
            right_inv[i] = Word((i, -j), rank)
            moves.append(right_inv)
    flip = _identity_substitution(rank)
    flip[1] = Word((-1,), rank)
    moves.append(flip)
    if rank >= 2:
        swap = _identity_substitution(rank)
        swap[1], swap[2] = generator(2, rank), generator(1, rank)
        moves.append(swap)
    return moves


def random_marked_metric(rng: np.random.Generator, rank: int = 2) -> MetricGraph:
    """Random rose lengths, optionally twisted by a short random automorphism."""
    lengths = [_LENGTH_MENU[int(rng.integers(len(_LENGTH_MENU)))] for _ in range(rank)]
    n_moves = int(rng.integers(4))
    if n_moves == 0:
        return rose(lengths)
    moves = _nielsen_moves(rank)
    subst = _identity_substitution(rank)
    for _ in range(n_moves):
        subst = compose_substitutions(moves[int(rng.integers(len(moves)))], subst)
    if all(subst[i] == generator(i, rank) for i in range(1, rank + 1)):
        return rose(lengths)
    return marked_rose(lengths, subst, tag="twisted_rose")


@cache
def _short_classes(rank: int, max_len: int) -> tuple[ConjClass, ...]:
    return tuple(enumerate_classes(rank, max_len, identify_inverse=True))


def _certified_distinct(t1: MetricGraph, t2: MetricGraph, max_len: int = 4) -> bool:
    return any(t1.translation_length(c) != t2.translation_length(c) for c in _short_classes(t1.rank, max_len))


def random_distinct_pair(rng: np.random.Generator, rank: int = 2) -> tuple[MetricGraph, MetricGraph]:
    for _ in range(64):
        t1 = random_marked_metric(rng, rank)
        t2 = random_marked_metric(rng, rank)
        if _certified_distinct(t1, t2):
            return t1, t2
    raise ValidationError("could not draw a certified-distinct metric pair")


@dataclass(frozen=True)
class BatteryReport:
    pairs: int
    separated: int
    agree_tags: tuple[tuple[str, str], ...]

    @property
    def all_separated(self) -> bool:
        return self.separated == self.pairs


def separation_battery(rigid: RigidSet, n_pairs: int, seed: int, rank: int = 2) -> BatteryReport:
    """Random distinct metric pairs; the rigid set must separate each of them."""
    agree_tags = []
    for i in range(n_pairs):
        rng = np.random.Generator(np.random.Philox(key=[seed, i]))
        t1, t2 = random_distinct_pair(rng, rank)
        if not verify_separation(rigid, t1, t2).separated:
            agree_tags.append((t1.tag, t2.tag))
    return BatteryReport(
        pairs=n_pairs,
        separated=n_pairs - len(agree_tags),
        agree_tags=tuple(agree_tags),
    )
