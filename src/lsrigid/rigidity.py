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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np
import scipy.optimize

from .coding import LoopWitness, find_loop_for_class
from .errors import NotFoundError, ValidationError
from .psmeasure import RaySample
from .treemetric import MetricGraph, marked_rose, rose
from .words import (
    ConjClass,
    Word,
    char_to_letter,
    compose_substitutions,
    cyclic_reduce,
    enumerate_classes,
    generator,
    word_key,
)

BUDGET_SLACK = 1e-9


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


def witness_at(ray: RaySample, n: int, letters: tuple[int, ...] | None = None) -> Word:
    if letters is None:
        letters = ray.word_letters()
    m = witness_length(letters, n)
    return Word(tuple(letters[:m]), ray.structure.rank)


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
        m = witness_length(letters, n)
        lengths[n - 1] = m
        depths[n - 1] = _prefix_depth(letters, m)
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
    cls: ConjClass
    power: int
    sign: int
    n1: int
    n2: int
    witness1: Word
    witness2: Word
    witness_class1: ConjClass
    witness_class2: ConjClass
    ell1: int
    ell2: int
    loop: LoopWitness | None = None


@dataclass(frozen=True)
class RigidSet:
    rank: int
    entries: tuple[RigidSetEntry, ...]
    budget_desc: str
    t_max: float
    ray_seed: int | None = None
    ray_length: int | None = None

    def witness_classes(self) -> list[ConjClass]:
        seen = {}
        for e in self.entries:
            for wc, ell in ((e.witness_class1, e.ell1), (e.witness_class2, e.ell2)):
                seen.setdefault(wc, ell)
        return sorted(seen, key=lambda c: (len(c.letters), word_key(c.letters)))

    def witness_lengths(self) -> dict[ConjClass, int]:
        out = {}
        for e in self.entries:
            out.setdefault(e.witness_class1, e.ell1)
            out.setdefault(e.witness_class2, e.ell2)
        return out

    def count_below(self, t: float) -> int:
        return sum(1 for ell in self.witness_lengths().values() if ell < t)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["class", "M", "N1", "N2", "witness1", "witness2",
                 "ell_S(witness1)", "ell_S(witness2)"]
            )
            for e in self.entries:
                writer.writerow(
                    [str(e.cls), e.power, e.n1, e.n2, str(e.witness1), str(e.witness2),
                     e.ell1, e.ell2]
                )

    @classmethod
    def from_csv(cls, path, rank: int | None = None, budget_desc: str = "unknown",
                 t_max: float = float("inf")) -> "RigidSet":
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if not rows:
            raise ValidationError(f"{path}: empty rigid set")
        if rank is None:
            rank = max(
                max((abs_letter for r in rows for abs_letter in _letters_of(r)), default=2), 2
            )
        entries = []
        for r in rows:
            w1 = Word.from_str(r["witness1"], rank)
            w2 = Word.from_str(r["witness2"], rank)
            entries.append(
                RigidSetEntry(
                    cls=ConjClass.from_str(r["class"], rank, identify_inverse=True),
                    power=int(r["M"]),
                    sign=1,
                    n1=int(r["N1"]),
                    n2=int(r["N2"]),
                    witness1=w1,
                    witness2=w2,
                    witness_class1=cyclic_reduce(w1, identify_inverse=True),
                    witness_class2=cyclic_reduce(w2, identify_inverse=True),
                    ell1=int(r["ell_S(witness1)"]),
                    ell2=int(r["ell_S(witness2)"]),
                )
            )
        return cls(rank=rank, entries=tuple(entries), budget_desc=budget_desc, t_max=t_max)


def _letters_of(row: dict) -> list[int]:
    out = []
    for key in ("class", "witness1", "witness2"):
        for ch in row[key]:
            if ch != "1":
                out.append(abs(char_to_letter(ch)))
    return out


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
    """
    if isinstance(budget, str):
        budget = parse_budget(budget)
    letters = ray.word_letters()
    chosen: dict[ConjClass, int] = {}
    entries: list[RigidSetEntry] = []
    for c in classes:
        if c.is_trivial():
            raise ValueError("rigid sets index non-trivial classes only")
        loop = find_loop_for_class(c, ray.component, m_max)
        pattern = ray.structure.resolve(loop.states)
        starts = _occurrence_starts(ray.indices, pattern)
        placed = False
        for start in starts:
            n1 = int(start)
            if n1 < 1:
                continue
            n2 = n1 + len(pattern) - 1
            if n2 > len(letters):
                break
            # optimistic reject: larger values only make the budget easier
            optimistic = list(chosen.values()) + [n1, n2]
            if not _budget_feasible(optimistic, budget, t_max):
                continue
            w1 = witness_at(ray, n1, letters)
            w2 = witness_at(ray, n2, letters)
            wc1 = cyclic_reduce(w1, identify_inverse=True)
            wc2 = cyclic_reduce(w2, identify_inverse=True)
            tentative = dict(chosen)
            tentative[wc1] = len(wc1)
            tentative[wc2] = len(wc2)
            if not _budget_feasible(list(tentative.values()), budget, t_max):
                continue
            chosen = tentative
            entries.append(
                RigidSetEntry(
                    cls=c,
                    power=loop.power,
                    sign=loop.sign,
                    n1=n1,
                    n2=n2,
                    witness1=w1,
                    witness2=w2,
                    witness_class1=wc1,
                    witness_class2=wc2,
                    ell1=len(wc1),
                    ell2=len(wc2),
                    loop=loop,
                )
            )
            placed = True
            break
        if not placed:
            raise NotFoundError(
                f"ray horizon exhausted after {len(entries)} classes; "
                f"no budget-feasible occurrence for [{c}]",
                horizon=len(ray),
            )
    return RigidSet(
        rank=ray.structure.rank,
        entries=tuple(entries),
        budget_desc=budget.name,
        t_max=t_max,
        ray_seed=ray.seed,
        ray_length=len(ray),
    )


def witness_deviation(entry: RigidSetEntry, graph: MetricGraph):
    """|ell(witness2) - ell(witness1) - M * ell(class)| for one metric, exactly."""
    l1 = graph.translation_length(entry.witness_class1.representative())
    l2 = graph.translation_length(entry.witness_class2.representative())
    lc = graph.translation_length(entry.cls.representative())
    return abs(l2 - l1 - entry.power * lc)


# -- occurrence matrix, rank, recovery ----------------------------------------------


@dataclass(frozen=True)
class OccurrenceMatrix:
    classes: tuple[ConjClass, ...]
    counts: tuple[tuple[int, ...], ...]  # one row per class, one column per generator

    def as_array(self) -> np.ndarray:
        return np.array(self.counts, dtype=np.int64)


def occurrence_matrix(rigid: RigidSet) -> OccurrenceMatrix:
    """Unsigned generator-occurrence counts of the witness classes.

    Row sums equal the cyclic lengths, so on the rose stratum the translation
    lengths are exactly this matrix applied to the edge lengths.
    """
    classes = tuple(rigid.witness_classes())
    rows = []
    for c in classes:
        row = [0] * rigid.rank
        for l in c.letters:
            row[abs(l) - 1] += 1
        rows.append(tuple(row))
    return OccurrenceMatrix(classes=classes, counts=tuple(rows))


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


def rose_rank_check(rigid: RigidSet, rank: int | None = None) -> int:
    """Rational rank of the occurrence matrix; equal to the rank of the group
    iff the witness lengths pin down every rose's edge lengths."""
    if rank is None:
        rank = rigid.rank
    matrix = occurrence_matrix(rigid)
    return _rational_rank(matrix.counts)


@dataclass(frozen=True)
class Recovery:
    lengths: tuple[float, ...]
    residual: float
    consistent: bool


def recover_lengths(
    rigid: RigidSet,
    targets: dict | Callable[[ConjClass], float],
    tol: float = 1e-8,
) -> Recovery:
    """Nonnegative least squares for rose edge lengths from witness lengths.

    Unique when the occurrence matrix has full rank (checked); inconsistent
    targets surface as a residual above tol with ``consistent`` unset.
    """
    matrix = occurrence_matrix(rigid)
    if _rational_rank(matrix.counts) < rigid.rank:
        raise ValidationError(
            f"occurrence matrix rank {_rational_rank(matrix.counts)} < {rigid.rank}"
        )
    getter = targets.__getitem__ if isinstance(targets, dict) else targets
    a = matrix.as_array().astype(float)
    b = np.array([float(getter(c)) for c in matrix.classes])
    lengths, residual = scipy.optimize.nnls(a, b)
    return Recovery(
        lengths=tuple(float(x) for x in lengths),
        residual=float(residual),
        consistent=bool(residual <= tol),
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


def verify_separation(
    rigid: RigidSet, t1: MetricGraph, t2: MetricGraph, tol=None
) -> SeparationVerdict:
    """AGREE iff the two metrics share every witness length within tol.

    tol defaults to exact equality in rational mode, 1e-9 otherwise.
    """
    if t1.rank != t2.rank:
        raise ValidationError("metrics have different rank")
    if tol is None:
        tol = 0 if (t1.rational and t2.rational) else 1e-9
    max_diff = 0.0
    for c in rigid.witness_classes():
        rep = c.representative()
        diff = abs(t1.translation_length(rep) - t2.translation_length(rep))
        if diff > tol:
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


def _certified_distinct(t1: MetricGraph, t2: MetricGraph, max_len: int = 4) -> bool:
    for c in enumerate_classes(t1.rank, max_len, identify_inverse=True):
        if t1.translation_length(c.representative()) != t2.translation_length(c.representative()):
            return True
    return False


def random_distinct_pair(
    rng: np.random.Generator, rank: int = 2, max_tries: int = 64
) -> tuple[MetricGraph, MetricGraph]:
    for _ in range(max_tries):
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
