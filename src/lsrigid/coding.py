"""Strongly Markov structures (Cannon codings) for free groups.

A structure is a finite directed labelled graph with initial state ``*`` whose
paths from ``*`` spell geodesic words and biject onto the group.  The shipped
constructor covers free groups (states = last letters, no-backtrack edges);
arbitrary structures can be loaded from JSON and validated on finite balls.
Augmentation appends a ``0`` state absorbing finite paths, so group elements
and boundary rays both appear as infinite paths.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Container, Iterable, Iterator, Sequence

import numpy as np

from .errors import ConvergenceError, NotFoundError, ValidationError
from .words import (
    ConjClass,
    Word,
    alphabet,
    char_to_letter,
    cyclic_reduce,
    letter_to_char,
    sphere_size,
)

INITIAL = "*"
ZERO = "0"


@dataclass(frozen=True)
class MarkovStructure:
    """Directed labelled graph (states, edges, initial state) for a rank-N free group.

    ``labels[(i, j)]`` is the generator letter read along edge i -> j;
    letter 0 stands for the identity (only on edges into the 0 state).
    """

    rank: int
    states: tuple[str, ...]
    succ: tuple[tuple[int, ...], ...]
    labels: tuple[tuple[int, ...], ...]  # parallel to succ
    initial: str = INITIAL
    _index: dict = field(default_factory=dict, repr=False, compare=False)
    _label_map: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if len(set(self.states)) != len(self.states):
            raise ValidationError("duplicate state names")
        if self.initial not in self.states:
            raise ValidationError(f"initial state {self.initial!r} missing")
        for i, name in enumerate(self.states):
            self._index[name] = i
        for i, (targets, letters) in enumerate(zip(self.succ, self.labels)):
            if len(targets) != len(letters):
                raise ValidationError("succ/labels length mismatch")
            for j, l in zip(targets, letters):
                self._label_map[(i, j)] = l
        seen = self.reachable([self.initial_index])
        if len(seen) != len(self.states):
            unreachable = [self.states[i] for i in range(len(self.states)) if i not in seen]
            raise ValidationError(f"states unreachable from {self.initial!r}: {unreachable}")

    # -- basics --------------------------------------------------------------

    def index(self, name: str) -> int:
        return self._index[name]

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def initial_index(self) -> int:
        return self._index[self.initial]

    def edge_count(self) -> int:
        return sum(len(t) for t in self.succ)

    def label_of(self, i: int, j: int) -> int:
        return self._label_map[(i, j)]

    def has_edge(self, i: int, j: int) -> bool:
        return (i, j) in self._label_map

    def transition_matrix(self) -> np.ndarray:
        n = self.n_states
        a = np.zeros((n, n), dtype=np.int64)
        for i, targets in enumerate(self.succ):
            for j in targets:
                a[i, j] = 1
        return a

    def resolve(self, states: Sequence[str | int]) -> tuple[int, ...]:
        return tuple(s if isinstance(s, int) else self._index[s] for s in states)

    def admissible(self, states: Sequence[str | int]) -> bool:
        idx = self.resolve(states)
        return all(self.has_edge(i, j) for i, j in zip(idx, idx[1:]))

    def ev(self, states: Sequence[str | int]) -> Word:
        """Product of the labels along an admissible path prefix."""
        idx = self.resolve(states)
        letters: list[int] = []
        for i, j in zip(idx, idx[1:]):
            if (i, j) not in self._label_map:
                raise ValidationError(
                    f"inadmissible step {self.states[i]} -> {self.states[j]}"
                )
            l = self._label_map[(i, j)]
            if l == 0:
                continue
            if letters and letters[-1] == -l:
                letters.pop()
            else:
                letters.append(l)
        return Word(tuple(letters), self.rank)

    def paths(
        self,
        n: int,
        starts: Iterable[int] | None = None,
        within: Container[int] | None = None,
    ) -> Iterator[tuple[int, ...]]:
        """Admissible state paths with n edges, in lexicographic successor order.

        Paths start at each of ``starts`` in the given order (default: the
        initial state); every later state lies in ``within`` (default: any
        state).  The walk keeps one successor iterator per level, so memory is
        O(n) however many paths there are.
        """
        if n < 0:
            raise ValueError("path length must be nonnegative")
        if starts is None:
            starts = (self.initial_index,)
        succ = self.succ
        for s in starts:
            if n == 0:
                yield (s,)
                continue
            path = [s]
            stack = [iter(succ[s])]
            while stack:
                if len(path) == n:  # last level: emit every admissible successor
                    head = tuple(path)
                    for j in stack.pop():
                        if within is None or j in within:
                            yield head + (j,)
                    path.pop()
                    continue
                j = next(stack[-1], None)
                if j is None:
                    stack.pop()
                    path.pop()
                elif within is None or j in within:
                    path.append(j)
                    stack.append(iter(succ[j]))

    def reachable(self, starts: Iterable[int], skip: Container[int] = ()) -> set[int]:
        """States reachable from ``starts`` (which are included) without entering ``skip``."""
        seen = set(starts)
        frontier = list(seen)
        while frontier:
            for j in self.succ[frontier.pop()]:
                if j not in seen and j not in skip:
                    seen.add(j)
                    frontier.append(j)
        return seen

    def count_paths(self, n: int) -> int:
        """Number of length-n paths from the initial state, by exact matrix power."""
        vec = [0] * self.n_states
        vec[self.initial_index] = 1
        for _ in range(n):
            nxt = [0] * self.n_states
            for i, v in enumerate(vec):
                if v:
                    for j in self.succ[i]:
                        nxt[j] += v
            vec = nxt
        return sum(vec)

    def to_json(self) -> dict:
        edges = []
        for i, (targets, letters) in enumerate(zip(self.succ, self.labels)):
            for j, l in zip(targets, letters):
                edges.append(
                    {
                        "from": self.states[i],
                        "to": self.states[j],
                        "label": letter_to_char(l) if l else "1",
                    }
                )
        return {
            "rank": self.rank,
            "states": list(self.states),
            "initial": self.initial,
            "edges": edges,
        }


def build_free_group_coding(rank: int) -> MarkovStructure:
    """Last-letter coding of the rank-N free group.

    States: ``*`` plus one state per signed generator; an edge s -> t labelled
    by t's letter whenever t is not the inverse of s.  Paths from ``*`` spell
    exactly the reduced words.
    """
    if rank < 2:
        raise ValueError("rank must be at least 2")
    letters = alphabet(rank)
    states = (INITIAL,) + tuple(letter_to_char(l) for l in letters)
    state_letter = {i + 1: l for i, l in enumerate(letters)}
    succ: list[tuple[int, ...]] = []
    labels: list[tuple[int, ...]] = []
    succ.append(tuple(range(1, 2 * rank + 1)))
    labels.append(tuple(state_letter[j] for j in range(1, 2 * rank + 1)))
    for i in range(1, 2 * rank + 1):
        targets = tuple(j for j in range(1, 2 * rank + 1) if state_letter[j] != -state_letter[i])
        succ.append(targets)
        labels.append(tuple(state_letter[j] for j in targets))
    return MarkovStructure(rank=rank, states=states, succ=tuple(succ), labels=tuple(labels))


@dataclass(frozen=True)
class AugmentedStructure(MarkovStructure):
    """Structure with the absorbing ``0`` state appended.

    Every non-initial state gains an identity-labelled edge to 0, and 0 loops
    to itself; infinite 0-free paths correspond to boundary rays, paths
    absorbed at 0 to group elements.
    """

    base: MarkovStructure | None = None

    @property
    def zero_index(self) -> int:
        return self._index[ZERO]


def augment(ms: MarkovStructure) -> AugmentedStructure:
    if ZERO in ms.states:
        raise ValidationError(f"state name {ZERO!r} is reserved")
    states = ms.states + (ZERO,)
    zero = len(ms.states)
    succ = []
    labels = []
    for i in range(ms.n_states):
        if ms.states[i] == ms.initial:
            succ.append(ms.succ[i])
            labels.append(ms.labels[i])
        else:
            succ.append(ms.succ[i] + (zero,))
            labels.append(ms.labels[i] + (0,))
    succ.append((zero,))
    labels.append((0,))
    return AugmentedStructure(
        rank=ms.rank,
        states=states,
        succ=tuple(succ),
        labels=tuple(labels),
        initial=ms.initial,
        base=ms,
    )


def structure_from_json(obj: dict) -> MarkovStructure:
    try:
        states = tuple(str(s) for s in obj["states"])
        initial = str(obj.get("initial", INITIAL))
        edge_specs = obj["edges"]
    except KeyError as exc:
        raise ValidationError(f"structure file misses key {exc}") from exc
    if ZERO in states:
        raise ValidationError(f"state name {ZERO!r} is reserved for augmentation")
    index = {s: i for i, s in enumerate(states)}
    rank = obj.get("rank")
    out_edges: dict[int, list[tuple[int, int]]] = {i: [] for i in range(len(states))}
    max_letter = 0
    for spec in edge_specs:
        try:
            src, dst = index[str(spec["from"])], index[str(spec["to"])]
        except KeyError as exc:
            raise ValidationError(f"edge refers to unknown state {exc}") from exc
        token = str(spec["label"])
        letter = 0 if token == "1" else char_to_letter(token)
        max_letter = max(max_letter, abs(letter))
        out_edges[src].append((dst, letter))
    if rank is None:
        rank = max_letter
    succ = []
    labels = []
    for i in range(len(states)):
        pairs = sorted(out_edges[i])
        succ.append(tuple(j for j, _ in pairs))
        labels.append(tuple(l for _, l in pairs))
    return MarkovStructure(
        rank=int(rank), states=states, succ=tuple(succ), labels=tuple(labels), initial=initial
    )


def load_structure(path) -> MarkovStructure:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"structure file {path}: {exc}") from exc
    return structure_from_json(obj)


# -- validation ---------------------------------------------------------------


@dataclass(frozen=True)
class ValidationRow:
    n: int
    paths: int
    sphere: int
    geodesic_violations: int
    duplicate_words: int


@dataclass(frozen=True)
class StructureReport:
    rows: tuple[ValidationRow, ...]
    ok: bool
    counterexample: tuple[str, ...] | None

    def summary(self) -> str:
        lines = ["n  paths  sphere  geodesic_violations  duplicates"]
        for r in self.rows:
            lines.append(
                f"{r.n:<3}{r.paths:<7}{r.sphere:<8}{r.geodesic_violations:<21}{r.duplicate_words}"
            )
        lines.append("OK" if self.ok else f"FAILED (counterexample: {self.counterexample})")
        return "\n".join(lines)


def validate_strongly_markov(ms: MarkovStructure, radius: int = 8) -> StructureReport:
    """Check the bijection and geodesic properties on the ball of the given radius.

    For each n <= radius the report compares the number of paths from the
    initial state against the free-group sphere size, and counts paths whose
    label product is not a length-n reduced word (geodesic violations) and
    repeated images (bijection violations).  Accepted iff all rows are clean.
    """
    rows = []
    counterexample = None
    ok = True
    for n in range(1, radius + 1):
        seen: set[tuple[int, ...]] = set()
        geodesic_bad = 0
        duplicates = 0
        count = 0
        for path in ms.paths(n):
            count += 1
            w = ms.ev(path)
            if len(w) != n:
                geodesic_bad += 1
                if counterexample is None:
                    counterexample = tuple(ms.states[i] for i in path)
            elif w.letters in seen:
                duplicates += 1
                if counterexample is None:
                    counterexample = tuple(ms.states[i] for i in path)
            else:
                seen.add(w.letters)
        sphere = sphere_size(ms.rank, n)
        rows.append(ValidationRow(n, count, sphere, geodesic_bad, duplicates))
        if count != sphere or geodesic_bad or duplicates:
            ok = False
    return StructureReport(rows=tuple(rows), ok=ok, counterexample=counterexample)


# -- components ---------------------------------------------------------------


@dataclass(frozen=True)
class Component:
    """Strongly connected subgraph of a structure (no initial or zero state)."""

    parent: MarkovStructure = field(repr=False)
    states: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "_member", frozenset(self.parent.index(s) for s in self.states))

    @property
    def indices(self) -> frozenset:
        return self._member

    def contains(self, state: str | int) -> bool:
        if isinstance(state, str):
            state = self.parent.index(state)
        return state in self._member

    def succ_within(self, i: int) -> list[int]:
        return [j for j in self.parent.succ[i] if j in self._member]

    def adjacency(self) -> np.ndarray:
        order = [self.parent.index(s) for s in self.states]
        pos = {g: k for k, g in enumerate(order)}
        n = len(order)
        a = np.zeros((n, n), dtype=np.int64)
        for g in order:
            for j in self.parent.succ[g]:
                if j in self._member:
                    a[pos[g], pos[j]] = 1
        return a

    def is_single_cycle(self) -> bool:
        return all(len(self.succ_within(self.parent.index(s))) == 1 for s in self.states)


def scc_decompose(ms: MarkovStructure) -> tuple[list[Component], list[str]]:
    """Tarjan decomposition of the non-initial, non-zero states.

    Returns (components, transient_states): strongly connected pieces with at
    least one internal edge, and the leftover singleton states.
    """
    skip = {ms.initial_index}
    if ZERO in ms.states:
        skip.add(ms.index(ZERO))
    nodes = [i for i in range(ms.n_states) if i not in skip]
    node_set = set(nodes)

    index_of: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0

    for root in nodes:
        if root in index_of:
            continue
        work = [(root, iter([j for j in ms.succ[root] if j in node_set]))]
        index_of[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for j in it:
                if j not in index_of:
                    index_of[j] = low[j] = counter
                    counter += 1
                    stack.append(j)
                    on_stack.add(j)
                    work.append((j, iter([u for u in ms.succ[j] if u in node_set])))
                    advanced = True
                    break
                if j in on_stack:
                    low[v] = min(low[v], index_of[j])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index_of[v]:
                comp = []
                while True:
                    u = stack.pop()
                    on_stack.discard(u)
                    comp.append(u)
                    if u == v:
                        break
                sccs.append(comp)

    components: list[Component] = []
    transient: list[str] = []
    for comp in sccs:
        if len(comp) == 1:
            i = comp[0]
            if i in ms.succ[i]:
                components.append(Component(parent=ms, states=(ms.states[i],)))
            else:
                transient.append(ms.states[i])
        else:
            names = sorted((ms.states[i] for i in comp), key=lambda s: ms.index(s))
            components.append(Component(parent=ms, states=tuple(names)))
    components.sort(key=lambda c: min(c.indices))
    transient.sort(key=lambda s: ms.index(s))
    return components, transient


def spectral_radius_enclosure(adj: np.ndarray, exact: bool | None = None, tol=1e-12, max_iter=200_000):
    """Certified Collatz-Wielandt enclosure (lo, hi) of the Perron root.

    Runs on A + I (always primitive for an irreducible A), so it converges on
    periodic components too.  ``exact`` switches to Fraction arithmetic, which
    keeps the enclosure rigorous; by default it is used for matrices of at
    most 64 states.
    """
    n = adj.shape[0]
    if exact is None:
        exact = n <= 64
    row_sums = adj.sum(axis=1)
    if np.all(row_sums == row_sums[0]):
        rho = Fraction(int(row_sums[0]))
        return rho, rho
    succ = [np.nonzero(adj[i])[0].tolist() for i in range(n)]
    if exact:
        x = [Fraction(1) for _ in range(n)]
        for it in range(max_iter):
            y = [x[i] + sum(x[j] for j in succ[i]) for i in range(n)]
            ratios = [y[i] / x[i] for i in range(n)]
            lo, hi = min(ratios), max(ratios)
            if hi - lo <= Fraction(tol.as_integer_ratio()[0], tol.as_integer_ratio()[1]) * hi:
                return lo - 1, hi - 1
            top = max(y)
            x = [v / top for v in y]
        raise ConvergenceError("spectral radius enclosure did not converge", iterations=max_iter)
    m = adj.astype(float) + np.eye(n)
    x = np.ones(n)
    for it in range(max_iter):
        y = m @ x
        ratios = y / x
        lo, hi = ratios.min(), ratios.max()
        if hi - lo <= tol * hi:
            return lo - 1.0, hi - 1.0
        x = y / y.max()
    raise ConvergenceError("spectral radius enclosure did not converge", iterations=max_iter)


@dataclass(frozen=True)
class ClassifiedComponent:
    component: Component
    spectral_radius: Fraction | float
    word_maximal: bool

    @property
    def states(self) -> tuple[str, ...]:
        return self.component.states


@dataclass(frozen=True)
class ComponentReport:
    components: tuple[ClassifiedComponent, ...]
    transient_states: tuple[str, ...]
    growth_rate: float  # log of the largest spectral radius

    def maximal(self) -> list[ClassifiedComponent]:
        return [c for c in self.components if c.word_maximal]


def classify_components(ms: MarkovStructure, exact: bool | None = None, rel_tol=1e-9) -> ComponentReport:
    """Spectral radius and word-maximality flag per component.

    A component is word maximal when its loop-growth rate log(rho) attains the
    overall growth rate; maximal components are checked to be pairwise
    non-adjacent (no connecting path), which the downstream measure theory
    relies on.
    """
    components, transient = scc_decompose(ms)
    if not components:
        raise ValidationError("structure has no strongly connected component")
    radii = []
    for comp in components:
        lo, hi = spectral_radius_enclosure(comp.adjacency(), exact=exact)
        radii.append(hi if lo == hi else (float(lo) + float(hi)) / 2.0)
    v_s = max(math.log(float(r)) for r in radii)
    classified = []
    for comp, rho in zip(components, radii):
        maximal = abs(math.log(float(rho)) - v_s) <= rel_tol * max(1.0, abs(v_s))
        classified.append(ClassifiedComponent(component=comp, spectral_radius=rho, word_maximal=maximal))
    _assert_maximal_disjoint(ms, [c for c in classified if c.word_maximal])
    return ComponentReport(
        components=tuple(classified),
        transient_states=tuple(transient),
        growth_rate=v_s,
    )


def _assert_maximal_disjoint(ms: MarkovStructure, maximal: list[ClassifiedComponent]) -> None:
    for a in maximal:
        reachable = ms.reachable(a.component.indices)
        for b in maximal:
            if b is not a and reachable & set(b.component.indices):
                raise ValidationError(
                    f"word-maximal components {a.states} and {b.states} are connected"
                )


# -- loop representatives ------------------------------------------------------


@dataclass(frozen=True)
class LoopWitness:
    """Closed path (states r1, ..., rl, r1) inside a component whose label
    product lies in the conjugacy class of the requested power."""

    states: tuple[str, ...]
    power: int  # the M with ev(loop) in [c^(sign*M)]
    sign: int
    word: Word


def find_loop_for_class(
    c: ConjClass, comp: Component, m_max: int = 8
) -> LoopWitness:
    """Shortest loop in the component representing [c^(sign*M)] with minimal M.

    Search walks the product of the component graph with the cyclic automaton
    of c^m, m = 1..m_max, trying sign +1 before -1; ties are broken by
    lexicographic state order, so the result is deterministic.
    """
    if c.is_trivial():
        raise ValueError("no loop for the trivial class")
    ms = comp.parent
    member = sorted(comp.indices)
    succ = {i: comp.succ_within(i) for i in member}
    base = c.letters
    inv = tuple(-l for l in reversed(base))
    for m in range(1, m_max + 1):
        for sign, cyc in ((1, base * m), (-1, inv * m)):
            length = len(cyc)
            found = _cycle_spelling(ms, member, succ, cyc, length)
            if found is not None:
                word = ms.ev(found)
                target = cyclic_reduce(c.representative() ** (sign * m))
                if cyclic_reduce(word) != target:
                    raise ValidationError(
                        f"loop search produced {word}, not in [{c}^{sign * m}]"
                    )
                return LoopWitness(
                    states=tuple(ms.states[i] for i in found),
                    power=m,
                    sign=sign,
                    word=word,
                )
    raise NotFoundError(
        f"no loop for [{c}] with power <= {m_max}; free-group codings expect M = 1",
        horizon=m_max,
    )


def _cycle_spelling(ms, member, succ, cyc, length):
    """First closed path of the given length spelling some rotation of ``cyc``."""
    for start in member:
        for offset in range(length):
            # forward reachability with the rotated letter sequence
            layers = [{start}]
            dead = False
            for t in range(length):
                letter = cyc[(offset + t) % length]
                nxt = set()
                for i in layers[-1]:
                    for j in succ[i]:
                        if ms.label_of(i, j) == letter:
                            nxt.add(j)
                if not nxt:
                    dead = True
                    break
                layers.append(nxt)
            if dead or start not in layers[length]:
                continue
            # backward pass: states that still reach `start` in the remaining steps
            alive = [set() for _ in range(length + 1)]
            alive[length] = {start}
            for t in range(length - 1, -1, -1):
                letter = cyc[(offset + t) % length]
                for i in layers[t]:
                    for j in succ[i]:
                        if ms.label_of(i, j) == letter and j in alive[t + 1]:
                            alive[t].add(i)
            if start not in alive[0]:
                continue
            path = [start]
            for t in range(length):
                letter = cyc[(offset + t) % length]
                step = sorted(
                    j
                    for j in succ[path[-1]]
                    if ms.label_of(path[-1], j) == letter and j in alive[t + 1]
                )
                path.append(step[0])
            return tuple(path)
    return None
