"""Strongly Markov structures (Cannon codings) for free groups.

A structure is a finite directed labelled graph with initial state ``*`` whose
paths from ``*`` spell geodesic words and biject onto the group.  The shipped
constructor covers free groups (states = last letters, no-backtrack edges);
arbitrary structures can be loaded from JSON.  ``check_reduced_coding``
proves the bijection for every length at once; ``validate_strongly_markov``
checks it ball by ball and serves as the reference.
Augmentation appends a ``0`` state absorbing finite paths, so group elements
and boundary rays both appear as infinite paths.  Components are the sets of
mutually reachable states of the base coding, found with ``reachable``;
a conjugacy class's loop in a component is found by following, letter by
letter, the one step that reads each letter of a rotation of the class.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Container, Iterable, Iterator, Sequence

import numpy as np

from .errors import NotFoundError, ValidationError
from .words import (
    MAX_RANK,
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
                if (i, j) in self._label_map:
                    raise ValidationError(f"two edges {self.states[i]} -> {self.states[j]}")
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

    def label_of(self, i: int, j: int) -> int:
        return self._label_map[(i, j)]

    def has_edge(self, i: int, j: int) -> bool:
        return (i, j) in self._label_map

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
    if not 2 <= rank <= MAX_RANK:
        raise ValidationError(f"rank must be between 2 and {MAX_RANK}, got {rank}")
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


def _base_structure(ms: MarkovStructure) -> MarkovStructure:
    """The coding an augmented copy was made from; any other structure itself."""
    if isinstance(ms, AugmentedStructure) and ms.base is not None:
        return ms.base
    return ms


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


def check_reduced_coding(ms: MarkovStructure) -> None:
    """Prove that the paths from the initial state spell every reduced word once.

    Walks the product of the coding with the last-letter automaton of reduced
    words.  At each reachable pair (state s, last letter l) the labels leaving
    s must be exactly the letters x != -l, each once.  By induction on n, that
    holds at every reachable pair iff the n-edge paths from the initial state
    biject onto the reduced words of length n, for every n.  The walk costs
    O(states * 2N * 2N).  Raises ValidationError whose counterexample is the
    state path of the first bad step, breadth first.
    """
    letters = alphabet(ms.rank)
    first = ms.initial_index
    queue = deque([(first, 0, (first,))])
    visited = {(first, 0)}
    while queue:
        s, last, path = queue.popleft()
        seen = set()
        for j in ms.succ[s]:
            x = ms.label_of(s, j)
            problem = (
                f"no letter of rank {ms.rank}" if x not in letters
                else "the inverse of the letter before" if x == -last
                else "a letter another step from the same state reads" if x in seen
                else None
            )
            if problem:
                bad = tuple(ms.states[i] for i in path + (j,))
                raise ValidationError(
                    f"step {bad[-2]} -> {bad[-1]} reads {letter_to_char(x) if x else '1'}, "
                    f"{problem} (path {' '.join(bad)})",
                    counterexample=bad,
                )
            seen.add(x)
            if (j, x) not in visited:
                visited.add((j, x))
                queue.append((j, x, path + (j,)))
        missing = [letter_to_char(x) for x in letters if x != -last and x not in seen]
        if missing:
            names = tuple(ms.states[i] for i in path)
            raise ValidationError(
                f"no step reads {', '.join(missing)} after the path {' '.join(names)}",
                counterexample=names,
            )


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


def scc_decompose(ms: MarkovStructure) -> tuple[list[Component], list[str]]:
    """Components of the base coding's non-initial states, by mutual reachability.

    An augmented copy is decomposed as its base coding, so every component's
    parent is the coding.  State i lies on a component when it reaches itself
    without entering the initial state; its component is then every state it
    reaches that reaches it back.  Returns (components, transient_states):
    the components ordered by their first state, each in state order, and
    the leftover states in state order.
    """
    ms = _base_structure(ms)
    first = ms.initial_index
    nodes = [i for i in range(ms.n_states) if i != first]
    reach = {i: ms.reachable([j for j in ms.succ[i] if j != first], {first}) for i in nodes}
    components: list[Component] = []
    transient: list[str] = []
    placed: set[int] = set()
    for i in nodes:
        if i not in reach[i]:
            transient.append(ms.states[i])
        elif i not in placed:
            members = [j for j in nodes if j in reach[i] and i in reach[j]]
            placed.update(members)
            components.append(Component(parent=ms, states=tuple(ms.states[j] for j in members)))
    return components, transient


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


def classify_components(ms: MarkovStructure) -> ComponentReport:
    """Spectral radius and word-maximality flag per component.

    The spectral radius is the Perron root of the component's adjacency: the
    common out-degree, as an exact Fraction, when every state has the same
    number of successors in the component, and otherwise the largest
    modulus among the eigenvalues of the small dense adjacency, a float.  A
    component is word maximal when its loop-growth rate log(rho) attains the
    overall growth rate within a relative 1e-9; maximal components are
    checked to be pairwise non-adjacent (no connecting path), which the
    downstream measure theory relies on.
    """
    components, transient = scc_decompose(ms)
    if not components:
        raise ValidationError("structure has no strongly connected component")
    radii = []
    for comp in components:
        adj = comp.adjacency()
        degree = adj.sum(axis=1)
        if (degree == degree[0]).all():
            radii.append(Fraction(int(degree[0])))
        else:
            radii.append(float(np.abs(np.linalg.eigvals(adj)).max()))
    v_s = max(math.log(float(r)) for r in radii)
    classified = []
    for comp, rho in zip(components, radii):
        maximal = abs(math.log(float(rho)) - v_s) <= 1e-9 * max(1.0, abs(v_s))
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

    For m = 1..m_max, sign +1 before -1, the loop is the first closed walk
    that spells a rotation of c^(sign*m) inside the component, trying start
    states in state order and then rotations.  In a coding no two steps from
    one state read the same letter, so a start and a rotation fix the walk;
    a component state with two such steps raises ValidationError.
    """
    if c.is_trivial():
        raise ValueError("no loop for the trivial class")
    ms = comp.parent
    step = {}
    for i in sorted(comp.indices):
        step[i] = dict(zip(ms.labels[i], ms.succ[i]))
        if len(step[i]) != len(ms.labels[i]):
            raise ValidationError(f"two steps from {ms.states[i]} read one letter: not a coding")
    base = c.letters
    inv = tuple(-l for l in reversed(base))
    for m in range(1, m_max + 1):
        for sign, cyc in ((1, base * m), (-1, inv * m)):
            found = _cycle_spelling(step, cyc)
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


def _cycle_spelling(step: dict, cyc: tuple[int, ...]) -> tuple[int, ...] | None:
    """First closed walk spelling a rotation of ``cyc``, by start state and
    then rotation.  ``step[i]`` maps each letter read from component state i
    to the state it leads to; a walk that leaves the component stops."""
    for start in step:
        for offset in range(len(cyc)):
            path = [start]
            for letter in cyc[offset:] + cyc[:offset]:
                j = step[path[-1]].get(letter)
                if j not in step:
                    break
                path.append(j)
            else:
                if path[-1] == start:
                    return tuple(path)
    return None
