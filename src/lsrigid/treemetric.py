"""Marked metric graphs and the tree metrics they induce on a free group.

A marked metric graph is a finite graph with positive edge lengths together
with a marking: for each basis generator, a closed edge path at the basepoint.
The group acts on the universal cover (a simplicial tree); distances from the
orbit of the basepoint and translation lengths are computed by tightening edge
paths, which is exact.  Edge lengths given as ints, Fractions or strings are
kept in exact rational arithmetic: a tightened path is summed in integers, each
edge length times D, the least common denominator of the lengths, and the sum
comes back as a Fraction over D.  Floats switch the graph to binary64, summed
edge by edge in path order.

A marking is accepted iff it induces an isomorphism from the free group onto
the fundamental group of the graph at the basepoint.  The test folds the
marking paths (Stallings): the folded graph must embed into the graph, one
folded vertex over each graph vertex it reaches, with first Betti number equal
to the rank.  Its cost is near-linear in the total marking length, whatever
the rank.

Exact sums over balls rest on bounded cancellation: appending a letter to a
reduced word changes its distance by an amount that depends only on the last
K letters (``window_increments``).  A graph proves its window K from its
marking.

The rose with unit lengths realises the word metric; a rose with a basis
substitution (an automorphism applied to the marking) gives non-trivially
marked points of Outer Space and is how the test battery builds them.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import ResourceCapError, ValidationError
from .words import (
    ConjClass,
    Word,
    alphabet,
    letter_to_char,
    parse_substitution,
    sphere_size,
)

WINDOW_CAP = 200_000


def _parse_length(value):
    """Rational in, Fraction out; float in, float out."""
    if isinstance(value, bool):
        raise ValidationError(f"bad edge length {value!r}")
    if isinstance(value, (int, Fraction)):
        out = Fraction(value)
    elif isinstance(value, str):
        out = Fraction(value)
    elif isinstance(value, float):
        out = value
    else:
        raise ValidationError(f"bad edge length {value!r}")
    if out <= 0:
        raise ValidationError(f"edge lengths must be positive, got {value!r}")
    return out


@dataclass(frozen=True)
class Edge:
    name: str
    src: str
    dst: str
    length: Fraction | float


@dataclass(frozen=True)
class MetricGraph:
    """Marked metric graph; immutable after validation, all queries pure."""

    rank: int
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    basepoint: str
    marking: tuple[tuple[int, ...], ...]  # signed 1-based edge indices per generator
    tag: str = "graph"
    # caches, excluded from equality
    _marking_paths: dict = field(default_factory=dict, repr=False, compare=False)
    # signed edge -> length, times _denominator on a rational graph (None on a float one)
    _lengths: dict = field(default_factory=dict, repr=False, compare=False)
    _denominator: int | None = field(default=None, init=False, repr=False, compare=False)
    _increments: "Increments | None" = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self._validate_shape()
        for i, path in enumerate(self.marking, start=1):
            self._marking_paths[i] = path
            self._marking_paths[-i] = tuple(-e for e in reversed(path))
        lengths = [e.length for e in self.edges]
        if all(isinstance(l, Fraction) for l in lengths):
            d = math.lcm(*(l.denominator for l in lengths))
            object.__setattr__(self, "_denominator", d)
            lengths = [l.numerator * (d // l.denominator) for l in lengths]
        for idx, l in enumerate(lengths, start=1):
            self._lengths[idx] = self._lengths[-idx] = l
        self._validate_marking()

    # -- validation ---------------------------------------------------------

    def _validate_shape(self) -> None:
        if len(set(self.vertices)) != len(self.vertices):
            raise ValidationError("duplicate vertex names")
        if self.basepoint not in self.vertices:
            raise ValidationError(f"basepoint {self.basepoint!r} not a vertex")
        rational = all(isinstance(e.length, Fraction) for e in self.edges)
        if not rational and any(isinstance(e.length, Fraction) for e in self.edges):
            raise ValidationError("mixed rational and float edge lengths")
        for e in self.edges:
            if e.src not in self.vertices or e.dst not in self.vertices:
                raise ValidationError(f"edge {e.name} has unknown endpoint")
        # connectivity
        adj: dict[str, set[str]] = {v: set() for v in self.vertices}
        for e in self.edges:
            adj[e.src].add(e.dst)
            adj[e.dst].add(e.src)
        seen = {self.basepoint}
        frontier = [self.basepoint]
        while frontier:
            v = frontier.pop()
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    frontier.append(u)
        if seen != set(self.vertices):
            raise ValidationError("graph is not connected")
        betti = len(self.edges) - len(self.vertices) + 1
        if betti != self.rank:
            raise ValidationError(f"first Betti number {betti} != rank {self.rank}")
        if len(self.marking) != self.rank:
            raise ValidationError("marking must cover every generator")

    def _edge_endpoints(self, signed: int) -> tuple[str, str]:
        e = self.edges[abs(signed) - 1]
        return (e.src, e.dst) if signed > 0 else (e.dst, e.src)

    def _validate_marking(self) -> None:
        for i, path in enumerate(self.marking, start=1):
            if not path:
                raise ValidationError(f"marking path for generator {i} is empty")
            at = self.basepoint
            for signed in path:
                if not 1 <= abs(signed) <= len(self.edges):
                    raise ValidationError(f"marking for generator {i}: bad edge {signed}")
                src, dst = self._edge_endpoints(signed)
                if src != at:
                    raise ValidationError(f"marking for generator {i} is not composable")
                at = dst
            if at != self.basepoint:
                raise ValidationError(f"marking for generator {i} is not a closed path")
        self._fold_marking()

    def _fold_marking(self) -> None:
        """Accept iff the marking induces an isomorphism F_rank -> pi_1(G).

        Stallings folding (Topology of finite graphs, 1983): subdivide a rose
        so that petal i spells marking path i, labelling each edge by its
        signed G-edge, then identify edges that leave one vertex with one
        label.  The folded graph immerses into G and carries the image
        subgroup as its fundamental group.  An immersion that is injective
        on vertices (and so on edges) embeds a subgraph; with Betti number
        equal to the rank that subgraph carries all of pi_1(G), and a
        surjection between free groups of equal finite rank is injective
        (they are Hopfian).  Conversely an isomorphism folds onto a subgraph
        of G, so the test is exact.  Merging the smaller label table into the
        larger keeps the cost near-linear in the total marking length.
        """
        parent = [0]
        image = [self.basepoint]
        out: list[dict[int, int]] = [{}]  # per vertex: signed label -> neighbour
        pending: list[tuple[int, int, int]] = []
        for path in self.marking:
            at = 0
            for k, e in enumerate(path):
                if k == len(path) - 1:
                    nxt = 0
                else:
                    nxt = len(parent)
                    parent.append(nxt)
                    image.append(self._edge_endpoints(e)[1])
                    out.append({})
                pending.append((at, e, nxt))
                pending.append((nxt, -e, at))
                at = nxt

        def find(v: int) -> int:
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        while pending:
            u, e, v = pending.pop()
            u, v = find(u), find(v)
            w = find(out[u].setdefault(e, v))
            if w == v:
                continue
            # two edges leave u with label e: fold them by merging their ends
            if len(out[v]) < len(out[w]):
                v, w = w, v
            parent[w] = v
            pending.extend((v, label, x) for label, x in out[w].items())
            out[w] = {}
        roots = [v for v in range(len(parent)) if parent[v] == v]
        over: dict[str, int] = {}
        for v in roots:
            if over.setdefault(image[v], v) != v:
                raise ValidationError(
                    "marking is not an isomorphism onto pi_1: the folded marking "
                    f"paths do not embed (two folded vertices lie over {image[v]!r})"
                )
        # every folded edge is stored twice, once per direction
        betti = sum(len(out[v]) for v in roots) // 2 - len(roots) + 1
        if betti != self.rank:
            raise ValidationError(
                "marking is not an isomorphism onto pi_1: the folded marking "
                f"paths have first Betti number {betti} != rank {self.rank}"
            )

    # -- queries ------------------------------------------------------------

    @property
    def rational(self) -> bool:
        return self._denominator is not None

    def _length(self, edges: Sequence[int]) -> Fraction | float:
        """Length of a signed edge path: an int sum over D, or floats added in
        path order (``sum`` compensates float sums from Python 3.12 on)."""
        core = map(self._lengths.__getitem__, edges)
        if self._denominator is None:
            return functools.reduce(operator.add, core, 0.0)
        return Fraction(sum(core), self._denominator)

    def _letters(self, x: Word | ConjClass) -> tuple[int, ...]:
        if x.rank != self.rank:
            raise ValidationError(f"a rank-{x.rank} word or class on the rank-{self.rank} graph {self.tag!r}")
        return x.letters

    def _walk(self, x: Word | ConjClass) -> tuple[list[int], int | float]:
        """The tight edge path that the letters of x spell from the basepoint,
        and its length in table units."""
        stack: list[int] = []
        return stack, self._tighten(stack, self._letters(x))

    def _tighten(self, stack: list[int], letters: Iterable[int]) -> int | float:
        """Extend the tight edge path ``stack`` in place by the marking paths
        of the letters, and return the change of its length in table units.

        Each marking edge either cancels the last edge of the path or extends
        it, so the path stays tight (no backtracking) and its length is the
        tree distance from the basepoint to its end.  The length adds and
        subtracts entries of the signed length table: ints over D on a
        rational graph, floats in the order the edges come otherwise.
        """
        lengths = self._lengths
        paths = self._marking_paths
        total = 0 if self.rational else 0.0
        for letter in letters:
            for e in paths[letter]:
                if stack and stack[-1] == -e:
                    stack.pop()
                    total -= lengths[e]
                else:
                    stack.append(e)
                    total += lengths[e]
        return total

    def dist(self, w: Word) -> Fraction | float:
        """d(basepoint, w . basepoint) in the universal cover."""
        _, total = self._walk(w)
        return total if self._denominator is None else Fraction(total, self._denominator)

    def translation_length(self, c: ConjClass | Word) -> Fraction | float:
        """Length of the cyclically tight loop of ``c``, given by any representative.

        The tight path of a representative is a closed tight path at the
        basepoint.  Peeling the edges at its two ends that cancel each other
        is its cyclic reduction: it leaves the one cyclically tight loop of
        the conjugacy class, read from some point, and a rotation has the same
        length.  So the letters are tightened as they are, with no cyclic
        reduction of the word and no canonical rotation, and only the loop
        is summed.  On a float graph it is summed from where this
        representative enters it, so two conjugates can differ in the last
        bits; a rational graph is exact.
        """
        return self._length(_cyclic_core(self._walk(c)[0]))

    # -- serialisation ------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "vertices": list(self.vertices),
            "edges": [
                {"id": e.name, "from": e.src, "to": e.dst, "length": _length_repr(e.length)}
                for e in self.edges
            ],
            "basepoint": self.basepoint,
            "marking": {
                letter_to_char(i): " ".join(_edge_token(e, self.edges) for e in path)
                for i, path in enumerate(self.marking, start=1)
            },
        }


def _cyclic_core(path: list[int]) -> list[int]:
    """The cyclically tight loop of a closed tight path at the basepoint:
    the path with the edges at its two ends that cancel each other peeled,
    read from where the path enters the loop."""
    i, j = 0, len(path)
    while j - i >= 2 and path[i] == -path[j - 1]:
        i += 1
        j -= 1
    return path[i:j]


def _length_repr(length):
    if isinstance(length, Fraction):
        return str(length) if length.denominator != 1 else length.numerator
    return length


def _edge_token(signed: int, edges: tuple[Edge, ...]) -> str:
    name = edges[abs(signed) - 1].name
    return name if signed > 0 else "-" + name


@dataclass(frozen=True)
class Increments:
    """The change dist(s x) - dist(s) when a reduced word s gains a letter x.

    By bounded cancellation (Cooper, *Automorphisms of free groups have
    finitely generated fixed point sets*, 1987) it depends only on x and the
    last ``window`` letters of s.  A word's state is its last window+1 letters
    (all of a shorter word); ``table`` maps every reduced word of length
    1..window+1, the possible states after a step, to the increment of its
    last letter, the step's increment.  With a window of 0 every letter adds
    a fixed length, as on a rose with the identity marking.
    """

    window: int
    letters: tuple[int, ...]
    table: dict

    def step(self, state: tuple[int, ...], x: int) -> tuple[int, ...]:
        """The state after appending x."""
        return (state + (x,))[-self.window - 1 :]

    def extend(self, state: tuple[int, ...]) -> list[tuple[int, ...]]:
        """``step`` for every letter that keeps the word reduced."""
        return [self.step(state, x) for x in self.letters if not state or x != -state[-1]]


def window_increments(graph: MetricGraph) -> Increments:
    """The increments of a graph, with the least window that explains them,
    cached on the graph.  Raises ResourceCapError when the words up to a
    window it tries outnumber WINDOW_CAP.

    Write T(w) for the tight path of w and c(w, x) for the number of edges
    of T(x) that cancel against T(w); the increment of x is then len T(x)
    minus twice the length of its first c(w, x) edges.  Proof of a window K:
    let v be a reduced word of length K and u any word with uv reduced.
    T(uv) keeps all of T(v) but its first L(v) edges at most, where L(v) is
    the longest prefix of T(v) that is a prefix of T(y) for a reduced word y
    whose first letter is not v's (y = u^-1 is one; ``_prefix_reach`` bounds
    L from above).  If c(v, x) < len T(v) - L(v), or T(x) cancels whole
    within that part, then c(uv, x) = c(v, x).  Once every (v, x) passes,
    the c of the words up to length K+1 give every increment, and the least
    window is the least K' for which c is a function of the last K'+1
    letters.
    """
    if graph._increments is not None:
        return graph._increments
    letters = alphabet(graph.rank)
    tight = {x: graph._walk(Word((x,), graph.rank))[0] for x in letters}
    reach = _prefix_reach(graph)
    for k in itertools.count(1):
        size = sum(sphere_size(graph.rank, n) for n in range(1, k + 2))
        if size > WINDOW_CAP:
            raise ResourceCapError(
                f"increment window {k} of {graph.tag} needs {size} words; cap is {WINDOW_CAP}", cap=WINDOW_CAP
            )
        cuts, room = {}, {}  # word -> c(word without x, x); v -> len T(v) - L(v)
        for w, stack, c in _tight_steps(tight, k + 1):
            cuts[w] = c
            if len(w) == k + 1:
                v = w[:-1]
                if v not in room:
                    room[v] = len(stack) - reach(v[0], stack)
                if c >= room[v] and not c == len(tight[w[-1]]) <= room[v]:
                    break
        else:
            break
    window = next(k for k in itertools.count() if all(c == cuts[w[-k - 1 :]] for w, c in cuts.items()))
    length = graph._length
    table = {w: length(tight[w[-1]]) - 2 * length(tight[w[-1]][:c]) for w, c in cuts.items() if len(w) <= window + 1}
    object.__setattr__(graph, "_increments", Increments(window, tuple(letters), table))
    return graph._increments


def _tight_steps(tight: dict, depth: int):
    """Yield (word, stack, c) for every reduced word of length 1..depth in
    depth-first order, given the tight path of each letter: ``stack`` is the
    tight path of the word without its last letter x (one list, changed
    between steps) and c the number of edges of x's path that cancel it."""
    stack: list[int] = []

    def walk(word):
        for x, path in tight.items():
            if word and x == -word[-1]:
                continue
            c = 0
            while c < min(len(stack), len(path)) and stack[-1 - c] == -path[c]:
                c += 1
            yield word + (x,), stack, c
            if len(word) + 1 < depth:
                cut = len(stack) - c
                popped = stack[cut:]
                stack[cut:] = path[c:]
                yield from walk(word + (x,))
                stack[cut:] = popped

    return walk(())


def _prefix_reach(graph: MetricGraph) -> Callable[[int, Sequence[int]], int]:
    """``reach(b, path)``: the length of the longest prefix of ``path`` that is
    the tight path of a prefix of the edge path spelled by a reduced word
    whose first letter is not b.

    That edge path runs through every vertex of the tight path T(y) of the
    word y, so ``reach`` is at least the longest common prefix of ``path``
    and any such T(y).  An automaton spells the edge paths; it gains an empty
    move across every stretch that reduces to nothing, after which it reads
    exactly the tight paths of their prefixes (Benois, 1969: the free
    reductions of a regular language are regular).
    """
    letters = alphabet(graph.rank)
    paths = graph._marking_paths
    # state (x, i): the first i edges of x's path are read; (b, 0) starts a
    # word whose first letter is not b
    moves = {(b, 0): [(paths[x][0], (x, 1)) for x in letters if x != b] for b in letters}
    for x in letters:
        n = len(paths[x])
        moves.update({(x, i): [(paths[x][i], (x, i + 1))] for i in range(1, n)})
        moves[(x, n)] = [(paths[y][0], (y, 1)) for y in letters if y != -x]
    # empty[q]: states reached from q along a path that reduces to nothing
    empty = {q: {q} for q in moves}
    changed = True
    while changed:
        changed = False
        for q in moves:
            found = set(empty[q])
            for e, s in moves[q]:
                for t in list(empty[s]):
                    found.update(*(empty[u] for e2, u in moves[t] if e2 == -e))
            for r in list(found):
                found |= empty[r]
            if found != empty[q]:
                empty[q], changed = found, True
    read: dict = {q: {} for q in moves}  # state -> edge -> states after reading it
    for q in moves:
        for a in empty[q]:
            for e, s in moves[a]:
                read[q].setdefault(e, set()).update(empty[s])

    def reach(b: int, path: Sequence[int]) -> int:
        current = empty[(b, 0)]
        for j, e in enumerate(path):
            current = set().union(*(read[q].get(e, ()) for q in current))
            if not current:
                return j
        return len(path)

    return reach


def rose(lengths: Sequence, tag: str | None = None) -> MetricGraph:
    """Rose with one petal per generator, identity marking."""
    rank = len(lengths)
    parsed = [_parse_length(l) for l in lengths]
    edges = tuple(
        Edge(name=f"e{i}", src="v", dst="v", length=parsed[i - 1]) for i in range(1, rank + 1)
    )
    marking = tuple((i,) for i in range(1, rank + 1))
    return MetricGraph(
        rank=rank,
        vertices=("v",),
        edges=edges,
        basepoint="v",
        marking=marking,
        tag=tag or ("rose" + "_" + "_".join(str(_length_repr(l)) for l in parsed)),
    )


def word_metric(rank: int) -> MetricGraph:
    return rose([1] * rank, tag=f"word_metric_rank{rank}")


def marked_rose(lengths: Sequence, substitution: dict[int, Word], tag: str | None = None) -> MetricGraph:
    """Rose whose marking sends generator i to the edge path of substitution[i]."""
    rank = len(lengths)
    parsed = [_parse_length(l) for l in lengths]
    edges = tuple(
        Edge(name=f"e{i}", src="v", dst="v", length=parsed[i - 1]) for i in range(1, rank + 1)
    )
    marking = []
    for i in range(1, rank + 1):
        image = substitution[i]
        if image.is_identity():
            raise ValidationError(f"substitution sends generator {i} to the identity")
        marking.append(tuple(image.letters))
    return MetricGraph(
        rank=rank,
        vertices=("v",),
        edges=edges,
        basepoint="v",
        marking=tuple(marking),
        tag=tag or "marked_rose",
    )


def graph_from_json(obj: dict) -> MetricGraph:
    if "rose" in obj:
        lengths = obj["rose"]
        if "substitution" in obj:
            rank = len(lengths)
            subst = parse_substitution(obj["substitution"], rank)
            return marked_rose(lengths, subst, tag=obj.get("tag"))
        return rose(lengths, tag=obj.get("tag"))
    try:
        rank = int(obj["rank"])
        vertices = tuple(str(v) for v in obj["vertices"])
        basepoint = str(obj["basepoint"])
        edges = []
        names: dict[str, int] = {}
        for i, spec in enumerate(obj["edges"], start=1):
            name = str(spec.get("id", f"e{i}"))
            if name in names:
                raise ValidationError(f"duplicate edge id {name!r}")
            names[name] = i
            edges.append(
                Edge(name=name, src=str(spec["from"]), dst=str(spec["to"]), length=_parse_length(spec["length"]))
            )
        marking_spec = obj["marking"]
    except KeyError as exc:
        raise ValidationError(f"graph file misses key {exc}") from exc
    marking = []
    for i in range(1, rank + 1):
        key = letter_to_char(i)
        if key not in marking_spec:
            raise ValidationError(f"marking misses generator {key!r}")
        tokens = str(marking_spec[key]).replace(",", " ").split()
        path = []
        for tok in tokens:
            reverse = tok.startswith("-")
            name = tok[1:] if reverse else tok
            if name not in names:
                raise ValidationError(f"marking refers to unknown edge {name!r}")
            path.append(-names[name] if reverse else names[name])
        marking.append(tuple(path))
    return MetricGraph(
        rank=rank,
        vertices=vertices,
        edges=tuple(edges),
        basepoint=basepoint,
        marking=tuple(marking),
        tag=obj.get("tag", "graph"),
    )


def as_float(graph: MetricGraph) -> MetricGraph:
    """The same marked graph with edge lengths converted to binary64."""
    if not graph.rational:
        return graph
    edges = tuple(Edge(e.name, e.src, e.dst, float(e.length)) for e in graph.edges)
    return MetricGraph(
        rank=graph.rank,
        vertices=graph.vertices,
        edges=edges,
        basepoint=graph.basepoint,
        marking=graph.marking,
        tag=graph.tag + "_float",
    )


def load_graph(path) -> MetricGraph:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"graph file {path}: {exc}") from exc
    return graph_from_json(obj)


# -- ball counts ---------------------------------------------------------------


def ball_counts(graph: MetricGraph, radii: Sequence) -> list[int]:
    """#{x : dist(o, x) <= T} for each threshold T in ``radii``, exactly.

    Dynamic programming over (state, distance) with the increments of
    ``window_increments``.  Increments can be negative, so an entry is dropped
    only when its distance plus the least sum of increments along any
    continuation from its state exceeds the largest threshold.  That least sum
    is finite: a cycle of states spells a cyclically reduced word whose
    increments add up to its translation length, which is positive.
    """
    inc = window_increments(graph)
    t_max = max(radii)
    least = {(): 0}  # Bellman-Ford, discovering the states as it goes
    changed = True
    while changed:
        changed = False
        for state in list(least):
            for nxt in inc.extend(state):
                if nxt not in least or inc.table[nxt] + least[nxt] < least[state]:
                    least[state] = min(least[state], inc.table[nxt] + least.setdefault(nxt, 0))
                    changed = True
    reached: dict = {}  # distance -> number of elements
    layer = {((), 0): 1}
    while layer:
        nxt_layer: dict = {}
        for (state, d), c in layer.items():
            reached[d] = reached.get(d, 0) + c
            for nxt in inc.extend(state):
                key = (nxt, d + inc.table[nxt])
                if key[1] + least[nxt] <= t_max:
                    nxt_layer[key] = nxt_layer.get(key, 0) + c
        layer = nxt_layer
    return [sum(c for d, c in reached.items() if d <= t) for t in radii]
