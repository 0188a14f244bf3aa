"""Marked metric graphs and the tree metrics they induce on a free group.

A marked metric graph is a finite graph with positive edge lengths together
with a marking: for each basis generator, a closed edge path at the basepoint.
The group acts on the universal cover (a simplicial tree); distances from the
orbit of the basepoint and translation lengths are computed by tightening edge
paths, which is exact.  Edge lengths given as ints, Fractions or strings are
kept in exact rational arithmetic; floats switch the graph to binary64.

A marking is accepted iff it induces an isomorphism from the free group onto
the fundamental group of the graph at the basepoint.  The test folds the
marking paths (Stallings): the folded graph must embed into the graph, one
folded vertex over each graph vertex it reaches, with first Betti number equal
to the rank.  Its cost is near-linear in the total marking length, whatever
the rank.

The rose with unit lengths realises the word metric; a rose with a basis
substitution (an automorphism applied to the marking) gives non-trivially
marked points of Outer Space and is how the test battery builds them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .errors import BelowThresholdError, ValidationError
from .words import (
    ConjClass,
    Word,
    cyclic_reduce,
    enumerate_ball,
    letter_to_char,
    parse_substitution,
)

FLOAT_TOL = 1e-12


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


class DistanceWalker:
    """Incrementally tightened edge path from the basepoint.

    push(letter) appends one marking path and keeps the invariant that the
    stored path is tight (no backtracking), so ``dist`` is always the exact
    tree distance from the basepoint to the current endpoint.
    """

    def __init__(self, graph: "MetricGraph"):
        self._graph = graph
        self._stack: list[int] = []
        self._dist = 0 if graph.rational else 0.0

    def push(self, letter: int) -> None:
        lengths = self._graph._edge_lengths
        stack = self._stack
        for e in self._graph._marking_paths[letter]:
            if stack and stack[-1] == -e:
                stack.pop()
                self._dist -= lengths[abs(e)]
            else:
                stack.append(e)
                self._dist += lengths[abs(e)]

    @property
    def dist(self):
        return self._dist

    def path(self) -> tuple[int, ...]:
        return tuple(self._stack)


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
    _edge_lengths: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self._validate_shape()
        for i, path in enumerate(self.marking, start=1):
            self._marking_paths[i] = path
            self._marking_paths[-i] = tuple(-e for e in reversed(path))
        for idx, e in enumerate(self.edges, start=1):
            self._edge_lengths[idx] = e.length
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
        return all(isinstance(e.length, Fraction) for e in self.edges)

    @property
    def additive(self) -> bool:
        """True when each generator is marked by its own single rose petal,
        so distances add letter by letter with no cancellation."""
        if len(self.vertices) != 1:
            return False
        used = [path for path in self.marking]
        return all(len(p) == 1 and p[0] > 0 for p in used) and sorted(
            p[0] for p in used
        ) == list(range(1, self.rank + 1))

    def letter_lengths(self) -> dict[int, Fraction | float]:
        """Per-letter distance increments; only meaningful for additive graphs."""
        out = {}
        for i, path in enumerate(self.marking, start=1):
            total = sum(self._edge_lengths[abs(e)] for e in path)
            out[i] = total
            out[-i] = total
        return out

    def walker(self) -> DistanceWalker:
        return DistanceWalker(self)

    def _tight_path(self, w: Word) -> tuple[int, ...]:
        walker = DistanceWalker(self)
        for l in w.letters:
            walker.push(l)
        return walker.path()

    def dist(self, w: Word) -> Fraction | float:
        """d(basepoint, w . basepoint) in the universal cover."""
        walker = DistanceWalker(self)
        for l in w.letters:
            walker.push(l)
        return walker.dist

    def translation_length(self, c: ConjClass | Word) -> Fraction | float:
        if isinstance(c, Word):
            c = cyclic_reduce(c)
        path = list(self._tight_path(c.representative()))
        i, j = 0, len(path)
        while j - i >= 2 and path[i] == -path[j - 1]:
            i += 1
            j -= 1
        total = 0 if self.rational else 0.0
        for e in path[i:j]:
            total += self._edge_lengths[abs(e)]
        return total

    def oracle(self) -> "MetricOracle":
        return MetricOracle(dist=self.dist, rank=self.rank, tag=self.tag, graph=self)

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


def _length_repr(length):
    if isinstance(length, Fraction):
        return str(length) if length.denominator != 1 else length.numerator
    return length


def _edge_token(signed: int, edges: tuple[Edge, ...]) -> str:
    name = edges[abs(signed) - 1].name
    return name if signed > 0 else "-" + name


@dataclass(frozen=True)
class MetricOracle:
    """Black-box left-invariant metric: dist(x) = d(o, x.o).

    Satisfies dist(identity) = 0 and dist(x) = dist(x^-1).  Graphs wrap
    themselves in one of these; user oracles plug in the same way.
    """

    dist: Callable[[Word], Fraction | float]
    rank: int
    tag: str = "oracle"
    graph: MetricGraph | None = None


Metric = MetricGraph | MetricOracle


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


# -- metric functionals ------------------------------------------------------


def gromov_product(x: Word, y: Word, metric: Metric) -> Fraction | float:
    """(x, y) at the identity: half of dist(x) + dist(y) - dist(x^-1 y)."""
    d = metric.dist
    value = d(x) + d(y) - d((~x) * y)
    if isinstance(value, Fraction):
        return value / 2
    return value / 2.0


def translation_length(c: ConjClass | Word, graph: MetricGraph) -> Fraction | float:
    return graph.translation_length(c)


def tl_via_gromov(x: Word, metric: Metric, threshold=0):
    """dist(x) - 2 (x, x^-1); equals the translation length exactly on trees.

    Raises BelowThresholdError when the value falls below ``threshold``, the
    regime where the general-metric estimate is unreliable.
    """
    d = metric.dist
    value = d(x) - 2 * gromov_product(x, ~x, metric)
    if value < threshold:
        raise BelowThresholdError(
            f"estimate {value} below threshold {threshold} for {x}", value=value
        )
    return value


def dilation(
    length1: Callable[[ConjClass], Fraction | float],
    length2: Callable[[ConjClass], Fraction | float],
    classes: Sequence[ConjClass],
):
    """max of length1[c]/length2[c] over the given classes.

    A certified lower bound for the supremum over all conjugacy classes.
    """
    if not classes:
        raise ValueError("need at least one class")
    best = None
    for c in classes:
        denom = length2(c)
        if denom == 0:
            raise ZeroDivisionError(f"zero translation length for {c}")
        ratio = length1(c) / denom
        if best is None or ratio > best:
            best = ratio
    return best


def ball_counts(metric: Metric, radii: Sequence, word_radius: int | None = None) -> list[int]:
    """#{x : dist(o, x) <= T} for each threshold T in ``radii``.

    Exact dynamic programming over the last letter when the metric is an
    additive (rose-marked) graph; otherwise enumerates the word-metric ball of
    ``word_radius`` and counts, which is only correct when that ball covers
    every element within the largest threshold.
    """
    graph = metric if isinstance(metric, MetricGraph) else metric.graph
    thresholds = list(radii)
    t_max = max(thresholds)
    if graph is not None and graph.additive:
        per_letter = graph.letter_lengths()
        rank = graph.rank
        counts_at = {t: 1 for t in thresholds}  # identity
        frontier: dict[tuple[int, Fraction | float], int] = {}
        for l in per_letter:
            if per_letter[l] <= t_max:
                frontier[(l, per_letter[l])] = frontier.get((l, per_letter[l]), 0) + 1
        while frontier:
            for (_, d), cnt in frontier.items():
                for t in thresholds:
                    if d <= t:
                        counts_at[t] += cnt
            nxt: dict[tuple[int, Fraction | float], int] = {}
            for (last, d), cnt in frontier.items():
                for l in per_letter:
                    if l == -last:
                        continue
                    nd = d + per_letter[l]
                    if nd <= t_max:
                        key = (l, nd)
                        nxt[key] = nxt.get(key, 0) + cnt
            frontier = nxt
        return [counts_at[t] for t in thresholds]
    if word_radius is None:
        raise ValueError("non-additive metric needs an explicit word_radius")
    d = metric.dist
    values = [d(w) for w in enumerate_ball(metric.rank, word_radius)]
    return [sum(1 for v in values if v <= t) for t in thresholds]
