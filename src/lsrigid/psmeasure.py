"""Finite ball measures and their dynamical counterpart on the coding.

The ball measure of radius n weights each group element in the word-metric
ball by exp(-v * dist(o, x)).  At the critical multiplier the partition sums
grow linearly, cylinder masses of coding prefixes stabilise inside a uniform
band around exp(-v * Birkhoff sum), and almost every path is absorbed into a
word-maximal component.  The limiting boundary measure is never materialised:
it is represented operationally by an entry-weight table over the transient
prefixes plus the Gibbs chain of the entered component, which is equivalent
(same null sets) and exactly what the rigidity construction consumes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .coding import AugmentedStructure, Component, MarkovStructure, classify_components
from .errors import ValidationError
from .thermo import TransferData
from .treemetric import Metric
from .words import Word, alphabet, enumerate_ball, free_reduce

DEFAULT_BALL_CAP = 400_000


def _additive_graph(metric: Metric):
    graph = metric if hasattr(metric, "walker") else metric.graph
    if graph is not None and graph.additive:
        return graph
    return None


@dataclass(frozen=True)
class BallMeasure:
    """Probability weights proportional to exp(-v dist) on the radius-n ball."""

    radius: int
    v: float
    weights: dict  # Word -> float
    partition_sum: float
    tag: str

    def weight(self, w: Word) -> float:
        return self.weights.get(w, 0.0)


def ball_measure(metric: Metric, v: float, n: int, cap: int = DEFAULT_BALL_CAP) -> BallMeasure:
    words_in_ball = enumerate_ball(metric.rank, n, cap=cap)
    raw = {w: math.exp(-v * float(metric.dist(w))) for w in words_in_ball}
    z = sum(raw.values())
    return BallMeasure(
        radius=n,
        v=v,
        weights={w: x / z for w, x in raw.items()},
        partition_sum=z,
        tag=metric.tag,
    )


def partition_sums(metric: Metric, v: float, n_max: int, cap: int = DEFAULT_BALL_CAP) -> list[float]:
    """Z_n = sum over the radius-n word ball of exp(-v dist), for n = 0..n_max.

    Additive (rose-marked) metrics use exact last-letter dynamic programming,
    which evaluates the same sum without enumerating the ball; other metrics
    fall back to enumeration under the resource cap.
    """
    graph = _additive_graph(metric)
    if graph is not None:
        letters = alphabet(graph.rank)
        lengths = graph.letter_lengths()
        w = np.array([math.exp(-v * float(lengths[l])) for l in letters])
        m = np.zeros((len(letters), len(letters)))
        for ti, t in enumerate(letters):
            for si, s in enumerate(letters):
                if s != -t:
                    m[ti, si] = w[ti]
        vec = w.copy()
        out = [1.0]
        total = 1.0
        for _ in range(n_max):
            total += float(vec.sum())
            out.append(total)
            vec = m @ vec
        return out
    words_in_ball = enumerate_ball(metric.rank, n_max, cap=cap)
    out = [0.0] * (n_max + 1)
    for w in words_in_ball:
        x = math.exp(-v * float(metric.dist(w)))
        out[len(w)] += x
    for n in range(1, n_max + 1):
        out[n] += out[n - 1]
    return out


@dataclass(frozen=True)
class PartitionSumReport:
    v: float
    sums: tuple[float, ...]  # Z_0 .. Z_nmax
    ratios: tuple[float, ...]  # Z_n / n for n >= 1
    band: tuple[float, float]
    c_fitted: float  # smallest C with band inside [1/C, C]
    looks_linear: bool
    increment_slope: float


def partition_sum_check(metric: Metric, v: float, n_max: int = 14) -> PartitionSumReport:
    """Table of Z_n/n with the measured band; flags non-critical multipliers.

    At the critical v the increments Z_n - Z_{n-1} approach a positive
    constant, so the fitted slope of their logarithms is near zero; a clearly
    negative slope means the series is subcritical and Z_n stays bounded.
    """
    sums = partition_sums(metric, v, n_max)
    ratios = tuple(sums[n] / n for n in range(1, n_max + 1))
    band = (min(ratios), max(ratios))
    c_fitted = max(band[1], 1.0 / band[0])
    increments = [sums[n] - sums[n - 1] for n in range(1, n_max + 1)]
    tail = range(max(1, n_max // 2), n_max + 1)
    slope = float(
        np.polyfit([n for n in tail], [math.log(increments[n - 1]) for n in tail], 1)[0]
    )
    return PartitionSumReport(
        v=v,
        sums=tuple(sums),
        ratios=ratios,
        band=band,
        c_fitted=c_fitted,
        looks_linear=slope >= -0.02,
        increment_slope=slope,
    )


# -- cylinder masses -----------------------------------------------------------


def _maximal_state_indices(ms: MarkovStructure) -> frozenset:
    report = classify_components(ms)
    out: set[int] = set()
    for c in report.maximal():
        out |= set(c.component.indices)
    return frozenset(out)


@dataclass(frozen=True)
class MassEstimate:
    value: float
    n: int
    prefix: tuple[str, ...]
    null_cylinder: bool  # no continuation reaches a word-maximal component


def cylinder_mass_estimate(
    prefix: Sequence[str | int],
    aug: AugmentedStructure,
    metric: Metric,
    v: float,
    n: int,
    maximal_states: frozenset | None = None,
    cap: int = DEFAULT_BALL_CAP,
) -> MassEstimate:
    """Ball-measure mass of the cylinder of paths extending the given prefix.

    Sums exp(-v dist) over all group elements in the radius-n ball whose
    coding path starts with the prefix, normalised by the full partition sum
    Z_n.  Trailing 0 states pin the cylinder to a single element.  Prefixes
    from which no word-maximal component is reachable are flagged null; their
    mass decays to 0 as n grows.
    """
    idx = list(aug.resolve(prefix))
    if idx[0] != aug.initial_index:
        raise ValidationError("cylinder prefix must start at the initial state")
    if not aug.admissible(idx):
        raise ValidationError(f"prefix {prefix} is not admissible")
    zero = aug.zero_index
    if zero in idx:
        first = idx.index(zero)
        if any(i != zero for i in idx[first:]):
            raise ValidationError("states after 0 must all be 0")
        live = idx[:first]
    else:
        live = idx
    word = aug.ev(live)
    z_n = partition_sums(metric, v, n, cap=cap)[n]
    if maximal_states is None:
        maximal_states = _maximal_state_indices(aug)
    if zero in idx:
        value = math.exp(-v * float(metric.dist(word))) / z_n if len(word) <= n else 0.0
        return MassEstimate(value=value, n=n, prefix=tuple(aug.states[i] for i in idx), null_cylinder=False)
    depth = len(live) - 1
    null = maximal_states.isdisjoint(aug.reachable([live[-1]], skip={zero}))
    budget = n - depth
    if budget < 0:
        return MassEstimate(value=0.0, n=n, prefix=tuple(aug.states[i] for i in idx), null_cylinder=null)
    graph = _additive_graph(metric)
    if graph is not None:
        lengths = graph.letter_lengths()
        vec = np.zeros(aug.n_states)
        vec[live[-1]] = 1.0
        acc = 1.0  # m = 0 term
        for _ in range(budget):
            nxt = np.zeros(aug.n_states)
            for i in np.nonzero(vec)[0]:
                for j in aug.succ[int(i)]:
                    if j == zero:
                        continue
                    nxt[j] += vec[i] * math.exp(-v * float(lengths[aug.label_of(int(i), j)]))
            vec = nxt
            acc += float(vec.sum())
        value = math.exp(-v * float(metric.dist(word))) * acc / z_n
        return MassEstimate(value=value, n=n, prefix=tuple(aug.states[i] for i in idx), null_cylinder=null)
    # generic metric: enumerate continuations, tracking exact distances
    total = 0.0

    def extend(state: int, w: Word, remaining: int) -> None:
        nonlocal total
        total += math.exp(-v * float(metric.dist(w)))
        if remaining == 0:
            return
        for j in aug.succ[state]:
            if j == zero:
                continue
            letter = aug.label_of(state, j)
            extend(j, Word(free_reduce(w.letters + (letter,)), w.rank), remaining - 1)

    extend(live[-1], word, budget)
    return MassEstimate(
        value=total / z_n, n=n, prefix=tuple(aug.states[i] for i in idx), null_cylinder=null
    )


def _canonical_extension(aug: AugmentedStructure, idx: Sequence[int], extra: int) -> list[int]:
    """Extend a 0-free path by `extra` states, always taking the least successor."""
    zero = aug.zero_index
    out = list(idx)
    for _ in range(extra):
        options = [j for j in aug.succ[out[-1]] if j != zero]
        if not options:
            raise ValidationError(f"dead end at {aug.states[out[-1]]}: no 0-free extension")
        out.append(min(options))
    return out


def cylinder_mass_bounds(
    prefix: Sequence[str | int],
    td: TransferData,
    aug: AugmentedStructure,
    band: tuple[float, float],
) -> tuple[float, float]:
    """Two-sided bounds band * exp(-v * Birkhoff sum) for a maximal-reaching prefix.

    The band constants come from a measured sweep (see ``measure_mass_band``);
    the Birkhoff sum is evaluated along the canonical extension of the prefix.
    """
    idx = list(aug.resolve(prefix))
    pot = td.potential
    m = len(idx) - 1
    path = _canonical_extension(aug, idx, pot.effective_range)
    ref = math.exp(-td.v * float(pot.birkhoff_sum(path, m)))
    lo, hi = band
    return lo * ref, hi * ref


@dataclass(frozen=True)
class MassBandReport:
    depth: int
    n: int
    ratios: dict  # prefix tuple -> ratio estimate / exp(-v Birkhoff)
    band: tuple[float, float]

    @property
    def spread(self) -> float:
        return self.band[1] / self.band[0]


def measure_mass_band(
    aug: AugmentedStructure,
    metric: Metric,
    td: TransferData,
    depth: int = 6,
    n: int = 14,
) -> MassBandReport:
    """Measured ratio band of mass estimate over exp(-v * Birkhoff sum).

    Sweeps every 0-free prefix from the initial state of depth <= depth whose
    endpoint reaches a word-maximal component; the theory promises a single
    band valid for all of them, and this function reports the one observed.
    """
    pot = td.potential
    v = td.v
    maximal = _maximal_state_indices(aug)
    live = frozenset(range(aug.n_states)) - {aug.zero_index}
    ratios: dict[tuple[str, ...], float] = {}
    for d in range(1, depth + 1):
        for path in aug.paths(d, within=live):
            est = cylinder_mass_estimate(path, aug, metric, v, n, maximal_states=maximal)
            if not est.null_cylinder:
                ext = _canonical_extension(aug, path, pot.effective_range)
                ref = math.exp(-v * float(pot.birkhoff_sum(ext, d)))
                ratios[tuple(aug.states[i] for i in path)] = est.value / ref
    values = list(ratios.values())
    return MassBandReport(depth=depth, n=n, ratios=ratios, band=(min(values), max(values)))


# -- ray sampling ----------------------------------------------------------------


@dataclass(frozen=True)
class RaySample:
    """A sampled 0-free path from the initial state, absorbed in one
    word-maximal component from ``entry_index`` onward."""

    structure: AugmentedStructure = field(repr=False)
    states: tuple[str, ...]
    indices: np.ndarray = field(repr=False, compare=False)
    entry_index: int
    component: Component = field(repr=False)
    seed: int | None

    def __len__(self) -> int:
        return len(self.states) - 1

    def word_letters(self) -> tuple[int, ...]:
        letters = []
        for i, j in zip(self.indices, self.indices[1:]):
            l = self.structure.label_of(int(i), int(j))
            if l:
                letters.append(l)
        return tuple(letters)

    @classmethod
    def synthetic(
        cls, aug: AugmentedStructure, states: Sequence[str], component: Component, entry_index: int = 1
    ) -> "RaySample":
        idx = np.array(aug.resolve(states), dtype=np.int64)
        return cls(
            structure=aug,
            states=tuple(states),
            indices=idx,
            entry_index=entry_index,
            component=component,
            seed=None,
        )


def entry_weight_table(
    aug: AugmentedStructure,
    metric: Metric,
    v: float,
    max_depth: int = 12,
    n_ref: int = 16,
) -> list[tuple[tuple[str, ...], float]]:
    """Prefixes from the initial state into a word-maximal component, weighted
    by their cylinder-mass estimates.

    The order is depth-first pre-order of the walk from the initial state,
    successors in ``succ`` order, each branch stopping at its first maximal
    state.  The cumulative draw in ``sample_ray`` depends on this order."""
    maximal = _maximal_state_indices(aug)
    zero = aug.zero_index
    table: list[tuple[tuple[str, ...], float]] = []
    deep_transient = False

    def visit(path: list[int]) -> None:
        nonlocal deep_transient
        last = path[-1]
        if last in maximal:
            est = cylinder_mass_estimate(path, aug, metric, v, max(n_ref, len(path) + 4), maximal_states=maximal)
            table.append((tuple(aug.states[i] for i in path), est.value))
            return
        if len(path) - 1 >= max_depth:
            deep_transient = True
            return
        for j in aug.succ[last]:
            if j != zero:
                visit(path + [j])

    visit([aug.initial_index])
    if deep_transient:
        warnings.warn(
            f"transient structure deeper than {max_depth}; entry table truncated",
            stacklevel=2,
        )
    if not table:
        raise ValidationError("no path from the initial state into a maximal component")
    return table


class _UniformStream:
    """Reproducible stream of uniforms from a counter-based generator."""

    def __init__(self, seed: int, batch: int = 4096):
        self._rng = np.random.Generator(np.random.Philox(key=seed))
        self._batch = batch
        self._buf = self._rng.random(batch)
        self._pos = 0

    def next(self) -> float:
        if self._pos == len(self._buf):
            self._buf = self._rng.random(self._batch)
            self._pos = 0
        x = self._buf[self._pos]
        self._pos += 1
        return float(x)


def sample_ray(
    aug: AugmentedStructure,
    transfer_by_component: dict[Component, TransferData],
    entry_table: Sequence[tuple[tuple[str, ...], float]],
    length: int,
    seed: int,
) -> RaySample:
    """Draw a 0-free path of the given length (number of steps), reproducibly.

    The entry prefix is drawn proportionally to its cylinder-mass weight; the
    continuation follows the Gibbs chain of the entered component, starting
    from the stationary distribution conditioned on the entry state.
    """
    stream = _UniformStream(seed)
    weights = np.array([w for _, w in entry_table], dtype=float)
    if weights.sum() <= 0:
        raise ValidationError("entry table has no positive weight")
    cum = np.cumsum(weights / weights.sum())
    u = stream.next()
    choice = int(np.searchsorted(cum, u, side="right"))
    prefix = entry_table[min(choice, len(entry_table) - 1)][0]
    prefix_idx = list(aug.resolve(prefix))
    entry = len(prefix_idx) - 1
    entry_state = prefix_idx[-1]
    component = None
    td = None
    for comp, data in transfer_by_component.items():
        if entry_state in comp.indices:
            component, td = comp, data
            break
    if td is None:
        raise ValidationError(f"no transfer data for component of {aug.states[entry_state]}")
    chain = td.chain()
    bs = td.shift
    starts = [bi for bi, b in enumerate(bs.blocks) if b[0] == entry_state]
    mass = np.array([chain.pi[bi] for bi in starts])
    cum_b = np.cumsum(mass / mass.sum())
    b = starts[min(int(np.searchsorted(cum_b, stream.next(), side="right")), len(starts) - 1)]
    path = prefix_idx + list(bs.blocks[b][1:])
    if len(path) > length + 1:
        raise ValueError(f"length {length} too short for entry prefix plus one block")
    cums = [np.cumsum(p) for p in chain.probs]
    while len(path) < length + 1:
        row = cums[b]
        pick = int(np.searchsorted(row, stream.next() * row[-1], side="right"))
        pick = min(pick, len(row) - 1)
        b = int(chain.targets[b][pick])
        path.append(bs.blocks[b][-1])
    idx = np.array(path, dtype=np.int64)
    return RaySample(
        structure=aug,
        states=tuple(aug.states[i] for i in path),
        indices=idx,
        entry_index=entry,
        component=component,
        seed=seed,
    )


# -- recurrence ------------------------------------------------------------------


@dataclass(frozen=True)
class RecurrenceReport:
    depth: int
    visits: dict  # cylinder (state names) -> list of start positions (capped)
    counts: dict  # cylinder -> total number of occurrences
    unvisited: tuple[tuple[str, ...], ...]

    @property
    def complete(self) -> bool:
        return not self.unvisited


def recurrence_report(ray: RaySample, depth: int, visit_cap: int = 100) -> RecurrenceReport:
    """First-visit positions of every depth-``depth`` cylinder of the ray's component."""
    comp = ray.component
    ms = comp.parent
    member = comp.indices
    cylinders = list(ms.paths(depth - 1, starts=sorted(member), within=member))
    visits: dict[tuple[int, ...], list[int]] = {c: [] for c in cylinders}
    counts: dict[tuple[int, ...], int] = {c: 0 for c in cylinders}
    idx = [int(i) for i in ray.indices]
    for p in range(len(idx) - depth + 1):
        window = tuple(idx[p : p + depth])
        if window in visits:
            counts[window] += 1
            if len(visits[window]) < visit_cap:
                visits[window].append(p)
    name = lambda c: tuple(ms.states[i] for i in c)
    return RecurrenceReport(
        depth=depth,
        visits={name(c): v for c, v in visits.items()},
        counts={name(c): k for c, k in counts.items()},
        unvisited=tuple(sorted(name(c) for c, v in visits.items() if not v)),
    )


def save_ray(ray: RaySample, path) -> None:
    """Ray file: header comments (seed, entry, component), one state id per line."""
    with open(path, "w") as fh:
        fh.write(f"# seed {ray.seed}\n")
        fh.write(f"# entry {ray.entry_index}\n")
        fh.write(f"# component {','.join(ray.component.states)}\n")
        fh.write(f"# rank {ray.structure.rank}\n")
        for s in ray.states:
            fh.write(s + "\n")


def load_ray(path, aug: AugmentedStructure) -> RaySample:
    seed = None
    entry = 1
    comp_states: tuple[str, ...] | None = None
    states: list[str] = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                fields = line[1:].split()
                if fields[0] == "seed" and fields[1] != "None":
                    seed = int(fields[1])
                elif fields[0] == "entry":
                    entry = int(fields[1])
                elif fields[0] == "component":
                    comp_states = tuple(fields[1].split(","))
            elif line:
                states.append(line)
    if not states:
        raise ValidationError(f"{path}: no states")
    component = None
    for c in classify_components(aug).components:
        if comp_states is not None and set(comp_states) <= set(c.states):
            component = c.component
            break
        if comp_states is None and c.word_maximal and states[-1] in c.states:
            component = c.component
            break
    if component is None:
        raise ValidationError(f"{path}: cannot match the ray to a component of the coding")
    idx = np.array(aug.resolve(states), dtype=np.int64)
    return RaySample(
        structure=aug,
        states=tuple(states),
        indices=idx,
        entry_index=entry,
        component=component,
        seed=seed,
    )


def empirical_pair_frequencies(ray: RaySample) -> dict[tuple[str, str], float]:
    """Observed frequency of each admissible state pair along the ray tail."""
    idx = ray.indices[ray.entry_index :]
    total = len(idx) - 1
    counts: dict[tuple[int, int], int] = {}
    for i, j in zip(idx, idx[1:]):
        counts[(int(i), int(j))] = counts.get((int(i), int(j)), 0) + 1
    ms = ray.structure
    return {
        (ms.states[i], ms.states[j]): c / total for (i, j), c in counts.items()
    }
