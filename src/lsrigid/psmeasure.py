"""Finite ball measures and their dynamical counterpart on the coding.

The ball measure of radius n weights each group element in the word-metric
ball by exp(-v * dist(o, x)).  At the critical multiplier the partition sums
grow linearly, cylinder masses of coding prefixes stabilise inside a uniform
band around exp(-v * Birkhoff sum), and almost every path is absorbed into a
word-maximal component.  The limiting boundary measure is never materialised:
it is represented operationally by an entry-weight table over the transient
prefixes plus the Gibbs chain of the entered component, which is equivalent
(same null sets) and exactly what the rigidity construction consumes.

Partition sums and cylinder masses are exact for every marked metric: a
letter changes the distance by an amount read off the last K letters
(``treemetric.window_increments``), so both are one dynamic programme over
(coding state, last K+1 letters).  Only ``ball_measure`` lists the ball.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from itertools import accumulate, islice, repeat
from typing import Sequence

import numpy as np
import numpy.random  # noqa: F401  loaded lazily by numpy; load it with the package, not in the sampler

from .coding import AugmentedStructure, Component, MarkovStructure, classify_components
from .errors import ValidationError
from .thermo import TransferData
from .treemetric import Increments, MetricGraph, window_increments
from .words import Word, enumerate_ball

DEFAULT_BALL_CAP = 400_000
RAY_CHUNK = 1 << 14  # uniforms drawn at once by sample_ray
RAY_FILE_CHUNK = 1 << 16  # states spelled or read at once by save_ray and load_ray
_ENTRY_RADIUS = 16  # least radius of an entry prefix's cylinder-mass estimate
_NO_EDGE = 127  # RaySample.word_letters: no edge joins the two states (labels are |l| <= 26)


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


def ball_measure(metric: MetricGraph, v: float, n: int, cap: int = DEFAULT_BALL_CAP) -> BallMeasure:
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


def _layer_sums(moves, start, inc: Increments, v: float, steps: int) -> list[float]:
    """Entry m: the sum of exp(-v * (increments along w)) over the m-step walks
    w from ``start``, for m = 0..steps; ``moves(key)`` lists the (next key,
    window state) steps.  A dynamic programme, so the cost is linear in
    ``steps``."""
    factor = {state: math.exp(-v * float(d)) for state, d in inc.table.items()}
    layer = {start: 1.0}
    sums = [1.0]
    for _ in range(steps):
        nxt: dict = {}
        for key, weight in layer.items():
            for key2, state in moves(key):
                nxt[key2] = nxt.get(key2, 0.0) + weight * factor[state]
        layer = nxt
        sums.append(sum(layer.values()))
    return sums


def partition_sums(metric: MetricGraph, v: float, n_max: int) -> list[float]:
    """Z_n = sum over the radius-n word ball of exp(-v dist), for n = 0..n_max.

    Exact for every metric without listing the ball: the walk appends one
    letter per step to the reduced words and reads each distance change off
    ``window_increments``.
    """
    inc = window_increments(metric)
    moves = lambda state: [(nxt, nxt) for nxt in inc.extend(state)]
    return list(accumulate(_layer_sums(moves, (), inc, v, n_max)))


@dataclass(frozen=True)
class PartitionSumReport:
    v: float
    sums: tuple[float, ...]  # Z_0 .. Z_nmax
    ratios: tuple[float, ...]  # Z_n / n for n >= 1
    band: tuple[float, float]
    c_fitted: float  # smallest C with band inside [1/C, C]
    looks_linear: bool
    increment_slope: float


def partition_sum_check(metric: MetricGraph, v: float, n_max: int = 14) -> PartitionSumReport:
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
    metric: MetricGraph,
    v: float,
    n: int,
) -> MassEstimate:
    """Ball-measure mass of the cylinder of paths extending the given prefix.

    Sums exp(-v dist) over all group elements in the radius-n ball whose
    coding path starts with the prefix, normalised by the full partition sum
    Z_n: the walk of ``partition_sums``, over the 0-free successors of the
    prefix's last state.  The coding's paths must spell reduced words, as in
    a strongly Markov coding; a step that cancels raises ValidationError.
    Trailing 0 states pin the cylinder to a single element.  Prefixes from
    which no word-maximal component is reachable are flagged null; their mass
    decays to 0 as n grows.
    """
    est = _cylinder_weight(prefix, aug, metric, v, n, _maximal_state_indices(aug))
    return replace(est, value=est.value / partition_sums(metric, v, n)[n])


def _cylinder_weight(prefix, aug, metric, v, n, maximal_states) -> MassEstimate:
    """``cylinder_mass_estimate`` before the division by Z_n."""
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
    if zero in idx:
        value = math.exp(-v * float(metric.dist(word))) if len(word) <= n else 0.0
        return MassEstimate(value=value, n=n, prefix=tuple(aug.states[i] for i in idx), null_cylinder=False)
    depth = len(live) - 1
    null = maximal_states.isdisjoint(aug.reachable([live[-1]], skip={zero}))
    budget = n - depth
    if budget < 0:
        return MassEstimate(value=0.0, n=n, prefix=tuple(aug.states[i] for i in idx), null_cylinder=null)
    inc = window_increments(metric)

    def moves(key):  # key: (coding state, window state); edges into 0 carry label 0
        i, u = key
        for j, x in zip(aug.succ[i], aug.labels[i]):
            if u and x == -u[-1]:
                raise ValidationError(f"coding edge {aug.states[i]} -> {aug.states[j]} cancels a letter")
            if x:
                u2 = inc.step(u, x)
                yield (j, u2), u2

    acc = sum(_layer_sums(moves, (live[-1], word.letters[-inc.window - 1 :]), inc, v, budget))
    value = math.exp(-v * float(metric.dist(word))) * acc
    return MassEstimate(value=value, n=n, prefix=tuple(aug.states[i] for i in idx), null_cylinder=null)


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
    metric: MetricGraph,
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
    z_n = partition_sums(metric, v, n)[n]
    ratios: dict[tuple[str, ...], float] = {}
    for d in range(1, depth + 1):
        for path in aug.paths(d, within=live):
            est = _cylinder_weight(path, aug, metric, v, n, maximal)
            if not est.null_cylinder:
                ext = _canonical_extension(aug, path, pot.effective_range)
                ref = math.exp(-v * float(pot.birkhoff_sum(ext, d)))
                ratios[tuple(aug.states[i] for i in path)] = est.value / z_n / ref
    values = list(ratios.values())
    return MassBandReport(depth=depth, n=n, ratios=ratios, band=(min(values), max(values)))


# -- ray sampling ----------------------------------------------------------------


@dataclass(frozen=True)
class RaySample:
    """A sampled 0-free path from the initial state, absorbed in one
    word-maximal component from ``entry_index`` onward.

    The path is ``indices``, its coding state indices in the narrowest
    unsigned dtype that holds every state (``_index_dtype``): one byte per
    step on every coding of this package.  No state name is stored:
    ``save_ray`` spells them a chunk at a time, and ``states`` spells the
    whole ray on each call.  Equality compares ``indices`` elementwise."""

    structure: AugmentedStructure = field(repr=False)
    indices: np.ndarray = field(repr=False, compare=False)  # compared by __eq__, left out of the hash
    entry_index: int
    component: Component = field(repr=False)
    seed: int | None

    def __eq__(self, other) -> bool:
        if not isinstance(other, RaySample):
            return NotImplemented
        return (self.structure, self.entry_index, self.component, self.seed) == (
            other.structure, other.entry_index, other.component, other.seed
        ) and np.array_equal(self.indices, other.indices)

    def __len__(self) -> int:
        return len(self.indices) - 1

    @property
    def states(self) -> tuple[str, ...]:
        """The state names along the ray, spelled on each call; nothing in the
        package reads them."""
        return tuple(map(self.structure.states.__getitem__, self.indices.tolist()))

    def word_letters(self) -> tuple[int, ...]:
        """The labels along the ray, identity labels dropped."""
        return tuple(self._prefix_letters(len(self.indices)).tolist())

    def _prefix_letters(self, n_states: int) -> np.ndarray:
        """The labels along the first n_states states of the ray, as int8: a
        prefix of ``word_letters``, whose steps past those states are not
        read."""
        steps = _steps(_step_table(self.structure), self.indices[:n_states])
        return steps[steps != 0]


def _index_dtype(aug: AugmentedStructure) -> np.dtype:
    return np.min_scalar_type(aug.n_states - 1)


def _step_table(aug: AugmentedStructure) -> np.ndarray:
    """The label of the edge i -> j at [i, j]; _NO_EDGE where there is none."""
    table = np.full((aug.n_states, aug.n_states), _NO_EDGE, dtype=np.int8)
    for i, (targets, labels) in enumerate(zip(aug.succ, aug.labels)):
        table[i, list(targets)] = labels
    return table


def _steps(table: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """The labels of the steps along ``indices``; refuses a step that is not an
    edge of the coding."""
    steps = table[indices[:-1], indices[1:]]
    if (steps == _NO_EDGE).any():
        raise ValidationError("the ray takes a step that is not an edge of the coding")
    return steps


def entry_weight_table(
    aug: AugmentedStructure,
    metric: MetricGraph,
    v: float,
    max_depth: int = 12,
) -> list[tuple[tuple[str, ...], float]]:
    """Prefixes from the initial state into a word-maximal component, weighted
    by their cylinder-mass estimates, each at radius max(16, depth + 4).

    The order is depth-first pre-order of the walk from the initial state,
    successors in ``succ`` order, each branch stopping at its first maximal
    state.  The cumulative draw in ``sample_ray`` depends on this order."""
    maximal = _maximal_state_indices(aug)
    zero = aug.zero_index
    table: list[tuple[tuple[str, ...], float]] = []
    deep_transient = False
    z = partition_sums(metric, v, max(_ENTRY_RADIUS, max_depth + 5))  # covers every entry's radius below

    def visit(path: list[int]) -> None:
        nonlocal deep_transient
        last = path[-1]
        if last in maximal:
            n = max(_ENTRY_RADIUS, len(path) + 4)
            est = _cylinder_weight(path, aug, metric, v, n, maximal)
            table.append((tuple(aug.states[i] for i in path), est.value / z[n]))
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
    from the stationary distribution conditioned on the entry state.  The
    uniforms come from ``Philox(key=seed)``: two for the entry prefix and the
    first block, then one per step, drawn RAY_CHUNK at a time.  A step
    bisects the current block's cumulative move weights at u times their
    total, leaving out the last weight so that a product rounded up to the
    total picks the last move.  Those are the float64 operations and
    comparisons of one ``np.searchsorted(..., side="right")`` per step, so
    the ray is bit-identical to the step-by-step walk.  Memory is one byte
    per step (``RaySample.indices``) plus one chunk of uniforms and the
    chain; time is linear in the length, whatever the number of blocks.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    u_entry, u_block = rng.random(2)
    weights = np.array([w for _, w in entry_table], dtype=float)
    if weights.sum() <= 0:
        raise ValidationError("entry table has no positive weight")
    cum = np.cumsum(weights / weights.sum())
    choice = int(np.searchsorted(cum, u_entry, side="right"))
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
    b = starts[min(int(np.searchsorted(cum_b, u_block, side="right")), len(starts) - 1)]
    head = prefix_idx + list(bs.blocks[b][1:])
    if len(head) > length + 1:
        raise ValidationError(
            f"ray length {length} is below {len(head) - 1}, the steps of the entry prefix and first block"
        )
    idx = np.empty(length + 1, dtype=_index_dtype(aug))
    idx[: len(head)] = head
    rows = [  # per block: its cumulative move weights but the last, their total, its successors
        (c[:-1].tolist(), float(c[-1]), targets.tolist())
        for c, targets in zip(map(np.cumsum, chain.probs), chain.targets)
    ]
    last_state = [block[-1] for block in bs.blocks]
    for pos in range(len(head), length + 1, RAY_CHUNK):
        walk = []
        for u in rng.random(min(RAY_CHUNK, length + 1 - pos)).tolist():
            cut, total, targets = rows[b]
            b = targets[bisect_right(cut, u * total)]
            walk.append(last_state[b])
        idx[pos : pos + len(walk)] = walk
    return RaySample(structure=aug, indices=idx, entry_index=entry, component=component, seed=seed)


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
    if depth < 1:
        raise ValidationError(f"cylinder depth must be at least 1, got {depth}")
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
    """Ray file: header comments (seed, entry, component), one state id per
    line.  The lines are spelled RAY_FILE_CHUNK states at a time."""
    lines = [name + "\n" for name in ray.structure.states]
    with open(path, "w") as fh:
        fh.write(f"# seed {ray.seed}\n")
        fh.write(f"# entry {ray.entry_index}\n")
        fh.write(f"# component {','.join(ray.component.states)}\n")
        fh.write(f"# rank {ray.structure.rank}\n")
        for pos in range(0, len(ray.indices), RAY_FILE_CHUNK):
            fh.write("".join(map(lines.__getitem__, ray.indices[pos : pos + RAY_FILE_CHUNK].tolist())))


def load_ray(path, aug: AugmentedStructure) -> RaySample:
    """The ray of a ``save_ray`` file, read RAY_FILE_CHUNK lines at a time;
    every step is checked to be an edge of the coding."""
    seed = None
    entry = 1
    comp_states: tuple[str, ...] | None = None
    code = {name + "\n": i for i, name in enumerate(aug.states)}
    table, dtype = _step_table(aug), _index_dtype(aug)
    chunks: list[np.ndarray] = []
    with open(path) as fh:
        while lines := list(islice(fh, RAY_FILE_CHUNK)):
            idx = np.fromiter(map(code.get, lines, repeat(-1)), dtype=np.int64, count=len(lines))
            for k in np.flatnonzero(idx < 0).tolist():  # comments, blank lines, a last line without "\n"
                line = lines[k].rstrip("\n")
                if line.startswith("#"):
                    fields = line[1:].split()
                    if fields[0] == "seed" and fields[1] != "None":
                        seed = int(fields[1])
                    elif fields[0] == "entry":
                        entry = int(fields[1])
                    elif fields[0] == "component":
                        comp_states = tuple(fields[1].split(","))
                elif line:
                    if line + "\n" not in code:
                        raise ValidationError(f"{path}: unknown state {line!r}")
                    idx[k] = code[line + "\n"]
            idx = idx[idx >= 0].astype(dtype)
            _steps(table, np.concatenate((chunks[-1][-1:], idx)) if chunks else idx)
            if len(idx):
                chunks.append(idx)
    if not chunks:
        raise ValidationError(f"{path}: no states")
    last = aug.states[chunks[-1][-1]]
    component = None
    for c in classify_components(aug).components:
        if comp_states is not None and set(comp_states) <= set(c.states):
            component = c.component
            break
        if comp_states is None and c.word_maximal and last in c.states:
            component = c.component
            break
    if component is None:
        raise ValidationError(f"{path}: cannot match the ray to a component of the coding")
    return RaySample(
        structure=aug, indices=np.concatenate(chunks), entry_index=entry, component=component, seed=seed
    )
