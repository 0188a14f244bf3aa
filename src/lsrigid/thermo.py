"""Thermodynamic formalism on the block shift of a coding component.

A metric induces a locally constant potential on the shift: the value on a
(k+1)-block is the distance increment contributed by the first state given k
steps of lookahead.  Birkhoff sums of the potential then track distances from
the basepoint up to a telescoping constant that is measured, not assumed
(``sweep_telescoping``).  Range-k potentials are recoded to the depth-k block
shift, so the spectral machinery only ever handles range-1 weights: pressure
is the log of the Perron root of the weighted transfer matrix, the Gibbs
measure is the associated positive-eigenvector Markov chain, and the growth
rate is the root of pressure = 0 in the inverse-temperature multiplier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .coding import AugmentedStructure, Component, MarkovStructure, ZERO, classify_components
from .errors import ConvergenceError, LsrigidError, ValidationError
from .treemetric import Metric
from .words import Word

EIG_RESIDUAL_TOL = 1e-10
CHAIN_TOL = 1e-12
PRESSURE_ROOT_TOL = 1e-9


def _base_structure(ms: MarkovStructure) -> MarkovStructure:
    if isinstance(ms, AugmentedStructure) and ms.base is not None:
        return ms.base
    return ms


@dataclass
class Potential:
    """Locally constant potential, tabulated on admissible (k+1)-state blocks.

    ``effective_range`` is the smallest j <= k such that the table value only
    depends on the first j+1 states of a block; the table is stored reduced.
    Values are exact Fractions for rational metrics, floats otherwise.
    """

    structure: MarkovStructure
    requested_range: int
    effective_range: int
    table: dict
    tag: str = "potential"
    rational: bool = True

    def value(self, block: Sequence[int]):
        key = tuple(block[: self.effective_range + 1])
        try:
            return self.table[key]
        except KeyError:
            raise LsrigidError(
                f"block {key} not in potential table (dead end or inadmissible)"
            ) from None

    def min_value(self):
        return min(self.table.values())

    def birkhoff_sum(self, path: Sequence[int], n: int):
        """Sum of the potential over the first n shifts of the path."""
        k = self.effective_range
        if len(path) < n + k:
            raise ValueError(f"path too short: need {n + k} states, have {len(path)}")
        total = Fraction(0) if self.rational else 0.0
        for i in range(n):
            total += self.value(path[i : i + k + 1])
        return total


def _blocks(ms: MarkovStructure, k: int):
    """Admissible k-edge state paths that avoid the 0 state, from every start."""
    live = [i for i, name in enumerate(ms.states) if name != ZERO]
    return ms.paths(k, starts=live, within=frozenset(live))


def potential_from_metric(ms: MarkovStructure, metric: Metric, k: int = 6) -> Potential:
    """Depth-k truncation of the metric's distance increment along the coding.

    On a block (x_0, ..., x_k) the value is
    dist(ev(x_0..x_k)) - dist(ev(x_1..x_k)), so Birkhoff sums along a path
    from the initial state telescope to the distance of the spelled word up to
    a constant controlled by ``sweep_telescoping``.
    """
    if k < 1:
        raise ValueError("potential range must be at least 1")
    base = _base_structure(ms)
    dist = metric.dist
    rank = base.rank
    rational = not isinstance(dist(Word((), rank)), float)
    cache: dict[tuple[int, ...], object] = {}

    def labels_of(block: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(
            base.label_of(i, j) for i, j in zip(block, block[1:])
        )

    def increment(labels: tuple[int, ...]):
        if labels in cache:
            return cache[labels]
        full = dist(Word(labels, rank))
        tail = dist(Word(labels[1:], rank))
        value = full - tail
        cache[labels] = value
        return value

    table = {}
    for block in _blocks(base, k):
        table[block] = increment(labels_of(block))

    effective = k
    for j in range(1, k):
        groups: dict[tuple[int, ...], object] = {}
        constant = True
        for block, value in table.items():
            key = block[: j + 1]
            if key in groups:
                if groups[key] != value:
                    constant = False
                    break
            else:
                groups[key] = value
        if constant:
            table = groups
            effective = j
            break
    return Potential(
        structure=base,
        requested_range=k,
        effective_range=effective,
        table=table,
        tag=f"{metric.tag}_k{k}",
        rational=rational,
    )


def constant_potential(ms: MarkovStructure, value=1) -> Potential:
    """Potential identically equal to ``value``; its pressure is the loop growth."""
    base = _base_structure(ms)
    rational = not isinstance(value, float)
    table = {block: (Fraction(value) if rational else value) for block in _blocks(base, 1)}
    return Potential(
        structure=base,
        requested_range=1,
        effective_range=1,
        table=table,
        tag=f"constant_{value}",
        rational=rational,
    )


# -- transfer operator --------------------------------------------------------


class BlockShift:
    """Depth-k block recoding of one component, with the potential on its edges."""

    def __init__(self, comp: Component, pot: Potential):
        self.component = comp
        self.potential = pot
        k = pot.effective_range
        ms = comp.parent
        member = comp.indices
        blocks = sorted(ms.paths(k - 1, starts=sorted(member), within=member))
        self.blocks = tuple(blocks)
        self.index = {b: i for i, b in enumerate(blocks)}
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        for bi, b in enumerate(blocks):
            for j in ms.succ[b[-1]]:
                if j in member:
                    nxt = b[1:] + (j,)
                    rows.append(bi)
                    cols.append(self.index[nxt])
                    vals.append(float(pot.value(b + (j,))))
        self._rows = np.array(rows, dtype=np.int64)
        self._cols = np.array(cols, dtype=np.int64)
        self._phis = np.array(vals, dtype=np.float64)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def matrix(self, v: float) -> sp.csr_matrix:
        """Weighted transfer matrix with entries exp(-v * phi) on block edges."""
        weights = np.exp(-v * self._phis)
        n = self.n_blocks
        return sp.csr_matrix((weights, (self._rows, self._cols)), shape=(n, n))

    def is_single_cycle(self) -> bool:
        return len(self._rows) == self.n_blocks and len(set(self._rows.tolist())) == self.n_blocks

    def leading_eigenvalue(self, v: float) -> float:
        if self.is_single_cycle():
            lam, _, _ = self._cycle_eigendata(v)
            return lam
        lam, _ = _perron_vector(self.matrix(v))
        return lam

    def _cycle_eigendata(self, v: float):
        mat = self.matrix(v).toarray()
        n = self.n_blocks
        succ = {i: int(np.nonzero(mat[i])[0][0]) for i in range(n)}
        order = [0]
        while True:
            nxt = succ[order[-1]]
            if nxt == 0:
                break
            order.append(nxt)
        if len(order) != n:
            raise ValidationError("component is not a single cycle")
        weights = [mat[i, succ[i]] for i in order]
        lam = float(np.exp(np.mean(np.log(weights))))
        h = np.empty(n)
        h_left = np.empty(n)
        h[order[0]] = 1.0
        h_left[order[0]] = 1.0
        for pos in range(n - 1):
            i, j = order[pos], order[pos + 1]
            h[j] = lam * h[i] / weights[pos]
            h_left[j] = h_left[i] * weights[pos] / lam
        return lam, h / h.sum(), h_left / h_left.sum()


def _perron_vector(matrix: sp.csr_matrix, tol=5e-15, max_iter=1_000_000):
    """Power iteration with a Collatz-Wielandt stopping rule.

    A small diagonal shift makes the iteration aperiodic without moving the
    eigenvector; the bounds min/max of (Mx)/x certify the eigenvalue.
    """
    n = matrix.shape[0]
    if n == 1:
        return float(matrix[0, 0]), np.ones(1)
    row_max = float(np.max(np.abs(matrix).sum(axis=1)))
    shift = 0.01 * row_max
    shifted = matrix + shift * sp.identity(n, format="csr")
    x = np.full(n, 1.0 / n)
    for it in range(max_iter):
        y = shifted @ x
        ratios = y / x
        lo, hi = float(ratios.min()), float(ratios.max())
        x = y / y.sum()
        if hi - lo <= tol * hi:
            return 0.5 * (lo + hi) - shift, x
    raise ConvergenceError(
        f"power iteration did not converge (width {hi - lo:.3e})", iterations=max_iter
    )


@dataclass
class GibbsChain:
    """Stationary Markov chain of the Gibbs measure on the block shift."""

    shift: BlockShift
    pi: np.ndarray
    targets: list[np.ndarray]  # successor block indices per block
    probs: list[np.ndarray]

    def transition(self, u: int, v: int) -> float:
        t = self.targets[u]
        hits = np.nonzero(t == v)[0]
        return float(self.probs[u][hits[0]]) if hits.size else 0.0

    def cylinder_weight(self, block_path: Sequence[int]) -> float:
        """Probability of the cylinder given as a sequence of block indices."""
        w = float(self.pi[block_path[0]])
        for u, v in zip(block_path, block_path[1:]):
            w *= self.transition(u, v)
        return w


@dataclass
class TransferData:
    """Perron data of the weighted transfer operator on one component."""

    shift: BlockShift
    v: float
    lam: float
    pressure: float
    right: np.ndarray
    left: np.ndarray
    residual_right: float
    residual_left: float
    _chain: GibbsChain | None = field(default=None, repr=False)

    @property
    def component(self) -> Component:
        return self.shift.component

    @property
    def potential(self) -> Potential:
        return self.shift.potential

    def chain(self) -> GibbsChain:
        if self._chain is None:
            self._chain = _build_chain(self)
        return self._chain


def pressure(comp: Component, pot: Potential, v: float, shift: BlockShift | None = None) -> TransferData:
    """P(-v * potential) on the component, with certified Perron eigendata."""
    bs = shift if shift is not None else BlockShift(comp, pot)
    mat = bs.matrix(v)
    if bs.is_single_cycle():
        lam, right, left = bs._cycle_eigendata(v)
    else:
        lam, right = _perron_vector(mat)
        _, left = _perron_vector(mat.T.tocsr())
    res_r = float(np.max(np.abs(mat @ right - lam * right))) / float(np.max(right))
    res_l = float(np.max(np.abs(mat.T @ left - lam * left))) / float(np.max(left))
    if res_r > EIG_RESIDUAL_TOL or res_l > EIG_RESIDUAL_TOL:
        raise ConvergenceError(
            f"eigenvector residuals {res_r:.2e}/{res_l:.2e} exceed {EIG_RESIDUAL_TOL}"
        )
    if right.min() <= 0 or left.min() <= 0:
        raise ConvergenceError("Perron eigenvectors must be strictly positive")
    return TransferData(
        shift=bs,
        v=v,
        lam=lam,
        pressure=math.log(lam),
        right=right,
        left=left,
        residual_right=res_r,
        residual_left=res_l,
    )


def _build_chain(td: TransferData) -> GibbsChain:
    bs = td.shift
    n = bs.n_blocks
    h = td.right
    pi = td.left * h
    pi = pi / pi.sum()
    weights = np.exp(-td.v * bs._phis)
    targets: list[list[int]] = [[] for _ in range(n)]
    probs: list[list[float]] = [[] for _ in range(n)]
    for r, c, w in zip(bs._rows, bs._cols, weights):
        targets[int(r)].append(int(c))
        probs[int(r)].append(w * h[int(c)] / (td.lam * h[int(r)]))
    t_arr = [np.array(t, dtype=np.int64) for t in targets]
    p_arr = [np.array(p, dtype=np.float64) for p in probs]
    row_err = max(abs(float(p.sum()) - 1.0) for p in p_arr)
    if row_err > CHAIN_TOL:
        raise ConvergenceError(f"chain row sums off by {row_err:.2e}")
    flow = np.zeros(n)
    for u in range(n):
        np.add.at(flow, t_arr[u], pi[u] * p_arr[u])
    stat_err = float(np.max(np.abs(flow - pi)))
    if stat_err > CHAIN_TOL:
        raise ConvergenceError(f"stationarity residual {stat_err:.2e}")
    return GibbsChain(shift=bs, pi=pi, targets=t_arr, probs=p_arr)


def gibbs_cylinder_weight(td: TransferData, cylinder: Sequence[str | int]) -> float:
    """Gibbs mass of a cylinder of component states (any depth >= 1)."""
    if abs(td.pressure) > 1e-6:
        raise ValueError(f"Gibbs weights need pressure 0, have {td.pressure}")
    ms = td.component.parent
    idx = ms.resolve(cylinder)
    for i in idx:
        if i not in td.component.indices:
            raise ValidationError(f"state {ms.states[i]} is outside the component")
    for i, j in zip(idx, idx[1:]):
        if not ms.has_edge(i, j):
            raise ValidationError(f"cylinder step {ms.states[i]} -> {ms.states[j]} inadmissible")
    chain = td.chain()
    k = td.potential.effective_range
    m = len(idx)
    if m >= k:
        try:
            path = [chain.shift.index[tuple(idx[i : i + k])] for i in range(m - k + 1)]
        except KeyError:
            raise ValidationError("cylinder leaves the block shift") from None
        return chain.cylinder_weight(path)
    total = 0.0
    for b, weight in zip(chain.shift.blocks, chain.pi):
        if b[:m] == tuple(idx):
            total += float(weight)
    return total


@dataclass(frozen=True)
class GrowthResult:
    v_star: float
    pressures: dict
    maximal_components: tuple[Component, ...]
    report: object  # ComponentReport from classification

    def maximal_states(self) -> list[tuple[str, ...]]:
        return [c.states for c in self.maximal_components]


def solve_growth_rate(ms: MarkovStructure, pot: Potential, tol: float = PRESSURE_ROOT_TOL) -> GrowthResult:
    """The multiplier v* with max-over-components pressure P(-v* phi) = 0.

    Pressure is strictly decreasing in v (the potential has positive Birkhoff
    averages), so bisection with a doubling bracket is safe.  The components
    attaining the zero (the arg-max at v*) are checked to coincide with the
    word-maximal ones; a mismatch raises, since it would corrupt everything
    downstream.
    """
    base = _base_structure(ms)
    report = classify_components(base)
    shifts = [BlockShift(c.component, pot) for c in report.components]

    def max_pressure(v: float) -> float:
        return max(math.log(s.leading_eigenvalue(v)) for s in shifts)

    p0 = max_pressure(0.0)
    if p0 <= 0:
        raise ValidationError(f"pressure at v=0 is {p0}; structure has no growth")
    hi = 1.0
    while max_pressure(hi) > 0:
        hi *= 2.0
        if hi > 2**40:
            raise ValidationError("bracket failure: pressure never becomes negative")
    lo = 0.0
    while hi - lo > tol * 0.1:
        mid = 0.5 * (lo + hi)
        if max_pressure(mid) > 0:
            lo = mid
        else:
            hi = mid
    v_star = 0.5 * (lo + hi)
    pressures = {}
    arg_max = []
    for classified, s in zip(report.components, shifts):
        p = math.log(s.leading_eigenvalue(v_star))
        pressures[classified.states] = p
        if p >= -1e-6:
            arg_max.append(classified)
    thermo_maximal = {c.states for c in arg_max}
    word_maximal = {c.states for c in report.maximal()}
    if thermo_maximal != word_maximal:
        raise ValidationError(
            f"pressure-maximal components {thermo_maximal} differ from "
            f"word-maximal components {word_maximal}"
        )
    return GrowthResult(
        v_star=v_star,
        pressures=pressures,
        maximal_components=tuple(c.component for c in arg_max),
        report=report,
    )


# -- diagnostics ----------------------------------------------------------------


@dataclass(frozen=True)
class RpfReport:
    """Preimage sums S_n = sum over n-step pasts of exp(-v * Birkhoff sum)."""

    values: tuple[float, ...]  # S_0, ..., S_nmax
    band: tuple[float, float]  # min/max over n >= 1
    pressure: float
    theta: float | None  # fitted decay rate when the component is subcritical
    c_prime: float | None

    @property
    def bounded(self) -> bool:
        return self.theta is None


def check_rpf_sums(td: TransferData, y: Sequence[str | int] | str | int, n_max: int = 12) -> RpfReport:
    """Evaluate the preimage sums at a fixed block state, exactly via matrix powers.

    At pressure zero the sums stay in a fixed band; on a subcritical component
    they decay geometrically and the rate is fitted and reported.
    """
    bs = td.shift
    ms = td.component.parent
    if isinstance(y, (str, int)):
        y = [y]
    idx = ms.resolve(y)
    k = td.potential.effective_range
    if len(idx) < k:
        candidates = sorted(b for b in bs.blocks if b[: len(idx)] == tuple(idx))
        if not candidates:
            raise ValidationError(f"no block starting with {y}")
        block = candidates[0]
    else:
        block = tuple(idx[:k])
        if block not in bs.index:
            raise ValidationError(f"{y} is not a block of the component shift")
    mat = bs.matrix(td.v)
    w = np.zeros(bs.n_blocks)
    w[bs.index[block]] = 1.0
    values = [1.0]
    for _ in range(n_max):
        w = mat @ w  # (L^n e_b)_u sums the weighted n-step pasts of b
        values.append(float(w.sum()))
    tail = values[1:]
    band = (min(tail), max(tail))
    theta = None
    c_prime = None
    if td.pressure < -1e-6:
        ns = np.arange(max(1, n_max // 2), n_max + 1)
        logs = np.log([values[n] for n in ns])
        slope = np.polyfit(ns, logs, 1)[0]
        theta = float(np.exp(slope))
        c_prime = max(values[n] / theta**n for n in range(1, n_max + 1))
    return RpfReport(
        values=tuple(values), band=band, pressure=td.pressure, theta=theta, c_prime=c_prime
    )


@dataclass(frozen=True)
class TelescopingReport:
    defects: dict  # k -> max |Birkhoff sum - distance| over the sampled paths
    n_steps: int
    n_paths: int
    seed: int


def sweep_telescoping(
    ms: MarkovStructure,
    metric: Metric,
    ks: Sequence[int] = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10),
    n_steps: int = 200,
    n_paths: int = 1000,
    seed: int = 0,
) -> TelescopingReport:
    """Measure the telescoping constant of the depth-k potential truncation.

    Samples uniform non-backtracking paths from the initial state and reports,
    for each k, the largest deviation between the Birkhoff sum and the true
    distance of the spelled word over all prefixes of length <= n_steps.
    """
    base = _base_structure(ms)
    k_max = max(ks)
    rng = np.random.Generator(np.random.Philox(key=seed))
    graph = metric if hasattr(metric, "walker") else metric.graph
    pots = {k: potential_from_metric(base, metric, k) for k in ks}
    defects = {k: 0.0 for k in ks}
    zero = base.index(ZERO) if ZERO in base.states else None
    for _ in range(n_paths):
        path = [base.initial_index]
        for _ in range(n_steps + k_max):
            options = [j for j in base.succ[path[-1]] if j != zero]
            if not options:
                raise ValidationError("dead end while sampling a telescoping path")
            path.append(options[int(rng.integers(len(options)))])
        # exact distances of every prefix
        dists = []
        if graph is not None:
            walker = graph.walker()
            for i, j in zip(path, path[1:]):
                walker.push(base.label_of(i, j))
                dists.append(walker.dist)
        else:
            word = []
            for i, j in zip(path, path[1:]):
                word.append(base.label_of(i, j))
                dists.append(metric.dist(Word(tuple(word), base.rank)))
        for k in ks:
            pot = pots[k]
            running = Fraction(0) if pot.rational else 0.0
            worst = 0.0
            for m in range(1, n_steps + 1):
                running += pot.value(path[m - 1 : m + k])
                gap = abs(float(running - dists[m - 1]))
                if gap > worst:
                    worst = gap
            if worst > defects[k]:
                defects[k] = worst
    return TelescopingReport(defects=defects, n_steps=n_steps, n_paths=n_paths, seed=seed)
