"""Thermodynamic formalism on the block shift of a coding component.

A metric induces a locally constant potential on the shift: the value on a
block is the distance increment contributed by its first letter, read off the
metric's increment table (``treemetric.window_increments``).  With increment
window K the increment depends on K+1 letters, so the default depth K+1 is
exact: Birkhoff sums of the potential equal distances from the basepoint up
to a tail term, a function of the letters around the end of the prefix.
``sweep_telescoping`` measures the defect of shallower truncations.  Range-k
potentials are recoded to the depth-k block shift, so the spectral machinery
only ever handles range-1 weights: pressure is the log of the Perron root of
the weighted transfer matrix, the Gibbs measure is the associated
positive-eigenvector Markov chain, and the growth rate is the root of
pressure = 0 in the inverse-temperature multiplier.

The transfer operator is numpy-only (``TransferOperator``: the weighted edge
list of the block shift, applied with ``np.bincount``), so importing the
package loads no scipy; scipy is loaded only by ``rigidity.recover_lengths``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .coding import Component, MarkovStructure, _base_structure, classify_components
from .errors import ConvergenceError, LsrigidError, ValidationError
from .treemetric import MetricGraph, window_increments

EIG_RESIDUAL_TOL = 1e-10
CHAIN_TOL = 1e-12
PRESSURE_ROOT_TOL = 1e-9


@dataclass
class Potential:
    """Locally constant potential, tabulated on admissible (k+1)-state blocks.

    ``effective_range`` is the smallest j <= k such that the table value only
    depends on the first j+1 states of a block; the table is stored reduced.
    Values are exact Fractions for rational metrics, floats otherwise.
    """

    structure: MarkovStructure
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
    """Admissible k-edge state paths of a base coding, from every start."""
    return ms.paths(k, starts=range(ms.n_states))


def potential_from_metric(ms: MarkovStructure, metric: MetricGraph, k: int | None = None) -> Potential:
    """The distance increment along the coding, as a potential on blocks.

    On a block (x_0, ..., x_k) whose edges spell l_1..l_k the value is
    dist(l_1..l_k) - dist(l_2..l_k).  As dist(w) = dist(w^-1), that is the
    increment of appending -l_1 to -l_k..-l_2, read off
    ``window_increments``: with window K it depends on l_1..l_{K+1} alone, so
    blocks are listed to depth min(k, K+1).  The default k = K+1 is exact:
    the Birkhoff sum of the first n steps of a path from the initial state
    is the distance of the spelled prefix plus a tail term, a function of
    the letters n-K+1..n+K only.  A smaller k truncates the increment
    (``sweep_telescoping`` measures what that costs).  The coding's paths
    must spell reduced words; a step that cancels raises ValidationError.
    """
    inc = window_increments(metric)
    depth = inc.window + 1 if k is None else min(k, inc.window + 1)
    if depth < 1:
        raise ValueError("potential range must be at least 1")
    base = _base_structure(ms)
    for h, i, j in _blocks(base, 2):
        if base.label_of(h, i) == -base.label_of(i, j):
            raise ValidationError(f"coding edge {base.states[i]} -> {base.states[j]} cancels a letter")
    table = {
        block: inc.table[tuple(-base.label_of(i, j) for i, j in zip(block, block[1:]))[::-1]]
        for block in _blocks(base, depth)
    }
    effective = depth
    for j in range(1, depth):
        groups: dict[tuple[int, ...], object] = {}
        if all(groups.setdefault(block[: j + 1], value) == value for block, value in table.items()):
            table, effective = groups, j
            break
    return Potential(
        structure=base,
        effective_range=effective,
        table=table,
        tag=f"{metric.tag}_k{depth}",
        rational=not any(isinstance(value, float) for value in table.values()),
    )


# -- transfer operator --------------------------------------------------------


class TransferOperator:
    """Weighted transfer matrix of a block shift, kept as its edge list.

    Entry (r, c) is the weight of the block edge r -> c.  ``op @ x`` sums
    w * x[c] into row r in edge order, which is column order within a row.
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray, weights: np.ndarray, n: int):
        self.rows = rows
        self.cols = cols
        self.weights = weights
        self.n = n

    @property
    def T(self) -> "TransferOperator":
        return TransferOperator(self.cols, self.rows, self.weights, self.n)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return np.bincount(self.rows, self.weights * x[self.cols], minlength=self.n)

    def toarray(self) -> np.ndarray:
        dense = np.zeros((self.n, self.n))
        np.add.at(dense, (self.rows, self.cols), self.weights)
        return dense


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

    def matrix(self, v: float) -> TransferOperator:
        """Weighted transfer matrix with entries exp(-v * phi) on block edges."""
        return TransferOperator(self._rows, self._cols, np.exp(-v * self._phis), self.n_blocks)

    def is_single_cycle(self) -> bool:
        return len(self._rows) == self.n_blocks and len(set(self._rows.tolist())) == self.n_blocks

    def leading_eigenvalue(
        self, v: float, start: np.ndarray | None = None
    ) -> tuple[float, np.ndarray | None]:
        """Perron root at v and the Perron vector found with it (None on a
        single cycle, whose root is exact); a power iteration begins at start."""
        if self.is_single_cycle():
            lam, _, _ = self._cycle_eigendata(v)
            return lam, None
        return _perron_vector(self.matrix(v), start)

    def _cycle_eigendata(self, v: float):
        n = self.n_blocks
        succ = np.empty(n, dtype=np.int64)
        succ[self._rows] = self._cols
        weight = np.empty(n)
        weight[self._rows] = np.exp(-v * self._phis)
        order = [0]
        while True:
            nxt = int(succ[order[-1]])
            if nxt == 0:
                break
            order.append(nxt)
        if len(order) != n:
            raise ValidationError("component is not a single cycle")
        weights = weight[order]
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


def _perron_vector(op: TransferOperator, x0: np.ndarray | None = None, tol=5e-15, max_iter=1_000_000):
    """Power iteration with a Collatz-Wielandt stopping rule, from x0 (a
    positive vector) or the uniform one.

    A diagonal shift s makes the iteration aperiodic without moving the
    eigenvector; the bounds min/max of (Mx)/x certify the eigenvalue.  The
    iteration converges at rate |lambda_2 + s| / (lambda_1 + s), and a row
    sum can exceed the root by orders of magnitude when the weights span
    many.  So s starts at 0.01 times the largest row sum and, after the
    first product, drops to half the Collatz-Wielandt lower bound min (Mx)/x
    of the root when that is smaller and positive (a weight can underflow).
    """
    n = op.n
    if n == 1:
        return float(op.weights.sum()), np.ones(1)
    shift = 0.01 * float(np.bincount(op.rows, op.weights, minlength=n).max())
    x = np.full(n, 1.0 / n) if x0 is None else x0
    for it in range(max_iter):
        mx = op @ x
        y = mx + shift * x
        ratios = y / x
        lo, hi = float(ratios.min()), float(ratios.max())
        if hi - lo <= tol * hi:
            return 0.5 * (lo + hi) - shift, y / y.sum()
        if it == 0 and (mx > 0).all():
            shift = min(shift, 0.5 * float((mx / x).min()))
        x = y / y.sum()
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


def pressure(comp: Component, pot: Potential, v: float) -> TransferData:
    """P(-v * potential) on the component, with certified Perron eigendata."""
    bs = BlockShift(comp, pot)
    mat = bs.matrix(v)
    if bs.is_single_cycle():
        lam, right, left = bs._cycle_eigendata(v)
    else:
        lam, right = _perron_vector(mat)
        _, left = _perron_vector(mat.T)
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


def solve_growth_rate(ms: MarkovStructure, pot: Potential) -> GrowthResult:
    """The multiplier v* with max-over-components pressure P(-v* phi) = 0.

    Pressure is strictly decreasing in v (the potential has positive Birkhoff
    averages), so bisection is safe.  The bracket's top doubles from the
    first probe while the pressure is positive, and otherwise halves down to
    v*'s power of two; the first probe is on the potential's scale, so a graph
    with long edges is bracketed without underflow.  The components
    attaining the zero (the arg-max at v*) are checked to coincide with the
    word-maximal ones; a mismatch raises, since it would corrupt everything
    downstream.
    """
    base = _base_structure(ms)
    report = classify_components(base)
    shifts = [BlockShift(c.component, pot) for c in report.components]
    # Each shift's power iteration begins at its Perron vector of the previous
    # step: consecutive bisection steps have close eigenvectors.
    starts: list[np.ndarray | None] = [None] * len(shifts)

    def log_root(i: int, v: float) -> float:
        lam, starts[i] = shifts[i].leading_eigenvalue(v, starts[i])
        return math.log(lam)

    def max_pressure(v: float) -> float:
        return max(log_root(i, v) for i in range(len(shifts)))

    p0 = max_pressure(0.0)
    if p0 <= 0:
        raise ValidationError(f"pressure at v=0 is {p0}; structure has no growth")
    # The first probe is 1, or the largest power of two below 1 at which every
    # weight e^(-v phi) stays within e^(+-16): long edges underflow at v = 1.
    widest = max(float(np.abs(shift._phis).max(initial=0.0)) for shift in shifts)
    lo, hi = 0.0, 1.0
    while hi * widest > 16:
        hi /= 2
    if max_pressure(hi) > 0:
        hi *= 2.0
        while max_pressure(hi) > 0:
            if hi >= 2**40:
                raise ValidationError("bracket failure: pressure never becomes negative")
            hi *= 2.0
    else:  # v* is at most the first probe: halve down to its power of two
        while max_pressure(hi / 2) <= 0:
            hi /= 2
        lo = hi / 2
    tol = PRESSURE_ROOT_TOL * 0.1 * min(hi, 1.0)  # relative below 1, so v*(cL) = v*(L)/c
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if max_pressure(mid) > 0:
            lo = mid
        else:
            hi = mid
    v_star = 0.5 * (lo + hi)
    pressures = {}
    arg_max = []
    for i, classified in enumerate(report.components):
        p = log_root(i, v_star)
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
    metric: MetricGraph,
    ks: Sequence[int] | None = None,
    n_steps: int = 200,
    n_paths: int = 1000,
    seed: int = 0,
) -> TelescopingReport:
    """Measure the telescoping constant of the depth-k potential truncation.

    Samples uniform non-backtracking paths from the initial state and reports,
    for each k, the largest deviation between the Birkhoff sum and the true
    distance of the spelled word over all prefixes of length <= n_steps.
    Every k >= K+1, K the increment window, gives the exact potential, so
    ``ks`` defaults to 1..K+1 and a larger k is measured at depth K+1.  Every
    path is n_steps + K+1 steps long, whatever ``ks`` is, so a k's defect does
    not depend on which other ks are swept.  The coding's paths must spell
    reduced words; a step that cancels raises ValidationError.
    """
    base = _base_structure(ms)
    rng = np.random.Generator(np.random.Philox(key=seed))
    inc = window_increments(metric)
    exact = inc.window + 1
    if ks is None:
        ks = range(1, exact + 1)
    depth_of = {k: min(k, exact) for k in ks}
    pots = {d: potential_from_metric(base, metric, d) for d in sorted(set(depth_of.values()))}
    worst = {d: 0.0 for d in pots}
    for _ in range(n_paths):
        path = [base.initial_index]
        for _ in range(n_steps + exact):
            options = base.succ[path[-1]]
            if not options:
                raise ValidationError("dead end while sampling a telescoping path")
            path.append(options[int(rng.integers(len(options)))])
        # exact distances of every prefix
        dists = []
        state, total = (), 0
        for i, j in zip(path, path[1:]):
            state = inc.step(state, base.label_of(i, j))
            total += inc.table[state]
            dists.append(total)
        for d, pot in pots.items():
            running = Fraction(0) if pot.rational else 0.0
            top = worst[d]
            for m in range(1, n_steps + 1):
                running += pot.value(path[m - 1 : m + d])
                gap = abs(float(running - dists[m - 1]))
                if gap > top:
                    top = gap
            worst[d] = top
    defects = {k: worst[d] for k, d in depth_of.items()}
    return TelescopingReport(defects=defects, n_steps=n_steps, n_paths=n_paths, seed=seed)
