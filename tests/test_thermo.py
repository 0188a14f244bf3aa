"""Thermodynamic formalism on the coding.

Claims covered:
    - metric potentials tabulate distance increments, effective range detected
    - pressure values on roses match closed forms; strict monotonicity in v
    - growth-rate roots: log 3 for the unit rose, the cubic root for lengths
      (1,2), scaling covariance (relative to 1e-9 for lengths scaled by 1/4
      and 1000 on the unit rose and theta), and the ball-count slope
      cross-check
    - Gibbs chain weights, shift invariance, total mass
    - preimage sums against a brute-force oracle; decay on subcritical parts
    - telescoping defect of truncated potentials is finite and non-increasing;
      the sweep defaults to depths 1..K+1 and a k's defect does not depend on
      the other ks swept; codings whose paths cancel rejected
    - the potential read off the increments table equals the dist-based
      construction it replaced, for every depth 1..6, on roses, twisted
      roses, the subdivided rose, the tail-cycle and dead-end codings and random
      marked metrics of rank 2 and 3
    - at the default depth K+1 (K the increment window) the potential is
      exact: the growth rate of a marked unit rose is log 3, the Birkhoff
      sum minus the distance is a function of the letters around the end of
      the prefix, and telescoping defects are equal for every k >= K+1
    - a coding whose paths cancel is rejected
    - ``import lsrigid`` loads no scipy and does load ``numpy.random``
    - the numpy transfer operator: ``op @ x``, ``op.T @ x`` and ``toarray``
      equal a dense reference on the block shifts of every fixture metric;
      its power-iteration eigenvalue is the largest real eigenvalue of the
      dense matrix to 1e-12
    - the warm-started growth bisection finds the same v* bits as cold starts
    - v* is marking-invariant on two marked roses whose block weights span
      many orders: each equals the identity-marked rose's v*, in under 2 s
      of CPU
"""

import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from lsrigid import coding, fixtures, rigidity, thermo, treemetric, words
from lsrigid.coding import scc_decompose
from lsrigid.errors import ValidationError
from lsrigid.thermo import (
    check_rpf_sums,
    gibbs_cylinder_weight,
    potential_from_metric,
    pressure,
    solve_growth_rate,
    sweep_telescoping,
)
from lsrigid.treemetric import window_increments
from lsrigid.words import Word


def test_potential_unit_rose_constant(free2, unit_rose2):
    for k in (1, 3, 6):
        pot = potential_from_metric(free2, unit_rose2, k=k)
        assert pot.effective_range == 1
        assert set(pot.table.values()) == {1}


def test_potential_rose12_letter_weights(free2, rose12):
    pot = potential_from_metric(free2, rose12, k=1)
    for block, value in pot.table.items():
        letter = free2.label_of(block[0], block[1])
        assert value == (1 if abs(letter) == 1 else 2)


def test_potential_twisted_rose_has_depth(free2):
    subst = words.parse_substitution({"a": "aba", "b": "ba"}, 2)
    graph = treemetric.marked_rose([1, 1], subst)
    pot = potential_from_metric(free2, graph, k=4)
    assert pot.effective_range > 1
    assert min(pot.table.values()) <= 0  # prepending can shorten in the tree


def test_pressure_examples(free2, comp2, unit_rose2):
    # the unit rose's potential is identically 1: its pressure is log 3 - v
    pot1 = potential_from_metric(free2, unit_rose2)
    assert abs(pressure(comp2, pot1, 0.0).pressure - math.log(3)) < 1e-12
    assert abs(pressure(comp2, pot1, math.log(3)).pressure) < 1e-12
    pot_unit = potential_from_metric(free2, unit_rose2, k=2)
    assert abs(pressure(comp2, pot_unit, 0.0).pressure - math.log(3)) < 1e-12


def test_pressure_monotone_grid(comp2, pot12):
    values = [pressure(comp2, pot12, v).pressure for v in np.linspace(0.0, 1.2, 20)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_eigen_residuals_and_positivity(comp2, pot12, growth12):
    td = pressure(comp2, pot12, growth12.v_star)
    assert td.residual_right <= 1e-10 and td.residual_left <= 1e-10
    assert td.right.min() > 0 and td.left.min() > 0


def test_growth_unit_rose(growth_unit):
    assert abs(growth_unit.v_star - math.log(3)) <= 1e-9


def test_growth_rose12_cubic_oracle(growth12):
    # the critical u = exp(-v*) solves 3u^3 + u^2 + u - 1 = 0
    roots = np.roots([3.0, 1.0, 1.0, -1.0])
    u = next(r.real for r in roots if abs(r.imag) < 1e-12 and r.real > 0)
    assert abs(growth12.v_star + math.log(u)) <= 1e-9


def test_growth_scaling_covariance(free2):
    for t in (Fraction(2), Fraction(1, 2)):
        scaled = treemetric.rose([t, 2 * t])
        pot = potential_from_metric(free2, scaled, k=2)
        v = solve_growth_rate(free2, pot).v_star
        base = solve_growth_rate(free2, potential_from_metric(free2, treemetric.rose([1, 2]), k=2)).v_star
        assert abs(v - base / t) <= 1e-9


def _scaled(graph, c):
    spec = graph.to_json()
    for edge in spec["edges"]:
        edge["length"] = str(Fraction(edge["length"]) * c)
    return treemetric.graph_from_json(spec)


@pytest.mark.parametrize("c", [Fraction(1, 4), Fraction(1000)])
@pytest.mark.parametrize("name", ["unit_rose2", "theta"])
def test_growth_relative_scaling_covariance(request, free2, name, c):
    # at c = 1000 every weight e^(-v phi) underflows at v = 1, where the
    # bracket used to start
    graph = request.getfixturevalue(name)
    v = solve_growth_rate(free2, potential_from_metric(free2, graph)).v_star
    v_scaled = solve_growth_rate(free2, potential_from_metric(free2, _scaled(graph, c))).v_star
    assert abs(v_scaled * float(c) / v - 1) <= 1e-9


def test_growth_rose22(free2):
    pot = potential_from_metric(free2, treemetric.rose([2, 2]), k=2)
    assert abs(solve_growth_rate(free2, pot).v_star - math.log(3) / 2) <= 1e-9


def test_growth_ball_count_slope(rose12, growth12):
    counts = treemetric.ball_counts(rose12, list(range(1, 15)))
    ts = np.arange(6, 15)
    slope = np.polyfit(ts, [math.log(counts[t - 1]) for t in ts], 1)[0]
    assert abs(slope - growth12.v_star) <= 2e-2


def test_growth_flags_maximal_components(growth_unit):
    assert [set(c.states) for c in growth_unit.maximal_components] == [{"a", "A", "b", "B"}]


def test_growth_on_doctored_structure(unit_rose2):
    tail = fixtures.coding_with_tail_cycle(2)
    pot = potential_from_metric(tail, unit_rose2, k=2)
    growth = solve_growth_rate(tail, pot)
    assert abs(growth.v_star - math.log(3)) <= 1e-9
    assert len(growth.maximal_components) == 1
    non_max = [p for states, p in growth.pressures.items() if len(states) == 2]
    assert non_max and non_max[0] < -0.5


def test_gibbs_depth1_weights(td_unit):
    for s in ("a", "A", "b", "B"):
        assert abs(gibbs_cylinder_weight(td_unit, [s]) - 0.25) < 1e-10


def test_gibbs_depth2_chain_value(td_unit):
    assert abs(gibbs_cylinder_weight(td_unit, ["a", "b"]) - 1 / 12) < 1e-12


def test_gibbs_total_mass(td_unit, td12, free2):
    for td in (td_unit, td12):
        for depth in (1, 2, 4):
            total = 0.0

            def walk(path):
                nonlocal total
                if len(path) == depth:
                    total += gibbs_cylinder_weight(td, [free2.states[i] for i in path])
                    return
                for j in free2.succ[path[-1]]:
                    if j in td.component.indices:
                        walk(path + [j])

            for s in sorted(td.component.indices):
                walk([s])
            assert abs(total - 1.0) <= 1e-10


def test_gibbs_shift_invariance(td_unit, td12, free2):
    # mu[cyl] equals the sum of mu over admissible one-step left extensions
    for td in (td_unit, td12):
        for cyl in (["a", "b"], ["b", "b", "a"]):
            mass = gibbs_cylinder_weight(td, cyl)
            first = free2.index(cyl[0])
            left = sum(
                gibbs_cylinder_weight(td, [free2.states[s]] + cyl)
                for s in sorted(td.component.indices)
                if free2.has_edge(s, first)
            )
            assert abs(mass - left) <= 1e-10


def test_gibbs_rejects_foreign_cylinders(td_unit):
    with pytest.raises(ValidationError):
        gibbs_cylinder_weight(td_unit, ["*", "a"])
    with pytest.raises(ValidationError):
        gibbs_cylinder_weight(td_unit, ["a", "A"])


def _oracle_preimage_sum(td, free2, y_state, n):
    """Brute force: enumerate all admissible pasts of length n ending at y."""
    pot = td.potential
    k = pot.effective_range
    member = td.component.indices
    total = 0.0
    y = free2.index(y_state)
    # the Birkhoff sum over z_0 .. z_{n-1} followed by the canonical tail at y
    tail = [y]
    while len(tail) < k + 1:
        tail.append(min(j for j in free2.succ[tail[-1]] if j in member))

    def walk(path):
        nonlocal total
        if len(path) == n + 1:
            if path[-1] == y:
                full = path[:-1] + tail
                total += math.exp(-td.v * float(pot.birkhoff_sum(full, n)))
            return
        for j in free2.succ[path[-1]]:
            if j in member:
                walk(path + [j])

    for s in sorted(member):
        walk([s])
    return total


def test_rpf_sums_match_bruteforce(td_unit, td12, free2):
    for td in (td_unit, td12):
        report = check_rpf_sums(td, "a", n_max=6)
        for n in range(0, 7):
            oracle = 1.0 if n == 0 else _oracle_preimage_sum(td, free2, "a", n)
            assert abs(report.values[n] - oracle) <= 1e-9 * max(1.0, oracle)


def test_rpf_sums_bounded_at_critical(td_unit):
    report = check_rpf_sums(td_unit, "a", n_max=12)
    assert report.values[0] == 1.0
    assert report.bounded
    assert 3 / 4 <= report.band[0] <= report.band[1] <= 4 / 3


def test_rpf_sums_decay_off_maximal(unit_rose2):
    tail = fixtures.coding_with_tail_cycle(2)
    pot = potential_from_metric(tail, unit_rose2, k=2)
    growth = solve_growth_rate(tail, pot)
    cycle = next(c for c in growth.report.components if not c.word_maximal)
    td = pressure(cycle.component, pot, growth.v_star)
    report = check_rpf_sums(td, cycle.states[0], n_max=10)
    assert report.theta is not None and report.theta < 1
    for n in range(1, 11):
        assert report.values[n] <= report.c_prime * report.theta**n + 1e-12
    # single preimage per step: S_n is exactly exp(-v* n)
    for n in range(1, 11):
        assert abs(report.values[n] - math.exp(-growth.v_star * n)) <= 1e-9


def test_single_cycle_transfer_is_exact(unit_rose2):
    tail = fixtures.coding_with_tail_cycle(2)
    pot = potential_from_metric(tail, unit_rose2, k=1)
    comps, _ = scc_decompose(tail)
    cycle = next(c for c in comps if set(c.states) == {"c1", "c2"})
    td = pressure(cycle, pot, 0.7)
    assert td.residual_right == 0.0
    chain = td.chain()
    assert np.allclose(chain.pi, 0.5)


def test_telescoping_sweep(free2):
    subst = words.parse_substitution({"a": "aba", "b": "ba"}, 2)
    graph = treemetric.marked_rose([1, 1], subst)
    report = sweep_telescoping(free2, graph, ks=(2, 4, 6), n_steps=60, n_paths=60, seed=5)
    defects = [report.defects[k] for k in (2, 4, 6)]
    assert all(math.isfinite(d) for d in defects)
    assert defects[0] >= defects[1] >= defects[2]
    # the unit rose telescopes exactly at every depth
    clean = sweep_telescoping(free2, treemetric.word_metric(2), ks=(1, 2), n_steps=40, n_paths=20, seed=1)
    assert clean.defects[1] == 0 and clean.defects[2] == 0


def test_telescoping_sweep_depths(free2):
    graph = _marked_unit_rose({"a": "aba", "b": "ba"})  # window K = 2
    alone = sweep_telescoping(free2, graph, ks=(1,), n_steps=30, n_paths=20, seed=4)
    swept = sweep_telescoping(free2, graph, ks=(1, 2, 3), n_steps=30, n_paths=20, seed=4)
    assert alone.defects[1] == swept.defects[1]
    default = sweep_telescoping(free2, graph, n_steps=30, n_paths=20, seed=4)
    assert default.defects == swept.defects
    # a k past K+1 is measured at K+1, where the potential is exact
    deep = sweep_telescoping(free2, graph, ks=(3, 10), n_steps=30, n_paths=20, seed=4)
    assert deep.defects == {3: swept.defects[3], 10: swept.defects[3]}


def test_telescoping_sweep_rejects_cancelling_coding(unit_rose2):
    # the backtracking edge a -> A spells aA, which is not a reduced word
    with pytest.raises(ValidationError):
        sweep_telescoping(fixtures.coding_with_backtrack(2), unit_rose2, ks=(1,), n_steps=20, n_paths=20, seed=0)


# -- the potential read off the increments table -----------------------------------


def _dist_reference(ms, k, dist):
    """The dist-based construction the increments table replaced: each
    k-block's value is dist(labels) - dist(labels without the first), and the
    table is reduced to the least range its values depend on."""
    base = coding._base_structure(ms)
    table = {}
    for block in thermo._blocks(base, k):
        labels = tuple(map(base.label_of, block, block[1:]))
        table[block] = dist(labels) - dist(labels[1:])
    for j in range(1, k):
        groups = {}
        if all(groups.setdefault(block[: j + 1], value) == value for block, value in table.items()):
            return groups, j
    return table, k


def _assert_matches_reference(ms, metric, exact=True):
    memo = {}

    def dist(labels):
        if labels not in memo:
            memo[labels] = metric.dist(Word(labels, metric.rank))
        return memo[labels]

    for k in range(1, 7):
        pot = potential_from_metric(ms, metric, k=k)
        table, effective = _dist_reference(ms, k, dist)
        assert pot.effective_range == effective, (metric.tag, k)
        if exact:
            assert pot.table == table, (metric.tag, k)
        else:  # a dead end: the shallower table also lists blocks that run into it
            assert all(pot.table[block] == value for block, value in table.items()), (metric.tag, k)


def _marked_unit_rose(spec):
    return treemetric.marked_rose([1, 1], words.parse_substitution(spec, 2))


def test_potential_matches_dist_reference(free2, unit_rose2, rose12, twisted, subdivided_rose):
    aba = _marked_unit_rose({"a": "aba", "b": "ba"})
    for metric in (unit_rose2, rose12, twisted, treemetric.as_float(twisted), aba, subdivided_rose):
        _assert_matches_reference(free2, metric)
    _assert_matches_reference(fixtures.coding_with_tail_cycle(2), unit_rose2)
    _assert_matches_reference(fixtures.coding_with_tail_cycle(2), twisted)
    _assert_matches_reference(fixtures.coding_with_dead_end(2), twisted, exact=False)


@pytest.mark.parametrize("rank", [2, 3])
def test_potential_matches_dist_reference_random(rank):
    # rank 3 runs on binary64 copies: the lengths are dyadic, so every sum is
    # exact, and the reference's 112,500 depth-6 blocks take half the time
    ms = coding.build_free_group_coding(rank)
    for seed in range(20):
        metric = rigidity.random_marked_metric(np.random.default_rng([rank, seed]), rank)
        _assert_matches_reference(ms, metric if rank == 2 else treemetric.as_float(metric))


@pytest.mark.parametrize(
    "spec, window, wrong",
    [({"a": "ab", "b": "b"}, 1, (1,)), ({"a": "aba", "b": "ba"}, 2, (1, 2))],
)
def test_default_depth_is_exact(free2, spec, window, wrong):
    graph = _marked_unit_rose(spec)
    assert window_increments(graph).window == window
    pot = potential_from_metric(free2, graph)
    assert pot.tag.endswith(f"_k{window + 1}")
    # a marked unit rose spans the same tree as the unit rose: v* = log 3
    for k in (None, window + 1, window + 3):
        v = solve_growth_rate(free2, potential_from_metric(free2, graph, k=k)).v_star
        assert abs(v - math.log(3)) <= 1e-9
    for k in wrong:  # shallower truncations miss the cancellation
        v = solve_growth_rate(free2, potential_from_metric(free2, graph, k=k)).v_star
        assert v - math.log(3) < -0.3


def _tail_conflicts(ms, metric, n_paths=60, n_steps=24, seed=0):
    """Sample paths from the initial state; the gap between the Birkhoff sum
    of the first n steps and the distance of the spelled prefix must be a
    function of letters[max(0, n - K) : n + k - 1].  Returns the number of
    keys seen with two different gaps."""
    window = window_increments(metric).window
    k = window + 1
    pot = potential_from_metric(ms, metric)
    rng = np.random.default_rng(seed)
    gaps = {}
    conflicts = 0
    for _ in range(n_paths):
        path = [ms.initial_index]
        while len(path) < n_steps + k + 1:
            path.append(int(rng.choice(ms.succ[path[-1]])))
        letters = tuple(map(ms.label_of, path, path[1:]))
        for n in range(1, n_steps + 1):
            gap = pot.birkhoff_sum(path, n) - metric.dist(Word(letters[:n], ms.rank))
            key = letters[max(0, n - window) : n + k - 1]
            conflicts += gaps.setdefault(key, gap) != gap
    return conflicts


def test_defect_is_a_tail_term(free2, twisted, subdivided_rose):
    for metric in (twisted, _marked_unit_rose({"a": "aba", "b": "ba"}), subdivided_rose):
        assert _tail_conflicts(free2, metric) == 0, metric.tag
    for seed in range(10):
        metric = rigidity.random_marked_metric(np.random.default_rng([7, seed]), 2)
        assert _tail_conflicts(free2, metric, n_paths=20, seed=seed) == 0, metric.tag


def test_telescoping_defects_equal_from_the_window(free2, twisted):
    for graph in (twisted, _marked_unit_rose({"a": "aba", "b": "ba"})):
        exact = window_increments(graph).window + 1
        ks = (exact, exact + 1, exact + 3)
        report = sweep_telescoping(free2, graph, ks=ks, n_steps=40, n_paths=30, seed=2)
        assert len({report.defects[k] for k in ks}) == 1


def test_potential_rejects_cancelling_coding(unit_rose2):
    # the backtracking edge a -> A spells aA, which is not a reduced word
    for k in (None, 1, 4):
        with pytest.raises(ValidationError, match="cancels"):
            potential_from_metric(fixtures.coding_with_backtrack(2), unit_rose2, k=k)


# -- numpy transfer operator ----------------------------------------------------


FIXTURE_METRICS = ["unit_rose2", "rose12", "twisted", "subdivided_rose", "theta", "barbell"]


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(thermo.__file__))
    code = (
        "import sys, lsrigid; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')), 'numpy.random' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out == "[] True\n"


def _dense_reference(bs, v):
    """The weighted transfer matrix, built entry by entry from the blocks."""
    ms = bs.component.parent
    dense = np.zeros((bs.n_blocks, bs.n_blocks))
    for b, i in bs.index.items():
        for j in ms.succ[b[-1]]:
            if j in bs.component.indices:
                dense[i, bs.index[b[1:] + (j,)]] = math.exp(-v * float(bs.potential.value(b + (j,))))
    return dense


@pytest.mark.parametrize("name", FIXTURE_METRICS)
def test_operator_matches_dense_reference(free2, comp2, request, name):
    bs = thermo.BlockShift(comp2, potential_from_metric(free2, request.getfixturevalue(name)))
    rng = np.random.default_rng(0)
    for v in (0.0, 0.4, 1.3):
        op = bs.matrix(v)
        dense = _dense_reference(bs, v)
        assert np.allclose(op.toarray(), dense, rtol=1e-15, atol=0)
        x = rng.random(bs.n_blocks)
        assert np.allclose(op @ x, dense @ x, rtol=1e-14, atol=0)
        assert np.allclose(op.T @ x, dense.T @ x, rtol=1e-14, atol=0)


@pytest.mark.parametrize("name", ["rose12", "twisted", "theta"])
def test_perron_eigenvalue_matches_dense(free2, comp2, request, name):
    bs = thermo.BlockShift(comp2, potential_from_metric(free2, request.getfixturevalue(name)))
    for v in (0.0, 0.6, 1.1):
        lam, _ = thermo._perron_vector(bs.matrix(v))
        ref = max(e.real for e in np.linalg.eigvals(_dense_reference(bs, v)))
        assert abs(lam - ref) <= 1e-12 * ref


@pytest.mark.parametrize("name", FIXTURE_METRICS)
def test_warm_start_keeps_v_star_bits(free2, request, monkeypatch, name):
    pot = potential_from_metric(free2, request.getfixturevalue(name))
    warm = solve_growth_rate(free2, pot)
    perron = thermo._perron_vector
    monkeypatch.setattr(thermo, "_perron_vector", lambda op, x0=None: perron(op))
    cold = solve_growth_rate(free2, pot)
    assert warm.v_star.hex() == cold.v_star.hex()


@pytest.mark.parametrize(
    "lengths, spec",
    [([3, 1], {"a": "aaBaB", "b": "baBaB"}), ([1, 2], {"a": "abbbbbb", "b": "b"})],
)
def test_growth_is_marking_invariant_on_wide_windows(free2, lengths, spec):
    # v* is the volume entropy of the metric graph, so a re-marked rose has
    # the v* of the identity-marked one.  Their block weights span many
    # orders, where a shift of 0.01 times the largest row sum dwarfed the
    # root and the power iteration stalled (ConvergenceError)
    marked = treemetric.marked_rose(lengths, words.parse_substitution(spec, 2))
    start = time.process_time()
    v = solve_growth_rate(free2, potential_from_metric(free2, marked)).v_star
    assert time.process_time() - start < 2.0
    plain = solve_growth_rate(free2, potential_from_metric(free2, treemetric.rose(lengths))).v_star
    assert abs(v - plain) <= 1e-9
