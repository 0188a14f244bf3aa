"""Ball measures, partition sums, cylinder masses, ray sampling.

Claims covered:
    - ball-measure weights follow the exp(-v dist) law exactly
    - partition sums: closed form on the unit rose, the windowed programme vs
      brute enumeration of the ball on rose12, the subdivided rose, the twisted
      rose {a: ab, b: b} and random marked metrics (rank 2 up to radius 7,
      rank 3 up to radius 5), equality with the last-letter programme on
      roses, criticality flagging
    - cylinder masses: normalisation, exact additivity over one-step
      extensions (0 included), the same brute-force and rose references,
      stabilisation at depth 1, null-cylinder decay, codings whose paths
      cancel rejected
    - the measured band of cylinder mass over exp(-v Birkhoff sum)
    - the entry table and the mass band compute Z_n once per call and give
      the per-prefix cylinder masses bit for bit
    - sampler: determinism, seed sensitivity, Gibbs statistics, entry table
    - the chunked sampler equals the step-by-step reference state for state,
      on eight graphs (two maximal components among them; one marked rose of
      window 4 with 324 blocks), five seeds and lengths around the chunk size; a ray length below the entry prefix plus
      one block is refused; ``word_letters`` equals the pairwise labels and
      refuses a step that is not an edge
    - sampling a ray takes at most 4 bytes per step plus 2 MB (tracemalloc
      peak at 2*10^5 steps), and rays are equal exactly when every step is
    - recurrence reports (depth < 1 rejected) and ray file round trips, over
      several read chunks too: the loaded ray equals the saved one (its
      component too), the loaded indices and dtype equal the saved ones, and saving them again gives the same bytes; a ray file with a
      step that is not an edge, also across two read chunks, or with an
      unknown state is refused when it is loaded
"""

import math
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsrigid import coding, fixtures, psmeasure, rigidity, thermo, treemetric, words
from lsrigid.errors import ResourceCapError, ValidationError
from lsrigid.psmeasure import (
    RaySample,
    ball_measure,
    cylinder_mass_estimate,
    entry_weight_table,
    load_ray,
    measure_mass_band,
    partition_sum_check,
    partition_sums,
    recurrence_report,
    sample_ray,
    save_ray,
)
from lsrigid.words import Word


LOG3 = math.log(3)


def test_nu_examples(unit_rose2):
    bm = ball_measure(unit_rose2, LOG3, 1)
    assert abs(bm.weight(words.identity(2)) - 3 / 7) < 1e-12
    for s in ("a", "A", "b", "B"):
        assert abs(bm.weight(Word.from_str(s, 2)) - 1 / 7) < 1e-12
    point = ball_measure(unit_rose2, LOG3, 0)
    assert point.weights == {words.identity(2): 1.0}


def test_nu_weight_law(rose12, growth12):
    bm = ball_measure(rose12, growth12.v_star, 5)
    x, y = Word.from_str("abA", 2), Word.from_str("bb", 2)
    expected = math.exp(-growth12.v_star * float(rose12.dist(x) - rose12.dist(y)))
    assert abs(bm.weight(x) / bm.weight(y) - expected) < 1e-12


def test_nu_symmetry(unit_rose2):
    bm = ball_measure(unit_rose2, LOG3, 3)
    values = {len(w): set() for w in bm.weights}
    for w, p in bm.weights.items():
        values[len(w)].add(round(p, 15))
    assert all(len(v) == 1 for v in values.values())


def test_nu_resource_cap(unit_rose2):
    with pytest.raises(ResourceCapError):
        ball_measure(unit_rose2, LOG3, 16, cap=10_000)


def test_partition_sums_closed_form(unit_rose2):
    sums = partition_sums(unit_rose2, LOG3, 12)
    for n, z in enumerate(sums):
        assert abs(z - (1 + 4 * n / 3)) < 1e-12


def _brute_sums(metric, v, n):
    """Z_0..Z_n by listing the ball."""
    layers = [0.0] * (n + 1)
    for w in words.enumerate_ball(metric.rank, n):
        layers[len(w)] += math.exp(-v * float(metric.dist(w)))
    return list(accumulate(layers))


@lru_cache(maxsize=8)
def _ball_weights(metric, v, n):
    return {w.letters: math.exp(-v * float(metric.dist(w))) for w in words.enumerate_ball(metric.rank, n)}


def _brute_cylinder(letters, metric, v, n):
    """Mass of the words of the radius-n ball that start with ``letters``."""
    weights = _ball_weights(metric, v, n)
    inside = sum(x for w, x in weights.items() if w[: len(letters)] == letters)
    return inside / sum(weights.values())


def _rose_sums(lengths, v, n):
    """The last-letter programme on a rose: each letter adds its petal length."""
    letters = words.alphabet(len(lengths))
    weight = {l: math.exp(-v * float(lengths[abs(l) - 1])) for l in letters}
    layer = dict(weight)
    sums = [1.0]
    for _ in range(n):
        sums.append(sums[-1] + sum(layer.values()))
        layer = {t: weight[t] * sum(x for s, x in layer.items() if s != -t) for t in letters}
    return sums


def _close(a, b, rel=1e-12):
    return abs(a - b) <= rel * abs(b)


def test_partition_sums_dp_matches_enumeration(rose12, subdivided_rose, twisted, growth12):
    for metric in (rose12, subdivided_rose, twisted, treemetric.as_float(twisted)):
        dp = partition_sums(metric, growth12.v_star, 8)
        brute = _brute_sums(metric, growth12.v_star, 8)
        assert all(_close(a, b) for a, b in zip(dp, brute))


@pytest.mark.parametrize("lengths", [[1, 1], [1, 2], [1, 2, 3], ["1/2", "3/4"]])
def test_partition_sums_match_rose_programme(lengths):
    graph = treemetric.rose(lengths)
    rational = [Fraction(l) for l in lengths]
    for v in (0.5, math.log(3)):
        dp = partition_sums(graph, v, 16)
        assert all(_close(a, b) for a, b in zip(dp, _rose_sums(rational, v, 16)))


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from([(2, 7), (3, 5)]), st.floats(0.2, 1.2))
def test_partition_sums_random_metrics(seed, shape, v):
    rank, radius = shape
    metric = rigidity.random_marked_metric(np.random.default_rng(seed), rank)
    dp = partition_sums(metric, v, radius)
    assert all(_close(a, b) for a, b in zip(dp, _brute_sums(metric, v, radius)))


def test_partition_sum_check_critical(unit_rose2, rose12, growth12):
    rep = partition_sum_check(unit_rose2, LOG3, 14)
    assert rep.looks_linear
    for n in range(1, 15):
        assert abs(rep.ratios[n - 1] - (4 / 3 + 1 / n)) < 1e-12
    rep12 = partition_sum_check(rose12, growth12.v_star, 14)
    assert rep12.looks_linear
    assert rep12.band[0] > 0 and rep12.c_fitted < 10


def test_partition_sum_check_off_critical(unit_rose2):
    rep = partition_sum_check(unit_rose2, LOG3 + 0.1, 14)
    assert not rep.looks_linear


def test_cylinder_mass_full_space(aug2, unit_rose2):
    est = cylinder_mass_estimate(["*"], aug2, unit_rose2, LOG3, 12)
    assert abs(est.value - 1.0) < 1e-12
    assert not est.null_cylinder


def test_cylinder_mass_generator_symmetry(aug2, unit_rose2):
    values = {
        s: cylinder_mass_estimate(["*", s], aug2, unit_rose2, LOG3, 12).value
        for s in ("a", "A", "b", "B")
    }
    assert max(values.values()) - min(values.values()) < 1e-12


def test_cylinder_mass_additive(aug2, unit_rose2, rose12, growth12):
    for metric, v in ((unit_rose2, LOG3), (rose12, growth12.v_star)):
        for prefix in (["*", "a"], ["*", "a", "b"], ["*", "B", "B", "a"]):
            last = prefix[-1]
            est = cylinder_mass_estimate(prefix, aug2, metric, v, 12)
            total = 0.0
            for t in ("a", "A", "b", "B", "0"):
                if aug2.has_edge(aug2.index(last), aug2.index(t)):
                    total += cylinder_mass_estimate(prefix + [t], aug2, metric, v, 12).value
            assert abs(est.value - total) <= 1e-10


def test_cylinder_mass_dp_matches_enumeration(aug2, rose12, subdivided_rose, twisted, growth12):
    v = growth12.v_star
    for metric in (rose12, subdivided_rose, twisted):
        for prefix in (["*", "a"], ["*", "b", "a"], ["*", "B", "B", "a"], ["*", "a", "B"]):
            est = cylinder_mass_estimate(prefix, aug2, metric, v, 8)
            letters = tuple(words.char_to_letter(c) for c in prefix[1:])
            assert _close(est.value, _brute_cylinder(letters, metric, v, 8))


def test_cylinder_mass_matches_rose_programme():
    # the last-letter programme: weights exp(-v * petal length) along the
    # coding, and petal i of rose [1, 2, 3] has length i
    graph, v = treemetric.rose([1, 2, 3]), 0.6
    free3 = coding.augment(coding.build_free_group_coding(3))
    zero = free3.zero_index
    for prefix in (["*", "a"], ["*", "c", "B"], ["*", "B", "B", "a"]):
        idx = free3.resolve(prefix)
        vec = {idx[-1]: 1.0}
        acc = 1.0
        for _ in range(16 - (len(prefix) - 1)):
            nxt = {}
            for i, x in vec.items():
                for j in free3.succ[i]:
                    if j != zero:
                        w = math.exp(-v * abs(free3.label_of(i, j)))
                        nxt[j] = nxt.get(j, 0.0) + x * w
            vec = nxt
            acc += sum(vec.values())
        word = free3.ev(idx)
        expected = math.exp(-v * float(graph.dist(word))) * acc / _rose_sums([1, 2, 3], v, 16)[16]
        assert _close(cylinder_mass_estimate(prefix, free3, graph, v, 16).value, expected)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from([(2, 7), (3, 5)]), st.integers(0, 2**16))
def test_cylinder_mass_random_metrics(seed, shape, pick):
    rank, radius = shape
    metric = rigidity.random_marked_metric(np.random.default_rng(seed), rank)
    aug = coding.augment(coding.build_free_group_coding(rank))
    word = words.enumerate_ball(rank, 2)[1 + pick % (words.ball_size(rank, 2) - 1)]
    prefix = ["*"] + [words.letter_to_char(l) for l in word.letters]
    est = cylinder_mass_estimate(prefix, aug, metric, 0.8, radius)
    assert _close(est.value, _brute_cylinder(word.letters, metric, 0.8, radius))


def test_cylinder_mass_rejects_cancelling_coding(twisted):
    # the backtracking edge a -> A spells aA, which is not a reduced word
    aug = coding.augment(fixtures.coding_with_backtrack(2))
    with pytest.raises(ValidationError):
        cylinder_mass_estimate(["*", "a"], aug, twisted, 0.5, 4)


def test_cylinder_mass_zero_extension_is_single_element(aug2, unit_rose2):
    est = cylinder_mass_estimate(["*", "a", "0", "0"], aug2, unit_rose2, LOG3, 12)
    z12 = partition_sums(unit_rose2, LOG3, 12)[12]
    assert abs(est.value - (1 / 3) / z12) < 1e-14


def test_cylinder_mass_stabilises_at_entry_depth(aug2, unit_rose2):
    for s in ("a", "b"):
        e12 = cylinder_mass_estimate(["*", s], aug2, unit_rose2, LOG3, 12).value
        e14 = cylinder_mass_estimate(["*", s], aug2, unit_rose2, LOG3, 14).value
        assert abs(e14 - e12) / e12 < 0.01


def test_null_cylinder_decays(unit_rose2):
    dead = fixtures.coding_with_dead_end(2)
    aug = coding.augment(dead)
    values = []
    for n in (6, 12, 24):
        est = cylinder_mass_estimate(["*", "d"], aug, unit_rose2, LOG3, n)
        assert est.null_cylinder
        values.append(est.value)
    assert values[2] < values[1] < values[0]
    assert values[2] < values[0] / 2


def test_mass_band_measured(aug2, unit_rose2, rose12, td_unit, td12):
    band_u = measure_mass_band(aug2, unit_rose2, td_unit, depth=4, n=12)
    band_12 = measure_mass_band(aug2, rose12, td12, depth=4, n=12)
    for band in (band_u, band_12):
        assert band.band[0] > 0
        assert band.spread < 4


def test_one_partition_sum_per_call(free2, aug2, comp2, twisted, monkeypatch):
    pot = thermo.potential_from_metric(free2, twisted)
    td = thermo.pressure(comp2, pot, thermo.solve_growth_rate(free2, pot).v_star)
    calls = []
    real = psmeasure.partition_sums
    monkeypatch.setattr(psmeasure, "partition_sums", lambda *args: calls.append(args) or real(*args))
    table = entry_weight_table(aug2, twisted, td.v)
    band = measure_mass_band(aug2, twisted, td, depth=2, n=8)
    assert len(calls) == 2
    monkeypatch.undo()
    for prefix, weight in table:
        assert weight == cylinder_mass_estimate(prefix, aug2, twisted, td.v, max(16, len(prefix) + 4)).value
    for prefix, ratio in band.ratios.items():
        ext = psmeasure._canonical_extension(aug2, aug2.resolve(prefix), pot.effective_range)
        ref = math.exp(-td.v * float(pot.birkhoff_sum(ext, len(prefix) - 1)))
        assert ratio == cylinder_mass_estimate(prefix, aug2, twisted, td.v, 8).value / ref


def test_entry_weight_table_free_coding(entry_table_unit):
    assert [p for p, _ in entry_table_unit] == [("*", "a"), ("*", "A"), ("*", "b"), ("*", "B")]
    weights = [w for _, w in entry_table_unit]
    assert max(weights) - min(weights) < 1e-12


def test_entry_weight_table_warns_on_deep_transients(unit_rose2):
    tail = coding.augment(fixtures.coding_with_tail_cycle(2))
    with pytest.warns(UserWarning):
        table = entry_weight_table(tail, unit_rose2, LOG3, max_depth=6)
    assert all(p[-1] in {"a", "A", "b", "B"} for p, _ in table)


def test_sampler_determinism_and_seed_sensitivity(aug2, comp2, td_unit, entry_table_unit):
    r1 = sample_ray(aug2, {comp2: td_unit}, entry_table_unit, 3000, seed=5)
    r2 = sample_ray(aug2, {comp2: td_unit}, entry_table_unit, 3000, seed=5)
    r3 = sample_ray(aug2, {comp2: td_unit}, entry_table_unit, 3000, seed=6)
    assert r1.states == r2.states
    assert r1.states != r3.states
    assert r1.entry_index == 1
    assert len(r1) == 3000
    assert "0" not in r1.states


def test_sampler_gibbs_statistics(aug2, comp2, td_unit, entry_table_unit, free2):
    ray = sample_ray(aug2, {comp2: td_unit}, entry_table_unit, 20_000, seed=2)
    tail = [free2.states[i] for i in ray.indices[ray.entry_index :]]
    pairs = list(zip(tail, tail[1:]))
    freqs = {pair: pairs.count(pair) / len(pairs) for pair in set(pairs)}
    chain = td_unit.chain()
    bs = td_unit.shift
    m = len(ray.indices) - ray.entry_index - 1
    for u in range(bs.n_blocks):
        for t, p in zip(chain.targets[u], chain.probs[u]):
            expected = float(chain.pi[u] * p)
            key = (free2.states[bs.blocks[u][0]], free2.states[bs.blocks[int(t)][0]])
            sigma = math.sqrt(expected * (1 - expected) / m)
            assert abs(freqs.get(key, 0.0) - expected) <= 4 * sigma


def test_recurrence_sampled_ray(aug2, comp2, td_unit, entry_table_unit):
    ray = sample_ray(aug2, {comp2: td_unit}, entry_table_unit, 20_000, seed=4)
    rep = recurrence_report(ray, 2)
    assert rep.complete
    assert len(rep.visits) == 12
    assert all(v[0] >= 1 for v in rep.visits.values())


def _given_ray(aug, states, component):
    """A ray along the given states, absorbed from its first step on."""
    idx = np.array(aug.resolve(states), dtype=np.int64)
    return RaySample(aug, idx, entry_index=1, component=component, seed=None)


def test_recurrence_periodic_counterexample(aug2, comp2):
    ray = _given_ray(aug2, ("*",) + ("a", "b") * 50, comp2)
    rep = recurrence_report(ray, 2)
    assert not rep.complete
    assert ("A", "A") in rep.unvisited
    assert rep.counts[("a", "b")] == 50


def test_recurrence_short_horizon(aug2, comp2, td_unit, entry_table_unit):
    ray = sample_ray(aug2, {comp2: td_unit}, entry_table_unit, 10, seed=4)
    rep = recurrence_report(ray, 6)
    assert rep.unvisited  # horizon too short, reported rather than an error


def test_recurrence_rejects_depth_below_one(aug2, comp2):
    ray = _given_ray(aug2, ("*",) + ("a", "b") * 5, comp2)
    with pytest.raises(ValidationError):
        recurrence_report(ray, 0)


def test_sample_ray_memory_is_one_byte_per_step(aug2, comp2, td_unit, entry_table_unit):
    length = 200_000
    sample_ray(aug2, {comp2: td_unit}, entry_table_unit, 10, seed=1)  # the chain is built once
    tracemalloc.start()
    try:
        ray = sample_ray(aug2, {comp2: td_unit}, entry_table_unit, length, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * length + 2 * 2**20
    assert ray.indices.dtype == np.uint8


def test_ray_equality_reads_every_step(aug2, comp2):
    states = ("*",) + ("a", "b") * 5
    ray = _given_ray(aug2, states, comp2)
    assert ray == _given_ray(aug2, states, comp2)
    assert ray != _given_ray(aug2, states[:-1] + ("B",), comp2)
    assert ray != _given_ray(aug2, states[:-1], comp2)


def test_ray_file_round_trip(aug2, comp2, td_unit, entry_table_unit, tmp_path):
    ray = sample_ray(aug2, {comp2: td_unit}, entry_table_unit, 500, seed=9)
    path = tmp_path / "ray.txt"
    save_ray(ray, path)
    again = load_ray(path, aug2)
    assert again.seed == 9
    # the same steps, entry, seed and component, rooted on the base coding
    assert again == ray
    # the last step backtracks: the builder reads only a prefix of a ray, so
    # the file is checked as it is loaded
    lines = path.read_text().splitlines()
    lines.append(lines[-1].swapcase())
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match="not an edge"):
        load_ray(path, aug2)


def test_ray_file_round_trip_across_chunks(aug2, comp2, td_unit, entry_table_unit, tmp_path):
    chunk = psmeasure.RAY_FILE_CHUNK
    ray = sample_ray(aug2, {comp2: td_unit}, entry_table_unit, 2 * chunk + 5, seed=9)
    path, again_path = tmp_path / "ray.txt", tmp_path / "again.txt"
    save_ray(ray, path)
    again = load_ray(path, aug2)
    assert again.indices.dtype == ray.indices.dtype
    assert np.array_equal(again.indices, ray.indices)
    save_ray(again, again_path)
    assert again_path.read_bytes() == path.read_bytes()
    # a step that backtracks across the boundary of two read chunks (the
    # first chunk holds the four header lines and chunk - 4 states)
    lines = path.read_text().splitlines()
    lines[chunk] = lines[chunk - 1].swapcase()
    path.write_text("\n".join(lines))  # and no newline after the last state
    with pytest.raises(ValidationError, match="not an edge"):
        load_ray(path, aug2)
    lines[chunk] = "x"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match="unknown state 'x'"):
        load_ray(path, aug2)


def _doubled_rose(unit_rose2):
    """Two disjoint copies of the free coding, each a maximal component: the
    coding, the transfer data of both components and the entry table."""
    free = coding.build_free_group_coding(2)
    mirror_states = [s + s for s in free.states if s != "*"]
    edges = []
    for i, targets in enumerate(free.succ):
        for k, j in enumerate(targets):
            src, dst = free.states[i], free.states[j]
            src2 = src + src if src != "*" else "*"
            edges.append((src2, dst + dst, free.labels[i][k]))
    doubled = fixtures._with_extra(free, mirror_states, edges)
    aug = coding.augment(doubled)
    pot = thermo.potential_from_metric(doubled, unit_rose2, k=2)
    growth = thermo.solve_growth_rate(doubled, pot)
    assert len(growth.maximal_components) == 2
    tds = {c: thermo.pressure(c, pot, growth.v_star) for c in growth.maximal_components}
    return aug, tds, entry_weight_table(aug, unit_rose2, growth.v_star)


def test_sample_ray_multiple_maximal_components(unit_rose2):
    # the sampler picks one of the two copies per seed
    aug, tds, table = _doubled_rose(unit_rose2)
    assert len(table) == 8
    seen = set()
    for seed in range(6):
        ray = sample_ray(aug, tds, table, 200, seed=seed)
        seen.add(ray.component.states)
        comp_states = set(ray.component.states)
        assert set(ray.states[ray.entry_index:]) <= comp_states
    assert len(seen) == 2


class _UniformStream:
    """Uniforms of Philox(key=seed), read one at a time from 4096-batches."""

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


def _sample_ray_step_by_step(aug, transfer_by_component, entry_table, length, seed):
    """The reference sampler: one uniform and one searchsorted per step."""
    stream = _UniformStream(seed)
    weights = np.array([w for _, w in entry_table], dtype=float)
    cum = np.cumsum(weights / weights.sum())
    choice = int(np.searchsorted(cum, stream.next(), side="right"))
    prefix_idx = list(aug.resolve(entry_table[min(choice, len(entry_table) - 1)][0]))
    td = next(d for c, d in transfer_by_component.items() if prefix_idx[-1] in c.indices)
    chain = td.chain()
    bs = td.shift
    starts = [bi for bi, b in enumerate(bs.blocks) if b[0] == prefix_idx[-1]]
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
    return path


def _pipeline_inputs(request, name):
    """(coding, transfer data, entry table) of the pipeline on the named graph."""
    if name == "doubled_rose":
        return _doubled_rose(request.getfixturevalue("unit_rose2"))
    if name == "rose123":
        graph = treemetric.rose([1, 2, 3])
    elif name == "wide_window":  # {a: abbbb, b: b}: the potential reads 5 letters
        graph = treemetric.marked_rose([1, 1], {1: Word.from_str("abbbb", 2), 2: Word.from_str("b", 2)})
    else:
        graph = request.getfixturevalue(name)
    ms = coding.build_free_group_coding(graph.rank)
    pot = thermo.potential_from_metric(ms, graph)
    growth = thermo.solve_growth_rate(ms, pot)
    tds = {c: thermo.pressure(c, pot, growth.v_star) for c in growth.maximal_components}
    aug = coding.augment(ms)
    return aug, tds, entry_weight_table(aug, graph, growth.v_star)


@pytest.mark.parametrize(
    "name",
    ["unit_rose2", "rose123", "twisted", "subdivided_rose", "theta", "barbell", "doubled_rose", "wide_window"],
)
def test_sample_ray_matches_step_by_step_reference(request, name):
    aug, tds, table = _pipeline_inputs(request, name)
    if name == "wide_window":
        assert [td.shift.n_blocks for td in tds.values()] == [324]
    c = psmeasure.RAY_CHUNK
    for seed in range(5):
        # the reference ray of a length is the prefix of every longer one
        reference = _sample_ray_step_by_step(aug, tds, table, 3 * c + 7, seed)
        shortest = 0
        while True:
            try:
                sample_ray(aug, tds, table, shortest, seed)
                break
            except ValidationError:
                with pytest.raises(ValueError):
                    _sample_ray_step_by_step(aug, tds, table, shortest, seed)
                shortest += 1
        for length in sorted({1, shortest, c - 1, c, c + 1, 3 * c + 7} - set(range(shortest))):
            ray = sample_ray(aug, tds, table, length, seed)
            assert ray.indices.tolist() == reference[: length + 1]
            assert ray.states == tuple(aug.states[i] for i in reference[: length + 1])
        letters = tuple(l for l in map(aug.label_of, reference, reference[1:]) if l)
        assert ray.word_letters() == letters


def test_word_letters_rejects_a_step_off_the_coding(aug2, comp2):
    ray = _given_ray(aug2, ("*", "a", "A"), comp2)
    with pytest.raises(ValidationError, match="not an edge"):
        ray.word_letters()
