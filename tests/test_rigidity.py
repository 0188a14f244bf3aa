"""Sparse rigid sets.

Claims covered:
    - the witness queries of a rigid set return the witness classes in
      (length, word_key) order and their lengths, the same on every call
    - the budget test agrees with a brute-force count at every integer
      threshold
    - a rigid set built on the seed-7 ray under the log budget keeps
      count_below(T) <= log(1 + T) for every T up to t_max
    - the CSV file round-trips classes, powers, positions, witnesses and
      witness lengths
    - the seed-7 set has full rank 2 and recovers the edge lengths of a rose
      from its witness lengths; perturbed targets are inconsistent and a
      rank-deficient set is refused
"""

import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsrigid import psmeasure, rigidity, treemetric, words
from lsrigid.errors import ValidationError
from lsrigid.rigidity import BUDGET_SLACK, RigidSet, _budget_feasible, parse_budget


def test_witness_queries_order_and_values(aug2, comp2, td_unit, entry_table_unit):
    ray = psmeasure.sample_ray(aug2, {comp2: td_unit}, entry_table_unit, 20_000, seed=3)
    classes = words.enumerate_classes(2, 2, identify_inverse=True)[:4]
    rigid = rigidity.build_rigid_set(ray, classes, "sqrt", t_max=10_000)
    expected = {}
    for e in rigid.entries:
        expected.setdefault(e.witness_class1, e.ell1)
        expected.setdefault(e.witness_class2, e.ell2)
    order = sorted(expected, key=lambda c: (len(c.letters), words.word_key(c.letters)))
    got = rigid.witness_classes()
    assert got == order
    got.append(got[0])  # callers get a copy, not the cached order
    assert rigid.witness_classes() == order
    lengths = rigid.witness_lengths()
    assert lengths == expected
    lengths.clear()
    assert rigid.witness_lengths() == expected
    for t in (1, 10, 100, 10_000):
        assert rigid.count_below(t) == sum(1 for ell in expected.values() if ell < t)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(1, 40), max_size=12),
    st.sampled_from(["sqrt", "log", "linear", "poly:0.5", "poly:1.5"]),
    st.integers(1, 40),
)
def test_budget_feasible_brute_force(values, desc, t_max):
    budget = parse_budget(desc)
    # #{v < T'} <= f(T') for every real T' <= t_max: with integer values the
    # binding T' lie just above an integer T, where the count is #{v <= T}
    brute = all(
        sum(1 for v in values if v <= t) <= budget(t) + BUDGET_SLACK for t in range(1, t_max + 1)
    )
    assert _budget_feasible(values, budget, t_max) == brute


def test_log_budget_keeps_sparse(rigid7):
    assert len(rigid7.entries) == 5
    for t in range(1, 10_001):
        assert rigid7.count_below(t) <= math.log1p(t) + BUDGET_SLACK


def test_rigid_set_csv_round_trip(rigid7, tmp_path):
    path = tmp_path / "E.csv"
    rigid7.to_csv(path)
    again = RigidSet.from_csv(path, rank=2)
    fields = lambda e: (e.cls, e.power, e.n1, e.n2, e.witness1, e.witness2, e.ell1, e.ell2)
    assert [fields(e) for e in again.entries] == [fields(e) for e in rigid7.entries]
    assert again.witness_lengths() == rigid7.witness_lengths()


def test_rank_and_length_recovery(rigid7):
    assert rigidity.rose_rank_check(rigid7) == 2
    rose = treemetric.rose([Fraction(3, 2), Fraction(1, 2)])
    targets = {c: rose.translation_length(c) for c in rigid7.witness_classes()}
    got = rigidity.recover_lengths(rigid7, targets)
    assert got.consistent
    assert max(abs(x - y) for x, y in zip(got.lengths, (1.5, 0.5))) <= 1e-9
    bent = dict(targets)
    bent[rigid7.witness_classes()[0]] += Fraction(1, 4)
    assert not rigidity.recover_lengths(rigid7, bent).consistent


def test_rank_deficient_set_refused(rigid7):
    powers = [words.ConjClass.from_str(s, 2, identify_inverse=True) for s in ("a", "aa")]
    entry = dataclasses.replace(rigid7.entries[0], witness_class1=powers[0], witness_class2=powers[1])
    deficient = dataclasses.replace(rigid7, entries=(entry,))
    assert rigidity.rose_rank_check(deficient) == 1
    with pytest.raises(ValidationError, match="rank 1 < 2"):
        rigidity.recover_lengths(deficient, lambda c: 1.0)
