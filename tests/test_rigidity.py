"""Sparse rigid sets.

Claims covered:
    - the witness queries of a rigid set return the witness classes in
      (length, word_key) order and their lengths, the same on every call
"""

from lsrigid import psmeasure, rigidity, words


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
