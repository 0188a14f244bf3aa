from lsrigid import treemetric, words

import workloads


def lengths_agree(t1, t2, max_len=6):
    return all(
        t1.translation_length(c.representative()) == t2.translation_length(c.representative())
        for c in words.enumerate_classes(t1.rank, max_len, identify_inverse=True)
    )


def test_specs_are_deterministic_and_in_range():
    specs = workloads.same_point_specs(5, 12)
    assert specs == workloads.same_point_specs(5, 12)
    assert specs != workloads.same_point_specs(6, 12)
    assert [len(g) for _, g in specs] == [1, 2, 3, 4] * 3
    for lengths, g in specs:
        assert len(lengths) == 2 and set(lengths) <= set(workloads.LENGTH_MENU)
        assert all(a != -b for a, b in zip(g, g[1:]))  # reduced


def test_pairs_are_metric_graphs_that_agree_on_short_classes():
    for seed in (1, 2, 3):
        for lengths, g in workloads.same_point_specs(seed, 10):
            t1, t2 = workloads.same_point_pair(lengths, g)
            assert isinstance(t2, treemetric.MetricGraph)
            assert t2.marking != t1.marking
            assert lengths_agree(t1, t2)


def test_brute_force_check_tells_points_apart():
    assert not lengths_agree(treemetric.rose([1, 2]), treemetric.rose([2, 1]))
