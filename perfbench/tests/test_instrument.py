from lsrigid import coding, psmeasure, rigidity, thermo, treemetric, words

import workloads
from tracing import Tracer, patch


def small_rigid_set():
    ms = coding.build_free_group_coding(2)
    aug = coding.augment(ms)
    unit = treemetric.rose([1, 1])
    pot = thermo.potential_from_metric(ms, unit, k=1)
    growth = thermo.solve_growth_rate(ms, pot)
    transfer = {c: thermo.pressure(c, pot, growth.v_star) for c in growth.maximal_components}
    entries = psmeasure.entry_weight_table(aug, unit, growth.v_star)
    ray = psmeasure.sample_ray(aug, transfer, entries, 20_000, seed=3)
    classes = words.enumerate_classes(2, 2, identify_inverse=True)[:4]
    return rigidity.build_rigid_set(ray, classes, "sqrt", t_max=10_000)


def test_traced_battery_matches_separation_battery():
    rigid = small_rigid_set()
    original = rigidity.separation_battery
    expected = original(rigid, n_pairs=6, seed=9)
    tr, found = Tracer(), workloads.Found()
    with patch(workloads.instrument(tr, found)):
        got = rigidity.separation_battery(rigid, n_pairs=6, seed=9)
    assert rigidity.separation_battery is original
    assert got == expected
    assert len(tr.named("rigidity.draw")) == len(tr.named("rigidity.verify")) == 6
    assert len(tr.named("treemetric.graph_build")) >= 12
    assert sum(v.separated for v in found.verdicts) == expected.separated == 6
    classes = rigid.witness_classes()
    assert all(1 <= workloads.scanned(classes, v) <= len(classes) for v in found.verdicts)
