"""Shared session fixtures: codings, metrics (roses, the subdivided rose, the
theta graph, the barbell, the twisted rose), growth data, the seed-7 ray and
its rigid set."""

import pytest

from lsrigid import coding, psmeasure, rigidity, thermo, treemetric, words


@pytest.fixture(scope="session")
def free2():
    return coding.build_free_group_coding(2)


@pytest.fixture(scope="session")
def aug2(free2):
    return coding.augment(free2)


@pytest.fixture(scope="session")
def comp2(free2):
    comps, _ = coding.scc_decompose(free2)
    return comps[0]


@pytest.fixture(scope="session")
def unit_rose2():
    return treemetric.word_metric(2)


@pytest.fixture(scope="session")
def rose12():
    return treemetric.rose([1, 2])


def _two_vertex_graph(ends, marking):
    """Rank-2 graph on vertices u (the basepoint) and w, with edges p, q, r of
    lengths 1, 1/2, 3/2 between the given ends."""
    lengths = {"p": 1, "q": "1/2", "r": "3/2"}
    return treemetric.graph_from_json(
        {
            "rank": 2,
            "vertices": ["u", "w"],
            "edges": [
                {"id": e, "from": src, "to": dst, "length": lengths[e]}
                for e, (src, dst) in ends.items()
            ],
            "basepoint": "u",
            "marking": marking,
        }
    )


@pytest.fixture(scope="session")
def subdivided_rose():
    """A loop plus a two-edge cycle through w: w has valence 2, so q and r
    always occur together and the graph is rose [1, 2] with a subdivided petal."""
    return _two_vertex_graph({"p": ("u", "u"), "q": ("u", "w"), "r": ("w", "u")}, {"a": "p", "b": "q r"})


@pytest.fixture(scope="session")
def theta():
    """Three edges from u to w, every vertex of valence 3."""
    return _two_vertex_graph({"p": ("u", "w"), "q": ("u", "w"), "r": ("u", "w")}, {"a": "p -q", "b": "p -r"})


@pytest.fixture(scope="session")
def barbell():
    """A loop at u, a bridge q from u to w and a loop at w."""
    return _two_vertex_graph({"p": ("u", "u"), "q": ("u", "w"), "r": ("w", "w")}, {"a": "p", "b": "q r -q"})


@pytest.fixture(scope="session")
def twisted():
    """Unit rose marked by {a: ab, b: b}: appending B after a cancels an edge."""
    subst = words.parse_substitution({"a": "ab", "b": "b"}, 2)
    return treemetric.marked_rose([1, 1], subst)


@pytest.fixture(scope="session")
def pot_unit(free2, unit_rose2):
    return thermo.potential_from_metric(free2, unit_rose2, k=6)


@pytest.fixture(scope="session")
def growth_unit(free2, pot_unit):
    return thermo.solve_growth_rate(free2, pot_unit)


@pytest.fixture(scope="session")
def td_unit(comp2, pot_unit, growth_unit):
    return thermo.pressure(comp2, pot_unit, growth_unit.v_star)


@pytest.fixture(scope="session")
def pot12(free2, rose12):
    return thermo.potential_from_metric(free2, rose12, k=6)


@pytest.fixture(scope="session")
def growth12(free2, pot12):
    return thermo.solve_growth_rate(free2, pot12)


@pytest.fixture(scope="session")
def td12(comp2, pot12, growth12):
    return thermo.pressure(comp2, pot12, growth12.v_star)


@pytest.fixture(scope="session")
def entry_table_unit(aug2, unit_rose2, growth_unit):
    return psmeasure.entry_weight_table(aug2, unit_rose2, growth_unit.v_star)


@pytest.fixture(scope="session")
def ray7(aug2, comp2, td_unit, entry_table_unit):
    """The seed-7 ray of length 10^5 used across recurrence and rigidity tests."""
    return psmeasure.sample_ray(aug2, {comp2: td_unit}, entry_table_unit, 100_000, seed=7)


@pytest.fixture(scope="session")
def rigid7(ray7):
    """The log-budget rigid set of the first five classes on the seed-7 ray."""
    classes = words.enumerate_classes(2, 4, identify_inverse=True)[:5]
    return rigidity.build_rigid_set(ray7, classes, "log", t_max=10_000)
