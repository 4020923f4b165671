import pytest

from braidquot import fingroup as fg
from braidquot import jn2, oracle


@pytest.fixture(scope="session")
def small_corpus():
    """A mixed bag of small groups used by property tests."""
    groups = [
        fg.cyclic(1), fg.cyclic(2), fg.cyclic(6), fg.cyclic(8),
        fg.from_table(8, fg.digit_sum_table(2, 3), label="E2^3"),
        fg.from_table(9, fg.digit_sum_table(3, 2), label="E3^2"),
        fg.symmetric(3), fg.symmetric(4), fg.alternating(4),
        fg.dihedral(8), fg.dihedral(12), fg.dicyclic(8), fg.dicyclic(12),
        fg.direct_product(fg.cyclic(2), fg.cyclic(4)),
    ]
    return groups


@pytest.fixture(scope="session")
def exhaustive_tiers():
    return {k: oracle.enumerate_groups_exhaustive(k) for k in range(1, 9)}


@pytest.fixture(scope="session")
def catalog():
    return oracle.nonabelian_catalog_upto()


@pytest.fixture(scope="session")
def specs_243():
    return jn2.enumerate_specs(243)
