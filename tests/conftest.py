from fractions import Fraction

import pytest
from hypothesis import settings

from qpmetric import SetValuedMap, from_matrix, linear

#: Fixed draws and no example database, so that a run repeats the last
#: one; ``tests/mutants.py`` runs every test file under it.  Without
#: ``--hypothesis-profile`` the default profile applies.
settings.register_profile("mutants", derandomize=True, database=None)


@pytest.fixture
def swap_system():
    """2-point symmetric space whose swap map defeats weak contraction:
    the sole candidate carries defect 1 against a bound of 1/2."""
    space = from_matrix(("a", "b"), [[0, 1], [1, 0]], t0=True)
    F = SetValuedMap({"a": ["b"], "b": ["a"]})
    return space, F, linear(Fraction(1, 2))


@pytest.fixture
def funnel_system():
    """3-point system where greedy and first-admissible selection differ.

    From a both b (defect 1/4) and c (defect 0) are admissible under
    gamma(t) = t/2; greedy jumps straight to c, first-admissible goes
    through b.
    """
    q = Fraction(1, 4)
    space = from_matrix(
        ("a", "b", "c"),
        [[0, 1, 1], [1, 0, q], [1, 1, 0]],
        t0=True,
    )
    F = SetValuedMap({"a": ["b", "c"], "b": ["c"], "c": ["c"]})
    return space, F, linear(Fraction(1, 2))
