import logging

import pytest

from bqrelax.fixtures import gap_n5, tight_n2, triangle

logging.getLogger("bqrelax").setLevel(logging.ERROR)


@pytest.fixture(scope="session")
def ex_tight():
    return tight_n2()


@pytest.fixture(scope="session")
def ex_gap():
    return gap_n5()


@pytest.fixture(scope="session")
def tri_graph():
    return triangle()


def rand_sym(rng, n, scale=1.0):
    A = rng.standard_normal((n, n)) * scale
    return A + A.T
