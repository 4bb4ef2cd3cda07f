from fractions import Fraction

import pytest

from sostar.bases import (SO_STAR, basis_sostar4_A, basis_sostar6_complex,
                          basis_sostar6_quat, basis_su2_sl2_S, basis_su31,
                          generic_basis)
from sostar.liealg import LieBasis
from sostar.scalars import ExactScalar
from sostar.clifford import spin26_generators
from sostar.triality import transformed_spin_reps


@pytest.fixture(scope="session")
def spin():
    return spin26_generators()


@pytest.fixture(scope="session")
def spin_reps(spin):
    return transformed_spin_reps(spin)


@pytest.fixture(scope="session")
def a_basis():
    return basis_sostar4_A()


@pytest.fixture(scope="session")
def s_basis():
    return basis_su2_sl2_S()


@pytest.fixture(scope="session")
def su31():
    return basis_su31()


@pytest.fixture(scope="session")
def so6_quat():
    return basis_sostar6_quat()


@pytest.fixture(scope="session")
def so6_complex():
    return basis_sostar6_complex()


def _dense_recombination(gens):
    """g_i + sum over j > i of c_ij g_j with irrational c_ij: a unit triangular
    change of basis, so the span is unchanged and every coordinate fills in."""
    coeffs = (ExactScalar(1, 1), ExactScalar(Fraction(-1, 2), 0, 1),
              ExactScalar(0, Fraction(1, 3), 0, -1))
    out = []
    for i, g in enumerate(gens):
        for j in range(i + 1, len(gens)):
            g = g + gens[j].scale(coeffs[(i + j) % 3])
        out.append(g)
    return out


@pytest.fixture(scope="session")
def dense_recombination():
    return _dense_recombination


@pytest.fixture(scope="session")
def dense_sostar6_basis():
    """Generic so*(6) after the dense sqrt2/sqrt3 recombination."""
    gens = _dense_recombination(generic_basis(SO_STAR, 3).generators)
    return LieBasis("dense_sostar6", "quaternionic", gens)
