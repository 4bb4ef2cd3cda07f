import random
from fractions import Fraction

import pytest

from sostar.bases import generic_basis, SP_STAR, SO_STAR
from sostar.hmatrix import (CMatrix, HMatrix, embedded_quaternionic_structure,
                            i_pq, is_sostar_algebra, is_sostar_group,
                            is_sostar_group_embedded, is_spstar_algebra,
                            is_spstar_group, is_su_group_embedded, max_abs_diff,
                            quaternionic_structure_commutant_check)
from sostar.quaternion import Q_I, Q_J, Quaternion
from sostar.scalars import ExactComplex


def _rand_quat(rng) -> Quaternion:
    def r():
        return Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))
    return Quaternion(r(), r(), r(), r())


def _rand_hmatrix(rng, n) -> HMatrix:
    return HMatrix([[_rand_quat(rng) for _ in range(n)] for _ in range(n)])


def test_embed_identity_and_j():
    assert HMatrix.identity(3).embed() == CMatrix.identity(6)
    assert HMatrix([[Q_J]]).embed() == CMatrix([[ExactComplex(0), ExactComplex(-1)],
                                                [ExactComplex(1), ExactComplex(0)]])


def test_embed_multiplicative_on_random_pairs():
    rng = random.Random(11)
    for _ in range(10):
        a = _rand_hmatrix(rng, 2)
        b = _rand_hmatrix(rng, 2)
        assert (a @ b).embed() == a.embed() @ b.embed()


def test_antihomomorphisms_on_random_pairs():
    rng = random.Random(12)
    for _ in range(10):
        a = _rand_hmatrix(rng, 3)
        w = _rand_hmatrix(rng, 3)
        assert (a @ w).dagger() == w.dagger() @ a.dagger()
        assert (a @ w).rev_transpose() == w.rev_transpose() @ a.rev_transpose()


def test_embed_intertwines_involutions():
    rng = random.Random(21)
    for _ in range(5):
        m = _rand_hmatrix(rng, 3)
        assert m.dagger().embed() == m.embed().dagger()
        assert m.rev_transpose().embed() == m.embed().transpose()
        assert m.rev_entries().conj_entries().embed() == m.embed().conj()


def test_plain_transpose_fails_to_be_homomorphic():
    a = HMatrix([[Q_I, Quaternion(0)], [Quaternion(0), Quaternion(1)]])
    w = HMatrix([[Quaternion(0), Q_J], [Quaternion(1), Quaternion(0)]])
    prod_t = (a @ w).transpose()
    assert prod_t != a.transpose() @ w.transpose()
    assert prod_t != w.transpose() @ a.transpose()


def test_study_det_examples():
    assert HMatrix.identity(3).study_det() == ExactComplex(1)
    assert HMatrix([[Quaternion(1, 1)]]).study_det() == ExactComplex(2)
    assert HMatrix([[Q_J]]).study_det() == ExactComplex(1)


def _cofactor_det(m: CMatrix) -> ExactComplex:
    """Independent oracle: Laplace expansion along the first row."""
    n = m.rows
    if n == 1:
        return m.entries[0][0]
    total = ExactComplex(0)
    for j in range(n):
        if m.entries[0][j].is_zero():
            continue
        minor = CMatrix([[m.entries[r][c] for c in range(n) if c != j]
                         for r in range(1, n)])
        term = m.entries[0][j] * _cofactor_det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def test_study_det_matches_cofactor_oracle():
    rng = random.Random(13)
    for _ in range(5):
        m = _rand_hmatrix(rng, 2)
        assert m.study_det() == _cofactor_det(m.embed())


def test_study_det_multiplicative():
    rng = random.Random(14)
    for _ in range(5):
        a = _rand_hmatrix(rng, 2)
        b = _rand_hmatrix(rng, 2)
        assert (a @ b).study_det() == a.study_det() * b.study_det()


def test_study_det_real_nonnegative():
    rng = random.Random(15)
    for _ in range(5):
        d = _rand_hmatrix(rng, 2).study_det()
        assert d.im.is_zero()
        assert d.re.sign() >= 0


def test_sostar_membership_examples():
    assert is_sostar_group(HMatrix.identity(3))
    assert not is_sostar_group(HMatrix.identity(3).scale(2))
    for theta in (Fraction(1), Fraction(-3, 2), Fraction(5, 7)):
        elem = HMatrix([[Q_J.scale(theta)]])
        assert is_sostar_algebra(elem)
    assert not is_sostar_algebra(HMatrix([[Q_I]]))
    # a rotation by 90 degrees in the 1-j plane is an exact group element
    assert is_sostar_group(HMatrix([[Q_J]]))


def test_spstar_membership_examples():
    assert is_spstar_group(HMatrix.identity(2), 2, 0)
    assert is_spstar_group(HMatrix([[Q_I]]), 1, 0)
    assert not is_spstar_group(HMatrix([[Quaternion(1, 1)]]), 1, 0)
    assert is_spstar_algebra(HMatrix([[Q_I]]), 1, 0)
    with pytest.raises(ValueError):
        is_spstar_group(HMatrix.identity(3), 1, 1)


def test_spstar_algebra_embeds_into_unitary_and_symplectic():
    """Embedded sp*(p,q) elements satisfy both the pseudo-unitary condition
    for the embedded Hermitian form and the symplectic condition for the
    embedded skew form j*I_pq."""
    rng = random.Random(16)
    p, q = 1, 1
    basis = generic_basis(SP_STAR, 2, p, q)
    herm = i_pq(p, q).embed()
    skew = i_pq(p, q).left_mul(Q_J).embed()
    for _ in range(5):
        elem = None
        for g in basis.generators:
            term = g.scale(Fraction(rng.randint(-3, 3), rng.choice((1, 2))))
            elem = term if elem is None else elem + term
        assert is_spstar_algebra(elem, p, q)
        e = elem.embed()
        assert (e.dagger() @ herm + herm @ e).is_zero()
        assert (e.transpose() @ skew + skew @ e).is_zero()


def test_sostar_algebra_embeds_antisymmetric_and_quaternionic():
    rng = random.Random(17)
    basis = generic_basis(SO_STAR, 3)
    j = embedded_quaternionic_structure(3)
    for _ in range(5):
        elem = None
        for g in basis.generators:
            term = g.scale(Fraction(rng.randint(-3, 3), rng.choice((1, 2))))
            elem = term if elem is None else elem + term
        assert is_sostar_algebra(elem)
        e = elem.embed()
        assert (e.transpose() + e).is_zero()
        assert quaternionic_structure_commutant_check(e, j)


def test_quaternionic_structure_check_examples():
    rng = random.Random(18)
    eps = HMatrix([[Q_J]]).embed()
    assert quaternionic_structure_commutant_check(CMatrix.identity(2), eps)
    for _ in range(5):
        q = _rand_quat(rng)
        assert quaternionic_structure_commutant_check(HMatrix([[q]]).embed(), eps)
    diag_i1 = CMatrix.diag([ExactComplex(0, 1), ExactComplex(1)])
    assert not quaternionic_structure_commutant_check(diag_i1, eps)
    not_a_structure = CMatrix.identity(2)
    with pytest.raises(ValueError):
        quaternionic_structure_commutant_check(diag_i1, not_a_structure)


def test_embedded_float_membership_can_fail():
    """The float predicates accept known group elements and reject a scaled
    element, a wrong determinant and a matrix of NaNs."""
    import numpy as np
    j = HMatrix([[Q_J]]).embed().to_numpy()  # exp(pi/2 j), an SO*(2) element
    assert is_sostar_group_embedded(j)
    assert not is_sostar_group_embedded(2 * j)
    assert not is_sostar_group_embedded(np.full((2, 2), np.nan))
    assert is_su_group_embedded(np.diag([1j] * 4), 3, 1)
    assert not is_su_group_embedded(np.diag([1j] * 3 + [1]), 3, 1)
    with pytest.raises(ValueError):
        is_sostar_group_embedded(np.eye(3))
    assert max_abs_diff(j, -j) == 2.0
    with pytest.raises(ValueError):
        max_abs_diff(np.eye(2), np.eye(3))


def test_shape_errors():
    with pytest.raises(ValueError):
        HMatrix.identity(2) @ HMatrix.identity(3)
    with pytest.raises(ValueError):
        HMatrix([[Quaternion(1), Quaternion(0)]]).trace()


def test_json_round_trip():
    rng = random.Random(19)
    m = _rand_hmatrix(rng, 2)
    assert HMatrix.from_json(m.to_json()) == m
    c = m.embed()
    assert CMatrix.from_json(c.to_json()) == c
