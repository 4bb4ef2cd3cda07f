import math
import random
from fractions import Fraction

import pytest

from sostar.bases import generic_basis, SL_H, SO_STAR, SP_STAR
from sostar.hmatrix import CMatrix, HMatrix, max_abs_diff
from sostar.liealg import (COMPLEX_EXACT, LieBasis, bracket,
                           commutant_dimension, compact_generator_count,
                           killing, matrix_exp, structure_constants)
from sostar.quaternion import Q_J, Quaternion
from sostar.scalars import ExactComplex, ExactScalar


def test_bracket_examples(a_basis, s_basis):
    a = a_basis.generators
    s = s_basis.generators
    # the su(2)-like and sl(2,R)-like halves commute
    assert bracket(a[0], a[3]).is_zero()
    assert bracket(s[0], s[3]).is_zero()
    # [A_1, A_2] = c A_3 with c = 1 (value recorded from the exact solve)
    assert bracket(a[0], a[1]) == a[2]
    t = a_basis.structure_constants()
    assert t.get(0, 1, 2) == ExactScalar(1)
    assert all(t.get(0, 1, k).is_zero() for k in range(6) if k != 2)


def test_structure_tensor_antisymmetry(a_basis):
    t = a_basis.structure_constants()
    for i in range(6):
        for j in range(6):
            for k in range(6):
                assert t.get(i, j, k) == -t.get(j, i, k)


def test_jacobi_identity_holds(a_basis, su31):
    assert a_basis.structure_constants().jacobi_holds()
    assert su31.structure_constants().jacobi_holds()


def test_closure_error_for_non_closed_span():
    # a single off-diagonal nilpotent plus nothing else is not closed with
    # its transpose partner's bracket outside the span
    e12 = HMatrix([[Quaternion(0), Quaternion(1)], [Quaternion(0), Quaternion(0)]])
    e21 = e12.transpose()
    basis = LieBasis("open_span", "quaternionic", [e12, e21])
    with pytest.raises(ValueError, match="not closed"):
        structure_constants(basis)


def test_dependent_generators_rejected():
    g = HMatrix([[Q_J]])
    with pytest.raises(ValueError, match="dependent"):
        LieBasis("dup", "quaternionic", [g, g.scale(2)])


def test_generic_dimensions():
    assert generic_basis(SO_STAR, 4).dim == 28
    assert generic_basis(SP_STAR, 2, 1, 1).dim == 10
    assert generic_basis(SL_H, 2).dim == 15


def test_killing_signatures():
    assert killing(generic_basis(SO_STAR, 3)).signature == (9, 6, 0)
    assert killing(generic_basis(SP_STAR, 2, 1, 1)).signature == (6, 4, 0)
    assert killing(generic_basis(SL_H, 2)).signature == (10, 5, 0)


def test_killing_raw_form_vanishes_for_abelian_circle():
    """so*(2) is one-dimensional abelian: its literal Killing form is zero;
    the classified signature marks the single direction compact via the
    defining trace form."""
    basis = generic_basis(SO_STAR, 1)
    kd = killing(basis)
    assert kd.raw_signature == (0, 0, 1)
    assert kd.matrix[0][0].is_zero()
    assert kd.signature == (1, 0, 0)
    assert kd.radical_classified == 1
    assert compact_generator_count(basis) == 1


def test_compact_counts():
    assert compact_generator_count(generic_basis(SO_STAR, 2)) == 4
    assert compact_generator_count(generic_basis(SO_STAR, 3)) == 9
    assert compact_generator_count(generic_basis(SO_STAR, 4)) == 16


def _unimodular(rng, n):
    """Random integer matrix of determinant +-1 built from shears and swaps."""
    m = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        if rng.random() < 0.2:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return m


def test_killing_signature_invariant_under_basis_change():
    rng = random.Random(23)
    base = generic_basis(SP_STAR, 2, 1, 1)
    ref = killing(base).signature
    for _ in range(3):
        t = _unimodular(rng, base.dim)
        gens = []
        for row in t:
            acc = None
            for coeff, g in zip(row, base.generators):
                if coeff == 0:
                    continue
                term = g.scale(coeff)
                acc = term if acc is None else acc + term
            gens.append(acc)
        transformed = LieBasis("sp11_t", "quaternionic", gens)
        assert killing(transformed).signature == ref


def test_su31_tensor_equals_both_sostar6_tensors(su31, so6_quat, so6_complex):
    f = su31.structure_constants()
    assert f == so6_complex.structure_constants()
    assert f == so6_quat.structure_constants()


def test_matrix_exp_identity():
    zero = CMatrix.zeros(3, 3).to_numpy()
    assert max_abs_diff(matrix_exp(zero), CMatrix.identity(3).to_numpy()) <= 1e-15


def test_matrix_exp_rotation():
    theta = math.pi / 3
    gen = HMatrix([[Q_J]]).embed().to_numpy() * theta
    rot = matrix_exp(gen)
    expected = [[math.cos(theta), -math.sin(theta)],
                [math.sin(theta), math.cos(theta)]]
    assert max_abs_diff(rot, expected) <= 1e-12


def test_matrix_exp_center_witness(su31):
    m = su31.generators[14].to_numpy() * (math.sqrt(6.0) * math.pi)
    target = CMatrix.diag([ExactComplex(0, 1)] * 4).to_numpy()
    assert max_abs_diff(matrix_exp(m), target) <= 1e-9


def test_matrix_exp_inverse_property():
    rng = random.Random(29)
    basis = generic_basis(SO_STAR, 2)
    tol = 1e-12
    for _ in range(5):
        elem = None
        for g in basis.generators:
            term = g.scale(Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3))))
            elem = term if elem is None else elem + term
        m = elem.embed().to_numpy()
        prod = matrix_exp(m, tol) @ matrix_exp(-m, tol)
        assert max_abs_diff(prod, CMatrix.identity(4).to_numpy()) <= 10 * tol


def test_matrix_exp_against_scipy():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    import numpy as np
    rng = np.random.default_rng(31)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    ours = matrix_exp(a)
    theirs = scipy_linalg.expm(a)
    assert np.max(np.abs(ours - theirs)) < 1e-10


def test_matrix_exp_rejects_exact_mode():
    with pytest.raises(ValueError):
        matrix_exp(CMatrix.identity(2))


def test_commutant_dimensions(a_basis, s_basis):
    assert commutant_dimension(a_basis.embedded()) == 1
    assert commutant_dimension(s_basis) == 2
    # fundamental su(2): Schur gives a one-dimensional commutant
    su2 = LieBasis("su2", COMPLEX_EXACT, [
        CMatrix([[ExactComplex(0), ExactComplex(0, Fraction(1, 2))],
                 [ExactComplex(0, Fraction(1, 2)), ExactComplex(0)]]),
        CMatrix([[ExactComplex(0), ExactComplex(Fraction(-1, 2))],
                 [ExactComplex(Fraction(1, 2)), ExactComplex(0)]]),
        CMatrix([[ExactComplex(0, Fraction(1, 2)), ExactComplex(0)],
                 [ExactComplex(0), ExactComplex(0, Fraction(-1, 2))]]),
    ])
    assert commutant_dimension(su2) == 1


def test_commutant_oracle_for_block_scalars(s_basis):
    """The two-dimensional commutant of the block basis is spanned by
    diag(a I_2, b I_2): verify both span elements commute with everything."""
    for diag in ([1, 1, 0, 0], [0, 0, 1, 1]):
        x = CMatrix.diag([ExactComplex(v) for v in diag])
        for g in s_basis.generators:
            assert bracket(x, g).is_zero()


def test_basis_export_shape(a_basis):
    doc = a_basis.to_json()
    assert doc["name"] == "sostar4_A"
    assert doc["realization"] == "quaternionic"
    assert len(doc["generators"]) == 6
    assert doc["killing_signature"] == [4, 2, 0]
    assert all(len(t) == 4 for t in doc["structure_constants"])
