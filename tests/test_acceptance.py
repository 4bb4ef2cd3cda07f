"""Acceptance suite: one test per criterion, each printing a PASS line with
its stated tolerance.  Exact means exact: no epsilon is involved anywhere a
criterion says so; float tolerances are pinned at 1e-9.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import math
import random
import time
from fractions import Fraction

from sostar.bases import (basis_sostar4_A, basis_sostar6_complex,
                          basis_sostar6_quat, basis_su2_sl2_S, basis_su31,
                          generic_basis, SO_STAR)
from sostar.clifford import (PAIRS, check_sostar8_structure, cl7_basis,
                             cl26_basis, dictionary_matrix, sostar8_generic,
                             standard_quaternionic_structure, theta_to_a)
from sostar.hmatrix import CMatrix, HMatrix, max_abs_diff
from sostar.liealg import bracket, commutant_dimension, compact_generator_count, matrix_exp
from sostar.quaternion import Quaternion
from sostar import linalg
from sostar.isogeny import verify_tables
from sostar.scalars import ExactComplex, ExactScalar
from sostar.triality import apply_triality, triality_setup

TOL = 1e-9


def _ok(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:2d}: PASS  {text}")


def test_criterion_01_structure_constant_equality():
    t0 = time.monotonic()
    su31 = basis_su31()
    so6c = basis_sostar6_complex()
    so6q = basis_sostar6_quat()
    f = su31.structure_constants()
    assert f == so6c.structure_constants()
    assert f == so6q.structure_constants()
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"
    _ok(1, f"su(3,1) and so*(6) structure constants agree on all 15^3 "
           f"components exactly ({elapsed:.2f}s)")


def test_criterion_02_center_witnesses():
    su31 = basis_su31()
    so6c = basis_sostar6_complex()
    factor = math.sqrt(6.0) * math.pi
    up = matrix_exp(su31.generators[14].to_numpy() * factor)
    assert max_abs_diff(up, CMatrix.diag([ExactComplex(0, 1)] * 4).to_numpy()) <= TOL
    down = matrix_exp(so6c.generators[14].to_numpy() * factor)
    assert max_abs_diff(down, CMatrix.diag([-1] * 6).to_numpy()) <= TOL
    _ok(2, "exp(sqrt6 pi s15) = i I_4 and exp(sqrt6 pi a15) = -I_6 within 1e-9")


def test_criterion_03_double_cover_kernel():
    a_basis = basis_sostar4_A()
    s_basis = basis_su2_sl2_S()
    for i in range(3):
        for j in range(3, 6):
            assert bracket(a_basis.generators[i], a_basis.generators[j]).is_zero()
    two_pi = 2 * math.pi
    u1 = matrix_exp(s_basis.generators[0].to_numpy() * two_pi)
    u5 = matrix_exp(s_basis.generators[4].to_numpy() * two_pi)
    r1 = matrix_exp(a_basis.generators[0].embed().to_numpy() * two_pi)
    r5 = matrix_exp(a_basis.generators[4].embed().to_numpy() * two_pi)
    assert max_abs_diff(u1 @ u5, CMatrix.diag([-1] * 4).to_numpy()) <= TOL
    assert max_abs_diff(r1 @ r5, CMatrix.identity(4).to_numpy()) <= TOL
    _ok(3, "U1 U5 = -I_4, R1 R5 = I_4 within 1e-9; cross-commutators vanish "
           "exactly")


def test_criterion_04_table_reproduction():
    t0 = time.monotonic()
    report = verify_tables()
    elapsed = time.monotonic() - t0
    assert report.passed, [d for d, _ in report.witnesses if d.startswith("FAILED")]
    assert elapsed < 30.0, f"took {elapsed:.2f}s, budget 30s"
    _ok(4, f"dimension/Killing signature/index reproduced for so*(n<=4), "
           f"sp*(n<=3, all splits), sl(H^n, n<=3) ({elapsed:.2f}s)")


def test_criterion_05_compact_counts():
    for n in range(1, 5):
        assert compact_generator_count(generic_basis(SO_STAR, n)) == n * n
    _ok(5, "compact generator count n^2 for n = 1..4 by exact Killing "
           "diagonalization")


def test_criterion_06_clifford_relations():
    cl7 = cl7_basis()
    cl7.validate()
    cl26 = cl26_basis()
    cl26.validate()
    assert cl26.metric == [1, 1, -1, -1, -1, -1, -1, -1]
    _ok(6, "Cl(7,0) and Cl(2,6) anticommutators and squares exact; "
           "signature (+,+,-,-,-,-,-,-)")


def test_criterion_07_chiral_structure_checks(spin):
    j = standard_quaternionic_structure()
    assert (j @ j.conj() + CMatrix.identity(8)).is_zero()
    for rep in ("L", "R"):
        report = check_sostar8_structure(rep, spin)
        assert report.passed
    _ok(7, "J s* J^-1 = s and -s^T = s exact for all 28 generators of both "
           "chiral blocks; J J* = -I exact")


def test_criterion_08_parameter_dictionary(spin):
    for pair in PAIRS:
        lhs = sostar8_generic(theta_to_a({pair: 1})).embed()
        assert (lhs - spin.L[pair]).is_zero()
    rows = [[ExactScalar(v) for v in row] for row in dictionary_matrix()]
    assert linalg.rank(rows) == 28
    _ok(8, "embed(A(a(theta))) = sum theta_ij L_ij exact on all 28 planes; "
           "rank-28 bijection")


def test_criterion_09_triality_cycle(spin_reps):
    left, right = spin_reps
    quartets = triality_setup()
    vector = apply_triality(quartets, left)
    for m in vector.generators.values():
        assert all(e.im.is_zero() for row in m.entries for e in row)
    form = CMatrix.diag([1, 1, -1, -1, -1, -1, -1, -1])
    for m in vector.generators.values():
        assert (form @ (-m.transpose()) @ form - m).is_zero()
    second = apply_triality(quartets, vector)
    assert all((second.generators[p] - right.generators[p]).is_zero()
               for p in PAIRS)
    third = apply_triality(quartets, second)
    assert all((third.generators[p] - left.generators[p]).is_zero()
               for p in PAIRS)
    t_l = left.as_lie_basis().structure_constants()
    assert t_l == vector.as_lie_basis().structure_constants()
    assert t_l == right.as_lie_basis().structure_constants()
    _ok(9, "triality cycles L -> V -> R -> L exactly, preserves the structure "
           "tensor, cubes to the identity; V real and I_{2,6}-antisymmetric")


def _random_quaternion(rng) -> Quaternion:
    def coeff():
        return Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))
    return Quaternion(coeff(), coeff(), coeff(), coeff())


def _random_hmatrix(rng, n: int) -> HMatrix:
    return HMatrix([[_random_quaternion(rng) for _ in range(n)]
                    for _ in range(n)])


def test_criterion_10_property_suites():
    rng = random.Random(20260810)
    failures = 0
    for trial in range(100):
        n = trial % 3 + 1
        a = _random_hmatrix(rng, n)
        w = _random_hmatrix(rng, n)
        if (a @ w).dagger() != w.dagger() @ a.dagger():
            failures += 1
        if (a @ w).rev_transpose() != w.rev_transpose() @ a.rev_transpose():
            failures += 1
        if (a @ w).embed() != a.embed() @ w.embed():
            failures += 1
        if (a @ w).study_det() != a.study_det() * w.study_det():
            failures += 1
    assert failures == 0
    _ok(10, "conjugate-transpose and reversion-transpose anti-homomorphism, "
            "embedding multiplicativity, Study-determinant multiplicativity: "
            "100 random exact instances each, zero failures")


def test_criterion_11_commutant_dimensions():
    assert commutant_dimension(basis_sostar4_A().embedded()) == 1
    assert commutant_dimension(basis_su2_sl2_S()) == 2
    _ok(11, "commutant dimension 1 for the embedded quaternionic so*(4) "
            "basis and 2 for the block basis (exact nullspace)")
