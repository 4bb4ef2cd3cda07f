"""Acceptance suite: one test per criterion, each printing a PASS line with
its stated tolerance.  Exact means exact: no epsilon is involved anywhere a
criterion says so; float tolerances are pinned at 1e-9.

Criteria 1-9, and the so*(4) half of criterion 11, read the named checks of
the `sostar verify` suite reports (the `suite_runs` fixture), so each claim
has one definition.  Criterion 10 and the block-basis commutant are in no
suite and are computed here.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import random
from fractions import Fraction

from sostar.bases import basis_su2_sl2_S
from sostar.hmatrix import HMatrix
from sostar.liealg import commutant_dimension
from sostar.quaternion import Quaternion

TOL = 1e-9


def _ok(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:2d}: PASS  {text}")


def _assert_passed(report, *checks) -> None:
    """Each named check was made in `report` and passed."""
    failed = report.failures()
    made = {d for d, _ in report.witnesses} | set(failed)
    assert [c for c in checks if c not in made] == []
    assert [c for c in checks if c in failed] == []


def test_criterion_01_structure_constant_equality(suite_runs):
    report, elapsed = suite_runs["sostar6"]
    _assert_passed(report,
                   "su(3,1) and complex so*(6) structure constants agree on "
                   "all 15^3 components (exact)",
                   "quaternionic and complex so*(6) bases share one structure "
                   "tensor (exact)")
    assert elapsed < 5.0, f"the sostar6 suite took {elapsed:.2f}s, budget 5s"
    _ok(1, f"su(3,1) and so*(6) structure constants agree on all 15^3 "
           f"components exactly (sostar6 suite {elapsed:.2f}s)")


def test_criterion_02_center_witnesses(suite_runs):
    report, _ = suite_runs["sostar6"]
    assert report.tolerance_used == TOL
    _assert_passed(report, "exp(sqrt6 pi s_15) = i I_4",
                   "exp(sqrt6 pi a_15) = -I_6")
    _ok(2, "exp(sqrt6 pi s15) = i I_4 and exp(sqrt6 pi a15) = -I_6 within 1e-9")


def test_criterion_03_double_cover_kernel(suite_runs):
    report, _ = suite_runs["sostar4"]
    assert report.tolerance_used == TOL
    _assert_passed(report, "[A_{1..3}, A_{4..6}] = 0 exactly",
                   "U_1 U_5 = -I_4 (center acts nontrivially upstairs)",
                   "R_1 R_5 = I_4 (kernel of the induced cover)")
    _ok(3, "U1 U5 = -I_4, R1 R5 = I_4 within 1e-9; cross-commutators vanish "
           "exactly")


def test_criterion_04_table_reproduction(suite_runs):
    report, elapsed = suite_runs["tables"]
    assert report.failures() == []
    _assert_passed(report, "so_star n=4: Killing signature (16, 12)",
                   "sp_star n=3 (p,q)=(1,2): Killing signature (13, 8)",
                   "sl_H n=3: index -7")
    assert elapsed < 30.0, f"the tables suite took {elapsed:.2f}s, budget 30s"
    _ok(4, f"dimension/Killing signature/index reproduced for so*(n<=4), "
           f"sp*(n<=3, all splits), sl(H^n, n<=3) (tables suite {elapsed:.2f}s)")


def test_criterion_05_compact_counts(suite_runs):
    report, _ = suite_runs["tables"]
    _assert_passed(report, *(f"so_star n={n}: compact generator count {n * n}"
                             for n in range(1, 5)))
    _ok(5, "compact generator count n^2 for n = 1..4 by exact Killing "
           "diagonalization")


def test_criterion_06_clifford_relations(suite_runs):
    report, _ = suite_runs["sostar8"]
    _assert_passed(report, "Cl(7,0) relations exact (21 pairs + 7 squares)",
                   "Cl(2,6) relations exact with signature (+,+,-,-,-,-,-,-)")
    _ok(6, "Cl(7,0) and Cl(2,6) anticommutators and squares exact; "
           "signature (+,+,-,-,-,-,-,-)")


def test_criterion_07_chiral_structure_checks(suite_runs):
    report, _ = suite_runs["sostar8"]
    # each sub-report also checks J J* = -I
    _assert_passed(report, "structure checks (sostar8_structure_L)",
                   "structure checks (sostar8_structure_R)")
    _ok(7, "J s* J^-1 = s and -s^T = s exact for all 28 generators of both "
           "chiral blocks; J J* = -I exact")


def test_criterion_08_parameter_dictionary(suite_runs):
    report, _ = suite_runs["sostar8"]
    _assert_passed(report, "dictionary identity embed(A(a(theta))) = sum "
                           "theta L (28 planes)",
                   "dictionary is a rank-28 bijection")
    _ok(8, "embed(A(a(theta))) = sum theta_ij L_ij exact on all 28 planes; "
           "rank-28 bijection")


def test_criterion_09_triality_cycle(suite_runs):
    report, _ = suite_runs["triality"]
    _assert_passed(report, "vector basis is manifestly real",
                   "vector basis satisfies I26 (-V^T) I26 = V",
                   "second application lands exactly on the right-handed basis",
                   "third application is the exact identity",
                   "L, V, R share one structure tensor (exact)")
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


def test_criterion_11_commutant_dimensions(suite_runs):
    report, _ = suite_runs["sostar4"]
    _assert_passed(report, "embedded quaternionic representation has trivial "
                           "commutant")
    assert commutant_dimension(basis_su2_sl2_S()) == 2
    _ok(11, "commutant dimension 1 for the embedded quaternionic so*(4) "
            "basis and 2 for the block basis (exact nullspace)")
