"""Executable verification of the low-dimensional quaternionic orthogonal
isomorphisms: SO*(2) as the circle group, SO*(4) as a quotient of
SU(2) x SL(2,R) with its double-cover kernel witness, SO*(6) as the image of
SU(3,1) under a two-to-one cover, and the family-wide dimension/Killing
bookkeeping.

Everything algebraic is checked exactly; only exponentials (group-level
witnesses) use floats, compared entry-wise against the stated targets at the
given tolerance.
"""

from __future__ import annotations

import math

from .bases import (basis_sostar4_A, basis_sostar6_complex, basis_sostar6_quat,
                    basis_su2_sl2_S, basis_su31, generic_basis,
                    generic_generators, SL_H, SO_STAR, SP_STAR)
from .hmatrix import (CMatrix, DEFAULT_TOL, is_sostar_group_embedded,
                      is_su_group_embedded, max_abs_diff)
from .liealg import (QUATERNIONIC, LieBasis, bracket, commutant_dimension,
                     compact_generator_count, matrix_exp)
from .report import VerificationReport
from .triality import is_real_matrix


def _exp_of(exact_mat: CMatrix, factor: float, tol: float):
    return matrix_exp(exact_mat.to_numpy() * factor, tol=min(tol * 1e-3, 1e-12))


def _close(a, b, tol: float) -> bool:
    return max_abs_diff(a, b) <= tol


def _float_diag(values):
    import numpy
    return numpy.diag(numpy.array(values, dtype=complex))


def verify_sostar2(tol: float = DEFAULT_TOL) -> VerificationReport:
    """so*(2) is one-dimensional, spanned by j, and exponentiates onto the
    plane rotation group."""
    rep = VerificationReport(claim_id="sostar2", tolerance_used=tol)
    basis = generic_basis(SO_STAR, 1)
    rep.check("algebra dimension is 1", basis.dim == 1)
    gen = basis.generators[0].entries[0][0]
    rep.check("generator is proportional to j",
              gen.t.is_zero() and gen.x.is_zero() and gen.z.is_zero()
              and not gen.y.is_zero(), gen)
    ej = basis.generators[0].embed()  # 2x2 image of j
    for theta in (0.0, math.pi / 3, math.pi, 2 * math.pi):
        rot = _exp_of(ej, theta, tol)
        target = [[math.cos(theta), -math.sin(theta)],
                  [math.sin(theta), math.cos(theta)]]
        rep.check(f"exp(theta j) is the rotation by theta = {theta:.6f}",
                  _close(rot, target, tol), rot)
        rep.check(f"exp(theta j) is an embedded SO*(2) member (theta = {theta:.6f})",
                  is_sostar_group_embedded(rot, tol))
    return rep


def verify_sostar4(tol: float = DEFAULT_TOL) -> VerificationReport:
    """so*(4) splits as su(2) + sl(2,R); at group level the block
    representation double-covers the quaternionic one."""
    rep = VerificationReport(claim_id="sostar4", tolerance_used=tol)
    a_basis = basis_sostar4_A()
    s_basis = basis_su2_sl2_S()

    cross_ok = all(bracket(a_basis.generators[i], a_basis.generators[j]).is_zero()
                   for i in range(3) for j in range(3, 6))
    rep.check("[A_{1..3}, A_{4..6}] = 0 exactly", cross_ok)

    rep.check("A and S bases share one structure tensor (exact)",
              a_basis.structure_constants() == s_basis.structure_constants())

    two_pi = 2 * math.pi
    u1 = _exp_of(s_basis.generators[0], two_pi, tol)
    u5 = _exp_of(s_basis.generators[4], two_pi, tol)
    r1 = _exp_of(a_basis.generators[0].embed(), two_pi, tol)
    r5 = _exp_of(a_basis.generators[4].embed(), two_pi, tol)
    rep.check("exp(2 pi S_1) = diag(-I_2, I_2)",
              _close(u1, _float_diag([-1, -1, 1, 1]), tol), u1)
    rep.check("exp(2 pi S_5) = diag(I_2, -I_2)",
              _close(u5, _float_diag([1, 1, -1, -1]), tol), u5)
    rep.check("exp(2 pi A_1) = -I_4",
              _close(r1, _float_diag([-1] * 4), tol), r1)
    rep.check("U_1 U_5 = -I_4 (center acts nontrivially upstairs)",
              _close(u1 @ u5, _float_diag([-1] * 4), tol), u1 @ u5)
    rep.check("R_1 R_5 = I_4 (kernel of the induced cover)",
              _close(r1 @ r5, _float_diag([1] * 4), tol), r1 @ r5)
    rep.check("R_1 is an embedded SO*(4) member",
              is_sostar_group_embedded(r1, tol))
    rep.check("R_5 is an embedded SO*(4) member",
              is_sostar_group_embedded(r5, tol))
    rep.check("U_1 stays block unitary x real with unit determinants",
              _is_block_su2_sl2(u1, tol))
    rep.check("U_5 stays block unitary x real with unit determinants",
              _is_block_su2_sl2(u5, tol))

    rep.check("embedded quaternionic representation has trivial commutant",
              commutant_dimension(a_basis.embedded()) == 1)
    return rep


def _is_block_su2_sl2(m, tol: float) -> bool:
    """Membership of a 4x4 float matrix in the block group SU(2) x SL(2,R)
    inside GL(4,C)."""
    import numpy
    top, bot = m[:2, :2], m[2:, 2:]
    off_diagonal = numpy.concatenate([m[:2, 2:], m[2:, :2]])
    return bool(numpy.abs(off_diagonal).max() <= tol
                and _close(top.conj().T @ top, numpy.eye(2), tol)
                and all(abs(numpy.linalg.det(blk) - 1) <= tol for blk in (top, bot))
                and numpy.abs(bot.imag).max() <= tol)


def verify_sostar6(tol: float = DEFAULT_TOL) -> VerificationReport:
    """su(3,1) and so*(6) share structure constants; the shared center
    generator exponentiates to i upstairs and to -1 downstairs."""
    rep = VerificationReport(claim_id="sostar6", tolerance_used=tol)
    su31 = basis_su31()
    so6c = basis_sostar6_complex()
    so6q = basis_sostar6_quat()

    rep.check("su(3,1) and complex so*(6) structure constants agree on all "
              "15^3 components (exact)",
              su31.structure_constants() == so6c.structure_constants())
    rep.check("quaternionic and complex so*(6) bases share one structure "
              "tensor (exact)",
              so6q.structure_constants() == so6c.structure_constants())

    sqrt6_pi = math.sqrt(6.0) * math.pi
    e15_up = _exp_of(su31.generators[14], sqrt6_pi, tol)
    rep.check("exp(sqrt6 pi s_15) = i I_4",
              _close(e15_up, _float_diag([1j] * 4), tol), e15_up)
    rep.check("that center witness lies in SU(3,1)",
              is_su_group_embedded(e15_up, 3, 1, tol))

    e15_down = _exp_of(so6c.generators[14], sqrt6_pi, tol)
    target_down = _float_diag([-1] * 6)
    rep.check("exp(sqrt6 pi a_15) = -I_6", _close(e15_down, target_down, tol),
              e15_down)
    e15_quat = _exp_of(so6q.generators[14].embed(), sqrt6_pi, tol)
    rep.check("the quaternionic a_15 exponentiates to -I_6 as well",
              _close(e15_quat, target_down, tol), e15_quat)
    rep.check("that center witness is an embedded SO*(6) member",
              is_sostar_group_embedded(e15_quat, tol))

    for basis in (su31, so6c, so6q):
        rep.check(f"compact generator count of {basis.name} is 9",
                  compact_generator_count(basis) == 9)

    real_idx = [i for i, g in enumerate(su31.generators)
                if is_real_matrix(g)]
    rep.check("exactly six su(3,1) generators are manifestly real",
              len(real_idx) == 6, [su31.labels[i] for i in real_idx])
    rep.check("the manifestly real span closes as a 6-dimensional subalgebra",
              _closes_as_subalgebra([su31.generators[i] for i in real_idx]))
    return rep


def _closes_as_subalgebra(gens: list[CMatrix]) -> bool:
    from .liealg import COMPLEX_EXACT, structure_constants
    try:
        sub = LieBasis("real_span", COMPLEX_EXACT, gens)  # raises if dependent
        structure_constants(sub)  # raises if a bracket leaves the span
    except ValueError:
        return False
    return True


# ---------------------------------------------------------------------------
# family-wide tables
# ---------------------------------------------------------------------------


def table_row(family: str, n: int, p: int = 0, q: int = 0) -> dict:
    """Closed-form dimension, rank, Killing signature and index for one family
    member."""
    if family == SL_H:
        d = 4 * n * n - 1
        sig = (n * (2 * n + 1), (n - 1) * (2 * n + 1))
        rank = 2 * n - 1
    elif family == SP_STAR:
        d = n * (2 * n + 1)
        sig = (d - 4 * p * q, 4 * p * q)
        rank = n
    elif family == SO_STAR:
        d = n * (2 * n - 1)
        sig = (n * n, n * (n - 1))
        rank = n
    else:
        raise ValueError(f"unknown family {family!r}")
    return {"family": family, "n": n, "p": p, "q": q, "dim": d, "rank": rank,
            "n_minus": sig[0], "n_plus": sig[1], "index": sig[1] - sig[0]}


def verify_tables() -> VerificationReport:
    """Reproduces the dimension / Killing-signature / index table for
    so*(2n) with n <= 4, sp*(p,q) with p+q <= 3 (all splits), and sl(n,H)
    with n <= 3, by exact computation on the generic bases.  Members with
    identical generators (sp*(n,0) and sp*(0,n), sp*(1) and sl(1,H)) share
    one basis, keyed on the generators before it is built, so each distinct
    algebra is built and expanded once; every row is still checked and
    reported."""
    rep = VerificationReport(claim_id="tables")
    cases = []
    for n in range(1, 5):
        cases.append((SO_STAR, n, 0, 0))
    for n in range(1, 4):
        for p in range(n + 1):
            cases.append((SP_STAR, n, p, n - p))
    for n in range(1, 4):
        cases.append((SL_H, n, 0, 0))

    known: dict = {}  # generator tuple -> its basis, built and expanded once
    for family, n, p, q in cases:
        expected = table_row(family, n, p, q)
        name, gens, labels = generic_generators(family, n, p if family == SP_STAR else None,
                                                q if family == SP_STAR else None)
        basis = known.get(tuple(gens))
        if basis is None:
            basis = known[tuple(gens)] = LieBasis(name, QUATERNIONIC, gens, labels)
        tag = f"{family} n={n}" + (f" (p,q)=({p},{q})" if family == SP_STAR else "")
        rep.check(f"{tag}: dimension {expected['dim']}",
                  basis.dim == expected["dim"], basis.dim)
        kd = basis.killing()
        got_sig = (kd.signature[0], kd.signature[1])
        want_sig = (expected["n_minus"], expected["n_plus"])
        rep.check(f"{tag}: Killing signature {want_sig}", got_sig == want_sig,
                  list(kd.signature))
        rep.check(f"{tag}: index {expected['index']}",
                  kd.index == expected["index"], kd.index)
        if family == SO_STAR:
            rep.check(f"{tag}: compact generator count {n * n}",
                      compact_generator_count(basis) == n * n)
    return rep
