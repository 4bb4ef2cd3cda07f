"""Named Lie-algebra bases for the low-dimensional quaternionic orthogonal
algebras, and canonical generic bases for the three quaternionic families.

Normalization conventions, fixed so that corresponding bases have *identical*
structure constants (the point of the isogeny checks):

* so*(4): six quaternionic generators A_i whose first three span su(2) and
  last three span sl(2,R); the block-diagonal complex counterpart S_i is
  built from the same commutation relations.
* su(3,1): fifteen generators; the 3x3 su(3) corner is taken entry-wise
  complex-conjugated relative to the printed Gell-Mann set, which is the
  convention under which the structure constants coincide exactly with the
  so*(6) bases below (see tests; with the unconjugated corner 33 of the 87
  nonzero constants flip sign).
* so*(6): the quaternionic basis uses a 1/2 prefactor, which makes its
  embedded image U-conjugate onto the complex block basis and gives the
  group-center witness exp(sqrt6*pi*a15) = -I its stated value.
"""

from __future__ import annotations

from fractions import Fraction

from .constants import gellmann
from .hmatrix import CMatrix, HMatrix, from_blocks
from .liealg import COMPLEX_EXACT, QUATERNIONIC, LieBasis
from .quaternion import Q_I, Q_J, Q_K, Q_ONE, Quaternion
from .scalars import C_I, ExactComplex, ExactScalar

_HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# so*(4)
# ---------------------------------------------------------------------------


def basis_sostar4_A() -> LieBasis:
    """Quaternionic basis of so*(4); A_1..A_3 and A_4..A_6 are commuting
    su(2) and sl(2,R) subalgebras."""
    h1, hi, hj, hk = (u.scale(_HALF) for u in (Q_ONE, Q_I, Q_J, Q_K))
    gens = [
        HMatrix.sparse(2, {(0, 1): h1, (1, 0): -h1}),
        HMatrix.sparse(2, {(0, 0): hj, (1, 1): -hj}),
        HMatrix.sparse(2, {(0, 1): -hj, (1, 0): -hj}),
        HMatrix.sparse(2, {(0, 1): hi, (1, 0): -hi}),
        HMatrix.sparse(2, {(0, 0): hj, (1, 1): hj}),
        HMatrix.sparse(2, {(0, 1): hk, (1, 0): -hk}),
    ]
    return LieBasis("sostar4_A", QUATERNIONIC, gens,
                    [f"A{i}" for i in range(1, 7)])


def basis_su2_sl2_S() -> LieBasis:
    """Block-diagonal su(2) + sl(2,R) basis with the same structure constants
    as the A basis of so*(4)."""
    h = _HALF
    ih = ExactComplex(0, h)
    gens = [
        CMatrix.sparse(4, {(0, 1): ih, (1, 0): ih}),
        CMatrix.sparse(4, {(0, 1): -h, (1, 0): h}),
        CMatrix.sparse(4, {(0, 0): ih, (1, 1): -ih}),
        CMatrix.sparse(4, {(2, 3): -h, (3, 2): -h}),
        CMatrix.sparse(4, {(2, 3): -h, (3, 2): h}),
        CMatrix.sparse(4, {(2, 2): -h, (3, 3): h}),
    ]
    return LieBasis("su2_sl2_S", COMPLEX_EXACT, gens,
                    [f"S{i}" for i in range(1, 7)])


# ---------------------------------------------------------------------------
# su(3,1) and so*(6)
# ---------------------------------------------------------------------------


def basis_su31() -> LieBasis:
    """Fifteen 4x4 generators of su(3,1), I_{3,1} s I_{3,1} = -s^dagger.

    s_1..s_8 carry the conjugated su(3) corner (see module docstring),
    s_9..s_14 are the boosts mixing the fourth direction, s_15 the trace
    part with exp(sqrt6*pi*s_15) = i*I_4.
    """
    lam = gellmann()
    gens: list[CMatrix] = []
    zero3x1 = CMatrix.zeros(3, 1)
    zero1x3 = CMatrix.zeros(1, 3)
    zero1x1 = CMatrix.zeros(1, 1)
    for i in range(8):
        corner = lam[i].conj()
        gens.append(from_blocks([[corner, zero3x1], [zero1x3, zero1x1]]))
    h = _HALF
    ih = ExactComplex(0, h)
    gens.append(CMatrix.sparse(4, {(2, 3): -h, (3, 2): -h}))   # s9
    gens.append(CMatrix.sparse(4, {(2, 3): ih, (3, 2): -ih}))  # s10
    gens.append(CMatrix.sparse(4, {(1, 3): h, (3, 1): h}))     # s11
    gens.append(CMatrix.sparse(4, {(1, 3): -ih, (3, 1): ih}))  # s12
    gens.append(CMatrix.sparse(4, {(0, 3): -h, (3, 0): -h}))   # s13
    gens.append(CMatrix.sparse(4, {(0, 3): ih, (3, 0): -ih}))  # s14
    iw = ExactComplex(0, ExactScalar(_HALF) / ExactScalar.sqrt6())  # i/(2 sqrt 6)
    gens.append(CMatrix.diag([iw, iw, iw, -3 * iw]))           # s15
    return LieBasis("su31", COMPLEX_EXACT, gens, [f"s{i}" for i in range(1, 16)])


def basis_sostar6_quat() -> LieBasis:
    """Fifteen quaternionic 3x3 generators of so*(6), rev_transpose(a) = -a.

    Prefactor 1/2 on every generator; a_15 = j*I_3/sqrt6 so that
    exp(sqrt6*pi*a_15) = -I_3 (quaternionic), i.e. -I_6 embedded.
    """
    h = _HALF
    h1, hi, hj, hk = (u.scale(h) for u in (Q_ONE, Q_I, Q_J, Q_K))
    s3 = ExactScalar.sqrt3()
    inv_s3 = ExactScalar(1) / s3
    w = ExactScalar(h) * inv_s3          # 1/(2 sqrt 3)
    v = ExactScalar(1) / ExactScalar.sqrt6()  # 1/sqrt6 = (1/2) * sqrt2/sqrt3
    gens = [
        HMatrix.sparse(3, {(1, 2): hj, (2, 1): hj}),                # a1
        HMatrix.sparse(3, {(1, 2): h1, (2, 1): -h1}),               # a2
        HMatrix.sparse(3, {(1, 1): -hj, (2, 2): hj}),               # a3
        HMatrix.sparse(3, {(0, 2): hj, (2, 0): hj}),                # a4
        HMatrix.sparse(3, {(0, 2): h1, (2, 0): -h1}),               # a5
        HMatrix.sparse(3, {(0, 1): hj, (1, 0): hj}),                # a6
        HMatrix.sparse(3, {(0, 1): h1, (1, 0): -h1}),               # a7
        HMatrix.sparse(3, {(0, 0): Quaternion(0, 0, ExactScalar(-2) * w),
                           (1, 1): Quaternion(0, 0, w),
                           (2, 2): Quaternion(0, 0, w)}),           # a8
        HMatrix.sparse(3, {(1, 2): hi, (2, 1): -hi}),               # a9
        HMatrix.sparse(3, {(1, 2): hk, (2, 1): -hk}),               # a10
        HMatrix.sparse(3, {(0, 2): hi, (2, 0): -hi}),               # a11
        HMatrix.sparse(3, {(0, 2): hk, (2, 0): -hk}),               # a12
        HMatrix.sparse(3, {(0, 1): hi, (1, 0): -hi}),               # a13
        HMatrix.sparse(3, {(0, 1): hk, (1, 0): -hk}),               # a14
        HMatrix.diag([Quaternion(0, 0, v)] * 3),                    # a15
    ]
    return LieBasis("sostar6_quat", QUATERNIONIC, gens,
                    [f"a{i}" for i in range(1, 16)])


def basis_sostar6_complex() -> LieBasis:
    """The embedded so*(6) basis after diagonalizing the Hermitian structure:
    block form on su(3) with conjugate lower block, plus six boosts."""
    lam = gellmann()
    zero3 = CMatrix.zeros(3, 3)
    gens: list[CMatrix] = []
    for i in range(8):
        gens.append(from_blocks([[lam[i], zero3], [zero3, lam[i].conj()]]))
    for idx in (1, 4, 6):  # lambda_2, lambda_5, lambda_7 (real ones)
        l = lam[idx]
        gens.append(from_blocks([[zero3, -l], [l, zero3]]))
        il = l.scale(C_I)
        gens.append(from_blocks([[zero3, il], [il, zero3]]))
    iw = ExactComplex(0, ExactScalar(1) / ExactScalar.sqrt6())
    gens.append(CMatrix.diag([iw] * 3 + [-iw] * 3))
    return LieBasis("sostar6_complex", COMPLEX_EXACT, gens,
                    [f"a{i}" for i in range(1, 16)])


# ---------------------------------------------------------------------------
# generic bases for the three quaternionic families
# ---------------------------------------------------------------------------

SL_H = "sl_H"
SP_STAR = "sp_star"
SO_STAR = "so_star"

_UNITS = {"1": Q_ONE, "i": Q_I, "j": Q_J, "k": Q_K}


def generic_basis(family: str, n: int, p: int | None = None,
                  q: int | None = None) -> LieBasis:
    """Canonical unit-coefficient basis for sl(n,H), sp*(p,q) or so*(2n).

    Off-diagonal generators place one quaternion unit in slot (i,j) together
    with the partner entry in (j,i) forced by the defining involution;
    diagonal generators carry the allowed imaginary units.  Dimensions come
    out to 4n^2-1, n(2n+1), and n(2n-1) respectively.
    """
    name, gens, labels = generic_generators(family, n, p, q)
    return LieBasis(name, QUATERNIONIC, gens, labels)


def generic_generators(family: str, n: int, p: int | None = None,
                       q: int | None = None) -> tuple[str, list, list]:
    """(name, generators, labels) of `generic_basis`, with no LieBasis
    built."""
    if n < 1:
        raise ValueError("n must be positive")
    if family == SO_STAR:
        return _generic_sostar(n)
    if family == SP_STAR:
        if p is None or q is None:
            raise ValueError("sp_star requires p and q")
        if p < 0 or q < 0 or p + q != n:
            raise ValueError("sp_star requires p + q = n with p, q >= 0")
        return _generic_spstar(p, q)
    if family == SL_H:
        return _generic_slh(n)
    raise ValueError(f"unknown family {family!r}")


def _generic_sostar(n: int) -> tuple[str, list, list]:
    gens, labels = [], []
    for i in range(n):
        for j in range(i + 1, n):
            for name, u in _UNITS.items():
                # partner forced by rev_transpose(a) = -a: a_ji = -reversion(a_ij)
                partner = -u.reversion()
                gens.append(HMatrix.sparse(n, {(i, j): u, (j, i): partner}))
                labels.append(f"e{i}{j}_{name}")
    for i in range(n):
        gens.append(HMatrix.sparse(n, {(i, i): _UNITS["j"]}))
        labels.append(f"d{i}_j")
    return f"so_star_n{n}", gens, labels


def _generic_spstar(p: int, q: int) -> tuple[str, list, list]:
    n = p + q
    eta = [1] * p + [-1] * q
    gens, labels = [], []
    for i in range(n):
        for j in range(i + 1, n):
            for name, u in _UNITS.items():
                # partner forced by dagger(a) I_pq + I_pq a = 0:
                # a_ji = -eta_i eta_j conj(a_ij)
                partner = u.conj().scale(-eta[i] * eta[j])
                gens.append(HMatrix.sparse(n, {(i, j): u, (j, i): partner}))
                labels.append(f"e{i}{j}_{name}")
    for i in range(n):
        for name in ("i", "j", "k"):
            gens.append(HMatrix.sparse(n, {(i, i): _UNITS[name]}))
            labels.append(f"d{i}_{name}")
    return f"sp_star_p{p}q{q}", gens, labels


def _generic_slh(n: int) -> tuple[str, list, list]:
    gens, labels = [], []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for name, u in _UNITS.items():
                gens.append(HMatrix.sparse(n, {(i, j): u}))
                labels.append(f"e{i}{j}_{name}")
    for i in range(n):
        for name in ("i", "j", "k"):
            gens.append(HMatrix.sparse(n, {(i, i): _UNITS[name]}))
            labels.append(f"d{i}_{name}")
    for i in range(n - 1):
        gens.append(HMatrix.sparse(n, {(i, i): Quaternion(1),
                                       (n - 1, n - 1): Quaternion(-1)}))
        labels.append(f"d{i}_re")
    return f"sl_H_n{n}", gens, labels
