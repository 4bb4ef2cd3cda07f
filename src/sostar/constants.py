"""Constant matrices: Pauli, anti-Hermitian Gell-Mann, Dirac, and the
change-of-basis matrix that diagonalizes the Hermitian structure of so*(6).

All matrices are exact.  The su(3) basis used throughout is the
anti-Hermitian normalization (lambda = -lambda^dagger) with
Tr(lambda_i lambda_i) = -1/2.
"""

from __future__ import annotations

from fractions import Fraction

from .hmatrix import CMatrix
from .scalars import ExactComplex, ExactScalar

_H = Fraction(1, 2)


def pauli() -> list[CMatrix]:
    """The Pauli matrices sigma_x, sigma_y, sigma_z."""
    i = ExactComplex(0, 1)
    sx = CMatrix([[0, 1], [1, 0]])
    sy = CMatrix([[0, -i], [i, 0]])
    sz = CMatrix([[1, 0], [0, -1]])
    return [sx, sy, sz]


def gellmann() -> list[CMatrix]:
    """Anti-Hermitian su(3) basis lambda_1..lambda_8.

    lambda_2, lambda_5, lambda_7 are real; the rest purely imaginary.
    Normalized so that Tr(lambda_i lambda_i) = -1/2.
    """
    h = _H
    ih = ExactComplex(0, h)
    lam1 = CMatrix([[0, ih, 0], [ih, 0, 0], [0, 0, 0]])
    lam2 = CMatrix([[0, -h, 0], [h, 0, 0], [0, 0, 0]])
    lam3 = CMatrix([[ih, 0, 0], [0, -ih, 0], [0, 0, 0]])
    lam4 = CMatrix([[0, 0, ih], [0, 0, 0], [ih, 0, 0]])
    lam5 = CMatrix([[0, 0, -h], [0, 0, 0], [h, 0, 0]])
    lam6 = CMatrix([[0, 0, 0], [0, 0, ih], [0, ih, 0]])
    lam7 = CMatrix([[0, 0, 0], [0, 0, -h], [0, h, 0]])
    s3 = ExactScalar.sqrt3()
    w = (ExactScalar(_H) / s3)  # 1/(2 sqrt 3)
    iw = ExactComplex(0, w)
    lam8 = CMatrix([[iw, 0, 0], [0, iw, 0], [0, 0, -2 * iw]])
    return [lam1, lam2, lam3, lam4, lam5, lam6, lam7, lam8]


def dirac() -> list[CMatrix]:
    """Dirac matrices [gamma0, gamma1, gamma2, gamma3, gamma5] in the Dirac basis."""
    sx, sy, sz = pauli()
    zero2 = CMatrix.zeros(2, 2)
    id2 = CMatrix.identity(2)
    from .hmatrix import from_blocks
    gamma0 = from_blocks([[id2, zero2], [zero2, -id2]])
    gammas = [gamma0]
    for s in (sx, sy, sz):
        gammas.append(from_blocks([[zero2, s], [-s, zero2]]))
    gamma5 = from_blocks([[zero2, id2], [id2, zero2]])
    gammas.append(gamma5)
    return gammas


def u_sostar6() -> CMatrix:
    """Unitary change of basis diagonalizing the Hermitian form preserved by
    the embedded so*(6); conjugation by it carries the embedded quaternionic
    generators to the block form built on su(3)."""
    r = ExactScalar(1) / ExactScalar.sqrt2()
    i_ = ExactComplex(0, r)
    return CMatrix([
        [0, 0, i_, 0, 0, -i_],
        [0, 0, r, 0, 0, r],
        [0, i_, 0, 0, -i_, 0],
        [0, r, 0, 0, r, 0],
        [i_, 0, 0, -i_, 0, 0],
        [r, 0, 0, r, 0, 0],
    ])
