"""Clifford algebras Cl(7,0) and Cl(2,6), the spin(2,6) generators, and the
exact identification of their chiral blocks with so*(8).

Construction chain:

* seven anticommuting 8x8 generators squaring to +1 build Cl(7,0);
* doubling them produces the signature (+,+,-,-,-,-,-,-) generators of
  Cl(2,6), whose products are block diagonal;
* half-products S_ij = Gamma_i Gamma_j / 2 (with six conventional sign
  flips) split into left and right 8x8 chiral blocks L_ij, R_ij;
* each chiral block satisfies the antisymmetry and quaternionic-structure
  identities that characterize so*(8) inside so(8,C);
* a 28-parameter linear dictionary rewrites the generic 4x4 quaternionic
  element of so*(8) exactly as sum theta_ij L_ij.

Sign conventions: the sixth Cl(7,0) generator in the g5 slot is taken with
the opposite overall sign to the raw sigma_y (x) gamma1 gamma5 product; with
that choice (and only that choice) all 28 dictionary identities hold with the
coefficient table below.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .constants import dirac, pauli
from .hmatrix import (CMatrix, HMatrix, embedded_quaternionic_structure,
                      from_blocks, kron)
from .quaternion import Quaternion
from .report import VerificationReport
from .scalars import C_I, ExactComplex, ExactScalar

PAIRS: list[tuple[int, int]] = [(i, j) for i in range(8) for j in range(i + 1, 8)]

SIGN_FLIPS: list[tuple[int, int]] = [(1, 2), (1, 5), (1, 7), (2, 4), (2, 6), (4, 7)]


@dataclass
class CliffordBasis:
    """Anticommuting generator set with its metric signature."""

    generators: list[CMatrix]
    metric: list[int]

    def validate(self) -> None:
        """Exact anticommutator check: {g_i, g_j} = 2 metric_i delta_ij."""
        gens = self.generators
        n = gens[0].rows
        for i, gi in enumerate(gens):
            for j in range(i, len(gens)):
                gj = gens[j]
                anti = gi @ gj + gj @ gi
                if i == j:
                    expected = CMatrix.identity(n).scale(2 * self.metric[i])
                    if not (anti - expected).is_zero():
                        raise ValueError(f"generator {i} squares incorrectly")
                elif not anti.is_zero():
                    raise ValueError(f"generators {i}, {j} do not anticommute")


def cl7_basis() -> CliffordBasis:
    """Seven 8x8 generators of Cl(7,0) from Pauli/Dirac tensor products."""
    sx, sy, sz = pauli()
    id2 = CMatrix.identity(2)
    g0, g1, g2, g3, g5 = dirac()
    mi = ExactComplex(0, -1)
    gens = [
        kron(id2, g1 @ g3).scale(mi),
        kron(sz, g3).scale(C_I),
        kron(id2, g1).scale(mi),
        kron(sy, g1 @ g2).scale(mi),
        -kron(sy, g1 @ g5),
        kron(sx, g3).scale(C_I),
        -kron(sy, g0 @ g1),
    ]
    return CliffordBasis(gens, [1] * 7)


def cl26_basis() -> CliffordBasis:
    """Eight 16x16 generators of Cl(2,6), block anti-diagonal by construction."""
    g = cl7_basis().generators
    zero8 = CMatrix.zeros(8, 8)
    id8 = CMatrix.identity(8)
    gens = [from_blocks([[zero8, id8], [id8, zero8]])]
    for mu in range(1, 8):
        m = from_blocks([[zero8, g[mu - 1]], [-g[mu - 1], zero8]])
        gens.append(m.scale(C_I) if mu == 1 else m)
    return CliffordBasis(gens, [1, 1, -1, -1, -1, -1, -1, -1])


@dataclass
class SpinBasisSet:
    """The 28 spin(2,6) generators and their chiral 8x8 blocks."""

    S: dict  # (i, j) -> CMatrix 16x16
    L: dict  # (i, j) -> CMatrix 8x8 (top-left block)
    R: dict  # (i, j) -> CMatrix 8x8 (bottom-right block)
    sign_flips: list


def spin26_generators() -> SpinBasisSet:
    """S_ij = Gamma_i Gamma_j / 2 with the conventional sign flips applied,
    split into left/right chiral blocks.

    Raises if any S_ij fails to be block diagonal (a construction bug).
    """
    gamma = cl26_basis().generators
    s_map, l_map, r_map = {}, {}, {}
    flip_set = set(SIGN_FLIPS)
    for (i, j) in PAIRS:
        m = _half_product(gamma, i, j)
        if (i, j) in flip_set:
            m = -m
        top_left, top_right, bottom_left, bottom_right = _blocks(m)
        if not (top_right.is_zero() and bottom_left.is_zero()):
            raise ValueError(f"S_{i}{j} has a nonzero off-diagonal block")
        s_map[(i, j)] = m
        l_map[(i, j)] = top_left
        r_map[(i, j)] = bottom_right
    return SpinBasisSet(S=s_map, L=l_map, R=r_map, sign_flips=list(SIGN_FLIPS))


def _half_product(gamma: list, i: int, j: int) -> CMatrix:
    """Gamma_i Gamma_j / 2, before any sign flip."""
    return (gamma[i] @ gamma[j]).scale(ExactComplex(ExactScalar(Fraction(1, 2))))


def _blocks(m: CMatrix) -> list:
    """The 8x8 blocks of a 16x16 matrix: top-left, top-right, bottom-left,
    bottom-right."""
    return [m._block(r, r + 8, c, c + 8) for r in (0, 8) for c in (0, 8)]


def check_sostar8_structure(rep: str, spin: SpinBasisSet | None = None) -> VerificationReport:
    """Exact structure checks identifying a chiral block with so*(8).

    For every generator s of the chosen block: J s* J^{-1} = s (quaternionic
    structure, J = diag(eps,...)) and -s^T = s (antisymmetry, orthogonal
    structure with the identity form).  Also verifies J J* = -I.
    """
    if rep not in ("L", "R"):
        raise ValueError("rep must be 'L' or 'R'")
    if spin is None:
        spin = spin26_generators()
    gens = spin.L if rep == "L" else spin.R
    rep_report = VerificationReport(claim_id=f"sostar8_structure_{rep}")
    j = embedded_quaternionic_structure(4)
    jj = j @ j.conj()
    rep_report.check("J J* = -I", (jj + CMatrix.identity(8)).is_zero())
    j_inv = -j.conj()
    for (i, k), s in sorted(gens.items()):
        conj_ok = (j @ s.conj() @ j_inv - s).is_zero()
        anti_ok = (s.transpose() + s).is_zero()
        rep_report.check(f"{rep}_{i}{k} quaternionic and antisymmetric",
                         conj_ok and anti_ok,
                         None if (conj_ok and anti_ok) else s)
    return rep_report


# ---------------------------------------------------------------------------
# generic so*(8) element and the 28-parameter dictionary
# ---------------------------------------------------------------------------


def sostar8_generic(a: list) -> HMatrix:
    """The generic 4x4 quaternionic so*(8) element with 28 real parameters.

    Index layout (1-based, matching the labels below): slot (r,c) above the
    diagonal holds four consecutive parameters (real, i, j, k); the j-diagonal
    holds a_1, a_14, a_23, a_28.  Satisfies rev_transpose(A) = -A for every
    parameter vector.
    """
    if len(a) != 28:
        raise ValueError("expected 28 parameters")
    a = [ExactScalar.coerce(x) for x in a]
    half = ExactScalar(Fraction(1, 2))

    def quat(re, xi, yj, zk) -> Quaternion:
        return Quaternion(re * half, xi * half, yj * half, zk * half)

    z = ExactScalar(0)
    # upper-triangular slot -> (real, i, j, k) parameter indices (1-based)
    slots = {(0, 1): (2, 3, 4, 5), (0, 2): (6, 7, 8, 9), (0, 3): (10, 11, 12, 13),
             (1, 2): (15, 16, 17, 18), (1, 3): (19, 20, 21, 22), (2, 3): (24, 25, 26, 27)}
    diag = {0: 1, 1: 14, 2: 23, 3: 28}
    grid = [[Quaternion(0)] * 4 for _ in range(4)]
    for r in range(4):
        grid[r][r] = quat(z, z, a[diag[r] - 1], z)
    for (r, c), (p_re, p_i, p_j, p_k) in slots.items():
        upper = quat(a[p_re - 1], a[p_i - 1], a[p_j - 1], a[p_k - 1])
        grid[r][c] = upper
        grid[c][r] = -upper.reversion()
    return HMatrix(grid)


# a-parameter -> signed combination of theta_{ij}; table rows are
# (target index, [(sign, (i, j)), ...])
_DICTIONARY: dict[int, list[tuple[int, tuple[int, int]]]] = {
    1:  [(1, (0, 1)), (-1, (2, 3)), (1, (4, 5)), (1, (6, 7))],
    14: [(1, (0, 1)), (-1, (2, 3)), (-1, (4, 5)), (-1, (6, 7))],
    23: [(1, (0, 1)), (1, (2, 3)), (1, (4, 5)), (-1, (6, 7))],
    28: [(1, (0, 1)), (1, (2, 3)), (-1, (4, 5)), (1, (6, 7))],
    2:  [(1, (4, 6)), (-1, (5, 7))],
    3:  [(1, (0, 3)), (-1, (1, 2))],
    4:  [(1, (5, 6)), (-1, (4, 7))],
    5:  [(1, (1, 3)), (-1, (0, 2))],
    6:  [(1, (2, 6)), (-1, (3, 7))],
    7:  [(1, (1, 4)), (-1, (0, 5))],
    8:  [(1, (3, 6)), (-1, (2, 7))],
    9:  [(1, (1, 5)), (-1, (0, 4))],
    10: [(1, (3, 5)), (-1, (2, 4))],
    11: [(1, (1, 6)), (-1, (0, 7))],
    12: [(1, (2, 5)), (-1, (3, 4))],
    13: [(1, (1, 7)), (-1, (0, 6))],
    15: [(1, (2, 4)), (1, (3, 5))],
    16: [(-1, (0, 7)), (-1, (1, 6))],
    17: [(1, (2, 5)), (1, (3, 4))],
    18: [(1, (0, 6)), (1, (1, 7))],
    19: [(1, (2, 6)), (1, (3, 7))],
    20: [(1, (0, 5)), (1, (1, 4))],
    21: [(1, (2, 7)), (1, (3, 6))],
    22: [(-1, (0, 4)), (-1, (1, 5))],
    24: [(-1, (4, 6)), (-1, (5, 7))],
    25: [(1, (0, 3)), (1, (1, 2))],
    26: [(-1, (4, 7)), (-1, (5, 6))],
    27: [(1, (0, 2)), (1, (1, 3))],
}


def theta_to_a(theta: dict) -> list[ExactScalar]:
    """Rotation/boost parameters theta_{ij} -> 28 quaternionic parameters a.

    The composite satisfies embed(sostar8_generic(theta_to_a(theta))) =
    sum theta_ij L_ij exactly; as a linear map it is a bijection of the
    28-dimensional parameter space.
    """
    zero = ExactScalar(0)
    theta_sc = {}
    for key, val in theta.items():
        i, j = key
        if not (0 <= i < j <= 7):
            raise ValueError(f"bad plane index {key}")
        theta_sc[key] = ExactScalar.coerce(val)
    a = []
    for idx in range(1, 29):
        acc = zero
        for sign, pair in _DICTIONARY[idx]:
            v = theta_sc.get(pair)
            if v is not None:
                acc = acc + (v if sign > 0 else -v)
        a.append(acc)
    return a


def dictionary_matrix() -> list[list[int]]:
    """The dictionary as an exact 28x28 integer matrix.

    Rows follow the a-parameters 1..28; columns the planes (i,j) in
    lexicographic order.
    """
    col_of = {pair: idx for idx, pair in enumerate(PAIRS)}
    rows = []
    for idx in range(1, 29):
        row = [0] * 28
        for sign, pair in _DICTIONARY[idx]:
            row[col_of[pair]] = sign
        rows.append(row)
    return rows


def verify_sostar8(spin: SpinBasisSet | None = None) -> VerificationReport:
    """Full verification suite for the spin(2,6) = so*(8) identification:
    Clifford relations, block structure, both chiral structure checks, and
    the exact 28-parameter dictionary."""
    from . import linalg
    from .hmatrix import is_sostar_algebra

    rep = VerificationReport(claim_id="sostar8")
    cl7 = cl7_basis()
    try:
        cl7.validate()
        rep.check("Cl(7,0) relations exact (21 pairs + 7 squares)", True)
    except ValueError as exc:
        rep.check("Cl(7,0) relations exact", False, str(exc))
    cl26 = cl26_basis()
    try:
        cl26.validate()
        rep.check("Cl(2,6) relations exact with signature (+,+,-,-,-,-,-,-)",
                  cl26.metric == [1, 1, -1, -1, -1, -1, -1, -1])
    except ValueError as exc:
        rep.check("Cl(2,6) relations exact", False, str(exc))
    if spin is None:
        spin = spin26_generators()
    # both checks read the generators themselves, not how they were built
    off_diagonal = [pair for pair, m in sorted(spin.S.items())
                    if not all(b.is_zero() for b in _blocks(m)[1:3])]
    blocks_ok = len(spin.S) == 28 and not off_diagonal
    rep.check("28 spin generators, block diagonal", blocks_ok,
              None if blocks_ok else {"generators": len(spin.S),
                                      "off_diagonal": off_diagonal})
    # the planes whose L_ij is the negative of the unflipped Gamma_i Gamma_j / 2
    flips = [pair for pair in PAIRS
             if (spin.L[pair] + _blocks(_half_product(cl26.generators, *pair))[0])
             .is_zero()]
    flips_ok = len(flips) == 6 and flips == spin.sign_flips
    rep.check("six conventional sign flips recorded", flips_ok,
              flips if flips_ok else {"applied": flips,
                                      "recorded": spin.sign_flips})
    for sub in (check_sostar8_structure("L", spin), check_sostar8_structure("R", spin)):
        rep.check(f"structure checks ({sub.claim_id})", sub.passed)

    # dictionary: embed(A(a(theta))) = sum theta_ij L_ij, one plane at a time
    all_ok = True
    for pair in PAIRS:
        a = theta_to_a({pair: 1})
        lhs = sostar8_generic(a).embed()
        if not (lhs - spin.L[pair]).is_zero():
            all_ok = False
            rep.check(f"dictionary identity at plane {pair}", False, lhs)
    rep.check("dictionary identity embed(A(a(theta))) = sum theta L (28 planes)",
              all_ok)
    # generic element is always in the algebra
    probe = sostar8_generic([ExactScalar(Fraction(n * n - 3, 7)) for n in range(28)])
    rep.check("generic element satisfies rev_transpose(A) = -A",
              is_sostar_algebra(probe))
    dict_rows = [[ExactScalar(v) for v in row] for row in dictionary_matrix()]
    rep.check("dictionary is a rank-28 bijection", linalg.rank(dict_rows) == 28)
    return rep
