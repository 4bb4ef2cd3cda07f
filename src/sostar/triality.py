"""The order-3 triality automorphism cycling the two chiral spin
representations and the vector representation of so*(8) = spin(2,6).

After the change of basis U = diag(i,i,1,...,1) (and additionally
P = diag(-1,1,...,1) on the right-handed block), the 28 generators group into
seven quartets of commuting generators: one all-compact quartet of the plane
rotations (0,1), (2,3), (4,5), (6,7) acted on by the real matrix H, and six
families of two boosts plus two rotations acted on by the complex matrix G.
Both matrices cube to the identity.

Convention discovered by exact search (see tests): the quartet vectors enter
the maps with row signs (+1, -1, -1, -1), i.e. the transition matrices act as
D H D and D G D with D = diag(1,-1,-1,-1).  With that convention a single
application carries the left-handed basis onto a manifestly real vector-
representation basis V (each V_ij supported on the (i,j) plane with the sign
table below), a second application lands exactly on the right-handed basis,
and the third returns the start; all three bases share one structure tensor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .clifford import PAIRS, SpinBasisSet, spin26_generators
from .hmatrix import CMatrix
from .liealg import COMPLEX_EXACT, LieBasis
from .report import VerificationReport
from .scalars import ExactComplex

B_PRIME: list[tuple[int, int]] = [(0, 1), (2, 3), (4, 5), (6, 7)]

# six families of four commuting generators; rows a, b, c, d
B_FAMILIES: list[list[tuple[int, int]]] = [
    [(0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7)],
    [(1, 3), (1, 2), (1, 5), (1, 4), (1, 7), (1, 6)],
    [(5, 7), (4, 7), (3, 7), (3, 6), (2, 4), (2, 5)],
    [(4, 6), (5, 6), (2, 6), (2, 7), (3, 5), (3, 4)],
]

ROW_SIGNS: tuple[int, int, int, int] = (1, -1, -1, -1)

# sign of the (i,j) entry of the vector-representation generator V_ij
VECTOR_SIGNS: dict[tuple[int, int], int] = {
    (0, 1): 1, (0, 2): 1, (0, 3): -1, (0, 4): 1, (0, 5): 1, (0, 6): 1, (0, 7): 1,
    (1, 2): -1, (1, 3): -1, (1, 4): 1, (1, 5): -1, (1, 6): 1, (1, 7): -1,
    (2, 3): 1, (2, 4): 1, (2, 5): -1, (2, 6): 1, (2, 7): -1,
    (3, 4): 1, (3, 5): 1, (3, 6): 1, (3, 7): 1,
    (4, 5): -1, (4, 6): -1, (4, 7): 1,
    (5, 6): -1, (5, 7): -1, (6, 7): -1,
}

_NEXT_NAME = {"L": "V", "V": "R", "R": "L"}


def h_matrix() -> CMatrix:
    """The real quartet transition matrix; cubes to the identity."""
    h = Fraction(1, 2)
    rows = [[-1, -1, 1, 1], [1, 1, 1, 1], [-1, 1, 1, -1], [-1, 1, -1, 1]]
    return CMatrix([[Fraction(v) * h for v in row] for row in rows])


def g_matrix() -> CMatrix:
    """The complex quartet transition matrix; cubes to the identity."""
    h = Fraction(1, 2)
    ih = ExactComplex(0, h)
    rows = [
        [-h, -h, ih, -ih],
        [h, h, ih, -ih],
        [ih, -ih, h, h],
        [-ih, ih, h, h],
    ]
    return CMatrix(rows)


@dataclass
class TrialityQuartets:
    """Quartet grouping plus the transition matrices and row-sign convention."""

    b_prime: list
    b_families: list
    H: CMatrix
    G: CMatrix
    row_signs: tuple


@dataclass
class SpinRep:
    """One of the three triality-related bases, keyed by plane (i, j)."""

    name: str  # "L", "V" or "R"
    generators: dict

    def as_lie_basis(self) -> LieBasis:
        return LieBasis(f"sostar8_{self.name}", COMPLEX_EXACT,
                        [self.generators[p] for p in PAIRS],
                        [f"{self.name}{i}{j}" for (i, j) in PAIRS])


def triality_setup() -> TrialityQuartets:
    return TrialityQuartets(b_prime=list(B_PRIME),
                            b_families=[list(row) for row in B_FAMILIES],
                            H=h_matrix(), G=g_matrix(), row_signs=ROW_SIGNS)


def change_of_basis_u() -> CMatrix:
    return CMatrix.diag([ExactComplex(0, 1)] * 2 + [1] * 6)


def change_of_basis_p() -> CMatrix:
    return CMatrix.diag([-1] + [1] * 7)


def transformed_spin_reps(spin: SpinBasisSet | None = None) -> tuple[SpinRep, SpinRep]:
    """Left and right chiral bases after X -> M^{-1} X M with M = U (left)
    and M = U P (right); both then respect the (2,6)-signature orthogonal
    structure with all-real bilinear form."""
    if spin is None:
        spin = spin26_generators()
    u = change_of_basis_u()
    up = u @ change_of_basis_p()
    u_inv = u.inverse()
    up_inv = up.inverse()
    left = {p: u_inv @ m @ u for p, m in spin.L.items()}
    right = {p: up_inv @ m @ up for p, m in spin.R.items()}
    return SpinRep("L", left), SpinRep("R", right)


def apply_triality(quartets: TrialityQuartets, rep: SpinRep) -> SpinRep:
    """One step of the triality cycle L -> V -> R -> L.

    Within each quartet (positions ordered as in the setup) the generators
    mix by the transition matrix conjugated with the row signs.
    """
    signs = quartets.row_signs
    out: dict = {}

    def mix(matrix: CMatrix, positions: list) -> None:
        vec = [rep.generators[p] for p in positions]
        for r, pos in enumerate(positions):
            acc = None
            for c in range(4):
                coeff = matrix.entries[r][c]
                if signs[r] * signs[c] < 0:
                    coeff = -coeff
                term = vec[c].scale(coeff)
                acc = term if acc is None else acc + term
            out[pos] = acc

    mix(quartets.H, quartets.b_prime)
    for col_idx in range(6):
        mix(quartets.G, [quartets.b_families[r][col_idx] for r in range(4)])
    return SpinRep(_NEXT_NAME[rep.name], out)


def signature_form_26() -> CMatrix:
    return CMatrix.diag([1, 1] + [-1] * 6)


def is_real_matrix(m: CMatrix) -> bool:
    return all(e.im.is_zero() for row in m.entries for e in row)


def respects_i26_antisymmetry(m: CMatrix) -> bool:
    form = signature_form_26()
    return (form @ (-m.transpose()) @ form - m).is_zero()


def verify_triality(spin: SpinBasisSet | None = None) -> VerificationReport:
    """Runs the complete triality verification: quartet structure, the exact
    cycle, reality and orthogonality of the vector basis, and preservation of
    the structure tensor."""
    from .liealg import bracket

    rep_out = VerificationReport(claim_id="triality")
    quartets = triality_setup()
    ident = CMatrix.identity(4)
    h3 = quartets.H @ quartets.H @ quartets.H
    g3 = quartets.G @ quartets.G @ quartets.G
    rep_out.check("H^3 = I exact", (h3 - ident).is_zero(), quartets.H)
    rep_out.check("G^3 = I exact", (g3 - ident).is_zero(), quartets.G)

    left, right = transformed_spin_reps(spin)
    rep_out.check("transformed L respects the (2,6) orthogonal structure",
                  all(respects_i26_antisymmetry(m) for m in left.generators.values()))
    rep_out.check("transformed R respects the (2,6) orthogonal structure",
                  all(respects_i26_antisymmetry(m) for m in right.generators.values()))

    all_quartets = [quartets.b_prime] + [
        [quartets.b_families[r][c] for r in range(4)] for c in range(6)]
    commuting = True
    for group in all_quartets:
        for a_idx in range(4):
            for b_idx in range(a_idx + 1, 4):
                if not bracket(left.generators[group[a_idx]],
                               left.generators[group[b_idx]]).is_zero():
                    commuting = False
    rep_out.check("each quartet consists of four commuting generators", commuting)

    def trace_sign(m: CMatrix) -> int:
        return (m @ m).trace().re.sign()

    rep_out.check("the plane-rotation quartet is wholly compact",
                  all(trace_sign(left.generators[p]) < 0 for p in quartets.b_prime))
    family_pattern = True
    for c in range(6):
        signs = [trace_sign(left.generators[quartets.b_families[r][c]])
                 for r in range(4)]
        if signs != [1, 1, -1, -1]:
            family_pattern = False
    rep_out.check("each family holds two boosts then two rotations", family_pattern)

    vector = apply_triality(quartets, left)
    rep_out.check("vector basis is manifestly real",
                  all(is_real_matrix(m) for m in vector.generators.values()))
    rep_out.check("vector basis satisfies I26 (-V^T) I26 = V",
                  all(respects_i26_antisymmetry(m)
                      for m in vector.generators.values()))
    support_ok = True
    for (i, j), m in vector.generators.items():
        for r in range(8):
            for c in range(8):
                e = m.entries[r][c]
                if (r, c) in ((i, j), (j, i)):
                    if (r, c) == (i, j) and e != ExactComplex(VECTOR_SIGNS[(i, j)]):
                        support_ok = False
                elif not e.is_zero():
                    support_ok = False
    rep_out.check("each V_ij acts in its own plane with the catalogued sign",
                  support_ok)

    back_right = apply_triality(quartets, vector)
    rep_out.check("second application lands exactly on the right-handed basis",
                  all((back_right.generators[p] - right.generators[p]).is_zero()
                      for p in PAIRS))
    back_left = apply_triality(quartets, back_right)
    rep_out.check("third application is the exact identity",
                  all((back_left.generators[p] - left.generators[p]).is_zero()
                      for p in PAIRS))

    t_left = left.as_lie_basis().structure_constants()
    t_vec = vector.as_lie_basis().structure_constants()
    t_right = right.as_lie_basis().structure_constants()
    rep_out.check("L, V, R share one structure tensor (exact)",
                  t_left == t_vec and t_left == t_right)
    return rep_out
