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

Triality is an automorphism (Baez, The Octonions, Bull. AMS 39 (2002),
section 2.4), and the shared tensor is proven as one: the step is one exact
28 x 28 matrix P (`triality_map`), which `apply_triality` applies.
`verify_triality` builds P once, expands the brackets of V alone and checks
that P carries V's structure tensor to itself (`StructureTensor.preserved_by`);
together with the exact cycle that gives the tensors of L and R without
expanding them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .clifford import PAIRS, SpinBasisSet, spin26_generators
from .hmatrix import CMatrix, linear_combinations
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


def triality_map(quartets: TrialityQuartets) -> CMatrix:
    """The triality step as the exact 28 x 28 matrix P over the planes in
    PAIRS order: P[i][a] is the coefficient of old generator a in new
    generator i.  Within each quartet (positions ordered as in the setup)
    the generators mix by the transition matrix conjugated with the row
    signs, D H D or D G D for D = diag(row_signs); P is zero elsewhere.
    A plane in no quartet raises KeyError."""
    index = {pos: n for n, pos in enumerate(PAIRS)}
    signs = quartets.row_signs
    place = {}  # plane -> (its transition matrix's rows, its quartet, its row)
    for matrix, positions in [(quartets.H, quartets.b_prime)] + [
            (quartets.G, [row[c] for row in quartets.b_families]) for c in range(6)]:
        grid = matrix.entries
        for r, pos in enumerate(positions):
            place[pos] = (grid, positions, r)
    entries = {}
    for i, pos in enumerate(PAIRS):
        grid, positions, r = place[pos]
        for c, coeff in enumerate(grid[r]):
            entries[i, index[positions[c]]] = coeff if signs[r] * signs[c] > 0 else -coeff
    return CMatrix.sparse(len(PAIRS), entries)


def apply_triality(p: CMatrix, rep: SpinRep) -> SpinRep:
    """One step of the triality cycle L -> V -> R -> L: new generator i is
    sum_a P[i][a] old_a for the map p = P of `triality_map`, all 28 of them
    from one product of P with the old generators stacked as the rows of
    one 28 x 64 integer form (`hmatrix.linear_combinations`)."""
    new = linear_combinations(p, [rep.generators[pos] for pos in PAIRS])
    return SpinRep(_NEXT_NAME[rep.name], dict(zip(PAIRS, new)))


# the form I_{2,6} of spin(2,6), built once: the matrix is immutable
_I26 = CMatrix.diag([1, 1] + [-1] * 6)


def is_real_matrix(m: CMatrix) -> bool:
    return m.conj() == m


def respects_i26_antisymmetry(m: CMatrix) -> bool:
    return (_I26 @ (-m.transpose()) @ _I26 - m).is_zero()


def verify_triality(spin: SpinBasisSet | None = None) -> VerificationReport:
    """Runs the complete triality verification: quartet structure, the exact
    cycle, reality and orthogonality of the vector basis, and preservation of
    the structure tensor.

    Only V's brackets are expanded.  The shared tensor f = f^V of L, V and R
    follows from checks of this suite and one on the integer forms:

    * V = P(L) by construction, and P(V) = R and P(R) = L are checked
      exactly, for the map P of `triality_map`.
    * H^3 = G^3 = I is checked, so P (quartet blocks D H D and D G D) is
      invertible.  V is independent over R (`LieBasis` raises otherwise) and
      real (checked), so it is independent over C, and so are R = P(V) and
      L = P(R): their expansions in the bracket are unique.
    * If P preserves f (`StructureTensor.preserved_by`), then [R_i, R_j] =
      sum_ab P_ia P_jb [V_a, V_b] = sum_k f_ijk R_k, so f^R = f, and from
      L = P(R) in the same way f^L = f.

    So the tensor line is the conjunction of the two cycle identities and
    the preservation check; the invertibility of P and the reality of V
    have their own lines."""
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

    p = triality_map(quartets)
    vector = apply_triality(p, left)
    rep_out.check("vector basis is manifestly real",
                  all(is_real_matrix(m) for m in vector.generators.values()))
    rep_out.check("vector basis satisfies I26 (-V^T) I26 = V",
                  all(respects_i26_antisymmetry(m)
                      for m in vector.generators.values()))
    # V_ij is s at (i, j) and, by the form I26 = diag(eta), -eta_i eta_j s at (j, i)
    eta = (1, 1) + (-1,) * 6
    rep_out.check("each V_ij acts in its own plane with the catalogued sign",
                  all(m == CMatrix.sparse(8, {(i, j): VECTOR_SIGNS[i, j],
                                              (j, i): -eta[i] * eta[j] * VECTOR_SIGNS[i, j]})
                      for (i, j), m in vector.generators.items()))

    back_right = apply_triality(p, vector)
    to_right = all((back_right.generators[pos] - right.generators[pos]).is_zero()
                   for pos in PAIRS)
    rep_out.check("second application lands exactly on the right-handed basis",
                  to_right)
    back_left = apply_triality(p, back_right)
    to_left = all((back_left.generators[pos] - left.generators[pos]).is_zero()
                  for pos in PAIRS)
    rep_out.check("third application is the exact identity", to_left)

    rep_out.check("L, V, R share one structure tensor (exact)",
                  to_right and to_left and vector.as_lie_basis()
                  .structure_constants().preserved_by(p))
    return rep_out
