"""Lie-algebra machinery: ordered bases, exact structure constants, Killing
signatures, commutant dimensions, and a float matrix exponential.

Structure constants are computed by exact linear solves: generators are
vectorized over the real coefficient field Q(sqrt2, sqrt3) (a quaternion entry
contributes four coordinates, a complex entry two) and every bracket is
expanded in the basis in a single batched elimination.  A bracket leaving the
real span raises, which doubles as the closure check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from . import linalg
from .hmatrix import CMatrix, HMatrix
from .scalars import ExactComplex, ExactScalar

QUATERNIONIC = "quaternionic"
COMPLEX_EXACT = "complex-exact"


def bracket(x, y):
    """Matrix commutator [x, y] = x y - y x (HMatrix or exact CMatrix)."""
    return x @ y - y @ x


def _coords_h(m: HMatrix) -> list[ExactScalar]:
    out = []
    for row in m.entries:
        for q in row:
            out.extend((q.t, q.x, q.y, q.z))
    return out


def _coords_c(m: CMatrix) -> list[ExactScalar]:
    out = []
    for row in m.entries:
        for e in row:
            out.extend((e.re, e.im))
    return out


class LieBasis:
    """Ordered list of generators with labels and a realization tag.

    Generators must share shape and realization and be linearly independent
    over the reals (checked by exact rank on construction).
    """

    def __init__(self, name: str, realization: str, generators: Sequence,
                 labels: Sequence[str] | None = None) -> None:
        if realization not in (QUATERNIONIC, COMPLEX_EXACT):
            raise ValueError(f"unknown realization {realization!r}")
        gens = list(generators)
        if not gens:
            raise ValueError("empty basis")
        if realization == QUATERNIONIC:
            if not all(isinstance(g, HMatrix) for g in gens):
                raise TypeError("quaternionic basis requires HMatrix generators")
        else:
            if not all(isinstance(g, CMatrix) for g in gens):
                raise TypeError("complex-exact basis requires CMatrix generators")
        shape = (gens[0].rows, gens[0].cols)
        if any((g.rows, g.cols) != shape for g in gens):
            raise ValueError("generators must share one shape")
        self.name = name
        self.realization = realization
        self.generators = gens
        self.labels = list(labels) if labels is not None else [
            f"{name}_{i + 1}" for i in range(len(gens))]
        if len(self.labels) != len(gens):
            raise ValueError("labels/generators length mismatch")
        if linalg.rank(self._coordinate_rows()) != len(gens):
            raise ValueError("generators are linearly dependent over the reals")
        self._tensor: StructureTensor | None = None

    def __len__(self) -> int:
        return len(self.generators)

    @property
    def dim(self) -> int:
        return len(self.generators)

    def coords(self, m) -> list[ExactScalar]:
        if self.realization == QUATERNIONIC:
            return _coords_h(m)
        return _coords_c(m)

    def _coordinate_rows(self) -> list[list[ExactScalar]]:
        return [self.coords(g) for g in self.generators]

    def embedded(self) -> "LieBasis":
        """Complex-exact basis of 2x2-block images of a quaternionic basis."""
        if self.realization == COMPLEX_EXACT:
            return self
        return LieBasis(self.name + "_embedded", COMPLEX_EXACT,
                        [g.embed() for g in self.generators], self.labels)

    def structure_constants(self) -> "StructureTensor":
        if self._tensor is None:
            self._tensor = structure_constants(self)
        return self._tensor

    def to_json(self) -> dict:
        tensor = self.structure_constants()
        kd = killing(self)
        return {
            "name": self.name,
            "realization": self.realization,
            "labels": list(self.labels),
            "generators": [g.to_json() for g in self.generators],
            "structure_constants": tensor.to_triplets(),
            "killing_signature": list(kd.signature),
        }


@dataclass
class StructureTensor:
    """Sparse antisymmetric tensor f with [g_i, g_j] = sum_k f[i,j,k] g_k."""

    dim: int
    table: dict = field(default_factory=dict)  # (i, j) i<j -> {k: ExactScalar}

    def get(self, i: int, j: int, k: int) -> ExactScalar:
        if i == j:
            return ExactScalar(0)
        if i < j:
            return self.table.get((i, j), {}).get(k, ExactScalar(0))
        return -self.table.get((j, i), {}).get(k, ExactScalar(0))

    def row(self, i: int, j: int) -> dict:
        if i == j:
            return {}
        if i < j:
            return self.table.get((i, j), {})
        return {k: -v for k, v in self.table.get((j, i), {}).items()}

    def __eq__(self, other) -> bool:
        if not isinstance(other, StructureTensor):
            return NotImplemented
        if self.dim != other.dim:
            return False
        keys = set(self.table) | set(other.table)
        for key in keys:
            a = self.table.get(key, {})
            b = other.table.get(key, {})
            for k in set(a) | set(b):
                if a.get(k, ExactScalar(0)) != b.get(k, ExactScalar(0)):
                    return False
        return True

    def jacobi_holds(self) -> bool:
        """Exact Jacobi identity on every index triple."""
        n = self.dim
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    acc: dict[int, ExactScalar] = {}
                    for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                        for m, f1 in self.row(a, b).items():
                            for l, f2 in self.row(m, c).items():
                                cur = acc.get(l)
                                acc[l] = f1 * f2 if cur is None else cur + f1 * f2
                    if any(not v.is_zero() for v in acc.values()):
                        return False
        return True

    def to_triplets(self) -> list:
        out = []
        for (i, j) in sorted(self.table):
            for k in sorted(self.table[(i, j)]):
                v = self.table[(i, j)][k]
                if not v.is_zero():
                    out.append([i, j, k, v.to_json()])
        return out


def structure_constants(basis: LieBasis) -> StructureTensor:
    """Expand every bracket [g_i, g_j] (i<j) in the basis, exactly.

    Raises ValueError if the basis is linearly dependent or some bracket
    falls outside the real span (basis not closed).
    """
    gens = basis.generators
    n = len(gens)
    columns = [basis.coords(g) for g in gens]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    targets = [basis.coords(bracket(gens[i], gens[j])) for (i, j) in pairs]
    try:
        sols = linalg.solve_batch(columns, targets)
    except ValueError as exc:
        raise ValueError(f"basis {basis.name!r} is not closed under the bracket "
                         f"or is degenerate: {exc}") from exc
    table: dict = {}
    for (pair, coeffs) in zip(pairs, sols):
        row = {k: v for k, v in enumerate(coeffs) if not v.is_zero()}
        if row:
            table[pair] = row
    return StructureTensor(n, table)


@dataclass
class KillingData:
    """Killing form data for a basis.

    `matrix` is the raw Killing matrix B_ij = Tr(ad_i ad_j).  `signature`
    counts (negative, positive, null) directions of the invariant form used
    for compactness bookkeeping: on the Killing-nondegenerate part this is
    exactly the Killing signature; directions in the Killing radical (which
    occur only for the one-dimensional abelian algebra so*(2) in this
    package) are classified by the trace form of the defining representation,
    so that "compact generator" keeps its meaning for central circles.
    `radical_classified` records how many directions needed that fallback.
    `index` is n_plus - n_minus.
    """

    matrix: list
    signature: tuple[int, int, int]
    raw_signature: tuple[int, int, int]
    index: int
    radical_classified: int


def killing(basis: LieBasis) -> KillingData:
    tensor = basis.structure_constants()
    n = tensor.dim
    ad = []
    for i in range(n):
        row: dict = {}
        for k in range(n):
            for l, v in tensor.row(i, k).items():
                row[(k, l)] = v
        ad.append(row)
    zero = ExactScalar(0)
    b = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            acc = zero
            for (k, l), v in ad[i].items():
                w = ad[j].get((l, k))
                if w is not None:
                    acc = acc + v * w
            b[i][j] = acc
            b[j][i] = acc
    raw = linalg.congruence_signature(b)
    n_minus, n_plus, n_zero = raw
    classified = 0
    if n_zero:
        extra_minus, extra_plus, rest = _classify_radical(basis, b)
        n_minus += extra_minus
        n_plus += extra_plus
        classified = extra_minus + extra_plus
        n_zero = rest
    sig = (n_minus, n_plus, n_zero)
    return KillingData(matrix=b, signature=sig, raw_signature=raw,
                       index=sig[1] - sig[0], radical_classified=classified)


def _classify_radical(basis: LieBasis, b) -> tuple[int, int, int]:
    """Classify Killing-null directions by the defining-representation trace form."""
    n = len(b)
    rad = _nullspace_basis(b)
    minus = plus = zero = 0
    for vec in rad:
        elem = None
        for coeff, gen in zip(vec, basis.generators):
            if coeff.is_zero():
                continue
            if basis.realization == QUATERNIONIC:
                term = gen.embed().scale(ExactComplex(coeff))
            else:
                term = gen.scale(ExactComplex(coeff))
            elem = term if elem is None else elem + term
        if elem is None:
            zero += 1
            continue
        t = (elem @ elem).trace().re
        s = t.sign()
        if s < 0:
            minus += 1
        elif s > 0:
            plus += 1
        else:
            zero += 1
    return minus, plus, zero


def _nullspace_basis(rows) -> list[list[ExactScalar]]:
    n = len(rows)
    work = [list(r) for r in rows]
    pivots = linalg.rref(work)
    free = [c for c in range(n) if c not in pivots]
    basis_vecs = []
    for fc in free:
        vec = [ExactScalar(0)] * n
        vec[fc] = ExactScalar(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -work[r][fc]
        basis_vecs.append(vec)
    return basis_vecs


def compact_generator_count(basis: LieBasis) -> int:
    """Dimension of the maximal negative-definite part of the invariant form.

    Equals n_minus of the Killing signature whenever the Killing form is
    nondegenerate.  Raises if some direction cannot be classified.
    """
    kd = killing(basis)
    if kd.signature[2]:
        raise ValueError("invariant form is degenerate: "
                         f"{kd.signature[2]} unclassifiable directions")
    return kd.signature[0]


def commutant_dimension(basis: LieBasis) -> int:
    """Complex dimension of {X : [X, g] = 0 for all generators g}.

    Requires a complex-exact realization; embed a quaternionic basis first.
    The stacked commutator system is solved by exact elimination.
    """
    if basis.realization != COMPLEX_EXACT:
        raise ValueError("commutant requires a complex-exact basis; "
                         "use .embedded() for quaternionic bases")
    m = basis.generators[0].rows
    if basis.generators[0].cols != m:
        raise ValueError("commutant requires square generators")
    rows = []
    for g in basis.generators:
        ge = g.entries
        for r in range(m):
            for c in range(m):
                row = []
                for alpha in range(m):
                    for beta in range(m):
                        coeff = ExactComplex(0)
                        if alpha == r:
                            coeff = coeff + ge[beta][c]
                        if beta == c:
                            coeff = coeff - ge[r][alpha]
                        row.append(coeff)
                rows.append(row)
    return linalg.nullspace_dimension(rows)


def matrix_exp(m, tol: float = 1e-12):
    """Matrix exponential of a complex numpy array by scaling and squaring.

    The Taylor series of the scaled matrix is summed until the next term is
    below the squaring-adjusted tolerance; the result is squared back up.
    Accuracy bottoms out at double precision, well below the 1e-9 used by
    every verification in this package.
    """
    if isinstance(m, CMatrix):
        raise ValueError("matrix_exp operates on float matrices "
                         "(use CMatrix.to_numpy())")
    import numpy as np
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix_exp requires a square matrix")
    norm = float(np.linalg.norm(a, 1))
    s = 0
    if norm > 0.5:
        s = max(0, int(math.ceil(math.log2(norm / 0.5))))
    a_scaled = a / (2 ** s)
    n = a.shape[0]
    result = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    threshold = tol / (8.0 * (2 ** s)) if tol > 0 else 0.0
    for k in range(1, 64):
        term = term @ a_scaled / k
        result = result + term
        if float(np.linalg.norm(term, 1)) <= threshold:
            break
    for _ in range(s):
        result = result @ result
    return result
