"""Lie-algebra machinery: ordered bases, exact structure constants, Killing
signatures, commutant dimensions, and a float matrix exponential.

Structure constants are computed by exact linear solves: generators are
vectorized over the real coefficient field Q(sqrt2, sqrt3) by their real
coordinates (four per quaternion entry, two per complex entry) and every
bracket is expanded in the basis by one batched, fraction-free elimination
on integer coordinates (`linalg._solve`), which takes the sparse integer
coordinates of each matrix and returns sparse solutions.  A bracket leaving
the real span raises, which doubles as the closure check.

The Killing matrix B_ij = Tr(ad_i ad_j) is summed on integer coordinates:
every structure constant is scaled by one common denominator D to an int
4-tuple over {1, sqrt2, sqrt3, sqrt6}, the traces are sums of products of
such tuples over the sparse ad matrices, and each entry becomes one
ExactScalar after a single division by D^2.  Its signature is then decided
by exact congruence on that ExactScalar matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from . import linalg
from .hmatrix import CMatrix, HMatrix
from .scalars import ZERO, ExactComplex, ExactScalar, _from_ints

QUATERNIONIC = "quaternionic"
COMPLEX_EXACT = "complex-exact"


def bracket(x, y):
    """Matrix commutator [x, y] = x y - y x (HMatrix or exact CMatrix)."""
    return x @ y - y @ x


# the generator type of each realization
_GENERATOR_TYPES = {QUATERNIONIC: HMatrix, COMPLEX_EXACT: CMatrix}


class LieBasis:
    """Ordered list of generators with labels and a realization tag.

    Generators must share shape and realization and be linearly independent
    over the reals (checked by exact rank on construction).
    """

    def __init__(self, name: str, realization: str, generators: Sequence,
                 labels: Sequence[str] | None = None) -> None:
        gen_type = _GENERATOR_TYPES.get(realization)
        if gen_type is None:
            raise ValueError(f"unknown realization {realization!r}")
        gens = list(generators)
        if not gens:
            raise ValueError("empty basis")
        if not all(isinstance(g, gen_type) for g in gens):
            raise TypeError(f"{realization} basis requires "
                            f"{gen_type.__name__} generators")
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
        if linalg.rank([g.coords() for g in gens]) != len(gens):
            raise ValueError("generators are linearly dependent over the reals")
        self._tensor: StructureTensor | None = None
        self._killing: KillingData | None = None

    def __len__(self) -> int:
        return len(self.generators)

    @property
    def dim(self) -> int:
        return len(self.generators)

    def coords(self, m) -> list[ExactScalar]:
        return m.coords()

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

    def killing(self) -> "KillingData":
        if self._killing is None:
            self._killing = killing(self)
        return self._killing

    def to_json(self) -> dict:
        tensor = self.structure_constants()
        kd = self.killing()
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
    """Sparse antisymmetric tensor f with [g_i, g_j] = sum_k f[i,j,k] g_k.

    `table` holds no zero coefficient and no empty row, so two tensors are
    equal exactly when their (dim, table) are (the dataclass comparison).
    """

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
        return [[i, j, k, row[k].to_json()]
                for (i, j), row in sorted(self.table.items()) for k in sorted(row)]


def structure_constants(basis: LieBasis) -> StructureTensor:
    """Expand every bracket [g_i, g_j] (i<j) in the basis, exactly.

    Every generator and bracket goes to the elimination as its nonzero
    integer coordinates, read from the matrix's integer form, so no element
    of a bracket is ever built.  Raises ValueError if the basis is linearly
    dependent or some bracket falls outside the real span (basis not closed).
    """
    gens = basis.generators
    n = len(gens)
    columns = [g._coordinate_ints() for g in gens]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    targets = (bracket(gens[i], gens[j])._coordinate_ints() for (i, j) in pairs)
    try:
        sols = linalg._solve(columns, targets)
    except ValueError as exc:
        raise ValueError(f"basis {basis.name!r} is not closed under the bracket "
                         f"or is degenerate: {exc}") from exc
    return StructureTensor(n, {pair: row for pair, row in zip(pairs, sols) if row})


@dataclass
class KillingData:
    """Killing form data for a basis.

    `matrix` is the raw Killing matrix B_ij = Tr(ad_i ad_j), a tuple of row
    tuples so the memoized copy behind `LieBasis.killing()` cannot be
    changed in place.  `signature`
    counts (negative, positive, null) directions of the invariant form used
    for compactness bookkeeping: on the Killing-nondegenerate part this is
    exactly the Killing signature; directions in the Killing radical (which
    occur only for the one-dimensional abelian algebra so*(2) in this
    package) are classified by the trace form of the defining representation,
    so that "compact generator" keeps its meaning for central circles.
    `radical_classified` records how many directions needed that fallback.
    `index` is n_plus - n_minus.
    """

    matrix: tuple
    signature: tuple[int, int, int]
    raw_signature: tuple[int, int, int]
    index: int
    radical_classified: int


def killing(basis: LieBasis) -> KillingData:
    """Killing form of the basis and its (classified) signature.

    The matrix B_ij = Tr(ad_i ad_j) is summed on integer coordinates by
    `_killing_matrix`, with no field product in the trace loop.  Its
    signature is decided exactly by congruence on the resulting ExactScalar
    matrix, and Killing-null directions are classified by the trace form of
    the defining representation.
    """
    b = _killing_matrix(basis.structure_constants())
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


def _killing_matrix(tensor: StructureTensor) -> tuple:
    """B_ij = Tr(ad_i ad_j) = sum_{k,l} f[i,k,l] f[j,l,k], as row tuples.

    Every coefficient is scaled by the common denominator D (the lcm of all
    coordinate denominators) to an int 4-tuple over {1, sqrt2, sqrt3, sqrt6},
    so the trace sums run on Python ints with the product table of
    `ExactScalar.__mul__`; each entry is divided by D^2 once at the end.
    The ints stay Python ints: on dense data the scaled numerators reach
    33 bits, so their products would overflow int64.
    """
    n = tensor.dim
    entries = [(i, j, k, v) for (i, j), row in tensor.table.items()
               for k, v in row.items()]
    den, coords = linalg._int_coords([e[3] for e in entries])
    # ad[i][(k, l)] = f[i, k, l], the (l, k) entry of ad_i
    ad: list = [{} for _ in range(n)]
    for (i, j, k, _), t in zip(entries, coords):
        ad[i][(j, k)] = t
        ad[j][(i, k)] = tuple(-x for x in t)
    den2 = den * den
    b = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        adi = ad[i]
        for j in range(i, n):
            adj = ad[j]
            sa = sb = sc = sd = 0
            for (k, l), (a1, b1, c1, d1) in adi.items():
                w = adj.get((l, k))
                if w is not None:
                    # the product table of ExactScalar.__mul__
                    a2, b2, c2, d2 = w
                    sa += a1 * a2 + 2 * b1 * b2 + 3 * c1 * c2 + 6 * d1 * d2
                    sb += a1 * b2 + b1 * a2 + 3 * (c1 * d2 + d1 * c2)
                    sc += a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2)
                    sd += a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2
            if sa or sb or sc or sd:
                b[i][j] = b[j][i] = _from_ints(sa, sb, sc, sd, den2)
    return tuple(map(tuple, b))


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
    n = len(rows[0])
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
    kd = basis.killing()
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
