"""Lie-algebra machinery: ordered bases, exact structure constants, Killing
signatures, commutant dimensions, and a float matrix exponential.

Structure constants are computed by exact linear solves: generators are
vectorized over the real coefficient field Q(sqrt2, sqrt3) by their real
coordinates (four per quaternion entry, two per complex entry) and every
bracket is expanded in the basis by one batched, fraction-free elimination
on integer coordinates (`linalg._solve`), which takes the sparse integer
coordinates of each matrix and returns sparse solutions.  A bracket leaving
the real span raises, which doubles as the closure check.

The Killing matrix B_ij = Tr(ad_i ad_j) is summed on packed integers: every
structure constant is scaled by one common denominator D to ints (a, b, c,
d) over {1, sqrt2, sqrt3, sqrt6}, which are packed into one int by
Kronecker substitution (sqrt2 -> 2^S, sqrt3 -> 2^(3S)), so that the product
of two constants is one big-int multiply.  Only products of two nonzero
constants are formed, as outer products of the sparse vectors
u_kl[i] = f[i,k,l].  The slot width S is chosen from the largest numerator
and the dimension so that no slot of a trace sum can overflow, and the
unpacking raises rather than wrap if one ever did.  Each entry becomes one
ExactScalar after a single division by D^2, and the signature is decided by
exact congruence on that ExactScalar matrix.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence

from . import linalg
from .hmatrix import CMatrix, HMatrix, from_blocks, kron
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
        columns = [g._coordinate_ints() for g in gens]
        if len(linalg._eliminate(columns)[2]) != len(gens):
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

    The matrix B_ij = Tr(ad_i ad_j) is summed on packed integers by
    `_killing_matrix`, one big-int multiply per product of two nonzero
    structure constants and no field product.  Its
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

    With the vectors u_kl[i] = f[i,k,l], B = C + C^T + D for
    C = sum_{k<l} u_kl (x) u_lk and D = sum_k u_kk (x) u_kk, so only
    products of two nonzero coefficients are formed.  Every coefficient is
    scaled by the common denominator D0 (the lcm of all coordinate
    denominators) to ints (a, b, c, d) over {1, sqrt2, sqrt3, sqrt6} and
    packed into the one int a + b*2^S + c*2^(3S) + d*2^(4S) (Kronecker
    substitution: sqrt2 -> 2^S, sqrt3 -> 2^(3S)), so each product is one
    big-int multiply, whose monomial sqrt2^p sqrt3^q (p, q <= 2) lands in
    the slot at bit S*(p + 3q).  A slot of an entry of B sums n^2 products
    of at most four terms each, so with M the largest scaled numerator its
    magnitude is at most 4 n^2 M^2 < 2^(S-1) for
    S = 2 bitlen(M) + bitlen(4 n^2) + 1.  Each entry is unpacked once by
    `_slots`, folded with sqrt2^2 = 2 and sqrt3^2 = 3, and divided by D0^2.
    """
    n = tensor.dim
    entries = [(i, j, k, v) for (i, j), row in tensor.table.items()
               for k, v in row.items()]
    den, coords = linalg._int_coords([e[3] for e in entries])
    top = max(map(abs, chain.from_iterable(coords)), default=0)
    shift = 2 * top.bit_length() + (4 * n * n).bit_length() + 1
    # u[k, l] lists the pairs (i, packed f[i, k, l]) of nonzero coefficients
    u = defaultdict(list)
    for (i, j, k, _), (a, b, c, d) in zip(entries, coords):
        p = a + (b << shift) + (c << 3 * shift) + (d << 4 * shift)
        u[j, k].append((i, p))
        u[i, k].append((j, -p))
    cross = [[0] * n for _ in range(n)]
    square = [[0] * n for _ in range(n)]
    meetings = [(cross, x, u[l, k]) for (k, l), x in u.items()
                if k < l and (l, k) in u]
    meetings += [(square, x, x) for (k, l), x in u.items() if k == l]
    for acc, x, y in meetings:
        for i, p in x:
            row = acc[i]
            for j, q in y:
                row[j] += p * q
    den2 = den * den
    b = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = cross[i][j] + cross[j][i] + square[i][j]
            if v:
                c00, c10, c20, c01, c11, c21, c02, c12, c22 = _slots(v, shift)
                b[i][j] = b[j][i] = _from_ints(
                    c00 + 2 * c20 + 3 * c02 + 6 * c22, c10 + 3 * c12,
                    c01 + 2 * c21, c11, den2)
    return tuple(map(tuple, b))


def _slots(v: int, shift: int) -> list:
    """The nine signed slots s_0..s_8 of v = sum_t s_t 2^(S t), S = shift,
    each of magnitude below 2^(S-1).  Raises OverflowError when a slot
    reaches that bound or something is left over after the nine slots, so a
    sum that outgrows its slots never wraps into a wrong value silently."""
    half = 1 << (shift - 1)
    mask = (1 << shift) - 1
    out = []
    for _ in range(9):
        s = ((v + half) & mask) - half
        if s == -half:
            raise OverflowError(f"a packed slot reaches 2^{shift - 1}")
        out.append(s)
        v = (v - s) >> shift
    if v:
        raise OverflowError("a packed sum does not fit in nine slots")
    return out


def _classify_radical(basis: LieBasis, b) -> tuple[int, int, int]:
    """Classify Killing-null directions by the defining-representation trace
    form: the sign of Tr(E^2) for the element E of each vector of the
    radical's `linalg.nullspace_basis`, which is never zero."""
    gens = basis.embedded().generators
    signs = []
    for vec in linalg.nullspace_basis(b):
        terms = [g.scale(ExactComplex(c)) for c, g in zip(vec, gens) if not c.is_zero()]
        elem = sum(terms[1:], terms[0])
        signs.append((elem @ elem).trace().re.sign())
    return signs.count(-1), signs.count(1), signs.count(0)


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
    With X flattened row by row, vec(A X B) = (A (x) B^T) vec(X), so
    vec([X, g]) = K_g vec(X) for K_g = I (x) g^T - g (x) I, and the commutant
    is the kernel of the K_g stacked.  Its complex rank is the real rank of
    the columns c and i c of the stack (`CMatrix._complex_columns`) over 2.
    """
    if basis.realization != COMPLEX_EXACT:
        raise ValueError("commutant requires a complex-exact basis; "
                         "use .embedded() for quaternionic bases")
    m = basis.generators[0].rows
    if basis.generators[0].cols != m:
        raise ValueError("commutant requires square generators")
    eye = CMatrix.identity(m)
    stack = from_blocks([[kron(eye, g.transpose()) - kron(g, eye)]
                         for g in basis.generators])
    return m * m - len(linalg._eliminate(stack._complex_columns())[2]) // 2


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
