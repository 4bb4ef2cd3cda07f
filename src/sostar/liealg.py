"""Lie-algebra machinery: ordered bases, exact structure constants, Killing
signatures, commutant dimensions, and a float matrix exponential.

Structure constants are computed by exact linear solves: generators are
vectorized over the real coefficient field Q(sqrt2, sqrt3) by their real
coordinates (four per quaternion entry, two per complex entry) and every
bracket is expanded in the basis by one batched, fraction-free elimination
on integer coordinates (`linalg._solve`), which takes the sparse integer
coordinates of each matrix and returns the solutions as one integer form.
That form is the `StructureTensor`'s whole state, so no field element is
built between the brackets and the Killing matrix.  A bracket leaving the
real span raises, which doubles as the closure check.

The brackets expanded are those of the span's reduced echelon basis E, not
of the given basis G (de Graaf, Lie Algebras: Theory and Algorithms, 2000,
computes with matrix Lie algebras in such a basis).  The independence check
of a `LieBasis` is the elimination that reduces the generators, so E and
the exact change of basis T with G = T E are read off its rows: no solve
finds T.  When T = I, which is the case for every generic basis and for
the triality basis V, E is G itself and nothing else runs.  Otherwise the
tensor and the Killing matrix of E are carried to G on integer forms, and
change with the basis only as an exact change of basis does:
B_G = T B_E T^T, so the signature is the same by Sylvester's law.  A dense
basis, such as a recombination of a generic one over Q(sqrt2, sqrt3),
spans an algebra whose E is rational and sparse, so its irrational
brackets are never formed.

The Killing matrix B_ij = Tr(ad_i ad_j) is summed on packed integers: every
structure constant is already an int 4-tuple (a, b, c, d) over {1, sqrt2,
sqrt3, sqrt6} and the tensor's one denominator D, and is packed into one
int by Kronecker substitution (sqrt2 -> 2^S, sqrt3 -> 2^(3S)), so that the
product of two constants is one big-int multiply.  Only products of two
nonzero constants are formed, as outer products of the sparse vectors
u_kl[i] = f[i,k,l].  The slot width S is chosen from the largest numerator
and the dimension so that no slot of a trace sum can overflow, and the
unpacking raises rather than wrap if one ever did.  Each entry becomes one
ExactScalar after a single division by D^2, and the signature is decided by
exact congruence on that ExactScalar matrix, with rational pivots first.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import add, sub
from typing import Sequence

from . import linalg
from .hmatrix import CMatrix, HMatrix, from_blocks, kron
from .scalars import (ZERO, ExactComplex, ExactScalar, _field_product, _from_ints, _mul4,
                      _over_lcm, _split)

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
    over the reals.  That is checked on construction by one elimination with
    the generators as rows and their real coordinates as columns, whose
    reduced rows are kept: they give the reduced echelon basis E of the span
    and the change of basis T with G = T E (`_echelon`), which the structure
    constants and the Killing matrix are computed through.  The check needs
    that elimination anyway, so a basis with T = I pays only a scan of its
    generators' pivot coordinates, and is expanded as it is given.
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
        # one elimination with the generators as rows and their real
        # coordinates as columns: the rank check, and E's reduced rows
        coords = [g._coordinate_ints() for g in gens]
        columns = defaultdict(dict)
        for p, (_, c) in enumerate(coords):
            for index, t in c.items():
                columns[index][p] = t
        order = sorted(columns)
        _, rows, pivots = linalg._eliminate([(1, columns[c]) for c in order])
        if len(pivots) != len(gens):
            raise ValueError("generators are linearly dependent over the reals")
        self._reduced = (coords, order, rows, pivots)
        self._echelon_basis: tuple | None = None
        self._echelon_tensor: StructureTensor | None = None
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

    def _echelon(self) -> tuple:
        """(E, T): the reduced echelon basis E of the span, as matrices, and
        the change of basis T with G = T E as T's integer form (den, {p:
        {q: int 4-tuple}}), or None when T = I.  Built on first use.

        E_q is generator q's reduced row, whose entry at q's pivot
        coordinate c_q is rational; it is scaled to agree with g_q there
        when g_q[c_q] is rational.  E is reduced, so g_p = sum_q (g_p[c_q] /
        E_q[c_q]) E_q, and T is read off with no solve.  Where row q of T is
        the unit row, E_q = g_q and E_q is g_q's own matrix, so a basis that
        is already reduced has T = I and E = G.
        """
        if self._echelon_basis is None:
            coords, order, rows, pivots = self._reduced
            gens = self.generators
            pivot_of = {order[j]: q for j, q in pivots.items()}
            # (q, ints of g_p[c_q]) for each pivot coordinate g_p meets
            hits = [[(pivot_of[i], t) for i, t in c.items() if i in pivot_of]
                    for _, c in coords]
            # row p of T is the unit row when g_p meets no pivot coordinate
            # but its own, and is rational there
            unit = [len(h) == 1 and h[0][0] == p and not any(h[0][1][1:])
                    for p, h in enumerate(hits)]
            if all(unit):
                self._echelon_basis = (gens, None)
            else:
                make = type(gens[0])._from_coordinate_ints
                value, echelon = {}, list(gens)  # value: q -> E_q[c_q]
                for j, q in pivots.items():
                    den, t = coords[q][0], coords[q][1].get(order[j])
                    pivot = rows[q][j][0]
                    value[q] = (Fraction(t[0], den) if t is not None and not any(t[1:])
                                else Fraction(pivot))
                    if not unit[q]:
                        s = value[q] / pivot
                        echelon[q] = make(gens[q].rows, gens[q].cols, s.denominator, {
                            order[i]: tuple(s.numerator * z for z in x)
                            for i, x in rows[q].items()})
                # T_pq = g_p[c_q] / E_q[c_q], as g_p's ints and a factor
                terms = [[(q, t, 1 / (coords[p][0] * value[q])) for q, t in h]
                         for p, h in enumerate(hits)]
                den = math.lcm(*(f.denominator for h in terms for _, _, f in h))
                change = {p: {q: tuple(f.numerator * (den // f.denominator) * z for z in t)
                              for q, t, f in h} for p, h in enumerate(terms)}
                self._echelon_basis = (echelon, (den, change))
        return self._echelon_basis

    def _echelon_constants(self) -> "StructureTensor":
        """The structure tensor of E, expanded on first use."""
        if self._echelon_tensor is None:
            self._echelon_tensor = _expand(self.name, self._echelon()[0])
        return self._echelon_tensor

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


class StructureTensor:
    """Sparse antisymmetric tensor f with [g_i, g_j] = sum_k f[i,j,k] g_k.

    Its state is `dim` and the integer form (den, {(i, j): {k: (a, b, c,
    d)}}) for i < j, with f[i,j,k] = (a + b*sqrt2 + c*sqrt3 + d*sqrt6) /
    den.  The form holds no zero entry and no empty row, and den is the lcm
    of the denominators of the coefficients in lowest terms, so each tensor
    has one form and two tensors are equal exactly when their dims and
    forms are.  `StructureTensor(dim, table)` takes {(i, j): {k:
    ExactScalar}} and drops its zeros.  Elements are built only when read:
    `table`, `get`, `row` and `to_triplets` build the ones they return on
    each read.  `jacobi_holds` and `preserved_by` (does a change of basis
    carry the tensor to itself?) run on the ints.
    """

    def __init__(self, dim: int, table: dict | None = None) -> None:
        items = [(pair, k, v) for pair, row in (table or {}).items()
                 for k, v in row.items() if not v.is_zero()]
        den, coords = _over_lcm([v for _, _, v in items])
        rows: dict = {}
        for (pair, k, _), t in zip(items, coords):
            rows.setdefault(pair, {})[k] = t
        self.dim = dim
        self._form = (den, rows)

    @classmethod
    def _from_form(cls, dim: int, form: tuple) -> "StructureTensor":
        """The tensor with the canonical integer form `form`.  Trusted:
        nothing is checked."""
        tensor = object.__new__(cls)
        tensor.dim = dim
        tensor._form = form
        return tensor

    def __eq__(self, other) -> bool:
        if not isinstance(other, StructureTensor):
            return NotImplemented
        return self.dim == other.dim and self._form == other._form

    def __repr__(self) -> str:
        return f"StructureTensor({self.dim}, {self.table!r})"

    @property
    def table(self) -> dict:
        """{(i, j): {k: ExactScalar}} for i < j, built on each read."""
        den, rows = self._form
        return {pair: {k: _from_ints(*t, den) for k, t in row.items()}
                for pair, row in rows.items()}

    def _row_ints(self, i: int, j: int) -> dict:
        """{k: ints} of f[i, j, k] over den, for any i and j."""
        if i == j:
            return {}
        rows = self._form[1]
        if i < j:
            return rows.get((i, j), {})
        return {k: (-a, -b, -c, -d) for k, (a, b, c, d) in rows.get((j, i), {}).items()}

    def get(self, i: int, j: int, k: int) -> ExactScalar:
        den, rows = self._form
        t = rows.get((min(i, j), max(i, j)), {}).get(k) if i != j else None
        if t is None:
            return ZERO
        value = _from_ints(*t, den)
        return value if i < j else -value

    def row(self, i: int, j: int) -> dict:
        den = self._form[0]
        return {k: _from_ints(*t, den) for k, t in self._row_ints(i, j).items()}

    def jacobi_holds(self) -> bool:
        """Exact Jacobi identity on every index triple.  Every product of two
        coefficients lies over den^2, so the sums run on the numerators."""
        n = self.dim
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    acc: dict[int, tuple] = {}
                    for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                        for m, f1 in self._row_ints(a, b).items():
                            for l, f2 in self._row_ints(m, c).items():
                                p = _mul4(f1, f2)
                                cur = acc.get(l)
                                acc[l] = p if cur is None else tuple(map(add, cur, p))
                    if any(any(v) for v in acc.values()):
                        return False
        return True

    def preserved_by(self, p) -> bool:
        """True iff the n x n matrix p carries this tensor to itself:
        sum_ab p_ia p_jb f[a,b,c] = sum_k f[i,j,k] p_kc for every i < j and
        every c.  Then g'_i = sum_a p_ia g_a satisfy [g'_i, g'_j] = sum_k
        f[i,j,k] g'_k, since the commutator is bilinear over commuting
        coefficients (p is a CMatrix, or has real entries).  Reads the
        tensor's integer form and p's and builds no element: on plain ints
        and p's ring table `_ring_mul` when both forms are rational, else on
        4k ints with `scalars._field_product`, the ring product that the
        elements and the matrix products run, each f[a,b,c] lifted into p's
        ring.  The left side lies over den_p^2 den and the right one over
        den_p den, so the right one's numerators are multiplied by den_p.
        Raises ValueError if p is not n x n."""
        n = self.dim
        if (p.rows, p.cols) != (n, n):
            raise ValueError(f"a {p.rows}x{p.cols} map on a tensor of dimension {n}")
        rows = self._form[1]
        dp, prows, prational = p._ints
        k = p._entry._k
        if prational and not any(any(t[1:]) for row in rows.values() for t in row.values()):
            mul, lift, zero = p._ring_mul, (lambda t: t[:1] + zero[1:]), (0,) * k
        else:
            ring_mul = p._ring_mul
            mul = lambda x, y: _field_product(_split(x, k), _split(y, k), k, ring_mul)
            lift = lambda t: tuple(chain.from_iterable((z,) + zero[1:k] for z in t))
            zero = (0,) * (4 * k)
            if prational:
                prows = {i: {a: t + zero[k:] for a, t in row.items()}
                         for i, row in prows.items()}
        full = {}
        for (a, b), row in rows.items():
            full[a, b] = {c: lift(t) for c, t in row.items()}
            full[b, a] = {c: tuple(-z for z in v) for c, v in full[a, b].items()}
        empty = {}
        for i in range(n):
            for j in range(i + 1, n):
                acc = {}
                pj = prows.get(j, empty).items()
                for a, x in prows.get(i, empty).items():
                    for b, y in pj:
                        frow = full.get((a, b))
                        if frow:
                            for c, f in frow.items():
                                acc[c] = tuple(map(add, acc.get(c, zero), mul(f, mul(x, y))))
                for m, f in full.get((i, j), empty).items():
                    for c, y in prows.get(m, empty).items():
                        acc[c] = tuple(map(sub, acc.get(c, zero),
                                           [dp * z for z in mul(f, y)]))
                if any(any(v) for v in acc.values()):
                    return False
        return True

    def to_triplets(self) -> list:
        den, rows = self._form
        return [[i, j, k, _from_ints(*row[k], den).to_json()]
                for (i, j), row in sorted(rows.items()) for k in sorted(row)]


def structure_constants(basis: LieBasis) -> StructureTensor:
    """Expand every bracket [g_i, g_j] (i<j) in the basis, exactly.

    The brackets expanded are those of the basis's reduced echelon basis E
    (`LieBasis._echelon`), with G = T E.  When T = I, E is G itself and
    nothing else runs.  Otherwise f^G follows from f^E by one exact change
    of basis on the integer forms: [g_i, g_j] = sum_c Y_ij[c] e_c with
    Y_ij = sum_ab T_ia T_jb f^E_ab, and Y_ij = sum_k f^G_ijk T_k, solved by
    one `linalg._solve` with the rows of T as its columns.  The result is
    the canonical tensor of G, and no element is built.  Raises ValueError
    if some bracket falls outside the real span (basis not closed).
    """
    tensor = basis._echelon_constants()
    change = basis._echelon()[1]
    if change is None:
        return tensor
    dt, trows = change
    df, frows = tensor._form
    n = tensor.dim
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    targets = []
    for i, j in pairs:
        acc = {}  # Y_ij
        for a, x in trows[i].items():
            for b, y in trows[j].items():
                row = frows.get((a, b)) if a < b else frows.get((b, a))
                if not row:
                    continue
                w = _mul4(x, y)
                _add_scaled(acc, w if a < b else (-w[0], -w[1], -w[2], -w[3]), row)
        targets.append((dt * dt * df, {c: v for c, v in acc.items() if any(v)}))
    den, sols = linalg._solve([(dt, trows[k]) for k in range(n)], targets)
    return StructureTensor._from_form(
        n, (den, {pair: row for pair, row in zip(pairs, sols) if row}))


def _expand(name: str, gens: list) -> StructureTensor:
    """The structure tensor of the generators `gens`, from their brackets.

    Every generator and bracket goes to the elimination as its nonzero
    integer coordinates, read from the matrix's integer form, and the
    solutions come back as the tensor's integer form, so no element of a
    bracket or a coefficient is built.  Raises ValueError, naming the
    basis, if some bracket falls outside the real span.
    """
    n = len(gens)
    columns = [g._coordinate_ints() for g in gens]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    targets = (bracket(gens[i], gens[j])._coordinate_ints() for (i, j) in pairs)
    try:
        den, sols = linalg._solve(columns, targets)
    except ValueError as exc:
        raise ValueError(f"basis {name!r} is not closed under the bracket "
                         f"or is degenerate: {exc}") from exc
    return StructureTensor._from_form(
        n, (den, {pair: row for pair, row in zip(pairs, sols) if row}))


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
    structure constants and no field product.  When the change of basis T
    of `LieBasis._echelon` is not I, that sum runs on the tensor of the
    echelon basis E, and B_G = T B_E T^T is formed on the integer forms
    (`_carried_killing`): the same matrix, from E's sparser tensor.  Its
    signature is decided exactly by congruence on the resulting ExactScalar
    matrix, and Killing-null directions are classified by the trace form of
    the defining representation.
    """
    tensor = basis.structure_constants()
    change = basis._echelon()[1]
    if change is None:
        b = _killing_matrix(tensor)
    else:
        b = _killing_elements(tensor.dim, *_carried_killing(
            change, *_killing_ints(basis._echelon_constants())))
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
    """B_ij = Tr(ad_i ad_j) = sum_{k,l} f[i,k,l] f[j,l,k], as row tuples of
    the ExactScalars of `_killing_ints`."""
    return _killing_elements(tensor.dim, *_killing_ints(tensor))


def _killing_ints(tensor: StructureTensor) -> tuple:
    """(den, {(i, j): int 4-tuple}): the nonzero entries B_ij, i <= j, of
    the Killing matrix over one denominator, the square of the tensor's.

    With the vectors u_kl[i] = f[i,k,l], B = C + C^T + D for
    C = sum_{k<l} u_kl (x) u_lk and D = sum_k u_kk (x) u_kk, so only
    products of two nonzero coefficients are formed.  Every coefficient is
    read from the tensor's integer form, ints (a, b, c, d) over {1, sqrt2,
    sqrt3, sqrt6} and the common denominator D0 (the lcm of all coordinate
    denominators), and packed into the one int
    a + b*2^S + c*2^(3S) + d*2^(4S) (Kronecker substitution:
    sqrt2 -> 2^S, sqrt3 -> 2^(3S)), so each product is one
    big-int multiply, whose monomial sqrt2^p sqrt3^q (p, q <= 2) lands in
    the slot at bit S*(p + 3q).  A slot of an entry of B sums n^2 products
    of at most four terms each, so with M the largest scaled numerator its
    magnitude is at most 4 n^2 M^2 < 2^(S-1) for
    S = 2 bitlen(M) + bitlen(4 n^2) + 1.  Each entry is unpacked once by
    `_slots` and folded with sqrt2^2 = 2 and sqrt3^2 = 3, over D0^2.
    """
    n = tensor.dim
    den, rows = tensor._form
    top = max(map(abs, chain.from_iterable(
        chain.from_iterable(row.values()) for row in rows.values())), default=0)
    shift = 2 * top.bit_length() + (4 * n * n).bit_length() + 1
    # u[k, l] lists the pairs (i, packed f[i, k, l]) of nonzero coefficients
    u = defaultdict(list)
    for (i, j), row in rows.items():
        for k, (a, b, c, d) in row.items():
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
    out = {}
    for i in range(n):
        for j in range(i, n):
            v = cross[i][j] + cross[j][i] + square[i][j]
            if v:
                c00, c10, c20, c01, c11, c21, c02, c12, c22 = _slots(v, shift)
                out[i, j] = (c00 + 2 * c20 + 3 * c02 + 6 * c22, c10 + 3 * c12,
                             c01 + 2 * c21, c11)
    return den * den, out


def _killing_elements(n: int, den: int, entries: dict) -> tuple:
    """The symmetric n x n ExactScalar matrix with the entries {(i, j):
    int 4-tuple} over den for i <= j, zero elsewhere, as row tuples."""
    b = [[ZERO] * n for _ in range(n)]
    for (i, j), t in entries.items():
        b[i][j] = b[j][i] = _from_ints(*t, den)
    return tuple(map(tuple, b))


def _carried_killing(change: tuple, den: int, entries: dict) -> tuple:
    """B_G = T B_E T^T for G = T E, from T's integer form and B_E's
    entries as `_killing_ints` gives them: the Killing matrix of G, in the
    same layout, over den_T^2 den."""
    dt, trows = change
    full = defaultdict(dict)  # B_E's rows
    for (a, c), t in entries.items():
        full[a][c] = full[c][a] = t
    columns = defaultdict(dict)  # T's columns
    for j, row in trows.items():
        for c, t in row.items():
            columns[c][j] = t
    out = {}
    for i, trow in trows.items():
        left = {}  # row i of T B_E
        for a, x in trow.items():
            _add_scaled(left, x, full[a])
        acc = {}  # row i of T B_E T^T
        for c, x in left.items():
            _add_scaled(acc, x, columns[c])
        out.update(((i, j), t) for j, t in acc.items() if j >= i and any(t))
    return dt * dt * den, out


def _add_scaled(acc: dict, w: tuple, row: dict) -> None:
    """acc[c] += w * row[c] for each c of the sparse row, on int 4-tuples."""
    for c, z in row.items():
        s = acc.get(c)
        acc[c] = _mul4(w, z) if s is None else tuple(map(add, s, _mul4(w, z)))


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
