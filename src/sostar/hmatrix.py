"""Quaternion-valued and complex-valued matrices with the membership predicates
for the quaternionic matrix groups.

Both matrix types share one exact, immutable base and differ only in their
entry type: HMatrix entries are exact quaternions, CMatrix entries exact
complex numbers (the 2x2 embedding of an HMatrix is a CMatrix).  Neither ever
rounds, and their products skip zero entries.  Float matrices, which only
exponentials produce, are complex numpy arrays: `CMatrix.to_numpy` is the one
crossing from exact to float, and every float comparison takes an explicit
tolerance, finite and nonnegative.

Conventions:

* reversion-transpose and conjugate-transpose (dagger) are the two
  anti-homomorphisms of M_n(H); plain transposition and plain conjugation are
  deliberately *not* homomorphic and are exposed only so tests can exhibit
  the failure.
* SO*(2n) members satisfy rev_transpose(O) @ O = I with unit Study
  determinant; its algebra is rev_transpose(a) = -a.
* Sp*(p,q) members satisfy dagger(A) @ I_pq @ A = I_pq, equivalently they
  preserve the skew reversion-form j*I_pq.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from . import linalg
from .quaternion import Quaternion, Q_ZERO, Q_ONE, Q_J
from .scalars import C_ONE, C_ZERO, ZERO, ExactComplex, ExactScalar

DEFAULT_TOL = 1e-9


def _sparse_product(left, right) -> list[tuple]:
    """Nonzero pattern of left @ right, row by row (Gustavson's row-wise
    product): each nonzero left[i][k] meets only the nonzeros of row k of
    `right`.

    Only the accumulated entries are tested for zero, so terms that cancel
    leave no entry behind.
    """
    if left.cols != right.rows:
        raise ValueError("shape mismatch in matrix product")
    right_rows = right._nonzeros()
    out = []
    for left_row in left._nonzeros():
        acc = {}
        for k, a in left_row:
            for j, b in right_rows[k]:
                prev = acc.get(j)
                acc[j] = a * b if prev is None else prev + a * b
        out.append(tuple(sorted((j, e) for j, e in acc.items() if not e.is_zero())))
    return out


class _ExactMatrix:
    """n x m matrix over an exact entry ring, immutable.

    A subclass names its ring by the entry type `_entry` with its `_zero` and
    `_one`; the ring-specific operations live on the subclass.

    Besides `entries`, a matrix holds its nonzero pattern: per row, the
    (column, entry) pairs of its nonzero entries in column order.  The public
    constructor computes it from `entries` when it is first needed; an
    operation hands it to the trusted constructor `_from_nonzeros` together
    with the result, so products, sums and coordinates touch only nonzeros.
    """

    __slots__ = ("rows", "cols", "entries", "_nz")

    _entry: type
    _zero: object
    _one: object
    _json_tags: dict = {}  # written between "cols" and "entries" by to_json

    def __init__(self, entries: Sequence[Sequence]) -> None:
        coerce = self._entry.coerce
        grid = tuple(tuple(map(coerce, row)) for row in entries)
        if not grid or not grid[0]:
            raise ValueError(f"{type(self).__name__} cannot be empty")
        width = len(grid[0])
        if any(len(r) != width for r in grid):
            raise ValueError("ragged rows")
        _set_entries(self, grid)
        _set_rows(self, len(grid))
        _set_cols(self, width)
        _set_nz(self, None)

    @classmethod
    def _from_nonzeros(cls, cols: int, nonzeros: Sequence[tuple]):
        """The matrix with `cols` columns whose rows hold the nonzero
        (column, entry) pairs `nonzeros`, in column order.  Trusted: the
        entries must already have the entry type and be nonzero."""
        zero = cls._zero
        grid = []
        for pairs in nonzeros:
            row = [zero] * cols
            for j, e in pairs:
                row[j] = e
            grid.append(tuple(row))
        m = object.__new__(cls)
        _set_entries(m, tuple(grid))
        _set_rows(m, len(grid))
        _set_cols(m, cols)
        _set_nz(m, tuple(nonzeros))
        return m

    def _nonzeros(self) -> tuple:
        """Per row, the tuple of (column, entry) pairs of its nonzero
        entries, in column order."""
        nz = self._nz
        if nz is None:
            nz = tuple(tuple((j, e) for j, e in enumerate(row) if not e.is_zero())
                       for row in self.entries)
            _set_nz(self, nz)
        return nz

    def _map_nonzeros(self, f):
        """The matrix of f(e) at each nonzero entry e.  `f` must keep nonzero
        entries nonzero, as negation, the involutions and multiplication by
        a nonzero element do: both entry rings are division rings."""
        return self._from_nonzeros(
            self.cols, [tuple((j, f(e)) for j, e in row) for row in self._nonzeros()])

    def _zeros_like(self):
        return self._from_nonzeros(self.cols, ((),) * self.rows)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def sparse(cls, n: int, entries: dict):
        """n x n matrix from {(row, col): entry}, zero elsewhere."""
        grid = [[cls._zero] * n for _ in range(n)]
        for (r, c), v in entries.items():
            grid[r][c] = v
        return cls(grid)

    @classmethod
    def identity(cls, n: int):
        return cls.diag([cls._one] * n)

    @classmethod
    def zeros(cls, rows: int, cols: int):
        return cls([[cls._zero] * cols for _ in range(rows)])

    @classmethod
    def diag(cls, values: Iterable):
        vals = list(values)
        return cls.sparse(len(vals), {(i, i): v for i, v in enumerate(vals)})

    # -- entry-wise arithmetic and transposition -------------------------------

    def _check_same_shape(self, other) -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def _merge(self, other, op):
        """op(self, other) entry-wise, for op = add or sub, merging the two
        nonzero patterns row by row."""
        self._check_same_shape(other)
        zero = self._zero
        out = []
        for left_row, right_row in zip(self._nonzeros(), other._nonzeros()):
            if right_row:
                acc = dict(left_row)
                for j, b in right_row:
                    e = op(acc.get(j, zero), b)
                    if e.is_zero():
                        del acc[j]
                    else:
                        acc[j] = e
                left_row = tuple(sorted(acc.items()))
            out.append(left_row)
        return self._from_nonzeros(self.cols, out)

    def __add__(self, other):
        return self._merge(other, self._entry.__add__)

    def __sub__(self, other):
        return self._merge(other, self._entry.__sub__)

    def __neg__(self):
        return self._map_nonzeros(self._entry.__neg__)

    def transpose(self):
        """Plain transpose.  Not a homomorphism over the quaternions."""
        columns = [[] for _ in range(self.cols)]
        for i, row in enumerate(self._nonzeros()):
            for j, e in row:
                columns[j].append((i, e))
        return self._from_nonzeros(self.rows, [tuple(c) for c in columns])

    def trace(self):
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        acc = self._zero
        for i in range(self.rows):
            acc = acc + self.entries[i][i]
        return acc

    def is_zero(self) -> bool:
        return not any(self._nonzeros())

    def coords(self) -> list[ExactScalar]:
        """Real coordinates in row-major order: (re, im) per complex entry,
        (t, x, y, z) per quaternion entry."""
        parts, k = self._entry._parts, len(self._entry._fields)
        width = self.cols * k
        out = [ZERO] * (self.rows * width)
        for i, row in enumerate(self._nonzeros()):
            for j, e in row:
                start = i * width + j * k
                out[start:start + k] = parts(e)
        return out

    # -- value semantics and serialization -------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def to_json(self) -> dict:
        return {"rows": self.rows, "cols": self.cols, **self._json_tags,
                "entries": [e.to_json() for row in self.entries for e in row]}

    @classmethod
    def from_json(cls, obj: dict):
        rows, cols = obj["rows"], obj["cols"]
        flat = [cls._entry.from_json(e) for e in obj["entries"]]
        return cls([flat[i * cols:(i + 1) * cols] for i in range(rows)])

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.rows}x{self.cols})"


_set_entries = _ExactMatrix.entries.__set__
_set_rows = _ExactMatrix.rows.__set__
_set_cols = _ExactMatrix.cols.__set__
_set_nz = _ExactMatrix._nz.__set__


class HMatrix(_ExactMatrix):
    """n x m matrix of quaternions, immutable, exact."""

    __slots__ = ()
    _entry, _zero, _one = Quaternion, Q_ZERO, Q_ONE

    def __matmul__(self, other: "HMatrix") -> "HMatrix":
        return HMatrix._from_nonzeros(other.cols, _sparse_product(self, other))

    def scale(self, s) -> "HMatrix":
        """Multiply every entry by a central (real field) scalar."""
        s = ExactScalar.coerce(s)
        if s.is_zero():
            return self._zeros_like()
        return self._map_nonzeros(lambda e: e.scale(s))

    def left_mul(self, q: Quaternion) -> "HMatrix":
        q = Quaternion.coerce(q)
        if q.is_zero():
            return self._zeros_like()
        return self._map_nonzeros(q.__mul__)

    # -- involutions ---------------------------------------------------------

    def conj_entries(self) -> "HMatrix":
        return self._map_nonzeros(Quaternion.conj)

    def rev_entries(self) -> "HMatrix":
        return self._map_nonzeros(Quaternion.reversion)

    def rev_transpose(self) -> "HMatrix":
        """Entry-wise reversion followed by transposition (anti-homomorphism)."""
        return self.rev_entries().transpose()

    def dagger(self) -> "HMatrix":
        """Entry-wise conjugation followed by transposition (anti-homomorphism)."""
        return self.conj_entries().transpose()

    # -- embedding and determinant --------------------------------------------

    def embed(self) -> "CMatrix":
        """Replace each quaternion entry by its 2x2 complex block.

        Multiplicative homomorphism M_n(H) -> M_2n(C); dagger maps to the
        complex conjugate-transpose and rev_transpose to the plain transpose.
        """
        out = []
        for row in self._nonzeros():
            halves = ([], [])
            for j, q in row:
                for half, block_row in zip(halves, q.embed()):
                    for col, e in enumerate(block_row, 2 * j):
                        if not e.is_zero():
                            half.append((col, e))
            out += map(tuple, halves)
        return CMatrix._from_nonzeros(2 * self.cols, out)

    def study_det(self) -> ExactComplex:
        """Determinant of the complex 2n x 2n image (exact Bareiss elimination).

        Real and nonnegative for every quaternionic matrix, and multiplicative.
        """
        if self.rows != self.cols:
            raise ValueError("Study determinant of a non-square matrix")
        return self.embed().det()


class CMatrix(_ExactMatrix):
    """n x m complex matrix with exact (ExactComplex) entries, immutable."""

    __slots__ = ()
    _entry, _zero, _one = ExactComplex, C_ZERO, C_ONE

    # Every CMatrix is exact (float matrices are numpy arrays); the constant
    # stays for callers that label CMatrix work by it, such as the benchmark's
    # tracer.
    mode = "exact"
    _json_tags = {"mode": mode}

    def __matmul__(self, other: "CMatrix") -> "CMatrix":
        return CMatrix._from_nonzeros(other.cols, _sparse_product(self, other))

    def scale(self, s) -> "CMatrix":
        s = ExactComplex.coerce(s)
        if s.is_zero():
            return self._zeros_like()
        return self._map_nonzeros(s.__mul__)

    def conj(self) -> "CMatrix":
        return self._map_nonzeros(ExactComplex.conj)

    def dagger(self) -> "CMatrix":
        return self.conj().transpose()

    def det(self) -> ExactComplex:
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        return linalg.det_bareiss([list(row) for row in self.entries])

    def inverse(self) -> "CMatrix":
        """Exact inverse by Gauss-Jordan elimination."""
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        aug = [list(row) + list(unit)
               for row, unit in zip(self.entries, CMatrix.identity(n).entries)]
        pivots = linalg.rref(aug, ncols=n)
        if len(pivots) < n:
            raise ValueError("matrix is singular")
        return CMatrix([row[n:] for row in aug])

    def to_numpy(self):
        """The float image as a complex numpy array: the one place where exact
        matrices cross over to floats."""
        import numpy
        return numpy.array([[complex(e) for e in row] for row in self.entries],
                           dtype=complex)


def kron(a: CMatrix, b: CMatrix) -> CMatrix:
    """Kronecker product of CMatrix factors."""
    out = []
    for i in range(a.rows):
        for k in range(b.rows):
            row = []
            for j in range(a.cols):
                for l in range(b.cols):
                    row.append(a.entries[i][j] * b.entries[k][l])
            out.append(row)
    return CMatrix(out)


def from_blocks(blocks: Sequence[Sequence[CMatrix]]) -> CMatrix:
    """Assemble a CMatrix from a 2D grid of blocks.

    The blocks of a block row must share a height, and the block columns the
    widths of the first block row.
    """
    widths = [blk.cols for blk in blocks[0]] if blocks else []
    out = []
    for brow in blocks:
        height = brow[0].rows
        if any(blk.rows != height for blk in brow):
            raise ValueError("blocks of one block row differ in height")
        if [blk.cols for blk in brow] != widths:
            raise ValueError("blocks of one block column differ in width")
        for r in range(height):
            out.append([e for blk in brow for e in blk.entries[r]])
    return CMatrix(out)


# ---------------------------------------------------------------------------
# membership predicates
# ---------------------------------------------------------------------------


def i_pq(p: int, q: int) -> HMatrix:
    """Diagonal form matrix with p entries +1 followed by q entries -1."""
    return HMatrix.diag([Quaternion(1)] * p + [Quaternion(-1)] * q)


def _check_tol(tol: float) -> None:
    """Reject a tolerance that would accept anything (inf, nan) or nothing
    (negative); tol=0 asks for literal equality."""
    if not 0 <= tol < float("inf"):  # false for nan as well
        raise ValueError(f"tolerance must be finite and >= 0, got {tol!r}")


def _abs_le(x: ExactScalar, tol: float) -> bool:
    return abs(x) <= ExactScalar(Fraction(tol))


def _quat_within(qv: Quaternion, tol: float) -> bool:
    return (_abs_le(qv.t, tol) and _abs_le(qv.x, tol) and
            _abs_le(qv.y, tol) and _abs_le(qv.z, tol))


def _hmatrix_within(m: HMatrix, tol: float) -> bool:
    return all(_quat_within(e, tol) for row in m.entries for e in row)


def is_sostar_group(o: HMatrix, tol: float = DEFAULT_TOL) -> bool:
    """Membership in SO*(2n): rev_transpose(O) @ O = I and Study det 1.

    Input is exact; the tolerance bounds the exact deviations, so tol=0 asks
    for literal membership.  Float group elements produced by exponentials are
    checked in embedded form by `is_sostar_group_embedded`.
    """
    _check_tol(tol)
    if o.rows != o.cols:
        raise ValueError("group membership requires a square matrix")
    resid = o.rev_transpose() @ o - HMatrix.identity(o.rows)
    if not _hmatrix_within(resid, tol):
        return False
    det = o.study_det()
    return _abs_le(det.re - ExactScalar(1), tol) and _abs_le(det.im, tol)


def is_sostar_algebra(a: HMatrix) -> bool:
    """Membership in so*(2n): rev_transpose(a) = -a exactly.  That makes each
    diagonal entry a multiple of j, so the real part of the trace vanishes."""
    if a.rows != a.cols:
        raise ValueError("algebra membership requires a square matrix")
    return (a.rev_transpose() + a).is_zero()


def is_spstar_group(a: HMatrix, p: int, q: int, tol: float = DEFAULT_TOL) -> bool:
    """Membership in Sp*(p,q): preserves the quaternion-Hermitian form I_pq.

    Also checks the equivalent characterization through the skew reversion
    form j*I_pq, and unit Study determinant.
    """
    _check_tol(tol)
    if a.rows != a.cols:
        raise ValueError("group membership requires a square matrix")
    n = a.rows
    if p + q != n:
        raise ValueError("p + q must equal the matrix size")
    form = i_pq(p, q)
    resid = a.dagger() @ form @ a - form
    if not _hmatrix_within(resid, tol):
        return False
    jform = form.left_mul(Q_J)
    resid2 = a.rev_transpose() @ jform @ a - jform
    if not _hmatrix_within(resid2, tol):
        return False
    det = a.study_det()
    return _abs_le(det.re - ExactScalar(1), tol) and _abs_le(det.im, tol)


def is_spstar_algebra(a: HMatrix, p: int, q: int) -> bool:
    """Membership in sp*(p,q): dagger(a) I_pq + I_pq a = 0 exactly."""
    if a.rows != a.cols:
        raise ValueError("algebra membership requires a square matrix")
    if p + q != a.rows:
        raise ValueError("p + q must equal the matrix size")
    form = i_pq(p, q)
    return (a.dagger() @ form + form @ a).is_zero()


def is_slh_algebra(a: HMatrix) -> bool:
    """Membership in sl(n, H): purely imaginary quaternionic trace."""
    if a.rows != a.cols:
        raise ValueError("algebra membership requires a square matrix")
    return a.trace().real_part().is_zero()


def quaternionic_structure_commutant_check(m: CMatrix, j: CMatrix) -> bool:
    """True iff J M* J^{-1} = M exactly, for the antilinear structure J (J J* = -I).

    Raises if J fails J J* = -I.
    """
    if not (j @ j.conj() + CMatrix.identity(j.rows)).is_zero():
        raise ValueError("J is not a quaternionic structure (J J* != -I)")
    jinv = -j.conj()  # consequence of J J* = -I
    return (j @ m.conj() @ jinv - m).is_zero()


def embedded_quaternionic_structure(n: int) -> CMatrix:
    """The 2n x 2n image of j*I_n: block-diagonal epsilon blocks."""
    return HMatrix.diag([Q_J] * n).embed()


# Float group elements (from exponentials) are complex numpy arrays; numpy is
# imported inside the functions so that exact-only callers never load it.


def max_abs_diff(a, b) -> float:
    """Entry-wise max-norm distance between two float matrices."""
    import numpy
    a, b = numpy.asarray(a), numpy.asarray(b)
    if a.shape != b.shape:
        raise ValueError("shape mismatch")
    return float(numpy.max(numpy.abs(a - b)))


def _det_is_one(c, tol: float) -> bool:
    import numpy
    return abs(complex(numpy.linalg.det(c)) - 1) <= tol


def is_sostar_group_embedded(c, tol: float = DEFAULT_TOL) -> bool:
    """Embedded-form SO*(2n) membership of a float matrix from an exponential.

    Checks complex orthogonality C^T C = I, the quaternionic structure
    commutation J C* J^{-1} = C (J^{-1} = -J* because J J* = -I), and det C = 1.
    """
    import numpy
    _check_tol(tol)
    rows, cols = numpy.shape(c)
    if rows != cols or rows % 2:
        raise ValueError("embedded membership requires an even square matrix")
    j = embedded_quaternionic_structure(rows // 2).to_numpy()
    return (max_abs_diff(c.T @ c, numpy.eye(rows)) <= tol
            and max_abs_diff(j @ c.conj() @ -j.conj(), c) <= tol
            and _det_is_one(c, tol))


def is_su_group_embedded(c, p: int, q: int, tol: float = DEFAULT_TOL) -> bool:
    """Pseudo-unitary membership C^dagger I_pq C = I_pq with det C = 1, for a
    float matrix."""
    import numpy
    _check_tol(tol)
    rows, cols = numpy.shape(c)
    if rows != cols or rows != p + q:
        raise ValueError("shape mismatch for SU(p,q) membership")
    form = numpy.diag([1.0] * p + [-1.0] * q)
    return max_abs_diff(c.conj().T @ form @ c, form) <= tol and _det_is_one(c, tol)
