"""Quaternion-valued and complex-valued matrices with the membership predicates
for the quaternionic matrix groups.

HMatrix entries are exact quaternions and CMatrix entries are exact complex
numbers; neither ever rounds.  Float matrices, which only exponentials
produce, are complex numpy arrays: `CMatrix.to_numpy` is the one crossing
from exact to float, and every float comparison takes an explicit tolerance.

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
from .scalars import ExactComplex, ExactScalar

DEFAULT_TOL = 1e-9


def _as_quat(x) -> Quaternion:
    if isinstance(x, Quaternion):
        return x
    if isinstance(x, (int, Fraction, ExactScalar)):
        return Quaternion(x)
    raise TypeError(f"cannot use {type(x).__name__} as a quaternion entry")


def _as_excomplex(x) -> ExactComplex:
    if isinstance(x, ExactComplex):
        return x
    if isinstance(x, (int, Fraction, ExactScalar)):
        return ExactComplex(x)
    raise TypeError(f"cannot use {type(x).__name__} as an exact complex entry")


class HMatrix:
    """n x m matrix of quaternions, immutable, exact."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence]) -> None:
        grid = tuple(tuple(_as_quat(e) for e in row) for row in entries)
        if not grid or not grid[0]:
            raise ValueError("HMatrix cannot be empty")
        width = len(grid[0])
        if any(len(r) != width for r in grid):
            raise ValueError("ragged rows")
        object.__setattr__(self, "entries", grid)
        object.__setattr__(self, "rows", len(grid))
        object.__setattr__(self, "cols", width)

    def __setattr__(self, name, value):
        raise AttributeError("HMatrix is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "HMatrix":
        return cls([[Q_ONE if i == j else Q_ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "HMatrix":
        return cls([[Q_ZERO] * cols for _ in range(rows)])

    @classmethod
    def diag(cls, values: Iterable) -> "HMatrix":
        vals = [_as_quat(v) for v in values]
        n = len(vals)
        return cls([[vals[i] if i == j else Q_ZERO for j in range(n)] for i in range(n)])

    # -- arithmetic ----------------------------------------------------------

    def _check_same_shape(self, other: "HMatrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __add__(self, other: "HMatrix") -> "HMatrix":
        self._check_same_shape(other)
        return HMatrix([[a + b for a, b in zip(r1, r2)]
                        for r1, r2 in zip(self.entries, other.entries)])

    def __sub__(self, other: "HMatrix") -> "HMatrix":
        self._check_same_shape(other)
        return HMatrix([[a - b for a, b in zip(r1, r2)]
                        for r1, r2 in zip(self.entries, other.entries)])

    def __neg__(self) -> "HMatrix":
        return HMatrix([[-e for e in row] for row in self.entries])

    def __matmul__(self, other: "HMatrix") -> "HMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        cols = other.cols
        out = []
        for i in range(self.rows):
            row = []
            for j in range(cols):
                acc = Q_ZERO
                for k in range(self.cols):
                    a = self.entries[i][k]
                    if a.is_zero():
                        continue
                    b = other.entries[k][j]
                    if b.is_zero():
                        continue
                    acc = acc + a * b
                row.append(acc)
            out.append(row)
        return HMatrix(out)

    def scale(self, s) -> "HMatrix":
        """Multiply every entry by a central (real field) scalar."""
        s = s if isinstance(s, ExactScalar) else ExactScalar(s)
        return HMatrix([[e.scale(s) for e in row] for row in self.entries])

    def left_mul(self, q: Quaternion) -> "HMatrix":
        return HMatrix([[q * e for e in row] for row in self.entries])

    # -- involutions ---------------------------------------------------------

    def transpose(self) -> "HMatrix":
        """Plain transpose.  Not a homomorphism over the quaternions."""
        return HMatrix([[self.entries[i][j] for i in range(self.rows)]
                        for j in range(self.cols)])

    def conj_entries(self) -> "HMatrix":
        return HMatrix([[e.conj() for e in row] for row in self.entries])

    def rev_entries(self) -> "HMatrix":
        return HMatrix([[e.reversion() for e in row] for row in self.entries])

    def rev_transpose(self) -> "HMatrix":
        """Entry-wise reversion followed by transposition (anti-homomorphism)."""
        return self.rev_entries().transpose()

    def dagger(self) -> "HMatrix":
        """Entry-wise conjugation followed by transposition (anti-homomorphism)."""
        return self.conj_entries().transpose()

    def trace(self) -> Quaternion:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        acc = Q_ZERO
        for i in range(self.rows):
            acc = acc + self.entries[i][i]
        return acc

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HMatrix):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols and
                self.entries == other.entries)

    def __hash__(self):
        return hash(self.entries)

    # -- embedding and determinant --------------------------------------------

    def embed(self) -> "CMatrix":
        """Replace each quaternion entry by its 2x2 complex block.

        Multiplicative homomorphism M_n(H) -> M_2n(C); dagger maps to the
        complex conjugate-transpose and rev_transpose to the plain transpose.
        """
        out = [[None] * (2 * self.cols) for _ in range(2 * self.rows)]
        for i in range(self.rows):
            for j in range(self.cols):
                blk = self.entries[i][j].embed()
                out[2 * i][2 * j] = blk[0][0]
                out[2 * i][2 * j + 1] = blk[0][1]
                out[2 * i + 1][2 * j] = blk[1][0]
                out[2 * i + 1][2 * j + 1] = blk[1][1]
        return CMatrix(out)

    def study_det(self) -> ExactComplex:
        """Determinant of the complex 2n x 2n image (exact Bareiss elimination).

        Real and nonnegative for every quaternionic matrix, and multiplicative.
        """
        if self.rows != self.cols:
            raise ValueError("Study determinant of a non-square matrix")
        return self.embed().det()

    def to_json(self) -> dict:
        return {"rows": self.rows, "cols": self.cols,
                "entries": [e.to_json() for row in self.entries for e in row]}

    @classmethod
    def from_json(cls, obj: dict) -> "HMatrix":
        rows, cols = obj["rows"], obj["cols"]
        flat = [Quaternion.from_json(e) for e in obj["entries"]]
        return cls([flat[i * cols:(i + 1) * cols] for i in range(rows)])

    def __repr__(self) -> str:
        return f"HMatrix({self.rows}x{self.cols})"


class CMatrix:
    """n x m complex matrix with exact (ExactComplex) entries, immutable."""

    __slots__ = ("rows", "cols", "entries")

    # Every CMatrix is exact (float matrices are numpy arrays); the constant
    # stays for callers that label CMatrix work by it, such as the benchmark's
    # tracer.
    mode = "exact"

    def __init__(self, entries: Sequence[Sequence]) -> None:
        grid = tuple(tuple(_as_excomplex(e) for e in row) for row in entries)
        if not grid or not grid[0]:
            raise ValueError("CMatrix cannot be empty")
        width = len(grid[0])
        if any(len(r) != width for r in grid):
            raise ValueError("ragged rows")
        object.__setattr__(self, "entries", grid)
        object.__setattr__(self, "rows", len(grid))
        object.__setattr__(self, "cols", width)

    def __setattr__(self, name, value):
        raise AttributeError("CMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "CMatrix":
        return cls([[ExactComplex(1 if i == j else 0) for j in range(n)]
                    for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "CMatrix":
        return cls([[ExactComplex(0)] * cols for _ in range(rows)])

    @classmethod
    def diag(cls, values: Iterable) -> "CMatrix":
        vals = [_as_excomplex(v) for v in values]
        n = len(vals)
        zero = ExactComplex(0)
        return cls([[vals[i] if i == j else zero for j in range(n)] for i in range(n)])

    def _check_same_shape(self, other: "CMatrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __add__(self, other: "CMatrix") -> "CMatrix":
        self._check_same_shape(other)
        return CMatrix([[a + b for a, b in zip(r1, r2)]
                        for r1, r2 in zip(self.entries, other.entries)])

    def __sub__(self, other: "CMatrix") -> "CMatrix":
        self._check_same_shape(other)
        return CMatrix([[a - b for a, b in zip(r1, r2)]
                        for r1, r2 in zip(self.entries, other.entries)])

    def __neg__(self) -> "CMatrix":
        return CMatrix([[-e for e in row] for row in self.entries])

    def __matmul__(self, other: "CMatrix") -> "CMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = ExactComplex(0)
                for k in range(self.cols):
                    a = self.entries[i][k]
                    if a.is_zero():
                        continue
                    b = other.entries[k][j]
                    if b.is_zero():
                        continue
                    acc = acc + a * b
                row.append(acc)
            out.append(row)
        return CMatrix(out)

    def scale(self, s) -> "CMatrix":
        s = _as_excomplex(s)
        return CMatrix([[s * e for e in row] for row in self.entries])

    def transpose(self) -> "CMatrix":
        return CMatrix([[self.entries[i][j] for i in range(self.rows)]
                        for j in range(self.cols)])

    def conj(self) -> "CMatrix":
        return CMatrix([[e.conj() for e in row] for row in self.entries])

    def dagger(self) -> "CMatrix":
        return self.conj().transpose()

    def trace(self) -> ExactComplex:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        acc = ExactComplex(0)
        for i in range(self.rows):
            acc = acc + self.entries[i][i]
        return acc

    def det(self) -> ExactComplex:
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        return linalg.det_bareiss([list(row) for row in self.entries])

    def inverse(self) -> "CMatrix":
        """Exact inverse by Gauss-Jordan elimination."""
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        aug = [list(self.entries[i]) + [ExactComplex(1 if i == j else 0) for j in range(n)]
               for i in range(n)]
        pivots = linalg.rref(aug, ncols=n)
        if len(pivots) < n:
            raise ValueError("matrix is singular")
        return CMatrix([row[n:] for row in aug])

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CMatrix):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols and
                self.entries == other.entries)

    def __hash__(self):
        return hash(self.entries)

    def to_numpy(self):
        """The float image as a complex numpy array: the one place where exact
        matrices cross over to floats."""
        import numpy
        return numpy.array([[complex(e) for e in row] for row in self.entries],
                           dtype=complex)

    def to_json(self) -> dict:
        return {"rows": self.rows, "cols": self.cols, "mode": "exact",
                "entries": [e.to_json() for row in self.entries for e in row]}

    @classmethod
    def from_json(cls, obj: dict) -> "CMatrix":
        rows, cols = obj["rows"], obj["cols"]
        flat = [ExactComplex.from_json(e) for e in obj["entries"]]
        return cls([flat[i * cols:(i + 1) * cols] for i in range(rows)])

    def __repr__(self) -> str:
        return f"CMatrix({self.rows}x{self.cols})"


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
    """Assemble a CMatrix from a 2D grid of blocks."""
    out = []
    for brow in blocks:
        height = brow[0].rows
        for r in range(height):
            row = []
            for blk in brow:
                row.extend(blk.entries[r])
            out.append(row)
    return CMatrix(out)


# ---------------------------------------------------------------------------
# membership predicates
# ---------------------------------------------------------------------------


def i_pq(p: int, q: int) -> HMatrix:
    """Diagonal form matrix with p entries +1 followed by q entries -1."""
    return HMatrix.diag([Quaternion(1)] * p + [Quaternion(-1)] * q)


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
    if o.rows != o.cols:
        raise ValueError("group membership requires a square matrix")
    resid = o.rev_transpose() @ o - HMatrix.identity(o.rows)
    if not _hmatrix_within(resid, tol):
        return False
    det = o.study_det()
    return _abs_le(det.re - ExactScalar(1), tol) and _abs_le(det.im, tol)


def is_sostar_algebra(a: HMatrix) -> bool:
    """Membership in so*(2n): rev_transpose(a) = -a exactly, real trace part 0."""
    if a.rows != a.cols:
        raise ValueError("algebra membership requires a square matrix")
    if not (a.rev_transpose() + a).is_zero():
        return False
    return a.trace().real_part().is_zero()


def is_spstar_group(a: HMatrix, p: int, q: int, tol: float = DEFAULT_TOL) -> bool:
    """Membership in Sp*(p,q): preserves the quaternion-Hermitian form I_pq.

    Also checks the equivalent characterization through the skew reversion
    form j*I_pq, and unit Study determinant.
    """
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
    rows, cols = numpy.shape(c)
    if rows != cols or rows != p + q:
        raise ValueError("shape mismatch for SU(p,q) membership")
    form = numpy.diag([1.0] * p + [-1.0] * q)
    return max_abs_diff(c.conj().T @ form @ c, form) <= tol and _det_is_one(c, tol)
