"""Quaternion-valued and complex-valued matrices with the membership predicates
for the quaternionic matrix groups.

Both matrix types share one exact, immutable base and differ only in their
entry type: HMatrix entries are exact quaternions, CMatrix entries exact
complex numbers (the 2x2 embedding of an HMatrix is a CMatrix).  Neither ever
rounds.  Every operation computes on an integer form of the matrix (one
common denominator and the int numerators of the nonzero entries), which is
the integral-vector form of ExactScalar (Cohen, A Course in Computational
Algebraic Number Theory, section 4.2) applied to the whole matrix, and builds
no element for an intermediate result.  Float matrices, which only
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

import math
from fractions import Fraction
from operator import add, sub
from typing import Iterable, Sequence

from . import linalg
from .quaternion import Quaternion, Q_ZERO, Q_ONE, Q_J
from .scalars import C_I, C_ONE, C_ZERO, ZERO, ExactComplex, ExactScalar, _from_ints

DEFAULT_TOL = 1e-9

# -- the integer form ----------------------------------------------------------
#
# The integer form of a matrix is (den, rows, rational): one common positive
# denominator, and a dict {i: {j: ints}} that holds the nonzero entries of
# each row i that has one; a row of zeros has no key, so every kernel below
# loops only over the rows and entries that are present, and a zero matrix
# has rows == {}.  The form does not know its height or width: the shape lives
# on the matrix, and `_from_form` takes it explicitly.  An entry of a rational
# form holds one int per ring coordinate, k of them (k = 2 for complex, 4 for
# quaternion entries).  Otherwise it holds four blocks of k ints, the rational
# ring elements that multiply 1, sqrt2, sqrt3 and sqrt6, in that order, so
# ring coordinate p over {1, sqrt2, sqrt3, sqrt6} is t[p::k].  Basis elements
# u, v multiply to _FIELD_SQUARES[u & v] times element u ^ v (bit 0 stands for
# sqrt2, bit 1 for sqrt3).  The dicts are never changed once built, so forms
# share them freely.
#
# An entry of a product that received a single term is never zero, so only a
# row where some entry received a second term is scanned for zeros.  The
# entries lie in C, H, Q(sqrt2, sqrt3)(i) or H (x) Q(sqrt2, sqrt3), and none of
# them has zero divisors: the first three are division rings, and so is the
# last, because Q(sqrt2, sqrt3) is totally real, so the norm t^2 + x^2 + y^2 +
# z^2 of a nonzero quaternion over it is positive in every real embedding.

_FIELD_SQUARES = (1, 2, 3, 6)


def _scalar(a: int, b: int, c: int, d: int, den: int) -> ExactScalar:
    return _from_ints(a, b, c, d, den) if a or b or c or d else ZERO


def _form(parts, items) -> tuple:
    """The integer form of the matrix with the element e at (i, j) for each
    pair ((i, j), e) of `items` and zero elsewhere; zero elements are
    skipped.  `parts` gives an element's ExactScalar coordinates, and den is
    the lcm of their denominators."""
    nonzero = [(i, j, parts(e)) for (i, j), e in items if not e.is_zero()]
    values = [s for _, _, ps in nonzero for s in ps]
    den = math.lcm(*(s._den for s in values))
    rational = all(s.is_rational() for s in values)
    blocks = range(1) if rational else range(4)
    rows = {}
    for i, j, ps in nonzero:
        t = tuple(s._num[u] * (den // s._den) for u in blocks for s in ps)
        row = rows.get(i)
        if row is None:
            rows[i] = {j: t}
        else:
            row[j] = t
    return den, rows, rational


def _complex_mul(x, y):
    a, b = x
    c, d = y
    return (a * c - b * d, a * d + b * c)


def _hamilton_mul(x, y):
    t1, x1, y1, z1 = x
    t2, x2, y2, z2 = y
    return (t1 * t2 - x1 * x2 - y1 * y2 - z1 * z2,
            t1 * x2 + x1 * t2 + y1 * z2 - z1 * y2,
            t1 * y2 - x1 * z2 + y1 * t2 + z1 * x2,
            t1 * z2 + x1 * y2 - y1 * x2 + z1 * t2)


def _rational_rows(left, right, mul) -> dict:
    """Rows of the product of two rational forms, row by row (Gustavson's
    row-wise product): each nonzero left[i][m] meets only the nonzeros of
    row m of `right`.  A row is scanned for zeros only when some entry
    received two terms, so terms that cancel leave no entry behind.  `mul`
    is the ring product of two entries."""
    out = {}
    for i, lrow in left.items():
        acc = {}
        summed = False
        for m, x in lrow.items():
            rrow = right.get(m)
            if rrow is None:
                continue
            for j, y in rrow.items():
                s = acc.get(j)
                if s is None:
                    acc[j] = mul(x, y)
                else:
                    acc[j] = tuple(map(add, s, mul(x, y)))
                    summed = True
        if summed:
            acc = {j: s for j, s in acc.items() if any(s)}
        if acc:
            out[i] = acc
    return out


def _blocks(rows, rational: bool, k: int) -> dict:
    """Each entry of a form's rows as the list of its nonzero blocks
    (u, k ints)."""
    if rational:
        return {i: {j: [(0, t)] for j, t in row.items()} for i, row in rows.items()}
    return {i: {j: [(u, t[u * k:u * k + k]) for u in range(4) if any(t[u * k:u * k + k])]
                for j, t in row.items()} for i, row in rows.items()}


def _field_rows(left, right, k: int, mul) -> dict:
    """Rows of the product of two forms given by `_blocks`, row by row as in
    `_rational_rows`; `mul` is the ring product of two blocks.  Each output
    entry keeps its four blocks in a list, and every block product is added
    into its block in place."""
    zero = (0,) * k
    out = {}
    for i, lrow in left.items():
        acc = {}
        summed = False
        for m, xb in lrow.items():
            rrow = right.get(m)
            if rrow is None:
                continue
            for j, yb in rrow.items():
                blocks = acc.get(j)
                if blocks is None:
                    blocks = acc[j] = [None, None, None, None]
                else:
                    summed = True
                for u, xu in xb:
                    for v, yv in yb:
                        p = mul(xu, yv)
                        c = _FIELD_SQUARES[u & v]
                        if c != 1:
                            p = tuple(c * z for z in p)
                        w = u ^ v
                        s = blocks[w]
                        blocks[w] = p if s is None else tuple(map(add, s, p))
        row = {j: (a or zero) + (b or zero) + (c or zero) + (d or zero)
               for j, (a, b, c, d) in acc.items()}
        if summed:
            row = {j: t for j, t in row.items() if any(t)}
        if row:
            out[i] = row
    return out


def _product(a, b):
    """a @ b for matrices of one type whose shapes match, on their integer
    forms.  Its denominator is the product of theirs, so x@y and y@x share
    one.  An irrational product reads both operands' blocks, which each
    matrix splits once and keeps."""
    cls = type(a)
    dx, left, xrat = a._int_form()
    dy, right, yrat = b._int_form()
    if xrat and yrat:
        rows = _rational_rows(left, right, cls._ring_mul)
    else:
        rows = _field_rows(a._blocked_rows(), b._blocked_rows(),
                           len(cls._entry._fields), cls._ring_mul)
    return cls._from_form(a.rows, b.cols, (dx * dy, rows, xrat and yrat))


def _rescaled(rows, f: int) -> dict:
    return rows if f == 1 else {i: {j: tuple(f * z for z in t) for j, t in row.items()}
                                for i, row in rows.items()}


def _common(forms, k: int) -> tuple:
    """The rows of the forms over one denominator, the lcm of theirs, and
    one layout: (den, [rows of each form], rational).  A rational form among
    irrational ones gets zero sqrt2, sqrt3 and sqrt6 blocks."""
    den = math.lcm(*(d for d, _, _ in forms))
    rational = all(rat for _, _, rat in forms)
    pad = (0,) * (3 * k)
    out = []
    for d, rows, rat in forms:
        if rat and not rational:
            rows = {i: {j: t + pad for j, t in row.items()} for i, row in rows.items()}
        out.append(_rescaled(rows, den // d))
    return den, out, rational


def _merge(x: tuple, y: tuple, op, k: int) -> tuple:
    """The form of op(X, Y) for op = add or sub, merging the rows of the
    forms x, y; entries that cancel are dropped, and so are rows that
    empty.  The forms are brought over one denominator and layout only when
    theirs differ."""
    if x[0] == y[0] and x[2] == y[2]:
        den, left, rational = x
        right = y[1]
    else:
        den, (left, right), rational = _common((x, y), k)
    out = dict(left)
    for i, rrow in right.items():
        lrow = out.get(i)
        if lrow is None:
            out[i] = rrow if op is add else {j: tuple(-z for z in t)
                                             for j, t in rrow.items()}
            continue
        lrow = dict(lrow)
        for j, t in rrow.items():
            s = lrow.get(j)
            if s is None:
                lrow[j] = t if op is add else tuple(-z for z in t)
            else:
                s = tuple(map(op, s, t))
                if any(s):
                    lrow[j] = s
                else:
                    del lrow[j]
        if lrow:
            out[i] = lrow
        else:
            del out[i]
    return den, out, rational


def _signed(form: tuple, signs: tuple) -> tuple:
    """The form with ring coordinate p of every entry times signs[p]."""
    den, rows, rational = form
    signs = signs if rational else signs * 4
    return den, {i: {j: tuple(s * z for s, z in zip(signs, t)) for j, t in row.items()}
                 for i, row in rows.items()}, rational


def _interleave(re, im) -> tuple:
    return tuple(z for pair in zip(re, im) for z in pair)


class _ExactMatrix:
    """n x m matrix over an exact entry ring, immutable.

    A subclass names its ring by the entry type `_entry` with its `_zero` and
    `_one`, and by `_ring_mul`, the product of two rational entries of the
    integer form (the complex or the Hamilton product table); the
    ring-specific operations live on the subclass.

    A matrix holds its shape (`rows`, `cols`) and its value in one or both of
    two forms, and builds the other from it the first time it is read: the
    grid `entries` of elements, which the public constructor takes, and the
    integer form described above, which holds only the nonempty rows and
    which every operation computes on and hands to the trusted constructor
    `_from_form`.  The result of an operation therefore holds no element
    until its entries or coordinates are read, and each element is then
    reduced to lowest terms.  `sparse`, `diag`, `identity` and `zeros` build
    the integer form straight from their nonzero inputs and hold no grid.

    A third slot keeps the blocked view of the integer form (`_blocks`), the
    operand layout of an irrational product.  It is split on the first
    irrational product the matrix enters and kept for the matrix's lifetime,
    so a generator that meets every other one in brackets is split once.
    """

    __slots__ = ("rows", "cols", "_grid", "_ints", "_blocked")

    _entry: type
    _zero: object
    _one: object
    _ring_mul: staticmethod
    _json_tags: dict = {}  # written between "cols" and "entries" by to_json

    def __init__(self, entries: Sequence[Sequence]) -> None:
        coerce = self._entry.coerce
        grid = tuple(tuple(map(coerce, row)) for row in entries)
        if not grid or not grid[0]:
            raise ValueError(f"{type(self).__name__} cannot be empty")
        width = len(grid[0])
        if any(len(r) != width for r in grid):
            raise ValueError("ragged rows")
        _set_grid(self, grid)
        _set_rows(self, len(grid))
        _set_cols(self, width)
        _set_ints(self, None)
        _set_blocked(self, None)

    @classmethod
    def _from_form(cls, rows: int, cols: int, form: tuple):
        """The rows x cols matrix with the integer form `form`, whose rows
        hold only nonzero entries and which has no empty row.  Trusted:
        nothing is checked."""
        m = object.__new__(cls)
        _set_grid(m, None)
        _set_rows(m, rows)
        _set_cols(m, cols)
        _set_ints(m, form)
        _set_blocked(m, None)
        return m

    def _int_form(self) -> tuple:
        """The integer form (den, rows, rational), computed from the entries
        on first use: den is the lcm of all coordinate denominators."""
        form = self._ints
        if form is None:
            form = _form(self._entry._parts, (((i, j), e)
                                              for i, row in enumerate(self._grid)
                                              for j, e in enumerate(row)))
            _set_ints(self, form)
        return form

    def _blocked_rows(self) -> dict:
        """The rows of the integer form split into blocks by `_blocks`,
        computed on first use and kept."""
        blocked = self._blocked
        if blocked is None:
            _, rows, rational = self._int_form()
            blocked = _blocks(rows, rational, len(self._entry._fields))
            _set_blocked(self, blocked)
        return blocked

    def _entry_of(self, t: tuple, den: int, rational: bool):
        """The element with the ints `t` of a form over `den`."""
        if rational:
            return self._entry(*(_scalar(x, 0, 0, 0, den) for x in t))
        k = len(self._entry._fields)
        return self._entry(*(_scalar(*t[p::k], den) for p in range(k)))

    def _nonzeros(self) -> tuple:
        """Per row, the tuple of (column, entry) pairs of its nonzero
        entries, in column order."""
        if self._grid is not None:
            return tuple(tuple((j, e) for j, e in enumerate(row) if not e.is_zero())
                         for row in self._grid)
        den, rows, rational = self._ints
        empty = {}
        return tuple(tuple((j, self._entry_of(row[j], den, rational))
                           for j in sorted(row))
                     for row in (rows.get(i, empty) for i in range(self.rows)))

    @property
    def entries(self) -> tuple:
        """The rows of elements, as a tuple of row tuples."""
        grid = self._grid
        if grid is None:
            zero, cols = self._zero, self.cols
            grid = []
            for pairs in self._nonzeros():
                row = [zero] * cols
                for j, e in pairs:
                    row[j] = e
                grid.append(tuple(row))
            grid = tuple(grid)
            _set_grid(self, grid)
        return grid

    def _like(self, form: tuple):
        return self._from_form(self.rows, self.cols, form)

    def _left_scaled(self, e):
        """e times every entry, from the left, for one ring element e: the
        product of e times the identity with this matrix.  The identity
        keeps e only in the rows where this matrix has an entry."""
        den, scalar, rational = _form(self._entry._parts, [((0, 0), e)])
        rows = self._int_form()[1]
        t = scalar[0][0] if scalar else None
        diag = {} if t is None else {i: {i: t} for i in rows}
        return _product(self._from_form(self.rows, self.rows, (den, diag, rational)),
                        self)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def sparse(cls, n: int, entries: dict):
        """n x n matrix from {(row, col): entry}, zero elsewhere."""
        for r, c in entries:
            if not (0 <= r < n and 0 <= c < n):
                raise IndexError(f"index {(r, c)} outside a {n} x {n} matrix")
        coerce = cls._entry.coerce
        items = [(rc, coerce(v)) for rc, v in entries.items()]
        if n < 1:
            raise ValueError(f"{cls.__name__} cannot be empty")
        return cls._from_form(n, n, _form(cls._entry._parts, items))

    @classmethod
    def identity(cls, n: int):
        return cls.diag([cls._one] * n)

    @classmethod
    def zeros(cls, rows: int, cols: int):
        if rows < 1 or cols < 1:
            raise ValueError(f"{cls.__name__} cannot be empty")
        return cls._from_form(rows, cols, (1, {}, True))

    @classmethod
    def diag(cls, values: Iterable):
        vals = list(values)
        return cls.sparse(len(vals), {(i, i): v for i, v in enumerate(vals)})

    # -- arithmetic and transposition on the integer form ----------------------

    def _product_with(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        return _product(self, other)

    def _merged(self, other, op):
        if type(other) is not type(self):
            return NotImplemented
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return self._like(_merge(self._int_form(), other._int_form(), op,
                                 len(self._entry._fields)))

    def __add__(self, other):
        return self._merged(other, add)

    def __sub__(self, other):
        return self._merged(other, sub)

    def __neg__(self):
        return self._like(_signed(self._int_form(),
                                  (-1,) * len(self._entry._fields)))

    def transpose(self):
        """Plain transpose.  Not a homomorphism over the quaternions."""
        den, rows, rational = self._int_form()
        columns = {}
        for i, row in rows.items():
            for j, t in row.items():
                column = columns.get(j)
                if column is None:
                    columns[j] = {i: t}
                else:
                    column[i] = t
        return self._from_form(self.cols, self.rows, (den, columns, rational))

    def _block(self, r0: int, r1: int, c0: int, c1: int):
        """The submatrix of rows r0..r1-1 and columns c0..c1-1, sliced from
        the integer form; it keeps this matrix's denominator."""
        den, rows, rational = self._int_form()
        out = {}
        for i in range(r0, r1):
            row = rows.get(i)
            if row is not None:
                part = {j - c0: t for j, t in row.items() if c0 <= j < c1}
                if part:
                    out[i - r0] = part
        return self._from_form(r1 - r0, c1 - c0, (den, out, rational))

    def trace(self):
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        acc = self._zero
        for i in range(self.rows):
            acc = acc + self.entries[i][i]
        return acc

    def is_zero(self) -> bool:
        return not self._int_form()[1]

    def _coordinate_ints(self) -> tuple:
        """(den, {index: int 4-tuple}): the nonzero real coordinates, indexed
        as in `coords()`, each as its numerators over {1, sqrt2, sqrt3,
        sqrt6} over the common denominator den of the integer form."""
        den, rows, rational = self._int_form()
        k = len(self._entry._fields)
        width = self.cols * k
        out = {}
        for i, row in rows.items():
            for j, t in row.items():
                base = i * width + j * k
                for p in range(k):
                    if rational:
                        if t[p]:
                            out[base + p] = (t[p], 0, 0, 0)
                    else:
                        c = t[p::k]
                        if any(c):
                            out[base + p] = c
        return den, out

    def coords(self) -> list[ExactScalar]:
        """Real coordinates in row-major order: (re, im) per complex entry,
        (t, x, y, z) per quaternion entry."""
        den, nonzero = self._coordinate_ints()
        out = [ZERO] * (self.rows * self.cols * len(self._entry._fields))
        for i, c in nonzero.items():
            out[i] = _from_ints(*c, den)
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


_set_grid = _ExactMatrix._grid.__set__
_set_rows = _ExactMatrix.rows.__set__
_set_cols = _ExactMatrix.cols.__set__
_set_ints = _ExactMatrix._ints.__set__
_set_blocked = _ExactMatrix._blocked.__set__


class HMatrix(_ExactMatrix):
    """n x m matrix of quaternions, immutable, exact."""

    __slots__ = ()
    _entry, _zero, _one = Quaternion, Q_ZERO, Q_ONE
    _ring_mul = staticmethod(_hamilton_mul)

    def __matmul__(self, other: "HMatrix") -> "HMatrix":
        return self._product_with(other)

    def scale(self, s) -> "HMatrix":
        """Multiply every entry by a central (real field) scalar."""
        return self._left_scaled(Quaternion(ExactScalar.coerce(s)))

    def left_mul(self, q: Quaternion) -> "HMatrix":
        return self._left_scaled(Quaternion.coerce(q))

    # -- involutions ---------------------------------------------------------

    def conj_entries(self) -> "HMatrix":
        return self._like(_signed(self._int_form(), (1, -1, -1, -1)))

    def rev_entries(self) -> "HMatrix":
        return self._like(_signed(self._int_form(), (1, 1, -1, 1)))

    def rev_transpose(self) -> "HMatrix":
        """Entry-wise reversion followed by transposition (anti-homomorphism)."""
        return self.rev_entries().transpose()

    def dagger(self) -> "HMatrix":
        """Entry-wise conjugation followed by transposition (anti-homomorphism)."""
        return self.conj_entries().transpose()

    # -- embedding and determinant --------------------------------------------

    def embed(self) -> "CMatrix":
        """Replace each quaternion entry by its 2x2 complex block
        [[t + z i, x i - y], [x i + y, t - z i]].

        Multiplicative homomorphism M_n(H) -> M_2n(C); dagger maps to the
        complex conjugate-transpose and rev_transpose to the plain transpose.
        """
        den, rows, rational = self._int_form()
        out = {}
        for i, row in rows.items():
            top, bottom = {}, {}
            for j, q in row.items():
                # coordinate p of every block of q, as in `_coordinate_ints`
                t, x, y, z = q[0::4], q[1::4], q[2::4], q[3::4]
                neg_y, neg_z = tuple(-v for v in y), tuple(-v for v in z)
                for half, col, re, im in ((top, 2 * j, t, z),
                                          (top, 2 * j + 1, neg_y, x),
                                          (bottom, 2 * j, y, x),
                                          (bottom, 2 * j + 1, t, neg_z)):
                    if any(re) or any(im):
                        half[col] = _interleave(re, im)
            # a nonzero q has a nonzero entry in both rows of its block
            out[2 * i], out[2 * i + 1] = top, bottom
        return CMatrix._from_form(2 * self.rows, 2 * self.cols, (den, out, rational))

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
    _ring_mul = staticmethod(_complex_mul)

    # Every CMatrix is exact (float matrices are numpy arrays); the constant
    # stays for callers that label CMatrix work by it, such as the benchmark's
    # tracer.
    mode = "exact"
    _json_tags = {"mode": mode}

    def __matmul__(self, other: "CMatrix") -> "CMatrix":
        return self._product_with(other)

    def scale(self, s) -> "CMatrix":
        return self._left_scaled(ExactComplex.coerce(s))

    def conj(self) -> "CMatrix":
        return self._like(_signed(self._int_form(), (1, -1)))

    def dagger(self) -> "CMatrix":
        return self.conj().transpose()

    def det(self) -> ExactComplex:
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        return linalg.det_bareiss([list(row) for row in self.entries])

    def inverse(self) -> "CMatrix":
        """Exact inverse: column k is y + i z for the real solution (y, z) of
        [A | iA](y, z) = e_k on the `_complex_columns`, all n targets in one
        `linalg._solve`.  Those 2n real columns are dependent exactly when
        A is singular, which raises ValueError("matrix is singular")."""
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        units = [(1, {2 * k: (1, 0, 0, 0)}) for k in range(n)]
        try:
            sols = linalg._solve(self._complex_columns(), units)
        except ValueError:
            raise ValueError("matrix is singular") from None
        return CMatrix([[ExactComplex(sol.get(r, ZERO), sol.get(n + r, ZERO))
                         for sol in sols] for r in range(n)])

    def _complex_columns(self) -> list:
        """The sparse integer vectors of `linalg._eliminate` for the 2m
        columns of [A | iA], A this matrix, each in the real (re, im) layout
        of `coords()`.  A x = b is [A | iA](y, z) = b with x = y + i z, and
        the real rank of [A | iA] is twice the complex rank of A."""
        real = from_blocks([[self, self.scale(C_I)]]).transpose()
        den, coords = real._coordinate_ints()
        vectors = [{} for _ in range(real.rows)]
        for index, c in coords.items():
            j, r = divmod(index, 2 * self.rows)  # row j of the transpose
            vectors[j][r] = c
        return [(den, vec) for vec in vectors]

    def to_numpy(self):
        """The float image as a complex numpy array: the one place where exact
        matrices cross over to floats."""
        import numpy
        return numpy.array([[complex(e) for e in row] for row in self.entries],
                           dtype=complex)


def kron(a: CMatrix, b: CMatrix) -> CMatrix:
    """Kronecker product of CMatrix factors, as the product
    (A (x) I_r)(I_q (x) B) of two integer forms that only place the entries
    of A and B, for A p x q and B r x s: each entry of the result is one
    product a_ij b_kl, so no row of it is scanned for zeros."""
    da, arows, arat = a._int_form()
    db, brows, brat = b._int_form()
    p, q, r, s = a.rows, a.cols, b.rows, b.cols
    left = {i * r + k: {j * r + k: t for j, t in arow.items()}
            for i, arow in arows.items() for k in range(r)}
    right = {j * r + k: {j * s + l: t for l, t in brow.items()}
             for j in range(q) for k, brow in brows.items()}
    return _product(CMatrix._from_form(p * r, q * r, (da, left, arat)),
                    CMatrix._from_form(q * r, q * s, (db, right, brat)))


def from_blocks(blocks: Sequence[Sequence[CMatrix]]) -> CMatrix:
    """Assemble a CMatrix from a 2D grid of blocks, on their integer forms.

    The blocks of a block row must share a height, and the block columns the
    widths of the first block row.
    """
    widths = [blk.cols for blk in blocks[0]] if blocks else []
    for brow in blocks:
        if any(blk.rows != brow[0].rows for blk in brow):
            raise ValueError("blocks of one block row differ in height")
        if [blk.cols for blk in brow] != widths:
            raise ValueError("blocks of one block column differ in width")
    if not widths:
        raise ValueError("CMatrix cannot be empty")
    den, parts, rational = _common(
        [blk._int_form() for brow in blocks for blk in brow], 2)
    parts = iter(parts)
    offsets = [sum(widths[:c]) for c in range(len(widths))]
    out = {}
    top = 0
    for brow in blocks:
        for offset, block_rows in zip(offsets, parts):  # this block row's
            for i, part in block_rows.items():
                row = out.get(top + i)
                if row is None:
                    row = out[top + i] = {}
                row.update((offset + j, t) for j, t in part.items())
        top += brow[0].rows
    return CMatrix._from_form(top, sum(widths), (den, out, rational))


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
