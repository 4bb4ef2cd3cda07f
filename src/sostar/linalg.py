"""Exact linear algebra over the package's scalar fields; nothing here rounds.

Every exact solve, rank and nullspace runs on one elimination kernel,
`_eliminate`: Gauss-Jordan on sparse vectors of int 4-tuples over
{1, sqrt2, sqrt3, sqrt6}, fraction-free in the spirit of Bareiss (Galois-
conjugate pivots, gcd-reduced rows), so no field element is divided until a
solution is read off.  `_solve`, `solve_batch`, `rank`, `nullspace_basis`,
the independence check of a `LieBasis`, `commutant_dimension` and
`CMatrix.inverse` are front ends to it.  A complex column c enters with i*c,
both in the real (re, im) layout of `coords()`, so a complex rank is half
the real pivot count.

The generic `rref` on field objects has no caller in the package: it stays
for the benchmark's hook and as a reference for the tests.  `det_bareiss`
and `congruence_signature` take plain lists of row lists; the latter
updates, after each pivot, only the trailing block's rows and columns where
the pivot row is nonzero.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Iterable, Sequence

from .scalars import ZERO, ExactComplex, ExactScalar, _from_ints, _mul4


def rref(rows: list[list], ncols: int | None = None):
    """In-place reduced row echelon form of `rows`; returns pivot column list.

    Only the first `ncols` columns are eliminated (trailing columns ride
    along); defaults to all columns.
    """
    if not rows:
        return []
    m = len(rows)
    width = len(rows[0])
    if ncols is None:
        ncols = width
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, m):
            if not rows[i][c].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        prow = rows[r]
        # columns left of c are already zero in the pivot row
        support = [k for k in range(c, width) if not prow[k].is_zero()]
        inv = prow[c].inverse()
        for k in support:
            prow[k] = prow[k] * inv
        for i in range(m):
            row = rows[i]
            if i != r and not row[c].is_zero():
                factor = row[c]
                for k in support:
                    row[k] = row[k] - factor * prow[k]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return pivots


def rank(rows: Sequence[Sequence]) -> int:
    """Rank of a matrix of ExactScalar or of ExactComplex entries.

    Each row of a real matrix is one vector of `_eliminate`; a complex
    matrix enters as its `CMatrix._complex_columns`.
    """
    if isinstance(next(chain.from_iterable(rows), None), ExactComplex):
        from .hmatrix import CMatrix  # hmatrix imports this module
        return len(_eliminate(CMatrix(rows)._complex_columns())[2]) // 2
    return len(_eliminate([_sparse(v) for v in rows])[2])


def nullspace_basis(rows: Sequence[Sequence]) -> list[list[ExactScalar]]:
    """The reduced row echelon basis of the right kernel of an ExactScalar
    matrix: per non-pivot column c, the vector that is 1 at c, 0 at the
    other non-pivot columns and solves the system."""
    ncols = len(rows[0])
    dens, reduced, pivots = _eliminate(
        [_sparse([row[c] for row in rows]) for c in range(ncols)])
    free = [c for c in range(ncols) if c not in pivots]
    out = []
    for c, sol in zip(free, _solutions(dens, reduced, pivots, free)):
        vec = [ZERO] * ncols
        vec[c] = ExactScalar(1)
        for col, x in sol.items():
            vec[col] = -x
        out.append(vec)
    return out


def solve_batch(columns: list[list], targets: list[list]):
    """Solve B x = t for each target, where B has the given columns.

    Entries must be ExactScalars.  Returns a list of coefficient vectors (one
    per target).  Raises ValueError if the columns are linearly dependent or
    some target is outside their span.  Each column and target goes to
    `_solve` as its nonzero coordinates over the lcm of their denominators.
    """
    k = len(columns)
    sols = _solve([_sparse(v) for v in columns], [_sparse(v) for v in targets])
    return [[sol.get(c, ZERO) for c in range(k)] for sol in sols]


def _sparse(values) -> tuple:
    """(den, {index: int 4-tuple}): the nonzero ExactScalars of `values`
    over den, the lcm of their denominators."""
    support = [i for i, v in enumerate(values) if not v.is_zero()]
    den, coords = _int_coords([values[i] for i in support])
    return den, dict(zip(support, coords))


def _solve(columns: list, targets: Iterable) -> list:
    """Solve B x = t for each target on integer coordinates.

    Columns and targets are vectors as `_eliminate` takes them, and
    `targets` is read once, so a caller can hand each target over as soon
    as it is computed.  Returns per target the sparse solution {column:
    ExactScalar}, in column order.  Raises ValueError if the columns are
    linearly dependent or some target is outside their span.
    """
    k = len(columns)
    dens, rows, pivots = _eliminate(columns, targets)
    if len(pivots) < k:
        raise ValueError("columns are linearly dependent")
    # every column is a pivot column, so a row left over holds only targets
    pivot_rows = set(pivots.values())
    for i in sorted(rows):
        if i not in pivot_rows and rows[i]:
            j = min(rows[i])
            raise ValueError(
                "target outside the span of the columns: target "
                f"{j - k} leaves the residual {ExactScalar(*rows[i][j])!r} "
                f"(up to a rational factor) in row {i}")
    return _solutions(dens, rows, pivots, range(k, len(dens)))


def _eliminate(columns: list, targets: Iterable = ()) -> tuple:
    """Gauss-Jordan elimination of [columns | targets] in its columns: the
    one elimination behind every exact solve, rank and nullspace.

    A vector is (den, {row: (a, b, c, d)}), the values (a + b*sqrt2 +
    c*sqrt3 + d*sqrt6) / den, each nonzero, and zero at every row it does
    not name; `targets` is read once.  Returns (dens, rows, pivots): the
    denominators of the columns and then of the targets, the reduced rows
    as sparse dicts {vector: int 4-tuple}, and {column: its pivot row} in
    column order, skipping a column with no pivot candidate.

    The elimination runs on the numerators; `_solutions` scales back.  A
    pivot is made the rational integer N by multiplying its row with the
    pivot's three nontrivial Galois conjugates; every other row with an
    entry in that column becomes N*row - f*pivot_row; every row that
    changes is divided by the gcd of its coordinates.  The reduced form is
    unique up to the scale of its rows, so the pivot row is chosen freely:
    the shortest candidate, to limit fill-in, the first in row order among
    those.
    """
    k = len(columns)
    dens = []
    rows: dict = {}
    for den, vec in chain(columns, targets):
        j = len(dens)
        dens.append(den)
        for i, x in vec.items():
            row = rows.get(i)
            if row is None:
                rows[i] = {j: x}
            else:
                row[j] = x
    free = sorted(rows)  # rows not yet used as a pivot row
    pivots = {}
    for col in range(k):
        candidates = [i for i in free if col in rows[i]]
        if not candidates:
            continue
        p = min(candidates, key=lambda i: len(rows[i]))
        free.remove(p)
        pivots[col] = p
        prow = rows[p]
        a, b, c, d = prow[col]
        if b or c or d:
            adj = _mul4(_mul4((a, -b, c, -d), (a, b, -c, -d)), (a, -b, -c, d))
            prow = {j: _mul4(x, adj) for j, x in prow.items()}
        prow = rows[p] = _primitive(prow)
        n = prow.pop(col)[0]  # put back after the loop, which skips prow
        for i, row in rows.items():
            f = row.pop(col, None)
            if f is None:
                continue
            if n != 1:
                row = {j: (n * a, n * b, n * c, n * d)
                       for j, (a, b, c, d) in row.items()}
            # row -= f * prow with the product table of ExactScalar.__mul__
            fa, fb, fc, fd = f
            fb2, fc3, fd6 = 2 * fb, 3 * fc, 6 * fd
            fd2, fd3 = 2 * fd, 3 * fd
            for j, (ya, yb, yc, yd) in prow.items():
                ga = fa * ya + fb2 * yb + fc3 * yc + fd6 * yd
                gb = fa * yb + fb * ya + fc3 * yd + fd3 * yc
                gc = fa * yc + fc * ya + fb2 * yd + fd2 * yb
                gd = fa * yd + fd * ya + fb * yc + fc * yb
                x = row.get(j)
                if x is None:
                    row[j] = (-ga, -gb, -gc, -gd)
                else:
                    x = (x[0] - ga, x[1] - gb, x[2] - gc, x[3] - gd)
                    if x[0] or x[1] or x[2] or x[3]:
                        row[j] = x
                    else:
                        del row[j]
            rows[i] = _primitive(row)
        prow[col] = (n, 0, 0, 0)
    return dens, rows, pivots


def _solutions(dens: list, rows: dict, pivots: dict, wanted) -> list:
    """Per vector j of `wanted`, the sparse x {pivot column: ExactScalar}
    with sum_c x_c v_c = v_j, from `_eliminate`'s result; j must lie in the
    span of the pivot columns.  A pivot row with the pivot N in column c and
    the entry y in vector j gives x_c = y D_c / (N D_j), so every solution
    is read in one pass over the pivot rows."""
    sols = {j: {} for j in wanted}
    for col, p in pivots.items():
        row = rows[p]
        n = row[col][0]
        dc = dens[col]
        for j, (a, b, c, d) in row.items():
            sol = sols.get(j)
            if sol is not None:
                sol[col] = _from_ints(a * dc, b * dc, c * dc, d * dc, n * dens[j])
    return list(sols.values())


def _int_coords(values):
    """The ExactScalars `values` over one common denominator D, the lcm of
    their denominators: returns D and, per value, the int 4-tuple
    D * (a, b, c, d) over {1, sqrt2, sqrt3, sqrt6}."""
    den = math.lcm(*(v._den for v in values))
    return den, [tuple(x * (den // v._den) for x in v._num) for v in values]


def _primitive(row: dict) -> dict:
    """`row` divided by the gcd of all its int coordinates."""
    g = math.gcd(*chain.from_iterable(row.values()))
    if g > 1:
        row = {j: (a // g, b // g, c // g, d // g)
               for j, (a, b, c, d) in row.items()}
    return row


def det_bareiss(matrix: list[list]):
    """Exact determinant by fraction-free Bareiss elimination.

    Keeps intermediate entries as small as the algorithm allows, which
    matters once entries carry four rational coordinates each.
    """
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    m = [list(row) for row in matrix]
    sign_flip = False
    prev = None
    for k in range(n - 1):
        if m[k][k].is_zero():
            swap = None
            for i in range(k + 1, n):
                if not m[i][k].is_zero():
                    swap = i
                    break
            if swap is None:
                return m[0][0] * 0
            m[k], m[swap] = m[swap], m[k]
            sign_flip = not sign_flip
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                val = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                if prev is not None:
                    val = val / prev
                m[i][j] = val
        prev = m[k][k]
    result = m[n - 1][n - 1]
    return -result if sign_flip else result


def congruence_signature(sym) -> tuple[int, int, int]:
    """Signature (n_minus, n_plus, n_zero) of a symmetric ExactScalar matrix.

    Diagonalizes by exact congruence transformations: simultaneous row and
    column operations, creating a nonzero diagonal pivot from an off-diagonal
    entry when the whole diagonal vanishes.
    """
    n = len(sym)
    m = [list(row) for row in sym]
    n_minus = n_plus = n_zero = 0
    for k in range(n):
        if m[k][k].is_zero():
            # look for a later diagonal pivot first
            swap = None
            for i in range(k + 1, n):
                if not m[i][i].is_zero():
                    swap = i
                    break
            if swap is not None:
                _sym_swap(m, k, swap)
            else:
                # all remaining diagonal entries vanish; mix in a row with a
                # nonzero off-diagonal entry: (e_k + e_j) pairing gives 2 m[k][j]
                found = None
                for i in range(k, n):
                    for j in range(i + 1, n):
                        if not m[i][j].is_zero():
                            found = (i, j)
                            break
                    if found:
                        break
                if found is None:
                    n_zero += n - k
                    break
                i, j = found
                if i != k:
                    _sym_swap(m, k, i)  # j > i, so j is not moved
                _sym_add(m, k, j)
        pivot = m[k][k]  # nonzero: a swap or the mixing step made it so
        if pivot.sign() < 0:
            n_minus += 1
        else:
            n_plus += 1
        # Schur complement: only the trailing block is read again.  It is
        # symmetric, so the rows to update are row k's nonzero columns, and
        # each new value m[i][j] with j > i is mirrored into m[j][i].
        inv = pivot.inverse()
        prow = m[k]
        support = [j for j in range(k + 1, n) if not prow[j].is_zero()]
        for s, i in enumerate(support):
            row = m[i]
            factor = row[k] * inv
            for j in support[s:]:
                row[j] = m[j][i] = row[j] - factor * prow[j]
    return (n_minus, n_plus, n_zero)


def _sym_swap(m, a, b):
    m[a], m[b] = m[b], m[a]
    for row in m:
        row[a], row[b] = row[b], row[a]


def _sym_add(m, dst, src):
    """Row dst += row src, then column dst += column src (a congruence)."""
    for k, y in enumerate(m[src]):
        if not y.is_zero():
            m[dst][k] = m[dst][k] + y
    for row in m:
        if not row[src].is_zero():
            row[dst] = row[dst] + row[src]
