"""Exact dense linear algebra over the package's scalar fields.

All routines work generically for any field-like entries supporting
+, -, *, /, is_zero() (ExactScalar and ExactComplex both qualify).  Matrices
are plain lists of row lists.  Nothing here ever rounds: pivoting picks the
first nonzero entry, not the largest.  `rref` updates the row lists in place
and touches only the pivot row's nonzero columns, so sparse systems are cheap.
`congruence_signature` likewise updates, after each pivot, only the trailing
block's rows and columns where the pivot row is nonzero.
"""

from __future__ import annotations

from typing import Sequence


def rref(rows: list[list], ncols: int | None = None):
    """In-place reduced row echelon form of `rows`; returns pivot column list.

    Only the first `ncols` columns are eliminated (trailing columns ride
    along, which is how batched solves are done); defaults to all columns.
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
    work = [list(r) for r in rows]
    return len(rref(work))


def solve_batch(columns: list[list], targets: list[list]):
    """Solve B x = t for each target, where B has the given columns.

    Returns a list of coefficient vectors (one per target).  Raises
    ValueError if the columns are linearly dependent or some target is
    outside their span.  One elimination pass serves every target.
    """
    k = len(columns)
    if k == 0:
        raise ValueError("empty column set")
    m = len(columns[0])
    ntarg = len(targets)
    rows = []
    for i in range(m):
        row = [columns[j][i] for j in range(k)]
        row.extend(targets[j][i] for j in range(ntarg))
        rows.append(row)
    pivots = rref(rows, ncols=k)
    if len(pivots) < k:
        raise ValueError("columns are linearly dependent")
    sols = []
    for j in range(ntarg):
        col = k + j
        # rows k..m-1 of the reduced system must vanish for solvability
        for i in range(k, m):
            if not rows[i][col].is_zero():
                raise ValueError("target outside the span of the columns")
        sols.append([rows[i][col] for i in range(k)])
    return sols


def nullspace_dimension(rows: Sequence[Sequence]) -> int:
    """Dimension of the right kernel of the matrix."""
    if not rows:
        return 0
    ncols = len(rows[0])
    return ncols - rank(rows)


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
        # symmetric, so the rows to update are row k's nonzero columns.
        inv = pivot.inverse()
        prow = m[k]
        support = [j for j in range(k + 1, n) if not prow[j].is_zero()]
        for i in support:
            row = m[i]
            factor = row[k] * inv
            for j in support:
                row[j] = row[j] - factor * prow[j]
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
