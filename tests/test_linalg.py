"""Differential tests of the elimination in `linalg` (the generic `rref` and
the integer-coordinate kernel behind `solve_batch`, `rank`, `nullspace_basis`,
`commutant_dimension` and `CMatrix.inverse`) against a textbook Gauss-Jordan
reference that rebuilds every row in full, negative controls for each front
end of the kernel, and exact ranks from sympy as an independent oracle."""

import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from sostar import linalg, scalars
from sostar.bases import SL_H, SO_STAR, generic_basis
from sostar.clifford import verify_sostar8
from sostar.hmatrix import CMatrix
from sostar.liealg import (COMPLEX_EXACT, LieBasis, bracket, commutant_dimension,
                           killing)
from sostar.scalars import C_ZERO, ZERO, ExactComplex, ExactScalar
from sostar.triality import transformed_spin_reps

# zero, rational, single-radical and dense irrational field elements
_scalar = st.sampled_from([
    ExactScalar(0), ExactScalar(1), ExactScalar(Fraction(-1, 2)), ExactScalar(3),
    ExactScalar.sqrt2(), ExactScalar(0, 0, Fraction(-2, 3)),
    ExactScalar(1, 0, 0, 1), ExactScalar(Fraction(1, 2), -1, Fraction(2, 3), 2),
    ExactScalar(-1, Fraction(1, 4), 0, Fraction(-3, 4)),
])
_FIELDS = {"real": (ZERO, _scalar),
           "complex": (C_ZERO, st.builds(ExactComplex, _scalar, _scalar))}


def _reference_rref(rows, ncols=None):
    """Gauss-Jordan with first-nonzero pivoting; returns (pivots, new rows)."""
    rows = [list(r) for r in rows]
    m, width = len(rows), len(rows[0])
    ncols = width if ncols is None else ncols
    pivots, r = [], 0
    for c in range(ncols):
        p = next((i for i in range(r, m) if not rows[i][c].is_zero()), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [e * inv for e in rows[r]]
        for i in range(m):
            if i != r:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return pivots, rows


def _combination(coeffs, vectors, zero):
    return [sum((c * v[i] for c, v in zip(coeffs, vectors)), zero)
            for i in range(len(vectors[0]))]


@st.composite
def _matrices(draw, field, max_rows=5, max_cols=6, entry=None):
    """A matrix, sparse or dense, whose last row may depend on the others."""
    zero, field_entry = _FIELDS[field]
    entry = field_entry if entry is None else entry
    m, n = draw(st.integers(1, max_rows)), draw(st.integers(1, max_cols))
    if draw(st.booleans()):  # sparse: about half the entries vanish
        entry = st.one_of(st.just(zero), entry)
    rows = [[draw(entry) for _ in range(n)] for _ in range(m)]
    if m > 2 and draw(st.booleans()):
        rows[-1] = _combination([draw(entry), draw(entry)], rows[:2], zero)
    return rows


@pytest.mark.parametrize("field", sorted(_FIELDS))
@settings(deadline=None)
@given(data=st.data())
def test_rref_matches_reference(field, data):
    rows = data.draw(_matrices(field))
    ncols = data.draw(st.integers(1, len(rows[0])))
    want_pivots, want_rows = _reference_rref(rows, ncols)
    work = [list(r) for r in rows]
    assert linalg.rref(work, ncols=ncols) == want_pivots
    assert work == want_rows


@pytest.mark.parametrize("field", sorted(_FIELDS))
@settings(deadline=None)
@given(data=st.data())
def test_rank_matches_reference(field, data):
    rows = data.draw(_matrices(field))
    before = [list(r) for r in rows]
    assert linalg.rank(rows) == len(_reference_rref(rows)[0])
    assert rows == before  # rank works on a copy


def _reference_solve(columns, targets):
    """solve_batch by `_reference_rref`: the solutions, or the start of the
    error message that solve_batch must raise."""
    k, m = len(columns), len(columns[0])
    system = [[col[i] for col in columns] + [t[i] for t in targets]
              for i in range(m)]
    pivots, reduced = _reference_rref(system, k)
    if len(pivots) < k:
        return "columns are linearly dependent"
    if any(not reduced[i][k + j].is_zero()
           for j in range(len(targets)) for i in range(k, m)):
        return "target outside the span"
    return [[reduced[i][k + j] for i in range(k)] for j in range(len(targets))]


# every coordinate over one of the coprime denominators 3, 7 and 32, so a row
# mixes them and only the lcm of its denominators clears them all
_mixed_denominators = st.builds(ExactScalar, *[st.builds(
    Fraction, st.integers(-9, 9), st.sampled_from([3, 7, 32]))] * 4)


def _check_solve_batch(entry, data):
    columns = data.draw(_matrices("real", max_rows=4, max_cols=6, entry=entry))
    k, m = len(columns), len(columns[0])
    targets = [_combination([data.draw(entry) for _ in range(k)], columns, ZERO)
               for _ in range(data.draw(st.integers(1, 3)))]
    if data.draw(st.booleans()):
        targets.append([data.draw(entry) for _ in range(m)])
    want = _reference_solve(columns, targets)
    if isinstance(want, str):
        with pytest.raises(ValueError, match=want):
            linalg.solve_batch(columns, targets)
    else:
        assert linalg.solve_batch(columns, targets) == want


@settings(deadline=None)
@given(data=st.data())
def test_solve_batch_matches_reference(data):
    _check_solve_batch(_scalar, data)


@settings(deadline=None)
@given(data=st.data())
def test_solve_batch_matches_reference_with_mixed_denominators(data):
    _check_solve_batch(_mixed_denominators, data)


# -- the structure-constant systems of whole bases: one column per generator,
# one target per bracket [g_i, g_j], i < j

def _bracket_system(basis):
    gens = basis.generators
    return ([g.coords() for g in gens],
            [bracket(gens[i], gens[j]).coords()
             for i in range(len(gens)) for j in range(i + 1, len(gens))])


@pytest.fixture(scope="module")
def dense_system(dense_sostar6_basis):
    return _bracket_system(dense_sostar6_basis)


def test_solve_batch_matches_reference_on_dense_sostar6(dense_system):
    columns, targets = dense_system
    assert any(not v.is_rational() for t in targets for v in t)
    got = linalg.solve_batch(columns, targets)
    want = _reference_solve(columns, targets)
    assert len(got) == len(want) == len(targets)
    for j, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"target {j}"


@pytest.mark.parametrize("kind, n", [(SO_STAR, 4), (SL_H, 2)],
                         ids=["sostar8", "slH2"])
def test_solve_batch_matches_reference_on_generic_bases(kind, n):
    columns, targets = _bracket_system(generic_basis(kind, n))
    assert linalg.solve_batch(columns, targets) == _reference_solve(columns,
                                                                    targets)


def test_target_off_the_span_raises_with_a_witness(dense_system):
    # negative control: sqrt6 added to one coordinate of the first target,
    # a coordinate whose unit vector lies outside the column span
    columns, targets = dense_system
    k, m = len(columns), len(columns[0])
    unit = [[ExactScalar(int(i == c)) for i in range(m)] for c in range(m)]
    c = next(c for c in range(m) if any(not col[c].is_zero() for col in columns)
             and linalg.rank(columns + [unit[c]]) == k + 1)
    bad = [list(t) for t in targets]
    bad[0][c] = bad[0][c] + ExactScalar.sqrt6()
    with pytest.raises(ValueError, match="target outside the span") as err:
        linalg.solve_batch(columns, bad)
    print(err.value)
    assert re.search(r"target 0 leaves the residual ExactScalar\(.+\) "
                     r"\(up to a rational factor\) in row \d+$", str(err.value))


def test_duplicated_column_times_an_irrational_is_dependent(dense_system):
    columns, targets = dense_system
    scaled = [v * ExactScalar(1, 1) for v in columns[0]]
    for more in (targets, []):
        with pytest.raises(ValueError, match="columns are linearly dependent"):
            linalg.solve_batch(columns + [scaled], more)


def test_solve_batch_with_no_targets():
    # a one-dimensional basis has no brackets to expand
    columns, targets = _bracket_system(generic_basis(SO_STAR, 1))
    assert targets == []
    assert linalg.solve_batch(columns, targets) == []


def test_solve_batch_makes_no_exact_scalar_product(dense_system, monkeypatch):
    columns, targets = dense_system
    calls = []
    original = scalars.ExactScalar.__mul__

    def counting_mul(self, other):
        calls.append(None)
        return original(self, other)

    monkeypatch.setattr(scalars.ExactScalar, "__mul__", counting_mul)
    monkeypatch.setattr(scalars.ExactScalar, "__rmul__", counting_mul)
    ExactScalar(1, 1) * ExactScalar(0, 1)
    2 * ExactScalar(0, 1)
    assert len(calls) == 2  # the counter sees products on either side
    calls.clear()
    linalg.solve_batch(columns, targets)
    assert calls == []


@settings(deadline=None)
@given(st.lists(st.sampled_from([-2, -1, 0, 1, 3]), min_size=1, max_size=5),
       st.data())
def test_congruence_signature_obeys_sylvester(diagonal, data):
    # S = P^T D P with P = U L (unit upper times unit lower triangular) has
    # the inertia of D; zero pivots and zero diagonals come up along the way
    n = len(diagonal)
    entry = st.one_of(st.just(ZERO), _scalar)
    u, l = ([[ExactScalar(1) if i == j else data.draw(entry) if below(i, j)
              else ZERO for j in range(n)] for i in range(n)]
            for below in (lambda i, j: i < j, lambda i, j: i > j))
    p = [[sum((u[i][k] * l[k][j] for k in range(n)), ZERO) for j in range(n)]
         for i in range(n)]
    s = [[sum((p[k][i] * diagonal[k] * p[k][j] for k in range(n)), ZERO)
          for j in range(n)] for i in range(n)]
    want = (sum(d < 0 for d in diagonal), sum(d > 0 for d in diagonal),
            sum(d == 0 for d in diagonal))
    assert linalg.congruence_signature(s) == want


# [[1, 1, 0], [1, 1, 1], [0, 1, 0]]: after the first pivot the trailing block
# has a zero diagonal, so the mixing step runs in the middle of the
# elimination; the signature is (1, 2, 0)
@example([1, 1, 0, 1, 1, 1, 0, 1, 0], 4)
@given(st.integers(2, 4).flatmap(lambda n: st.lists(
    st.sampled_from([-1, 0, 0, 0, 1, 2]), min_size=n * n, max_size=n * n)),
    st.integers(0, 4))
def test_congruence_signature_matches_eigenvalue_signs(cells, zero_diagonal_from):
    # small integer forms, often with a zero diagonal, which is all zero from
    # row `zero_diagonal_from` on; a nonzero eigenvalue is at least 1/8^3 in
    # size here (the product of the nonzero ones is an integer and each is at
    # most 8), so float signs are reliable
    import numpy
    n = int(len(cells) ** 0.5)
    m = [[0 if i == j >= zero_diagonal_from else cells[min(i, j) * n + max(i, j)]
          for j in range(n)] for i in range(n)]
    ev = numpy.linalg.eigvalsh(numpy.array(m, dtype=float))
    want = (int((ev < -1e-6).sum()), int((ev > 1e-6).sum()),
            int((abs(ev) <= 1e-6).sum()))
    exact = [[ExactScalar(x) for x in row] for row in m]
    assert linalg.congruence_signature(exact) == want


def test_congruence_signature_of_hyperbolic_forms():
    # an all-zero diagonal needs the off-diagonal mixing step
    assert linalg.congruence_signature([[ZERO, ExactScalar(1)],
                                        [ExactScalar(1), ZERO]]) == (1, 1, 0)
    # a pivot first, then a trailing block with a zero diagonal
    assert linalg.congruence_signature(
        [[ExactScalar(x) for x in row]
         for row in ([1, 1, 0], [1, 1, 1], [0, 1, 0])]) == (1, 2, 0)
    r2 = ExactScalar.sqrt2()
    assert linalg.congruence_signature([[ZERO, r2, ZERO], [r2, ZERO, ZERO],
                                        [ZERO, ZERO, ZERO]]) == (1, 1, 1)


# -- the front ends of the one elimination kernel `linalg._eliminate`:
# `rank`, `nullspace_basis`, the independence check of a LieBasis,
# `commutant_dimension` and `CMatrix.inverse`

ONE_PLUS_SQRT2 = ExactScalar(1, 1)


def _su2():
    """The fundamental su(2), spanned by i sigma_x / 2, i sigma_y / 2 and
    i sigma_z / 2 (up to order and sign)."""
    half = Fraction(1, 2)
    return LieBasis("su2", COMPLEX_EXACT, [
        CMatrix([[C_ZERO, ExactComplex(0, half)], [ExactComplex(0, half), C_ZERO]]),
        CMatrix([[C_ZERO, ExactComplex(-half)], [ExactComplex(half), C_ZERO]]),
        CMatrix([[ExactComplex(0, half), C_ZERO], [C_ZERO, ExactComplex(0, -half)]]),
    ])


def _su2_half(a_basis):
    """A_1..A_3 of the embedded so*(4) A-basis: su(2) acting on C^4 as two
    copies of its fundamental representation."""
    return LieBasis("su2_half", COMPLEX_EXACT, a_basis.embedded().generators[:3])


@pytest.mark.parametrize("realization", ["quaternionic", "complex"])
def test_basis_with_an_irrational_multiple_of_a_generator_is_dependent(
        realization, a_basis):
    basis = a_basis if realization == "quaternionic" else a_basis.embedded()
    gens = list(basis.generators)
    gens[4] = gens[1].scale(ONE_PLUS_SQRT2)
    with pytest.raises(ValueError, match="linearly dependent"):
        LieBasis("dependent", basis.realization, gens)


def _replace_column(rows, dst, src, factor):
    return [[factor * row[src] if c == dst else x for c, x in enumerate(row)]
            for row in rows]


def test_rank_drops_when_a_column_is_an_irrational_multiple_of_another():
    real = [[ExactScalar(1), ExactScalar.sqrt2(), ZERO, ExactScalar(Fraction(1, 3))],
            [ZERO, ExactScalar(1), ExactScalar(0, 0, 1), ExactScalar(2)],
            [ExactScalar(-1), ZERO, ExactScalar(1, 0, 0, 1), ZERO],
            [ZERO, ExactScalar(3), ZERO, ExactScalar(0, 1, 1)]]
    assert linalg.rank(real) == 4
    assert linalg.rank(_replace_column(real, 3, 1, ONE_PLUS_SQRT2)) == 3
    i = ExactComplex(0, 1)
    cplx = [[ExactComplex(x, y) for x, y in zip(row, reversed(row))]
            for row in real]
    assert linalg.rank(cplx) == 4
    for factor in (ExactComplex(ONE_PLUS_SQRT2), i * ONE_PLUS_SQRT2):
        assert linalg.rank(_replace_column(cplx, 3, 1, factor)) == 3
    # i times a column is independent of it over R, not over C
    assert linalg.rank([[x, i * x] for x in (ExactComplex(1, 2), ExactComplex(3))]) == 1


def test_commutant_of_the_su2_half_of_sostar4(a_basis):
    # C^4 is two copies of the fundamental su(2), so by Schur the commutant
    # is M_2(C); the sl(2,R) half cuts it down to the scalars
    assert commutant_dimension(_su2_half(a_basis)) == 4
    assert commutant_dimension(a_basis.embedded()) == 1


def test_inverse_of_a_singular_matrix_raises():
    first = [ExactComplex(1, 2), ExactComplex(0, -1), ExactComplex(ExactScalar.sqrt3())]
    factor = ExactComplex(0, 1) * ONE_PLUS_SQRT2
    third = [ExactComplex(0, 1), ExactComplex(1), ExactComplex(-1)]
    m = CMatrix([first, [factor * x for x in first], third])
    with pytest.raises(ValueError, match="matrix is singular"):
        m.inverse()
    with pytest.raises(ValueError, match="matrix is singular"):
        CMatrix.zeros(2, 2).inverse()


@settings(deadline=None)
@given(data=st.data())
def test_nullspace_basis_matches_reference(data):
    rows = data.draw(_matrices("real"))
    n = len(rows[0])
    pivots, reduced = _reference_rref(rows)
    want = []
    for fc in (c for c in range(n) if c not in pivots):
        vec = [ZERO] * n
        vec[fc] = ExactScalar(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][fc]
        want.append(vec)
    got = linalg.nullspace_basis(rows)
    assert len(got) == n - len(pivots)
    for vec in got:
        assert all(sum((a * x for a, x in zip(row, vec)), ZERO).is_zero()
                   for row in rows)
    assert got == want


@settings(deadline=None)
@given(data=st.data())
def test_inverse_matches_reference(data):
    n = data.draw(st.integers(1, 4))
    entry = st.builds(ExactComplex, _scalar, _scalar)
    if data.draw(st.booleans()):
        entry = st.one_of(st.just(C_ZERO), entry)
    rows = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
    unit = [[ExactComplex(int(i == j)) for j in range(n)] for i in range(n)]
    pivots, reduced = _reference_rref([r + u for r, u in zip(rows, unit)], n)
    m = CMatrix(rows)
    if len(pivots) < n:
        with pytest.raises(ValueError, match="matrix is singular"):
            m.inverse()
    else:
        inv = m.inverse()
        assert [list(r) for r in inv.entries] == [r[n:] for r in reduced]
        assert m @ inv == CMatrix.identity(n)


def test_nothing_in_the_package_calls_rref(monkeypatch, a_basis):
    def rref(*args, **kwargs):
        raise AssertionError("linalg.rref was called")

    monkeypatch.setattr(linalg, "rref", rref)
    basis = LieBasis("sostar4_A", "quaternionic", a_basis.generators)
    assert killing(generic_basis(SO_STAR, 1)).signature == (1, 0, 0)
    assert commutant_dimension(basis.embedded()) == 1
    transformed_spin_reps()
    report = verify_sostar8()
    assert report.passed, report.failures()


# -- an independent oracle: exact ranks over Q(sqrt2, sqrt3, i) in sympy

@pytest.fixture(scope="module")
def oracle_field():
    """The number field Q(sqrt2, sqrt3, i) of sympy's DomainMatrix and a
    converter of ExactScalar/ExactComplex values into it."""
    from sympy import I, QQ, Rational, sqrt
    field = QQ.algebraic_field(sqrt(2), sqrt(3), I)
    r2, r3, i = (field.from_sympy(x) for x in (sqrt(2), sqrt(3), I))
    basis = (field.one, r2, r3, r2 * r3)
    cache = {}

    def real(s):
        coords = (s.a, s.b, s.c, s.d)
        return sum((field.from_sympy(Rational(q.numerator, q.denominator)) * u
                    for q, u in zip(coords, basis) if q), field.zero)

    def convert(x):
        if x not in cache:
            cache[x] = (real(x.re) + i * real(x.im) if isinstance(x, ExactComplex)
                        else real(x))
        return cache[x]
    return field, convert


def _oracle_rank(oracle_field, rows):
    from sympy.polys.matrices import DomainMatrix
    field, convert = oracle_field
    return DomainMatrix([[convert(x) for x in row] for row in rows],
                        (len(rows), len(rows[0])), field).rank()


def _commutant_system(basis):
    """The rows of [X, g] = 0 in the unknowns X[alpha][beta], entry by entry:
    [X, g]_rc = sum_beta X_r,beta g_beta,c - sum_alpha g_r,alpha X_alpha,c."""
    m = basis.generators[0].rows
    rows = []
    for g in basis.generators:
        ge = g.entries
        for r in range(m):
            for c in range(m):
                rows.append([(ge[beta][c] if alpha == r else C_ZERO)
                             - (ge[r][alpha] if beta == c else C_ZERO)
                             for alpha in range(m) for beta in range(m)])
    return rows


def test_commutant_dimensions_match_the_oracle(oracle_field, a_basis, s_basis):
    for basis, want in ((a_basis.embedded(), 1), (_su2_half(a_basis), 4),
                        (s_basis, 2), (_su2(), 1)):
        m = basis.generators[0].rows
        rows = _commutant_system(basis)
        nullity = m * m - _oracle_rank(oracle_field, rows)
        assert commutant_dimension(basis) == nullity == want, basis.name
        assert linalg.rank(rows) == m * m - want


@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_complex_rank_matches_the_oracle(oracle_field, data):
    rows = data.draw(_matrices("complex"))
    assert linalg.rank(rows) == _oracle_rank(oracle_field, rows)
