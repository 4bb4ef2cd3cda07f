import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sostar import hmatrix
from sostar.bases import generic_basis, SL_H, SP_STAR, SO_STAR
from sostar.liealg import bracket
from sostar.hmatrix import (CMatrix, HMatrix, _ExactMatrix,
                            embedded_quaternionic_structure,
                            from_blocks, i_pq, is_slh_algebra, is_sostar_algebra,
                            is_sostar_group,
                            is_sostar_group_embedded, is_spstar_algebra,
                            is_spstar_group, is_su_group_embedded, max_abs_diff,
                            kron, quaternionic_structure_commutant_check)
from sostar.quaternion import Q_I, Q_J, Q_K, Q_ONE, Q_ZERO, Quaternion
from sostar.scalars import C_I, C_ONE, C_ZERO, ExactComplex, ExactScalar


def _rand_quat(rng) -> Quaternion:
    def r():
        return Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))
    return Quaternion(r(), r(), r(), r())


def _rand_hmatrix(rng, n) -> HMatrix:
    return HMatrix([[_rand_quat(rng) for _ in range(n)] for _ in range(n)])


def test_embed_identity_and_j():
    assert HMatrix.identity(3).embed() == CMatrix.identity(6)
    assert HMatrix([[Q_J]]).embed() == CMatrix([[ExactComplex(0), ExactComplex(-1)],
                                                [ExactComplex(1), ExactComplex(0)]])


def test_embed_multiplicative_on_random_pairs():
    rng = random.Random(11)
    for _ in range(10):
        a = _rand_hmatrix(rng, 2)
        b = _rand_hmatrix(rng, 2)
        assert (a @ b).embed() == a.embed() @ b.embed()


def test_antihomomorphisms_on_random_pairs():
    rng = random.Random(12)
    for _ in range(10):
        a = _rand_hmatrix(rng, 3)
        w = _rand_hmatrix(rng, 3)
        assert (a @ w).dagger() == w.dagger() @ a.dagger()
        assert (a @ w).rev_transpose() == w.rev_transpose() @ a.rev_transpose()


def test_embed_intertwines_involutions():
    rng = random.Random(21)
    for _ in range(5):
        m = _rand_hmatrix(rng, 3)
        assert m.dagger().embed() == m.embed().dagger()
        assert m.rev_transpose().embed() == m.embed().transpose()
        assert m.rev_entries().conj_entries().embed() == m.embed().conj()


def test_plain_transpose_fails_to_be_homomorphic():
    a = HMatrix([[Q_I, Quaternion(0)], [Quaternion(0), Quaternion(1)]])
    w = HMatrix([[Quaternion(0), Q_J], [Quaternion(1), Quaternion(0)]])
    prod_t = (a @ w).transpose()
    assert prod_t != a.transpose() @ w.transpose()
    assert prod_t != w.transpose() @ a.transpose()


def test_study_det_examples():
    assert HMatrix.identity(3).study_det() == ExactComplex(1)
    assert HMatrix([[Quaternion(1, 1)]]).study_det() == ExactComplex(2)
    assert HMatrix([[Q_J]]).study_det() == ExactComplex(1)


def _cofactor_det(m: CMatrix) -> ExactComplex:
    """Independent oracle: Laplace expansion along the first row."""
    n = m.rows
    if n == 1:
        return m.entries[0][0]
    total = ExactComplex(0)
    for j in range(n):
        if m.entries[0][j].is_zero():
            continue
        minor = CMatrix([[m.entries[r][c] for c in range(n) if c != j]
                         for r in range(1, n)])
        term = m.entries[0][j] * _cofactor_det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def test_study_det_matches_cofactor_oracle():
    rng = random.Random(13)
    for _ in range(5):
        m = _rand_hmatrix(rng, 2)
        assert m.study_det() == _cofactor_det(m.embed())


def test_study_det_multiplicative():
    rng = random.Random(14)
    for _ in range(5):
        a = _rand_hmatrix(rng, 2)
        b = _rand_hmatrix(rng, 2)
        assert (a @ b).study_det() == a.study_det() * b.study_det()


def test_study_det_real_nonnegative():
    rng = random.Random(15)
    for _ in range(5):
        d = _rand_hmatrix(rng, 2).study_det()
        assert d.im.is_zero()
        assert d.re.sign() >= 0


def test_sostar_membership_examples():
    assert is_sostar_group(HMatrix.identity(3))
    assert not is_sostar_group(HMatrix.identity(3).scale(2))
    for theta in (Fraction(1), Fraction(-3, 2), Fraction(5, 7)):
        elem = HMatrix([[Q_J.scale(theta)]])
        assert is_sostar_algebra(elem)
    assert not is_sostar_algebra(HMatrix([[Q_I]]))
    # a rotation by 90 degrees in the 1-j plane is an exact group element
    assert is_sostar_group(HMatrix([[Q_J]]))


# cosine and sine of an exact rotation angle: 3/5 and 4/5
_COS_SIN = (Fraction(3, 5), Fraction(4, 5))


@st.composite
def _sostar_elements(draw):
    """An exact element of SO*(2n), n <= 4: a product of (3/5, 4/5) rotations
    of a real coordinate plane and j phases diag(1, ..., c + s j, ..., 1)."""
    n = draw(st.integers(1, 4))
    o = HMatrix.identity(n)
    for _ in range(draw(st.integers(0, 7))):
        c, s = draw(st.sampled_from([_COS_SIN, _COS_SIN[::-1], (0, 1)]))
        s *= draw(st.sampled_from([1, -1]))
        entries = {(i, i): 1 for i in range(n)}
        if n > 1 and draw(st.booleans()):
            a, b = draw(st.permutations(range(n)))[:2]
            entries.update({(a, a): c, (b, b): c, (a, b): -s, (b, a): s})
        else:
            p = draw(st.integers(0, n - 1))
            entries[(p, p)] = Quaternion(c, 0, s)
        o = HMatrix.sparse(n, entries) @ o
    return o


@settings(deadline=None)
@given(_sostar_elements())
def test_exact_sostar_elements_have_unit_study_determinant(o):
    # the group identity alone decides membership: it forces det = 1
    assert is_sostar_group(o)
    assert o.study_det() == C_ONE
    # these elements are also quaternion-unitary, so they lie in Sp*(n, 0)
    assert is_spstar_group(o, o.rows, 0)
    assert not is_sostar_group(o.scale(Fraction(5, 4)))


def test_spstar_membership_examples():
    assert is_spstar_group(HMatrix.identity(2), 2, 0)
    assert is_spstar_group(HMatrix([[Q_I]]), 1, 0)
    assert not is_spstar_group(HMatrix([[Quaternion(1, 1)]]), 1, 0)
    assert is_spstar_algebra(HMatrix([[Q_I]]), 1, 0)
    with pytest.raises(ValueError):
        is_spstar_group(HMatrix.identity(3), 1, 1)


# cosh and sinh of an exact hyperbolic angle: 5/3 and 4/3
_COSH_SINH = (Fraction(5, 3), Fraction(4, 3))


@st.composite
def _spstar_candidates(draw):
    """(A, p, q, member) with p + q <= 3.  A member (member True) is a
    product of (3/5, 4/5) rotations of a plane inside one sign block of
    I_pq, (5/3, 4/3) boosts of a plane across the blocks and unit quaternion
    phases c + s u (u = i, j or k) on one diagonal entry.  A non-member
    (member False) is such a product scaled by 5/4.  Otherwise A is an
    arbitrary matrix of `_matrix` (member None)."""
    n = draw(st.integers(1, 3))
    p = draw(st.integers(0, n))
    kind = draw(st.sampled_from(["member", "scaled", "arbitrary"]))
    if kind == "arbitrary":
        return draw(_matrix(HMatrix, n, n)), p, n - p, None
    a = HMatrix.identity(n)
    for _ in range(draw(st.integers(0, 5))):
        entries = {(i, i): 1 for i in range(n)}
        if n > 1 and draw(st.booleans()):
            x, y = sorted(draw(st.permutations(range(n)))[:2])
            if (x < p) == (y < p):
                c, s = _COS_SIN
                entries.update({(x, x): c, (y, y): c, (x, y): -s, (y, x): s})
            else:
                ch, sh = _COSH_SINH
                entries.update({(x, x): ch, (y, y): ch, (x, y): sh, (y, x): sh})
        else:
            c, s = draw(st.sampled_from([_COS_SIN, _COS_SIN[::-1], (0, 1)]))
            unit = draw(st.sampled_from([Q_I, Q_J, Q_K]))
            entries[(draw(st.integers(0, n - 1)),) * 2] = unit.scale(s) + c
        a = HMatrix.sparse(n, entries) @ a
    if kind == "scaled":
        return a.scale(Fraction(5, 4)), p, n - p, False
    return a, p, n - p, True


@settings(deadline=None)
@given(_spstar_candidates())
def test_hermitian_and_skew_spstar_identities_agree(case):
    # rev_transpose(A) (j I_pq) A = j (dagger(A) I_pq A), so is_spstar_group
    # tests the Hermitian identity alone
    a, p, q, member = case
    form = i_pq(p, q)
    jform = form.left_mul(Q_J)
    hermitian = a.dagger() @ form @ a == form
    assert (a.rev_transpose() @ jform @ a == jform) == hermitian
    assert is_spstar_group(a, p, q) == hermitian
    if member is not None:
        assert hermitian == member


@pytest.mark.parametrize("n", [1, 2, 3])
def test_slh_generators_are_members(n):
    assert all(is_slh_algebra(g) for g in generic_basis(SL_H, n).generators)


def test_slh_rejects_a_real_trace_and_a_non_square_matrix():
    assert not is_slh_algebra(HMatrix.diag([Quaternion(1), Quaternion(0)]))
    with pytest.raises(ValueError):
        is_slh_algebra(HMatrix([[Q_I, Q_J]]))


def test_spstar_algebra_embeds_into_unitary_and_symplectic():
    """Embedded sp*(p,q) elements satisfy both the pseudo-unitary condition
    for the embedded Hermitian form and the symplectic condition for the
    embedded skew form j*I_pq."""
    rng = random.Random(16)
    p, q = 1, 1
    basis = generic_basis(SP_STAR, 2, p, q)
    herm = i_pq(p, q).embed()
    skew = i_pq(p, q).left_mul(Q_J).embed()
    for _ in range(5):
        elem = None
        for g in basis.generators:
            term = g.scale(Fraction(rng.randint(-3, 3), rng.choice((1, 2))))
            elem = term if elem is None else elem + term
        assert is_spstar_algebra(elem, p, q)
        e = elem.embed()
        assert (e.dagger() @ herm + herm @ e).is_zero()
        assert (e.transpose() @ skew + skew @ e).is_zero()


def test_sostar_algebra_embeds_antisymmetric_and_quaternionic():
    rng = random.Random(17)
    basis = generic_basis(SO_STAR, 3)
    j = embedded_quaternionic_structure(3)
    for _ in range(5):
        elem = None
        for g in basis.generators:
            term = g.scale(Fraction(rng.randint(-3, 3), rng.choice((1, 2))))
            elem = term if elem is None else elem + term
        assert is_sostar_algebra(elem)
        e = elem.embed()
        assert (e.transpose() + e).is_zero()
        assert quaternionic_structure_commutant_check(e, j)


def test_quaternionic_structure_check_examples():
    rng = random.Random(18)
    eps = HMatrix([[Q_J]]).embed()
    assert quaternionic_structure_commutant_check(CMatrix.identity(2), eps)
    for _ in range(5):
        q = _rand_quat(rng)
        assert quaternionic_structure_commutant_check(HMatrix([[q]]).embed(), eps)
    diag_i1 = CMatrix.diag([ExactComplex(0, 1), ExactComplex(1)])
    assert not quaternionic_structure_commutant_check(diag_i1, eps)
    not_a_structure = CMatrix.identity(2)
    with pytest.raises(ValueError):
        quaternionic_structure_commutant_check(diag_i1, not_a_structure)


def test_embedded_float_membership_can_fail():
    """The float predicates accept known group elements and reject a scaled
    element, a wrong determinant and a matrix of NaNs."""
    import numpy as np
    j = HMatrix([[Q_J]]).embed().to_numpy()  # exp(pi/2 j), an SO*(2) element
    assert is_sostar_group_embedded(j)
    assert not is_sostar_group_embedded(2 * j)
    assert not is_sostar_group_embedded(np.full((2, 2), np.nan))
    assert is_su_group_embedded(np.diag([1j] * 4), 3, 1)
    assert not is_su_group_embedded(np.diag([1j] * 3 + [1]), 3, 1)
    with pytest.raises(ValueError):
        is_sostar_group_embedded(np.eye(3))
    assert max_abs_diff(j, -j) == 2.0
    with pytest.raises(ValueError):
        max_abs_diff(np.eye(2), np.eye(3))


def test_shape_errors():
    with pytest.raises(ValueError):
        HMatrix.identity(2) @ HMatrix.identity(3)
    with pytest.raises(ValueError):
        HMatrix([[Quaternion(1), Quaternion(0)]]).trace()


def test_json_round_trip():
    rng = random.Random(19)
    m = _rand_hmatrix(rng, 2)
    assert HMatrix.from_json(m.to_json()) == m
    c = m.embed()
    assert CMatrix.from_json(c.to_json()) == c


# -- the zero-skipping product against a naive triple loop ---------------------

# zero, rational, single-radical and dense irrational field elements
_scalar = st.sampled_from([
    ExactScalar(0), ExactScalar(1), ExactScalar(Fraction(-1, 2)), ExactScalar(3),
    ExactScalar.sqrt2(), ExactScalar(0, 0, Fraction(-2, 3)),
    ExactScalar(1, 0, 0, 1), ExactScalar(Fraction(1, 2), -1, Fraction(2, 3), 2),
    ExactScalar(-1, Fraction(1, 4), 0, Fraction(-3, 4)),
])
_ENTRIES = {
    HMatrix: (Q_ZERO, st.builds(Quaternion, _scalar, _scalar, _scalar, _scalar)),
    CMatrix: (C_ZERO, st.builds(ExactComplex, _scalar, _scalar)),
}


@st.composite
def _product_operands(draw, cls):
    """A compatible pair (a, b), sparse or dense, possibly with a zero row of
    a and a zero column of b."""
    zero, entry = _ENTRIES[cls]
    rows, inner, cols = (draw(st.integers(1, 4)) for _ in range(3))
    if draw(st.booleans()):  # sparse: about half the entries vanish
        entry = st.one_of(st.just(zero), entry)

    def grid(n, m):
        return [[draw(entry) for _ in range(m)] for _ in range(n)]

    a, b = grid(rows, inner), grid(inner, cols)
    if draw(st.booleans()):
        a[draw(st.integers(0, rows - 1))] = [zero] * inner
    if draw(st.booleans()):
        j = draw(st.integers(0, cols - 1))
        for row in b:
            row[j] = zero
    return cls(a), cls(b)


def _naive_product(a, b, zero):
    return [[sum((a.entries[i][k] * b.entries[k][j] for k in range(a.cols)), zero)
             for j in range(b.cols)] for i in range(a.rows)]


@settings(deadline=None)
@given(_product_operands(HMatrix))
def test_hmatrix_product_matches_naive_loop(pair):
    a, b = pair
    product = a @ b
    reference = HMatrix(_naive_product(a, b, Q_ZERO))
    assert (product.rows, product.cols) == (a.rows, b.cols)
    assert product == reference and hash(product) == hash(reference)


@settings(deadline=None)
@given(_product_operands(CMatrix))
def test_cmatrix_product_matches_naive_loop(pair):
    a, b = pair
    product = a @ b
    reference = CMatrix(_naive_product(a, b, C_ZERO))
    assert (product.rows, product.cols) == (a.rows, b.cols)
    assert product == reference and hash(product) == hash(reference)


def test_product_with_a_zero_factor_is_zero():
    a = _rand_hmatrix(random.Random(3), 3)
    assert (a @ HMatrix.zeros(3, 2)) == HMatrix.zeros(3, 2)
    assert (HMatrix.zeros(1, 3) @ a).is_zero()
    assert (a.embed() @ CMatrix.zeros(6, 6)) == CMatrix.zeros(6, 6)


# -- the integer kernel against the element-wise reference ---------------------

def _dense_pattern(m):
    """Per row, the (column, element) pairs of the nonzero `entries`."""
    return tuple(tuple((j, e) for j, e in enumerate(row) if not e.is_zero())
                 for row in m.entries)


def _form_pattern(m):
    """Per row, the (column, element) pairs that the integer form holds, in
    column order."""
    den, rows, rational = m._ints
    return tuple(tuple((j, m._entry_of(row[j], den, rational)) for j in sorted(row))
                 for row in (rows.get(i, {}) for i in range(m.rows)))


def _built_elements(build):
    """build() and the number of elements built from an integer form
    meanwhile, counted at `_ExactMatrix._entry_of`."""
    calls = []
    original = _ExactMatrix._entry_of

    def counting(self, *args):
        calls.append(args)
        return original(self, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_ExactMatrix, "_entry_of", counting)
        result = build()
    return result, len(calls)


def _reference_product(left, right) -> list[tuple]:
    """Nonzero pattern of left @ right, row by row (Gustavson's row-wise
    product) on the elements: each nonzero left[i][k] meets only the
    nonzeros of row k of `right`.  Only the accumulated entries are tested
    for zero, so terms that cancel leave no entry behind."""
    right_rows = _dense_pattern(right)
    out = []
    for left_row in _dense_pattern(left):
        acc = {}
        for k, a in left_row:
            for j, b in right_rows[k]:
                prev = acc.get(j)
                acc[j] = a * b if prev is None else prev + a * b
        out.append(tuple(sorted((j, e) for j, e in acc.items() if not e.is_zero())))
    return out


def _reference_merge(left, right, op) -> list[tuple]:
    """Nonzero pattern of op(left, right) entry-wise, for op = add or sub,
    merging the two nonzero patterns row by row on the elements."""
    zero = left._zero
    out = []
    for left_row, right_row in zip(_dense_pattern(left), _dense_pattern(right)):
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
    return out


def _from_pattern(cls, cols, pattern):
    grid = [[cls._zero] * cols for _ in pattern]
    for row, pairs in zip(grid, pattern):
        for j, e in pairs:
            row[j] = e
    return cls(grid)


# each coordinate over one of the coprime denominators 1, 3, 7 and 32, so the
# entries of one matrix mix them
_fraction = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 3, 7, 32]))
_KINDS = {"rational": st.builds(ExactScalar, _fraction),
          "irrational": st.builds(ExactScalar, _fraction, _fraction, _fraction,
                                  _fraction)}


@st.composite
def _matrix(draw, cls, rows, cols, kind=None):
    """A rows x cols matrix of type cls, sparse or dense, with rational or
    irrational coordinates (drawn, unless `kind` names one)."""
    scalar = _KINDS[kind or draw(st.sampled_from(sorted(_KINDS)))]
    entry = (st.builds(Quaternion, scalar, scalar, scalar, scalar)
             if cls is HMatrix else st.builds(ExactComplex, scalar, scalar))
    if draw(st.booleans()):  # sparse: about half the entries vanish
        entry = st.one_of(st.just(cls._zero), entry)
    return cls([[draw(entry) for _ in range(cols)] for _ in range(rows)])


@st.composite
def _kernel_operands(draw, cls):
    """(a, b, c): a @ b is defined and c has the shape of a.  Each has
    rational or irrational coordinates and is sparse or dense; c may be a
    itself or its negation, so that a - c or a + c cancels."""
    rows, inner, cols = (draw(st.integers(1, 4)) for _ in range(3))
    a, b = draw(_matrix(cls, rows, inner)), draw(_matrix(cls, inner, cols))
    c = draw(st.sampled_from([
        lambda: draw(_matrix(cls, rows, inner)), lambda: a,
        lambda: cls([[-e for e in row] for row in a.entries])]))()
    return a, b, c


def _kernel_examples() -> list:
    """(a, b, c) as in `_kernel_operands`, written out: non-square operands
    (2x3 @ 3x1 and 1x3 @ 3x2), zero first and last rows, and a product row
    whose two terms cancel next to a row that gets a single term.  Each with
    a rational and an irrational unit u."""
    out = []
    for cls, unit in ((HMatrix, Q_J), (CMatrix, C_I)):
        for scalar in (ExactScalar(1), ExactScalar(1, 1)):  # 1 and 1 + sqrt2
            u = unit * scalar
            out += [
                (cls([[0, 0, 0], [1, u, 2]]), cls([[u], [0], [1]]),
                 cls([[1, 0, 0], [0, 0, 0]])),
                (cls([[1, 1, u]]), cls([[u, u], [-u, 0], [0, 0]]),
                 cls([[1, 1, u]])),
                (cls([[1, 1], [0, 1]]), cls([[u], [-u]]),
                 cls([[-1, -1], [0, -1]])),
            ]
    return out


def _examples(cases):
    """Run a hypothesis test on each of `cases` as well."""
    def decorate(test):
        for case in cases:
            test = example(case)(test)
        return test
    return decorate


def _assert_matches(got, want) -> None:
    """`got`, built by the integer kernel, against the grid-built `want`:
    shape, entries, hash, zero test and coordinates, and a form that holds
    no empty row and no index outside the shape."""
    assert (got.rows, got.cols) == (want.rows, want.cols)
    assert got.entries == want.entries
    assert got == want and hash(got) == hash(want)
    assert got.is_zero() == all(e.is_zero() for row in want.entries for e in row)
    assert got.coords() == _dense_coords(want)
    rows = got._ints[1]
    assert all(0 <= i < got.rows and row and all(0 <= j < got.cols for j in row)
               for i, row in rows.items())


def _embedded_reference(m: HMatrix) -> CMatrix:
    """The 2x2 complex block [[t + z i, x i - y], [x i + y, t - z i]] of each
    entry, on the elements."""
    def block(q):
        return ((ExactComplex(q.t, q.z), ExactComplex(-q.y, q.x)),
                (ExactComplex(q.y, q.x), ExactComplex(q.t, -q.z)))
    return CMatrix([[e for q in row for e in block(q)[half]]
                    for row in m.entries for half in (0, 1)])


def _assert_reshaped_like_the_entries(m) -> None:
    """transpose, `_block` slices and embed or kron and from_blocks of m
    against the same operations on its entries."""
    cls, grid = type(m), [list(row) for row in m.entries]
    _assert_matches(m.transpose(), cls([list(col) for col in zip(*grid)]))
    for r0, c0 in {(0, 0), (m.rows // 2, m.cols // 2), (m.rows - 1, 0)}:
        for r1, c1 in {(m.rows, m.cols), (r0 + 1, c0 + 1)}:
            _assert_matches(m._block(r0, r1, c0, c1),
                            cls([row[c0:c1] for row in grid[r0:r1]]))
    if cls is HMatrix:
        _assert_matches(m.embed(), _embedded_reference(m))
        return
    _assert_matches(kron(m, m), CMatrix(
        [[x * y for x in left for y in right] for left in grid for right in grid]))
    _assert_matches(from_blocks([[m, -m], [m, m]]), CMatrix(
        [row + [-e for e in row] for row in grid] + [row + row for row in grid]))


@settings(deadline=None)
@_examples(_kernel_examples())
@given(st.one_of(_kernel_operands(HMatrix), _kernel_operands(CMatrix)))
def test_integer_kernel_matches_the_elementwise_reference(ops):
    a, b, c = ops
    cls = type(a)
    ab, cb = a @ b, c @ b  # integer forms over different denominators
    cases = [(ab, _reference_product(a, b)),
             (a + c, _reference_merge(a, c, cls._entry.__add__)),
             (a - c, _reference_merge(a, c, cls._entry.__sub__)),
             (ab - cb, _reference_merge(ab, cb, cls._entry.__sub__)),
             (ab + ab, _reference_merge(ab, ab, cls._entry.__add__)),
             (ab @ b.transpose(), _reference_product(ab, b.transpose()))]
    for got, pattern in cases:
        want = _from_pattern(cls, got.cols, pattern)
        assert _form_pattern(got) == tuple(pattern)
        _assert_matches(got, want)
        zero = cls.zeros(got.rows, got.cols)
        assert got.is_zero() == (pattern == [()] * got.rows) == (got == zero)
    for cancelled in ([a - c] if c == a else []) + ([a + c] if c == -a else []):
        assert cancelled.is_zero() and _form_pattern(cancelled) == ((),) * a.rows
        assert cancelled == cls.zeros(a.rows, a.cols)
    for m in (a, b, ab):
        _assert_reshaped_like_the_entries(m)


@st.composite
def _scaling_operands(draw, cls):
    """(m, e): a matrix and one element of its ring, each with rational or
    irrational coordinates; every coordinate of e is drawn, so a quaternion
    e is in general not central."""
    m = draw(_matrix(cls, draw(st.integers(1, 4)), draw(st.integers(1, 4))))
    scalar = _KINDS[draw(st.sampled_from(sorted(_KINDS)))]
    e = cls._entry(*(draw(scalar) for _ in range(cls._entry._k)))
    return m, draw(st.sampled_from([e, cls._zero]))


@settings(deadline=None)
@given(st.one_of(_scaling_operands(HMatrix), _scaling_operands(CMatrix)))
def test_left_scaling_matches_the_product_with_a_diagonal(ops):
    m, e = ops
    want = hmatrix._product(type(m).diag([e] * m.rows), m)
    products = []
    original = hmatrix._product

    def counting(a, b):
        products.append((a, b))
        return original(a, b)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hmatrix, "_product", counting)
        got = m._left_scaled(e)
    assert got._ints == want._ints
    _assert_matches(got, want)
    rational = not any(e._num[type(m)._entry._k:]) and m._ints[2]
    assert len(products) == (0 if rational else 1)


# -- the integer form handed over, against a dense scan of the entries ---------

def _dense_coords(m):
    parts = (lambda q: (q.t, q.x, q.y, q.z)) if isinstance(m, HMatrix) else (
        lambda e: (e.re, e.im))
    return [c for row in m.entries for e in row for c in parts(e)]


def _operation_results(a, b):
    """Every operation that hands its result an integer form, applied to a
    compatible pair (a, b)."""
    ab = a @ b
    results = [ab, a + a, a - a, -a, a.scale(2), a.scale(0), a.transpose(),
               a + ab @ b.transpose(), ab - ab.scale(Fraction(1, 2)), ab - ab]
    if isinstance(a, HMatrix):
        results += [a.scale(ExactScalar.sqrt2()), a.left_mul(Q_J),
                    a.conj_entries(), a.rev_entries(), a - a.rev_entries(),
                    a.rev_transpose(), a.dagger(), a.embed(), ab.embed()]
    else:
        results += [a.scale(C_I), a.conj(), a - a.conj(), a.dagger()]
    return results


@settings(deadline=None)
@given(st.one_of(_product_operands(HMatrix), _product_operands(CMatrix)))
def test_operations_hand_over_the_dense_pattern(pair):
    results, built = _built_elements(lambda: _operation_results(*pair))
    assert built == 0  # handed over on the integer forms, no element built
    for m in results:
        assert _form_pattern(m) == _dense_pattern(m)
        rebuilt = type(m)(m.entries)
        assert m == rebuilt and hash(m) == hash(rebuilt)
        assert _form_pattern(rebuilt) == _form_pattern(m)
        assert m.is_zero() == (not any(_dense_pattern(m)))
        assert m.coords() == _dense_coords(m)


@settings(deadline=None)
@given(st.one_of(_product_operands(HMatrix), _product_operands(CMatrix)))
def test_cancelling_terms_leave_an_empty_pattern(pair):
    a, b = pair
    cls = type(a)
    # [a | a] @ [b ; -b] = a b - a b: every accumulated sum cancels
    left = cls([row + row for row in a.entries])
    right = cls(list(b.entries) + [[-e for e in row] for row in b.entries])
    square = a @ a.transpose()
    for m in (a - a, left @ right, bracket(square, square), -(b - b)):
        assert _form_pattern(m) == ((),) * m.rows
        assert m.is_zero()
        assert m == cls.zeros(m.rows, m.cols)
        assert hash(m) == hash(cls.zeros(m.rows, m.cols))


@pytest.mark.parametrize("cls", [HMatrix, CMatrix], ids=lambda c: c.__name__)
def test_products_sums_and_brackets_coerce_no_entry(cls, monkeypatch):
    rng = random.Random(5)
    a = _rand_hmatrix(rng, 3)
    b = _rand_hmatrix(rng, 3).rev_entries()
    if cls is CMatrix:
        a, b = a.embed(), b.embed()
    calls = []
    entry_type = cls._entry
    original = entry_type.coerce.__func__

    def counting_coerce(klass, x):
        calls.append(x)
        return original(klass, x)

    monkeypatch.setattr(entry_type, "coerce", classmethod(counting_coerce))
    cls([[1]])
    assert len(calls) == 1  # the public constructor still coerces
    calls.clear()
    for m in (a @ b, a + b, a - b, bracket(a, b)):
        assert not m.is_zero()
    assert calls == []


@given(st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(_ENTRIES[HMatrix][1], min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_sostar_algebra_condition_forces_imaginary_trace(grid):
    # rev_transpose(s) = -s puts a multiple of j on the diagonal, which is why
    # is_sostar_algebra needs no separate trace test
    a = HMatrix(grid)
    s = a - a.rev_transpose()
    assert is_sostar_algebra(s)
    for i in range(s.rows):
        d = s.entries[i][i]
        assert d.t.is_zero() and d.x.is_zero() and d.z.is_zero()
    assert s.trace().real_part().is_zero()


# -- the contract the shared exact base keeps for both matrix types ------------

# the zero, the one and a non-real unit of each entry ring
_RING = {HMatrix: (Q_ZERO, Q_ONE, Q_J), CMatrix: (C_ZERO, C_ONE, C_I)}
_MATRIX_TYPES = pytest.mark.parametrize("cls", [HMatrix, CMatrix],
                                        ids=lambda cls: cls.__name__)


@_MATRIX_TYPES
def test_matrix_is_immutable(cls):
    m = cls.identity(2)
    for name, value in (("rows", 3), ("entries", ()), ("extra", 1)):
        with pytest.raises(AttributeError):
            setattr(m, name, value)
    assert m == cls.identity(2)


@_MATRIX_TYPES
def test_str_entry_is_a_type_error(cls):
    with pytest.raises(TypeError):
        cls([["1"]])
    with pytest.raises(TypeError):
        cls.diag([1, "1"])


@_MATRIX_TYPES
@pytest.mark.parametrize("grid", [[], [[]], [[1, 2], [3]], [[1], [2, 3]]],
                         ids=["no-rows", "empty-row", "short-row", "long-row"])
def test_empty_and_ragged_input_is_a_value_error(cls, grid):
    with pytest.raises(ValueError):
        cls(grid)


def test_hmatrix_and_cmatrix_do_not_combine():
    # the integer forms of the two types hold different coordinates, so
    # mixing them is a TypeError, even where every entry is zero
    for h, c in ((HMatrix.identity(2), CMatrix.identity(2)),
                 (HMatrix.zeros(2, 2), CMatrix.zeros(2, 2))):
        for op in (lambda x, y: x @ y, lambda x, y: x + y, lambda x, y: x - y):
            with pytest.raises(TypeError):
                op(h, c)
            with pytest.raises(TypeError):
                op(c, h)


def test_hmatrix_never_equals_a_cmatrix():
    for h, c in ((HMatrix.identity(2), CMatrix.identity(2)),
                 (HMatrix.zeros(1, 3), CMatrix.zeros(1, 3))):
        assert h != c and c != h
        assert not h == c and not c == h


@_MATRIX_TYPES
def test_equal_matrices_hash_equal(cls):
    u = _RING[cls][2]
    pairs = [
        (cls.identity(2), cls([[1, 0], [0, 1]])),
        (cls.diag([Fraction(1, 2), u]), cls([[Fraction(1, 2), 0], [0, u]])),
        (cls([[u, 1]]) + cls([[u, 1]]), cls([[u, 1]]).scale(2)),
        (cls([[u]]) - cls([[u]]), cls.zeros(1, 1)),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
    assert len({a for pair in pairs for a in pair}) == len(pairs)


@_MATRIX_TYPES
def test_one_value_over_two_forms_is_equal_and_hashes_equal(cls):
    u = _RING[cls][2]
    x = cls([[Fraction(1, 2), u, 0], [0, 3, Fraction(-2, 7)]])
    y = cls([[ExactScalar.sqrt2(), 0, u * ExactScalar(0, 0, Fraction(1, 3))],
             [u, 0, ExactScalar(1, 1)]])
    z = (x + y) - y
    # z's form is over 42 and in the irrational layout, x's over 14 and rational
    assert (z._ints[0], z._ints[2]) == (42, False)
    assert (x._ints[0], x._ints[2]) == (14, True)
    assert z == x and x == z and hash(z) == hash(x)
    assert z != x + y


@_MATRIX_TYPES
def test_hash_reads_the_form_and_builds_no_element(cls):
    u = _RING[cls][2]
    mixed = cls([[Fraction(1, 2), u * ExactScalar(1, 1)], [0, 3]])
    for m in (cls.zeros(2, 3), cls.identity(3), mixed, (mixed + mixed) - mixed):
        h, built = _built_elements(lambda: hash(m))
        assert built == 0
        assert h == hash(m)
    assert hash((mixed + mixed) - mixed) == hash(mixed)


@_MATRIX_TYPES
@settings(deadline=None)
@given(data=st.data())
def test_forms_of_one_value_hash_alike(cls, data):
    # the value over a multiple of its denominator and, when it is rational,
    # in the irrational layout with zero sqrt2, sqrt3 and sqrt6 blocks
    m = data.draw(_matrix(cls, data.draw(st.integers(1, 3)),
                          data.draw(st.integers(1, 3))))
    f = data.draw(st.integers(2, 30))
    den, rows, rational = m._ints
    pad = (0,) * (3 * len(cls._entry._fields))

    def rebuilt(scale, padded):
        return {i: {j: tuple(scale * x for x in t) + (pad if padded else ())
                    for j, t in row.items()} for i, row in rows.items()}

    forms = [(den * f, rebuilt(f, False), rational)]
    if rational:
        forms += [(den, rebuilt(1, True), False), (den * f, rebuilt(f, True), False)]
    for form in forms:
        twin = cls._from_form(m.rows, m.cols, form)
        assert twin == m and hash(twin) == hash(m)


@_MATRIX_TYPES
def test_matrices_of_different_shapes_compare_unequal(cls):
    pairs = [(cls.zeros(2, 3), cls.zeros(3, 2)), (cls.identity(2), cls.identity(3)),
             (cls.zeros(1, 2), cls.zeros(1, 3)), (cls([[1, 0]]), cls([[1], [0]]))]
    for a, b in pairs:
        assert a != b and b != a
        assert not a == b and not b == a


@_MATRIX_TYPES
def test_constructors_transpose_and_trace(cls):
    zero, one, u = _RING[cls]
    assert cls.identity(2).entries == ((one, zero), (zero, one))
    assert cls.zeros(2, 3).entries == ((zero,) * 3,) * 2
    assert cls.diag([u, 2]).entries == ((u, zero), (zero, 2))
    m = cls([[1, u, 0], [2, 3, u]])
    t = m.transpose()
    assert (t.rows, t.cols) == (3, 2)
    assert t == cls([[1, 2], [u, 3], [0, u]])
    assert t.transpose() == m
    assert cls([[1, u], [0, u]]).trace() == one + u
    assert cls.identity(3).trace() == 3
    with pytest.raises(ValueError):
        m.trace()


@settings(deadline=None)
@_MATRIX_TYPES
@pytest.mark.parametrize("kind", sorted(_KINDS))
@given(data=st.data())
def test_trace_is_the_sum_of_the_diagonal_entries(cls, kind, data):
    n = data.draw(st.integers(1, 4))
    m = data.draw(_matrix(cls, n, n, kind))
    d = m.entries[0][0]
    # m @ m has an unreduced denominator, m - m^T an empty diagonal and
    # diag(d, -d) a diagonal that cancels
    for x in (m, m @ m, m.scale(ExactScalar(1, 1)), m - m.transpose(),
              cls.diag([d, -d])):
        want = sum((row[i] for i, row in enumerate(x.entries)), cls._zero)
        assert x.trace() == want


@_MATRIX_TYPES
def test_sparse_fills_the_rest_with_zero(cls):
    u = _RING[cls][2]
    assert cls.sparse(2, {(0, 1): u}) == cls([[0, u], [0, 0]])
    assert cls.sparse(3, {}) == cls.zeros(3, 3)
    assert cls.sparse(2, {(0, 0): 1, (1, 1): 1}) == cls.identity(2)


def _constructor_cases(cls) -> list:
    """(built by a constructor, the same matrix built from its grid), with
    rational, irrational and explicitly zero entries."""
    zero, one, u = _RING[cls]
    r = u * ExactScalar(Fraction(1, 3), 0, 2)  # (1/3 + 2 sqrt3) u
    return [
        (cls.sparse(3, {(0, 1): u, (2, 0): r, (1, 1): 0}),
         cls([[0, u, 0], [0, 0, 0], [r, 0, 0]])),
        (cls.sparse(2, {(1, 1): Fraction(1, 2)}), cls([[0, 0], [0, Fraction(1, 2)]])),
        (cls.sparse(2, {}), cls([[0, 0], [0, 0]])),
        (cls.diag([r, 0, ExactScalar.sqrt2()]),
         cls([[r, 0, 0], [0, 0, 0], [0, 0, ExactScalar.sqrt2()]])),
        (cls.diag([zero]), cls([[0]])),
        (cls.identity(3), cls([[1, 0, 0], [0, 1, 0], [0, 0, 1]])),
        (cls.zeros(2, 3), cls([[0, 0, 0], [0, 0, 0]])),
    ]


@_MATRIX_TYPES
def test_constructors_build_the_form_of_their_grid(cls):
    cases, built_elements = _built_elements(lambda: _constructor_cases(cls))
    assert built_elements == 0  # no grid of zero elements
    for built, want in cases:
        assert built == want and hash(built) == hash(want)
        assert (built.rows, built.cols) == (want.rows, want.cols)
        assert built._ints == want._ints
        assert built.coords() == want.coords()


@_MATRIX_TYPES
@pytest.mark.parametrize("build, error", [
    (lambda cls: cls.sparse(0, {}), ValueError),
    (lambda cls: cls.diag([]), ValueError),
    (lambda cls: cls.identity(0), ValueError),
    (lambda cls: cls.zeros(0, 2), ValueError),
    (lambda cls: cls.zeros(2, 0), ValueError),
    (lambda cls: cls.sparse(2, {(0, 0): "1"}), TypeError),
    (lambda cls: cls.diag([1, 1.5]), TypeError),
    (lambda cls: cls.sparse(2, {(2, 0): 1}), IndexError),
    (lambda cls: cls.sparse(2, {(0, -1): 1}), IndexError),
    (lambda cls: cls.sparse(0, {(0, 0): 1}), IndexError),
], ids=["sparse-empty", "diag-empty", "identity-empty", "zeros-no-rows",
        "zeros-no-cols", "sparse-str", "diag-float", "sparse-row-index",
        "sparse-negative-index", "sparse-empty-with-entry"])
def test_constructors_reject_empty_shapes_bad_entries_and_indices(cls, build, error):
    with pytest.raises(error):
        build(cls)


@_MATRIX_TYPES
def test_json_key_order_text_and_round_trip(cls):
    keys = ["rows", "cols", "entries"] if cls is HMatrix else [
        "rows", "cols", "mode", "entries"]
    u = _RING[cls][2]
    m = cls([[Fraction(1, 2), u, 0], [ExactScalar.sqrt2(), 1, u]])
    assert list(m.to_json()) == keys
    assert cls.from_json(json.loads(json.dumps(m.to_json()))) == m
    entry = cls([[u]])
    head = '"mode": "exact", ' if cls is CMatrix else ""
    assert json.dumps(entry.to_json()) == (
        '{"rows": 1, "cols": 1, ' + head + '"entries": ['
        + json.dumps(u.to_json()) + ']}')


@settings(deadline=None)
@_MATRIX_TYPES
@pytest.mark.parametrize("kind", sorted(_KINDS))
@given(data=st.data())
def test_to_json_matches_the_element_built_reference(cls, kind, data):
    rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    for m in (data.draw(_matrix(cls, rows, cols, kind)), cls.zeros(rows, cols)):
        doc = m.to_json()
        assert doc["entries"] == [e.to_json() for row in m.entries for e in row]
        assert json.loads(json.dumps(doc)) == doc


@_MATRIX_TYPES
def test_to_json_builds_one_element_per_nonzero_entry(cls):
    u = _RING[cls][2]
    cases = [(cls.zeros(3, 2), 0), (cls.identity(4), 4),
             (cls.sparse(4, {(0, 1): u, (2, 3): ExactScalar(1, 0, 0, 1), (3, 0): -1}), 3)]
    for m, nonzero in cases:
        doc, built = _built_elements(m.to_json)
        assert built == nonzero
        zeros = [e for e in doc["entries"] if e == m._zero.to_json()]
        assert len(zeros) == m.rows * m.cols - nonzero
        assert all(e is zeros[0] for e in zeros)  # one shared dict


@_MATRIX_TYPES
def test_repr_names_type_and_shape(cls):
    assert repr(cls.zeros(2, 3)) == f"{cls.__name__}(2x3)"
    assert repr(cls.identity(1)) == f"{cls.__name__}(1x1)"


def test_coords_are_real_coordinates_in_row_major_order():
    q = Quaternion(1, 2, 3, 4)
    assert HMatrix([[q, Q_I]]).coords() == [1, 2, 3, 4, 0, 1, 0, 0]
    assert CMatrix([[ExactComplex(1, 2), 3]]).coords() == [1, 2, 3, 0]
    assert HMatrix([[q]]).embed().coords() == [1, 4, -3, 2, 3, 2, 1, -4]


# -- tolerances and block assembly ----------------------------------------------

_TOLERANT_PREDICATES = {
    "is_sostar_group_embedded":
        lambda tol: is_sostar_group_embedded(np.zeros((2, 2)), tol),
    "is_su_group_embedded":
        lambda tol: is_su_group_embedded(np.zeros((2, 2)), 1, 1, tol),
}


@pytest.mark.parametrize("tol", [float("inf"), float("nan"), -1.0],
                         ids=["inf", "nan", "negative"])
@pytest.mark.parametrize("predicate", sorted(_TOLERANT_PREDICATES))
def test_unbounded_or_negative_tolerance_is_rejected(predicate, tol):
    with pytest.raises(ValueError, match="tolerance"):
        _TOLERANT_PREDICATES[predicate](tol)


def test_exact_group_predicates_reject_a_near_identity():
    # within 1e-9 of both group identities, but not a member
    near = HMatrix.identity(2).scale(1 + Fraction(1, 10 ** 10))
    assert not is_sostar_group(near)
    assert not is_spstar_group(near, 2, 0)
    one = HMatrix.identity(2)
    assert is_sostar_group(one) and is_spstar_group(one, 2, 0)
    squeeze = HMatrix.diag([2, Fraction(1, 2)])  # unit Study determinant only
    assert squeeze.study_det() == C_ONE
    assert not is_sostar_group(squeeze) and not is_spstar_group(squeeze, 2, 0)
    with pytest.raises(TypeError):  # no tolerance to pass
        is_sostar_group(near, 1e-9)
    with pytest.raises(TypeError):
        is_spstar_group(near, 2, 0, 1e-9)


def test_zero_tolerance_asks_for_literal_membership():
    j = HMatrix([[Q_J]])
    assert is_sostar_group(j) and not is_sostar_group(j.scale(2))
    assert is_spstar_group(HMatrix([[Q_I]]), 1, 0)
    assert is_sostar_group_embedded(j.embed().to_numpy(), 0)
    assert is_su_group_embedded(np.diag([1j, -1j]), 1, 1, 0)
    assert not is_sostar_group_embedded(np.zeros((2, 2)), 0)


def test_from_blocks_assembles_the_grid():
    a, b = CMatrix.diag([1, 2]), CMatrix([[C_I], [3]])
    c, d = CMatrix([[4, 5]]), CMatrix([[6]])
    assert from_blocks([[a, b], [c, d]]) == CMatrix(
        [[1, 0, C_I], [0, 2, 3], [4, 5, 6]])


def test_from_blocks_rejects_blocks_of_different_heights():
    with pytest.raises(ValueError):  # used to drop the third row
        from_blocks([[CMatrix.identity(2), CMatrix.zeros(3, 2)]])
    with pytest.raises(ValueError):  # used to raise IndexError
        from_blocks([[CMatrix.identity(2), CMatrix.zeros(1, 2)]])


def test_from_blocks_rejects_block_columns_of_different_widths():
    # both block rows are three wide, but the block columns do not line up
    with pytest.raises(ValueError):
        from_blocks([[CMatrix.identity(2), CMatrix.zeros(2, 1)],
                     [CMatrix.zeros(2, 1), CMatrix.identity(2)]])
    with pytest.raises(ValueError):
        from_blocks([[CMatrix.identity(2)],
                     [CMatrix.zeros(2, 1), CMatrix.zeros(2, 1)]])


# -- block assembly, block slices and Kronecker products on the integer form ---

def _sizes(draw):
    return draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))


@settings(deadline=None)
@given(st.data())
def test_from_blocks_and_block_slices_match_the_entries(data):
    heights, widths = _sizes(data.draw), _sizes(data.draw)
    blocks = [[data.draw(_matrix(CMatrix, h, w)) for w in widths] for h in heights]
    m, built = _built_elements(lambda: from_blocks(blocks))
    assert built == 0  # assembled on the integer forms, no element built
    want = CMatrix([[e for blk in brow for e in blk.entries[r]]
                    for brow in blocks for r in range(brow[0].rows)])
    assert _form_pattern(m) == _dense_pattern(want)
    assert m == want and hash(m) == hash(want)
    r0 = 0
    for h, brow in zip(heights, blocks):
        c0 = 0
        for w, blk in zip(widths, brow):
            part, built = _built_elements(lambda: m._block(r0, r0 + h, c0, c0 + w))
            assert built == 0
            assert (part.rows, part.cols) == (h, w)
            assert _form_pattern(part) == _dense_pattern(blk) and part == blk
            c0 += w
        r0 += h


@settings(deadline=None)
@given(st.data())
def test_kron_matches_the_entrywise_products(data):
    p, q, r, s = (data.draw(st.integers(1, 3)) for _ in range(4))
    a, b = data.draw(_matrix(CMatrix, p, q)), data.draw(_matrix(CMatrix, r, s))
    got, built = _built_elements(lambda: kron(a, b))
    assert built == 0  # one product of two integer forms
    want = CMatrix([[a.entries[i][j] * b.entries[k][l]
                     for j in range(q) for l in range(s)]
                    for i in range(p) for k in range(r)])
    assert (got.rows, got.cols) == (p * r, q * s)
    assert _form_pattern(got) == _dense_pattern(want)
    assert got == want and hash(got) == hash(want)


@pytest.mark.parametrize("cls", [HMatrix, CMatrix])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_coordinate_ints_round_trip(cls, data):
    rows, cols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    m = data.draw(_matrix(cls, rows, cols))
    den, coords = m._coordinate_ints()
    back = cls._from_coordinate_ints(rows, cols, den, coords)
    assert back == m
    assert back._ints[2] == m._ints[2]  # the rational layout is kept
    assert back._coordinate_ints() == (den, coords)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_linear_combinations_match_the_scaled_sums(data):
    count, out = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    rows, cols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    mats = [data.draw(_matrix(CMatrix, rows, cols)) for _ in range(count)]
    p = data.draw(_matrix(CMatrix, out, count))
    got = hmatrix.linear_combinations(p, mats)
    assert len(got) == out
    for row, g in zip(p.entries, got):
        assert (g.rows, g.cols) == (rows, cols)
        assert g == sum((m.scale(c) for c, m in zip(row, mats)), CMatrix.zeros(rows, cols))


def test_linear_combinations_need_one_matrix_of_one_shape_per_column():
    p = CMatrix.identity(2)
    with pytest.raises(ValueError):
        hmatrix.linear_combinations(p, [CMatrix.identity(2)])
    with pytest.raises(ValueError):
        hmatrix.linear_combinations(p, [CMatrix.identity(2), CMatrix.identity(3)])
