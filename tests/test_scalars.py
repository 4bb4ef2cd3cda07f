import functools
import math
import operator
import random
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, strategies as st

import sostar.scalars
from sostar.hmatrix import CMatrix, HMatrix
from sostar.quaternion import Quaternion, _hamilton_mul
from sostar.scalars import (ZERO, ExactComplex, ExactScalar, _complex_mul, _field_product,
                            _from_ints, _mul4, _split)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
scalars = st.builds(ExactScalar, rationals, rationals, rationals, rationals)


def test_basic_identities():
    r2 = ExactScalar.sqrt2()
    r3 = ExactScalar.sqrt3()
    r6 = ExactScalar.sqrt6()
    assert r2 * r2 == ExactScalar(2)
    assert r3 * r3 == ExactScalar(3)
    assert r2 * r3 == r6
    assert r6 * r6 == ExactScalar(6)


def test_equality_is_structural():
    assert ExactScalar(1, 2, 3, 4) == ExactScalar(1, 2, 3, 4)
    assert ExactScalar(1, 2, 3, 4) != ExactScalar(1, 2, 3, Fraction(41, 10))
    # 1 + sqrt2 is not represented by any other coordinate vector
    assert ExactScalar(1, 1) != ExactScalar(Fraction(241, 100))


@given(scalars, scalars)
def test_mul_commutes_and_distributes(x, y):
    assert x * y == y * x
    z = ExactScalar(2, 0, 1)
    assert (x + y) * z == x * z + y * z


@given(scalars)
def test_division_inverts(x):
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        assert x * x.inverse() == ExactScalar(1)
        assert (x / x) == ExactScalar(1)


def test_division_rationalizes_known_values():
    # 1 / sqrt3 = sqrt3 / 3
    assert ExactScalar(1) / ExactScalar.sqrt3() == ExactScalar(0, 0, Fraction(1, 3))
    # sqrt2 / sqrt3 = sqrt6 / 3
    assert ExactScalar.sqrt2() / ExactScalar.sqrt3() == \
        ExactScalar(0, 0, 0, Fraction(1, 3))
    # 1 / (2 sqrt6)
    assert ExactScalar(1) / (ExactScalar(2) * ExactScalar.sqrt6()) == \
        ExactScalar(0, 0, 0, Fraction(1, 12))


@given(scalars)
def test_sign_matches_float(x):
    f = float(x)
    if abs(f) > 1e-12:
        assert x.sign() == (1 if f > 0 else -1)
    if x.is_zero():
        assert x.sign() == 0


def test_sign_resolves_tight_cases():
    # sqrt6 - sqrt2*sqrt3 = 0 exactly
    assert (ExactScalar.sqrt6() - ExactScalar.sqrt2() * ExactScalar.sqrt3()).sign() == 0
    # 7/5 - sqrt2 < 0 but close
    assert (ExactScalar(Fraction(7, 5)) - ExactScalar.sqrt2()).sign() == -1
    assert (ExactScalar(Fraction(17, 12)) - ExactScalar.sqrt2()).sign() == 1
    # 97/56 ~ sqrt3 from above
    assert (ExactScalar(Fraction(97, 56)) - ExactScalar.sqrt3()).sign() == 1
    # mixed radicals: 1 + sqrt2 - sqrt3 - sqrt6/4 is positive (~0.07)
    assert ExactScalar(1, 1, -1, Fraction(-1, 4)).sign() == 1


@given(scalars, scalars)
def test_order_is_consistent(x, y):
    assert (x < y) == ((x - y).sign() < 0)
    assert (x <= y) or (x > y)


@given(scalars)
def test_json_round_trip(x):
    assert ExactScalar.from_json(x.to_json()) == x


def test_json_shape():
    doc = ExactScalar(Fraction(1, 2), 0, Fraction(-2, 3), 0).to_json()
    assert doc == {"a": "1/2", "b": "0/1", "c": "-2/3", "d": "0/1"}


@pytest.mark.parametrize("x, text", [
    (ExactScalar(0), ("0/1", "0/1", "0/1", "0/1")),
    (ExactScalar(7), ("7/1", "0/1", "0/1", "0/1")),
    (ExactScalar(Fraction(-3, 4)), ("-3/4", "0/1", "0/1", "0/1")),
    # (1, -3, 0, 4) over 6: each coordinate reduced by its own gcd with 6
    (ExactScalar(Fraction(1, 6), Fraction(-1, 2), 0, Fraction(2, 3)),
     ("1/6", "-1/2", "0/1", "2/3")),
    (ExactScalar(-4, Fraction(5, 2), -1, Fraction(-3, 2)),
     ("-4/1", "5/2", "-1/1", "-3/2")),
], ids=["zero", "integral", "negative", "irrational", "negative-irrational"])
def test_json_is_printed_from_the_ints(x, text, monkeypatch):
    def no_fraction(*args):
        raise AssertionError("to_json built a Fraction")

    monkeypatch.setattr(sostar.scalars, "Fraction", no_fraction)
    assert x.to_json() == dict(zip("abcd", text))
    monkeypatch.undo()
    assert ExactScalar.from_json(x.to_json()) == x


complexes = st.builds(ExactComplex, scalars, scalars)


@given(complexes, complexes)
def test_complex_field_ops(u, v):
    assert (u + v) - v == u
    assert u * v == v * u
    assert (u * v).conj() == u.conj() * v.conj()


@given(complexes)
def test_complex_inverse(u):
    if u.is_zero():
        with pytest.raises(ZeroDivisionError):
            u.inverse()
    else:
        assert u * u.inverse() == ExactComplex(1)


def test_complex_norm_is_conj_product():
    u = ExactComplex(ExactScalar(1, 1), ExactScalar(0, 0, 2))
    prod = u * u.conj()
    assert prod.im.is_zero()
    assert prod.re == u.norm_sq()


# Few distinct coordinates, so that equal values of different types (int,
# Fraction, ExactScalar, ExactComplex, Quaternion) come up often.
small = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(2)])
mixed_values = st.one_of(
    small,
    small.filter(lambda f: f.denominator == 1).map(int),
    st.builds(ExactScalar, small),
    st.builds(ExactScalar, small, small, small, small),
    st.builds(ExactComplex, small),
    st.builds(ExactComplex, st.builds(ExactScalar, small, small), small),
    st.builds(Quaternion, st.builds(ExactScalar, small, small)),
    st.builds(Quaternion, small, small, small, small),
)


@given(mixed_values, mixed_values)
def test_equal_values_hash_equal(u, v):
    if u == v:
        assert hash(u) == hash(v)


def test_equal_values_collapse_in_a_set():
    assert len({ExactScalar(2), 2, Fraction(2), ExactComplex(2), Quaternion(2)}) == 1
    assert len({ExactScalar(Fraction(1, 2)), Fraction(1, 2)}) == 1
    assert len({ExactScalar(1, 1), ExactComplex(ExactScalar(1, 1))}) == 1


# Zero short-circuits: sums and products with a zero operand skip the
# coordinate arithmetic, so check they return the same value and hash.

@given(scalars)
def test_zero_operand_identities(x):
    zero = ExactScalar(0)
    assert x + zero == x and zero + x == x
    assert x - zero == x and zero - x == -x
    assert zero * x == zero and x * zero == zero
    assert x + 0 == x and 0 * x == 0
    assert hash(x + zero) == hash(x) == hash(x - zero)
    assert hash(zero * x) == hash(zero) == hash(0)


@given(scalars)
def test_cancellation_gives_the_zero(x):
    # zero has one representation, (0, 0, 0, 0) over 1, so every way of
    # reaching zero must produce it
    for z in (x - x, x + (-x), ExactScalar.from_json((x - x).to_json())):
        assert z.is_zero() and not z
        assert z == ExactScalar(0) and hash(z) == hash(0)
        assert (z + x) == x and (z * x).is_zero()


def test_zero_fractions_are_zero():
    assert ExactScalar(Fraction(0, 5), Fraction(0), 0, -Fraction(0)).is_zero()
    assert ExactScalar(1, Fraction(0, 7)).is_rational()
    assert not ExactScalar(0, 0, 0, Fraction(1, 9)).is_zero()


# ---------------------------------------------------------------------------
# Differential test against a Fraction-coordinate reference model.
#
# ExactScalar stores int numerators over one denominator.  The model below is
# the arithmetic it replaced: a value is a 4-tuple of Fractions (a, b, c, d)
# for a + b*sqrt2 + c*sqrt3 + d*sqrt6, with the product table, the
# Galois-conjugate inverse, the algebraic sign and the float conversion
# written out on those Fractions.
# ---------------------------------------------------------------------------

_R2, _R3, _R6 = math.sqrt(2.0), math.sqrt(3.0), math.sqrt(6.0)


def ref_mul(x, y, flip=1):
    """The product table; `flip=-1` negates one term (a mutant model)."""
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return (a1 * a2 + 2 * b1 * b2 + 3 * c1 * c2 + 6 * d1 * d2,
            a1 * b2 + b1 * a2 + 3 * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2),
            a1 * d2 + d1 * a2 + flip * b1 * c2 + c1 * b2)


def ref_inverse(x):
    a, b, c, d = x
    if not (b or c or d):
        return (1 / a, Fraction(0), Fraction(0), Fraction(0))
    num = ref_mul(ref_mul((a, -b, c, -d), (a, b, -c, -d)), (a, -b, -c, d))
    norm = ref_mul(x, num)
    assert not any(norm[1:])
    return tuple(v / norm[0] for v in num)


def _ref_sign_q2(p, q):
    sp, sq = (p > 0) - (p < 0), (q > 0) - (q < 0)
    if sq == 0 or sp == sq:
        return sp if sp else sq
    if sp == 0:
        return sq
    r = p * p - 2 * q * q
    return sp * ((r > 0) - (r < 0))


def ref_sign(x):
    a, b, c, d = x
    su, sv = _ref_sign_q2(a, b), _ref_sign_q2(c, d)
    if sv == 0 or su == sv:
        return su if su else sv
    if su == 0:
        return sv
    return su * _ref_sign_q2(a * a + 2 * b * b - 3 * (c * c + 2 * d * d),
                             2 * a * b - 6 * c * d)


def ref_float(x):
    a, b, c, d = x
    return float(a) + float(b) * _R2 + float(c) * _R3 + float(d) * _R6


def ref_hash(x):
    return hash(x) if any(x[1:]) else hash(x[0])


def ref_json(x):
    return {name: f"{v.numerator}/{v.denominator}" for name, v in zip("abcd", x)}


def coords(x: ExactScalar):
    return (x.a, x.b, x.c, x.d)


def disagreements(pairs, mul=ref_mul):
    """The (operation, x, y) where ExactScalar and the model differ, for each
    pair of 4-tuples of Fractions in `pairs`."""
    out = []
    for p, q in pairs:
        x, y = ExactScalar(*p), ExactScalar(*q)
        checks = [
            ("+", coords(x + y), tuple(map(operator.add, p, q))),
            ("-", coords(x - y), tuple(map(operator.sub, p, q))),
            ("*", coords(x * y), mul(p, q)),
            ("==", x == y, p == q),
            ("hash", hash(x), ref_hash(p)),
            ("to_json", x.to_json(), ref_json(p)),
            ("sign", x.sign(), ref_sign(p)),
            ("float", float(x).hex(), ref_float(p).hex()),
        ]
        if any(q):
            checks += [("inverse", coords(y.inverse()), ref_inverse(q)),
                       ("/", coords(x / y), mul(p, ref_inverse(q)))]
        out += [(name, p, q) for name, got, want in checks if got != want]
    return out


# mixed denominators, and zero coordinates often
coordinate = st.one_of(st.just(Fraction(0)),
                       st.fractions(min_value=-7, max_value=7, max_denominator=30))
quadruple = st.tuples(coordinate, coordinate, coordinate, coordinate)


@given(quadruple, quadruple)
def test_arithmetic_matches_fraction_model(p, q):
    assert disagreements([(p, q), (q, p), (p, p)]) == []


def _dense_values(basis):
    tensor = basis.structure_constants()
    return sorted({coords(v) for row in tensor.table.values() for v in row.values()})


def test_dense_structure_constants_match_fraction_model(dense_sostar6_basis):
    values = _dense_values(dense_sostar6_basis)
    assert len(values) > 50 and any(v[1] or v[2] or v[3] for v in values)
    pairs = [(v, values[(7 * i + 3) % len(values)]) for i, v in enumerate(values)]
    assert disagreements(pairs) == []


def test_flipped_product_table_is_caught(dense_sostar6_basis):
    # negative control: the same comparison rejects a model with one sign of
    # its product table flipped (the b1*c2 term of the sqrt6 coordinate)
    flipped = functools.partial(ref_mul, flip=-1)
    values = _dense_values(dense_sostar6_basis)
    pairs = [(v, values[(7 * i + 3) % len(values)]) for i, v in enumerate(values)]
    bad = disagreements(pairs, mul=flipped)
    assert bad and {name for name, _, _ in bad} <= {"*", "/"}
    r2, r3 = coords(ExactScalar.sqrt2()), coords(ExactScalar.sqrt3())
    assert [name for name, _, _ in disagreements([(r2, r3)], mul=flipped)] == ["*", "/"]


# ---------------------------------------------------------------------------
# Canonical form: int numerators over a positive denominator, gcd 1, and one
# representation of zero, for all three element types.
# ---------------------------------------------------------------------------

_COORDINATES = {ExactScalar: 1, ExactComplex: 2, Quaternion: 4}


def assert_canonical(x):
    num, den = x._num, x._den
    assert len(num) == 4 * _COORDINATES[type(x)]
    assert all(type(v) is int for v in num) and type(den) is int
    assert den > 0 and math.gcd(*num, den) == 1
    if not any(num):
        assert den == 1 and x.is_zero() and x == ZERO


@given(scalars, scalars)
def test_results_are_canonical(x, y):
    results = [x, y, x + y, x - y, x * y, -x, y - y, x * 0]
    if not y.is_zero():
        results += [y.inverse(), x / y]
    for z in results:
        assert_canonical(z)


# coordinates with irrational parts, or zero so that the short-cuts run
_field = st.one_of(st.just(ZERO), scalars)
_RINGS = {ExactComplex: st.builds(ExactComplex, _field, _field),
          Quaternion: st.builds(Quaternion, _field, _field, _field, _field)}
_MATRICES = {ExactComplex: CMatrix, Quaternion: HMatrix}


@pytest.mark.parametrize("cls", list(_RINGS), ids=lambda cls: cls.__name__)
@given(data=st.data())
def test_ring_results_are_canonical(cls, data):
    x, y = data.draw(_RINGS[cls]), data.draw(_RINGS[cls])
    s = data.draw(scalars)
    results = [x, y, x + y, x - y, x * y, y * x, -x, y - y, x * 0, x * s,
               s - x, x.conj()]
    if cls is ExactComplex and not y.is_zero():
        results += [y.inverse(), x / y]
    # elements read back from a matrix's integer form, over its common den
    matrix = _MATRICES[cls]
    results += matrix([[x, y]]).entries[0]
    results.append((matrix([[x]]) @ matrix([[y]])).entries[0][0])
    for z in results:
        assert_canonical(z)


def test_equal_values_have_one_representation():
    u, v = ExactScalar(Fraction(2, 4), 2), ExactScalar(Fraction(1, 2), 2)
    assert (u._num, u._den) == (v._num, v._den) == ((1, 4, 0, 0), 2)
    assert u == v and hash(u) == hash(v) and u.to_json() == v.to_json()


@pytest.mark.parametrize("ints, num, den", [
    ((2, 4, 0, 6, -6), (-1, -2, 0, -3), 3),   # negative denominator, gcd 2
    ((0, 0, 0, 0, -9), (0, 0, 0, 0), 1),      # zero over any denominator
    ((3, 0, 0, 0, 3), (1, 0, 0, 0), 1),
    ((-5, 7, 0, 1, 2), (-5, 7, 0, 1), 2),
])
def test_int_constructor_normalises(ints, num, den):
    x = _from_ints(*ints)
    assert (x._num, x._den) == (num, den)
    assert_canonical(x)
    assert coords(x) == tuple(Fraction(n, ints[4]) for n in ints[:4])


def test_coordinates_are_read_only_reduced_fractions():
    x = ExactScalar(Fraction(1, 6), Fraction(2, 3), 0, Fraction(-5, 2))
    assert (x._num, x._den) == ((1, 4, 0, -15), 6)
    assert coords(x) == (Fraction(1, 6), Fraction(2, 3), Fraction(0), Fraction(-5, 2))
    assert all(type(v) is Fraction for v in coords(x))
    with pytest.raises(AttributeError):
        x.a = Fraction(1)


def _coordinatewise_product(x, y, k, ring_mul):
    """The reference product of two ring elements' 4k ints: one `_mul4` on
    the int 4-tuples of coordinate p of x and coordinate q of y for each
    term e_p e_q = s e_r of the ring's table, read off `ring_mul` on the
    unit vectors."""
    units = [tuple(int(i == p) for i in range(k)) for p in range(k)]
    acc = [(0, 0, 0, 0)] * k
    for p in range(k):
        for q in range(k):
            for r, s in enumerate(ring_mul(units[p], units[q])):
                if s:
                    acc[r] = tuple(a + s * b for a, b in zip(acc[r], _mul4(x[p::k], y[q::k])))
    return tuple(chain.from_iterable(zip(*acc)))


@pytest.mark.parametrize("k, ring_mul", [(1, lambda x, y: (x[0] * y[0],)),
                                         (2, _complex_mul), (4, _hamilton_mul)],
                         ids=["field", "complex", "quaternion"])
def test_field_product_matches_the_coordinatewise_reference(k, ring_mul):
    """The block product against the coordinate-wise one, for every subset
    of nonzero blocks of either factor, the empty one (zero) included."""
    rng = random.Random(f"field_product/{k}")

    def element(blocks):
        t = [0] * (4 * k)
        for u in blocks:
            while not any(t[u * k:u * k + k]):
                t[u * k:u * k + k] = [rng.randint(-9, 9) for _ in range(k)]
        return tuple(t)

    subsets = [[u for u in range(4) if mask >> u & 1] for mask in range(16)]
    for _ in range(3):
        for xs in subsets:
            for ys in subsets:
                x, y = element(xs), element(ys)
                assert [u for u, _ in _split(x, k)] == xs
                got = _field_product(_split(x, k), _split(y, k), k, ring_mul)
                assert got == _coordinatewise_product(x, y, k, ring_mul)
