from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sostar.quaternion import Quaternion
from sostar.scalars import ExactComplex, ExactScalar

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
    # zero tests compare against one shared zero coordinate, so every way of
    # reaching zero must produce it
    for z in (x - x, x + (-x), ExactScalar.from_json((x - x).to_json())):
        assert z.is_zero() and not z
        assert z == ExactScalar(0) and hash(z) == hash(0)
        assert (z + x) == x and (z * x).is_zero()


def test_zero_fractions_are_zero():
    assert ExactScalar(Fraction(0, 5), Fraction(0), 0, -Fraction(0)).is_zero()
    assert ExactScalar(1, Fraction(0, 7)).is_rational()
    assert not ExactScalar(0, 0, 0, Fraction(1, 9)).is_zero()
