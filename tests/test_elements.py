"""The value contract shared by the three exact number types.

ExactScalar, ExactComplex and Quaternion share one base and one integer
state, so each contract below is checked on all three: the state itself,
immutability, the coercion of ints, Fractions and field scalars, JSON, the
zero-operand short-cuts, and the ring operations against coordinate formulas
written out here.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sostar import hmatrix, liealg, quaternion, scalars
from sostar.hmatrix import CMatrix, HMatrix
from sostar.liealg import StructureTensor
from sostar.quaternion import Q_ZERO, Quaternion
from sostar.scalars import C_ZERO, ZERO, ExactComplex, ExactScalar, _ExactElement

_SLOTS = {ExactScalar: ["a", "b", "c", "d"], ExactComplex: ["re", "im"],
          Quaternion: ["t", "x", "y", "z"]}
_ZEROS = {ExactScalar: ZERO, ExactComplex: C_ZERO, Quaternion: Q_ZERO}
_TYPES = pytest.mark.parametrize("cls", list(_SLOTS), ids=lambda cls: cls.__name__)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
# zero coordinates come up often, so the zero short-cuts run
field = st.one_of(st.just(ZERO), st.builds(ExactScalar, rationals),
                  st.builds(ExactScalar, rationals, rationals, rationals, rationals))
complexes = st.builds(ExactComplex, field, field)
quats = st.builds(Quaternion, field, field, field, field)
_VALUES = {ExactScalar: st.builds(ExactScalar, rationals, rationals, rationals, rationals),
           ExactComplex: complexes, Quaternion: quats}


def _sample(cls):
    """A fixed element of `cls` with every coordinate nonzero."""
    if cls is ExactScalar:
        return ExactScalar(1, Fraction(-1, 2), 3, Fraction(2, 3))
    return cls(*(ExactScalar(k, 1) for k in range(1, len(_SLOTS[cls]) + 1)))


@_TYPES
def test_element_holds_one_integer_state(cls):
    # 4k int numerators over one denominator, numerator u*k + p being the
    # part of coordinate p along basis element u of 1, sqrt2, sqrt3, sqrt6
    x, k = _sample(cls), 1 if cls is ExactScalar else len(_SLOTS[cls])
    assert not hasattr(x, "__dict__")
    assert {name for c in cls.__mro__ for name in getattr(c, "__slots__", ())} \
        == {"_num", "_den"}
    assert len(x._num) == 4 * k and all(type(z) is int for z in x._num)
    parts = [x] if cls is ExactScalar else [getattr(x, name) for name in _SLOTS[cls]]
    for p, part in enumerate(parts):
        for u, coord in enumerate((part.a, part.b, part.c, part.d)):
            assert Fraction(x._num[u * k + p], x._den) == coord


def test_exact_scalar_keeps_no_value_semantics_of_its_own():
    for name in ("__add__", "__sub__", "__neg__", "__eq__", "__hash__"):
        assert name not in ExactScalar.__dict__


def test_elements_and_matrices_share_one_table_per_ring():
    assert CMatrix._ring_mul is ExactComplex._ring_mul is scalars._complex_mul
    assert HMatrix._ring_mul is Quaternion._ring_mul is quaternion._hamilton_mul
    # the irrational product is the one block product on that table
    assert hmatrix._field_product is liealg._field_product is scalars._field_product
    for owner in (scalars, quaternion, hmatrix, liealg, ExactComplex, Quaternion):
        for name in ("_terms", "_field_mul", "_table_terms", "_field_rows"):
            assert not hasattr(owner, name), (owner, name)


def test_irrational_products_all_run_the_one_field_product(monkeypatch):
    sites = []
    original = scalars._field_product

    def counting(module):
        def counted(xb, yb, k, ring_mul):
            sites.append((module.__name__, k))
            return original(xb, yb, k, ring_mul)
        return counted

    for module in (scalars, hmatrix, liealg):
        monkeypatch.setattr(module, "_field_product", counting(module))
    c, q = _sample(ExactComplex), _sample(Quaternion)
    assert c * c == ExactComplex(c.re * c.re - c.im * c.im, 2 * c.re * c.im)
    q * q
    HMatrix([[q]]) @ HMatrix([[q]])
    tensor = StructureTensor(3, {(0, 1): {2: ExactScalar(0, 1)}})
    assert tensor.preserved_by(CMatrix.identity(3))
    assert set(sites) == {("sostar.scalars", 2), ("sostar.scalars", 4),
                          ("sostar.hmatrix", 4), ("sostar.liealg", 2)}


def test_ring_products_make_no_field_scalar_operation(monkeypatch):
    calls = []

    def counting(name, original):
        def counted(self, other):
            if type(self) is ExactScalar:
                calls.append(name)
            return original(self, other)
        return counted

    for owner, names in ((ExactScalar, ("__mul__", "__rmul__")),
                         (_ExactElement, ("__add__", "__radd__", "__sub__"))):
        for name in names:
            monkeypatch.setattr(owner, name, counting(name, owner.__dict__[name]))
    ExactScalar(1, 1) * ExactScalar(2)
    ExactScalar(1) + ExactScalar(0, 1)
    assert calls == ["__mul__", "__add__"]  # the counter sees both
    calls.clear()
    for cls in (ExactComplex, Quaternion):
        irrational = _sample(cls)
        rational = cls(*range(1, len(_SLOTS[cls]) + 1))
        for x, y in ((irrational, irrational), (irrational, rational),
                     (rational, rational)):
            x * y
            y * x
        rational * ExactScalar(1, 1)
    assert calls == []


@_TYPES
def test_element_is_immutable(cls):
    x = _sample(cls)
    for name in _SLOTS[cls] + ["extra"]:
        with pytest.raises(AttributeError):
            setattr(x, name, 0)
    assert x == _sample(cls)


@_TYPES
@pytest.mark.parametrize("v", [3, Fraction(-2, 3), ExactScalar(1, 1)],
                         ids=["int", "Fraction", "ExactScalar"])
def test_rational_and_field_operands_embed_on_either_side(cls, v):
    x, w = _sample(cls), cls.coerce(v)
    assert type(w) is cls and w == v and v == w
    for got, want in ((x + v, x + w), (v + x, w + x), (x - v, x - w),
                      (v - x, w - x), (x * v, x * w), (v * x, w * x)):
        assert type(got) is cls and got == want


@pytest.mark.parametrize("cls", [ExactScalar, ExactComplex],
                         ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("v", [3, Fraction(-2, 3), ExactScalar(1, 1)],
                         ids=["int", "Fraction", "ExactScalar"])
def test_division_embeds_on_either_side(cls, v):
    x, w = _sample(cls), cls.coerce(v)
    for got, want in ((x / v, x * w.inverse()), (v / x, w * x.inverse())):
        assert type(got) is cls and got == want
    assert v / x * x == v
    with pytest.raises(TypeError):
        "1" / x


@_TYPES
def test_str_operand_is_a_type_error(cls):
    x = _sample(cls)
    for op in (lambda: x + "1", lambda: "1" + x, lambda: x - "1",
               lambda: "1" - x, lambda: x * "1", lambda: "1" * x,
               lambda: cls.coerce("1")):
        with pytest.raises(TypeError):
            op()
    assert x != "1"


@_TYPES
def test_json_key_order_and_round_trip(cls):
    x = _sample(cls)
    doc = x.to_json()
    assert list(doc) == _SLOTS[cls]
    assert cls.from_json(json.loads(json.dumps(doc))) == x
    assert cls.from_json(_ZEROS[cls].to_json()).is_zero()


@_TYPES
def test_repr_names_the_type(cls):
    assert repr(_sample(cls)).startswith(cls.__name__ + "(")


@_TYPES
def test_zero_operand_identities(cls):
    x, zero = _sample(cls), _ZEROS[cls]
    for z in (0, Fraction(0), ZERO, zero):
        assert x + z is x and z + x is x and x - z is x
        assert z - x == -x
        assert (x * z).is_zero() and (z * x).is_zero()
    assert x * zero is zero and zero * x is zero
    assert -zero is zero
    assert not zero and x


@given(st.data())
def test_zero_product_and_sum_keep_value_and_hash(data):
    for cls, values in _VALUES.items():
        x = data.draw(values)
        zero = _ZEROS[cls]
        assert x + zero == x and hash(x + zero) == hash(x)
        assert (x * zero) == zero and hash(x * zero) == hash(0)


@given(complexes, complexes)
def test_complex_operations_match_coordinate_formulas(u, v):
    a, b, c, d = u.re, u.im, v.re, v.im
    assert u + v == ExactComplex(a + c, b + d)
    assert u - v == ExactComplex(a - c, b - d)
    assert -u == ExactComplex(-a, -b)
    assert u * v == ExactComplex(a * c - b * d, a * d + b * c)


def _dot(p, q):
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]


def _cross(p, q):
    return [p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2],
            p[0] * q[1] - p[1] * q[0]]


@given(quats, quats)
def test_quaternion_operations_match_coordinate_formulas(p, q):
    # the product in scalar-vector form: (s, v)(r, w) = (sr - v.w, sw + rv + v x w)
    s, v = p.t, [p.x, p.y, p.z]
    r, w = q.t, [q.x, q.y, q.z]
    assert p + q == Quaternion(s + r, *(a + b for a, b in zip(v, w)))
    assert p - q == Quaternion(s - r, *(a - b for a, b in zip(v, w)))
    assert -p == Quaternion(-s, *(-a for a in v))
    vec = [s * b + r * a + c for a, b, c in zip(v, w, _cross(v, w))]
    assert p * q == Quaternion(s * r - _dot(v, w), *vec)
