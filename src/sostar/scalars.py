"""Exact scalar arithmetic: the real field Q(sqrt2, sqrt3) and its complex
extension by i.

Every numeric coefficient appearing in the group/algebra constructions of
this package (halves, quarters, 1/sqrt3, sqrt2/sqrt3, 1/(2*sqrt6), ...) lives
in Q(sqrt2, sqrt3), so all constant matrices can be represented and compared
with zero rounding error.  An element

    (a + b*sqrt(2) + c*sqrt(3) + d*sqrt(6)) / den

is stored as four int numerators (a, b, c, d) over one positive int
denominator den, in lowest terms: gcd(a, b, c, d, den) = 1, so zero is
(0, 0, 0, 0) over 1 and every value has exactly one representation.  This is
the usual integral-vector form of a number-field element (Cohen, A Course in
Computational Algebraic Number Theory, section 4.2): a sum or product
cross-multiplies Python ints and takes one gcd at the end, where four
Fraction coordinates would take a gcd per coordinate and per operation.
Equality is structural on the numerators and the denominator; there is no
epsilon anywhere in this module.  The coordinates a, b, c, d read back as
reduced Fractions.

The three exact number types (ExactScalar and ExactComplex here, Quaternion in
`quaternion`) are vectors of k = 1, 2 and 4 coordinates over the field and
share this one state, `_ExactElement`: 4k int numerators over one positive
denominator in lowest terms, where numerator u*k + p is the part of
coordinate p along the basis element u of 1, sqrt2, sqrt3, sqrt6.  That is
exactly an irrational entry of the matrices' integer form (`hmatrix`).  The
value semantics are written once on those ints: immutability, one coercion
rule (ints, Fractions and field scalars embed as the first coordinate), + and
- that return the other operand when one is zero, negation, equality and
hashing, the zero test, JSON and repr.  The product of C and H runs on the
ring's int table, the same one the matrices use (`_complex_mul` here,
`quaternion._hamilton_mul`): once when both factors are rational, and else
once per pair of nonzero blocks in `_field_product`, the one irrational ring
product, which matrix products and `liealg.StructureTensor.preserved_by`
call too.  A product with a zero factor is the type's zero constant.  One
rescale, `_over_lcm`, puts elements over a common denominator, for a C or
H element's coordinates, a matrix's integer form and a structure tensor's.
ExactScalar adds only what is particular to the field: its Fraction
constructor, the product with its rational fast path, the inverse, the exact
sign and order, and the float value.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from operator import add, attrgetter, mul, sub
from typing import Union

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)
_SQRT6 = math.sqrt(6.0)

RationalLike = Union[int, Fraction]


class _ExactElement:
    """An immutable vector of k coordinates over Q(sqrt2, sqrt3), held as 4k
    int numerators `_num` over one positive int denominator `_den`, in
    lowest terms; numerator u*k + p is coordinate p along basis element u.

    A subclass sets `_fields` (the coordinate names, also the JSON keys),
    `_k = len(_fields)`, `_parts = attrgetter(*_fields)` and
    `_part_from_json` (how one coordinate is read back from JSON), and writes
    out `__init__` and `__mul__`.  A ring over the field (k > 1) takes
    `_ring_product` as its product and sets what it reads: `_ring_mul`, the
    product of two rational elements' k ints, and the zero constant `_zero`.
    """

    __slots__ = ("_num", "_den")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _coerce(cls, x):
        """`x` as an element of this ring, or NotImplemented (for operators):
        ints, Fractions and field scalars embed as the first coordinate."""
        if isinstance(x, cls):
            return x
        if isinstance(x, (int, Fraction, ExactScalar)):
            return cls(x)
        return NotImplemented

    @classmethod
    def coerce(cls, x):
        """`_coerce` for callers outside the operators: raises TypeError."""
        # the first test saves a call per entry when a matrix is built
        out = x if isinstance(x, cls) else cls._coerce(x)
        if out is NotImplemented:
            raise TypeError(f"cannot use {type(x).__name__} as {cls.__name__}")
        return out

    # a zero operand short-circuits: most entries of the matrices here are 0
    def _sum(self, other, op):
        if type(other) is not type(self):
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        y = other._num
        if not any(y):
            return self
        x = self._num
        if not any(x):
            return other if op is add else -other
        e1, e2 = self._den, other._den
        if e1 != e2:
            x, y, e1 = [e2 * z for z in x], [e1 * z for z in y], e1 * e2
        return _normal(type(self), tuple(map(op, x, y)), e1)

    def __add__(self, other):
        return self._sum(other, add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(other, sub)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        if not any(self._num):
            return self
        return _new(type(self), tuple([-z for z in self._num]), self._den)

    def _signed(self, signs: tuple):
        """The element with coordinate p times signs[p] (each +-1)."""
        return _new(type(self), tuple(map(mul, signs * 4, self._num)), self._den)

    def is_zero(self) -> bool:
        return not any(self._num)

    def __bool__(self) -> bool:
        return any(self._num)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self) -> int:
        # with every other coordinate zero an element equals its first
        # coordinate (a Fraction or a field scalar), so it hashes like it
        parts = self._parts(self)
        return hash(parts) if any(parts[1:]) else hash(parts[0])

    def to_json(self) -> dict:
        k, num, den = self._k, self._num, self._den
        return {name: _json_of(num[p::k], den) for p, name in enumerate(self._fields)}

    @classmethod
    def from_json(cls, obj: dict):
        return cls(*(cls._part_from_json(obj[name]) for name in cls._fields))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(repr, self._parts(self)))})"


_set_num = _ExactElement._num.__set__
_set_den = _ExactElement._den.__set__
_ZERO4 = (0, 0, 0, 0)


def _new(cls, num: tuple, den: int):
    """The element of type `cls` with the ints `num` over `den`, already in
    lowest terms with den > 0."""
    x = object.__new__(cls)
    _set_num(x, num)
    _set_den(x, den)
    return x


def _normal(cls, num: tuple, den: int):
    """The element of type `cls` with the ints `num` over `den` > 0, brought
    to lowest terms."""
    g = math.gcd(den, *num)
    if g != 1:
        num, den = tuple([z // g for z in num]), den // g
    return _new(cls, num, den)


def _json_of(num, den: int) -> dict:
    """The JSON of the field element num / den: each coordinate as the text
    "numerator/denominator" of its reduced fraction, "0/1" for zero, printed
    from the ints."""
    out = {}
    for name, x in zip("abcd", num):
        g = math.gcd(x, den)
        out[name] = f"{x // g}/{den // g}"
    return out


def _mul4(x, y):
    """Product of two int 4-tuples over {1, sqrt2, sqrt3, sqrt6}: the
    multiplication table of Q(sqrt2, sqrt3)."""
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return (a1 * a2 + 2 * b1 * b2 + 3 * c1 * c2 + 6 * d1 * d2,
            a1 * b2 + b1 * a2 + 3 * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2),
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2)


def _ring_product(self, other):
    """The product of two C or H elements: the ring's int table `_ring_mul`
    when both are rational, else `_field_product` on their blocks.  C is
    commutative, and a left operand that is not a quaternion embeds as a
    real scalar, which is central in H, so this is `__rmul__` as well."""
    if type(other) is not type(self):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
    x, y = self._num, other._num
    if not any(x) or not any(y):
        return self._zero
    k = self._k
    if any(x[k:]) or any(y[k:]):
        num = _field_product(_split(x, k), _split(y, k), k, self._ring_mul)
    else:
        num = self._ring_mul(x[:k], y[:k]) + (0,) * (3 * k)
    return _normal(type(self), num, self._den * other._den)


# Basis elements u, v of 1, sqrt2, sqrt3, sqrt6 (bit 0 stands for sqrt2, bit 1
# for sqrt3) multiply to _FIELD_SQUARES[u & v] times basis element u ^ v.
_FIELD_SQUARES = (1, 2, 3, 6)


def _split(t: tuple, k: int) -> list:
    """The nonzero blocks (u, k ints) of the 4k ints t: block u holds the
    ring element that multiplies basis element u."""
    return [(u, t[u * k:u * k + k]) for u in range(4) if any(t[u * k:u * k + k])]


def _field_product(xb, yb, k: int, ring_mul) -> tuple:
    """The 4k ints of the product of two ring elements over Q(sqrt2, sqrt3)
    given by their nonzero blocks (`_split`): one `ring_mul`, the ring's
    table on k ints, per pair of blocks, scaled by `_FIELD_SQUARES` and added
    into block u ^ v.  The one irrational ring product, for elements,
    matrix entries and `StructureTensor.preserved_by`."""
    blocks = [None, None, None, None]
    for u, xu in xb:
        for v, yv in yb:
            p = ring_mul(xu, yv)
            c = _FIELD_SQUARES[u & v]
            if c != 1:
                p = tuple([c * z for z in p])
            w = u ^ v
            s = blocks[w]
            blocks[w] = p if s is None else tuple(map(add, s, p))
    zero = (0,) * k
    a, b, c, d = blocks
    return (a or zero) + (b or zero) + (c or zero) + (d or zero)


def _complex_mul(x, y):
    """The complex product of two rational elements' ints (re, im)."""
    a, b = x
    c, d = y
    return (a * c - b * d, a * d + b * c)


def _over_lcm(elements) -> tuple:
    """(den, [ints]): the elements over one denominator, the lcm of theirs,
    each as its numerators times den over its own denominator."""
    den = math.lcm(*(e._den for e in elements))
    return den, [e._num if e._den == den else tuple([den // e._den * z for z in e._num])
                 for e in elements]


def _put(element: _ExactElement, parts: tuple) -> None:
    """Set a C or H element's state from its coordinates (ints, Fractions or
    field scalars), over the lcm of their denominators, which is already
    lowest terms by the argument in `ExactScalar.__init__`."""
    den, nums = _over_lcm([s if type(s) is ExactScalar else ExactScalar(s) for s in parts])
    _set_num(element, tuple(chain.from_iterable(zip(*nums))))
    _set_den(element, den)


def _coordinate(i: int, name: str) -> property:
    return property(lambda self: Fraction(self._num[i], self._den),
                    doc=f"The {name} coordinate, a reduced Fraction.")


def _component(p: int, k: int, name: str) -> property:
    return property(lambda self: _from_ints(*self._num[p::k], self._den),
                    doc=f"The {name} coordinate, an ExactScalar built on each read.")


class ExactScalar(_ExactElement):
    """An element a + b*sqrt2 + c*sqrt3 + d*sqrt6 of Q(sqrt2, sqrt3), held as
    int numerators over one positive int denominator in lowest terms."""

    __slots__ = ()
    _fields = ("a", "b", "c", "d")
    _k = 1
    _parts = attrgetter(*_fields)
    _part_from_json = Fraction

    a = _coordinate(0, "rational")
    b = _coordinate(1, "sqrt2")
    c = _coordinate(2, "sqrt3")
    d = _coordinate(3, "sqrt6")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0,
                 c: RationalLike = 0, d: RationalLike = 0) -> None:
        for x in (a, b, c, d):
            if not isinstance(x, (int, Fraction)):
                raise TypeError(f"expected int or Fraction, got {type(x).__name__}")
        # reduced Fractions over the lcm of their denominators share no factor
        # with it, so the result is in lowest terms without a gcd
        den = math.lcm(a.denominator, b.denominator, c.denominator, d.denominator)
        _set_num(self, (a.numerator * (den // a.denominator),
                        b.numerator * (den // b.denominator),
                        c.numerator * (den // c.denominator),
                        d.numerator * (den // d.denominator)))
        _set_den(self, den)

    # -- constructors ------------------------------------------------------

    @classmethod
    def sqrt2(cls) -> "ExactScalar":
        return cls(0, 1)

    @classmethod
    def sqrt3(cls) -> "ExactScalar":
        return cls(0, 0, 1)

    @classmethod
    def sqrt6(cls) -> "ExactScalar":
        return cls(0, 0, 0, 1)

    # -- field operations ----------------------------------------------------

    def __mul__(self, other) -> "ExactScalar":
        if type(other) is not ExactScalar:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        x, y = self._num, other._num
        if x == _ZERO4 or y == _ZERO4:
            return ZERO
        den = self._den * other._den
        # fast path: both rational (the overwhelmingly common case)
        if not (x[1] or x[2] or x[3] or y[1] or y[2] or y[3]):
            a = x[0] * y[0]
            g = math.gcd(a, den)
            return _new(ExactScalar, (a // g, 0, 0, 0), den // g)
        a, b, c, d = _mul4(x, y)
        return _from_ints(a, b, c, d, den)

    __rmul__ = __mul__

    def inverse(self) -> "ExactScalar":
        """Field inverse by rationalizing with the three Galois conjugates."""
        x = self._num
        a, b, c, d = x
        if not (b or c or d):
            if not a:
                raise ZeroDivisionError("ExactScalar division by zero")
            return _from_ints(self._den, 0, 0, 0, a)
        # the conjugates sqrt2 -> -sqrt2, sqrt3 -> -sqrt3 and both
        num = _mul4(_mul4((a, -b, c, -d), (a, b, -c, -d)), (a, -b, -c, d))
        norm, *rest = _mul4(x, num)
        assert not any(rest), "field norm must be rational"
        den = self._den
        return _from_ints(num[0] * den, num[1] * den, num[2] * den,
                          num[3] * den, norm)

    def __truediv__(self, other) -> "ExactScalar":
        other = self._coerce(other)
        return other if other is NotImplemented else self * other.inverse()

    def __rtruediv__(self, other) -> "ExactScalar":
        other = self._coerce(other)
        return other if other is NotImplemented else other * self.inverse()

    def to_json(self) -> dict:
        return _json_of(self._num, self._den)

    # -- predicates, order, conversions -------------------------------------

    def is_rational(self) -> bool:
        _, b, c, d = self._num
        return not (b or c or d)

    def sign(self) -> int:
        """Exact sign (-1, 0, +1), decided algebraically.

        Writes the value as u + v*sqrt3 with u, v in Q(sqrt2) and resolves
        mixed-sign cases by comparing u^2 against 3 v^2; the inner Q(sqrt2)
        signs are resolved the same way against 2 q^2.  Never evaluates a
        floating-point approximation.  The denominator is positive, so the
        numerators alone decide.
        """
        return _sign_q23(*self._num)

    def __lt__(self, other) -> bool:
        other = self._coerce(other)
        return other if other is NotImplemented else (self - other).sign() < 0

    def __le__(self, other) -> bool:
        other = self._coerce(other)
        return other if other is NotImplemented else (self - other).sign() <= 0

    def __gt__(self, other) -> bool:
        other = self._coerce(other)
        return other if other is NotImplemented else (self - other).sign() > 0

    def __ge__(self, other) -> bool:
        other = self._coerce(other)
        return other if other is NotImplemented else (self - other).sign() >= 0

    def __abs__(self) -> "ExactScalar":
        return -self if self.sign() < 0 else self

    def __float__(self) -> float:
        # int true division is correctly rounded, as float(Fraction) is, so
        # each coordinate gives the same float as its reduced Fraction
        a, b, c, d = self._num
        den = self._den
        return a / den + b / den * _SQRT2 + c / den * _SQRT3 + d / den * _SQRT6

    def __repr__(self) -> str:
        parts = []
        for coeff, tag in zip(self._parts(self), ("", "*r2", "*r3", "*r6")):
            if coeff:
                parts.append(f"{coeff}{tag}")
        return "ExactScalar(" + (" + ".join(parts) if parts else "0") + ")"


def _from_ints(a: int, b: int, c: int, d: int, den: int) -> ExactScalar:
    """(a + b*sqrt2 + c*sqrt3 + d*sqrt6) / den for ints with den != 0, brought
    to lowest terms with a positive denominator."""
    if den < 0:
        a, b, c, d, den = -a, -b, -c, -d, -den
    g = math.gcd(a, b, c, d, den)
    if g != 1:
        a, b, c, d, den = a // g, b // g, c // g, d // g, den // g
    return _new(ExactScalar, (a, b, c, d), den)


def _sign_rat(p: int) -> int:
    return (p > 0) - (p < 0)


def _sign_q2(p: int, q: int) -> int:
    """Exact sign of p + q*sqrt2 with p, q rational (here ints)."""
    sp, sq = _sign_rat(p), _sign_rat(q)
    if sq == 0:
        return sp
    if sp == 0:
        return sq
    if sp == sq:
        return sp
    # p, q have opposite signs; compare p^2 with 2 q^2
    return sp * _sign_rat(p * p - 2 * q * q)


def _sign_q23(a: int, b: int, c: int, d: int) -> int:
    """Exact sign of (a + b*sqrt2) + (c + d*sqrt2)*sqrt3."""
    su = _sign_q2(a, b)
    sv = _sign_q2(c, d)
    if sv == 0:
        return su
    if su == 0:
        return sv
    if su == sv:
        return su
    # u, v have opposite signs; sign equals su * sign(u^2 - 3 v^2), where
    # u^2 - 3 v^2 is computed inside Q(sqrt2)
    u2_p = a * a + 2 * b * b
    u2_q = 2 * a * b
    v2_p = c * c + 2 * d * d
    v2_q = 2 * c * d
    return su * _sign_q2(u2_p - 3 * v2_p, u2_q - 3 * v2_q)


ZERO = ExactScalar(0)


class ExactComplex(_ExactElement):
    """Complex number re + im*i with real and imaginary parts in
    Q(sqrt2, sqrt3), each read as an ExactScalar."""

    __slots__ = ()
    _fields = ("re", "im")
    _k = 2
    _parts = attrgetter(*_fields)
    _part_from_json = ExactScalar.from_json
    _ring_mul = staticmethod(_complex_mul)
    __mul__ = __rmul__ = _ring_product

    re = _component(0, 2, "real")
    im = _component(1, 2, "imaginary")

    def __init__(self, re=0, im=0) -> None:
        _put(self, (re, im))

    def conj(self) -> "ExactComplex":
        return self._signed((1, -1))

    def norm_sq(self) -> ExactScalar:
        return (self * self.conj()).re

    def inverse(self) -> "ExactComplex":
        n = self.norm_sq()
        if n.is_zero():
            raise ZeroDivisionError("ExactComplex division by zero")
        return self.conj() * n.inverse()

    def __truediv__(self, other) -> "ExactComplex":
        other = self._coerce(other)
        return other if other is NotImplemented else self * other.inverse()

    def __rtruediv__(self, other) -> "ExactComplex":
        other = self._coerce(other)
        return other if other is NotImplemented else other * self.inverse()

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))


C_ZERO = ExactComplex._zero = ExactComplex(0)
C_ONE = ExactComplex(1)
C_I = ExactComplex(0, 1)
