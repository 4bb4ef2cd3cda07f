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

The exact number types (ExactScalar, ExactComplex here, Quaternion in
`quaternion`) share one base, `_ExactElement`: immutability, one coercion rule
(ints, Fractions and field scalars embed as the first coordinate),
coordinate-wise + and - that return the other operand when one is zero,
equality and hashing, JSON keyed by coordinate name and repr.  Each type
writes out its own constructor, zero test and product; a product with a zero
factor is that type's zero constant.  ExactScalar also writes out its own
+, -, ==, hash and JSON on the integer numerators.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, attrgetter, neg, sub
from typing import Union

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)
_SQRT6 = math.sqrt(6.0)

RationalLike = Union[int, Fraction]


class _ExactElement:
    """An immutable vector of coordinates named by the subclass's `_fields`.

    A subclass sets `_fields` (the coordinate names, also the JSON keys),
    `_parts = attrgetter(*_fields)` and `_part_from_json` (how one coordinate
    is read back from JSON), and writes out `__init__` (which takes the
    coordinates in field order), `is_zero` and `__mul__`.
    """

    __slots__ = ()

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
    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        return type(self)(*map(add, self._parts(self), self._parts(other)))

    __radd__ = __add__

    def __neg__(self):
        if self.is_zero():
            return self
        return type(self)(*map(neg, self._parts(self)))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            return self
        if self.is_zero():
            return -other
        return type(self)(*map(sub, self._parts(self), self._parts(other)))

    def __rsub__(self, other):
        return (-self) + other

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._parts(self) == self._parts(other)

    def __hash__(self) -> int:
        # with every other coordinate zero an element equals its first
        # coordinate (a Fraction or a field scalar), so it hashes like it
        parts = self._parts(self)
        return hash(parts) if any(parts[1:]) else hash(parts[0])

    def to_json(self) -> dict:
        return {name: v.to_json() for name, v in zip(self._fields, self._parts(self))}

    @classmethod
    def from_json(cls, obj: dict):
        return cls(*(cls._part_from_json(obj[name]) for name in cls._fields))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(repr, self._parts(self)))})"


def _mul4(x, y):
    """Product of two int 4-tuples over {1, sqrt2, sqrt3, sqrt6}: the
    multiplication table of Q(sqrt2, sqrt3)."""
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return (a1 * a2 + 2 * b1 * b2 + 3 * c1 * c2 + 6 * d1 * d2,
            a1 * b2 + b1 * a2 + 3 * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2),
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2)


def _coordinate(i: int, name: str) -> property:
    return property(lambda self: Fraction(self._num[i], self._den),
                    doc=f"The {name} coordinate, a reduced Fraction.")


class ExactScalar(_ExactElement):
    """An element a + b*sqrt2 + c*sqrt3 + d*sqrt6 of Q(sqrt2, sqrt3), held as
    int numerators over one positive int denominator in lowest terms."""

    __slots__ = ("_num", "_den")
    _fields = ("a", "b", "c", "d")
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

    # -- ring/field operations --------------------------------------------

    def __add__(self, other) -> "ExactScalar":
        if type(other) is not ExactScalar:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        y = other._num
        if y == _ZERO4:
            return self
        x = self._num
        if x == _ZERO4:
            return other
        a1, b1, c1, d1 = x
        a2, b2, c2, d2 = y
        e1, e2 = self._den, other._den
        if e1 == e2:
            return _from_ints(a1 + a2, b1 + b2, c1 + c2, d1 + d2, e1)
        return _from_ints(a1 * e2 + a2 * e1, b1 * e2 + b2 * e1,
                          c1 * e2 + c2 * e1, d1 * e2 + d2 * e1, e1 * e2)

    __radd__ = __add__

    def __sub__(self, other) -> "ExactScalar":
        if type(other) is not ExactScalar:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        y = other._num
        if y == _ZERO4:
            return self
        x = self._num
        if x == _ZERO4:
            return -other
        a1, b1, c1, d1 = x
        a2, b2, c2, d2 = y
        e1, e2 = self._den, other._den
        if e1 == e2:
            return _from_ints(a1 - a2, b1 - b2, c1 - c2, d1 - d2, e1)
        return _from_ints(a1 * e2 - a2 * e1, b1 * e2 - b2 * e1,
                          c1 * e2 - c2 * e1, d1 * e2 - d2 * e1, e1 * e2)

    def __neg__(self) -> "ExactScalar":
        a, b, c, d = self._num
        if not (a or b or c or d):
            return self
        return _make((-a, -b, -c, -d), self._den)

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
            return _make((a // g, 0, 0, 0), den // g)
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

    # -- value semantics ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if type(other) is not ExactScalar:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self) -> int:
        # a rational value hashes like its Fraction (or int), as the base does
        a, b, c, d = self._num
        if b or c or d:
            return hash(self._parts(self))
        return hash(a) if self._den == 1 else hash(Fraction(a, self._den))

    def to_json(self) -> dict:
        """Each coordinate as the text "numerator/denominator" of its reduced
        fraction, "0/1" for zero, printed from the ints."""
        den = self._den
        out = {}
        for name, x in zip(self._fields, self._num):
            g = math.gcd(x, den)
            out[name] = f"{x // g}/{den // g}"
        return out

    # -- predicates, order, conversions -------------------------------------

    def is_zero(self) -> bool:
        return self._num == _ZERO4

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


_ZERO4 = (0, 0, 0, 0)
_set_num = ExactScalar._num.__set__
_set_den = ExactScalar._den.__set__


def _make(num: tuple, den: int) -> ExactScalar:
    """An ExactScalar with numerators `num` over `den`, already in lowest
    terms with den > 0."""
    x = object.__new__(ExactScalar)
    _set_num(x, num)
    _set_den(x, den)
    return x


def _from_ints(a: int, b: int, c: int, d: int, den: int) -> ExactScalar:
    """(a + b*sqrt2 + c*sqrt3 + d*sqrt6) / den for ints with den != 0, brought
    to lowest terms with a positive denominator."""
    if den < 0:
        a, b, c, d, den = -a, -b, -c, -d, -den
    g = math.gcd(a, b, c, d, den)
    if g != 1:
        a, b, c, d, den = a // g, b // g, c // g, d // g, den // g
    return _make((a, b, c, d), den)


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
    """Complex number with ExactScalar real and imaginary parts."""

    __slots__ = _fields = ("re", "im")
    _parts = attrgetter(*_fields)
    _part_from_json = ExactScalar.from_json

    def __init__(self, re=0, im=0) -> None:
        object.__setattr__(self, "re", re if isinstance(re, ExactScalar) else ExactScalar(re))
        object.__setattr__(self, "im", im if isinstance(im, ExactScalar) else ExactScalar(im))

    def __mul__(self, other) -> "ExactComplex":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return C_ZERO
        return ExactComplex(self.re * other.re - self.im * other.im,
                            self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def conj(self) -> "ExactComplex":
        return ExactComplex(self.re, -self.im)

    def norm_sq(self) -> ExactScalar:
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "ExactComplex":
        n = self.norm_sq()
        if n.is_zero():
            raise ZeroDivisionError("ExactComplex division by zero")
        inv = n.inverse()
        return ExactComplex(self.re * inv, -(self.im * inv))

    def __truediv__(self, other) -> "ExactComplex":
        other = self._coerce(other)
        return other if other is NotImplemented else self * other.inverse()

    def __rtruediv__(self, other) -> "ExactComplex":
        other = self._coerce(other)
        return other if other is NotImplemented else other * self.inverse()

    def is_zero(self) -> bool:
        return self.re.is_zero() and self.im.is_zero()

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))


C_ZERO = ExactComplex(0)
C_ONE = ExactComplex(1)
C_I = ExactComplex(0, 1)
