"""Exact scalar arithmetic: the real field Q(sqrt2, sqrt3) and its complex
extension by i.

Every numeric coefficient appearing in the group/algebra constructions of
this package (halves, quarters, 1/sqrt3, sqrt2/sqrt3, 1/(2*sqrt6), ...) lives
in Q(sqrt2, sqrt3), so all constant matrices can be represented and compared
with zero rounding error.  An element is stored as

    a + b*sqrt(2) + c*sqrt(3) + d*sqrt(6)

with arbitrary-precision rational coordinates.  Equality is structural on the
four coordinates; there is no epsilon anywhere in this module.

The exact number types (ExactScalar, ExactComplex here, Quaternion in
`quaternion`) share one base, `_ExactElement`: immutability, one coercion rule
(ints, Fractions and field scalars embed as the first coordinate),
coordinate-wise + and - that return the other operand when one is zero,
equality and hashing, JSON keyed by coordinate name and repr.  Each type
writes out its own constructor, zero test and product; a product with a zero
factor is that type's zero constant.
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

# Every zero coordinate is this one Fraction, so zero tests are identity tests.
_F0 = Fraction(0)


def _frac(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x if x else _F0
    if isinstance(x, int):
        return Fraction(x) if x else _F0
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class _ExactElement:
    """An immutable vector of coordinates, named by the subclass's `__slots__`.

    A subclass sets `_parts = attrgetter(*__slots__)` and `_part_from_json`
    (how one coordinate is read back from JSON), and writes out `__init__`
    (which takes the coordinates in slot order), `is_zero` and `__mul__`.
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
        return {name: f"{v.numerator}/{v.denominator}" if isinstance(v, Fraction)
                else v.to_json()
                for name, v in zip(self.__slots__, self._parts(self))}

    @classmethod
    def from_json(cls, obj: dict):
        return cls(*(cls._part_from_json(obj[name]) for name in cls.__slots__))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(repr, self._parts(self)))})"


class ExactScalar(_ExactElement):
    """An element a + b*sqrt2 + c*sqrt3 + d*sqrt6 of Q(sqrt2, sqrt3)."""

    __slots__ = ("a", "b", "c", "d")
    _parts = attrgetter(*__slots__)
    _part_from_json = Fraction

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0,
                 c: RationalLike = 0, d: RationalLike = 0) -> None:
        object.__setattr__(self, "a", _frac(a))
        object.__setattr__(self, "b", _frac(b))
        object.__setattr__(self, "c", _frac(c))
        object.__setattr__(self, "d", _frac(d))

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

    def __mul__(self, other) -> "ExactScalar":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return ZERO
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = other.a, other.b, other.c, other.d
        # fast path: both rational (the overwhelmingly common case)
        if self.is_rational() and other.is_rational():
            return ExactScalar(a1 * a2)
        return ExactScalar(
            a1 * a2 + 2 * b1 * b2 + 3 * c1 * c2 + 6 * d1 * d2,
            a1 * b2 + b1 * a2 + 3 * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2),
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
        )

    __rmul__ = __mul__

    def _conj_sqrt2(self) -> "ExactScalar":
        # Galois conjugate sending sqrt2 -> -sqrt2
        return ExactScalar(self.a, -self.b, self.c, -self.d)

    def _conj_sqrt3(self) -> "ExactScalar":
        # Galois conjugate sending sqrt3 -> -sqrt3
        return ExactScalar(self.a, self.b, -self.c, -self.d)

    def inverse(self) -> "ExactScalar":
        """Field inverse by rationalizing with the three Galois conjugates."""
        if self.is_zero():
            raise ZeroDivisionError("ExactScalar division by zero")
        if self.is_rational():
            return ExactScalar(1 / self.a)
        g2 = self._conj_sqrt2()
        g3 = self._conj_sqrt3()
        g4 = g2._conj_sqrt3()
        num = g2 * g3 * g4
        norm = self * num
        assert not (norm.b or norm.c or norm.d), "field norm must be rational"
        inv = 1 / norm.a
        return ExactScalar(num.a * inv, num.b * inv, num.c * inv, num.d * inv)

    def __truediv__(self, other) -> "ExactScalar":
        other = self._coerce(other)
        return other if other is NotImplemented else self * other.inverse()

    def __rtruediv__(self, other) -> "ExactScalar":
        other = self._coerce(other)
        return other if other is NotImplemented else other * self.inverse()

    # -- predicates, order, conversions -------------------------------------

    def is_zero(self) -> bool:
        return (self.a is _F0 and self.b is _F0 and self.c is _F0
                and self.d is _F0)

    def is_rational(self) -> bool:
        return self.b is _F0 and self.c is _F0 and self.d is _F0

    def sign(self) -> int:
        """Exact sign (-1, 0, +1), decided algebraically.

        Writes the value as u + v*sqrt3 with u, v in Q(sqrt2) and resolves
        mixed-sign cases by comparing u^2 against 3 v^2; the inner Q(sqrt2)
        signs are resolved the same way against 2 q^2.  Never evaluates a
        floating-point approximation.
        """
        return _sign_q23(self.a, self.b, self.c, self.d)

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
        return (float(self.a) + float(self.b) * _SQRT2 +
                float(self.c) * _SQRT3 + float(self.d) * _SQRT6)

    def __repr__(self) -> str:
        parts = []
        for coeff, tag in ((self.a, ""), (self.b, "*r2"), (self.c, "*r3"), (self.d, "*r6")):
            if coeff:
                parts.append(f"{coeff}{tag}")
        return "ExactScalar(" + (" + ".join(parts) if parts else "0") + ")"


def _sign_rat(p: Fraction) -> int:
    return (p > 0) - (p < 0)


def _sign_q2(p: Fraction, q: Fraction) -> int:
    """Exact sign of p + q*sqrt2 with p, q rational."""
    sp, sq = _sign_rat(p), _sign_rat(q)
    if sq == 0:
        return sp
    if sp == 0:
        return sq
    if sp == sq:
        return sp
    # p, q have opposite signs; compare p^2 with 2 q^2
    return sp * _sign_rat(p * p - 2 * q * q)


def _sign_q23(a: Fraction, b: Fraction, c: Fraction, d: Fraction) -> int:
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

    __slots__ = ("re", "im")
    _parts = attrgetter(*__slots__)
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

    def is_zero(self) -> bool:
        return self.re.is_zero() and self.im.is_zero()

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))


C_ZERO = ExactComplex(0)
C_ONE = ExactComplex(1)
C_I = ExactComplex(0, 1)
