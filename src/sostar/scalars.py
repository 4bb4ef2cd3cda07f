"""Exact scalar arithmetic in the real quadratic field Q(sqrt2, sqrt3).

Every numeric coefficient appearing in the group/algebra constructions of
this package (halves, quarters, 1/sqrt3, sqrt2/sqrt3, 1/(2*sqrt6), ...) lives
in Q(sqrt2, sqrt3), so all constant matrices can be represented and compared
with zero rounding error.  An element is stored as

    a + b*sqrt(2) + c*sqrt(3) + d*sqrt(6)

with arbitrary-precision rational coordinates.  Equality is structural on the
four coordinates; there is no epsilon anywhere in this module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)
_SQRT6 = math.sqrt(6.0)

RationalLike = Union[int, Fraction]


def _frac(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class ExactScalar:
    """An element a + b*sqrt2 + c*sqrt3 + d*sqrt6 of Q(sqrt2, sqrt3)."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0,
                 c: RationalLike = 0, d: RationalLike = 0) -> None:
        object.__setattr__(self, "a", _frac(a))
        object.__setattr__(self, "b", _frac(b))
        object.__setattr__(self, "c", _frac(c))
        object.__setattr__(self, "d", _frac(d))

    def __setattr__(self, name, value):
        raise AttributeError("ExactScalar is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, x: RationalLike) -> "ExactScalar":
        return cls(_frac(x))

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
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ExactScalar(self.a + other.a, self.b + other.b,
                           self.c + other.c, self.d + other.d)

    __radd__ = __add__

    def __neg__(self) -> "ExactScalar":
        return ExactScalar(-self.a, -self.b, -self.c, -self.d)

    def __sub__(self, other) -> "ExactScalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ExactScalar(self.a - other.a, self.b - other.b,
                           self.c - other.c, self.d - other.d)

    def __rsub__(self, other) -> "ExactScalar":
        return (-self) + other

    def __mul__(self, other) -> "ExactScalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = other.a, other.b, other.c, other.d
        # fast path: both rational (the overwhelmingly common case)
        if not (b1 or c1 or d1 or b2 or c2 or d2):
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
        if not (self.b or self.c or self.d):
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
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> "ExactScalar":
        return _coerce(other) * self.inverse()

    # -- predicates, order, conversions -------------------------------------

    def is_zero(self) -> bool:
        return not (self.a or self.b or self.c or self.d)

    def is_rational(self) -> bool:
        return not (self.b or self.c or self.d)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self.a == other.a and self.b == other.b and
                self.c == other.c and self.d == other.d)

    def __hash__(self) -> int:
        # a rational value equals its Fraction (and int), so it hashes like one
        if not (self.b or self.c or self.d):
            return hash(self.a)
        return hash((self.a, self.b, self.c, self.d))

    def sign(self) -> int:
        """Exact sign (-1, 0, +1), decided algebraically.

        Writes the value as u + v*sqrt3 with u, v in Q(sqrt2) and resolves
        mixed-sign cases by comparing u^2 against 3 v^2; the inner Q(sqrt2)
        signs are resolved the same way against 2 q^2.  Never evaluates a
        floating-point approximation.
        """
        return _sign_q23(self.a, self.b, self.c, self.d)

    def __lt__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).sign() < 0

    def __le__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).sign() <= 0

    def __gt__(self, other) -> bool:
        return _coerce(other) < self

    def __ge__(self, other) -> bool:
        return _coerce(other) <= self

    def __abs__(self) -> "ExactScalar":
        return -self if self.sign() < 0 else self

    def __float__(self) -> float:
        return (float(self.a) + float(self.b) * _SQRT2 +
                float(self.c) * _SQRT3 + float(self.d) * _SQRT6)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {"a": _frac_str(self.a), "b": _frac_str(self.b),
                "c": _frac_str(self.c), "d": _frac_str(self.d)}

    @classmethod
    def from_json(cls, obj: dict) -> "ExactScalar":
        return cls(Fraction(obj["a"]), Fraction(obj["b"]),
                   Fraction(obj["c"]), Fraction(obj["d"]))

    def __repr__(self) -> str:
        parts = []
        for coeff, tag in ((self.a, ""), (self.b, "*r2"), (self.c, "*r3"), (self.d, "*r6")):
            if coeff:
                parts.append(f"{coeff}{tag}")
        return "ExactScalar(" + (" + ".join(parts) if parts else "0") + ")"


def _coerce(x) -> "ExactScalar":
    if isinstance(x, ExactScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return ExactScalar(x)
    return NotImplemented


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


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
ONE = ExactScalar(1)
HALF = ExactScalar(Fraction(1, 2))
QUARTER = ExactScalar(Fraction(1, 4))


class ExactComplex:
    """Complex number with ExactScalar real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0) -> None:
        object.__setattr__(self, "re", re if isinstance(re, ExactScalar) else ExactScalar(re))
        object.__setattr__(self, "im", im if isinstance(im, ExactScalar) else ExactScalar(im))

    def __setattr__(self, name, value):
        raise AttributeError("ExactComplex is immutable")

    @classmethod
    def i(cls) -> "ExactComplex":
        return cls(0, 1)

    def __add__(self, other) -> "ExactComplex":
        other = _coerce_c(other)
        if other is NotImplemented:
            return NotImplemented
        return ExactComplex(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self) -> "ExactComplex":
        return ExactComplex(-self.re, -self.im)

    def __sub__(self, other) -> "ExactComplex":
        other = _coerce_c(other)
        if other is NotImplemented:
            return NotImplemented
        return ExactComplex(self.re - other.re, self.im - other.im)

    def __rsub__(self, other) -> "ExactComplex":
        return (-self) + other

    def __mul__(self, other) -> "ExactComplex":
        other = _coerce_c(other)
        if other is NotImplemented:
            return NotImplemented
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
        other = _coerce_c(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def is_zero(self) -> bool:
        return self.re.is_zero() and self.im.is_zero()

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        other = _coerce_c(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        # a real value equals its real part, so it hashes like it
        if self.im.is_zero():
            return hash(self.re)
        return hash((self.re, self.im))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def to_json(self) -> dict:
        return {"re": self.re.to_json(), "im": self.im.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "ExactComplex":
        return cls(ExactScalar.from_json(obj["re"]), ExactScalar.from_json(obj["im"]))

    def __repr__(self) -> str:
        return f"ExactComplex({self.re!r}, {self.im!r})"


def _coerce_c(x) -> "ExactComplex":
    if isinstance(x, ExactComplex):
        return x
    if isinstance(x, ExactScalar):
        return ExactComplex(x)
    if isinstance(x, (int, Fraction)):
        return ExactComplex(ExactScalar(x))
    return NotImplemented


C_ZERO = ExactComplex(0)
C_ONE = ExactComplex(1)
C_I = ExactComplex(0, 1)
