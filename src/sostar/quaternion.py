"""Quaternions over Q(sqrt2, sqrt3), their conjugations, and the 2x2 complex embedding.

Three involutions matter here:

* conjugation  q* = t - xi - yj - zk      (anti-homomorphism),
* reversion    q~ = t + xi - yj + zk      (anti-homomorphism; only j flips),
* their composite, which under the standard matrix embedding below becomes
  entry-wise complex conjugation.

The embedding sends t + xi + yj + zk to

    [ t + z i    x i - y ]
    [ x i + y    t - z i ]

and is a multiplicative homomorphism M_1(H) -> M_2(C); conjugation maps to
the conjugate transpose, reversion to the plain transpose.

Quaternion shares its value semantics with ExactScalar and ExactComplex
through `scalars._ExactElement` (coercion of ints, Fractions and field
scalars as real quaternions, coordinate-wise + and -, equality, hashing,
JSON, repr); the Hamilton product, which is the zero quaternion for a zero
factor, and the involutions are written out here.  Real scalars are central,
so a scalar on either side of a product gives the same quaternion.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter
from typing import Union

from .scalars import ExactComplex, ExactScalar, _ExactElement

ScalarLike = Union[int, Fraction, ExactScalar]


class Quaternion(_ExactElement):
    """t + x i + y j + z k with ExactScalar components."""

    __slots__ = _fields = ("t", "x", "y", "z")
    _parts = attrgetter(*_fields)
    _part_from_json = ExactScalar.from_json

    def __init__(self, t: ScalarLike = 0, x: ScalarLike = 0,
                 y: ScalarLike = 0, z: ScalarLike = 0) -> None:
        object.__setattr__(self, "t", t if isinstance(t, ExactScalar) else ExactScalar(t))
        object.__setattr__(self, "x", x if isinstance(x, ExactScalar) else ExactScalar(x))
        object.__setattr__(self, "y", y if isinstance(y, ExactScalar) else ExactScalar(y))
        object.__setattr__(self, "z", z if isinstance(z, ExactScalar) else ExactScalar(z))

    def __mul__(self, other) -> "Quaternion":
        """Hamilton product; i^2 = j^2 = k^2 = ijk = -1."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Q_ZERO
        t1, x1, y1, z1 = self.t, self.x, self.y, self.z
        t2, x2, y2, z2 = other.t, other.x, other.y, other.z
        return Quaternion(
            t1 * t2 - x1 * x2 - y1 * y2 - z1 * z2,
            t1 * x2 + x1 * t2 + y1 * z2 - z1 * y2,
            t1 * y2 - x1 * z2 + y1 * t2 + z1 * x2,
            t1 * z2 + x1 * y2 - y1 * x2 + z1 * t2,
        )

    # a left operand that is not a quaternion embeds as a real scalar, which
    # is central
    __rmul__ = __mul__

    def scale(self, s: ScalarLike) -> "Quaternion":
        s = ExactScalar.coerce(s)
        return Quaternion(self.t * s, self.x * s, self.y * s, self.z * s)

    def conj(self) -> "Quaternion":
        """Quaternionic conjugation: negates i, j and k components."""
        return Quaternion(self.t, -self.x, -self.y, -self.z)

    def reversion(self) -> "Quaternion":
        """Reversion: negates only the j component.

        Equals -j * conj(q) * j, and corresponds to transposition of the 2x2
        complex image.
        """
        return Quaternion(self.t, self.x, -self.y, self.z)

    def norm_sq(self) -> ExactScalar:
        """|q|^2 = t^2 + x^2 + y^2 + z^2 = (q * conj q).t, a nonnegative scalar."""
        return (self.t * self.t + self.x * self.x +
                self.y * self.y + self.z * self.z)

    def real_part(self) -> ExactScalar:
        return self.t

    def is_zero(self) -> bool:
        return (self.t.is_zero() and self.x.is_zero() and
                self.y.is_zero() and self.z.is_zero())

    def embed(self) -> list[list[ExactComplex]]:
        """2x2 complex image [[t+zi, xi-y], [xi+y, t-zi]] as a nested list."""
        t, x, y, z = self.t, self.x, self.y, self.z
        return [
            [ExactComplex(t, z), ExactComplex(-y, x)],
            [ExactComplex(y, x), ExactComplex(t, -z)],
        ]


Q_ZERO = Quaternion(0)
Q_ONE = Quaternion(1)
Q_I = Quaternion(0, 1)
Q_J = Quaternion(0, 0, 1)
Q_K = Quaternion(0, 0, 0, 1)
