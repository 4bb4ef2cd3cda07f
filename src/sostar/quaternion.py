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
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .scalars import ExactScalar, ExactComplex

ScalarLike = Union[int, Fraction, ExactScalar]


def _sc(x: ScalarLike) -> ExactScalar:
    return x if isinstance(x, ExactScalar) else ExactScalar(x)


class Quaternion:
    """t + x i + y j + z k with ExactScalar components."""

    __slots__ = ("t", "x", "y", "z")

    def __init__(self, t: ScalarLike = 0, x: ScalarLike = 0,
                 y: ScalarLike = 0, z: ScalarLike = 0) -> None:
        object.__setattr__(self, "t", _sc(t))
        object.__setattr__(self, "x", _sc(x))
        object.__setattr__(self, "y", _sc(y))
        object.__setattr__(self, "z", _sc(z))

    def __setattr__(self, name, value):
        raise AttributeError("Quaternion is immutable")

    @classmethod
    def i(cls) -> "Quaternion":
        return cls(0, 1, 0, 0)

    @classmethod
    def j(cls) -> "Quaternion":
        return cls(0, 0, 1, 0)

    @classmethod
    def k(cls) -> "Quaternion":
        return cls(0, 0, 0, 1)

    def __add__(self, other) -> "Quaternion":
        other = _coerce_q(other)
        if other is NotImplemented:
            return NotImplemented
        return Quaternion(self.t + other.t, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    __radd__ = __add__

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.t, -self.x, -self.y, -self.z)

    def __sub__(self, other) -> "Quaternion":
        other = _coerce_q(other)
        if other is NotImplemented:
            return NotImplemented
        return Quaternion(self.t - other.t, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __rsub__(self, other) -> "Quaternion":
        return (-self) + other

    def __mul__(self, other) -> "Quaternion":
        """Hamilton product; i^2 = j^2 = k^2 = ijk = -1."""
        other = _coerce_q(other)
        if other is NotImplemented:
            return NotImplemented
        t1, x1, y1, z1 = self.t, self.x, self.y, self.z
        t2, x2, y2, z2 = other.t, other.x, other.y, other.z
        return Quaternion(
            t1 * t2 - x1 * x2 - y1 * y2 - z1 * z2,
            t1 * x2 + x1 * t2 + y1 * z2 - z1 * y2,
            t1 * y2 - x1 * z2 + y1 * t2 + z1 * x2,
            t1 * z2 + x1 * y2 - y1 * x2 + z1 * t2,
        )

    def __rmul__(self, other) -> "Quaternion":
        other = _coerce_q(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self

    def scale(self, s: ScalarLike) -> "Quaternion":
        s = _sc(s)
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

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        other = _coerce_q(other)
        if other is NotImplemented:
            return NotImplemented
        return (self.t == other.t and self.x == other.x and
                self.y == other.y and self.z == other.z)

    def __hash__(self) -> int:
        # a real quaternion equals its real part, so it hashes like it
        if self.x.is_zero() and self.y.is_zero() and self.z.is_zero():
            return hash(self.t)
        return hash((self.t, self.x, self.y, self.z))

    def embed(self) -> list[list[ExactComplex]]:
        """2x2 complex image [[t+zi, xi-y], [xi+y, t-zi]] as a nested list."""
        t, x, y, z = self.t, self.x, self.y, self.z
        return [
            [ExactComplex(t, z), ExactComplex(-y, x)],
            [ExactComplex(y, x), ExactComplex(t, -z)],
        ]

    def to_json(self) -> dict:
        return {"t": self.t.to_json(), "x": self.x.to_json(),
                "y": self.y.to_json(), "z": self.z.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "Quaternion":
        return cls(ExactScalar.from_json(obj["t"]), ExactScalar.from_json(obj["x"]),
                   ExactScalar.from_json(obj["y"]), ExactScalar.from_json(obj["z"]))

    def __repr__(self) -> str:
        return f"Quaternion({self.t!r}, {self.x!r}, {self.y!r}, {self.z!r})"


def _coerce_q(x) -> "Quaternion":
    if isinstance(x, Quaternion):
        return x
    if isinstance(x, (int, Fraction, ExactScalar)):
        return Quaternion(x)
    return NotImplemented


Q_ZERO = Quaternion(0)
Q_ONE = Quaternion(1)
Q_I = Quaternion.i()
Q_J = Quaternion.j()
Q_K = Quaternion.k()
