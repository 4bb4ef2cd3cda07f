"""Quaternions over Q(sqrt2, sqrt3) and their conjugations.

Three involutions matter here:

* conjugation  q* = t - xi - yj - zk      (anti-homomorphism),
* reversion    q~ = t + xi - yj + zk      (anti-homomorphism; only j flips),
* their composite, which under the standard matrix embedding below becomes
  entry-wise complex conjugation.

The embedding `HMatrix.embed` sends t + xi + yj + zk to

    [ t + z i    x i - y ]
    [ x i + y    t - z i ]

and is a multiplicative homomorphism M_1(H) -> M_2(C); conjugation maps to
the conjugate transpose, reversion to the plain transpose.

Quaternion is the k = 4 case of `scalars._ExactElement`: one state of 16 int
numerators over one denominator, on which coercion of ints, Fractions and
field scalars as real quaternions, + and -, equality, hashing, JSON and repr
are written once.  The coordinates t, x, y, z are ExactScalars built on each
read.  The Hamilton product runs on the int table `_hamilton_mul`, which
`hmatrix` also uses for HMatrix products: once when both factors are
rational, and else once per pair of nonzero blocks in
`scalars._field_product`, the one irrational ring product.  It is the zero
quaternion for a zero factor; conjugation and reversion are sign patterns
on the coordinates.  Real scalars are central, so a scalar on either side of a
product gives the same quaternion.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter
from typing import Union

from .scalars import ExactScalar, _ExactElement, _component, _put, _ring_product

ScalarLike = Union[int, Fraction, ExactScalar]


def _hamilton_mul(x, y):
    """The Hamilton product of two rational quaternions' ints (t, x, y, z);
    i^2 = j^2 = k^2 = ijk = -1."""
    t1, x1, y1, z1 = x
    t2, x2, y2, z2 = y
    return (t1 * t2 - x1 * x2 - y1 * y2 - z1 * z2,
            t1 * x2 + x1 * t2 + y1 * z2 - z1 * y2,
            t1 * y2 - x1 * z2 + y1 * t2 + z1 * x2,
            t1 * z2 + x1 * y2 - y1 * x2 + z1 * t2)


class Quaternion(_ExactElement):
    """t + x i + y j + z k with coordinates in Q(sqrt2, sqrt3), each read as
    an ExactScalar."""

    __slots__ = ()
    _fields = ("t", "x", "y", "z")
    _k = 4
    _parts = attrgetter(*_fields)
    _part_from_json = ExactScalar.from_json
    _ring_mul = staticmethod(_hamilton_mul)
    __mul__ = __rmul__ = _ring_product

    t = _component(0, 4, "real")
    x = _component(1, 4, "i")
    y = _component(2, 4, "j")
    z = _component(3, 4, "k")

    def __init__(self, t: ScalarLike = 0, x: ScalarLike = 0,
                 y: ScalarLike = 0, z: ScalarLike = 0) -> None:
        _put(self, (t, x, y, z))

    def scale(self, s: ScalarLike) -> "Quaternion":
        return self * ExactScalar.coerce(s)

    def conj(self) -> "Quaternion":
        """Quaternionic conjugation: negates i, j and k components."""
        return self._signed((1, -1, -1, -1))

    def reversion(self) -> "Quaternion":
        """Reversion: negates only the j component.

        Equals -j * conj(q) * j, and corresponds to transposition of the 2x2
        complex image.
        """
        return self._signed((1, 1, -1, 1))

    def norm_sq(self) -> ExactScalar:
        """|q|^2 = t^2 + x^2 + y^2 + z^2 = (q * conj q).t, a nonnegative scalar."""
        return (self * self.conj()).t

    def real_part(self) -> ExactScalar:
        return self.t


Q_ZERO = Quaternion._zero = Quaternion(0)
Q_ONE = Quaternion(1)
Q_I = Quaternion(0, 1)
Q_J = Quaternion(0, 0, 1)
Q_K = Quaternion(0, 0, 0, 1)
