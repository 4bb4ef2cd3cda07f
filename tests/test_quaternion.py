from fractions import Fraction

from hypothesis import given, strategies as st

from sostar.hmatrix import HMatrix
from sostar.quaternion import Q_I, Q_J, Q_K, Q_ONE, Quaternion
from sostar.scalars import ExactComplex, ExactScalar

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
quats = st.builds(Quaternion, rationals, rationals, rationals, rationals)
small = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1, 2)])
mixed_values = st.one_of(
    small,
    st.builds(ExactScalar, small, small),
    st.builds(Quaternion, st.builds(ExactScalar, small, small)),
    st.builds(Quaternion, small, small, small, small),
)


def test_defining_relations():
    minus_one = Quaternion(-1)
    assert Q_I * Q_I == minus_one
    assert Q_J * Q_J == minus_one
    assert Q_K * Q_K == minus_one
    assert Q_I * Q_J * Q_K == minus_one
    assert Q_I * Q_J == Q_K
    assert Q_J * Q_K == Q_I
    assert Q_K * Q_I == Q_J
    assert Q_J * Q_I == -Q_K


def test_product_example():
    # (1+i)(1+j) = 1 + i + j + k by distributing the defining relations
    assert Quaternion(1, 1) * Quaternion(1, 0, 1) == Quaternion(1, 1, 1, 1)


def test_conjugation_examples():
    q = Quaternion(1, 2, 3, 4)
    assert q.conj() == Quaternion(1, -2, -3, -4)
    assert Quaternion(1).conj() == Quaternion(1)
    assert q.conj() * q == Quaternion(30)  # sum of squared components


def test_reversion_examples():
    q = Quaternion(1, 2, 3, 4)
    assert q.reversion() == Quaternion(1, 2, -3, 4)
    assert Q_J.reversion() == -Q_J
    # rev(i k) = -j (i k)* j; both sides equal j
    ik = Q_I * Q_K
    assert ik.reversion() == Q_J
    assert -(Q_J * ik.conj() * Q_J) == Q_J


@given(quats, quats)
def test_conjugation_is_antihomomorphic(p, q):
    assert (p * q).conj() == q.conj() * p.conj()


@given(quats, quats)
def test_reversion_is_antihomomorphic(p, q):
    assert (p * q).reversion() == q.reversion() * p.reversion()


@given(quats)
def test_reversion_via_conjugation(q):
    assert q.reversion() == -(Q_J * q.conj() * Q_J)


@given(quats, quats)
def test_norm_is_multiplicative(p, q):
    assert (p * q).norm_sq() == p.norm_sq() * q.norm_sq()


@given(quats)
def test_norm_is_conj_product(q):
    prod = q * q.conj()
    assert prod == Quaternion(q.norm_sq())
    assert q.norm_sq().sign() >= 0


def test_embed_examples():
    ident = [[ExactComplex(1), ExactComplex(0)], [ExactComplex(0), ExactComplex(1)]]
    assert Q_ONE.embed() == ident
    assert Q_J.embed() == [[ExactComplex(0), ExactComplex(-1)],
                           [ExactComplex(1), ExactComplex(0)]]
    assert Q_K.embed() == [[ExactComplex(0, 1), ExactComplex(0)],
                           [ExactComplex(0), ExactComplex(0, -1)]]


@given(quats, quats)
def test_embed_is_multiplicative(p, q):
    lhs = HMatrix([[p]]).embed() @ HMatrix([[q]]).embed()
    assert lhs == HMatrix([[p * q]]).embed()


@given(quats)
def test_embed_sends_involutions_to_matrix_ones(q):
    m = HMatrix([[q]])
    assert m.embed().dagger() == HMatrix([[q.conj()]]).embed()
    assert m.embed().transpose() == HMatrix([[q.reversion()]]).embed()
    assert m.embed().conj() == HMatrix([[q.conj().reversion()]]).embed()


@given(quats)
def test_no_nonzero_symmetric_bilinear_value(g):
    """A symmetric bilinear form on H^n would have to satisfy
    i j G = -i j G for every value G = g; only g = 0 survives."""
    lhs = Q_I * Q_J * g
    rhs = -(Q_I * Q_J * g)
    if g.is_zero():
        assert lhs == rhs
    else:
        assert lhs != rhs


@given(quats)
def test_json_round_trip(q):
    assert Quaternion.from_json(q.to_json()) == q


def test_scale_uses_central_scalars():
    q = Quaternion(1, 2, 3, 4)
    assert q.scale(Fraction(1, 2)) == Quaternion(Fraction(1, 2), 1,
                                                 Fraction(3, 2), 2)
    assert q.scale(ExactScalar.sqrt2()).norm_sq() == q.norm_sq() * ExactScalar(2)


@given(mixed_values, mixed_values)
def test_equal_values_hash_equal(u, v):
    if u == v:
        assert hash(u) == hash(v)


def test_real_quaternion_collapses_with_its_real_part():
    assert len({Quaternion(3), ExactScalar(3), 3}) == 1
