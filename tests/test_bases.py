from fractions import Fraction

from sostar.constants import u_sostar6
from sostar.hmatrix import CMatrix, HMatrix, is_sostar_algebra
from sostar.quaternion import Quaternion
from sostar.scalars import ExactComplex, ExactScalar
from sostar import linalg


def test_sostar4_A_entries(a_basis):
    h = Fraction(1, 2)
    a1 = a_basis.generators[0]
    assert a1 == HMatrix([[Quaternion(0), Quaternion(h)],
                          [Quaternion(-h), Quaternion(0)]])
    for g in a_basis.generators:
        assert is_sostar_algebra(g)


def test_s_basis_entries(s_basis):
    h = Fraction(1, 2)
    s3 = s_basis.generators[2]
    assert s3 == CMatrix.diag([ExactComplex(0, h), ExactComplex(0, -h),
                               ExactComplex(0), ExactComplex(0)])


def test_su31_membership(su31):
    """Every generator satisfies I_{3,1} s I_{3,1} = -s^dagger and is traceless."""
    form = CMatrix.diag([1, 1, 1, -1])
    for s in su31.generators:
        assert (form @ s @ form + s.dagger()).is_zero()
        assert s.trace().is_zero()


def test_su31_s15_entry(su31):
    w = ExactScalar(Fraction(1, 2)) / ExactScalar.sqrt6()
    expected = CMatrix.diag([ExactComplex(0, w)] * 3 +
                            [ExactComplex(0, ExactScalar(-3) * w)])
    assert su31.generators[14] == expected


def test_su31_trace_normalization(su31):
    half = ExactScalar(Fraction(1, 2))
    compact = {1, 2, 3, 4, 5, 6, 7, 8, 15}
    for idx, s in enumerate(su31.generators, start=1):
        t = (s @ s).trace()
        assert t.im.is_zero()
        assert t.re == (-half if idx in compact else half)


def test_sostar6_quat_membership(so6_quat):
    for a in so6_quat.generators:
        assert is_sostar_algebra(a)


def test_sostar6_quat_a15(so6_quat):
    v = ExactScalar(1) / ExactScalar.sqrt6()
    assert so6_quat.generators[14] == HMatrix.diag([Quaternion(0, 0, v)] * 3)


def test_sostar6_complex_a15(so6_complex):
    w = ExactScalar(1) / ExactScalar.sqrt6()
    expected = CMatrix.diag([ExactComplex(0, w)] * 3 +
                            [ExactComplex(0, ExactScalar(-1) * w)] * 3)
    assert so6_complex.generators[14] == expected


def test_sostar6_trace_normalizations(so6_quat, so6_complex):
    """Both recorded normalizations: the embedded complex trace of a_i a_i is
    -+1; the quaternionic real-part trace is -+1/2."""
    one = ExactScalar(1)
    half = ExactScalar(Fraction(1, 2))
    compact = {1, 2, 3, 4, 5, 6, 7, 8, 15}
    for idx, a in enumerate(so6_complex.generators, start=1):
        t = (a @ a).trace()
        assert t.im.is_zero()
        assert t.re == (-one if idx in compact else one)
    for idx, a in enumerate(so6_quat.generators, start=1):
        tq = (a @ a).trace().real_part()
        assert tq == (-half if idx in compact else half)
        te = (a.embed() @ a.embed()).trace()
        assert te.im.is_zero()
        assert te.re == (-one if idx in compact else one)


def test_u_conjugation_relates_quat_and_complex_bases(so6_quat, so6_complex):
    """U^-1 embed(a_i) U reproduces the complex basis up to the compact/boost
    involution: exactly +1 on the nine compact generators and -1 on the six
    boosts (which is why the two bases still share one structure tensor)."""
    u = u_sostar6()
    u_inv = u.inverse()
    boosts = {9, 10, 11, 12, 13, 14}
    for idx, (aq, ac) in enumerate(zip(so6_quat.generators,
                                       so6_complex.generators), start=1):
        conj = u_inv @ aq.embed() @ u
        expected = -ac if idx in boosts else ac
        assert (conj - expected).is_zero()


def test_u_conjugation_preserves_span(so6_quat, so6_complex):
    """The U-conjugated embedded quaternionic generators and the complex
    basis span the same 15-dimensional real space (exact rank of the stacked
    coordinate matrix stays 15)."""
    u = u_sostar6()
    u_inv = u.inverse()

    def coords(m):
        out = []
        for row in m.entries:
            for e in row:
                out.extend((e.re, e.im))
        return out

    rows = [coords(u_inv @ g.embed() @ u) for g in so6_quat.generators]
    rows += [coords(g) for g in so6_complex.generators]
    assert linalg.rank(rows) == 15


def test_real_generators_of_su31(su31):
    real_labels = [lab for lab, g in zip(su31.labels, su31.generators)
                   if all(e.im.is_zero() for row in g.entries for e in row)]
    assert real_labels == ["s2", "s5", "s7", "s9", "s11", "s13"]


def test_unconjugated_corner_flips_33_of_87_constants(su31, su31_unconjugated):
    """The module docstring's claim: without the corner conjugation, 33 of the
    87 nonzero structure constants flip sign and no other constant changes."""
    def constants(basis):
        return {(i, j, k): v for (i, j), row in
                basis.structure_constants().table.items() for k, v in row.items()}

    conj, plain = constants(su31), constants(su31_unconjugated)
    assert len(conj) == 87
    assert plain.keys() == conj.keys()
    flipped = [key for key in conj if plain[key] == -conj[key]]
    assert len(flipped) == 33
    assert [key for key in conj
            if key not in flipped and plain[key] != conj[key]] == []
