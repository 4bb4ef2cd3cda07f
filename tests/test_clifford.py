import dataclasses
from fractions import Fraction

import pytest

from sostar import clifford
from sostar.clifford import (PAIRS, SIGN_FLIPS, check_sostar8_structure,
                             cl7_basis, cl26_basis, sostar8_generic,
                             theta_to_a, verify_sostar8)
from sostar.hmatrix import CMatrix, is_sostar_algebra
from sostar.scalars import ExactComplex, ExactScalar


def test_cl7_shapes_and_relations():
    basis = cl7_basis()
    assert len(basis.generators) == 7
    assert all(g.rows == g.cols == 8 for g in basis.generators)
    basis.validate()  # raises on any broken relation
    g = basis.generators
    ident = CMatrix.identity(8)
    assert (g[0] @ g[0]) == ident
    assert (g[1] @ g[2] + g[2] @ g[1]).is_zero()


def test_cl26_relations_and_signature():
    basis = cl26_basis()
    assert basis.metric == [1, 1, -1, -1, -1, -1, -1, -1]
    basis.validate()
    gam = basis.generators
    ident = CMatrix.identity(16)
    assert gam[0] @ gam[0] == ident
    assert (gam[3] @ gam[3] + ident).is_zero()
    assert (gam[0] @ gam[5] + gam[5] @ gam[0]).is_zero()


def test_spin_generator_count_and_blocks(spin):
    assert len(spin.S) == 28
    assert set(spin.S) == set(PAIRS)
    for m in spin.L.values():
        assert m.rows == m.cols == 8
    # block diagonality is enforced at construction; spot-check S_03 blocks
    s03 = spin.S[(0, 3)]
    assert all(s03.entries[r][c].is_zero() for r in range(8) for c in range(8, 16))


def test_sign_flips_applied(spin):
    """S_12 is the negative of Gamma_1 Gamma_2 / 2."""
    gam = cl26_basis().generators
    half = ExactComplex(ExactScalar(Fraction(1, 2)))
    raw = (gam[1] @ gam[2]).scale(half)
    assert (spin.S[(1, 2)] + raw).is_zero()
    assert (1, 2) in SIGN_FLIPS
    # an unflipped generator matches the raw product
    raw03 = (gam[0] @ gam[3]).scale(half)
    assert (spin.S[(0, 3)] - raw03).is_zero()


def test_structure_checks_both_reps(spin):
    """The structure checks exist for the two chiral blocks L and R only
    (the sostar8 suite runs both)."""
    with pytest.raises(ValueError):
        check_sostar8_structure("V", spin)


def test_generic_element_membership():
    probe = sostar8_generic([Fraction(k * k - 5, 3) for k in range(28)])
    assert probe.rows == probe.cols == 4
    assert is_sostar_algebra(probe)


def test_dictionary_spec_examples():
    zero = ExactScalar(0)
    one = ExactScalar(1)
    # plane (0,1) populates the four diagonal j-coefficients
    a = theta_to_a({(0, 1): 1})
    expected_nonzero = {1: one, 14: one, 23: one, 28: one}
    for idx in range(1, 29):
        assert a[idx - 1] == expected_nonzero.get(idx, zero)
    # plane (4,6) populates a_2 = 1 and a_24 = -1
    a = theta_to_a({(4, 6): 1})
    for idx in range(1, 29):
        if idx == 2:
            assert a[idx - 1] == one
        elif idx == 24:
            assert a[idx - 1] == -one
        else:
            assert a[idx - 1] == zero
    # zero in, zero out
    assert all(v.is_zero() for v in theta_to_a({}))


def test_dictionary_identity_linear_combination(spin):
    theta = {(0, 1): Fraction(2), (4, 6): Fraction(-1, 2), (2, 7): Fraction(1, 3)}
    lhs = sostar8_generic(theta_to_a(theta)).embed()
    acc = None
    for pair, coeff in theta.items():
        term = spin.L[pair].scale(ExactComplex(ExactScalar(coeff)))
        acc = term if acc is None else acc + term
    assert (lhs - acc).is_zero()


def test_dictionary_rejects_bad_plane():
    with pytest.raises(ValueError):
        theta_to_a({(3, 3): 1})
    with pytest.raises(ValueError):
        theta_to_a({(5, 2): 1})


def test_generic_element_requires_28_parameters():
    with pytest.raises(ValueError):
        sostar8_generic([0] * 27)


def test_full_suite_passes(spin):
    assert verify_sostar8(spin).failures() == []


def test_misplaced_sign_flip_fails_the_dictionary_checks(monkeypatch,
                                                         verify_suite):
    # the flip on plane (4, 7) moved to plane (3, 7): six flips are still
    # applied as recorded, so only the dictionary checks can see the mutant
    monkeypatch.setattr(clifford, "SIGN_FLIPS", SIGN_FLIPS[:5] + [(3, 7)])
    code, out, report = verify_suite("sostar8")
    failed = ["dictionary identity at plane (3, 7)",
              "dictionary identity at plane (4, 7)",
              "dictionary identity embed(A(a(theta))) = sum theta L (28 planes)"]
    assert report.failures() == failed
    assert code == 1
    assert all(f"FAILED: {d}" in out for d in failed)


def test_flipped_dictionary_sign_fails_the_identity_and_the_bijection(
        monkeypatch, verify_suite):
    # a3 = theta_03 + theta_12 duplicates row a25, so plane (1, 2) no longer
    # matches L_12 and the dictionary loses a rank
    monkeypatch.setitem(clifford._DICTIONARY, 3, [(1, (0, 3)), (1, (1, 2))])
    code, out, report = verify_suite("sostar8")
    failed = ["dictionary identity at plane (1, 2)",
              "dictionary identity embed(A(a(theta))) = sum theta L (28 planes)",
              "dictionary is a rank-28 bijection"]
    assert report.failures() == failed
    assert code == 1
    assert all(f"FAILED: {d}" in out for d in failed)


def test_seventh_sign_flip_fails_the_flip_count(monkeypatch, verify_suite):
    # a seventh flip, on plane (3, 7): the flips are read off the generators,
    # so the recorded list no longer vouches for itself
    monkeypatch.setattr(clifford, "SIGN_FLIPS", SIGN_FLIPS + [(3, 7)])
    code, out, report = verify_suite("sostar8")
    failed = ["six conventional sign flips recorded",
              "dictionary identity at plane (3, 7)",
              "dictionary identity embed(A(a(theta))) = sum theta L (28 planes)"]
    assert report.failures() == failed
    assert dict(report.witnesses)["FAILED: " + failed[0]] == {
        "applied": SIGN_FLIPS[:5] + [(3, 7), (4, 7)],
        "recorded": SIGN_FLIPS + [(3, 7)]}
    assert code == 1
    assert all(f"FAILED: {d}" in out for d in failed)


def test_flip_recorded_but_not_applied_fails(spin):
    misrecorded = dataclasses.replace(spin, sign_flips=SIGN_FLIPS[:5] + [(3, 7)])
    assert verify_sostar8(misrecorded).failures() == [
        "six conventional sign flips recorded"]


def test_off_diagonal_spin_generator_fails_the_block_check(spin):
    # Gamma_0 itself is block anti-diagonal; L and R stay as they were
    s = dict(spin.S)
    s[(0, 1)] = cl26_basis().generators[0]
    report = verify_sostar8(dataclasses.replace(spin, S=s))
    assert report.failures() == ["28 spin generators, block diagonal"]
    assert dict(report.witnesses)[
        "FAILED: 28 spin generators, block diagonal"] == {
            "generators": 28, "off_diagonal": [(0, 1)]}
    short = {pair: m for pair, m in spin.S.items() if pair != (6, 7)}
    assert verify_sostar8(dataclasses.replace(spin, S=short)).failures() == [
        "28 spin generators, block diagonal"]
