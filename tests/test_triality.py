from fractions import Fraction

from sostar import triality
from sostar.clifford import PAIRS
from sostar.hmatrix import CMatrix
from sostar.scalars import ExactComplex, ExactScalar
from sostar.triality import (B_FAMILIES, B_PRIME, ROW_SIGNS, apply_triality,
                             g_matrix, h_matrix, triality_setup,
                             verify_triality)


def test_quartet_partition_covers_all_planes():
    listed = set(B_PRIME)
    for row in B_FAMILIES:
        listed |= set(row)
    assert listed == set(PAIRS)
    assert len(B_PRIME) + sum(len(r) for r in B_FAMILIES) == 28


def test_h_entries():
    h = Fraction(1, 2)
    expected = [[-h, -h, h, h], [h, h, h, h], [-h, h, h, -h], [-h, h, -h, h]]
    assert h_matrix() == CMatrix([[ExactComplex(ExactScalar(v)) for v in row]
                                  for row in expected])


def test_g_entries():
    g = g_matrix()
    h = ExactScalar(Fraction(1, 2))
    assert g.entries[0][0] == ExactComplex(-h)
    assert g.entries[0][2] == ExactComplex(ExactScalar(0), h)
    assert g.entries[0][3] == ExactComplex(ExactScalar(0), -h)
    assert g.entries[2][0] == ExactComplex(ExactScalar(0), h)
    assert g.entries[3][3] == ExactComplex(h)


def test_triality_names_the_cycle_and_its_tensor_obeys_jacobi(spin_reps):
    left, _ = spin_reps
    quartets = triality_setup()
    vector = apply_triality(quartets, left)
    assert vector.name == "V"
    second = apply_triality(quartets, vector)
    assert second.name == "R"
    assert apply_triality(quartets, second).name == "L"
    assert left.as_lie_basis().structure_constants().jacobi_holds()


def test_row_sign_convention_recorded():
    quartets = triality_setup()
    assert quartets.row_signs == ROW_SIGNS == (1, -1, -1, -1)


def test_full_suite(spin):
    assert verify_triality(spin).failures() == []


def test_flipped_vector_sign_fails_only_the_plane_check(monkeypatch,
                                                        verify_suite):
    monkeypatch.setitem(triality.VECTOR_SIGNS, (0, 3), 1)
    code, out, report = verify_suite("triality")
    failed = ["each V_ij acts in its own plane with the catalogued sign"]
    assert report.failures() == failed
    assert code == 1
    assert f"FAILED: {failed[0]}" in out


def test_wrong_row_signs_break_the_cycle(monkeypatch, verify_suite):
    monkeypatch.setattr(triality, "ROW_SIGNS", (1, 1, -1, -1))
    code, out, report = verify_suite("triality")
    failed = ["vector basis is manifestly real",
              "each V_ij acts in its own plane with the catalogued sign",
              "second application lands exactly on the right-handed basis",
              "L, V, R share one structure tensor (exact)"]
    assert report.failures() == failed
    assert code == 1
    assert all(f"FAILED: {d}" in out for d in failed)
