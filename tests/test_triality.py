from fractions import Fraction

from sostar import triality
from sostar.clifford import PAIRS
from sostar.hmatrix import CMatrix
from sostar.liealg import StructureTensor, structure_constants
from sostar.scalars import ExactComplex, ExactScalar
from sostar.triality import (B_FAMILIES, B_PRIME, ROW_SIGNS, SpinRep,
                             apply_triality, g_matrix, h_matrix, triality_map,
                             triality_setup, verify_triality)


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
    p = triality_map(triality_setup())
    vector = apply_triality(p, left)
    assert vector.name == "V"
    second = apply_triality(p, vector)
    assert second.name == "R"
    assert apply_triality(p, second).name == "L"
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


def test_a_wrong_transposed_entry_fails_the_plane_check(monkeypatch, verify_suite):
    """The plane line compares each V_ij as a whole: with only the (3, 0)
    entry of V_03 flipped from -1 to 1, it FAILs, as do the form, both later
    steps of the cycle and the tensor line, which that entry also enters."""
    original = triality.apply_triality

    def wrong_transposed_entry(p, rep):
        out = original(p, rep)
        if out.name == "V":
            v03 = out.generators[(0, 3)]
            assert v03.entries[3][0] == ExactComplex(-1)
            out = SpinRep("V", {**out.generators,
                                (0, 3): v03 + CMatrix.sparse(8, {(3, 0): 2})})
        return out

    monkeypatch.setattr(triality, "apply_triality", wrong_transposed_entry)
    code, out, report = verify_suite("triality")
    failed = ["vector basis satisfies I26 (-V^T) I26 = V",
              "each V_ij acts in its own plane with the catalogued sign",
              "second application lands exactly on the right-handed basis",
              "third application is the exact identity",
              "L, V, R share one structure tensor (exact)"]
    assert report.failures() == failed
    assert code == 1
    assert all(f"FAILED: {d}" in out for d in failed)


def test_verify_triality_builds_the_map_once(monkeypatch, spin):
    built = []
    original = triality.triality_map
    monkeypatch.setattr(triality, "triality_map",
                        lambda quartets: built.append(quartets) or original(quartets))
    assert verify_triality(spin).failures() == []
    assert len(built) == 1


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


def _vector_tensor_and_map(left):
    p = triality_map(triality_setup())
    vector = apply_triality(p, left)
    return vector.as_lie_basis().structure_constants(), p


def test_triality_map_mixes_each_quartet_by_its_signed_transition_matrix():
    p = triality_map(triality_setup())
    d = CMatrix.diag(ROW_SIGNS)
    index = {pos: n for n, pos in enumerate(PAIRS)}
    groups = [(h_matrix(), B_PRIME)] + [
        (g_matrix(), [row[c] for row in B_FAMILIES]) for c in range(6)]
    for m, positions in groups:
        idx = [index[pos] for pos in positions]
        assert [[p.entries[i][a] for a in idx] for i in idx] == [
            list(row) for row in (d @ m @ d).entries]
    # H and G have no zero entry, so the seven blocks hold every nonzero
    assert sum(1 for row in p.entries for c in row if c) == 7 * 16
    assert p @ p @ p == CMatrix.identity(len(PAIRS))


def test_triality_map_preserves_the_vector_tensor(spin_reps):
    t_vec, p = _vector_tensor_and_map(spin_reps[0])
    assert t_vec.preserved_by(p)


def test_left_and_right_expanded_have_the_vector_tensor(spin_reps):
    """The shared tensor by direct expansion of all three bases, the proof
    that `verify_triality` replaces with `preserved_by`."""
    left, right = spin_reps
    t_vec, _ = _vector_tensor_and_map(left)
    for rep in (left, right):
        assert structure_constants(rep.as_lie_basis()) == t_vec


def _changed_map(p, change):
    """p with its integer form's rows passed through `change`."""
    den, rows, rational = p._ints
    return CMatrix._from_form(p.rows, p.cols, (den, change(rows), rational))


def test_a_negated_coefficient_of_the_map_breaks_preservation(spin_reps):
    t_vec, p = _vector_tensor_and_map(spin_reps[0])
    rows = p._ints[1]
    i = min(rows)
    a = min(rows[i])
    negated = _changed_map(p, lambda rs: {**rs, i: {**rs[i], a: tuple(
        -z for z in rs[i][a])}})
    assert not t_vec.preserved_by(negated)


def test_a_doubled_row_of_the_map_breaks_preservation(spin_reps):
    t_vec, p = _vector_tensor_and_map(spin_reps[0])
    i = min(p._ints[1])
    doubled = _changed_map(p, lambda rs: {**rs, i: {a: tuple(2 * z for z in t)
                                                    for a, t in rs[i].items()}})
    assert not t_vec.preserved_by(doubled)


def test_a_changed_structure_constant_breaks_preservation(spin_reps):
    t_vec, p = _vector_tensor_and_map(spin_reps[0])
    den, rows = t_vec._form
    pair = min(rows)
    k = min(rows[pair])
    a, b, c, d = rows[pair][k]
    changed = StructureTensor._from_form(
        t_vec.dim, (den, {**rows, pair: {**rows[pair], k: (2 * a, b, c, d)}}))
    assert changed != t_vec
    assert not changed.preserved_by(p)


def test_a_negated_right_generator_fails_the_cycle_and_the_tensor(
        monkeypatch, verify_suite, spin_reps):
    """The tensor line rests on the cycle: with one generator of R negated,
    P still preserves V's tensor, but P(V) = R fails, and so does the
    shared tensor (R's own tensor has that generator's signs flipped)."""
    left, right = spin_reps
    changed = SpinRep("R", {**right.generators,
                            (0, 1): -right.generators[(0, 1)]})
    monkeypatch.setattr(triality, "transformed_spin_reps",
                        lambda spin=None: (left, changed))
    code, _, report = verify_suite("triality")
    assert report.failures() == [
        "second application lands exactly on the right-handed basis",
        "L, V, R share one structure tensor (exact)"]
    assert code == 1
    assert structure_constants(changed.as_lie_basis()) != structure_constants(
        left.as_lie_basis())
