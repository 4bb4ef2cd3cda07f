import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sostar.bases import generic_basis, SL_H, SO_STAR, SP_STAR
from sostar import hmatrix, liealg, linalg, scalars
from sostar.hmatrix import CMatrix, HMatrix, max_abs_diff
from sostar.liealg import (COMPLEX_EXACT, LieBasis, StructureTensor,
                           _killing_matrix, _slots, bracket,
                           commutant_dimension,
                           compact_generator_count, killing, matrix_exp,
                           structure_constants)
from sostar.quaternion import Q_J, Quaternion
from sostar.scalars import ExactComplex, ExactScalar


def test_bracket_examples(a_basis, s_basis):
    a = a_basis.generators
    s = s_basis.generators
    # the su(2)-like and sl(2,R)-like halves commute
    assert bracket(a[0], a[3]).is_zero()
    assert bracket(s[0], s[3]).is_zero()
    # [A_1, A_2] = c A_3 with c = 1 (value recorded from the exact solve)
    assert bracket(a[0], a[1]) == a[2]
    t = a_basis.structure_constants()
    assert t.get(0, 1, 2) == ExactScalar(1)
    assert all(t.get(0, 1, k).is_zero() for k in range(6) if k != 2)


def test_structure_tensor_antisymmetry(a_basis):
    t = a_basis.structure_constants()
    for i in range(6):
        for j in range(6):
            for k in range(6):
                assert t.get(i, j, k) == -t.get(j, i, k)


def test_jacobi_identity_holds(a_basis, su31):
    assert a_basis.structure_constants().jacobi_holds()
    assert su31.structure_constants().jacobi_holds()


def test_closure_error_for_non_closed_span():
    # a single off-diagonal nilpotent plus nothing else is not closed with
    # its transpose partner's bracket outside the span
    e12 = HMatrix([[Quaternion(0), Quaternion(1)], [Quaternion(0), Quaternion(0)]])
    e21 = e12.transpose()
    basis = LieBasis("open_span", "quaternionic", [e12, e21])
    with pytest.raises(ValueError, match="not closed"):
        structure_constants(basis)


def test_dense_irrational_basis_closes_and_its_truncation_does_not(
        dense_recombination):
    # positive and negative control for the sparse kernels on dense data
    gens = dense_recombination(generic_basis(SO_STAR, 2).generators)
    full = LieBasis("mixed", "quaternionic", gens)
    assert full.structure_constants().jacobi_holds()
    assert full.killing().signature == (4, 2, 0)
    open_span = LieBasis("open", "quaternionic", gens[:-1])
    for basis in (open_span, open_span.embedded()):
        with pytest.raises(ValueError, match="not closed"):
            structure_constants(basis)


def _perfbench_workloads():
    """The benchmark's workload module, which holds the dense_mixed generator."""
    import importlib.util
    from pathlib import Path
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _dense_system(gens):
    """The structure-constant system on the dense coordinates: one column per
    generator and one target per bracket [g_i, g_j], i < j."""
    pairs = [(i, j) for i in range(len(gens)) for j in range(i + 1, len(gens))]
    return pairs, [g.coords() for g in gens], [bracket(gens[i], gens[j]).coords()
                                               for i, j in pairs]


def test_structure_constants_match_solve_batch_on_a_dense_mixed_basis():
    rng = random.Random("dense_mixed/7")
    gens = _perfbench_workloads().dense_generators(rng, 3, 2)
    pairs, columns, targets = _dense_system(gens)
    assert any(not v.is_rational() for t in targets for v in t)
    table = {}
    for pair, coeffs in zip(pairs, linalg.solve_batch(columns, targets)):
        row = {k: v for k, v in enumerate(coeffs) if not v.is_zero()}
        if row:
            table[pair] = row
    basis = LieBasis("dense", "quaternionic", gens)
    assert structure_constants(basis) == StructureTensor(len(gens), table)


def test_structure_constants_split_each_irrational_generator_once(monkeypatch):
    # each generator enters 2(n - 1) bracket products of the expansion; its
    # blocks are kept on the matrix from the first one on.  The dense basis
    # itself takes the carry: its echelon basis is rational, so nothing of
    # it is split at all.
    gens = _perfbench_workloads().dense_generators(random.Random("dense_mixed/31"), 3, 2)
    split = []
    original = hmatrix._blocks

    def counting_blocks(rows, rational, k):
        split.append(rows)
        return original(rows, rational, k)

    monkeypatch.setattr(hmatrix, "_blocks", counting_blocks)
    structure_constants(LieBasis("dense", "quaternionic", gens))
    assert split == []
    liealg._expand("dense", gens)
    irrational = [g for g in gens if not g._ints[2]]
    assert len(irrational) > len(gens) // 2
    for g in irrational:
        assert sum(rows is g._ints[1] for rows in split) == 1


def test_closure_error_names_the_row_that_solve_batch_names(dense_recombination):
    # the rows reach the elimination in coordinate order, as the dense
    # coordinates do, so both name the same target and row
    gens = dense_recombination(generic_basis(SO_STAR, 2).generators)[:-1]
    _, columns, targets = _dense_system(gens)
    with pytest.raises(ValueError) as dense:
        linalg.solve_batch(columns, targets)
    with pytest.raises(ValueError, match="not closed") as sparse:
        structure_constants(LieBasis("open", "quaternionic", gens))
    where = re.compile(r"target (\d+) leaves .* in row (\d+)$")
    assert where.search(str(sparse.value)).groups() == \
        where.search(str(dense.value)).groups()


@pytest.mark.parametrize("realization", ["quaternionic", "complex-exact"])
def test_structure_constants_build_no_bracket_element(realization, monkeypatch,
                                                       dense_sostar6_basis):
    basis = dense_sostar6_basis
    if realization == COMPLEX_EXACT:
        basis = basis.embedded()
    basis = LieBasis("fresh", realization, basis.generators)  # no cached tensor
    built = []
    for entry_type in (Quaternion, ExactComplex):
        original = entry_type.__init__

        def counting_init(self, *args, _original=original):
            built.append(type(self))
            _original(self, *args)

        monkeypatch.setattr(entry_type, "__init__", counting_init)
    # an element read from a form or made by an operation is built by `_new`
    original_new = scalars._new

    def counting_new(cls, *args):
        if cls is not ExactScalar:
            built.append(cls)
        return original_new(cls, *args)

    monkeypatch.setattr(scalars, "_new", counting_new)
    Quaternion(1)
    ExactComplex(1)
    HMatrix([[Q_J]]).entries
    assert built == [Quaternion, ExactComplex, Quaternion]  # the counter sees elements
    built.clear()
    assert basis.structure_constants().table
    assert built == []


# -- the structure tensor on its integer form, against element-built tables

def _solve_batch_table(basis):
    """{(i, j): {k: ExactScalar}} for i < j from `linalg.solve_batch` on the
    coordinates of the generators and brackets, built element by element."""
    pairs, columns, targets = _dense_system(basis.generators)
    table = {}
    for pair, coeffs in zip(pairs, linalg.solve_batch(columns, targets)):
        row = {k: v for k, v in enumerate(coeffs) if not v.is_zero()}
        if row:
            table[pair] = row
    return table


_TENSOR_BASES = pytest.mark.parametrize("name", [
    "dense_sostar6", "sostar6", "spstar11", "slH2"])


def _tensor_basis(name, dense_sostar6_basis):
    if name == "dense_sostar6":
        return LieBasis("fresh", "quaternionic", dense_sostar6_basis.generators)
    return {"sostar6": lambda: generic_basis(SO_STAR, 3),
            "spstar11": lambda: generic_basis(SP_STAR, 2, 1, 1),
            "slH2": lambda: generic_basis(SL_H, 2)}[name]()


@_TENSOR_BASES
def test_tensor_reads_match_an_element_built_reference(name, dense_sostar6_basis):
    basis = _tensor_basis(name, dense_sostar6_basis)
    want = _solve_batch_table(basis)
    tensor = structure_constants(basis)
    assert tensor.table == want
    zero = ExactScalar(0)
    for i in range(tensor.dim):
        for j in range(tensor.dim):
            if i < j:
                row = want.get((i, j), {})
            else:
                row = {k: -v for k, v in want.get((j, i), {}).items() if i != j}
            assert tensor.row(i, j) == row
            assert [tensor.get(i, j, k) for k in range(tensor.dim)] == [
                row.get(k, zero) for k in range(tensor.dim)]
    assert tensor.to_triplets() == [[i, j, k, want[i, j][k].to_json()]
                                    for i, j in sorted(want)
                                    for k in sorted(want[i, j])]


@_TENSOR_BASES
def test_tensor_from_its_table_has_the_identical_form(name, dense_sostar6_basis):
    basis = _tensor_basis(name, dense_sostar6_basis)
    table = _solve_batch_table(basis)
    tensor = structure_constants(basis)
    rebuilt = StructureTensor(tensor.dim, table)
    assert rebuilt == tensor
    assert rebuilt._form == tensor._form
    # the one denominator is the lcm of the reduced coefficient denominators
    assert tensor._form[0] == math.lcm(*(v._den for row in table.values()
                                         for v in row.values()))


def test_tensor_drops_zero_coefficients_and_empty_rows():
    one, zero = ExactScalar(1), ExactScalar(0)
    tensor = StructureTensor(3, {(0, 1): {2: one, 0: zero}, (0, 2): {1: zero}})
    assert tensor == StructureTensor(3, {(0, 1): {2: one}})
    assert tensor._form == (1, {(0, 1): {2: (1, 0, 0, 0)}})
    assert StructureTensor(3, {(0, 2): {1: zero}}) == StructureTensor(3)


@pytest.mark.parametrize("realization", ["quaternionic", "complex-exact"])
def test_structure_constants_build_no_exact_scalar(realization, monkeypatch,
                                                   dense_sostar6_basis):
    basis = dense_sostar6_basis
    if realization == COMPLEX_EXACT:
        basis = basis.embedded()
    basis = LieBasis("fresh", realization, basis.generators)  # no cached tensor
    built = []
    # `_from_ints`, the scalar product and the value semantics shared with C
    # and H build through `_new`, the constructor through `__init__`
    original_new = scalars._new
    original_init = ExactScalar.__init__

    def counting_new(cls, *args):
        if cls is ExactScalar:
            built.append(args)
        return original_new(cls, *args)

    def counting_init(self, *args):
        built.append(args)
        original_init(self, *args)

    monkeypatch.setattr(scalars, "_new", counting_new)
    monkeypatch.setattr(ExactScalar, "__init__", counting_init)
    half = scalars._from_ints(1, 0, 0, 0, 2)
    half * half  # the rational fast path of the product
    ExactScalar(1)
    -ExactScalar.sqrt2()
    assert len(built) == 5  # the counter sees each way to build one
    built.clear()
    structure_constants(basis)
    assert built == []


def test_killing_matrix_reads_the_form_without_int_coords(dense_sostar6,
                                                          monkeypatch):
    want = _killing_matrix(dense_sostar6)

    def over_lcm(elements):
        raise AssertionError("the rescale _over_lcm was called")

    monkeypatch.setattr(liealg, "_over_lcm", over_lcm)
    assert _killing_matrix(dense_sostar6) == want


@pytest.mark.parametrize("seed", [7, 31])
def test_killing_of_the_dense_mixed_bases_inverts_only_rational_pivots(
        seed, monkeypatch):
    workloads = _perfbench_workloads()
    bases = [LieBasis("dense", "quaternionic", gens)
             for _, gens in workloads.DenseMixed(seed, None).prepare()]
    for basis in bases:
        basis.structure_constants()
    inverted = []
    original = ExactScalar.inverse
    monkeypatch.setattr(ExactScalar, "inverse",
                        lambda self: inverted.append(self) or original(self))
    for basis in bases:
        b = killing(basis)
        assert any(not x.is_rational() for row in b.matrix for x in row)
        n = (1 + math.isqrt(1 + 8 * basis.dim)) // 4  # dim so*(2n) = n(2n - 1)
        assert workloads.check_dense(n, (basis.dim, b.signature))
    assert inverted and all(x.is_rational() for x in inverted)


def test_jacobi_fails_for_a_changed_coefficient(su31):
    # negative control for the integer Jacobi sums
    f = su31.structure_constants()
    table = f.table
    key = min(table)
    k = min(table[key])
    table[key][k] = table[key][k] * ExactScalar(1, 1)
    assert f.jacobi_holds()
    assert not StructureTensor(f.dim, table).jacobi_holds()


def _mapped_tensor(basis, p):
    """The structure tensor of g'_i = sum_a p_ia g_a for a real map p,
    expanded from the mapped generators."""
    gens = [sum((g.scale(c.re) for c, g in zip(row, basis.generators) if c),
                basis.generators[0].scale(0)) for row in p.entries]
    return structure_constants(LieBasis("mapped", basis.realization, gens))


def test_a_rotation_over_sqrt3_preserves_the_sp1_tensor_and_a_reflection_not():
    basis = generic_basis(SP_STAR, 1, 0, 1)  # i, j, k: su(2)
    tensor = basis.structure_constants()
    cos, sin = ExactScalar(0, 0, Fraction(1, 2)), Fraction(1, 2)  # 30 degrees
    rotation = CMatrix([[cos, sin, 0], [-sin, cos, 0], [0, 0, 1]])
    reflection = CMatrix.diag([1, 1, -1])
    assert not rotation._ints[2]  # the coefficients lie in Q(sqrt3)
    assert tensor.preserved_by(rotation)
    assert _mapped_tensor(basis, rotation) == tensor
    assert not tensor.preserved_by(reflection)
    assert _mapped_tensor(basis, reflection) != tensor


def test_preservation_of_an_irrational_tensor(dense_sostar6_basis):
    tensor = dense_sostar6_basis.structure_constants()
    identity = CMatrix.identity(tensor.dim)
    assert tensor.preserved_by(identity)
    assert not tensor.preserved_by(-identity)  # [-a, -b] = [a, b]


def test_preservation_rejects_a_map_of_the_wrong_shape(a_basis):
    tensor = a_basis.structure_constants()
    for shape in ((5, 5), (6, 5), (7, 6)):
        with pytest.raises(ValueError):
            tensor.preserved_by(CMatrix.zeros(*shape))


def test_killing_data_is_computed_once_per_basis(monkeypatch):
    calls = []
    original = liealg.killing
    monkeypatch.setattr(liealg, "killing",
                        lambda basis: calls.append(basis) or original(basis))
    basis = generic_basis(SO_STAR, 2)
    assert basis.killing() is basis.killing()
    assert compact_generator_count(basis) == 4
    assert basis.to_json()["killing_signature"] == [4, 2, 0]
    assert calls == [basis]
    # nothing is shared between basis objects, even with equal generators
    twin = generic_basis(SO_STAR, 2)
    assert twin.killing().signature == basis.killing().signature
    assert calls == [basis, twin]


# -- the Killing matrix on integer coordinates against a dense ExactScalar
# reference, with a negative control and a work-count guard

# coprime denominators: a common denominator other than their lcm, or a
# division by D in place of D^2, changes some entry
_DENOMINATORS = (3, 7, 2 ** 5)


def reference_killing(tensor):
    """Tr(ad_i ad_j) from dense ExactScalar ad matrices, (ad_i)[l][k] =
    f[i, k, l], built one coefficient at a time with `StructureTensor.get`."""
    n = tensor.dim
    ad = [[[tensor.get(i, k, l) for k in range(n)] for l in range(n)]
          for i in range(n)]
    zero = ExactScalar(0)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = zero
            for l in range(n):
                for k in range(n):
                    acc = acc + ad[i][l][k] * ad[j][k][l]
            row.append(acc)
        out.append(row)
    return out


def first_difference(got, wanted):
    """The first (i, j, got, wanted) where two square matrices differ."""
    for i, (g_row, w_row) in enumerate(zip(got, wanted)):
        for j, (g, w) in enumerate(zip(g_row, w_row)):
            if g != w:
                return i, j, g, w
    return None


def random_tensor(seed, n=6, fill=0.5):
    """An antisymmetric tensor (not a Lie algebra) whose coefficients use all
    four coordinates over the denominators 3, 7 and 32."""
    rng = random.Random(seed)
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            row = {}
            for k in range(n):
                v = ExactScalar(*(
                    Fraction(rng.randint(-9, 9), rng.choice(_DENOMINATORS))
                    for _ in range(4)))
                if rng.random() < fill and not v.is_zero():
                    row[k] = v
            if row:
                table[(i, j)] = row
    return StructureTensor(n, table)


@pytest.fixture(scope="module")
def dense_sostar6(dense_sostar6_basis):
    return dense_sostar6_basis.structure_constants()


@pytest.fixture(scope="module")
def dense_sostar6_reference(dense_sostar6):
    return reference_killing(dense_sostar6)


def assert_matches_reference(tensor, wanted=None):
    got = _killing_matrix(tensor)
    wanted = reference_killing(tensor) if wanted is None else wanted
    assert [len(row) for row in got] == [tensor.dim] * tensor.dim
    assert first_difference(got, wanted) is None


@pytest.mark.parametrize("seed", range(6))
def test_killing_matrix_matches_reference_on_random_tensors(seed):
    tensor = random_tensor(seed)
    denominators = {x.denominator for row in tensor.table.values()
                    for v in row.values() for x in (v.a, v.b, v.c, v.d)}
    assert set(_DENOMINATORS) <= denominators
    assert_matches_reference(tensor)


def test_killing_matrix_of_the_zero_tensor():
    tensor = generic_basis(SO_STAR, 1).structure_constants()
    assert tensor.table == {}
    assert_matches_reference(tensor)
    assert _killing_matrix(tensor) == ((ExactScalar(0),),)


def test_killing_matrix_matches_reference_on_dense_sostar6(
        dense_sostar6, dense_sostar6_reference):
    irrational = [v for row in dense_sostar6.table.values() for v in row.values()
                  if not v.is_rational()]
    assert irrational
    assert_matches_reference(dense_sostar6, dense_sostar6_reference)


@pytest.mark.parametrize("kind, n", [(SO_STAR, 2), (SL_H, 2)],
                         ids=["sostar4", "slH2"])
def test_killing_matrix_matches_reference_on_generic_bases(kind, n):
    assert_matches_reference(generic_basis(kind, n).structure_constants())


def test_changed_coefficient_changes_the_killing_matrix(
        dense_sostar6, dense_sostar6_reference):
    # negative control: one structure constant times (1 + sqrt2)
    wanted = dense_sostar6_reference
    table = {pair: dict(row) for pair, row in dense_sostar6.table.items()}
    pair = min(table)
    k = min(table[pair])
    table[pair][k] = table[pair][k] * ExactScalar(1, 1)
    got = _killing_matrix(StructureTensor(dense_sostar6.dim, table))
    witness = first_difference(got, wanted)
    assert witness is not None
    i, j, g, w = witness
    print(f"Killing matrix differs at ({i}, {j}): got {g!r}, wanted {w!r}")
    assert g != w


def test_killing_matrix_makes_no_exact_scalar_product(dense_sostar6,
                                                      monkeypatch):
    calls = []
    original = scalars.ExactScalar.__mul__

    def counting_mul(self, other):
        calls.append(None)
        return original(self, other)

    monkeypatch.setattr(scalars.ExactScalar, "__mul__", counting_mul)
    monkeypatch.setattr(scalars.ExactScalar, "__rmul__", counting_mul)
    ExactScalar(1, 1) * ExactScalar(0, 1)
    2 * ExactScalar(0, 1)
    assert len(calls) == 2  # the counter sees products on either side
    calls.clear()
    _killing_matrix(dense_sostar6)
    assert calls == []


# -- packing bounds: large numerators, the empty tensor and the slot decoder ---

def _wide_tensor(seed, n=5, bits=200, fill=0.7):
    """An antisymmetric tensor whose coordinates have `bits`-bit numerators
    over the denominators 3, 7 and 32."""
    rng = random.Random(seed)
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            row = {k: ExactScalar(*(
                Fraction(rng.choice((-1, 1)) * (rng.getrandbits(bits) | 1 << (bits - 1)),
                         rng.choice(_DENOMINATORS)) for _ in range(4)))
                for k in range(n) if rng.random() < fill}
            if row:
                table[(i, j)] = row
    return StructureTensor(n, table)


def _saturated_tensor(n=5, bits=200):
    """Every coefficient f[i, j, k] (i < j) is M (1 + sqrt2 + sqrt3 + sqrt6)
    with M = 2^bits - 1, so every product fills all nine slots."""
    m = (1 << bits) - 1
    v = ExactScalar(m, m, m, m)
    return StructureTensor(n, {(i, j): {k: v for k in range(n)}
                               for i in range(n) for j in range(i + 1, n)})


@pytest.mark.parametrize("seed", range(3))
def test_killing_matrix_matches_reference_with_200_bit_numerators(seed):
    tensor = _wide_tensor(seed)
    top = max(abs(x.numerator) for row in tensor.table.values()
              for v in row.values() for x in (v.a, v.b, v.c, v.d))
    assert top.bit_length() == 200
    assert_matches_reference(tensor)


def test_killing_matrix_matches_reference_on_a_saturated_tensor():
    assert_matches_reference(_saturated_tensor())


_coefficient = st.builds(ExactScalar, *(
    st.builds(Fraction, st.integers(-2 ** 70, 2 ** 70), st.sampled_from([1, 2, 3, 7, 32]))
    for _ in range(4))).filter(lambda v: not v.is_zero())


@st.composite
def _tensors(draw):
    n = draw(st.integers(1, 5))
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            row = draw(st.dictionaries(st.integers(0, n - 1), _coefficient,
                                       max_size=n))
            if row:
                table[(i, j)] = row
    return StructureTensor(n, table)


@settings(deadline=None)
@given(_tensors())
def test_killing_matrix_matches_reference_on_drawn_tensors(tensor):
    assert_matches_reference(tensor)


_SHIFT = 13
_EDGE = (1 << (_SHIFT - 1)) - 1  # the largest slot magnitude that fits


def _packed(slots):
    return sum(s << (_SHIFT * t) for t, s in enumerate(slots))


@pytest.mark.parametrize("sign", [1, -1], ids=["plus", "minus"])
@pytest.mark.parametrize("slot", range(9))
def test_slot_at_the_bound_round_trips(slot, sign):
    slots = [(-1) ** t * t for t in range(9)]
    slots[slot] = sign * _EDGE
    assert _slots(_packed(slots), _SHIFT) == slots
    edges = [(-1) ** (t + (sign < 0)) * _EDGE for t in range(9)]
    assert _slots(_packed(edges), _SHIFT) == edges


@pytest.mark.parametrize("sign", [1, -1], ids=["plus", "minus"])
@pytest.mark.parametrize("slot", range(9))
def test_slot_one_past_the_bound_raises(slot, sign):
    slots = [(-1) ** t * t for t in range(9)]
    slots[slot] = sign * (_EDGE + 1)
    with pytest.raises(OverflowError):
        _slots(_packed(slots), _SHIFT)


@pytest.mark.parametrize("sign", [1, -1], ids=["plus", "minus"])
def test_value_beyond_nine_slots_raises(sign):
    with pytest.raises(OverflowError, match="nine slots"):
        _slots(sign * (1 << (9 * _SHIFT)), _SHIFT)


# -- the Killing form against the trace form of the defining representation ---
#
# With e = embed, the 2n x 2n complex image of a quaternionic basis,
# B(X, Y) = c tr(e(X) e(Y)): so*(2n) lies in so(2n, C), c = 2n - 2;
# sp*(p, q) in sp(2(p + q), C), c = 2(p + q) + 2; sl(n, H) in sl(2n, C),
# c = 4n.  The trace form never forms a structure constant.

def trace_form_difference(basis, b, c):
    """The first (i, j, B_ij, c tr(e_i e_j)) where the Killing matrix b is
    not c times the trace form of the embedded generators, else None."""
    emb = [g.embed() for g in basis.generators]
    for i, x in enumerate(emb):
        for j in range(i, len(emb)):
            t = (x @ emb[j]).trace()
            if not t.im.is_zero() or b[i][j] != t.re * c:
                return i, j, b[i][j], t * c
    return None


def _dense_trace_form_basis(n, extra):
    rng = random.Random("dense_mixed/31")
    basis = LieBasis("dense", "quaternionic",
                     _perfbench_workloads().dense_generators(rng, n, extra))
    assert any(not v.is_rational()
               for row in basis.structure_constants().table.values()
               for v in row.values())
    return basis


@pytest.mark.parametrize("make_basis, c", [
    (lambda: generic_basis(SO_STAR, 2), 2),
    (lambda: generic_basis(SO_STAR, 3), 4),
    (lambda: generic_basis(SP_STAR, 2, 1, 1), 6),
    (lambda: generic_basis(SP_STAR, 3, 2, 1), 8),
    (lambda: generic_basis(SL_H, 2), 8),
    (lambda: _dense_trace_form_basis(3, 2), 4),
    (lambda: _dense_trace_form_basis(4, 1), 6)],
    ids=["sostar4", "sostar6", "spstar11", "spstar21", "slH2",
         "dense-sostar6", "dense-sostar8"])
def test_killing_matrix_is_a_multiple_of_the_trace_form(make_basis, c):
    basis = make_basis()
    b = _killing_matrix(basis.structure_constants())
    assert trace_form_difference(basis, b, c) is None


def test_changed_coefficient_breaks_the_trace_form_identity(dense_sostar6_basis,
                                                            dense_sostar6):
    # negative control: one structure constant times (1 + sqrt2)
    table = {pair: dict(row) for pair, row in dense_sostar6.table.items()}
    pair = min(table)
    k = min(table[pair])
    table[pair][k] = table[pair][k] * ExactScalar(1, 1)
    b = _killing_matrix(StructureTensor(dense_sostar6.dim, table))
    witness = trace_form_difference(dense_sostar6_basis, b, 4)
    assert witness is not None
    i, j, got, wanted = witness
    print(f"Killing matrix leaves 4 tr(e_i e_j) at ({i}, {j}): "
          f"got {got!r}, wanted {wanted!r}")
    assert ExactComplex(got) != wanted


def test_memoized_killing_matrix_is_read_only():
    basis = generic_basis(SO_STAR, 2)
    kd = basis.killing()
    with pytest.raises(TypeError):
        kd.matrix[0] = kd.matrix[1]
    with pytest.raises(TypeError):
        kd.matrix[0][0] = ExactScalar(1)
    assert basis.killing().matrix == killing(generic_basis(SO_STAR, 2)).matrix


def test_dependent_generators_rejected():
    g = HMatrix([[Q_J]])
    with pytest.raises(ValueError, match="dependent"):
        LieBasis("dup", "quaternionic", [g, g.scale(2)])


@pytest.mark.parametrize("realization, generators", [
    (liealg.QUATERNIONIC, [CMatrix([[ExactComplex(0, 1)]])]),
    (COMPLEX_EXACT, [HMatrix([[Q_J]])]),
    (liealg.QUATERNIONIC, [HMatrix([[Q_J]]), CMatrix([[ExactComplex(0, 1)]])]),
], ids=["cmatrix-as-quaternionic", "hmatrix-as-complex", "mixed"])
def test_generators_must_match_the_realization(realization, generators):
    with pytest.raises(TypeError):
        LieBasis("mismatch", realization, generators)


def test_basis_coordinates_are_the_matrix_coordinates(a_basis, s_basis):
    for basis in (a_basis, s_basis, a_basis.embedded()):
        for g in basis.generators:
            assert basis.coords(g) == g.coords()
            assert len(g.coords()) == g.rows * g.cols * (
                4 if isinstance(g, HMatrix) else 2)


def test_generic_dimensions():
    assert generic_basis(SO_STAR, 4).dim == 28
    assert generic_basis(SP_STAR, 2, 1, 1).dim == 10
    assert generic_basis(SL_H, 2).dim == 15


def test_killing_signatures():
    assert killing(generic_basis(SO_STAR, 3)).signature == (9, 6, 0)
    assert killing(generic_basis(SP_STAR, 2, 1, 1)).signature == (6, 4, 0)
    assert killing(generic_basis(SL_H, 2)).signature == (10, 5, 0)


def test_killing_raw_form_vanishes_for_abelian_circle():
    """so*(2) is one-dimensional abelian: its literal Killing form is zero;
    the classified signature marks the single direction compact via the
    defining trace form."""
    basis = generic_basis(SO_STAR, 1)
    kd = killing(basis)
    assert kd.raw_signature == (0, 0, 1)
    assert kd.matrix[0][0].is_zero()
    assert kd.signature == (1, 0, 0)
    assert kd.radical_classified == 1
    assert compact_generator_count(basis) == 1


@pytest.mark.parametrize("rows, rank", [
    ([[1, ExactScalar.sqrt2(), 0], [0, 1, ExactScalar(1, 0, 1)]], 2),
    ([[1, 2], [2, 4], [0, 0]], 1),
], ids=["wide", "tall"])
def test_nullspace_basis_of_a_rectangular_matrix(rows, rank):
    m = [[ExactScalar(1) * x for x in row] for row in rows]
    ncols = len(m[0])
    vecs = linalg.nullspace_basis(m)
    assert len(vecs) == ncols - rank
    for vec in vecs:
        assert len(vec) == ncols
        for row in m:
            assert sum((a * x for a, x in zip(row, vec)), ExactScalar(0)) == 0
    assert linalg.rank(vecs) == len(vecs)


def _unimodular(rng, n):
    """Random integer matrix of determinant +-1 built from shears and swaps."""
    m = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        if rng.random() < 0.2:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return m


def test_killing_signature_invariant_under_basis_change():
    rng = random.Random(23)
    base = generic_basis(SP_STAR, 2, 1, 1)
    ref = killing(base).signature
    for _ in range(3):
        t = _unimodular(rng, base.dim)
        gens = []
        for row in t:
            acc = None
            for coeff, g in zip(row, base.generators):
                if coeff == 0:
                    continue
                term = g.scale(coeff)
                acc = term if acc is None else acc + term
            gens.append(acc)
        transformed = LieBasis("sp11_t", "quaternionic", gens)
        assert killing(transformed).signature == ref


def test_structure_tensor_stores_no_zero_coefficient(a_basis, su31, so6_quat):
    # tensor equality is the dataclass comparison of (dim, table), which is
    # right only while a tensor has one table: no zero values, no empty rows
    for basis in (a_basis, su31, so6_quat, generic_basis(SP_STAR, 2, 1, 1)):
        table = basis.structure_constants().table
        assert table and all(table.values())
        assert not any(v.is_zero() for row in table.values() for v in row.values())


def test_tensors_differing_in_one_coefficient_are_unequal(su31, so6_quat):
    f = su31.structure_constants()
    assert f == so6_quat.structure_constants()
    key = min(f.table)
    k = min(f.table[key])
    changed = {**f.table, key: {**f.table[key], k: f.table[key][k] + 1}}
    assert StructureTensor(f.dim, changed) != f
    assert StructureTensor(f.dim, {p: r for p, r in f.table.items() if p != key}) != f
    assert StructureTensor(f.dim + 1, f.table) != f


def test_matrix_exp_identity():
    zero = CMatrix.zeros(3, 3).to_numpy()
    assert max_abs_diff(matrix_exp(zero), CMatrix.identity(3).to_numpy()) <= 1e-15


def test_matrix_exp_rotation():
    theta = math.pi / 3
    gen = HMatrix([[Q_J]]).embed().to_numpy() * theta
    rot = matrix_exp(gen)
    expected = [[math.cos(theta), -math.sin(theta)],
                [math.sin(theta), math.cos(theta)]]
    assert max_abs_diff(rot, expected) <= 1e-12


def test_matrix_exp_inverse_property():
    rng = random.Random(29)
    basis = generic_basis(SO_STAR, 2)
    tol = 1e-12
    for _ in range(5):
        elem = None
        for g in basis.generators:
            term = g.scale(Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3))))
            elem = term if elem is None else elem + term
        m = elem.embed().to_numpy()
        prod = matrix_exp(m, tol) @ matrix_exp(-m, tol)
        assert max_abs_diff(prod, CMatrix.identity(4).to_numpy()) <= 10 * tol


def test_matrix_exp_against_scipy():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    import numpy as np
    rng = np.random.default_rng(31)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    ours = matrix_exp(a)
    theirs = scipy_linalg.expm(a)
    assert np.max(np.abs(ours - theirs)) < 1e-10


def test_matrix_exp_rejects_exact_mode():
    with pytest.raises(ValueError):
        matrix_exp(CMatrix.identity(2))


def test_commutant_dimensions(a_basis, s_basis):
    assert commutant_dimension(a_basis.embedded()) == 1
    assert commutant_dimension(s_basis) == 2
    # fundamental su(2): Schur gives a one-dimensional commutant
    su2 = LieBasis("su2", COMPLEX_EXACT, [
        CMatrix([[ExactComplex(0), ExactComplex(0, Fraction(1, 2))],
                 [ExactComplex(0, Fraction(1, 2)), ExactComplex(0)]]),
        CMatrix([[ExactComplex(0), ExactComplex(Fraction(-1, 2))],
                 [ExactComplex(Fraction(1, 2)), ExactComplex(0)]]),
        CMatrix([[ExactComplex(0, Fraction(1, 2)), ExactComplex(0)],
                 [ExactComplex(0), ExactComplex(0, Fraction(-1, 2))]]),
    ])
    assert commutant_dimension(su2) == 1


def test_commutant_oracle_for_block_scalars(s_basis):
    """The two-dimensional commutant of the block basis is spanned by
    diag(a I_2, b I_2): verify both span elements commute with everything."""
    for diag in ([1, 1, 0, 0], [0, 0, 1, 1]):
        x = CMatrix.diag([ExactComplex(v) for v in diag])
        for g in s_basis.generators:
            assert bracket(x, g).is_zero()


def test_basis_export_shape(a_basis):
    doc = a_basis.to_json()
    assert doc["name"] == "sostar4_A"
    assert doc["realization"] == "quaternionic"
    assert len(doc["generators"]) == 6
    assert doc["killing_signature"] == [4, 2, 0]
    assert all(len(t) == 4 for t in doc["structure_constants"])
