"""Structure constants and Killing matrices through the reduced echelon
basis E of the span and the change of basis T with G = T E, against the
expansion of G's own brackets."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sostar import liealg, linalg
from sostar.bases import SL_H, SO_STAR, SP_STAR, basis_su31, generic_basis
from sostar.hmatrix import CMatrix, HMatrix
from sostar.liealg import (QUATERNIONIC, LieBasis, StructureTensor,
                           _killing_matrix, killing, structure_constants)
from sostar.scalars import ExactComplex, ExactScalar

_BASES = {
    "so*(4)": lambda: generic_basis(SO_STAR, 2),
    "so*(6)": lambda: generic_basis(SO_STAR, 3),
    "sp*(1,1)": lambda: generic_basis(SP_STAR, 2, 1, 1),
    "sl(2,H)": lambda: generic_basis(SL_H, 2),
    "su(3,1)": basis_su31,
}
_CACHE: dict = {}


def _basis(kind: str) -> LieBasis:
    if kind not in _CACHE:
        _CACHE[kind] = _BASES[kind]()
    return _CACHE[kind]


def _reference(gens) -> tuple:
    """The tensor and Killing matrix from G's own brackets: every bracket
    expanded in G by one `linalg._solve`, then `_killing_matrix`."""
    n = len(gens)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    den, sols = linalg._solve([g._coordinate_ints() for g in gens],
                              [(gens[i] @ gens[j] - gens[j] @ gens[i])._coordinate_ints()
                               for i, j in pairs])
    tensor = StructureTensor._from_form(
        n, (den, {pair: row for pair, row in zip(pairs, sols) if row}))
    return tensor, _killing_matrix(tensor)


_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
_FIELD = st.builds(lambda r, s, root: ExactScalar(r, s) if root else ExactScalar(r, 0, s),
                   _RATIONALS, _RATIONALS, st.booleans())


@st.composite
def _recombined(draw, kind: str) -> tuple:
    """(realization, generators): in a drawn order, each generator of the
    basis gains up to two later ones with coefficients in Q(sqrt2, sqrt3),
    a unit-triangular change of basis, so the span stays the same."""
    basis = _basis(kind)
    gens = basis.generators
    order = draw(st.permutations(range(len(gens))))
    out = list(gens)
    for pos, k in enumerate(order):
        later = order[pos + 1:]
        if later:
            for m in draw(st.lists(st.sampled_from(later), max_size=2, unique=True)):
                c = draw(_FIELD)
                out[k] = out[k] + gens[m].scale(
                    c if basis.realization == QUATERNIONIC else ExactComplex(c))
    return basis.realization, out


def _dense(kind: str, seed: int) -> list:
    """A seeded recombination as `_recombined` draws it, with two later
    generators mixed into each."""
    rng = random.Random(f"echelon/{kind}/{seed}")
    basis = _basis(kind)
    gens = basis.generators
    order = list(range(len(gens)))
    rng.shuffle(order)
    out = list(gens)
    for pos, k in enumerate(order):
        for m in rng.sample(order[pos + 1:], min(2, len(order) - pos - 1)):
            c = ExactScalar(Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 3))),
                            rng.choice((-1, 1)))
            out[k] = out[k] + gens[m].scale(
                c if basis.realization == QUATERNIONIC else ExactComplex(c))
    return out


@pytest.mark.parametrize("kind", list(_BASES))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_carried_tensor_and_killing_matrix_match_the_own_brackets(kind, data):
    realization, gens = data.draw(_recombined(kind))
    tensor, b = _reference(gens)
    basis = LieBasis("drawn", realization, gens)
    assert structure_constants(basis) == tensor
    assert killing(basis).matrix == b


@pytest.mark.parametrize("kind", list(_BASES))
def test_a_seeded_dense_recombination_takes_the_carry(kind):
    gens = _dense(kind, 0)
    basis = LieBasis("dense", _basis(kind).realization, gens)
    echelon, change = basis._echelon()
    assert change is not None
    # G = T E, entry by entry
    den, rows = change
    for p, g in enumerate(gens):
        terms = [echelon[q].scale(ExactScalar(*t) / den if isinstance(g, HMatrix)
                                  else ExactComplex(ExactScalar(*t) / den))
                 for q, t in rows[p].items()]
        assert sum(terms[1:], terms[0]) == g
    tensor, b = _reference(gens)
    assert basis.structure_constants() == tensor
    assert basis.killing().matrix == b


@pytest.mark.parametrize("kind", list(_BASES))
def test_a_generator_outside_the_algebra_raises(kind):
    gens = _dense(kind, 1)
    m = gens[0].rows
    # the identity is in none of the algebras: rev_transpose(I) = I, and
    # su(3,1) holds no real multiple of I
    gens[0] = HMatrix.identity(m) if isinstance(gens[0], HMatrix) else CMatrix.identity(m)
    basis = LieBasis("swapped", _basis(kind).realization, gens)
    with pytest.raises(ValueError, match="'swapped' is not closed"):
        structure_constants(basis)
    with pytest.raises(ValueError):
        _reference(gens)


@pytest.mark.parametrize("kind", list(_BASES))
def test_a_dependent_set_raises_at_construction(kind):
    gens = _dense(kind, 2)
    gens[-1] = gens[0] + gens[1].scale(ExactScalar(0, 1) if isinstance(gens[1], HMatrix)
                                       else ExactComplex(ExactScalar(0, 1)))
    with pytest.raises(ValueError, match="linearly dependent"):
        LieBasis("dependent", _basis(kind).realization, gens)


@pytest.mark.parametrize("kind", list(_BASES)[:-1])
def test_an_already_reduced_basis_brackets_its_own_generators(kind, monkeypatch):
    basis = _BASES[kind]()  # a fresh basis: nothing cached
    gens = basis.generators
    seen = []
    original = liealg.bracket
    monkeypatch.setattr(liealg, "bracket", lambda x, y: seen.append((x, y)) or original(x, y))

    def no_carry(*args):
        raise AssertionError("the Killing carry ran")

    monkeypatch.setattr(liealg, "_carried_killing", no_carry)
    solves = []
    original_solve = linalg._solve
    monkeypatch.setattr(linalg, "_solve",
                        lambda *args: solves.append(1) or original_solve(*args))
    tensor = structure_constants(basis)
    kd = killing(basis)
    assert basis._echelon() == (gens, None)
    pairs = [(i, j) for i in range(len(gens)) for j in range(i + 1, len(gens))]
    assert len(seen) == len(pairs)
    assert all(x is gens[i] and y is gens[j] for (x, y), (i, j) in zip(seen, pairs))
    assert len(solves) == 1  # the expansion only, no carried solve
    assert (tensor, kd.matrix) == _reference(gens)


def test_the_generic_bases_are_already_reduced_and_su31_is_not():
    assert all(_basis(kind)._echelon()[1] is None for kind in list(_BASES)[:-1])
    assert _basis("so*(4)").embedded()._echelon()[1] is None
    assert _basis("su(3,1)")._echelon()[1] is not None
