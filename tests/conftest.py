import time
from fractions import Fraction

import pytest
from hypothesis import Phase, settings

from sostar import cli
from sostar.bases import (SO_STAR, basis_sostar4_A, basis_sostar6_complex,
                          basis_sostar6_quat, basis_su2_sl2_S, basis_su31,
                          generic_basis)
from sostar.liealg import COMPLEX_EXACT, LieBasis
from sostar.scalars import ExactScalar
from sostar.clifford import spin26_generators
from sostar.triality import transformed_spin_reps

# Every phase but `explain`: after a failure, hypothesis's explain phase can
# grow the test process past a gigabyte of memory.  The example counts,
# deadlines and each test's own settings are unchanged.
settings.register_profile(
    "sostar", phases=[phase for phase in Phase if phase is not Phase.explain])
settings.load_profile("sostar")


@pytest.fixture(scope="session")
def suite_runs():
    """Every `sostar verify` suite run once through the CLI's suite table at
    the default tolerance: suite name -> (report, wall seconds)."""
    runs = {}
    for name in cli.SUITES:
        t0 = time.monotonic()
        report = cli.run_suite(name, cli.DEFAULT_TOL)
        runs[name] = (report, time.monotonic() - t0)
    return runs


@pytest.fixture
def verify_suite(monkeypatch, capsys):
    """Run `sostar verify --suite NAME` once; return its exit code, its stdout
    and the report the suite's verifier returned."""
    def run(name):
        reports = []
        verifier = getattr(cli, f"verify_{name}")

        def recorded(*args):
            reports.append(verifier(*args))
            return reports[-1]

        monkeypatch.setattr(cli, f"verify_{name}", recorded)
        code = cli.main(["verify", "--suite", name])
        return code, capsys.readouterr().out, reports[0]
    return run


@pytest.fixture(scope="session")
def spin():
    return spin26_generators()


@pytest.fixture(scope="session")
def spin_reps(spin):
    return transformed_spin_reps(spin)


@pytest.fixture(scope="session")
def a_basis():
    return basis_sostar4_A()


@pytest.fixture(scope="session")
def s_basis():
    return basis_su2_sl2_S()


@pytest.fixture(scope="session")
def su31():
    return basis_su31()


@pytest.fixture(scope="session")
def su31_unconjugated(su31):
    """su(3,1) with the printed Gell-Mann su(3) corner, not its entry-wise
    conjugate: s_1..s_8 are zero outside the corner, so conjugate them whole."""
    gens = [g.conj() if k < 8 else g for k, g in enumerate(su31.generators)]
    return LieBasis("su31", COMPLEX_EXACT, gens, su31.labels)


@pytest.fixture(scope="session")
def so6_quat():
    return basis_sostar6_quat()


@pytest.fixture(scope="session")
def so6_complex():
    return basis_sostar6_complex()


def _dense_recombination(gens):
    """g_i + sum over j > i of c_ij g_j with irrational c_ij: a unit triangular
    change of basis, so the span is unchanged and every coordinate fills in."""
    coeffs = (ExactScalar(1, 1), ExactScalar(Fraction(-1, 2), 0, 1),
              ExactScalar(0, Fraction(1, 3), 0, -1))
    out = []
    for i, g in enumerate(gens):
        for j in range(i + 1, len(gens)):
            g = g + gens[j].scale(coeffs[(i + j) % 3])
        out.append(g)
    return out


@pytest.fixture(scope="session")
def dense_recombination():
    return _dense_recombination


@pytest.fixture(scope="session")
def dense_sostar6_basis():
    """Generic so*(6) after the dense sqrt2/sqrt3 recombination."""
    gens = _dense_recombination(generic_basis(SO_STAR, 3).generators)
    return LieBasis("dense_sostar6", "quaternionic", gens)
