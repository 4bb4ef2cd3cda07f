import hashlib
import json
import os
import subprocess
import sys

import pytest

from sostar import cli, isogeny, liealg, triality
from sostar.report import VerificationReport


def test_verify_single_suite_exit_zero(capsys):
    code = cli.main(["verify", "--suite", "sostar2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out and "sostar2" in out


def test_verify_writes_deterministic_json(tmp_path, capsys):
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    assert cli.main(["verify", "--suite", "sostar4", "--json", str(path_a)]) == 0
    assert cli.main(["verify", "--suite", "sostar4", "--json", str(path_b)]) == 0
    capsys.readouterr()
    raw_a = path_a.read_bytes()
    assert raw_a == path_b.read_bytes()
    doc = json.loads(raw_a)
    assert doc["tool_version"] == cli.__version__
    assert doc["suites"][0]["name"] == "sostar4"
    assert doc["suites"][0]["claims"][0]["passed"] is True


def test_verify_exit_one_on_failed_claim(monkeypatch, capsys):
    failing = VerificationReport(claim_id="synthetic")
    failing.check("always broken", False, None)

    monkeypatch.setattr(cli, "verify_sostar2", lambda tol: failing)
    code = cli.main(["verify", "--suite", "sostar2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out
    assert "always broken" in out


def test_verifier_that_raises_fails_only_its_suite(monkeypatch, tmp_path,
                                                   capsys):
    # plane (6, 7) dropped from the quartets: the triality verifier raises
    # KeyError: (6, 7) while the other five suites still run and pass
    monkeypatch.setattr(triality, "B_PRIME", triality.B_PRIME[:3] + [(0, 1)])
    path = tmp_path / "r.json"
    assert cli.main(["verify", "--suite", "all", "--json", str(path)]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert [line.split()[:2] for line in lines[:6]] == [
        ["PASS", name] for name in list(cli.SUITES)[:5]] + [["FAIL", "triality"]]
    assert lines[6:] == ["      - FAILED: KeyError: (6, 7)",
                         "FAILED: 6 suite(s), tol = 1e-09"]
    assert "Traceback" in captured.err and "KeyError: (6, 7)" in captured.err
    suites = json.loads(path.read_bytes())["suites"]
    assert [s["claims"][0]["passed"] for s in suites] == [True] * 5 + [False]
    (witness,) = suites[-1]["claims"][0]["witnesses"]
    assert witness["description"] == "FAILED: KeyError: (6, 7)"
    assert witness["value"].startswith("raised at triality.py:")


def test_verify_runs_a_verifier_rebound_in_every_module(monkeypatch, capsys):
    """Rebinding isogeny.verify_sostar2 in every sostar module that imported
    it, as perfbench's tracer does, changes what `sostar verify` runs."""
    original = isogeny.verify_sostar2
    calls = []

    def traced(tol):
        calls.append(tol)
        return original(tol)

    for key, module in sorted(sys.modules.items()):
        if key == "sostar" or key.startswith("sostar."):
            if getattr(module, "verify_sostar2", None) is original:
                monkeypatch.setattr(module, "verify_sostar2", traced)
    assert cli.main(["verify", "--suite", "sostar2", "--tol", "1e-6"]) == 0
    capsys.readouterr()
    assert calls == [1e-6]


def test_verify_all_expands_each_distinct_generator_tuple_once(monkeypatch,
                                                              capsys):
    """Triality expands V alone, and the tables expand a member whose
    generators an earlier member has (sp*(n,0) after sp*(0,n), sl(1,H)
    after sp*(1)) no second time: 19 expansions, 25 before."""
    expanded = []
    original = liealg.structure_constants

    def counting(basis):
        expanded.append((basis.name, basis.realization, tuple(basis.generators)))
        return original(basis)

    monkeypatch.setattr(liealg, "structure_constants", counting)
    assert cli.main(["verify", "--suite", "all"]) == 0
    capsys.readouterr()
    tuples = [(realization, gens) for _, realization, gens in expanded]
    assert len(tuples) == len(set(tuples)) == 19
    assert [name for name, _, _ in expanded if name.startswith("sostar8")] == [
        "sostar8_V"]


def test_verify_exit_two_on_unwritable_report_path(tmp_path, capsys):
    path = tmp_path / "missing" / "r.json"
    assert cli.main(["verify", "--suite", "sostar2", "--json", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not path.exists()


def test_verify_rejects_unknown_suite():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2


def test_verify_rejects_bad_tolerance():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "sostar2", "--tol", "-1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("tol", ["inf", "nan", "1", "0"])
def test_verify_rejects_unbounded_tolerance(tol, capsys):
    """A tolerance that is not finite or above the cap would let every float
    witness pass; the run is refused before any suite starts."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "sostar2", "--tol", tol])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_verify_accepts_the_tolerance_cap(capsys):
    assert cli.main(["verify", "--suite", "sostar2", "--tol", str(cli.MAX_TOL)]) == 0


def test_export_su31(capsys):
    assert cli.main(["export", "--family", "su31"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["generators"]) == 15
    assert doc["killing_signature"] == [9, 6, 0]


def test_export_generic_sostar(tmp_path, capsys):
    out = tmp_path / "so2.json"
    assert cli.main(["export", "--family", "sostar", "--n", "1",
                     "--output", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert len(doc["generators"]) == 1
    gen = doc["generators"][0]
    entry = gen["entries"][0]
    zero = {"a": "0/1", "b": "0/1", "c": "0/1", "d": "0/1"}
    # the single generator is proportional to j
    assert entry["t"] == zero and entry["x"] == zero and entry["z"] == zero
    assert entry["y"] != zero


def test_export_spstar_requires_split(capsys):
    assert cli.main(["export", "--family", "spstar"]) == 2
    assert cli.main(["export", "--family", "spstar", "--p", "1", "--q", "1"]) == 0
    capsys.readouterr()


def test_export_unknown_family(capsys):
    assert cli.main(["export", "--family", "nonsense"]) == 2
    err = capsys.readouterr().err
    assert "unknown family" in err


def test_export_dictionary(capsys):
    assert cli.main(["export", "--family", "dictionary"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["matrix"]) == 28
    assert all(len(row) == 28 for row in doc["matrix"])
    assert all(isinstance(v, int) for row in doc["matrix"] for v in row)


def test_export_spin_bases(capsys):
    assert cli.main(["export", "--family", "sostar8L"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["generators"]) == 28
    assert doc["killing_signature"] == [16, 12, 0]


def test_export_exit_two_on_unwritable_output_path(tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    assert cli.main(["export", "--family", "su31", "--output", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# sha256 of the bytes that `sostar export` writes, as released: a change to
# the exact arithmetic or to the JSON text must leave every export as it was
_EXPORT_SHA256 = {
    ("--family", "sostar", "--n", "3"):
        "c87b274f529f086bb3e0fcd2d04e25a935426953d2b9fa1b77650a70f314396c",
    # irrational coordinates (sqrt2, sqrt3, sqrt6) in the generators
    ("--family", "sostar6quat"):
        "c07887352d2afbbe038620e6d233c36ec768b2adbcf3f6fd73d1b005fefc2ca6",
    # complex entries with irrational coordinates
    ("--family", "su31"):
        "8fa5892cfd35e645bcac1e75fc6893727731120dfde2bb42391873281ae6cc2b",
    ("--family", "sostar6complex"):
        "d108addae111ec7d25edce8520df3a8a1e47146f448be818cf5b93d50e09199a",
    ("--family", "sostar8V"):
        "f77e3ad84c82e57e6dc82dcae16eef333f8e5458d25b24ed9b44002e1bfb8123",
}


def test_export_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        assert cli.main(["export", "--family", "sostar4A",
                         "--output", str(path)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    for args, digest in _EXPORT_SHA256.items():
        assert cli.main(["export", *args, "--output", str(a)]) == 0
        assert hashlib.sha256(a.read_bytes()).hexdigest() == digest, args


def test_export_rejects_a_huge_generic_size_at_once(monkeypatch, capsys):
    def never(*args):  # a basis that large would exhaust time and memory
        raise AssertionError("the size was not checked before building")

    monkeypatch.setattr(cli, "generic_basis", never)
    assert cli.main(["export", "--family", "sostar", "--n", "1000000"]) == 2
    assert "export bound" in capsys.readouterr().err
    assert cli.main(["export", "--family", "spstar", "--p", "999", "--q", "1"]) == 2
    assert cli.main(["export", "--family", "slh", "--n", "100"]) == 2
    capsys.readouterr()


def test_export_bound_is_on_the_dimension(monkeypatch, capsys):
    monkeypatch.setattr(cli, "MAX_EXPORT_DIM", 6)  # so*(4) = sostar --n 2
    assert cli.main(["export", "--family", "sostar", "--n", "2"]) == 0
    assert cli.main(["export", "--family", "sostar", "--n", "3"]) == 2
    assert cli.main(["export", "--family", "slh", "--n", "1"]) == 0  # dim 3
    assert cli.main(["export", "--family", "spstar", "--p", "1", "--q", "1"]) == 2
    capsys.readouterr()


def test_importing_the_cli_loads_no_numpy():
    # numpy is imported only where floats are needed, which keeps start-up fast
    code = "import sys, sostar.cli; sys.exit('numpy' in sys.modules)"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
