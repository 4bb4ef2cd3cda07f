import json

import pytest

from sostar import cli
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

    def fake_run_suite(name, tol):
        return [failing]

    monkeypatch.setattr(cli, "_run_suite", fake_run_suite)
    code = cli.main(["verify", "--suite", "sostar2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out
    assert "always broken" in out


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


def test_export_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        assert cli.main(["export", "--family", "sostar4A",
                         "--output", str(path)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
