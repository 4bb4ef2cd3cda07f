from sostar import isogeny
from sostar.isogeny import table_row, verify_sostar4
from sostar.liealg import LieBasis
from sostar.report import VerificationReport, dumps


def test_sostar2_passes(suite_runs):
    report, _ = suite_runs["sostar2"]
    assert report.passed
    assert any("rotation by theta" in d for d, _ in report.witnesses)


def test_sostar4_passes(suite_runs):
    report, _ = suite_runs["sostar4"]
    assert report.passed
    descriptions = [d for d, _ in report.witnesses]
    assert any("U_1 U_5" in d for d in descriptions)
    assert any("R_1 R_5" in d for d in descriptions)
    assert any("commutant" in d for d in descriptions)


def test_sostar6_passes(suite_runs):
    report, _ = suite_runs["sostar6"]
    assert report.passed
    descriptions = [d for d, _ in report.witnesses]
    assert any("15^3" in d for d in descriptions)
    assert any("i I_4" in d for d in descriptions)
    assert any("-I_6" in d for d in descriptions)


def test_tables_passes(suite_runs):
    report, _ = suite_runs["tables"]
    assert report.passed
    # 4 so* + 9 sp* + 3 sl rows, three checks each, plus the compact counts
    assert len(report.witnesses) == 16 * 3 + 4


def test_tables_build_one_basis_per_distinct_generator_tuple(monkeypatch):
    # sp*(n,0) after sp*(0,n) and sl(1,H) after sp*(1) reuse a basis that
    # is already built: 12 bases for the 16 rows, plus the embedded so*(2)
    # whose Killing radical the trace form classifies, and every row is
    # reported
    built = []
    original = LieBasis.__init__

    def counting(self, name, realization, generators, labels=None):
        built.append(tuple(generators))
        original(self, name, realization, generators, labels)

    monkeypatch.setattr(LieBasis, "__init__", counting)
    report = isogeny.verify_tables()
    assert report.passed
    assert len(built) == len(set(built)) == 13
    assert len(report.witnesses) == 16 * 3 + 4


def test_unconjugated_su31_fails_the_sostar6_equality(monkeypatch, verify_suite,
                                                      su31_unconjugated):
    monkeypatch.setattr(isogeny, "basis_su31", lambda: su31_unconjugated)
    code, out, report = verify_suite("sostar6")
    failed = ["su(3,1) and complex so*(6) structure constants agree on all "
              "15^3 components (exact)"]
    assert report.failures() == failed
    assert code == 1
    assert f"FAILED: {failed[0]}" in out


def test_table_row_formulas():
    row = table_row("so_star", 4)
    assert row["dim"] == 28 and row["rank"] == 4
    assert (row["n_minus"], row["n_plus"]) == (16, 12)
    assert row["index"] == -4
    row = table_row("sp_star", 2, 2, 0)
    assert (row["n_minus"], row["n_plus"]) == (10, 0)
    row = table_row("sl_H", 1)
    assert row["dim"] == 3 and (row["n_minus"], row["n_plus"]) == (3, 0)
    assert row["index"] == -3  # matches -(2n+1)


def test_reports_are_deterministic():
    a = dumps(verify_sostar4().to_json_dict(), indent=2)
    b = dumps(verify_sostar4().to_json_dict(), indent=2)
    assert a == b


def test_failed_checks_populate_witnesses():
    report = VerificationReport(claim_id="demo")
    report.check("ok part", True, None)
    report.check("broken part", False, {"residual": 1.5})
    assert not report.passed
    assert report.failures() == ["broken part"]
    assert report.witnesses[1] == ("FAILED: broken part", {"residual": 1.5})
    doc = report.to_json_dict()
    assert doc["passed"] is False
    assert doc["witnesses"][1]["value"] == {"residual": 1.5}
