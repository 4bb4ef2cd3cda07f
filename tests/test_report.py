import json

import pytest

from sostar.report import VerificationReport, dumps


def test_dumps_is_valid_json_and_ordered():
    doc = {"b": 1, "a": [1.5, "x", None, True, False], "nested": {"z": 2, "y": 3}}
    text = dumps(doc)
    parsed = json.loads(text)
    assert parsed == doc
    # insertion order preserved, not sorted
    assert text.index('"b"') < text.index('"a"')
    assert text.index('"z"') < text.index('"y"')


def test_float_formatting_17_digits():
    import math
    text = dumps({"pi": math.pi})
    assert "3.1415926535897931" in text
    assert dumps(2.0) == "2.0"
    assert json.loads(dumps(1.0 / 3.0)) == 1.0 / 3.0


def test_nonfinite_floats_rejected():
    with pytest.raises(ValueError):
        dumps(float("nan"))
    with pytest.raises(ValueError):
        dumps(float("inf"))


def test_string_escaping():
    text = dumps({"s": 'quote " backslash \\ newline \n tab \t'})
    assert json.loads(text)["s"] == 'quote " backslash \\ newline \n tab \t'


def test_indented_output_round_trips():
    doc = {"list": [1, 2, {"k": [3.25]}], "empty": [], "none": None}
    assert json.loads(dumps(doc, indent=2)) == doc


def test_report_serialization_shape():
    report = VerificationReport(claim_id="x", tolerance_used=1e-9)
    report.check("first", True, 1.25)
    doc = report.to_json_dict()
    assert doc == {
        "claim_id": "x",
        "passed": True,
        "witnesses": [{"description": "first", "value": 1.25}],
        "tolerance": 1e-9,
    }


def test_report_exact_tolerance_tag():
    report = VerificationReport(claim_id="y")
    assert report.to_json_dict()["tolerance"] == "exact"


def test_float_matrix_witness_serialization_is_pinned():
    """A float matrix witness (a complex numpy array) keeps the report's
    float-matrix shape: row-major re/im entries, 17 digits, signed zeros."""
    import numpy as np
    m = np.array([[0.5000000000000001, -0.0], [1j, 2.0]], dtype=complex)
    report = VerificationReport(claim_id="float", tolerance_used=1e-9)
    report.check("witness", True, m)
    value = report.to_json_dict()["witnesses"][0]["value"]
    assert dumps(value) == (
        '{"rows":2,"cols":2,"mode":"float","entries":['
        '{"re":0.50000000000000011,"im":0.0},{"re":-0.0,"im":0.0},'
        '{"re":0.0,"im":1.0},{"re":2.0,"im":0.0}]}')
