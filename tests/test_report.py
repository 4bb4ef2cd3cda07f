import json

import pytest
from hypothesis import given, strategies as st

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


@pytest.mark.parametrize("value, text", [
    (1e16, "10000000000000000.0"),
    (2.5e16, "25000000000000000.0"),
    (-1e16, "-10000000000000000.0"),
    (1e17, "1e+17"),
    (-0.0, "-0.0"),
    (123.0, "123.0"),
])
def test_integral_floats_stay_json_floats(value, text):
    assert dumps(value) == text
    parsed = json.loads(dumps([value]))[0]
    assert type(parsed) is float and parsed == value


def test_nonfinite_floats_rejected():
    with pytest.raises(ValueError):
        dumps(float("nan"))
    with pytest.raises(ValueError):
        dumps(float("inf"))


def test_string_escaping():
    text = dumps({"s": 'quote " backslash \\ newline \n tab \t'})
    assert json.loads(text)["s"] == 'quote " backslash \\ newline \n tab \t'


# float-free documents: floats are the one place where dumps differs from
# json.dumps; the strings mix quotes, backslashes, control characters and
# non-ASCII text, and the keys include the non-string ones JSON spells
_text = st.text(st.characters(max_codepoint=0x2FF) | st.sampled_from('"\\\b\f\x7f'),
                max_size=8)
_documents = st.recursive(
    st.none() | st.booleans() | st.integers() | _text,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_text | st.integers() | st.booleans() | st.none(),
                                     inner, max_size=4)),
    max_leaves=20)


@given(_documents)
def test_dumps_matches_the_standard_library_on_float_free_documents(doc):
    assert dumps(doc, indent=2) == json.dumps(doc, ensure_ascii=False, indent=2)
    assert dumps(doc) == json.dumps(doc, ensure_ascii=False, separators=(",", ":"))


def test_control_characters_and_non_ascii_text_are_pinned():
    assert dumps("\b\f\n\r\t\x01\x1f\x7f\"\\é") == (
        '"\\b\\f\\n\\r\\t\\u0001\\u001f\x7f\\"\\\\é"')


def test_keys_that_are_not_strings_get_their_json_spellings():
    doc = {True: 1, False: 2, None: 3, 7: 4, 1.5: 5, 2.0: 6, 1e16: 7}
    assert dumps(doc) == ('{"true":1,"false":2,"null":3,"7":4,"1.5":5,'
                          '"2.0":6,"10000000000000000.0":7}')
    with pytest.raises(TypeError, match="tuple"):
        dumps({(1, 2): 3})


@pytest.mark.parametrize("value, name", [
    (object(), "object"), ({"a": [1, {2}]}, "set"), ([b"x"], "bytes"),
    (1j, "complex"),
], ids=["object", "nested-set", "bytes", "complex"])
def test_unsupported_values_are_a_type_error_that_names_the_type(value, name):
    with pytest.raises(TypeError, match=f"^cannot serialize {name}$"):
        dumps(value)
    with pytest.raises(TypeError, match=f"^cannot serialize {name}$"):
        dumps(value, indent=2)


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
