r"""Structured pass/fail records for verification claims, with deterministic
JSON output.

Reports never contain timestamps or environment data, and floats are always
formatted with 17 significant digits, so identical runs serialize to
byte-identical documents.

`dumps` is the standard library's pure-Python encoder loop
(`json.encoder._make_iterencode`) with `_fmt_float` for floats, so its text
is that of `json.dumps(obj, ensure_ascii=False)` except for floats: non-ASCII
text is kept, a control character is written as \b, \f, \n, \r, \t or
\u00XX, and a key that is not a str is spelled as JSON spells it (a float
key by `_fmt_float`); a key or value of any other type is a TypeError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from json.encoder import _make_iterencode, encode_basestring
from typing import Any, Union

Tolerance = Union[float, str]  # a float tolerance or the string "exact"


@dataclass
class VerificationReport:
    """Outcome of one verified claim.

    `passed` is true only if every sub-check passed; `witnesses` holds
    (description, payload) pairs where the payload is a JSON-ready value
    (serialized matrix, scalar, or plain data), and is always populated on
    failure with the offending values.
    """

    claim_id: str
    passed: bool = True
    witnesses: list = field(default_factory=list)
    tolerance_used: Tolerance = "exact"

    def check(self, description: str, ok: bool, payload: Any = None) -> bool:
        """Record a sub-check; failure flips `passed` and keeps the payload."""
        if ok:
            self.witnesses.append((description, payload))
        else:
            self.passed = False
            self.witnesses.append((f"FAILED: {description}", payload))
        return ok

    def failures(self) -> list[str]:
        """Descriptions of the failed sub-checks, as given to `check`."""
        return [d.removeprefix("FAILED: ") for d, _ in self.witnesses
                if d.startswith("FAILED: ")]

    def to_json_dict(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "passed": self.passed,
            "witnesses": [{"description": d, "value": _jsonable(v)}
                          for (d, v) in self.witnesses],
            "tolerance": self.tolerance_used,
        }


def _jsonable(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if hasattr(value, "to_json"):
        return value.to_json()
    if getattr(value, "ndim", None) == 2:  # float matrix (numpy array)
        rows, cols = value.shape
        return {"rows": rows, "cols": cols, "mode": "float",
                "entries": [{"re": float(e.real), "im": float(e.imag)}
                            for e in value.flat]}
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


def dumps(obj, indent: int = 0) -> str:
    """Deterministic JSON text: insertion-ordered keys, %.17g floats, and no
    whitespace at all for indent=0."""
    chunks = _make_iterencode(
        None, _unsupported, encode_basestring, indent or None, _fmt_float,
        ": " if indent else ":", ",", False, False, False)
    return "".join(chunks(obj, 0))


def _unsupported(obj):
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _fmt_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("non-finite float in report")
    text = f"{x:.17g}"
    # an integral value prints as bare digits, which JSON reads as an integer
    return text if "." in text or "e" in text else text + ".0"
