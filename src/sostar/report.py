"""Structured pass/fail records for verification claims, with deterministic
JSON output.

Reports never contain timestamps or environment data, and floats are always
formatted with 17 significant digits, so identical runs serialize to
byte-identical documents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
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
    """Deterministic JSON text: insertion-ordered keys, %.17g floats."""
    out: list[str] = []
    _write(obj, out, indent, 0)
    return "".join(out)


def _write(obj, out: list[str], indent: int, level: int) -> None:
    pad = " " * (indent * (level + 1)) if indent else ""
    end_pad = " " * (indent * level) if indent else ""
    nl = "\n" if indent else ""
    sep = "," + nl
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_fmt_float(obj))
    elif isinstance(obj, str):
        out.append(_escape(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[" + nl)
        for i, v in enumerate(obj):
            out.append(pad)
            _write(v, out, indent, level + 1)
            if i + 1 < len(obj):
                out.append(sep)
            else:
                out.append(nl)
        out.append(end_pad + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{" + nl)
        items = list(obj.items())
        for i, (k, v) in enumerate(items):
            out.append(pad + _escape(str(k)) + (": " if indent else ":"))
            _write(v, out, indent, level + 1)
            if i + 1 < len(items):
                out.append(sep)
            else:
                out.append(nl)
        out.append(end_pad + "}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _fmt_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("non-finite float in report")
    text = f"{x:.17g}"
    # an integral value prints as bare digits, which JSON reads as an integer
    return text if "." in text or "e" in text else text + ".0"


def _escape(s: str) -> str:
    out = ['"']
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        elif ch == "\r":
            out.append("\\r")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)
