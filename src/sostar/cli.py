"""Command-line entry point: run verification suites or export bases.

    sostar verify [--suite NAME] [--tol TOL] [--json PATH]     (0 < TOL <= 1e-3)
    sostar export --family NAME [--n N] [--p P] [--q Q] [--output PATH]

Exit codes: 0 all claims passed, 1 at least one claim failed, 2 usage error.
Output is deterministic: fixed suite order and 17-significant-digit floats,
so identical invocations produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .bases import (basis_sostar4_A, basis_sostar6_complex, basis_sostar6_quat,
                    basis_su2_sl2_S, basis_su31, generic_basis,
                    SL_H, SO_STAR, SP_STAR)
from .clifford import verify_sostar8
from .hmatrix import DEFAULT_TOL
from .isogeny import verify_sostar2, verify_sostar4, verify_sostar6, verify_tables
from .report import VerificationReport, dumps
from .triality import verify_triality

SUITES = ("sostar2", "sostar4", "sostar6", "sostar8", "tables", "triality")

# Largest accepted --tol: a looser tolerance lets float witnesses pass that
# are visibly wrong, and an infinite one lets every witness pass.
MAX_TOL = 1e-3


def _run_suite(name: str, tol: float) -> list[VerificationReport]:
    if name == "sostar2":
        return [verify_sostar2(tol)]
    if name == "sostar4":
        return [verify_sostar4(tol)]
    if name == "sostar6":
        return [verify_sostar6(tol)]
    if name == "sostar8":
        return [verify_sostar8()]
    if name == "tables":
        return [verify_tables()]
    if name == "triality":
        return [verify_triality()]
    raise ValueError(f"unknown suite {name!r}")


def run(suite: str, tol: float, output_path: str | None = None) -> int:
    """Execute the selected suites; print a summary; optionally dump JSON."""
    names = list(SUITES) if suite == "all" else [suite]
    suites_out = []
    all_passed = True
    for name in names:
        reports = _run_suite(name, tol)
        claims_passed = sum(1 for r in reports for (d, _) in r.witnesses
                            if not d.startswith("FAILED"))
        claims_failed = sum(1 for r in reports for (d, _) in r.witnesses
                            if d.startswith("FAILED"))
        suite_ok = all(r.passed for r in reports)
        all_passed = all_passed and suite_ok
        status = "PASS" if suite_ok else "FAIL"
        print(f"{status:4s}  {name:<8s}  {claims_passed} checks passed, "
              f"{claims_failed} failed")
        if not suite_ok:
            for r in reports:
                for (d, _) in r.witnesses:
                    if d.startswith("FAILED"):
                        print(f"      - {d}")
        suites_out.append({"name": name,
                           "claims": [r.to_json_dict() for r in reports]})
    print(f"{'OK' if all_passed else 'FAILED'}: "
          f"{len(names)} suite(s), tol = {tol:g}")
    if output_path:
        doc = {"suites": suites_out, "tool_version": __version__}
        with open(output_path, "w", encoding="utf-8") as fh:
            fh.write(dumps(doc, indent=2))
            fh.write("\n")
    return 0 if all_passed else 1


_FIXED_FAMILIES = {
    "su31": basis_su31,
    "sostar4A": basis_sostar4_A,
    "su2sl2S": basis_su2_sl2_S,
    "sostar6quat": basis_sostar6_quat,
    "sostar6complex": basis_sostar6_complex,
}


def export_document(family: str, n: int | None = None, p: int | None = None,
                    q: int | None = None) -> dict:
    """Resolve an export family name to its JSON document (raises ValueError)."""
    if family in _FIXED_FAMILIES:
        return _FIXED_FAMILIES[family]().to_json()
    if family == "sostar":
        if n is None:
            raise ValueError("--family sostar requires --n")
        return generic_basis(SO_STAR, n).to_json()
    if family == "spstar":
        if p is None or q is None:
            raise ValueError("--family spstar requires --p and --q")
        return generic_basis(SP_STAR, p + q, p, q).to_json()
    if family == "slh":
        if n is None:
            raise ValueError("--family slh requires --n")
        return generic_basis(SL_H, n).to_json()
    if family in ("sostar8L", "sostar8V", "sostar8R"):
        from .triality import apply_triality, transformed_spin_reps, triality_setup
        left, right = transformed_spin_reps()
        if family == "sostar8L":
            rep = left
        elif family == "sostar8R":
            rep = right
        else:
            rep = apply_triality(triality_setup(), left)
        return rep.as_lie_basis().to_json()
    if family == "dictionary":
        from .clifford import PAIRS, dictionary_matrix
        return {"name": "sostar8_parameter_dictionary",
                "rows": "quaternionic parameters a1..a28",
                "cols": [f"theta_{i}{j}" for (i, j) in PAIRS],
                "matrix": dictionary_matrix()}
    raise ValueError(f"unknown family {family!r}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sostar",
        description="Verify quaternionic orthogonal group identities or "
                    "export Lie-algebra bases.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--suite", default="all",
                          choices=("all",) + SUITES)
    p_verify.add_argument("--tol", type=float, default=DEFAULT_TOL,
                          help=f"float tolerance, in (0, {MAX_TOL:g}]")
    p_verify.add_argument("--json", dest="json_path", default=None,
                          metavar="PATH", help="write the full JSON report")

    p_export = sub.add_parser("export", help="export a basis as JSON")
    p_export.add_argument("--family", required=True)
    p_export.add_argument("--n", type=int, default=None)
    p_export.add_argument("--p", type=int, default=None)
    p_export.add_argument("--q", type=int, default=None)
    p_export.add_argument("--format", default="json", choices=("json",))
    p_export.add_argument("--output", default=None, metavar="PATH")

    args = parser.parse_args(argv)

    if args.command == "verify":
        if not 0 < args.tol <= MAX_TOL:  # also rejects nan and inf
            parser.error(f"--tol must be finite and in (0, {MAX_TOL:g}]")  # exits 2
        return run(args.suite, args.tol, args.json_path)

    if args.command == "export":
        try:
            doc = export_document(args.family, args.n, args.p, args.q)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        text = dumps(doc, indent=2) + "\n"
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            try:
                sys.stdout.write(text)
            except BrokenPipeError:
                pass
        return 0

    parser.error("no command given")
    return 2


if __name__ == "__main__":
    sys.exit(main())
