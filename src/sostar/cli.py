"""Command-line entry point: run verification suites or export bases.

    sostar verify [--suite NAME] [--tol TOL] [--json PATH]     (0 < TOL <= 1e-3)
    sostar export --family NAME [--n N] [--p P] [--q Q] [--output PATH]

Exit codes: 0 all claims passed, 1 a claim failed (a verifier that raises
fails its suite), 2 a usage error (such as a generic-family export above
dimension MAX_EXPORT_DIM = 120) or an output path that cannot be written.
Output is deterministic: fixed suite order and 17-significant-digit floats,
so identical invocations give identical bytes.

Each suite of the table `SUITES` runs the module global verify_<name>, looked
up when it runs, so a rebound name (a tracer's wrapper) is what runs.  Its
report is the one definition of its claims; the tests read the same reports.
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

# suite name -> whether its verifier takes --tol, in report order
SUITES = {"sostar2": True, "sostar4": True, "sostar6": True,
          "sostar8": False, "tables": False, "triality": False}

# Largest accepted --tol: a looser tolerance lets float witnesses pass that
# are visibly wrong, and an infinite one lets every witness pass.
MAX_TOL = 1e-3


def run_suite(name: str, tol: float) -> VerificationReport:
    """One suite's report, from the verifier the suite table names.

    A verifier that raises fails its suite: the report holds one failed
    check named by the exception, with the innermost frame as its witness,
    and the traceback goes to stderr, so the other suites still run.
    """
    verifier = globals()[f"verify_{name}"]
    try:
        return verifier(tol) if SUITES[name] else verifier()
    except Exception as exc:
        import os
        import traceback
        traceback.print_exc(file=sys.stderr)
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        report = VerificationReport(claim_id=name)
        report.check(f"{type(exc).__name__}: {exc}", False,
                     f"raised at {os.path.basename(frame.filename)}:"
                     f"{frame.lineno} in {frame.name}")
        return report


def _write(path: str, text: str) -> int:
    """Write `text` to `path`; exit code 0, or 2 after an error line."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def run(suite: str, tol: float, output_path: str | None = None) -> int:
    """Execute the selected suites; print a summary; optionally dump JSON."""
    names = list(SUITES) if suite == "all" else [suite]
    suites_out = []
    all_passed = True
    for name in names:
        report = run_suite(name, tol)
        failures = report.failures()
        all_passed = all_passed and report.passed
        print(f"{'PASS' if report.passed else 'FAIL':4s}  {name:<8s}  "
              f"{len(report.witnesses) - len(failures)} checks passed, "
              f"{len(failures)} failed")
        for d in failures:
            print(f"      - FAILED: {d}")
        suites_out.append({"name": name, "claims": [report.to_json_dict()]})
    print(f"{'OK' if all_passed else 'FAILED'}: "
          f"{len(names)} suite(s), tol = {tol:g}")
    doc = {"suites": suites_out, "tool_version": __version__}
    if output_path and _write(output_path, dumps(doc, indent=2) + "\n"):
        return 2
    return 0 if all_passed else 1


_FIXED_FAMILIES = {
    "su31": basis_su31,
    "sostar4A": basis_sostar4_A,
    "su2sl2S": basis_su2_sl2_S,
    "sostar6quat": basis_sostar6_quat,
    "sostar6complex": basis_sostar6_complex,
}


# Largest algebra dimension that `export` builds for a generic family; the
# exact structure constants take about dim^3 work.  The largest allowed
# export, so*(16) (`--family sostar --n 8`, dimension 120), takes
# 0.51-0.64 s (three runs, BENCH_17.json) on a 2-core x86-64 Linux host with
# Python 3.11.
MAX_EXPORT_DIM = 120

# export family -> (generic_basis family, algebra dimension for size n)
_GENERIC_FAMILIES = {
    "sostar": (SO_STAR, lambda n: n * (2 * n - 1)),
    "spstar": (SP_STAR, lambda n: n * (2 * n + 1)),
    "slh": (SL_H, lambda n: 4 * n * n - 1),
}


def export_document(family: str, n: int | None = None, p: int | None = None,
                    q: int | None = None) -> dict:
    """Resolve an export family name to its JSON document (raises ValueError)."""
    if family in _FIXED_FAMILIES:
        return _FIXED_FAMILIES[family]().to_json()
    if family in _GENERIC_FAMILIES:
        kind, dim = _GENERIC_FAMILIES[family]
        if family == "spstar":
            if p is None or q is None:
                raise ValueError("--family spstar requires --p and --q")
            n = p + q
        elif n is None:
            raise ValueError(f"--family {family} requires --n")
        if n > 0 and dim(n) > MAX_EXPORT_DIM:
            raise ValueError(f"--family {family} of size {n} has dimension "
                             f"{dim(n)}, above the export bound {MAX_EXPORT_DIM}")
        return generic_basis(kind, n, p, q).to_json()
    if family in ("sostar8L", "sostar8V", "sostar8R"):
        from .triality import (apply_triality, transformed_spin_reps, triality_map,
                               triality_setup)
        left, right = transformed_spin_reps()
        if family == "sostar8L":
            rep = left
        elif family == "sostar8R":
            rep = right
        else:
            rep = apply_triality(triality_map(triality_setup()), left)
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
                          choices=("all", *SUITES))
    p_verify.add_argument("--tol", type=float, default=DEFAULT_TOL,
                          help=f"float tolerance, in (0, {MAX_TOL:g}]")
    p_verify.add_argument("--json", dest="json_path", default=None,
                          metavar="PATH", help="write the full JSON report")

    p_export = sub.add_parser("export", help="export a basis as JSON")
    p_export.add_argument("--family", required=True)
    p_export.add_argument("--n", type=int, default=None)
    p_export.add_argument("--p", type=int, default=None)
    p_export.add_argument("--q", type=int, default=None)
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
            return _write(args.output, text)
        try:
            sys.stdout.write(text)
        except BrokenPipeError:
            pass
        return 0

    parser.error("no command given")
    return 2


if __name__ == "__main__":
    sys.exit(main())
