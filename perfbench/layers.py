"""Per-layer instrumentation of sostar and the scalar microbenchmarks.

`install` puts spans around the public functions of each layer (the modules
scalars, quaternion, hmatrix, linalg, liealg, bases, clifford, triality,
isogeny, report, cli) and counters on the hot arithmetic methods.
`metrics` turns a finished tracer into the per-layer metrics that
BENCHMARK.json lists.  Which end-to-end metric each should move, and on which
workload, is tabulated in RESULTS.md.
"""

from __future__ import annotations

import operator
import random
import statistics
from fractions import Fraction
from time import perf_counter

from sostar import (bases, cli, clifford, hmatrix, isogeny, liealg, linalg,
                    quaternion, report, scalars, triality)

from workloads import coeff_bits

SUITE_FUNCTIONS = (
    ("sostar2", isogeny, "verify_sostar2"),
    ("sostar4", isogeny, "verify_sostar4"),
    ("sostar6", isogeny, "verify_sostar6"),
    ("sostar8", clifford, "verify_sostar8"),
    ("tables", isogeny, "verify_tables"),
    ("triality", triality, "verify_triality"),
)

BASIS_BUILDERS = ("generic_basis", "basis_sostar4_A", "basis_su2_sl2_S",
                  "basis_su31", "basis_sostar6_quat", "basis_sostar6_complex")

# (name, unit, better) in the order BENCHMARK.json lists them.
PER_LAYER = [
    ("scalars.add_us", "us", "lower"),
    ("scalars.mul_rational_us", "us", "lower"),
    ("scalars.mul_irrational_us", "us", "lower"),
    ("scalars.mul_grown_us", "us", "lower"),
    ("scalars.inverse_us", "us", "lower"),
    ("scalars.complex_mul_us", "us", "lower"),
    ("scalars.mul.calls", "count", "lower"),
    ("scalars.mul.irrational_frac", "ratio", "lower"),
    ("scalars.max_coeff_bits", "bits", "lower"),
    ("quaternion.mul_us", "us", "lower"),
    ("quaternion.mul.calls", "count", "lower"),
    ("hmatrix.hmatrix_matmul.calls", "count", "lower"),
    ("hmatrix.hmatrix_matmul.self_s", "s", "lower"),
    ("hmatrix.cmatrix_matmul_exact.calls", "count", "lower"),
    ("hmatrix.cmatrix_matmul_exact.self_s", "s", "lower"),
    ("hmatrix.cmatrix_matmul_float.calls", "count", "lower"),
    ("hmatrix.cmatrix_matmul_float.self_s", "s", "lower"),
    ("hmatrix.embedded_membership.self_s", "s", "lower"),
    ("linalg.rref.calls", "count", "lower"),
    ("linalg.rref.self_s", "s", "lower"),
    ("linalg.rref.max_rows", "rows", "lower"),
    ("linalg.rref.max_cols", "cols", "lower"),
    ("linalg.solve_batch.targets", "count", "lower"),
    ("linalg.rank.self_s", "s", "lower"),
    ("linalg.congruence_signature.self_s", "s", "lower"),
    ("liealg.structure_constants.calls", "count", "lower"),
    ("liealg.structure_constants.self_s", "s", "lower"),
    ("liealg.structure_constants.unique_frac", "ratio", "higher"),
    ("liealg.bracket.calls", "count", "lower"),
    ("liealg.bracket.self_s", "s", "lower"),
    ("liealg.killing.calls", "count", "lower"),
    ("liealg.killing.self_s", "s", "lower"),
    ("liealg.killing.unique_frac", "ratio", "higher"),
    ("liealg.basis_init.self_s", "s", "lower"),
    ("liealg.matrix_exp.calls", "count", "lower"),
    ("liealg.matrix_exp.self_s", "s", "lower"),
    ("liealg.commutant_dimension.self_s", "s", "lower"),
    ("bases.build.self_s", "s", "lower"),
    ("clifford.spin26_generators.calls", "count", "lower"),
    ("clifford.spin26_generators.self_s", "s", "lower"),
    ("clifford.validate.self_s", "s", "lower"),
    ("triality.transformed_spin_reps.self_s", "s", "lower"),
    ("triality.apply_triality.self_s", "s", "lower"),
] + [(f"cli.suite.{name}.s", "s", "lower") for name, _, _ in SUITE_FUNCTIONS] + [
    ("cli.suite.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("report.dumps.self_s", "s", "lower"),
    ("report.bytes", "bytes", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.self_sum_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
]


# ---------------------------------------------------------------------------
# hooks
# ---------------------------------------------------------------------------


def _content_key(basis):
    """Generator content of a basis; equal keys mean repeated work."""
    return (basis.realization,
            tuple(tuple(basis.coords(g)) for g in basis.generators))


def _before_rref(t, args) -> None:
    rows = args[0]
    t.maxima["linalg.rref.max_rows"] = max(t.maxima["linalg.rref.max_rows"],
                                           len(rows))
    t.maxima["linalg.rref.max_cols"] = max(t.maxima["linalg.rref.max_cols"],
                                           len(rows[0]) if rows else 0)


def _before_solve_batch(t, args) -> None:
    t.counts["linalg.solve_batch.targets"] += len(args[1])


def _before_structure_constants(t, args) -> None:
    t.keys["liealg.structure_constants"].add(_content_key(args[0]))


def _after_structure_constants(t, tensor) -> None:
    bits = max((coeff_bits(v) for row in tensor.table.values()
                for v in row.values()), default=0)
    t.maxima["scalars.max_coeff_bits"] = max(t.maxima["scalars.max_coeff_bits"],
                                             bits)


def _before_killing(t, args) -> None:
    t.keys["liealg.killing"].add(_content_key(args[0]))


def _after_dumps(t, text) -> None:
    t.counts["report.bytes"] += len(text.encode("utf-8"))


def _count_scalar_mul(t, a, b) -> None:
    t.counts["scalars.mul.calls"] += 1
    if a.b or a.c or a.d or (type(b) is scalars.ExactScalar and (b.b or b.c or b.d)):
        t.counts["scalars.mul.irrational"] += 1


def _count_quaternion_mul(t, a, b) -> None:
    t.counts["quaternion.mul.calls"] += 1


def _cmatrix_span_name(args) -> str:
    return ("hmatrix.cmatrix_matmul_exact" if args[0].mode == "exact"
            else "hmatrix.cmatrix_matmul_float")


def install(tracer) -> None:
    """Patch spans and counters into every layer; `tracer.uninstall()` undoes it."""
    tracer.count_method(scalars.ExactScalar, "__mul__", _count_scalar_mul)
    tracer.count_method(quaternion.Quaternion, "__mul__", _count_quaternion_mul)
    tracer.wrap_method(hmatrix.HMatrix, "__matmul__", "hmatrix.hmatrix_matmul")
    tracer.wrap_method(hmatrix.CMatrix, "__matmul__", _cmatrix_span_name)
    for attr in ("is_sostar_group_embedded", "is_su_group_embedded"):
        tracer.wrap_function(hmatrix, attr, "hmatrix.embedded_membership")
    tracer.wrap_function(linalg, "rref", "linalg.rref", before=_before_rref)
    tracer.wrap_function(linalg, "solve_batch", "linalg.solve_batch",
                         before=_before_solve_batch)
    tracer.wrap_function(linalg, "rank", "linalg.rank")
    tracer.wrap_function(linalg, "congruence_signature",
                         "linalg.congruence_signature")
    tracer.wrap_function(liealg, "structure_constants",
                         "liealg.structure_constants",
                         before=_before_structure_constants,
                         after=_after_structure_constants)
    tracer.wrap_function(liealg, "bracket", "liealg.bracket")
    tracer.wrap_function(liealg, "killing", "liealg.killing",
                         before=_before_killing)
    tracer.wrap_method(liealg.LieBasis, "__init__", "liealg.basis_init")
    tracer.wrap_function(liealg, "matrix_exp", "liealg.matrix_exp")
    tracer.wrap_function(liealg, "commutant_dimension",
                         "liealg.commutant_dimension")
    for attr in BASIS_BUILDERS:
        tracer.wrap_function(bases, attr, "bases.build")
    tracer.wrap_function(clifford, "spin26_generators",
                         "clifford.spin26_generators")
    tracer.wrap_method(clifford.CliffordBasis, "validate", "clifford.validate")
    tracer.wrap_function(triality, "transformed_spin_reps",
                         "triality.transformed_spin_reps")
    tracer.wrap_function(triality, "apply_triality", "triality.apply_triality")
    for suite, module, attr in SUITE_FUNCTIONS:
        tracer.wrap_function(module, attr, f"cli.suite.{suite}")
    tracer.wrap_function(cli, "main", "cli.main")
    tracer.wrap_function(report, "dumps", "report.dumps", after=_after_dumps)


def metrics(tracer, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics of one traced pass, as {name: value}."""
    t = tracer
    self_sum = t.self_sum()
    out = {}
    for name, _, _ in PER_LAYER:
        span, _, kind = name.rpartition(".")
        if kind == "calls":
            out[name] = t.counts[name] if name in t.counts else t.calls[span]
        elif kind == "self_s":
            out[name] = t.self_s[span]
        elif kind == "unique_frac":
            out[name] = len(t.keys[span]) / t.calls[span] if t.calls[span] else 0.0
    for suite, _, _ in SUITE_FUNCTIONS:
        out[f"cli.suite.{suite}.s"] = t.total_s[f"cli.suite.{suite}"]
    out["cli.suite.self_s"] = sum(t.self_s[f"cli.suite.{s}"]
                                  for s, _, _ in SUITE_FUNCTIONS)
    out["cli.self_s"] = t.self_s["cli.main"]
    calls = t.counts["scalars.mul.calls"]
    out["scalars.mul.irrational_frac"] = (
        t.counts["scalars.mul.irrational"] / calls if calls else 0.0)
    out["scalars.max_coeff_bits"] = t.maxima["scalars.max_coeff_bits"]
    out["report.bytes"] = t.counts["report.bytes"]
    out["linalg.solve_batch.targets"] = t.counts["linalg.solve_batch.targets"]
    out["linalg.rref.max_rows"] = t.maxima["linalg.rref.max_rows"]
    out["linalg.rref.max_cols"] = t.maxima["linalg.rref.max_cols"]
    out["trace.wall_s"] = traced_wall
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.overhead_s"] = traced_wall - untraced_wall
    out["trace.self_sum_s"] = self_sum
    out["trace.unattributed_s"] = traced_wall - self_sum
    return out


# ---------------------------------------------------------------------------
# microbenchmarks: microseconds per operation on fixed operand sets
# ---------------------------------------------------------------------------

ExactScalar = scalars.ExactScalar
_SMALL = [Fraction(p, q) for p in range(-12, 13) if p for q in (1, 2, 3, 4, 6, 12)]


def _rational(rng) -> ExactScalar:
    return ExactScalar(rng.choice(_SMALL))


def _irrational(rng) -> ExactScalar:
    return ExactScalar(*(rng.choice(_SMALL) for _ in range(4)))


def _per_op_us(op, pairs, repeats: int = 7) -> float:
    """Median over `repeats` sweeps of the mean time of `op` on `pairs`."""
    samples = []
    for _ in range(repeats):
        t0 = perf_counter()
        for a, b in pairs:
            op(a, b)
        samples.append((perf_counter() - t0) / len(pairs) * 1e6)
    return statistics.median(samples)


def microbench(grown: list) -> dict:
    """Time the scalar and quaternion operations in isolation.

    `grown` holds coefficients taken from a dense_mixed structure tensor,
    so "grown" products run on operands of realistic bit length.
    """
    rng = random.Random(20250406)
    count = 256
    rational = [(_rational(rng), _rational(rng)) for _ in range(count)]
    irrational = [(_irrational(rng), _irrational(rng)) for _ in range(count)]
    grown_pairs = [(grown[i], grown[(7 * i + 3) % len(grown)])
                   for i in range(len(grown))]
    complexes = [(scalars.ExactComplex(_irrational(rng), _irrational(rng)),
                  scalars.ExactComplex(_irrational(rng), _irrational(rng)))
                 for _ in range(count)]
    quats = [(quaternion.Quaternion(*(_rational(rng) for _ in range(4))),
              quaternion.Quaternion(*(_rational(rng) for _ in range(4))))
             for _ in range(count)]
    mixed = rational[: count // 2] + irrational[: count // 2]
    return {
        "scalars.add_us": _per_op_us(operator.add, mixed),
        "scalars.mul_rational_us": _per_op_us(operator.mul, rational),
        "scalars.mul_irrational_us": _per_op_us(operator.mul, irrational),
        "scalars.mul_grown_us": _per_op_us(operator.mul, grown_pairs),
        "scalars.inverse_us": _per_op_us(lambda a, _: a.inverse(), irrational),
        "scalars.complex_mul_us": _per_op_us(operator.mul, complexes),
        "quaternion.mul_us": _per_op_us(operator.mul, quats),
    }
