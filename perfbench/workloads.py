"""The benchmark workloads and the verdict checks on their outputs.

Each workload has `prepare()` (the run's inputs, made once from the seed,
untimed), `run(inputs)` (one pass of the program's work, timed, repeated on
the same inputs) and `check(inputs, output)` (verdicts, untimed) returning
(operations attempted, operations failed).  `run` calls only public functions
of sostar, through module attributes, so a traced run sees the patched names.

* verify_all  -- ``sostar verify --suite all --json``, the command users run,
                 on its fixed inputs.  Sparse rational data; exact 8x8
                 CMatrix brackets in triality dominate; the only workload
                 with the clifford checks and the float path (matrix_exp,
                 embedded group membership).
* dense_mixed -- seeded recombinations of the generic so*(6) and so*(8)
                 bases with coefficients in Q(sqrt2, sqrt3): dense tensors,
                 irrational arithmetic and coefficient growth, where every
                 named basis is sparse with denominators dividing 12.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

from sostar import bases, cli, isogeny, liealg, scalars

HERE = Path(__file__).resolve().parent
REFERENCES = json.loads((HERE / "references.json").read_text(encoding="utf-8"))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def coeff_bits(x: scalars.ExactScalar) -> int:
    """Largest numerator or denominator bit length among the coordinates."""
    return max(max(abs(f.numerator).bit_length(), f.denominator.bit_length())
               for f in (x.a, x.b, x.c, x.d))


# ---------------------------------------------------------------------------
# verify_all
# ---------------------------------------------------------------------------


def check_verify_report(text: bytes | None, exit_code: int | None,
                        expected_sha256: str) -> tuple[int, int]:
    """Verdict on one ``verify --json`` run.

    Every sub-check in the report is one operation, failed when it reads
    FAILED; the report as a whole is one more, failed on a nonzero exit code,
    a missing or unparsable report, or bytes that differ from the reference.
    """
    whole_ok = exit_code == 0 and text is not None
    checks = failed = 0
    if text is not None:
        try:
            doc = json.loads(text)
        except ValueError:
            whole_ok = False
        else:
            for suite in doc["suites"]:
                for claim in suite["claims"]:
                    for witness in claim["witnesses"]:
                        checks += 1
                        failed += witness["description"].startswith("FAILED")
        whole_ok = whole_ok and sha256(text) == expected_sha256
    return checks + 1, failed + (not whole_ok)


class VerifyAll:
    name = "verify_all"

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.report_path = out_dir / "verify_report.json"
        self.expected = REFERENCES["verify_all"]["report_sha256"]

    def prepare(self) -> Path:
        self.report_path.unlink(missing_ok=True)
        return self.report_path

    def run(self, path: Path) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["verify", "--suite", "all", "--json", str(path)])

    def check(self, path: Path, exit_code) -> tuple[int, int]:
        """Judge the report, then remove it so the next pass writes afresh."""
        text = path.read_bytes() if path.exists() else None
        path.unlink(missing_ok=True)
        return check_verify_report(text, exit_code, self.expected)


# ---------------------------------------------------------------------------
# dense_mixed
# ---------------------------------------------------------------------------

# (so*(2n) rank n, other generators mixed into each one), one basis each.
DENSE_PASS = ((3, 2), (3, 2), (4, 1))
_NUMERATORS = (-3, -2, -1, 1, 2, 3)
_DENOMINATORS = (1, 2, 3)


def _small(rng: random.Random) -> Fraction:
    return Fraction(rng.choice(_NUMERATORS), rng.choice(_DENOMINATORS))


def dense_generators(rng: random.Random, n: int, extra: int) -> list:
    """Recombine the generic so*(2n) basis.

    In a fixed shuffled order each generator gains up to `extra` later
    generators, the j-th with coefficient r + s*sqrt2 or r + s*sqrt3
    (alternating along the order), where r and s are small nonzero rationals
    drawn from `rng`.  Which generators mix and which square roots appear is
    the same for every seed, so the work per basis barely depends on the
    seed; the seed sets the coefficient values.  The change of basis is unit
    triangular in the shuffled order, so it is invertible and the result
    spans the same algebra.
    """
    gens = bases.generic_basis(bases.SO_STAR, n).generators
    pattern = random.Random(f"dense_mixed/pattern/{n}/{extra}")
    order = list(range(len(gens)))
    pattern.shuffle(order)
    out = list(gens)
    for pos, k in enumerate(order):
        later = order[pos + 1:]
        for j, other in enumerate(pattern.sample(later, min(extra, len(later)))):
            coords = [_small(rng), 0, 0, 0]
            coords[1 + (pos + j) % 2] = _small(rng)
            out[k] = out[k] + gens[other].scale(scalars.ExactScalar(*coords))
    return out


def check_dense(n: int, outcome) -> bool:
    """Verdict on one generated basis: it closed (the outcome is not an
    exception) with the dimension and Killing signature of so*(2n)."""
    if isinstance(outcome, Exception):
        return False
    row = isogeny.table_row(bases.SO_STAR, n)
    return outcome == (row["dim"], (row["n_minus"], row["n_plus"], 0))


def analyse(gens) -> tuple:
    """The program's work on one generated basis: build it, expand every
    bracket, and take the Killing signature."""
    basis = liealg.LieBasis("dense", liealg.QUATERNIONIC, gens)
    basis.structure_constants()
    return basis.dim, tuple(liealg.killing(basis).signature)


class DenseMixed:
    name = "dense_mixed"

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed

    def prepare(self) -> list:
        rng = random.Random(f"dense_mixed/{self.seed}")
        return [(n, dense_generators(rng, n, extra)) for n, extra in DENSE_PASS]

    def run(self, items) -> list:
        outcomes = []
        for _, gens in items:
            try:
                outcomes.append(analyse(gens))
            except Exception as exc:  # a raising basis is a failed operation
                outcomes.append(exc)
        return outcomes

    def check(self, items, outcomes) -> tuple[int, int]:
        outcomes = outcomes if outcomes is not None else [None] * len(items)
        failed = sum(not check_dense(n, outcome)
                     for (n, _), outcome in zip(items, outcomes))
        return len(items), failed


def grown_operands(count: int = 64) -> list:
    """The `count` structure constants with the longest coefficients from one
    fixed dense_mixed so*(6) basis (the first basis of seed 0)."""
    rng = random.Random("dense_mixed/0")
    basis = liealg.LieBasis("dense", liealg.QUATERNIONIC,
                            dense_generators(rng, *DENSE_PASS[0]))
    values = [v for row in basis.structure_constants().table.values()
              for v in row.values()]
    values.sort(key=coeff_bits, reverse=True)
    return values[:count]


WORKLOADS = {w.name: w for w in (VerifyAll, DenseMixed)}
