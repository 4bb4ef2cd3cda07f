"""The benchmark's own tests: its verdicts can fail (negative controls), its
tracer attributes time and restores what it patches, and BENCHMARK.json
lists exactly the metrics the benchmark prints.

    python3 -m pytest perfbench -q
"""

import json
import random
import shutil
import subprocess
import sys

import pytest

import layers
import run
import tracer as tracing
import workloads
from sostar import cli, isogeny, liealg, quaternion
from sostar.hmatrix import HMatrix

ROOT = run.ROOT


def test_benchmark_json_matches_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        layers.PER_LAYER


# -- verify_all --------------------------------------------------------------


@pytest.fixture(scope="module")
def small_report(tmp_path_factory):
    path = tmp_path_factory.mktemp("report") / "report.json"
    assert cli.main(["verify", "--suite", "sostar2", "--json", str(path)]) == 0
    return path.read_bytes()


def test_report_matching_its_digest_passes(small_report):
    attempted, failed = workloads.check_verify_report(
        small_report, 0, workloads.sha256(small_report))
    assert attempted == 11 and failed == 0


def test_perturbed_report_digest_fails(small_report):
    digest = workloads.sha256(small_report)
    perturbed = ("0" if digest[0] != "0" else "1") + digest[1:]
    assert workloads.check_verify_report(small_report, 0, perturbed)[1] > 0


def test_perturbed_report_bytes_fail(small_report):
    digest = workloads.sha256(small_report)
    text = small_report.replace(b'"passed": true', b'"passed": false', 1)
    assert workloads.check_verify_report(text, 0, digest)[1] > 0


def test_failed_subcheck_and_exit_code_fail(small_report):
    digest = workloads.sha256(small_report)
    text = small_report.replace(b'"description": "', b'"description": "FAILED: ', 1)
    assert workloads.check_verify_report(text, 1, workloads.sha256(text))[1] == 2
    assert workloads.check_verify_report(None, 0, digest) == (1, 1)


# -- dense_mixed -----------------------------------------------------------------


def _so4_generators(seed=0):
    return workloads.dense_generators(random.Random(seed), 2, 2)


def test_dense_basis_passes():
    workload = workloads.DenseMixed(0, ROOT)
    items = [(2, _so4_generators())]
    assert workload.check(items, workload.run(items)) == (1, 0)


def test_wrong_expected_signature_fails():
    workload = workloads.DenseMixed(0, ROOT)
    items = [(3, _so4_generators())]  # so*(4) judged against so*(6)'s row
    assert workload.check(items, workload.run(items)) == (1, 1)


def test_raising_basis_fails():
    workload = workloads.DenseMixed(0, ROOT)
    gens = _so4_generators()
    not_closed = gens[:-1] + [HMatrix([[quaternion.Quaternion(1), 0], [0, 0]])]
    dependent = gens[:-1] + [gens[0]]
    items = [(2, not_closed), (2, dependent)]
    outcomes = workload.run(items)
    assert all(isinstance(o, ValueError) for o in outcomes)
    assert workload.check(items, outcomes) == (2, 2)


def test_dense_inputs_repeat_per_seed():
    a = workloads.DenseMixed(7, ROOT).prepare()
    b = workloads.DenseMixed(7, ROOT).prepare()
    c = workloads.DenseMixed(8, ROOT).prepare()
    assert [g for _, gens in a for g in gens] == [g for _, gens in b for g in gens]
    assert [g for _, gens in a for g in gens] != [g for _, gens in c for g in gens]


# -- tracing ---------------------------------------------------------------------


def test_self_time_excludes_children():
    t = tracing.Tracer()
    inner = t.span_wrapper(lambda: sum(range(20000)), "inner")
    outer = t.span_wrapper(lambda: [inner() for _ in range(3)], "outer")
    outer()
    assert t.calls == {"outer": 1, "inner": 3}
    assert t.total_s["outer"] == pytest.approx(t.self_s["outer"] + t.total_s["inner"])
    assert t.self_sum() == pytest.approx(t.total_s["outer"])
    assert [s[1] for s in t.spans] == [-1, 0, 0, 0]


def _traced_so4():
    t = tracing.Tracer()
    layers.install(t)
    try:
        workloads.analyse(_so4_generators())
    finally:
        t.uninstall()
    return layers.metrics(t, 1.0, 1.0)


def test_install_patches_every_binding_and_uninstall_restores():
    originals = (liealg.bracket, isogeny.bracket, liealg.LieBasis.__init__)
    t = tracing.Tracer()
    layers.install(t)
    try:
        assert liealg.bracket is not originals[0]
        assert isogeny.bracket is liealg.bracket
        assert liealg.LieBasis.__init__ is not originals[2]
    finally:
        t.uninstall()
    assert (liealg.bracket, isogeny.bracket, liealg.LieBasis.__init__) == originals


def test_traced_counts_repeat_exactly():
    first, second = _traced_so4(), _traced_so4()
    counts = [name for name, unit, _ in layers.PER_LAYER
              if unit in ("count", "bits", "rows", "cols")]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert first["liealg.bracket.calls"] == 15  # 6 generators: 6*5/2 pairs
    assert first["hmatrix.hmatrix_matmul.calls"] == 30
    assert first["scalars.mul.calls"] > 0


# -- the command -----------------------------------------------------------------


def test_run_without_program_sources_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_all",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
