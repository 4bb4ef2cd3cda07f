"""The pair summary of tools/bench_pairs.py."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _bench_pairs()


def test_pair_summary_of_known_values():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.5, 1.5, 4.0, 3.0]
    got = bench_pairs.pair_summary(parent, change)
    assert got["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert got["change"] == {"median": 2.5, "q1": 1.5, "q3": 3.0}
    assert got["ratio_of_medians"] == 0.8333
    assert got["parent_iqr"] == 2.0
    # pairs 0, 2 and 4 lower, pair 1 higher, pair 3 tied
    assert (got["change_lower_in_pairs"], got["change_higher_in_pairs"]) == (3, 1)


def test_pair_summary_needs_one_value_per_side_and_pair():
    with pytest.raises(ValueError):
        bench_pairs.pair_summary([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        bench_pairs.pair_summary([], [])


def test_summaries_of_the_recorded_runs_reproduce_the_record():
    record = json.loads((ROOT / "BENCH_11.json").read_text(encoding="utf-8"))
    for key, want in record["summary"].items():
        workload, seed = key.split("/seed")
        runs = [r for r in record["runs"]
                if r["workload"] == workload and r["seed"] == int(seed)]
        assert bench_pairs.summarise(runs) == want


def test_verdict_of_a_winning_row():
    parent = [0.060, 0.062, 0.061, 0.064, 0.059, 0.063, 0.060, 0.061, 0.062, 0.060]
    change = [0.033, 0.034, 0.033, 0.035, 0.032, 0.034, 0.033, 0.033, 0.036, 0.032]
    got = bench_pairs.verdict(bench_pairs.pair_summary(parent, change), 10, 0.24)
    assert got == {"lower_frac": 1.0, "gap_exceeds_parent_iqr": True,
                   "within_bound": True}


def test_verdict_of_a_row_in_the_noise():
    parent = [0.080, 0.084, 0.079, 0.090, 0.082, 0.081, 0.085, 0.083, 0.080, 0.086]
    change = [0.081, 0.083, 0.080, 0.088, 0.083, 0.080, 0.086, 0.082, 0.079, 0.087]
    row = bench_pairs.pair_summary(parent, change)
    assert row["parent_iqr"] > abs(row["parent"]["median"] - row["change"]["median"])
    got = bench_pairs.verdict(row, 10, 0.24)
    assert got == {"lower_frac": 0.5, "gap_exceeds_parent_iqr": False,
                   "within_bound": True}


def test_verdict_of_a_row_past_the_bound():
    parent = [24.9, 25.0, 24.8, 25.1, 24.9]
    change = [27.6, 27.7, 27.5, 27.8, 27.6]  # 11% above, bound 10%
    got = bench_pairs.verdict(bench_pairs.pair_summary(parent, change), 5, 0.1)
    assert got == {"lower_frac": 0.0, "gap_exceeds_parent_iqr": False,
                   "within_bound": False}
    # the same gap is within a bound of a quarter, and a metric that is
    # better higher reads it as a gain
    assert bench_pairs.verdict(bench_pairs.pair_summary(parent, change), 5, 0.25)[
        "within_bound"]
    assert bench_pairs.verdict(bench_pairs.pair_summary(parent, change), 5, 0.1,
                               "higher")["gap_exceeds_parent_iqr"]


def test_summaries_with_bounds_add_a_verdict_to_each_metric():
    record = json.loads((ROOT / "BENCH_11.json").read_text(encoding="utf-8"))
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: (m["bound"], m["better"]) for m in benchmark["end_to_end"]}
    key, want = next(iter(record["summary"].items()))
    workload, seed = key.split("/seed")
    runs = [r for r in record["runs"]
            if r["workload"] == workload and r["seed"] == int(seed)]
    got = bench_pairs.summarise(runs, bounds)
    for name in bench_pairs.METRICS:
        assert got[name].pop("verdict") == bench_pairs.verdict(
            want[name], want["pairs"], *bounds[name])
    assert got == want


def test_export_summary_of_known_values():
    got = bench_pairs.export_summary([1.0314, 1.15, 1.2], [0.9375, 0.95, 1.19],
                                     "ae1b", "ae1b")
    assert got["parent_s"] == [1.031, 1.15, 1.2]
    assert got["change_s"] == [0.938, 0.95, 1.19]
    assert got["sha256"] == {"parent": "ae1b", "change": "ae1b"}
    assert got["byte_identical"] is True
    assert list(got) == list(json.loads(
        (ROOT / "BENCH_12.json").read_text(encoding="utf-8"))["export"])
    differ = bench_pairs.export_summary([1.0], [1.0], "ae1b", "60fd")
    assert differ["byte_identical"] is False
    assert differ["sha256"] == {"parent": "ae1b", "change": "60fd"}


def test_phase_summary_of_known_values():
    parent = [{"build_s": 0.2, "dumps_s": 0.56}, {"build_s": 0.3, "dumps_s": 0.6},
              {"build_s": 0.25, "dumps_s": 0.5}]
    change = [{"build_s": 0.2, "dumps_s": 0.35}, {"build_s": 0.15, "dumps_s": 0.4},
              {"build_s": 0.123456, "dumps_s": 0.3}]
    got = bench_pairs.phase_summary(parent, change)
    assert list(got) == ["build_s", "dumps_s"]
    assert got["build_s"] == {"parent_s": [0.2, 0.3, 0.25],
                              "change_s": [0.2, 0.15, 0.1235],
                              "median": {"parent": 0.25, "change": 0.15},
                              "ratio_of_medians": 0.6}
    assert got["dumps_s"]["median"] == {"parent": 0.56, "change": 0.35}
    assert got["dumps_s"]["ratio_of_medians"] == 0.625


def _exit_before_any_run(monkeypatch, args) -> int:
    """The exit code of `main(args)`, which must stop before any run."""
    def run_once(*args):
        raise AssertionError("a benchmark run started")

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "time_export", run_once)
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--parent", str(ROOT), "--change", str(ROOT), "--pr", "0",
                          *args])
    return exit_info.value.code


@pytest.mark.parametrize("bad", [["--pairs", "0"], ["--pairs", "-3"],
                                 ["--seconds", "0"], ["--seconds", "-1"],
                                 ["--seconds", "nan"]])
def test_main_rejects_an_empty_or_timeless_run_before_any_run(bad, monkeypatch,
                                                              capsys):
    args = ["--workload", "verify_all", "--seed", "7", *bad]
    assert _exit_before_any_run(monkeypatch, args) == 2
    assert bad[0] in capsys.readouterr().err


@pytest.mark.parametrize("workloads, seeds, message", [
    (["verify_al"], ["7"], "no workload verify_al "),
    (["verify_all", "dense_mix"], ["7"], "no workload dense_mix "),
    (["verify_all", "verify_all"], ["7"], "--workload repeats"),
    (["verify_all", "dense_mixed"], ["7", "31", "7"], "--seed repeats"),
], ids=["misspelt", "misspelt-second", "repeated-workload", "repeated-seed"])
def test_main_rejects_unknown_or_repeated_workloads_and_seeds_before_any_run(
        workloads, seeds, message, monkeypatch, capsys):
    args = [arg for w in workloads for arg in ("--workload", w)]
    args += [arg for s in seeds for arg in ("--seed", s)]
    assert _exit_before_any_run(monkeypatch, args) == 2
    assert message in capsys.readouterr().err
