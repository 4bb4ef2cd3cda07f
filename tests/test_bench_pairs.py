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


@pytest.mark.parametrize("bad", [["--pairs", "0"], ["--pairs", "-3"],
                                 ["--seconds", "0"], ["--seconds", "-1"],
                                 ["--seconds", "nan"]])
def test_main_rejects_an_empty_or_timeless_run_before_any_run(bad, monkeypatch,
                                                              capsys):
    def run_once(*args):
        raise AssertionError("a benchmark run started")

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "time_export", run_once)
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--parent", str(ROOT), "--change", str(ROOT), "--pr", "0",
                          "--workload", "verify_all", "--seed", "7", *bad])
    assert exit_info.value.code == 2
    assert bad[0] in capsys.readouterr().err
