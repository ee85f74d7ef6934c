"""The verdicts and summary of tools/bench_pairs.py, on made-up runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _run(wall, digests=("aa", "bb"), correct=True, failed=0):
    return {"correct": correct, "attempted": len(digests), "failed": failed,
            "metrics": {"wall_s": wall}, "digests": list(digests), "errors": [], "env": {}}


def _pairs(parent, change, **change_kw):
    return [
        {"first": ("parent", "change")[i % 2], "parent": _run(p), "change": _run(c, **change_kw)}
        for i, (p, c) in enumerate(zip(parent, change))
    ]


def test_summary_of_clean_pairs():
    section = bench_pairs.summarize(_pairs([10.0, 12.0, 11.0, 13.0], [6.0, 9.0, 7.0, 14.0]))
    assert section["digests_equal"] and section["all_correct_no_failed_ops"]
    wall = section["summary"]["wall_s"]
    assert wall["parent"]["median"] == 11.5 and wall["change"]["median"] == 8.0
    assert wall["parent"]["q1"] == 10.75 and wall["parent"]["q3"] == 12.25
    assert wall["parent_iqr"] == 1.5 and wall["resolved"] is True
    assert wall["median_ratio"] == round(8.0 / 11.5, 4)
    assert wall["change_lower_in_pairs"] == 3 and wall["change_higher_in_pairs"] == 1
    assert wall["pairs"] == 4
    assert wall["pair_ratios"] == [0.6, 0.75, round(7 / 11, 4), round(14 / 13, 4)]
    assert [r["first"] for r in section["runs"]] == ["parent", "change"] * 2
    assert bench_pairs.verdict_line("w", "wall_s", wall) == (
        "w: wall_s change/parent median 0.6957, lower in 3 of 4 pairs"
    )


@pytest.mark.parametrize("change,resolved", [
    ([11.0, 11.5, 10.5, 12.0], False),  # medians equal
    ([10.0, 10.5, 10.0, 11.0], False),  # 11.5 -> 10.25: 1.25 is inside the IQR of 1.5
    ([10.0, 10.0, 10.0, 10.0], False),  # 11.5 -> 10.0: exactly the IQR
    ([9.5, 10.0, 9.5, 10.5], True),  # 11.5 -> 9.75
    ([13.5, 14.0, 13.0, 14.0], True),  # 11.5 -> 13.75: a resolved rise
])
def test_a_median_shift_within_the_parent_iqr_is_unresolved(change, resolved):
    wall = bench_pairs.summarize(_pairs([10.0, 12.0, 11.0, 13.0], change))["summary"]["wall_s"]
    assert wall["parent_iqr"] == 1.5 and wall["resolved"] is resolved
    line = bench_pairs.verdict_line("w", "wall_s", wall)
    assert line.endswith("unresolved: the medians differ by no more than the parent IQR 1.5") != resolved


@pytest.mark.parametrize("change,lower,gain", [
    ([9.0, 9.5, 9.0, 9.5, 9.0, 9.5, 9.0, 9.5, 9.0, 9.5], 10, True),
    ([9.0, 9.5, 9.0, 9.5, 9.0, 9.5, 9.0, 9.5, 9.0, 12.5], 9, True),  # 9 of 10 pairs
    ([9.0, 9.5, 9.0, 9.5, 9.0, 9.5, 9.0, 9.5, 12.0, 12.5], 8, False),  # 8 of 10
    ([9.0, 9.5, 9.0, 9.5, 9.0, 9.5, 9.0, 9.5, 9.0, 12.0], 9, True),  # a tie counts for neither
    # lower in every pair, but the median moves 11.5 -> 11.0, inside the IQR of 1.25
    ([9.5, 11.5, 10.5, 12.5, 9.5, 11.5, 10.5, 12.5, 10.5, 11.5], 10, False),
])
def test_a_gain_needs_nine_tenths_of_the_pairs_and_a_resolved_median(change, lower, gain):
    parent = [10.0, 12.0, 11.0, 13.0, 10.0, 12.0, 11.0, 13.0, 11.0, 12.0]
    wall = bench_pairs.summarize(_pairs(parent, change), {"wall_s": 0.25})["summary"]["wall_s"]
    assert wall["change_lower_in_pairs"] == lower and wall["gain"] is gain
    assert wall["worse_than_bound"] is False
    assert bench_pairs.gain_line("w", "wall_s", wall) == (
        f"w: wall_s gain {'yes' if gain else 'no'}, worse than its bound no"
    )


def test_a_gain_needs_ten_pairs():
    # lower in 4 of 4 pairs and resolved, but fewer pairs than the rule asks
    wall = bench_pairs.summarize(_pairs([10.0, 12.0, 11.0, 13.0], [6.0, 7.0, 6.0, 7.0]))
    assert wall["summary"]["wall_s"]["resolved"] is True
    assert wall["summary"]["wall_s"]["gain"] is False


@pytest.mark.parametrize("change,worse", [
    ([14.0, 14.0, 14.0, 14.0], False),  # 11.5 -> 14.0: 21.7% over, inside 25%
    ([14.375, 14.375, 14.375, 14.375], False),  # exactly 25% over
    ([14.5, 14.5, 14.5, 14.5], True),  # 26% over
])
def test_worse_than_bound_reads_the_bound_as_a_fraction_of_the_parent_median(change, worse):
    pairs = _pairs([10.0, 12.0, 11.0, 13.0], change)
    wall = bench_pairs.summarize(pairs, {"wall_s": 0.25})["summary"]["wall_s"]
    assert wall["worse_than_bound"] is worse and wall["gain"] is False
    assert bench_pairs.summarize(pairs)["summary"]["wall_s"]["worse_than_bound"] is None
    assert bench_pairs.gain_line("w", "wall_s", wall).endswith(
        f"worse than its bound {'yes' if worse else 'no'}"
    )


def test_bounds_are_the_benchmark_end_to_end_bounds():
    assert bench_pairs.bounds() == {"wall_s": 0.25, "setup_s": 0.25, "peak_rss_mb": 0.1}


@pytest.mark.parametrize("change_kw,digests_equal,all_correct", [
    ({"digests": ("aa", "bc")}, False, True),
    ({"correct": False}, True, False),
    ({"failed": 1}, True, False),
])
def test_a_broken_side_fails_the_verdict(change_kw, digests_equal, all_correct):
    section = bench_pairs.summarize(_pairs([10.0, 11.0], [9.0, 9.5], **change_kw))
    assert section["digests_equal"] is digests_equal
    assert section["all_correct_no_failed_ops"] is all_correct


def test_a_run_that_did_not_finish_fails_both_verdicts():
    pairs = _pairs([10.0, 11.0], [9.0, 9.5])
    pairs[1]["change"] = {"error": "run.py exited 2: worker did not become ready"}
    section = bench_pairs.summarize(pairs)
    assert not section["digests_equal"] and not section["all_correct_no_failed_ops"]
    assert section["errors"] == ["run.py exited 2: worker did not become ready"]
    assert section["summary"]["wall_s"]["pairs"] == 1


def test_machine_records_cores_and_two_process_throughput(monkeypatch):
    machine = bench_pairs._machine(None)
    assert machine["affinity_cpus"] is None or machine["affinity_cpus"] >= 1
    # the throughput is read once per workload, before its first pair
    events = []
    spin = bench_pairs.two_process_throughput

    def reading():
        events.append("throughput")
        return spin(16)

    def fake_run(checkout, workload, seed, seconds):
        events.append((checkout, workload, seed))
        return _run(10.0)

    monkeypatch.setattr(bench_pairs, "two_process_throughput", reading)
    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    dirs = {"parent": "p", "change": "c"}
    section, pairs = bench_pairs.run_workload(dirs, "w@3", 2, 1.0)
    assert events == ["throughput", ("p", "w", 3), ("c", "w", 3), ("c", "w", 3), ("p", "w", 3)]
    ratio = section["two_process_throughput"]
    assert isinstance(ratio, float) and ratio > 0.0
    assert section["seed"] == 3 and len(pairs) == 2 and section["digests_equal"]


def test_src_lines_counts_the_package_modules_as_wc_does(tmp_path):
    pkg = tmp_path / "src" / "hlip"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\n\ny = 2\n")
    (pkg / "b.py").write_text("z = 3")  # no final newline: wc -l counts 0
    (pkg / "notes.txt").write_text("not\ncounted\n")
    (tmp_path / "src" / "other.py").write_text("not counted\n")
    assert bench_pairs.src_lines(tmp_path) == 3
