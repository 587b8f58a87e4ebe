"""Tests of the benchmark's pure helpers.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests``.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from harness import (  # noqa: E402
    check_repeat,
    generator_kept_schedule,
    open_loop_accounting,
    percentile,
    samples_needed,
    self_times,
    source_digest,
    supports,
    tail,
)


# ----------------------------------------------------------------------
# percentile rule: a percentile needs ten samples beyond it
# ----------------------------------------------------------------------
def test_percentile_interpolates_like_numpy():
    xs = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert percentile(xs, 0) == 1.0
    assert percentile(xs, 50) == 3.0
    assert percentile(xs, 100) == 5.0
    assert percentile(xs, 90) == pytest.approx(4.6)


@pytest.mark.parametrize(
    "p, needed", [(50, 20), (90, 100), (99, 1000), (99.9, 10000)]
)
def test_samples_needed_leaves_ten_beyond(p, needed):
    assert samples_needed(p) == needed
    assert supports(needed, p)
    assert not supports(needed - 1, p)


def test_ten_samples_lie_beyond_a_supported_p99():
    xs = list(range(1000))
    cut = tail(xs, 99)
    assert sum(1 for x in xs if x > cut) >= 10


def test_tail_refuses_an_unsupported_percentile():
    with pytest.raises(ValueError, match="p99 needs 1000 samples"):
        tail(list(range(999)), 99)


# ----------------------------------------------------------------------
# self time: duration minus the union of child intervals
# ----------------------------------------------------------------------
def test_self_time_without_children_is_the_duration():
    assert self_times([(0, None, 1.0, 3.5)]) == {0: 2.5}


def test_self_time_subtracts_disjoint_children():
    spans = [(0, None, 0.0, 10.0), (1, 0, 1.0, 3.0), (2, 0, 5.0, 6.0)]
    got = self_times(spans)
    assert got[0] == pytest.approx(7.0)
    assert got[1] == pytest.approx(2.0)
    assert got[2] == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_once():
    # two concurrent children covering [2, 7] between them
    spans = [(0, None, 0.0, 10.0), (1, 0, 2.0, 6.0), (2, 0, 4.0, 7.0)]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_self_time_clips_children_to_the_parent():
    # a child that outlives its parent covers only the parent's part
    spans = [(0, None, 0.0, 4.0), (1, 0, 3.0, 9.0)]
    got = self_times(spans)
    assert got[0] == pytest.approx(3.0)
    assert got[1] == pytest.approx(6.0)


def test_self_times_of_a_sequential_tree_sum_to_the_root():
    spans = [(0, None, 0.0, 10.0), (1, 0, 2.0, 8.0), (2, 1, 3.0, 4.0),
             (3, 1, 4.5, 5.0)]
    got = self_times(spans)
    assert got[1] == pytest.approx(4.5)
    assert sum(got.values()) == pytest.approx(10.0)


# ----------------------------------------------------------------------
# open loop: latency from the due time, lateness of the sends
# ----------------------------------------------------------------------
def test_latency_counts_from_the_due_time():
    due = [0.0, 0.1, 0.2]
    sent = [0.0, 0.25, 0.3]  # a stall made the second send late
    done = [0.05, 0.3, 0.31]
    acct = open_loop_accounting(due, sent, done, rate=10.0)
    assert acct["latency_ms"] == pytest.approx([50.0, 200.0, 110.0])
    assert acct["late_ms"] == pytest.approx([0.0, 150.0, 100.0])


def test_early_sends_are_not_negative_lateness():
    acct = open_loop_accounting([1.0], [0.999], [1.01], rate=1.0)
    assert acct["late_ms"] == [0.0]
    assert acct["latency_ms"] == pytest.approx([10.0])


def test_a_generator_on_schedule_achieves_the_offered_rate():
    due = [i / 50.0 for i in range(100)]
    acct = open_loop_accounting(due, due, [d + 0.01 for d in due], 50.0)
    assert acct["offered_per_s"] == 50.0
    assert acct["achieved_per_s"] == pytest.approx(50.0)
    assert generator_kept_schedule(acct)


def test_a_generator_that_fell_behind_is_invalid():
    due = [i / 50.0 for i in range(100)]
    sent = [d * 1.5 for d in due]  # sending at two thirds of the rate
    acct = open_loop_accounting(due, sent, sent, 50.0)
    assert acct["achieved_per_s"] < 0.9 * 50.0
    assert not generator_kept_schedule(acct)


def test_open_loop_accounting_rejects_ragged_input():
    with pytest.raises(ValueError):
        open_loop_accounting([0.0, 1.0], [0.0], [0.1], 1.0)


# ----------------------------------------------------------------------
# deterministic counters: repeat within one version of the code
# ----------------------------------------------------------------------
def test_source_digest_follows_the_code(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("ignored")
    before = source_digest(str(tmp_path))
    (tmp_path / "notes.txt").write_text("still ignored")
    assert source_digest(str(tmp_path)) == before
    (tmp_path / "pkg" / "a.py").write_text("x = 2\n")
    assert source_digest(str(tmp_path)) != before


def test_counters_must_repeat_under_one_key(tmp_path):
    store = str(tmp_path)
    assert check_repeat(store, "w-1-aaaa", {"steps": 5}) is None
    assert check_repeat(store, "w-1-aaaa", {"steps": 5}) is None
    assert "differ" in check_repeat(store, "w-1-aaaa", {"steps": 4})


def test_changed_code_is_not_compared_with_old_counters(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (src / "engine.py").write_text("STEP = 1\n")
    store = str(tmp_path / "out")
    old = source_digest(str(src))
    assert check_repeat(store, f"w-1-{old}", {"steps": 5}) is None
    (src / "engine.py").write_text("STEP = 2\n")
    new = source_digest(str(src))
    assert check_repeat(store, f"w-1-{new}", {"steps": 3}) is None
    assert check_repeat(store, f"w-1-{new}", {"steps": 3}) is None
