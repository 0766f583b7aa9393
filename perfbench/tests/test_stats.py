"""Self-tests for the benchmark's own statistics.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import stats  # noqa: E402
from loadgen import Rung, Sub, is_verdict  # noqa: E402


# -- tail percentile rule ------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [
        (9, None),       # the median has only 4.5 samples beyond it
        (19, None),
        (20, 50.0),      # exactly 10 beyond the median
        (39, 50.0),
        (40, 75.0),      # 10 beyond p75
        (99, 75.0),
        (100, 90.0),
        (200, 95.0),
        (999, 95.0),
        (1000, 99.0),
        (10_000, 99.9),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


def test_summarize_reports_percentile_and_count():
    values = list(range(1, 101))  # 1..100
    s = stats.summarize(values)
    assert s.n == 100
    assert s.tail_pct == 90.0
    assert s.p50 == pytest.approx(50.5)
    assert s.tail == pytest.approx(90.5, abs=0.2)


def test_summarize_small_sample_falls_back_to_max():
    s = stats.summarize([3.0, 1.0, 2.0])
    assert (s.tail, s.tail_pct, s.n) == (3.0, 100.0, 3)


def test_harrell_davis_weights_sum_to_one():
    assert stats.harrell_davis([7.0] * 13, 50) == pytest.approx(7.0)
    assert stats.harrell_davis([7.0] * 13, 95) == pytest.approx(7.0)


def test_harrell_davis_median_of_symmetric_sample_is_its_centre():
    assert stats.harrell_davis([1, 2, 3, 10, 17, 18, 19], 50) == \
        pytest.approx(10.0)


def test_harrell_davis_moves_smoothly_between_clusters():
    # 49 fast and 51 slow requests: the plain median sits in the slow
    # cluster and jumps to the fast one when two requests change sides;
    # the weighted estimate moves by a small step instead.
    fast, slow = 0.03, 0.07
    before = stats.harrell_davis([fast] * 49 + [slow] * 51, 50)
    after = stats.harrell_davis([fast] * 51 + [slow] * 49, 50)
    assert statistics.median([fast] * 49 + [slow] * 51) == slow
    assert statistics.median([fast] * 51 + [slow] * 49) == fast
    assert 0 < before - after < 0.4 * (slow - fast)
    with pytest.raises(ValueError):
        stats.harrell_davis([], 50)


# -- rung acceptance -----------------------------------------------------


def _judge(**overrides):
    args = dict(
        rate=10.0, verdict_latencies_s=[0.05] * 100, failed=0,
        backlog_at_end=1, lag_tail_ms=0.5, verdict_limit_s=0.25,
        lag_limit_ms=5.0,
    )
    args.update(overrides)
    return stats.judge_rung(**args)


def test_rung_passes_within_limits():
    out = _judge()
    assert out.passed and out.valid and out.reasons == []


def test_rung_fails_on_tail_over_limit():
    latencies = [0.05] * 80 + [0.3] * 20  # p90 is 0.3 s
    out = _judge(verdict_latencies_s=latencies)
    assert not out.passed and out.valid


def test_rung_fails_on_growing_backlog():
    # Little's law: 10/s at a 0.25 s limit leaves room for 2.5 waiting.
    assert _judge(backlog_at_end=2).passed
    assert not _judge(backlog_at_end=3).passed


def test_rung_fails_on_any_failure():
    assert not _judge(failed=1).passed


def test_rung_fails_without_verdicts():
    assert not _judge(verdict_latencies_s=[]).passed


def test_rung_invalid_when_generator_lags():
    out = _judge(lag_tail_ms=7.0)
    assert out.passed and not out.valid


def test_highest_passing_stops_at_first_failure_or_invalid():
    ok = stats.RungOutcome(rate=1, passed=True, valid=True)
    ok2 = stats.RungOutcome(rate=2, passed=True, valid=True)
    bad = stats.RungOutcome(rate=4, passed=False, valid=True)
    late = stats.RungOutcome(rate=4, passed=True, valid=False)
    ok8 = stats.RungOutcome(rate=8, passed=True, valid=True)
    assert stats.highest_passing([ok, ok2, bad, ok8]) is ok2
    assert stats.highest_passing([ok, late, ok8]) is ok
    assert stats.highest_passing([bad, ok8]) is None


def test_backlog_counts_subs_without_verdict_at_schedule_end():
    subs = [Sub(md5=str(i), body=b"", lane="bulk") for i in range(4)]
    rung = Rung(rate=4.0, subs=subs, last_due=10.0)
    subs[0].verdict_at = 9.0     # answered before the schedule ended
    subs[1].verdict_at = 10.5    # answered after it
    subs[2].verdict_at = None    # never answered
    subs[3].verdict_at = 10.0    # answered exactly at the end
    assert rung.backlog_at_end() == 2


def test_completion_rate_is_the_offered_rate_when_sustained():
    subs = [Sub(md5=str(i), body=b"", lane="bulk", due=0.25 * i,
                verdict_at=0.25 * i + 0.05) for i in range(8)]
    subs.append(Sub(md5="x", body=b"", lane="bulk", due=2.0))  # no verdict
    # 8 verdicts from the first due time (0.0) to the last verdict (1.8).
    assert Rung(rate=4.0, subs=subs).completion_rate() == pytest.approx(
        8 / 1.8)


def test_completion_rate_reads_capacity_when_overloaded():
    # Offered 20/s, but verdicts come back 0.1 s apart.
    subs = [Sub(md5=str(i), body=b"", lane="bulk", due=0.05 * i,
                verdict_at=0.1 * (i + 1)) for i in range(40)]
    assert Rung(rate=20.0, subs=subs).completion_rate() == pytest.approx(
        10.0)


def test_completion_rate_without_verdicts_is_zero():
    subs = [Sub(md5="a", body=b"", lane="bulk", due=0.0)]
    assert Rung(rate=1.0, subs=subs).completion_rate() == 0.0


# -- poll phase ----------------------------------------------------------


@pytest.mark.parametrize("ready_s", [0.0, 0.003, 0.012, 0.049, 0.07])
def test_poll_phase_spreads_the_detection_wait_over_one_cadence(ready_s):
    # Polls of submission i come at poll_phase(i) + k * cadence after its
    # ack; the first at or after ``ready_s`` sees the verdict.  Whatever
    # ``ready_s`` is, the waits fill [0, cadence) evenly: their mean is
    # half a cadence and each tenth of the cadence holds a tenth of them.
    cadence, n = 0.05, 1000
    waits = []
    for i in range(n):
        at = stats.poll_phase(i, cadence)
        while at < ready_s:
            at += cadence
        waits.append(at - ready_s)
    assert all(0.0 <= w < cadence for w in waits)
    assert statistics.fmean(waits) == pytest.approx(cadence / 2, rel=0.02)
    counts = [0] * 10
    for w in waits:
        counts[int(10 * w / cadence)] += 1
    assert max(abs(c - n / 10) for c in counts) <= 3


# -- lag -----------------------------------------------------------------


def test_lag_is_zero_when_sent_on_time():
    assert stats.lag_ms(sent=1.0, due=1.0, free_at=0.5) == 0.0


def test_lag_counts_lateness_past_the_due_time():
    assert stats.lag_ms(sent=1.004, due=1.0, free_at=0.5) == pytest.approx(4)


def test_lag_excludes_waiting_for_a_busy_connection():
    # The previous response arrived at 1.05; sending at 1.051 is 1 ms
    # of generator lag, not 51 ms: the wait is charged to latency.
    assert stats.lag_ms(sent=1.051, due=1.0, free_at=1.05) == pytest.approx(1)


# -- error rate ------------------------------------------------------------


def test_error_rate_counts_every_kind_of_failure():
    assert stats.error_rate(100, rejected=1, failed_outcomes=2,
                            never_terminal=3) == pytest.approx(0.06)
    assert stats.error_rate(5, 0, 0, 0) == 0.0
    with pytest.raises(ValueError):
        stats.error_rate(0, 0, 0, 0)


def test_verdictless_done_is_not_a_verdict():
    assert not is_verdict({"md5": "a", "status": "done"})
    assert is_verdict({"md5": "a", "status": "done", "malicious": False})
    assert is_verdict({"md5": "a", "status": "failed", "reason": "x"})
    assert not is_verdict({"md5": "a", "status": "pending"})


# -- unaccounted arithmetic -------------------------------------------------


def test_stage_table_rows_sum_to_end_to_end_median():
    stages = {"a": [1.0, 2.0, 3.0], "b": [10.0, 10.0, 40.0]}
    totals = [12.0, 13.0, 50.0]
    rows, whole = stats.stage_table(stages, totals)
    assert whole == pytest.approx(stats.harrell_davis(totals, 50))
    assert dict(rows)["a"] == pytest.approx(2.0)
    unaccounted = whole - dict(rows)["a"] - dict(rows)["b"]
    assert dict(rows)["unaccounted"] == pytest.approx(unaccounted)
    assert sum(value for _, value in rows) == pytest.approx(whole)


def test_stage_table_unaccounted_can_be_negative():
    rows, whole = stats.stage_table({"a": [5.0, 5.0]}, [4.0, 4.0])
    assert dict(rows)["unaccounted"] == pytest.approx(-1.0)
    assert sum(value for _, value in rows) == pytest.approx(whole)


def test_self_time_subtracts_children():
    assert stats.self_times(10.0, [2.0, 3.5]) == pytest.approx(4.5)
