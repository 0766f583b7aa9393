"""Zero-work edge cases of the emulator server's executed schedule.

The server's timeline is a ``ScheduleReport`` built from the tasks the
pipeline's worker pool really ran; an empty or zero-length timeline
must report zero makespan, utilization and throughput, not infinity.
"""

from repro.core.pipeline import EMULATOR_SLOTS, ScheduledTask, ScheduleReport


def test_empty_schedule():
    report = ScheduleReport.from_executed([], n_slots=EMULATOR_SLOTS)
    assert report.makespan_minutes == 0.0
    assert report.utilization == 0.0


def test_empty_schedule_throughput_is_zero():
    """Regression: zero-task batches reported infinite throughput."""
    report = ScheduleReport.from_executed([], n_slots=EMULATOR_SLOTS)
    assert report.throughput_per_day() == 0.0


def test_zero_duration_tasks_report_zero_throughput():
    tasks = [ScheduledTask(app_index=i, slot=i, start_minute=0.0,
                           end_minute=0.0) for i in range(3)]
    report = ScheduleReport.from_executed(tasks, n_slots=EMULATOR_SLOTS)
    assert report.makespan_minutes == 0.0
    assert report.throughput_per_day() == 0.0
    assert report.utilization == 0.0
