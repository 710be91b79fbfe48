"""Tests for the ASCII Gantt renderer (repro.schedule.gantt)."""

import pytest

from repro.core.scheduler import run_paper_scheduler
from repro.schedule.gantt import render_gantt
from repro.schedule.schedule import ScheduleSegment, TestSchedule


def _schedule():
    return TestSchedule(
        soc_name="demo",
        total_width=8,
        segments=(
            ScheduleSegment(core="a", start=0, end=50, width=4),
            ScheduleSegment(core="b", start=0, end=30, width=4),
            ScheduleSegment(core="b", start=60, end=80, width=4),
        ),
    )


class TestRenderGantt:
    def test_contains_every_core_and_header(self):
        text = render_gantt(_schedule())
        assert "demo" in text
        assert "a [w=4]" in text
        assert "b [w=4]" in text
        assert "TAM width 8" in text

    def test_row_width_matches_columns(self):
        text = render_gantt(_schedule(), columns=40)
        rows = [line for line in text.splitlines() if "|" in line and "[w=" in line]
        for row in rows:
            body = row.split("|")[1]
            assert len(body) == 40

    def test_preempted_core_has_gap(self):
        text = render_gantt(_schedule(), columns=80)
        row_b = next(line for line in text.splitlines() if line.startswith("b "))
        body = row_b.split("|")[1]
        assert "#" in body and "." in body
        # The gap between 30 and 60 must show as empty space between filled runs.
        assert "#." in body and ".#" in body

    def test_empty_schedule(self):
        empty = TestSchedule(soc_name="x", total_width=4, segments=())
        assert render_gantt(empty) == "(empty schedule)"

    def test_invalid_columns(self):
        with pytest.raises(ValueError):
            render_gantt(_schedule(), columns=0)

    def test_utilisation_line_present(self):
        assert "utilisation" in render_gantt(_schedule())

    def test_renders_real_schedule(self, d695_soc):
        schedule = run_paper_scheduler(d695_soc, 32)
        text = render_gantt(schedule)
        for core in d695_soc.core_names:
            assert core in text
