"""JSON round-trip tests for the solver wire format.

The serialization `ScheduleRequest`/`ScheduleResult` provide is what a
future service layer puts on the wire: these tests pin down that a request
with a full SchedulerConfig and ConstraintSet payload -- and a result with
a packed schedule -- survive ``to_dict``/``from_dict`` and
``to_json``/``from_json`` unchanged.
"""

import json

import pytest

from repro.core.scheduler import SchedulerConfig
from repro.schedule.schedule import ScheduleSegment, TestSchedule
from repro.soc.constraints import ConstraintSet
from repro.solvers import ScheduleRequest, ScheduleResult, Session, SolverError


@pytest.fixture
def feasible_constraints(small_soc):
    """Like the shared small_constraints fixture, but solvable (power fits)."""
    return ConstraintSet.for_soc(
        small_soc,
        precedence=[("alpha", "delta")],
        concurrency=[("beta", "gamma")],
        power_max=200.0,
        max_preemptions={"gamma": 2},
    )


@pytest.fixture
def full_request(small_soc, feasible_constraints):
    """A request exercising every field: config, constraints and options."""
    return ScheduleRequest(
        soc=small_soc,
        total_width=12,
        solver="best",
        config=SchedulerConfig(
            percent=7.5,
            delta=2,
            max_core_width=32,
            insertion_slack=4,
            enable_idle_insertion=False,
            enable_width_increase=False,
            strict_priority_resume=True,
        ),
        constraints=feasible_constraints,
        options={"percents": [1, 5], "deltas": [0], "slacks": [3]},
    )


class TestScheduleRequestRoundTrip:
    def test_dict_round_trip_is_identity(self, full_request):
        rebuilt = ScheduleRequest.from_dict(full_request.to_dict())
        assert rebuilt == full_request

    def test_json_round_trip_is_identity(self, full_request):
        rebuilt = ScheduleRequest.from_json(full_request.to_json(indent=2))
        assert rebuilt == full_request

    def test_to_dict_is_json_serializable(self, full_request):
        json.dumps(full_request.to_dict())  # must not raise

    def test_config_payload_survives(self, full_request):
        data = full_request.to_dict()
        assert data["config"]["percent"] == 7.5
        assert data["config"]["strict_priority_resume"] is True
        rebuilt = ScheduleRequest.from_dict(data)
        assert rebuilt.config == full_request.config

    def test_constraints_payload_survives(self, full_request, feasible_constraints):
        data = full_request.to_dict()
        assert data["constraints"]["power_max"] == feasible_constraints.power_max
        rebuilt = ScheduleRequest.from_dict(data)
        assert rebuilt.constraints == feasible_constraints
        assert rebuilt.constraints.preemption_limit("gamma") == 2

    def test_defaults_round_trip(self, small_soc):
        request = ScheduleRequest(soc=small_soc, total_width=8)
        rebuilt = ScheduleRequest.from_dict(request.to_dict())
        assert rebuilt == request
        assert rebuilt.constraints is None
        assert rebuilt.solver == "paper"

    def test_unknown_config_field_rejected(self, small_soc):
        data = ScheduleRequest(soc=small_soc, total_width=8).to_dict()
        data["config"]["warp_factor"] = 9
        with pytest.raises(ValueError, match="warp_factor"):
            ScheduleRequest.from_dict(data)

    def test_invalid_width_rejected(self, small_soc):
        with pytest.raises(SolverError, match="positive"):
            ScheduleRequest(soc=small_soc, total_width=0)

    @pytest.mark.parametrize("width", [32.5, 32.0, "32", True])
    def test_non_integer_width_rejected(self, small_soc, width):
        # A float width used to pass and then fail deep in the kernel.
        with pytest.raises(SolverError, match="integer"):
            ScheduleRequest(soc=small_soc, total_width=width)

    @pytest.mark.parametrize("width", [32.9, "32"])
    def test_non_integer_wire_width_is_not_truncated(self, small_soc, width):
        # ``from_dict`` used to apply ``int()``, so 32.9 and "32" answered
        # as a real 32 request with the same fingerprint.
        data = ScheduleRequest(soc=small_soc, total_width=32).to_dict()
        data["total_width"] = width
        with pytest.raises(SolverError, match="integer"):
            ScheduleRequest.from_dict(data)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("delta", 2.5),
            ("delta", 2.0),
            ("delta", "2"),
            ("delta", True),
            ("max_core_width", 32.5),
            ("max_core_width", True),
            ("insertion_slack", True),
            ("insertion_slack", 3.0),
            ("insertion_slack", None),
            ("percent", float("nan")),
            ("percent", float("inf")),
            ("percent", True),
            ("percent", "5"),
        ],
    )
    def test_bad_config_field_rejected(self, small_soc, field, value):
        # Each of these used to be accepted (2.5 and NaN solved, True read
        # as one wire) or to fail late with a TypeError.
        with pytest.raises(ValueError, match=field):
            SchedulerConfig(**{field: value})
        data = ScheduleRequest(soc=small_soc, total_width=8).to_dict()
        data["config"][field] = value
        with pytest.raises(ValueError, match=field):
            ScheduleRequest.from_dict(data)

    @pytest.mark.parametrize("percent", [0, 5, 7.5])
    def test_finite_percent_accepted(self, percent):
        assert SchedulerConfig(percent=percent).percent == percent

    def test_with_solver_and_with_options(self, small_soc):
        request = ScheduleRequest(soc=small_soc, total_width=8)
        shelf = request.with_solver("shelf")
        assert shelf.solver == "shelf"
        assert shelf.soc == request.soc
        tuned = request.with_options(max_buses=2)
        assert tuned.options == {"max_buses": 2}
        assert request.options == {}

    def test_solved_round_tripped_request_matches_original(self, full_request):
        """A request that crossed the wire solves to the identical result."""
        session = Session()
        original = session.solve(full_request)
        rebuilt = session.solve(ScheduleRequest.from_json(full_request.to_json()))
        assert rebuilt == original


class TestScheduleResultRoundTrip:
    def test_result_with_schedule_round_trips(self, small_soc):
        session = Session()
        result = session.solve(ScheduleRequest(soc=small_soc, total_width=8))
        rebuilt = ScheduleResult.from_json(result.to_json())
        assert rebuilt == result  # wall_time is excluded from equality
        assert rebuilt.schedule == result.schedule

    def test_bound_result_round_trips(self, small_soc):
        session = Session()
        result = session.solve(
            ScheduleRequest(soc=small_soc, total_width=8, solver="lower-bound")
        )
        rebuilt = ScheduleResult.from_dict(result.to_dict())
        assert rebuilt == result
        assert rebuilt.schedule is None
        assert rebuilt.metadata == result.metadata

    def test_metadata_survives_json(self, small_soc):
        session = Session()
        result = session.solve(
            ScheduleRequest(soc=small_soc, total_width=8, solver="fixed-width")
        )
        rebuilt = ScheduleResult.from_json(result.to_json())
        assert rebuilt.metadata["bus_widths"] == result.metadata["bus_widths"]
        assert rebuilt.metadata["assignment"] == result.metadata["assignment"]

    def test_to_dict_is_json_serializable(self, small_soc):
        result = Session().solve(ScheduleRequest(soc=small_soc, total_width=8))
        json.dumps(result.to_dict())  # must not raise


class TestTestScheduleRoundTrip:
    def test_schedule_dict_round_trip(self):
        schedule = TestSchedule(
            soc_name="x",
            total_width=8,
            segments=(
                ScheduleSegment(core="a", start=0, end=10, width=4),
                ScheduleSegment(core="b", start=0, end=5, width=4),
                ScheduleSegment(core="b", start=12, end=17, width=4),
            ),
        )
        assert TestSchedule.from_dict(schedule.to_dict()) == schedule
