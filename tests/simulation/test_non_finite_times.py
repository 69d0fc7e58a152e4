"""Non-finite times are refused at the boundary that received them.

``NaN`` compares false with everything, so ``duration <= 0``, ``time < now``
and ``time >= duration`` all let it through: a run of ``NaN`` duration
"succeeded" with nothing in it, a crash at ``NaN`` executed first and left
the clock at ``NaN``, one at ``inf`` was silently never injected.  Every
entry point that takes a time now says which field was wrong and with what
value — including the JSON path, since ``json`` parses ``NaN`` and
``Infinity``.
"""

import json
import random

import pytest

from repro import api
from repro.membership import MembershipEvent, MembershipSchedule
from repro.simulation.engine import SimulationEngine
from repro.simulation.failures import Crash, FailureSchedule
from repro.simulation.runner import SimulationConfig
from repro.simulation.workloads import UniformRandomWorkload

NAN, INF = float("nan"), float("inf")
non_finite = pytest.mark.parametrize("bad", [NAN, INF, -INF], ids=["nan", "inf", "-inf"])


def _spec(**overrides):
    return {"kind": "simulation", "num_processes": 2, "duration": 10.0, **overrides}


class TestDuration:
    @non_finite
    def test_simulation_config_names_the_field_and_the_value(self, bad):
        with pytest.raises(ValueError, match=rf"duration must be positive and finite, got {bad!r}"):
            SimulationConfig(num_processes=2, duration=bad, workload=UniformRandomWorkload())

    @non_finite
    def test_spec_loading(self, bad):
        with pytest.raises(api.SpecValidationError, match=rf"duration .* got {bad!r}"):
            api.load_spec(_spec(duration=bad))

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_json_spec_path(self, literal):
        document = json.loads(
            '{"kind": "simulation", "num_processes": 2, "duration": %s}' % literal
        )
        with pytest.raises(api.SpecValidationError, match="duration must be positive and finite"):
            api.load_spec(document)

    @pytest.mark.parametrize("bad", [NAN, INF], ids=["nan", "inf"])
    def test_schedule_generators(self, bad):
        # An infinite duration would make the churn generator loop forever.
        arguments = dict(num_processes=2, duration=bad, rng=random.Random(0))
        with pytest.raises(ValueError, match="duration must be positive and finite"):
            FailureSchedule.random(count=1, **arguments)
        with pytest.raises(ValueError, match="duration must be positive and finite"):
            FailureSchedule.churn(hazard_rate=0.1, **arguments)
        with pytest.raises(api.SpecValidationError, match="duration"):
            api.load_spec(_spec(duration=bad, failures={"model": "churn", "hazard_rate": 0.1}))


class TestCrashTimes:
    @non_finite
    def test_failure_schedule_of(self, bad):
        with pytest.raises(
            ValueError, match=rf"crash time of process 1 must be finite, got {bad!r}"
        ):
            FailureSchedule.of([(3.0, 0), (bad, 1)])
        with pytest.raises(ValueError, match="crash time"):
            FailureSchedule((Crash(bad, 1),))

    @non_finite
    def test_spec_loading_names_failures_and_the_value(self, bad):
        with pytest.raises(api.SpecValidationError, match="crash time of process 0") as raised:
            api.load_spec(_spec(failures=[[bad, 0]]))
        assert raised.value.field == "failures" and repr(bad) in str(raised.value)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity"])
    def test_json_spec_path(self, literal):
        document = json.loads(
            json.dumps(_spec()).replace("}", ', "failures": [[%s, 0]]}' % literal)
        )
        with pytest.raises(api.SpecValidationError, match="failures: .*must be finite"):
            api.load_spec(document)

    def test_finite_crashes_still_load_and_run(self):
        result = api.run(api.load_spec(_spec(duration=30.0, failures=[[12.5, 0]])))
        assert len(result.recoveries) == 1


class TestMembershipEventTimes:
    @pytest.mark.parametrize("bad", [NAN, INF], ids=["nan", "inf"])
    def test_every_way_in(self, bad):
        message = rf"finite non-negative time, got {bad!r}"
        with pytest.raises(ValueError, match=message):
            MembershipEvent(bad, 1, "join")
        with pytest.raises(ValueError, match=message):
            MembershipSchedule.of(leaves=[(bad, 0)])
        with pytest.raises(ValueError, match=message):
            MembershipSchedule.from_mapping({"joins": [[bad, 1]]})

    def test_negative_times_are_still_refused(self):
        with pytest.raises(ValueError, match="non-negative time, got -1.0"):
            MembershipEvent(-1.0, 1, "leave")


class TestEngineTimes:
    def test_nan_is_refused_before_it_reaches_the_queue(self):
        engine = SimulationEngine()
        with pytest.raises(ValueError, match="time nan: it is not a number"):
            engine.schedule_at(NAN, lambda: None)
        with pytest.raises(ValueError, match="time nan"):
            engine.schedule_after(NAN, lambda: None)
        assert engine.pending_events() == 0

    def test_the_clock_is_not_poisoned_for_later_events(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule_at(
            2.0, lambda: engine.schedule_after(1.0, lambda: fired.append(engine.now))
        )
        with pytest.raises(ValueError):
            engine.schedule_at(NAN, lambda: fired.append("nan"))
        engine.run()
        assert fired == [3.0] and engine.now == 3.0

    def test_the_past_is_still_refused(self):
        engine = SimulationEngine()
        engine.schedule_at(5.0, lambda: None)
        engine.run()
        with pytest.raises(ValueError, match=r"lies in the past \(now 5.0\)"):
            engine.schedule_at(4.0, lambda: None)
