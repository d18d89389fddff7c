import pytest

from rydnash.errors import ConstraintViolation, InvalidInput
from rydnash.schedule import MAX_EVOLUTION_TIME, Schedule, default_schedule, validate_schedule


class TestDefaultSchedule:
    def test_reference_breakpoints(self):
        s = default_schedule()
        assert s.duration == 4.0
        assert s.delta == ((0.0, -7.27), (0.25, -7.27), (1.25, 0.0), (1.35, 0.0), (3.75, 7.27), (4.0, 7.27))
        assert s.omega == ((0.0, 0.0), (0.25, 7.27), (1.25, 7.27), (1.35, 7.27), (3.75, 7.27), (4.0, 0.0))

    def test_endpoint_values(self):
        s = default_schedule()
        assert s.delta_at(0.0) == -7.27
        assert s.delta_at(4.0) == 7.27
        assert s.omega_at(2.0) == 7.27
        assert s.omega_at(0.0) == 0.0
        assert s.omega_at(4.0) == 0.0

    def test_flat_zero_crossing(self):
        s = default_schedule()
        assert s.delta_at(1.30) == 0.0

    def test_scaling(self):
        s = default_schedule(duration=2.0)
        assert s.duration == 2.0
        assert s.omega_at(1.0) == 7.27
        assert s.delta_at(0.0) == -7.27
        assert s.delta_at(0.65) == 0.0
        assert s.delta_at(2.0) == 7.27
        assert s.omega_at(0.0) == 0.0 and s.omega_at(2.0) == 0.0

    def test_duration_over_hardware_limit(self):
        assert default_schedule(duration=MAX_EVOLUTION_TIME).duration == 4.0
        with pytest.raises(ConstraintViolation):
            default_schedule(duration=5.0)


class TestScheduleValidation:
    def test_structural_checks(self):
        with pytest.raises(InvalidInput):
            Schedule(((0.0, 1.0),), ((0.0, 0.0), (1.0, 0.0)), 1.0)  # too few points
        with pytest.raises(InvalidInput):
            Schedule(((0.5, 1.0), (1.0, 1.0)), ((0.0, 0.0), (1.0, 0.0)), 1.0)  # no t=0
        with pytest.raises(InvalidInput):
            Schedule(((0.0, 1.0), (0.5, 1.0)), ((0.0, 0.0), (1.0, 0.0)), 1.0)  # no t=T
        with pytest.raises(InvalidInput):
            Schedule(((0.0, 1.0), (0.5, 1.0), (0.5, 2.0), (1.0, 1.0)), ((0.0, 0.0), (1.0, 0.0)), 1.0)
        with pytest.raises(InvalidInput):
            Schedule(((0.0, -1.0), (1.0, 0.0)), ((0.0, 0.0), (1.0, 0.0)), 1.0)  # negative drive

    def test_interpolation_is_linear(self):
        s = Schedule(((0.0, 0.0), (2.0, 4.0)), ((0.0, -2.0), (2.0, 2.0)), 2.0)
        assert s.omega_at(0.5) == 1.0
        assert s.delta_at(1.0) == 0.0

    def test_duration_violation_reported(self):
        s = Schedule(((0.0, 0.0), (2.5, 7.27), (5.0, 0.0)), ((0.0, -7.27), (5.0, 7.27)), 5.0)
        violations = validate_schedule(s)
        assert [v.kind for v in violations] == ["duration"]
        assert violations[0].value == 5.0
        assert violations[0].limit == 4.0

    def test_amplitude_violations_reported(self):
        s = Schedule(((0.0, 0.0), (2.0, 20.0), (4.0, 0.0)), ((0.0, -130.0), (4.0, 130.0)), 4.0)
        kinds = {v.kind for v in validate_schedule(s)}
        assert kinds == {"rabi_amplitude", "detuning_amplitude"}

    def test_reference_ramp_passes(self):
        assert validate_schedule(default_schedule()) == ()
