import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crflight.model import (CreEvent, LatticePoint, LogicalQubit, PhysicalParams,
                            phonon_radius, string_clearance_at)

from brute_force import brute_force_clearance, brute_force_compromised


def params(l=1.0, d=11, v_p=2.5, delta=1.0, t_c=1.0, r_max=63.0, dl=1.0):
    return PhysicalParams(l, d, v_p, delta, t_c, r_max, dl)


def overwhelmed(front, q, t):
    """The string rule as crflight spells it: radius > clearance."""
    event, p = front
    return phonon_radius(event, p, t) > string_clearance_at(
        q.anchor.x, q.anchor.y, q.code_distance, event, p.l_mm)


class TestPhysicalParams:
    @pytest.mark.parametrize("kwargs", [
        dict(l=0.0), dict(l=-1.0), dict(d=1), dict(v_p=-0.1),
        dict(delta=-1.0), dict(t_c=0.0), dict(r_max=-1.0), dict(dl=-1.0),
        dict(d=2 ** 53 + 1), dict(d=10 ** 400),
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            params(**kwargs)

    def test_d_up_to_2_53_builds(self):
        # The solver's d_max bound: past it consecutive d are not floats.
        assert params(d=2 ** 53).d == 2 ** 53
        assert params().with_d(2 ** 53).d == 2 ** 53

    def test_non_integer_d_rejected(self):
        with pytest.raises(ValueError):
            params(d=3.5)

    @pytest.mark.parametrize("name", ["l", "v_p", "delta", "t_c", "r_max", "dl"])
    def test_rejects_nan(self, name):
        with pytest.raises(ValueError):
            params(**{name: math.nan})

    @pytest.mark.parametrize("name", ["l", "v_p", "delta", "t_c", "r_max", "dl"])
    def test_rejects_inf(self, name):
        with pytest.raises(ValueError):
            params(**{name: math.inf})


class TestPhononRadius:
    def test_one_cycle_silicon_speed(self):
        f = (CreEvent(0, 0), params())
        assert phonon_radius(*f, 1.0) == pytest.approx(2.5)

    def test_zero_elapsed(self):
        f = (CreEvent(0, 0), params())
        assert phonon_radius(*f, 0.0) == 0.0

    def test_capped_at_r_max(self):
        f = (CreEvent(0, 0), params())
        # cap reached exactly at dissipation: 63 / 2.5 = 25.2 cycles
        assert phonon_radius(*f, 25.2) == pytest.approx(63.0)

    def test_dissipated_radius_is_zero(self):
        f = (CreEvent(0, 0), params())
        assert phonon_radius(*f, 100.0) == 0.0

    def test_rejects_pre_event_time(self):
        f = (CreEvent(0, 0, t0_cycles=5.0), params())
        with pytest.raises(ValueError):
            phonon_radius(*f, 4.0)

    def test_zero_speed_never_grows(self):
        f = (CreEvent(0, 0), params(v_p=0.0))
        assert phonon_radius(*f, 1e6) == 0.0

    @given(st.floats(0.0, 25.2), st.floats(0.0, 25.2))
    def test_monotone_while_active(self, t1, t2):
        f = (CreEvent(0, 0), params())
        if t1 > t2:
            t1, t2 = t2, t1
        assert phonon_radius(*f, t1) <= phonon_radius(*f, t2)


class TestCompromisedCount:
    """The string rule (radius > string clearance) against the disc count."""

    def test_zero_radius(self):
        q = LogicalQubit(LatticePoint(0, 0), 11)
        f = (CreEvent(5.5, 0.0), params())
        assert brute_force_compromised(f, q, 0.0) == 0
        assert not overwhelmed(f, q, 0.0)

    def test_full_coverage(self):
        q = LogicalQubit(LatticePoint(0, 0), 11)
        f = (CreEvent(5.5, 0.0), params())
        # radius 25 mm at t=10 engulfs the whole 10-qubit string
        assert brute_force_compromised(f, q, 10.0) == 10
        assert overwhelmed(f, q, 10.0)

    def test_partial_coverage_matches_oracle(self):
        # epicenter at the string midpoint (5.5 mm), radius 2.6 mm after one
        # cycle; expected value frozen from the brute-force oracle
        q = LogicalQubit(LatticePoint(0, 0), 11)
        f = (CreEvent(5.5, 0.0), params(v_p=2.6))
        assert brute_force_compromised(f, q, 1.0) == 6
        assert not overwhelmed(f, q, 1.0)

    @settings(max_examples=200)
    @given(st.integers(2, 30), st.floats(-20, 40), st.floats(-20, 20),
           st.floats(0, 20), st.floats(0.2, 3.0))
    def test_matches_oracle_everywhere(self, d, ex, ey, t, l):
        q = LogicalQubit(LatticePoint(0, 0), d)
        f = (CreEvent(ex, ey), params(l=l, d=d))
        assert overwhelmed(f, q, t) == (
            brute_force_compromised(f, q, t) >= d - 1)

    @given(st.integers(2, 20), st.floats(0.0, 10.0), st.floats(0.0, 10.0))
    def test_monotone_in_radius(self, d, t1, t2):
        q = LogicalQubit(LatticePoint(0, 0), d)
        f = (CreEvent(d / 2, 0.3), params(d=d, r_max=1e9))
        if t1 > t2:
            t1, t2 = t2, t1
        assert overwhelmed(f, q, t1) <= overwhelmed(f, q, t2)

    @settings(max_examples=300)
    @given(st.integers(2, 40), st.integers(-50, 50), st.integers(-50, 50),
           st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), st.floats(0.01, 100.0))
    def test_clearance_is_farthest_string_qubit(self, d, x, y, ex, ey, l):
        # reference: the distance to every one of the d - 1 string qubits
        q = LogicalQubit(LatticePoint(x, y), d)
        event = CreEvent(ex, ey)
        assert string_clearance_at(x, y, d, event, l) == brute_force_clearance(
            q, event, l)


class TestDestruction:
    @given(st.integers(2, 20), st.floats(-10, 30), st.floats(-10, 10))
    def test_no_healing_while_active(self, d, ex, ey):
        q = LogicalQubit(LatticePoint(0, 0), d)
        p = params(d=d, r_max=40.0)
        f = (CreEvent(ex, ey), p)
        active = [t for t in range(0, int(p.t_dissipate_cycles) + 1)]
        flags = [overwhelmed(f, q, float(t)) for t in active]
        if True in flags:
            first = flags.index(True)
            assert all(flags[first:])


class TestCreEvent:
    @pytest.mark.parametrize("field", ["x_mm", "y_mm", "t0_cycles"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, field, value):
        kwargs = dict(x_mm=1.0, y_mm=2.0, t0_cycles=0.0)
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            CreEvent(**kwargs)


class TestGeometryTypes:
    def test_dissipation_time(self):
        assert params().t_dissipate_cycles == pytest.approx(25.2)
        assert math.isinf(params(v_p=0).t_dissipate_cycles)
