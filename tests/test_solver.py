import dataclasses
import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crflight import solver
from crflight.model import PhysicalParams
from crflight.solver import (AT_HOLE, HALFWAY, HALF_D_MM, HALF_SEPARATION,
                             SCENARIOS, StrikeScenario,
                             check_condition1, check_condition2,
                             check_feasibility, min_code_distance,
                             read_sweep_csv, sweep, write_sweep_csv)


def params(l=1.0, d=11, v_p=2.5, delta=1.0, t_c=1.0, r_max=63.0, dl=1.0):
    return PhysicalParams(l, d, v_p, delta, t_c, r_max, dl)


def oracle_min_d(p, kind, d_max=500, convention="half_d_mm"):
    """Exhaustive scan over d, written directly from the inequalities."""
    for d in range(2, d_max + 1):
        if kind == AT_HOLE:
            x0 = 0.0
        elif convention == "half_d_mm":
            x0 = d / 2.0
        else:
            x0 = d * p.l_mm / 2.0
        r = p.v_p_mm_per_us * p.t_c_us * (p.delta_cycles + 1)
        c1 = r < (x0 - r) + p.l_mm * (d - 1)
        c2 = p.r_max_mm < (x0 - r) + p.move_displacement_mm + p.l_mm * (d - 1)
        if c1 and c2:
            return d
    return None


class TestScenario:
    def test_x0_values(self):
        p = params(l=3.0, d=10)
        assert StrikeScenario(AT_HOLE).x0_mm(p) == 0.0
        assert StrikeScenario(HALFWAY).x0_mm(p) == 5.0
        assert StrikeScenario(HALFWAY, HALF_SEPARATION).x0_mm(p) == 15.0

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            StrikeScenario("somewhere")


class TestConditions:
    def test_no_propagation_always_passes_condition1(self):
        for d in (2, 5, 50):
            assert check_condition1(params(d=d, v_p=0.0), StrikeScenario(HALFWAY))
            assert check_condition1(params(d=d, v_p=0.0), StrikeScenario(AT_HOLE))

    def test_condition1_boundary_equality_fails(self):
        # lhs = 0.25 and rhs = (0 - 0.25) + 0.5: equality fails the strict check
        p = params(l=0.5, d=2, v_p=0.25, delta=0.0)
        assert not check_condition1(p, StrikeScenario(AT_HOLE))

    def test_condition1_direct_substitution(self):
        # 5 < 0.5 + 10
        p = params(l=1.0, d=11, v_p=2.5, delta=1.0)
        assert check_condition1(p, StrikeScenario(HALFWAY))

    def test_condition2_zero_r_max(self):
        assert check_condition2(params(r_max=0.0), StrikeScenario(HALFWAY))

    def test_condition2_huge_displacement(self):
        assert check_condition2(params(dl=1e12), StrikeScenario(AT_HOLE))

    def test_verdict_is_conjunction(self):
        p, s = params(), StrikeScenario(HALFWAY)
        assert check_feasibility(p, s) == (check_condition1(p, s)
                                           and check_condition2(p, s))


class TestMinCodeDistance:
    def test_infeasible_when_propagation_dominates(self):
        p = params(v_p=1e6, r_max=1e6)
        assert min_code_distance(p, StrikeScenario(AT_HOLE), d_max=200) is None

    def test_minimality(self):
        p = params()
        for kind in (HALFWAY, AT_HOLE):
            s = StrikeScenario(kind)
            d = min_code_distance(p, s)
            assert check_feasibility(p.with_d(d), s)
            if d > 2:
                assert not check_feasibility(p.with_d(d - 1), s)

    def test_canonical_values(self):
        # frozen from the exhaustive-scan oracle at the canonical settings
        p = params()
        assert oracle_min_d(p, HALFWAY) == 46
        assert oracle_min_d(p, AT_HOLE) == 69
        assert min_code_distance(p, StrikeScenario(HALFWAY)) == 46
        assert min_code_distance(p, StrikeScenario(AT_HOLE)) == 69

    def test_matches_oracle_on_random_tuples(self):
        rng = random.Random(20240817)
        for _ in range(100):
            p = params(l=rng.uniform(0.2, 12.0), v_p=rng.uniform(0.0, 6.0),
                       delta=rng.uniform(0.0, 25.0), t_c=rng.uniform(0.5, 2.0),
                       r_max=rng.uniform(0.0, 120.0), dl=rng.uniform(0.0, 50.0))
            for kind in (HALFWAY, AT_HOLE):
                got = min_code_distance(p, StrikeScenario(kind), d_max=300)
                assert got == oracle_min_d(p, kind, d_max=300)

    def test_rejects_bad_d_max(self):
        with pytest.raises(ValueError):
            min_code_distance(params(), StrikeScenario(HALFWAY), d_max=1)

    def test_infeasible_point_costs_one_check(self, monkeypatch):
        # No d up to 10**9 outruns a 10**12 mm storm; a scan over every
        # candidate would take hours.
        calls = []

        def counted(p, s):
            calls.append(p.d)
            if len(calls) > 5:
                raise AssertionError("more than five feasibility checks")
            return check_feasibility(p, s)

        monkeypatch.setattr(solver, "check_feasibility", counted)
        p = PhysicalParams(1.0, 11, 2.5, 1.0, 1.0, 1e12)
        assert min_code_distance(p, StrikeScenario(HALFWAY), 10**9) is None
        assert calls == [10**9]

    def test_rejects_d_max_above_2_53(self):
        # Above 2**53 consecutive d are no longer distinct floats, and
        # 10**400 does not convert to one at all.
        s = StrikeScenario(HALFWAY)
        assert min_code_distance(params(), s, d_max=2**53) == 46
        for d_max in (2**53 + 1, 10**400):
            with pytest.raises(ValueError, match="d_max must be <= 2"):
                min_code_distance(params(), s, d_max=d_max)


# Bounded floats draw no NaN or inf, which PhysicalParams rejects.
@settings(max_examples=150, deadline=None)
@given(l=st.floats(0.01, 3.0),
       v_p=st.one_of(st.just(0.0), st.just(2.5), st.floats(0.0, 10.0)),
       delta=st.one_of(st.just(0.0), st.floats(0.0, 30.0)),
       r_max=st.one_of(st.just(0.0), st.just(1e4), st.floats(0.0, 400.0)),
       dl=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1e6)),
       kind=st.sampled_from(SCENARIOS),
       convention=st.sampled_from((HALF_D_MM, HALF_SEPARATION)))
def test_feasibility_is_never_lost_as_d_grows(l, v_p, delta, r_max, dl, kind,
                                              convention):
    # min_code_distance's one check at d_max relies on this.
    p = params(l=l, v_p=v_p, delta=delta, r_max=r_max, dl=dl)
    s = StrikeScenario(kind, convention)
    verdicts = [check_feasibility(p.with_d(d), s) for d in range(2, 601)]
    assert verdicts == sorted(verdicts)


class TestWithD:
    # with_d lists every field; a new field must be added here and there.
    FIELDS = ["l_mm", "d", "v_p_mm_per_us", "delta_cycles", "t_c_us",
              "r_max_mm", "move_displacement_mm"]

    def test_fields_are_the_listed_ones(self):
        assert [f.name for f in dataclasses.fields(PhysicalParams)] == self.FIELDS

    def test_matches_replace_and_validates(self):
        p = PhysicalParams(0.7, 5, 1.3, 2.0, 0.9, 17.0, 3.5)
        assert p.with_d(9) == dataclasses.replace(p, d=9)
        with pytest.raises(ValueError):
            p.with_d(1)


class TestSweep:
    def test_single_value_equals_point_solve(self):
        p = params()
        result = sweep("r_max", [63.0], p)
        assert len(result.rows) == 2
        by_kind = {r.scenario: r.min_d for r in result.rows}
        assert by_kind[HALFWAY] == min_code_distance(p, StrikeScenario(HALFWAY))
        assert by_kind[AT_HOLE] == min_code_distance(p, StrikeScenario(AT_HOLE))

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            sweep("l", [], params())
        with pytest.raises(ValueError):
            sweep("l", [1.0, -2.0], params())
        with pytest.raises(ValueError):
            sweep("bogus", [1.0], params())

    def test_l_sweep_monotone_non_increasing(self):
        result = sweep("l", [float(v) for v in range(1, 21)], params())
        for kind in (HALFWAY, AT_HOLE):
            ds = [r.min_d for r in result.rows if r.scenario == kind]
            assert all(a >= b for a, b in zip(ds, ds[1:]))

    def test_r_max_sweep_monotone_non_decreasing(self):
        result = sweep("r_max", [float(v) for v in range(1, 41)], params())
        for kind in (HALFWAY, AT_HOLE):
            ds = [r.min_d for r in result.rows if r.scenario == kind]
            assert all(a <= b for a, b in zip(ds, ds[1:]))

    def test_delta_sweep_monotone_non_decreasing(self):
        result = sweep("delta", [float(v) for v in range(1, 26)], params())
        for kind in (HALFWAY, AT_HOLE):
            ds = [r.min_d for r in result.rows if r.scenario == kind]
            assert all(a <= b for a, b in zip(ds, ds[1:]))

    def test_rows_sorted_by_value(self):
        result = sweep("r_max", [30.0, 10.0, 20.0], params())
        assert [r.value for r in result.rows] == [10.0, 10.0, 20.0, 20.0, 30.0, 30.0]

    def test_csv_round_trip(self):
        result = sweep("r_max", [1.0, 63.0, 1e9], params())
        buf = io.StringIO()
        write_sweep_csv(result, buf)
        text = buf.getvalue()
        assert text.splitlines()[0] == "param,value,scenario,min_d,feasible"
        assert "INFEASIBLE" in text  # the 1e9 mm storm cannot be outrun
        back = read_sweep_csv(io.StringIO(text))
        assert back.rows == result.rows
        assert back.parameter == result.parameter

    @pytest.mark.parametrize("row", [
        "r_max,1.0,halfway,5", "r_max,1.0,halfway,5,true,extra",
        "r_max,1.0,sideways,5,true"], ids=["short", "long", "unknown-scenario"])
    def test_csv_rejects_malformed_row(self, row):
        # A short row raised IndexError, and an unknown scenario was read in.
        text = "param,value,scenario,min_d,feasible\n" + row + "\n"
        with pytest.raises(ValueError, match="malformed sweep CSV row"):
            read_sweep_csv(io.StringIO(text))
