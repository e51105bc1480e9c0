import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crflight
from crflight import solver
from crflight.cli import (EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_RANGE,
                          EXIT_UNESCAPABLE, main)
from crflight.config import (MAX_SWEEP_POINTS, ConfigError, parse_config,
                             sweep_values_from)
from crflight.solver import read_sweep_csv


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


def run_cli_capped(*args):
    """Run the CLI in a child process capped at 400 MB of address space and
    60 s, so that a run that never ends fails its test instead of hanging
    the suite or exhausting the host's memory."""
    resource = pytest.importorskip("resource")
    cap = 400 * 2 ** 20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = str(Path(crflight.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(
               filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-m", "crflight.cli", *args],
                          capture_output=True, text=True, timeout=60,
                          preexec_fn=limit, env=env)


class TestConfig:
    def test_defaults_without_file(self):
        cfg = parse_config(None)
        assert cfg["d"] == 69
        assert cfg["r_max_mm"] == 63.0
        assert cfg["seed"] == 0

    def test_overrides_and_comments(self, tmp_path):
        path = write_config(tmp_path, "\n".join([
            "# canonical silicon settings",
            "r_max_mm = 30.0   # storm cap",
            "d = 7",
            "sweep_values = 1, 2, 5",
            "",
        ]))
        cfg = parse_config(path)
        assert cfg["r_max_mm"] == 30.0
        assert cfg["d"] == 7
        assert cfg["sweep_values"] == [1.0, 2.0, 5.0]

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, "radius_mm = 3\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    @pytest.mark.parametrize("text, message", [
        ("d = eleven\n", "bad value for d"),
        ("l_mm 2\n", "expected key=value")], ids=["bad-value", "no-equals"])
    def test_bad_value_rejected(self, tmp_path, text, message):
        path = write_config(tmp_path, text)
        with pytest.raises(ConfigError, match=r"run\.cfg:1: " + message):
            parse_config(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "nope.cfg")

    def test_sweep_grid_expansion(self, tmp_path):
        path = write_config(tmp_path,
                            "sweep_start = 1\nsweep_stop = 2\nsweep_step = 0.5\n")
        assert sweep_values_from(parse_config(path), (5.0, 9.0)) == [1.0, 1.5, 2.0]

    @pytest.mark.parametrize("key", ["x0_convention", "scenario"])
    def test_unknown_choice_rejected(self, tmp_path, key):
        path = write_config(tmp_path, f"d = 7\n{key} = bogus\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:2: " + key):
            parse_config(path)

    def test_explicit_values_win(self, tmp_path):
        path = write_config(tmp_path,
                            "sweep_start = 1\nsweep_stop = 9\nsweep_values = 4\n")
        assert sweep_values_from(parse_config(path), (5.0, 9.0)) == [4.0]

    @pytest.mark.parametrize("text", [
        "sweep_start = 3\n", "sweep_stop = 9\n", "sweep_step = 0.5\n",
        "sweep_start = 3\nsweep_step = 0.5\n"],
        ids=["start", "stop", "step", "start-step"])
    def test_half_given_grid_rejected(self, tmp_path, text):
        # Each of these once swept the default grid in unit steps.
        path = write_config(tmp_path, text)
        with pytest.raises(ConfigError, match="sweep_start and sweep_stop"):
            sweep_values_from(parse_config(path), (5.0, 9.0))

    @pytest.mark.parametrize("step", ["0", "-1"])
    def test_non_positive_step_rejected(self, tmp_path, step):
        path = write_config(tmp_path, "sweep_start = 1\nsweep_stop = 3\n"
                            f"sweep_step = {step}\n")
        with pytest.raises(ConfigError, match="sweep_step must be > 0"):
            sweep_values_from(parse_config(path), (5.0, 9.0))

    def test_explicit_values_win_over_half_given_grid(self, tmp_path):
        path = write_config(tmp_path, "sweep_start = 3\nsweep_values = 4\n")
        assert sweep_values_from(parse_config(path), (5.0, 9.0)) == [4.0]

    @pytest.mark.parametrize("start, stop, step, n", [
        (0.1, 60, 0.1, 600), (0, 9999, 0.1, 99991), (-3, 3, 0.25, 25)],
        ids=["tenths-to-60", "tenths-to-9999", "quarters"])
    def test_long_fractional_grid_does_not_drift(self, tmp_path, start, stop,
                                                 step, n):
        # Summing the step drifted: 0.1..60 held 54.200000000001 and ended at
        # 60.000000000001, and 0..9999 lost its endpoint (99 990 values).
        path = write_config(tmp_path, f"sweep_start = {start}\n"
                            f"sweep_stop = {stop}\nsweep_step = {step}\n")
        values = sweep_values_from(parse_config(path), (5.0, 9.0))
        assert len(values) == n and values[-1] == stop
        assert all(abs(v - (start + i * step)) <= 1.5e-12
                   for i, v in enumerate(values))
        if step == 0.1:
            assert values[int(round((54.2 - start) * 10))] == 54.2

    def test_infinite_step_rejected(self, tmp_path):
        # Index times step is NaN at index 0 for an infinite step.
        path = write_config(tmp_path, "sweep_start = 3\nsweep_stop = 3\n"
                            "sweep_step = inf\n")
        with pytest.raises(ConfigError, match="sweep_step must be > 0 and finite"):
            sweep_values_from(parse_config(path), (5.0, 9.0))


class TestSweepCommands:
    def test_default_rmax_sweep(self, tmp_path):
        assert main(["sweep-rmax", "--out", str(tmp_path)]) == EXIT_OK
        with (tmp_path / "sweep_r_max.csv").open() as fh:
            result = read_sweep_csv(fh)
        assert len(result.rows) == 200  # 100 values x 2 scenarios
        values = sorted({r.value for r in result.rows})
        assert values[0] == 1.0 and values[-1] == 100.0

    def test_sweep_honours_config_values(self, tmp_path):
        cfg = write_config(tmp_path, "sweep_values = 63\nscenario = halfway\n")
        out = tmp_path / "out"
        assert main(["sweep-l", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        with (out / "sweep_l.csv").open() as fh:
            result = read_sweep_csv(fh)
        assert len(result.rows) == 1
        assert result.rows[0].scenario == "halfway"

    def test_negative_sweep_value_is_range_error(self, tmp_path):
        cfg = write_config(tmp_path, "sweep_values = -1\n")
        out = tmp_path / "out"
        code = main(["sweep-delta", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_RANGE
        assert list(out.iterdir()) == []

    def test_nan_sweep_value_is_range_error(self, tmp_path):
        cfg = write_config(tmp_path, "sweep_values = nan, 3\n")
        out = tmp_path / "out"
        code = main(["sweep-rmax", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_RANGE
        assert list(out.iterdir()) == []

    def test_inf_sweep_value_is_range_error(self, tmp_path):
        cfg = write_config(tmp_path, "sweep_values = inf\n")
        out = tmp_path / "out"
        code = main(["sweep-l", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_RANGE
        assert list(out.iterdir()) == []

    def test_unknown_x0_convention_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, "x0_convention = bogus\n")
        code = main(["sweep-l", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

    def test_half_given_grid_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "sweep_start = 3\nsweep_step = 0.5\n")
        out = tmp_path / "out"
        code = main(["sweep-l", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "sweep_start and sweep_stop" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    # A grid with an infinite bound never ends; it must fail before it is built.
    @pytest.mark.parametrize("sub, grid", [
        ("sweep-l", "sweep_start = 1\nsweep_stop = inf\n"),
        ("sweep-rmax", "sweep_start = -inf\nsweep_stop = 1\n"),
        ("sweep-delta", "sweep_start = nan\nsweep_stop = 5\n"),
        ("replicate-paper", "sweep_start = 1\nsweep_stop = inf\n"),
    ], ids=["l-inf-stop", "rmax-minus-inf-start", "delta-nan-start",
            "replicate-inf-stop"])
    def test_non_finite_grid_bound_is_range_error(self, tmp_path, sub, grid):
        cfg = write_config(tmp_path, grid)
        out = tmp_path / "out"
        result = run_cli_capped(sub, "--config", str(cfg), "--out", str(out))
        assert result.returncode == EXIT_RANGE, result.stderr
        assert "sweep_start and sweep_stop must be finite" in result.stderr
        assert list(out.iterdir()) == []

    # A finite grid too large to hold, or whose step stops advancing its
    # values, must fail before it is built too. 2**53 + 4 has an even
    # significand, so adding 1 rounds back to it, though 1 advances both
    # 2**53 + 2 and 2**53 + 6.
    @pytest.mark.parametrize("sub, grid, message", [
        ("sweep-l", "sweep_start = 1\nsweep_stop = 1e15\n", "more than 100000"),
        ("sweep-l", "sweep_start = 1\nsweep_stop = 2\nsweep_step = 1e-20\n",
         "too small"),
        ("sweep-l", "sweep_start = 9007199254740994\n"
         "sweep_stop = 9007199254740998\n", "too small"),
        ("replicate-paper", "sweep_start = 1\nsweep_stop = 1e15\n",
         "more than 100000"),
    ], ids=["l-huge-stop", "l-tiny-step", "l-step-stalls-mid-grid",
            "replicate-huge-stop"])
    def test_oversized_grid_is_range_error(self, tmp_path, sub, grid, message):
        cfg = write_config(tmp_path, grid)
        out = tmp_path / "out"
        result = run_cli_capped(sub, "--config", str(cfg), "--out", str(out))
        assert result.returncode == EXIT_RANGE, result.stderr
        assert message in result.stderr
        assert list(out.iterdir()) == []

    def test_grid_cap_admits_its_largest_grid(self):
        cfg = {"sweep_values": None, "sweep_start": 0.0,
               "sweep_stop": MAX_SWEEP_POINTS - 1.0, "sweep_step": 1.0}
        assert len(sweep_values_from(cfg, (1.0, 2.0))) == MAX_SWEEP_POINTS
        cfg["sweep_stop"] = float(MAX_SWEEP_POINTS)
        with pytest.raises(ValueError, match="more than 100000 points"):
            sweep_values_from(cfg, (1.0, 2.0))

    def test_log_level_applies_in_process(self, tmp_path, monkeypatch,
                                          caplog):
        # pytest's root handler makes logging.basicConfig a no-op, as any
        # handler an embedding program installs would.
        monkeypatch.setenv("CRFLIGHT_LOG", "INFO")
        out = tmp_path / "out"
        assert main(["sweep-l", "--out", str(out)]) == EXIT_OK
        wrote = [r.getMessage() for r in caplog.records
                 if r.name == "crflight" and r.levelname == "INFO"]
        assert wrote == [f"wrote {out / 'sweep_l.csv'}",
                         f"wrote {out / 'run-manifest.json'}"]

    def test_unknown_log_level_is_config_error(self, tmp_path, monkeypatch,
                                               capsys):
        monkeypatch.setenv("CRFLIGHT_LOG", "verbose")
        out = tmp_path / "out"
        out.mkdir()
        assert main(["sweep-l", "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "CRFLIGHT_LOG" in err
        assert list(out.iterdir()) == []

    def test_out_naming_a_file_is_io_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("not a directory\n")
        assert main(["sweep-l", "--out", str(out)]) == EXIT_IO
        assert "I/O error" in capsys.readouterr().err
        assert out.read_text() == "not a directory\n"

    def test_unknown_key_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, "bogus = 1\n")
        code = main(["sweep-l", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

    def test_manifest_records_resolved_config(self, tmp_path):
        cfg = write_config(tmp_path, "sweep_values = 10\n")
        out = tmp_path / "out"
        assert main(["sweep-rmax", "--config", str(cfg), "--out", str(out),
                     "--seed", "42"]) == EXIT_OK
        manifest = json.loads((out / "run-manifest.json").read_text())
        assert manifest["subcommand"] == "sweep-rmax"
        assert manifest["seed"] == 42
        assert manifest["config"]["sweep_values"] == [10.0]
        assert manifest["config"]["d_max"] == 500
        assert manifest["outputs"] == ["sweep_r_max.csv"]

    def test_threads_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["sweep-l", "--out", str(tmp_path), "--threads", "2"])
        assert exc.value.code == 2


class TestSimulateCommand:
    def test_writes_mapping_and_event_log(self, tmp_path):
        cfg = write_config(tmp_path, "\n".join([
            "d = 4", "rows = 2", "cols = 2", "r_max_mm = 6.0",
            "v_p_mm_per_us = 0.5",
        ]))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        doc = json.loads((out / "mapping.json").read_text())
        assert doc["rows"] == 2 and doc["cols"] == 2
        log = (out / "event_log.csv").read_text()
        assert log.splitlines()[0] == "cycle,event_kind,qubit_id,detail"
        assert "survived" in log

    def test_fallback_route_logs_warning(self, tmp_path, caplog):
        # Every safe route from (5, 4) mm waits at a stopover the front
        # overruns, so qubit 0 takes the nearest one and is lost there.
        cfg = write_config(tmp_path, "\n".join([
            "d = 4", "r_max_mm = 5.0", "v_p_mm_per_us = 1.0",
            "epicenter_x_mm = 5.0", "epicenter_y_mm = 4.0",
        ]))
        out = tmp_path / "out"
        with caplog.at_level("WARNING", logger="crflight"):
            assert main(["simulate", "--config", str(cfg), "--out",
                         str(out)]) == EXIT_OK
        warnings = [r.getMessage() for r in caplog.records
                    if r.levelname == "WARNING"]
        assert warnings == ["qubit(s) 0 fall back to a channel stopover the "
                            "front overruns"]
        assert "destroyed" in (out / "event_log.csv").read_text()

    def test_unescapable_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, "d = 4\nr_max_mm = 500.0\n")
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_UNESCAPABLE
        assert list(out.iterdir()) == []

    def test_unescapable_with_bad_d_max_is_range_error(self, tmp_path, capsys):
        # naming the solver's minimum d for the exit-4 message needs
        # 2 <= d_max <= 2**53; 10**400 once escaped as an OverflowError
        for d_max, message in (("1", "d_max must be >= 2, got 1"),
                               ("1" + "0" * 400, "d_max must be <= 2**53")):
            cfg = write_config(tmp_path, f"d = 11\nd_max = {d_max}\n")
            out = tmp_path / f"out-{len(d_max)}"
            code = main(["simulate", "--config", str(cfg), "--out", str(out)])
            assert code == EXIT_RANGE
            assert message in capsys.readouterr().err
            assert list(out.iterdir()) == []

    @pytest.mark.parametrize("sub", ["simulate", "sweep-l", "sweep-rmax",
                                     "sweep-delta", "reliability",
                                     "replicate-paper"])
    def test_d_above_2_53_is_range_error(self, tmp_path, capsys, sub):
        # simulate once escaped as an OverflowError from Mapping.width_mm;
        # the other subcommands never read d that far and exited 0
        cfg = write_config(tmp_path, "d = 1" + "0" * 400 + "\n")
        out = tmp_path / "out"
        code = main([sub, "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_RANGE
        assert "d must be an integer in [2, 2**53]" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_defaults_escape(self, tmp_path):
        # the default d is the solver's answer for the default physics
        out = tmp_path / "out"
        assert main(["simulate", "--out", str(out)]) == EXIT_OK
        mapping = json.loads((out / "mapping.json").read_text())
        rows = list(csv.DictReader(io.StringIO(
            (out / "event_log.csv").read_text())))
        assert [q["id"] for q in mapping["qubits"]] == [0]
        assert [r["qubit_id"] for r in rows if r["event_kind"] == "survived"] == ["0"]
        assert not any(r["event_kind"] == "destroyed" for r in rows)

    def test_unescapable_names_solver_minimum_d(self, tmp_path, capsys):
        # d = 11 is below the solver's own answer for the default physics
        cfg = write_config(tmp_path, "d = 11\n")
        code = main(["simulate", "--config", str(cfg), "--out",
                     str(tmp_path / "out")])
        assert code == EXIT_UNESCAPABLE
        err = capsys.readouterr().err
        assert "46 (halfway), 69 (at_hole)" in err
        assert "configured d = 11" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_epicenter_is_range_error(self, tmp_path, value):
        cfg = write_config(tmp_path, "\n".join([
            "d = 4", "rows = 2", "cols = 2", "r_max_mm = 6.0",
            "v_p_mm_per_us = 0.5", f"epicenter_x_mm = {value}",
        ]))
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_RANGE
        assert list(out.iterdir()) == []


class TestReliabilityCommand:
    def test_left_endpoint_matches_analytic(self, tmp_path):
        cfg = write_config(tmp_path, "\n".join([
            "d = 11", "lambda_per_s = 0.1", "tau_s_min = 1e-12",
            "tau_s_max = 1.0", "tau_points = 3", "n_trials = 2000",
            "r_max_mm = 6.0", "rows = 1", "cols = 1",
        ]))
        out = tmp_path / "out"
        assert main(["reliability", "--config", str(cfg), "--out",
                     str(out)]) == EXIT_OK
        lines = (out / "reliability.csv").read_text().splitlines()
        assert lines[0] == "tau,analytic_failure,mc_failure,mc_halfwidth"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert math.isclose(float(first[1]), 0.04, rel_tol=1e-9)

    def test_builds_no_mapping(self, tmp_path, monkeypatch):
        # Analytic mode never read the mapping, but a 1000 x 1000 chip was
        # built anyway (2.65 s, 258 MB) and a 100000 x 100000 one ran out of
        # memory.
        text = "tau_points = 3\nn_trials = 500\n"
        small, large = tmp_path / "small", tmp_path / "large"
        assert main(["reliability", "--config", str(write_config(
            tmp_path, text)), "--out", str(small)]) == EXIT_OK

        def boom(*args, **kwargs):
            raise AssertionError("reliability built a mapping")

        monkeypatch.setattr("crflight.cli.build_mapping", boom)
        cfg = write_config(tmp_path, text + "rows = 100000\ncols = 100000\n")
        assert main(["reliability", "--config", str(cfg), "--out",
                     str(large)]) == EXIT_OK
        assert ((large / "reliability.csv").read_bytes()
                == (small / "reliability.csv").read_bytes())

    def test_bad_tau_grid_is_range_error(self, tmp_path):
        cfg = write_config(tmp_path, "tau_s_min = 0\n")
        code = main(["reliability", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == EXIT_RANGE

    @pytest.mark.parametrize("line", ["n_trials = 0", "tau_s_min = nan",
                                      "lambda_per_s = nan", "tau_s_max = inf",
                                      "lambda_per_s = 1e300"])
    def test_range_error_leaves_no_csv(self, tmp_path, capsys, line):
        cfg = write_config(tmp_path, line + "\ntau_points = 3\n")
        out = tmp_path / "out"
        code = main(["reliability", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_RANGE
        assert list(out.iterdir()) == []
        # the message names the key at fault
        assert line.split(" = ")[0] in capsys.readouterr().err

    # numpy cannot allocate 1e12 tau points or trials (7.28 and 14.6 TiB);
    # its MemoryError once escaped main as a traceback with exit 1.
    @pytest.mark.parametrize("line", ["tau_points = 1000000000000",
                                      "n_trials = 1000000000000"],
                             ids=["tau-points", "n-trials"])
    def test_unallocatable_size_is_range_error(self, tmp_path, line):
        cfg = write_config(tmp_path, line + "\n")
        out = tmp_path / "out"
        result = run_cli_capped("reliability", "--config", str(cfg), "--out",
                                str(out))
        assert result.returncode == EXIT_RANGE, result.stderr
        assert "range error: out of memory" in result.stderr
        assert list(out.iterdir()) == []


class TestReplicateCommand:
    def test_error_in_later_sweep_leaves_no_csv(self, tmp_path, monkeypatch):
        # fail the r_max sweep, the second of three
        min_code_distance = solver.min_code_distance

        def failing(p, *args):
            if p.r_max_mm < 3:
                raise ValueError("injected")
            return min_code_distance(p, *args)

        monkeypatch.setattr(solver, "min_code_distance", failing)
        cfg = write_config(tmp_path, "sweep_values = 1, 2\n")
        out = tmp_path / "out"
        code = main(["replicate-paper", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_RANGE
        assert list(out.iterdir()) == []

    def test_deterministic_per_seed(self, tmp_path):
        cfg = write_config(tmp_path, "sweep_values = 1, 10, 50\nd_max = 200\n")
        out_a, out_b, out_c = (tmp_path / n for n in ("a", "b", "c"))
        for out in (out_a, out_b):
            assert main(["replicate-paper", "--config", str(cfg), "--out",
                         str(out), "--seed", "5"]) == EXIT_OK
        assert main(["replicate-paper", "--config", str(cfg), "--out",
                     str(out_c), "--seed", "6"]) == EXIT_OK
        for name in ("replicate_l.csv", "replicate_r_max.csv",
                     "replicate_delta.csv"):
            assert (out_a / name).read_text() == (out_b / name).read_text()
        texts_a = [(out_a / n).read_text() for n in
                   ("replicate_l.csv", "replicate_r_max.csv")]
        texts_c = [(out_c / n).read_text() for n in
                   ("replicate_l.csv", "replicate_r_max.csv")]
        assert texts_a != texts_c

    def test_empty_sweep_list_is_range_error(self, tmp_path):
        cfg = write_config(tmp_path, "sweep_values = ,\n")
        out = tmp_path / "out"
        code = main(["replicate-paper", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_RANGE
        assert list(out.iterdir()) == []


def _rounded_csv(text):
    """reliability.csv with each float to ten significant digits: its tau
    grid comes from numpy's power, whose last ulp can depend on the CPU."""
    rows = list(csv.reader(io.StringIO(text)))
    return "".join(",".join(f"{float(v):.10g}" for v in row) + "\n"
                   for row in rows[1:])


class TestCliDigest:
    """Pins every subcommand's exit code, stderr and artifacts.

    Each of the six subcommands runs at the documented defaults and at one
    ``sweep_values`` config whose ``simulate`` succeeds; its list is out of
    order, so replicate-paper's random draws must follow the sorted values.
    The digest covers the exit code, stderr and every file written, byte for
    byte except the float columns of reliability.csv (see ``_rounded_csv``).
    A change that alters any of them must update CLI_DIGEST and say so in
    CHANGES.md.
    """

    CLI_DIGEST = ("d91dcffe5c8134e973d22683c87e87a8"
                  "c4086a19a3b08935c3f24a3b9a73b9b9")
    CONFIGS = ("", "\n".join([
        "d = 4", "rows = 2", "cols = 2", "r_max_mm = 6.0",
        "v_p_mm_per_us = 0.5", "sweep_values = 50, 1, 10", "d_max = 200",
        "seed = 5", "tau_points = 5", "n_trials = 500", ""]))
    SUBCOMMANDS = ("sweep-l", "sweep-rmax", "sweep-delta", "simulate",
                   "reliability", "replicate-paper")

    def test_cli_outputs_match_digest(self, tmp_path, capsys):
        h = hashlib.sha256()
        for i, text in enumerate(self.CONFIGS):
            cfg = write_config(tmp_path, text)
            for sub in self.SUBCOMMANDS:
                out = tmp_path / f"{i}-{sub}"
                code = main([sub, "--config", str(cfg), "--out", str(out)])
                h.update(f"{i} {sub} exit {code}\n".encode())
                h.update(capsys.readouterr().err.encode())
                for path in sorted(out.iterdir()):
                    body = path.read_text()
                    if path.name == "reliability.csv":
                        body = _rounded_csv(body)
                    h.update(f"{path.name}\n{body}".encode())
        assert h.hexdigest() == self.CLI_DIGEST
