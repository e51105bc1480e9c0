import csv
import hashlib
import io
import json
import math

import pytest

from crflight import solver
from crflight.cli import (EXIT_CONFIG, EXIT_OK, EXIT_RANGE, EXIT_UNESCAPABLE,
                          main)
from crflight.config import ConfigError, parse_config, sweep_values_from
from crflight.solver import read_sweep_csv


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


class TestConfig:
    def test_defaults_without_file(self):
        cfg = parse_config(None)
        assert cfg["d"] == 11
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

    def test_bad_value_rejected(self, tmp_path):
        path = write_config(tmp_path, "d = eleven\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "nope.cfg")

    def test_sweep_grid_expansion(self, tmp_path):
        path = write_config(tmp_path,
                            "sweep_start = 1\nsweep_stop = 2\nsweep_step = 0.5\n")
        assert sweep_values_from(parse_config(path)) == [1.0, 1.5, 2.0]

    @pytest.mark.parametrize("key", ["x0_convention", "scenario"])
    def test_unknown_choice_rejected(self, tmp_path, key):
        path = write_config(tmp_path, f"d = 7\n{key} = bogus\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:2: " + key):
            parse_config(path)

    def test_explicit_values_win(self, tmp_path):
        path = write_config(tmp_path,
                            "sweep_start = 1\nsweep_stop = 9\nsweep_values = 4\n")
        assert sweep_values_from(parse_config(path)) == [4.0]


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
        code = main(["sweep-delta", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == EXIT_RANGE

    def test_nan_sweep_value_is_range_error(self, tmp_path):
        cfg = write_config(tmp_path, "sweep_values = nan, 3\n")
        out = tmp_path / "out"
        code = main(["sweep-rmax", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_RANGE
        assert not (out / "sweep_r_max.csv").exists()

    def test_inf_sweep_value_is_range_error(self, tmp_path):
        cfg = write_config(tmp_path, "sweep_values = inf\n")
        out = tmp_path / "out"
        code = main(["sweep-l", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_RANGE
        assert not (out / "sweep_l.csv").exists()

    def test_unknown_x0_convention_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, "x0_convention = bogus\n")
        code = main(["sweep-l", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

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
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == EXIT_UNESCAPABLE

    def test_unescapable_names_solver_minimum_d(self, tmp_path, capsys):
        # the documented defaults (d = 11) are below the solver's own answer
        code = main(["simulate", "--out", str(tmp_path)])
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
        assert not any(out.iterdir())


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

    def test_bad_tau_grid_is_range_error(self, tmp_path):
        cfg = write_config(tmp_path, "tau_s_min = 0\n")
        code = main(["reliability", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == EXIT_RANGE

    @pytest.mark.parametrize("line", ["n_trials = 0", "tau_s_min = nan",
                                      "lambda_per_s = nan", "tau_s_max = inf"])
    def test_range_error_leaves_no_csv(self, tmp_path, line):
        cfg = write_config(tmp_path, line + "\ntau_points = 3\n")
        out = tmp_path / "out"
        code = main(["reliability", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_RANGE
        assert not (out / "reliability.csv").exists()


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

    CLI_DIGEST = ("f8c1a98e712427a9355ffaa10c7d65f1"
                  "830b067bef5b7fe8b0c812df3c23bb83")
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
