"""End-to-end tests of the command-line surface."""

import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from gausschain import __version__, orbitals
from gausschain.cli import COMMAND_DEFAULTS, _peak_site, main
from gausschain.manybody import MAX_ORACLE_SITES
from gausschain.matio import write_matrix
from gausschain.models import (HatanoNelsonParams, SshParams, build_hatano_nelson,
                               build_local_pump, default_labels, matrix_entries)
from gausschain.orbitals import hn_source_scan, ssh_crossover_scan
from gausschain.steady import solve_lyapunov_direct
from tests.conftest import read_bytes


def read_summary(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def csv_lines(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def data_lines(path):
    return [line for line in csv_lines(path) if not line.startswith("#")]


# hn-profiles flags of a 231-site chain whose doubling powers overflow
OVERFLOWING_CHAIN = ["--n-sites", "231", "--t-right", "2.1139725255515978",
                     "--t-left", "0.0017818522520433315", "--kappa", "0.12934881571526421"]


# small runs of each command; validate also gets a 6-site matrix pair
RERUN_FLAGS = {
    "hn-profiles": ["--n-sites", "6", "--pump-site", "2"],
    "hn-source-scan": ["--n-sites", "6"],
    "hn-occupations": ["--n-sites", "6", "--pump-site", "2"],
    "ssh-profiles": ["--n-cells", "3"],
    "ssh-crossover": ["--n-cells", "3", "--g-points", "4"],
    "oracle-check": ["--n-sites", "2", "--t-final", "1.0"],
}


def write_mismatched_pair(tmp_path):
    """Matrix files of a 12-site X and a 3x3 positive definite Y."""
    x = build_hatano_nelson(HatanoNelsonParams(12, 1.0, 0.17, 1.5))
    x_file, y_file = str(tmp_path / "x.json"), str(tmp_path / "y.json")
    write_matrix(x_file, matrix_entries(x), x.labels)
    write_matrix(y_file, 0.1 * np.eye(3), x.labels[:3])
    return x_file, y_file


class TestParserBasics:

    def test_version_flag_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert "gausschain" in capsys.readouterr().out

    def test_missing_command_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2


class TestHnCommands:

    def test_profiles_writes_csv_and_summary(self, tmp_path):
        out = str(tmp_path / "run")
        assert main(["hn-profiles", "--n-sites", "12", "--pump-site", "5",
                     "--out", out]) == 0
        lines = csv_lines(out + "/hn-profiles.csv")
        assert lines[0].startswith("# gausschain ")
        assert lines[1].startswith("# config: ")
        assert lines[2] == "j,label,R_slow_sq,phi_max_sq,density_norm"
        assert len(lines) == 3 + 12

        summary = read_summary(out + "/hn-profiles.json")
        assert summary["command"] == "hn-profiles"
        assert summary["config"]["n_sites"] == 12
        assert summary["config"]["pump_site"] == 5
        assert len(summary["betas"]["re"]) == 12
        assert len(summary["occupations"]) == summary["resolved_count"]
        assert 1 <= summary["resolved_count"] <= 12
        assert summary["occupations"][-1] > summary["occupation_floor"] > 0
        assert summary["method"] == "direct"
        assert 0.0 <= summary["overlap_slow"] <= 1.0 + 1e-12
        assert 1 <= summary["density_argmax"] <= 12

    def test_single_site_profile_is_all_ones(self, tmp_path):
        out = str(tmp_path / "one")
        assert main(["hn-profiles", "--n-sites", "1", "--pump-site", "1",
                     "--out", out]) == 0
        rows = data_lines(out + "/hn-profiles.csv")
        assert rows == ["j,label,R_slow_sq,phi_max_sq,density_norm", "1,1,1,1,1"]

    def test_long_stable_chain_profiles_succeed(self, tmp_path):
        # A 150-site chain is stable (min Re beta = +0.0855) but the
        # eigenvalue screen once reported -0.09 and exited 2; the densities
        # at the far edge must also come out positive.
        out = str(tmp_path / "long")
        assert main(["hn-profiles", "--n-sites", "150", "--out", out]) == 0
        rows = data_lines(out + "/hn-profiles.csv")[1:]
        assert len(rows) == 150
        assert all(float(row.split(",")[4]) > 0 for row in rows)

    def test_500_site_summary_has_a_finite_residual(self, tmp_path):
        # ||R|| / ||Y|| overflowed here and the JSON writer refused the inf
        out = str(tmp_path / "long")
        assert main(["hn-profiles", "--n-sites", "500", "--out", out]) == 0
        summary = read_summary(out + "/hn-profiles.json")
        assert 0.0 <= summary["residual"] <= 1e-15

    def test_805_site_summary_has_a_finite_condition(self, tmp_path):
        # the condition estimate r^804 overflowed to inf here and the JSON
        # writer refused it; its log10 is written instead
        out = str(tmp_path / "long")
        assert main(["hn-profiles", "--n-sites", "805", "--out", out]) == 0
        summary = read_summary(out + "/hn-profiles.json")
        assert "condition_estimate" not in summary
        assert summary["log10_condition"] == pytest.approx(
            804 * 0.5 * math.log10(1.0 / 0.17), rel=1e-12)
        assert summary["locked"] is True
        assert 0.0 <= summary["residual"] <= 1e-15

    def test_profiles_of_the_reference_chain_times_2_to_520_are_its_own(self, tmp_path):
        # sub * sup overflowed in the pivot recurrence here, which called the
        # chain unstable (exit 2), and the closed-form betas read -inf.  C and
        # what is read off it keep their bits, and so does R_slow: log r was
        # (log t_right - log t_left) / 2, which rounds the two logs of 2^520
        # apart (R_slow_sq off by 8.3e-13 relative), and is now scale-free.
        scale = 2.0 ** 520
        outs = []
        for k, factor in enumerate((1.0, scale)):
            outs.append(str(tmp_path / str(k)))
            assert main(["hn-profiles", f"--t-right={factor!r}", f"--t-left={0.17 * factor!r}",
                         f"--kappa={0.91 * factor!r}", "--out", outs[-1]]) == 0
        base, scaled = (read_summary(out + "/hn-profiles.json") for out in outs)
        assert scaled["betas"]["re"] == [scale * b for b in base["betas"]["re"]]
        for key in ("residual", "occupations_normalized", "density_argmax", "overlap_slow",
                    "log10_condition"):
            assert scaled[key] == base[key]
        base, scaled = (np.array([row.split(",")[2:] for row in data_lines(
            out + "/hn-profiles.csv")[1:]], dtype=float) for out in outs)
        assert np.array_equal(scaled, base)

    def test_out_of_memory_exits_2_with_one_line(self, tmp_path, monkeypatch, capsys):
        # at 10^7 sites numpy's MemoryError once escaped as a traceback with
        # exit 1, the validation-failure code; the builder stands in for it
        def exhausted(params):
            raise MemoryError("Unable to allocate 745. TiB for an array")
        monkeypatch.setattr("gausschain.orbitals.build_hatano_nelson", exhausted)
        assert main(["hn-profiles", "--n-sites", "10000000", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == "error: MemoryError: Unable to allocate 745. TiB for an array\n"

    def test_occupations_table_is_sorted(self, tmp_path, capsys):
        out = str(tmp_path / "occ")
        assert main(["hn-occupations", "--n-sites", "8", "--pump-site", "3",
                     "--out", out]) == 0
        stdout = capsys.readouterr().out
        rows = data_lines(out + "/hn-occupations.csv")
        assert rows[0] == "alpha,nu,nu_norm"
        summary = read_summary(out + "/hn-occupations.json")
        resolved = summary["resolved_count"]
        assert 1 <= resolved <= 8 and len(rows) == 1 + resolved
        values = [row.split(",") for row in rows[1:]]
        assert [int(v[0]) for v in values] == list(range(1, resolved + 1))
        nus = [float(v[1]) for v in values]
        assert nus == sorted(nus, reverse=True)
        assert float(values[0][2]) == 1.0

        # the CSV table carries 12 significant digits, the summary full precision
        assert summary["nu_max"] == pytest.approx(nus[0], rel=1e-11)
        assert summary["separation_second"] < 1.0
        assert summary["locked"] is True
        # stdout prints nu_max and second/top to 9 significant digits
        assert (f"nu_max={summary['nu_max']:.9g}, "
                f"second/top={summary['separation_second']:.9g}, wrote") in stdout

    @pytest.mark.parametrize("argv, n_sites", [(["hn-profiles"], 40), (["hn-occupations"], 40),
                                               (["hn-occupations", "--n-sites", "200"], 200),
                                               (["ssh-profiles"], 40),
                                               (["ssh-profiles", "--n-cells", "100"], 200),
                                               (["hn-profiles", "--n-sites", "200"], 200)])
    def test_only_resolved_occupations_reach_the_outputs(self, tmp_path, argv, n_sites):
        # occupations at or below the floor are rounding noise (at the
        # 40-site reference 12 of them came out negative) and are not written
        out = str(tmp_path / "out")
        assert main(argv + ["--out", out]) == 0
        name = argv[0]
        summary = read_summary(f"{out}/{name}.json")
        floor, resolved = summary["occupation_floor"], summary["resolved_count"]
        assert floor > 0 and 1 <= resolved < n_sites
        if name == "ssh-profiles":
            return
        assert len(summary["occupations"]) == resolved
        assert min(summary["occupations"]) > floor
        if name == "hn-occupations":
            rows = data_lines(f"{out}/{name}.csv")[1:]
            assert len(rows) == resolved
            assert min(float(row.split(",")[1]) for row in rows) > 0
            # the trace is tr C, not the sum of the written occupations
            defaults = COMMAND_DEFAULTS[name]
            x = build_hatano_nelson(HatanoNelsonParams(
                n_sites, defaults["t_right"], defaults["t_left"], defaults["kappa"]))
            c = solve_lyapunov_direct(x, build_local_pump(n_sites, defaults["pump_site"],
                                                          defaults["pump_strength"]))
            assert summary["trace"] == pytest.approx(float(np.trace(c.entries)), rel=1e-15)
            assert summary["trace"] - sum(summary["occupations"]) > 0

    # a 200-site scan solves its pumps in 67 stacks of at most 3
    @pytest.mark.parametrize("n_sites", [10, 200])
    def test_source_scan_covers_every_site_by_default(self, tmp_path, n_sites):
        out = str(tmp_path / "scan")
        assert main(["hn-source-scan", "--n-sites", str(n_sites), "--out", out]) == 0
        rows = data_lines(out + "/hn-source-scan.csv")
        assert rows[0] == "s,nu_max,A1,nu_max_norm,A1_norm"
        assert len(rows) == 1 + n_sites
        assert [int(r.split(",")[0]) for r in rows[1:]] == list(range(1, n_sites + 1))
        assert all(0 < float(r.split(",")[1]) < math.inf for r in rows[1:])

        summary = read_summary(out + "/hn-source-scan.json")
        assert summary["n_points"] == n_sites
        # the analytic loading and the measured occupation rank sites alike
        assert summary["occupation_argmax_site"] == summary["loading_argmax_site"]

    def test_mirror_symmetric_scan_reports_the_lowest_tied_site(self, tmp_path):
        out = str(tmp_path / "mirror")
        assert main(["hn-source-scan", "--n-sites", "7", "--t-right", "0.8",
                     "--t-left", "0.8", "--kappa", "2", "--out", out]) == 0
        summary = read_summary(out + "/hn-source-scan.json")
        # sites s and 8 - s tie on a reciprocal chain
        assert summary["deviation_argmax_site"] == 1
        assert summary["occupation_argmax_site"] == summary["loading_argmax_site"] == 4

    def test_peak_site_ties_within_eight_eps(self):
        scan = hn_source_scan(HatanoNelsonParams(7, 0.8, 0.8, 2.0), 0.03)
        deviation = np.abs(scan.nu_max_normalized - scan.loading_normalized)
        for column in (deviation, deviation[::-1]):
            assert _peak_site(scan.sites, column) == 1
        eps = np.finfo(float).eps
        sites = np.array([3, 4, 5])
        assert _peak_site(sites, np.array([1.0 - 8 * eps, 1.0, 1.0])) == 3
        assert _peak_site(sites, np.array([1.0 - 16 * eps, 1.0, 1.0 - 4 * eps])) == 4

    def test_scan_window_flags_restrict_the_range(self, tmp_path):
        out = str(tmp_path / "window")
        assert main(["hn-source-scan", "--n-sites", "10", "--s-min", "3",
                     "--s-max", "6", "--out", out]) == 0
        rows = data_lines(out + "/hn-source-scan.csv")
        assert [int(r.split(",")[0]) for r in rows[1:]] == [3, 4, 5, 6]

    def test_negative_scan_end_exits_2_naming_s_max(self, tmp_path, capsys):
        out = tmp_path / "negative"
        assert main(["hn-source-scan", "--s-max", "-3", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ParameterError: s_max must be >= 0")
        assert not out.exists()

    def test_profiles_and_occupations_agree_bit_for_bit(self, tmp_path):
        # both read the natural orbitals off one pumped-chain report
        for command in ("hn-profiles", "hn-occupations"):
            assert main([command, "--out", str(tmp_path)]) == 0
        profiles = read_summary(str(tmp_path / "hn-profiles.json"))
        occupations = read_summary(str(tmp_path / "hn-occupations.json"))
        for key in ("occupations", "occupations_normalized", "occupation_floor",
                    "resolved_count", "dominant_indices", "locked"):
            assert profiles[key] == occupations[key], key


class TestSshCommands:

    def test_profiles_reports_edge_and_slow_overlaps(self, tmp_path):
        out = str(tmp_path / "ssh")
        assert main(["ssh-profiles", "--n-cells", "6", "--out", out]) == 0
        rows = data_lines(out + "/ssh-profiles.csv")
        assert rows[0] == "j,label,R_slow_sq,phi_max_sq,density_norm"
        assert len(rows) == 1 + 12
        assert rows[1].split(",")[1] == "1A"
        assert rows[-1].split(",")[1] == "6B"

        summary = read_summary(out + "/ssh-profiles.json")
        for key in ("overlap_edge", "overlap_slow"):
            assert 0.0 <= summary[key] <= 1.0 + 1e-12
        # topological defaults: the edge candidate dominates the top orbital
        assert summary["overlap_edge"] > summary["overlap_slow"]
        assert summary["edge_used_fallback"] is False
        assert isinstance(summary["edge_mode_index"], int)
        assert isinstance(summary["slow_mode_index"], int)

    @pytest.mark.parametrize("g", [-0.25, -0.2, 0.2])
    def test_profiles_and_crossover_agree_bit_for_bit(self, tmp_path, g):
        # both read the overlaps and mode indices off one diagnostics report
        assert main(["ssh-profiles", f"--g={g!r}", "--out", str(tmp_path)]) == 0
        summary = read_summary(str(tmp_path / "ssh-profiles.json"))
        cfg = COMMAND_DEFAULTS["ssh-profiles"]
        params = SshParams(cfg["n_cells"], cfg["t1"], cfg["t2"], g, cfg["kappa"])
        scan = ssh_crossover_scan(params, cfg["pump_cell"], cfg["pump_sublattice"],
                                  cfg["pump_strength"], g_values=[g])
        assert scan.failures == ()
        (_, o_edge, o_slow, edge_index, slow_index), = scan.rows()
        assert summary["overlap_edge"] == o_edge
        assert summary["overlap_slow"] == o_slow
        assert summary["edge_mode_index"] == edge_index
        assert summary["slow_mode_index"] == slow_index

    def test_reciprocal_edge_pair_is_reported_as_a_tie(self, tmp_path):
        # from 100 cells the g = 0 edge pair ties to rounding: O_edge is the
        # even combination's 0.308423, not the 0.616845 of one boundary state
        assert main(["ssh-profiles", "--n-cells", "100", "--g=0", "--out", str(tmp_path)]) == 0
        summary = read_summary(str(tmp_path / "ssh-profiles.json"))
        assert round(summary["overlap_edge"], 6) == 0.308423
        assert len(summary["edge_tied_indices"]) == 2
        assert summary["edge_mode_index"] in summary["edge_tied_indices"]

    def test_crossover_grid_and_summary(self, tmp_path):
        out = str(tmp_path / "cross")
        assert main(["ssh-crossover", "--n-cells", "6", "--g-min", "-0.3",
                     "--g-max", "0.3", "--g-points", "5", "--out", out]) == 0
        rows = data_lines(out + "/ssh-crossover.csv")
        assert rows[0] == "g,O_edge,O_slow,edge_mode_index,slow_mode_index"
        assert len(rows) == 1 + 5
        gs = [float(r.split(",")[0]) for r in rows[1:]]
        np.testing.assert_allclose(gs, np.linspace(-0.3, 0.3, 5), atol=1e-12)

        summary = read_summary(out + "/ssh-crossover.json")
        assert summary["n_points"] == 5
        assert summary["failures"] == []
        for lo, hi in summary["crossings"]:
            assert -0.3 <= lo < hi <= 0.3

    @pytest.mark.parametrize("flags, err", [
        (["--g-points", "0"], "g_points must be a positive integer, got 0\n"),
        # kappa 0.1 is unstable at every g of the grid
        (["--kappa", "0.1", "--g-points", "3"],
         "every crossover scan point failed; first: StabilityError: relaxation matrix is not "
         "strictly stable: pivot 2 of its unpivoted LU factorization is -2.400000e+00 <= 0\n"),
    ], ids=["empty grid", "every point fails"])
    def test_a_scan_with_no_point_exits_2(self, tmp_path, capsys, flags, err):
        out = tmp_path / "out"
        assert main(["ssh-crossover", *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: ParameterError: " + err
        assert not out.exists()

    def test_a_g_past_the_double_range_exits_2_naming_g(self, tmp_path, capsys):
        # math.exp(1000) once leaked OverflowError, a traceback and exit 1
        assert main(["ssh-profiles", "--g", "1000", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ParameterError: g must keep ")

    def test_a_negative_pump_strength_exits_2_before_any_scan_point(self, tmp_path, capsys,
                                                                     monkeypatch):
        # the strength was gated per point: X was built at all 24 points, and
        # the command exited 2 with "every crossover scan point failed; first: ..."
        def no_build(params):
            raise AssertionError("X built for a refused pump strength")

        monkeypatch.setattr(orbitals, "build_ssh", no_build)
        assert main(["ssh-crossover", "--pump-strength", "-1", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "error: ParameterError: pump strength must be positive, got -1.0\n")
        assert list(tmp_path.iterdir()) == []


class TestConfigResolution:

    def test_config_file_applies_and_flags_win(self, tmp_path):
        # a whole-number float is taken for an int key, and echoed as one
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"n_sites": 6, "kappa": 1.2, "pump_site": 2.0}))
        out = str(tmp_path / "run")
        assert main(["hn-occupations", "--config", str(config), "--n-sites", "8",
                     "--out", out]) == 0
        echoed = read_summary(out + "/hn-occupations.json")["config"]
        assert echoed["n_sites"] == 8
        assert echoed["kappa"] == 1.2
        assert type(echoed["pump_site"]) is int and echoed["pump_site"] == 2
        assert set(echoed) == {"command", "out"} | set(COMMAND_DEFAULTS["hn-occupations"])

    def test_unknown_config_key_is_an_error(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"bogus": 1}))
        assert main(["hn-occupations", "--config", str(config),
                     "--out", str(tmp_path)]) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_wrong_config_value_type_is_an_error(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        for payload, message in (({"n_sites": "forty"}, "must be of type int"),
                                 ([{"n_sites": 6}], "must hold a JSON object")):
            config.write_text(json.dumps(payload))
            assert main(["hn-occupations", "--config", str(config),
                         "--out", str(tmp_path)]) == 2
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("threads", 2), ("solver", "spectral"),
                                            ("seed", 7)])
    def test_removed_common_options_are_rejected(self, tmp_path, capsys, key, value):
        with pytest.raises(SystemExit) as info:
            main(["hn-occupations", f"--{key}", str(value), "--out", str(tmp_path)])
        assert info.value.code == 2
        capsys.readouterr()
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({key: value}))
        assert main(["hn-occupations", "--config", str(config),
                     "--out", str(tmp_path)]) == 2
        assert "unknown config key" in capsys.readouterr().err

    FLOAT_KEYS = [(command, key) for command, defaults in COMMAND_DEFAULTS.items()
                  for key, value in defaults.items() if isinstance(value, float)]

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("command, key", FLOAT_KEYS,
                             ids=[f"{c}-{k}" for c, k in FLOAT_KEYS])
    def test_non_finite_values_are_refused_before_any_work(self, tmp_path, capsys, command,
                                                           key, value, source):
        out = tmp_path / "out"
        argv = [command, "--out", str(out)]
        if source == "flag":
            argv += ["--" + key.replace("_", "-"), str(value)]
        else:
            config = tmp_path / "cfg.json"
            config.write_text(json.dumps({key: value}))  # NaN / Infinity tokens
            argv += ["--config", str(config)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 2
        assert caught == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: ParameterError: {key} must be finite, got {value}\n"
        assert not out.exists()

    def test_non_finite_integer_config_values_are_type_errors(self, tmp_path, capsys):
        for token in ("NaN", "Infinity", "1e999"):
            config = tmp_path / "cfg.json"
            config.write_text(f'{{"n_sites": {token}}}')
            assert main(["hn-occupations", "--config", str(config),
                         "--out", str(tmp_path / "out")]) == 2
            assert "'n_sites' must be of type int" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", list(COMMAND_DEFAULTS))
    def test_reruns_are_byte_identical(self, tmp_path, capsys, command):
        out = tmp_path / "twice"
        argv = [command, *RERUN_FLAGS.get(command, []), "--out", str(out)]
        if command == "validate":
            x = build_hatano_nelson(HatanoNelsonParams(6, 1.0, 0.17, 1.3))
            write_matrix(str(tmp_path / "x.json"), x.entries, x.labels)
            write_matrix(str(tmp_path / "y.json"), 0.1 * np.eye(6), x.labels)
            argv += ["--x-file", str(tmp_path / "x.json"), "--y-file", str(tmp_path / "y.json")]
        assert main(argv) == 0
        first = {path.name: read_bytes(path) for path in out.iterdir()}
        assert f"{command}.json" in first
        # the one writer's contract: the summary opens with version, command
        # and config, a table with its two comment lines, and stdout names
        # exactly the files written
        summary = read_summary(str(out / f"{command}.json"))
        assert list(summary)[:3] == ["version", "command", "config"]
        assert summary["version"] == __version__ and summary["command"] == command
        if f"{command}.csv" in first:
            version, config = first[f"{command}.csv"].decode().splitlines()[:2]
            assert version == f"# gausschain {__version__}"
            assert config.startswith("# config: ")
            assert json.loads(config[len("# config: "):]) == summary["config"]
        wrote = [line.split(", wrote ", 1)[1] for line in capsys.readouterr().out.splitlines()
                 if ", wrote " in line]
        assert len(wrote) == 1
        assert wrote[0].split(" and ") == [str(out / name) for name in sorted(first)]
        assert main(argv) == 0
        assert {path.name: read_bytes(path) for path in out.iterdir()} == first

    def test_output_directory_is_created(self, tmp_path):
        out = str(tmp_path / "a" / "b" / "c")
        assert main(["hn-occupations", "--n-sites", "4", "--pump-site", "1",
                     "--out", out]) == 0
        assert (tmp_path / "a" / "b" / "c" / "hn-occupations.json").exists()


class TestFailureExitCodes:

    def test_unstable_chain_exits_2(self, tmp_path, capsys):
        assert main(["hn-profiles", "--n-sites", "8", "--kappa", "0.1",
                     "--out", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["hn-profiles", "hn-occupations"])
    def test_overflowing_correlator_exits_2_naming_the_cause(self, tmp_path, capsys,
                                                             command):
        # exited 2 from a later stage that named a non-finite mode vector
        # or an unserializable NaN instead
        assert main([command, "--pump-strength", "1e304", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "EnvelopeOverflowError: steady correlator is not finite" in err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("command", ["hn-profiles", "hn-occupations"])
    def test_overflowing_occupations_exit_2_naming_them(self, tmp_path, capsys, command):
        # C is finite but its top occupation is not: the command printed a
        # numpy RuntimeWarning and blamed a non-finite entry of the occupations
        assert main([command, "--pump-strength", "1e300", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "EnvelopeOverflowError: orbital occupations are not representable" in err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("command", ["hn-profiles", "hn-occupations", "ssh-profiles"])
    def test_subnormal_correlator_exits_2_naming_the_underflow(self, tmp_path, capsys,
                                                               command):
        # C is linear in the pump, yet at 1e-320 these exited 0 with overlaps
        # and occupations moved by subnormal rounding (21 resolved
        # occupations instead of 15, O_slow 0.053797 instead of 0.053949)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--pump-strength", "1e-320", "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: EnvelopeOverflowError: steady correlator peaks below "
                                "the smallest normal double: it underflows double precision\n")
        assert not os.listdir(tmp_path)

    def test_underflowing_scan_column_exits_2_naming_it(self, tmp_path, capsys):
        # every A1 underflows at 1e-320: the command printed a numpy
        # RuntimeWarning and failed to serialize the NaN of 0 / 0
        assert main(["hn-source-scan", "--pump-strength", "1e-320",
                     "--out", str(tmp_path)]) == 2
        assert "NormalizationError: scan column A1 vanishes" in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    def test_pump_site_out_of_range_exits_2(self, tmp_path, capsys):
        assert main(["hn-profiles", "--n-sites", "8", "--pump-site", "99",
                     "--out", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_overflowing_doubling_exits_2_naming_the_power_without_warnings(self, tmp_path):
        # 231 sites 5% above the stability edge: A^(2^8) overflows.  The
        # command printed three numpy RuntimeWarnings and blamed a
        # numerically singular X; run as a subprocess, so stderr is the
        # command's own.
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        out = tmp_path / "run"
        proc = subprocess.run(
            [sys.executable, "-m", "gausschain.cli", "hn-profiles"] + OVERFLOWING_CHAIN
            + ["--pump-site", "231", "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=src), timeout=120, capture_output=True, text=True)
        assert proc.returncode == 2
        assert "RuntimeWarning" not in proc.stderr
        assert proc.stderr == ("error: EnvelopeOverflowError: Smith doubling power A^(2^8) is "
                               "not finite: the Cayley transform's powers overflow double "
                               "precision\n")
        assert not out.exists()


class TestInverseDesignCommand:

    def test_feasible_chain_roundtrip(self, tmp_path):
        out = str(tmp_path / "hn")
        assert main(["inverse-design", "--out", out]) == 0
        summary = read_summary(out + "/inverse-design.json")
        assert summary["realization"]["physical"] is True
        labels = [j["label"] for j in summary["jumps"]["loss"]]
        assert "bond(1)" in labels and "onsite(1)" in labels
        assert [j["label"] for j in summary["jumps"]["gain"]] == [
            "pump(1)", "pump(2)", "pump(3)"]
        assert summary["validation"]["passed"] is True

    def test_feasible_two_band_chain(self, tmp_path):
        out = str(tmp_path / "ssh")
        assert main(["inverse-design", "--model", "ssh", "--n-cells", "3",
                     "--kappa", "1.6", "--out", out]) == 0
        summary = read_summary(out + "/inverse-design.json")
        assert summary["realization"]["physical"] is True
        assert summary["validation"]["passed"] is True

    def test_two_band_defaults_are_feasible(self, tmp_path, capsys):
        out = str(tmp_path / "ssh")
        assert main(["inverse-design", "--model", "ssh", "--out", out]) == 0
        summary = read_summary(out + "/inverse-design.json")
        assert summary["config"]["kappa"] == 2.0
        assert summary["validation"]["passed"] is True
        # an explicit kappa still wins over the two-band default
        assert main(["inverse-design", "--model", "ssh", "--kappa", "1.5",
                     "--out", str(tmp_path / "given")]) == 3
        assert "need 2 kappa - gamma >= 3, have 2.9" in capsys.readouterr().err

    def test_infeasible_damping_exits_3_with_deficits(self, tmp_path, capsys):
        assert main(["inverse-design", "--kappa", "0.91", "--gamma", "0.03",
                     "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "infeasible" in err
        assert "deficit at" in err
        assert "0.55" in err

    # The default chain x1e5 and the two-band chain x1e4 are feasible and
    # validate at 2 PSD_TOL of their peaks; 2 kappa - gamma 3e-9 relative short
    # of 2 (t_right + t_left), and the default chain x1e-6 0.3 % short, are
    # deficits at any scale: none of them may exit 1.
    @pytest.mark.parametrize("flags, code, detail", [
        (["--t-right", "100000", "--t-left", "17000", "--kappa", "150000",
          "--gamma", "10000"], 0, 5.8e-7),
        (["--model", "ssh", "--t1", "5000", "--t2", "10000", "--g", "0.1",
          "--kappa", "20000", "--gamma", "1000"], 0, 7.8e-8),
        (["--t-left", "0.17", "--gamma", "0.1", "--kappa", "1.21999999649"], 3,
         "deficit at single-band decomposition: -7.02e-09"),
        (["--t-right", "1e-06", "--t-left", "1.7e-07", "--gamma", "1e-07",
          "--kappa", "1.21649e-06"], 3, "deficit at single-band decomposition: -7.02e-09"),
    ])
    def test_one_realizability_rule_at_every_scale(self, tmp_path, capsys, flags, code,
                                                   detail):
        out = tmp_path / "out"
        assert main(["inverse-design", *flags, "--out", str(out)]) == code
        if code == 0:
            validation = read_summary(str(out / "inverse-design.json"))["validation"]
            assert validation["passed"] is True
            assert validation["tolerance"] == pytest.approx(detail, rel=1e-12)
        else:
            assert detail in capsys.readouterr().err
            assert not out.exists()

    # At the parent of the number rule true pumped site 2 at 1.0 with exit 0,
    # null leaked a TypeError traceback and "0.1" was read as 0.1.
    @pytest.mark.parametrize("entry, shown", [("true", "True"), ("null", "None"),
                                              ('"0.1"', "'0.1'")])
    def test_malformed_pump_file_entry_exits_2_naming_file_and_entry(self, tmp_path, capsys,
                                                                     entry, shown):
        pump_file = tmp_path / "pump.json"
        pump_file.write_text(f"[0.1, {entry}, 0.1]")
        out = tmp_path / "out"
        assert main(["inverse-design", "--kappa", "5", "--pump-file", str(pump_file),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: ParameterError: pump_file {pump_file} contains non-finite entries: "
            f"entry 2 is {shown}\n")
        assert not out.exists()

    def test_pump_profile_is_held_to_the_source_matrix_psd_rule(self, tmp_path):
        # -1e-15 is within PSD_TOL of the peak 0.1: SourceMatrix took it and
        # the decomposition's own rule refused it in the same run
        pump_file = tmp_path / "pump.json"
        pump_file.write_text("[0.1, -1e-15, 0.1]")
        out = str(tmp_path / "out")
        assert main(["inverse-design", "--kappa", "5", "--pump-file", str(pump_file),
                     "--out", out]) == 0
        summary = read_summary(out + "/inverse-design.json")
        assert summary["validation"]["passed"] is True
        assert [j["label"] for j in summary["jumps"]["gain"]] == ["pump(1)", "pump(3)"]

    def test_infeasibility_message_prints_sides_that_differ(self, tmp_path, capsys):
        # at 6 digits both sides read 2.34
        assert main(["inverse-design", "--t-left", "0.17", "--gamma", "0.1",
                     "--kappa", "1.21999999649", "--out", str(tmp_path)]) == 3
        assert "(need 2 kappa - gamma >= 2.34, have 2.33999999)" in capsys.readouterr().err

    @pytest.mark.parametrize("model, err", [
        ("custom-file", "model custom-file requires x_file and y_file"),
        ("foo", "model must be hn, ssh, or custom-file, got 'foo'")], ids=["custom-file", "foo"])
    def test_model_without_its_inputs_exits_2_naming_them(self, tmp_path, capsys, model, err):
        out = tmp_path / "out"
        assert main(["inverse-design", "--model", model, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: ParameterError: {err}\n"
        assert not out.exists()

    def test_custom_file_size_mismatch_names_both_shapes(self, tmp_path, capsys):
        x_file, y_file = write_mismatched_pair(tmp_path)
        out = tmp_path / "out"
        assert main(["inverse-design", "--model", "custom-file", "--x-file", x_file,
                     "--y-file", y_file, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: ParameterError: y_file shape (3, 3) does not match x_file shape (12, 12)\n")
        assert not out.exists()


class TestValidateCommand:

    @staticmethod
    def write_pair(tmp_path, kappa):
        params = HatanoNelsonParams(4, 1.0, 0.17, kappa)
        x = build_hatano_nelson(params)
        labels = x.labels
        x_file = str(tmp_path / "x.json")
        y_file = str(tmp_path / "y.json")
        write_matrix(x_file, matrix_entries(x), labels)
        write_matrix(y_file, 0.1 * np.eye(4), labels)
        return x_file, y_file

    def test_physical_pair_passes_every_check(self, tmp_path, capsys):
        x_file, y_file = self.write_pair(tmp_path, kappa=1.5)
        out = str(tmp_path / "ok")
        assert main(["validate", "--x-file", x_file, "--y-file", y_file,
                     "--out", out]) == 0
        summary = read_summary(out + "/validate.json")
        assert summary["passed"] is True
        names = [c["name"] for c in summary["checks"]]
        assert names == ["source_hermitian_psd", "relaxation_stable",
                         "steady_residual", "correlator_hermitian",
                         "occupations_in_unit_interval", "density_reconstruction",
                         "occupation_trace"]
        assert all(c["passed"] for c in summary["checks"])
        assert "all 7 checks passed" in capsys.readouterr().out

    def test_unstable_pair_exits_1(self, tmp_path, capsys):
        x_file, y_file = self.write_pair(tmp_path, kappa=0.1)
        out = str(tmp_path / "bad")
        assert main(["validate", "--x-file", x_file, "--y-file", y_file,
                     "--out", out]) == 1
        captured = capsys.readouterr()
        assert "validation failure" in captured.err
        summary = read_summary(out + "/validate.json")
        assert summary["passed"] is False
        by_name = {c["name"]: c for c in summary["checks"]}
        assert by_name["relaxation_stable"]["passed"] is False
        assert "unpivoted LU factorization" in by_name["relaxation_stable"]["detail"]

    @staticmethod
    def validate_chain(tmp_path, n_sites, kappa, twin=False, one_way_bond=None):
        """Checks by name of validate on the reference chain with its pump at
        site 15; ``twin`` flips every hopping's sign, X -> S X S, s_j = (-1)^j,
        and ``one_way_bond`` = j zeroes the 1-based entry X[j+1, j]."""
        x = build_hatano_nelson(HatanoNelsonParams(n_sites, 1.0, 0.17, kappa))
        entries = matrix_entries(x).copy()
        if twin:
            s = (-1.0) ** np.arange(n_sites)
            entries = s[:, None] * entries * s[None, :]
        if one_way_bond is not None:
            entries[one_way_bond, one_way_bond - 1] = 0.0
        x_file = str(tmp_path / "x.json")
        y_file = str(tmp_path / "y.json")
        write_matrix(x_file, entries, x.labels)
        write_matrix(y_file, matrix_entries(build_local_pump(n_sites, 15, 0.03)), x.labels)
        out = str(tmp_path / "out")
        main(["validate", "--x-file", x_file, "--y-file", y_file, "--out", out])
        return {c["name"]: c for c in read_summary(out + "/validate.json")["checks"]}

    @pytest.mark.parametrize("kappa, twin", [(0.91, False), (0.91, True), (0.5, False),
                                             (0.5, True)])
    def test_long_chain_stability_takes_the_solver_certificate(self, tmp_path, kappa, twin):
        # eigvals on this 150-site X returns pseudospectrum (min rate -0.0917
        # at kappa 0.91).  The LU pivots kappa - 0.17 / u_k-1 fall to the
        # larger root of u^2 - kappa u + 0.17 when kappa^2 > 0.68, and turn
        # negative at the third when kappa is 0.5.
        by_name = self.validate_chain(tmp_path, 150, kappa, twin)
        check = by_name["relaxation_stable"]
        if kappa > 0.9:
            assert check["passed"] is True
            assert check["detail"] == "certified by the smallest LU pivot"
            root = (kappa + math.sqrt(kappa ** 2 - 0.68)) / 2.0
            assert check["value"] == pytest.approx(root, rel=0, abs=1e-12)
            assert by_name["steady_residual"]["passed"] is True
        else:
            assert check["passed"] is False and check["value"] is None
            assert "pivot 3 of its unpivoted LU factorization is -5.625000e-01" in (
                check["detail"])
            assert by_name["steady_state"]["detail"].startswith("skipped")

    def test_one_way_bond_is_certified_by_its_pivots(self, tmp_path):
        # The bond X[151, 150] = 0 splits X into two 150-site chains, each
        # stable (slowest rate +0.0856); eigvals of the whole 300-site X
        # reads -0.0987.  Only the physicality verdict fails (2 kappa < 2.34).
        by_name = self.validate_chain(tmp_path, 300, 0.91, one_way_bond=150)
        assert [name for name, c in by_name.items() if not c["passed"]] == [
            "occupations_in_unit_interval"]
        root = (0.91 + math.sqrt(0.91 ** 2 - 0.68)) / 2.0
        assert by_name["relaxation_stable"]["value"] == pytest.approx(root, rel=0, abs=1e-12)
        assert by_name["steady_residual"]["value"] <= 1e-15

    @pytest.mark.parametrize("case", ["chain", "dense", "complex"])
    def test_subnormal_pump_reports_every_check(self, tmp_path, case):
        # Y = 1e-320 I: 1 / nu_max overflowed, and validate exited 2 on the
        # NaN of inf * 0, after a numpy RuntimeWarning for the dense X.  The
        # complex 12-site pump overflowed in the division by its subnormal
        # peak.  Each C peaks below the smallest normal double, so the steady
        # check fails naming the underflow, after the two checks that need no C.
        n_sites = 12 if case == "complex" else 6
        x = matrix_entries(build_hatano_nelson(HatanoNelsonParams(n_sites, 1.0, 0.17,
                                                                  1.3))).copy()
        if case == "dense":
            x[0, 3], x[4, 1] = 0.05, -0.03
        hop = np.eye(n_sites, k=1) - np.eye(n_sites, k=-1)
        y = 1e-320 * (np.eye(n_sites) + (0.1j * hop if case == "complex" else 0.0))
        x_file, y_file = str(tmp_path / "x.json"), str(tmp_path / "y.json")
        labels = default_labels(n_sites)
        write_matrix(x_file, x, labels)
        write_matrix(y_file, y, labels)
        out = str(tmp_path / "out")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["validate", "--x-file", x_file, "--y-file", y_file,
                         "--out", out]) == 1
        checks = read_summary(out + "/validate.json")["checks"]
        assert [(c["name"], c["passed"]) for c in checks] == [
            ("source_hermitian_psd", True), ("relaxation_stable", True),
            ("steady_state", False)]
        assert checks[2]["detail"] == ("steady correlator peaks below the smallest normal "
                                       "double: it underflows double precision")

    def test_dense_unstable_relaxation_fails_the_eigenvalue_screen(self, tmp_path):
        # not tridiagonal, so the solver screens eigvals: 0.1 - 1.5 = -1.4 < 0
        x_file, y_file = str(tmp_path / "x.json"), str(tmp_path / "y.json")
        labels = ("1", "2", "3")
        write_matrix(x_file, 0.1 * np.eye(3) - 0.5 * np.ones((3, 3)), labels)
        write_matrix(y_file, 0.1 * np.eye(3), labels)
        out = str(tmp_path / "out")
        assert main(["validate", "--x-file", x_file, "--y-file", y_file, "--out", out]) == 1
        check = {c["name"]: c for c in read_summary(out + "/validate.json")["checks"]}[
            "relaxation_stable"]
        assert check["passed"] is False
        assert check["detail"].startswith("spectrum is not strictly stable: min Re beta = -1.4")

    def test_dense_stable_relaxation_is_certified_by_the_eigenvalue_screen(self, tmp_path):
        x_file, y_file = str(tmp_path / "x.json"), str(tmp_path / "y.json")
        labels = ("1", "2", "3")
        write_matrix(x_file, 2.0 * np.eye(3) + 0.5 * np.ones((3, 3)), labels)
        write_matrix(y_file, 0.1 * np.eye(3), labels)
        out = str(tmp_path / "out")
        main(["validate", "--x-file", x_file, "--y-file", y_file, "--out", out])
        check = read_summary(out + "/validate.json")["checks"][1]
        assert check["passed"] is True
        assert check["detail"] == "certified by the min Re beta of the eigenvalue screen"
        assert check["value"] == pytest.approx(2.0, rel=1e-14)

    @pytest.mark.parametrize("n_sites, twin, loss_min", [(40, False, "-0.514"),
                                                         (150, False, "-0.52"),
                                                         (150, True, "-0.52")])
    def test_reference_pairs_fail_only_the_physicality_verdict(self, tmp_path, n_sites,
                                                                twin, loss_min):
        # nu_max is 7.65e6 at 40 sites and 1.09e48 at 150: asymmetry, density
        # and trace are read relative to it.  Occupations above 1 are the true
        # verdict, since 2 kappa < 2 (t_R + t_L) makes the loss Gram indefinite.
        by_name = self.validate_chain(tmp_path, n_sites, 0.91, twin)
        failed = [name for name, c in by_name.items() if not c["passed"]]
        assert failed == ["occupations_in_unit_interval"]
        assert f"min eigenvalue {loss_min};" in by_name[failed[0]]["detail"]
        assert by_name["correlator_hermitian"]["value"] <= 1e-14
        # density and trace read the omitted occupations below the floor
        # (1.08e-14 nu_max at 150 sites); their limit is the certified tail
        # bound (block_width - resolved_count + 1)(residual + 4 N eps),
        # 3.6e-12 at 150 sites
        for name in ("density_reconstruction", "occupation_trace"):
            assert by_name[name]["value"] <= by_name[name]["limit"] <= 1e-11
        assert by_name["source_hermitian_psd"]["limit"] == -1e-12 * 0.03

    def test_physical_long_pair_passes_every_check(self, tmp_path):
        by_name = self.validate_chain(tmp_path, 150, 1.5)
        assert len(by_name) == 7 and all(c["passed"] for c in by_name.values())

    def test_indefinite_source_exits_1(self, tmp_path, capsys):
        params = HatanoNelsonParams(2, 1.0, 0.17, 1.5)
        x = build_hatano_nelson(params)
        x_file = str(tmp_path / "x.json")
        y_file = str(tmp_path / "y.json")
        write_matrix(x_file, matrix_entries(x), x.labels)
        write_matrix(y_file, np.diag([1.0, -1.0]), x.labels)
        assert main(["validate", "--x-file", x_file, "--y-file", y_file,
                     "--out", str(tmp_path / "out")]) == 1
        assert "validation failure" in capsys.readouterr().err

    def test_overflowing_doubling_is_reported_in_the_stability_check(self, tmp_path):
        params = HatanoNelsonParams(231, *(float(v) for v in OVERFLOWING_CHAIN[3::2]))
        x = build_hatano_nelson(params)
        x_file, y_file = str(tmp_path / "x.json"), str(tmp_path / "y.json")
        write_matrix(x_file, matrix_entries(x), x.labels)
        write_matrix(y_file, matrix_entries(build_local_pump(231, 231, 0.03)), x.labels)
        out = str(tmp_path / "out")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["validate", "--x-file", x_file, "--y-file", y_file,
                         "--out", out]) == 1
        check = read_summary(out + "/validate.json")["checks"][1]
        assert check["name"] == "relaxation_stable" and check["passed"] is False
        assert check["detail"].startswith("Smith doubling power A^(2^8) is not finite")

    # At the parent of the number rule true was read as 1.0 and "0.1" as 0.1,
    # both with exit 0, and null leaked a TypeError.
    @pytest.mark.parametrize("name", ["x_file", "y_file"])
    @pytest.mark.parametrize("entry, shown", [(True, "True"), (None, "None"),
                                              ("0.1", "'0.1'")])
    def test_malformed_matrix_file_entry_exits_2_naming_file_and_entry(self, tmp_path, capsys,
                                                                       name, entry, shown):
        files = dict(zip(("x_file", "y_file"), self.write_pair(tmp_path, kappa=1.5)))
        payload = read_summary(files[name])
        payload["re"][1][2] = entry
        with open(files[name], "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        out = tmp_path / "out"
        assert main(["validate", "--x-file", files["x_file"], "--y-file", files["y_file"],
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: ParameterError: {files[name]} re contains non-finite entries: "
            f"entry (2, 3) is {shown}\n")
        assert not out.exists()

    def test_missing_files_exit_2(self, tmp_path):
        assert main(["validate", "--out", str(tmp_path)]) == 2

    def test_size_mismatch_names_both_shapes(self, tmp_path, capsys):
        # a PSD 3x3 Y beside a 12-site X is a size error, not a source failure
        x_file, y_file = write_mismatched_pair(tmp_path)
        out = tmp_path / "out"
        assert main(["validate", "--x-file", x_file, "--y-file", y_file,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: ParameterError: y_file shape (3, 3) does not match x_file shape (12, 12)\n")
        assert not out.exists()


class TestOracleCheckCommand:

    # the default grid, t in [0, 10] every 0.1; 6 sites is the widest
    # charge block, 924 wide
    @pytest.mark.parametrize("n_sites", range(2, MAX_ORACLE_SITES + 1))
    def test_chain_agrees_with_the_oracle(self, tmp_path, capsys, n_sites):
        out = str(tmp_path / "oracle")
        assert main(["oracle-check", "--n-sites", str(n_sites), "--out", out]) == 0
        summary = read_summary(out + "/oracle-check.json")
        assert summary["passed"] is True
        assert summary["max_trajectory_deviation"] <= summary["trajectory_limit"]
        assert summary["steady_state_deviation"] <= summary["steady_limit"]
        assert summary["max_trace_drift"] <= 1e-10
        assert "oracle-check:" in capsys.readouterr().out

    def test_a_disagreement_exits_1_after_writing_the_verdict(self, tmp_path, capsys,
                                                              monkeypatch):
        monkeypatch.setattr("gausschain.cli.ORACLE_STEADY_LIMIT", 0.0)
        out = str(tmp_path / "oracle")
        assert main(["oracle-check", "--n-sites", "2", "--t-final", "1.0", "--out", out]) == 1
        assert capsys.readouterr().err.startswith(
            "validation failure: oracle disagrees with the correlator stack: trajectory ")
        summary = read_summary(out + "/oracle-check.json")
        assert summary["passed"] is False and summary["steady_limit"] == 0.0

    def test_seven_sites_exit_2_on_the_cap(self, tmp_path, capsys):
        out = tmp_path / "oracle"
        assert main(["oracle-check", "--n-sites", "7", "--out", str(out)]) == 2
        assert "error: ScaleError: oracle supports at most 6 sites" in capsys.readouterr().err
        assert not (out / "oracle-check.json").exists()


def test_cli_import_leaves_scipy_and_mpmath_unloaded():
    # start-up cost of every command: neither is needed outside the tests
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, gausschain.cli; "
            "sys.exit(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'mpmath')) or None)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
