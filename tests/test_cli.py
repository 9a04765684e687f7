"""End-to-end tests of the command-line surface."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from gausschain.cli import COMMAND_DEFAULTS, _peak_site, main
from gausschain.matio import write_matrix
from gausschain.models import (HatanoNelsonParams, SshParams, build_hatano_nelson,
                               build_local_pump, matrix_entries)
from gausschain.orbitals import hn_source_scan, ssh_crossover_scan
from tests.conftest import read_bytes


def read_summary(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def csv_lines(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def data_lines(path):
    return [line for line in csv_lines(path) if not line.startswith("#")]


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
        assert len(summary["occupations"]) == 12
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

    def test_occupations_table_is_sorted(self, tmp_path):
        out = str(tmp_path / "occ")
        assert main(["hn-occupations", "--n-sites", "8", "--pump-site", "3",
                     "--out", out]) == 0
        rows = data_lines(out + "/hn-occupations.csv")
        assert rows[0] == "alpha,nu,nu_norm"
        assert len(rows) == 1 + 8
        values = [row.split(",") for row in rows[1:]]
        assert [int(v[0]) for v in values] == list(range(1, 9))
        nus = [float(v[1]) for v in values]
        assert nus == sorted(nus, reverse=True)
        assert float(values[0][2]) == 1.0

        summary = read_summary(out + "/hn-occupations.json")
        # the CSV table carries 12 significant digits, the summary full precision
        assert summary["nu_max"] == pytest.approx(nus[0], rel=1e-11)
        assert summary["separation_second"] < 1.0
        assert summary["locked"] is True

    def test_source_scan_covers_every_site_by_default(self, tmp_path):
        out = str(tmp_path / "scan")
        assert main(["hn-source-scan", "--n-sites", "10", "--out", out]) == 0
        rows = data_lines(out + "/hn-source-scan.csv")
        assert rows[0] == "s,nu_max,A1,nu_max_norm,A1_norm"
        assert len(rows) == 1 + 10
        assert [int(r.split(",")[0]) for r in rows[1:]] == list(range(1, 11))

        summary = read_summary(out + "/hn-source-scan.json")
        assert summary["n_points"] == 10
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

    def test_empty_grid_is_rejected(self, tmp_path):
        assert main(["ssh-crossover", "--g-points", "0",
                     "--out", str(tmp_path)]) == 2


class TestConfigResolution:

    def test_config_file_applies_and_flags_win(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"n_sites": 6, "kappa": 1.2}))
        out = str(tmp_path / "run")
        assert main(["hn-occupations", "--config", str(config), "--n-sites", "8",
                     "--pump-site", "2", "--out", out]) == 0
        echoed = read_summary(out + "/hn-occupations.json")["config"]
        assert echoed["n_sites"] == 8
        assert echoed["kappa"] == 1.2
        assert set(echoed) == {"command", "out"} | set(COMMAND_DEFAULTS["hn-occupations"])

    def test_unknown_config_key_is_an_error(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"bogus": 1}))
        assert main(["hn-occupations", "--config", str(config),
                     "--out", str(tmp_path)]) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_wrong_config_value_type_is_an_error(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"n_sites": "forty"}))
        assert main(["hn-occupations", "--config", str(config),
                     "--out", str(tmp_path)]) == 2
        assert "must be of type int" in capsys.readouterr().err

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

    def test_reruns_are_byte_identical(self, tmp_path):
        out = str(tmp_path / "twice")
        argv = ["hn-profiles", "--n-sites", "6", "--pump-site", "2", "--out", out]
        assert main(argv) == 0
        first = {name: read_bytes(f"{out}/hn-profiles.{name}") for name in ("csv", "json")}
        assert main(argv) == 0
        for name, blob in first.items():
            assert read_bytes(f"{out}/hn-profiles.{name}") == blob

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
        assert "EnvelopeOverflowError: steady correlator of pump 1" in err
        assert not os.listdir(tmp_path)

    def test_pump_site_out_of_range_exits_2(self, tmp_path, capsys):
        assert main(["hn-profiles", "--n-sites", "8", "--pump-site", "99",
                     "--out", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err


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

    def test_custom_file_model_requires_matrix_files(self, tmp_path, capsys):
        assert main(["inverse-design", "--model", "custom-file",
                     "--out", str(tmp_path)]) == 2
        assert "x_file" in capsys.readouterr().err


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
        for name in ("correlator_hermitian", "density_reconstruction", "occupation_trace"):
            assert by_name[name]["value"] <= 1e-14
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

    def test_missing_files_exit_2(self, tmp_path):
        assert main(["validate", "--out", str(tmp_path)]) == 2


class TestOracleCheckCommand:

    @pytest.mark.parametrize("n_sites", ["2", "4", "5"])
    def test_chain_agrees_with_the_oracle(self, tmp_path, capsys, n_sites):
        out = str(tmp_path / "oracle")
        assert main(["oracle-check", "--n-sites", n_sites, "--t-final", "2.0",
                     "--stride", "100", "--out", out]) == 0
        summary = read_summary(out + "/oracle-check.json")
        assert summary["passed"] is True
        assert summary["max_trajectory_deviation"] <= summary["trajectory_limit"]
        assert summary["steady_state_deviation"] <= summary["steady_limit"]
        assert summary["max_trace_drift"] <= 1e-10
        assert "oracle-check:" in capsys.readouterr().out

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
