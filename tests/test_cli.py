import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import grid_points

from gaussbs import cli, fock
from gaussbs.cli import (
    Axis,
    Column,
    SweepGrid,
    evaluate_point,
    format_number,
    main,
    write_chunks,
)
from gaussbs.fock import OracleComparison
from gaussbs.states import DomainError

PI_4 = "0.7853981633974483"


def run(*argv):
    return main(list(argv))


def parse_report(capsys):
    out = capsys.readouterr().out
    report = {}
    for line in out.strip().splitlines():
        if " = " in line:
            key, _, value = line.partition(" = ")
            report[key.strip()] = value.strip()
    return report


class TestNegativityCommand:
    def test_pure_5050_point(self, capsys):
        assert run("negativity", "--tau", "0.25", "--u", "1", "--nbar", "0", "--theta", PI_4) == 0
        report = parse_report(capsys)
        assert float(report["N"]) == pytest.approx(0.5, abs=1e-9)
        assert float(report["xi_minus"]) == pytest.approx(math.sqrt(0.5) / 2, abs=1e-9)
        assert report["diagnosis"] == "entangling"

    def test_critical_point_zero(self, capsys):
        assert run(
            "negativity", "--tau", "0.3", "--u", "1", "--nbar", "0.75", "--theta", "0.2617993878"
        ) == 0
        report = parse_report(capsys)
        assert float(report["N"]) == pytest.approx(0.0, abs=1e-9)

    def test_classical_input_zero(self, capsys):
        assert run("negativity", "--tau", "0", "--u", "1", "--nbar", "5", "--theta", "0.785398") == 0
        report = parse_report(capsys)
        assert float(report["N"]) == 0.0

    def test_invalid_input_exit_code(self, capsys):
        assert run("negativity", "--tau", "0.6", "--u", "1", "--nbar", "0", "--theta", "0.5") == 2
        assert "tau" in capsys.readouterr().err

    def test_degrees_flag(self, capsys):
        assert run(
            "negativity", "--tau", "0.25", "--u", "1", "--nbar", "0", "--theta", "45", "--degrees"
        ) == 0
        report = parse_report(capsys)
        assert float(report["N"]) == pytest.approx(0.5, abs=1e-9)


class TestCriticalCommand:
    def test_pure_point(self, capsys):
        assert run("critical", "--tau", "0.3", "--u", "1", "--theta", "0.2617993878") == 0
        report = parse_report(capsys)
        assert float(report["nbar_c"]) == pytest.approx(0.75, abs=1e-6)
        assert report["flag"] == "ok"

    def test_mixed_point(self, capsys):
        assert run("critical", "--tau", "0.4", "--u", "0.2", "--theta", "0.2617993878") == 0
        report = parse_report(capsys)
        assert float(report["nbar_c"]) == pytest.approx(0.36, abs=5e-3)

    def test_never_entangled_flag(self, capsys):
        assert run("critical", "--tau", "0", "--u", "0.5", "--theta", "0.785398") == 0
        report = parse_report(capsys)
        assert float(report["nbar_c"]) == 0.0
        assert report["never_entangled"] == "1"

    def test_angle_whose_cos4_overflows_is_invalid(self, capsys):
        # 4 * 1e308 is inf, so cos(4 theta) has no value
        assert run("critical", "--tau", "0.3", "--u", "0.5", "--theta", "1e308") == cli.EXIT_INVALID
        err = capsys.readouterr().err
        assert err == "error: beam splitter angle must satisfy |4 theta| < inf, got 1e+308\n"
        assert run("critical", "--tau", "0", "--u", "0.5", "--theta=-1e308") == cli.EXIT_INVALID
        argv = ("negativity", "--tau", "0.3", "--u", "0.5", "--nbar", "0", "--theta", "1e308")
        assert run(*argv) == cli.EXIT_INVALID

    @pytest.mark.parametrize("command", ["sweep", "critical"])
    def test_axis_reaching_an_overflowing_angle_is_invalid(self, tmp_path, capsys, command):
        out = tmp_path / "x.csv"
        argv = (command, "--axis", "theta:0:1e308:3", "--tau", "0.3", "--u", "0.5",
                "--nbar", "0.1", "-o", str(out))  # fmt: skip
        assert run(*argv) == cli.EXIT_INVALID
        # the axis is 0, 5e307, 1e308; the first angle past 4.49e307 is reported
        assert "|4 theta| < inf, got 5e+307" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_output(self, tmp_path, capsys):
        out = tmp_path / "crit.csv"
        assert run(
            "critical",
            "--axis",
            "theta:0.1:1.4:7",
            "--tau",
            "0.3",
            "--u",
            "1",
            "-o",
            str(out),
        ) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 8
        header = lines[0].split(",")
        nbar_c_col = header.index("nbar_c")
        for line in lines[1:]:
            assert float(line.split(",")[nbar_c_col]) == pytest.approx(0.75, abs=1e-9)


class TestSweepCommand:
    def test_fig1a_threshold_structure(self, tmp_path):
        out = tmp_path / "fig1a.csv"
        assert run("sweep", "--fig", "1a", "--nx", "26", "--ny", "21", "-o", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert len(lines) == 1 + 26 * 21
        idx = {name: header.index(name) for name in ("tau", "u", "nbar", "theta", "N")}
        threshold = 0.2 / 0.6
        for line in lines[1:]:
            cells = line.split(",")
            assert float(cells[idx["tau"]]) == 0.2
            assert float(cells[idx["u"]]) == 1.0
            nbar = float(cells[idx["nbar"]])
            theta = float(cells[idx["theta"]])
            n = float(cells[idx["N"]])
            if nbar >= threshold + 1e-12:
                assert n == 0.0
            elif abs(math.cos(4 * theta)) < 1.0 - 1e-9 and nbar < threshold - 1e-9:
                assert n > 0.0

    def test_fig3_peak_at_5050(self, tmp_path):
        out = tmp_path / "fig3.csv"
        assert run("sweep", "--fig", "3", "--nx", "13", "--ny", "21", "-o", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        nbar_c = [float(line.split(",")[header.index("nbar_c")]) for line in lines[1:]]
        theta = [float(line.split(",")[header.index("theta")]) for line in lines[1:]]
        best = max(nbar_c)
        assert best == pytest.approx(2.0, abs=1e-9)
        assert theta[nbar_c.index(best)] == pytest.approx(math.pi / 4, abs=1e-9)

    @pytest.mark.parametrize(
        "fig,fixed",
        [
            ("1a", {"tau": 0.2, "u": 1.0}),
            ("1b", {"tau": 0.4, "u": 1.0}),
            ("1c", {"tau": 0.45, "u": 1.0}),
            ("2a", {"tau": 0.45, "nbar": 1.0}),
            ("2b", {"tau": 0.45, "nbar": 4.0}),
            ("3", {"tau": 0.4}),
        ],
    )
    def test_preset_fixed_parameters(self, tmp_path, fig, fixed):
        out = tmp_path / f"fig{fig}.csv"
        assert run("sweep", "--fig", fig, "--nx", "3", "--ny", "3", "-o", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert len(lines) == 10
        for name, value in fixed.items():
            column = {line.split(",")[header.index(name)] for line in lines[1:]}
            assert column == {f"{value:.12g}"}
        if fig == "3":
            assert "nbar_c" in header and "infinite_threshold" in header
        else:
            assert "nbar_c" not in header

    def test_single_point_grid(self, tmp_path):
        out = tmp_path / "point.csv"
        assert run(
            "sweep", "--tau", "0.3", "--u", "1", "--nbar", "0", "--theta", PI_4, "-o", str(out)
        ) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert run("sweep", "--fig", "2a", "--nx", "9", "--ny", "9", "-o", str(path)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_jsonl_format(self, tmp_path):
        out = tmp_path / "rows.jsonl"
        assert run(
            "sweep",
            "--axis",
            "nbar:0:1:3",
            "--tau",
            "0.3",
            "--u",
            "1",
            "--theta",
            PI_4,
            "--format",
            "jsonl",
            "-o",
            str(out),
        ) == 0
        rows = [json.loads(line) for line in out.read_text().strip().splitlines()]
        assert len(rows) == 3
        assert rows[0]["N"] == pytest.approx(0.660964047444, abs=1e-9)
        assert rows[2]["N"] == 0.0

    def test_degrees_apply_to_axes(self, tmp_path):
        out = tmp_path / "deg.csv"
        assert run(
            "sweep",
            "--axis",
            "theta:0:90:3",
            "--tau",
            "0.2",
            "--u",
            "1",
            "--nbar",
            "0",
            "--degrees",
            "-o",
            str(out),
        ) == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        thetas = [float(line.split(",")[header.index("theta")]) for line in lines[1:]]
        # 12-significant-digit serialization bounds the parse-back accuracy
        assert thetas == pytest.approx([0.0, math.pi / 4, math.pi / 2], abs=1e-10)

    def test_row_major_order(self, tmp_path):
        out = tmp_path / "order.csv"
        assert run(
            "sweep",
            "--axis",
            "nbar:0:1:2",
            "--axis",
            "theta:0.2:0.4:2",
            "--tau",
            "0.2",
            "--u",
            "1",
            "-o",
            str(out),
        ) == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        combos = [
            (float(line.split(",")[header.index("nbar")]), float(line.split(",")[header.index("theta")]))
            for line in lines[1:]
        ]
        assert combos == [(0.0, 0.2), (0.0, 0.4), (1.0, 0.2), (1.0, 0.4)]

    def test_missing_output_rejected(self, capsys):
        assert run("sweep", "--fig", "1a") == 2

    def test_unwritable_path_io_failure(self, tmp_path):
        assert run("sweep", "--fig", "1a", "-o", str(tmp_path / "no" / "x.csv")) == 3

    def test_invalid_axis_rejected(self, capsys):
        assert run("sweep", "--axis", "tau:0:0.9:5", "--u", "1", "--nbar", "0", "--theta", "0.5", "-o", "/tmp/x.csv") == 2
        assert run("sweep", "--axis", "bogus:0:1:5", "--u", "1", "--nbar", "0", "--theta", "0.5", "--tau", "0.1", "-o", "/tmp/x.csv") == 2

    def test_config_file_defaults_and_precedence(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("tau=0.25\nu=1\nnbar=0.5\ntheta=0.7853981633974483\n")
        assert run("negativity", "--config", str(config)) == 0
        report = parse_report(capsys)
        expected = max(0.0, -0.5 * math.log2(2.0 * 0.5))
        assert float(report["N"]) == pytest.approx(expected, abs=1e-9)
        # explicit flag overrides the config value
        assert run("negativity", "--config", str(config), "--nbar", "0") == 0
        report = parse_report(capsys)
        assert float(report["N"]) == pytest.approx(0.5, abs=1e-9)

    def test_unknown_config_key_rejected(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("bogus=1\n")
        assert run("negativity", "--config", str(config), "--tau", "0.2", "--u", "1", "--nbar", "0", "--theta", "0.5") == 2


def exit_code(*argv):
    """main's exit code, also where argparse rejects the arguments with SystemExit."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


SWEEP_POINT = ("--tau", "0.3", "--u", "1", "--nbar", "0", "--theta", PI_4)


class TestOptionSets:
    @pytest.mark.parametrize(
        "command,options",
        [
            ("negativity", {"tau", "u", "nbar", "theta", "phi", "phi_b", "config", "degrees"}),
            (
                "sweep",
                {"fig", "nx", "ny", "axis", "output", "format", "tau", "u", "nbar", "theta",
                 "phi", "phi_b", "config", "degrees"},
            ),  # fmt: skip
            (
                "critical",
                {"axis", "output", "format", "tau", "u", "nbar", "theta", "phi", "phi_b",
                 "config", "degrees"},
            ),  # fmt: skip
            (
                "oracle-check",
                {"dim", "tol_trace", "tol_compare", "tau_list", "u_list", "nbar_list",
                 "theta_list", "max_tau", "output", "config", "degrees"},
            ),  # fmt: skip
        ],
    )
    def test_each_command_declares_only_what_it_reads(self, command, options):
        namespace = vars(cli.build_parser().parse_args([command]))
        assert set(namespace) - {"command"} == options

    @pytest.mark.parametrize(
        "argv",
        [
            ("negativity", *SWEEP_POINT, "-o", "x.csv"),
            ("negativity", *SWEEP_POINT, "--format", "jsonl"),
            ("critical", "--tau", "0.3", "--u", "1", "--theta", "0.2", "--nx", "5"),
            ("oracle-check", "--tau-list", "0.2", "--format", "jsonl"),
        ],
    )
    def test_removed_options_are_rejected(self, argv, capsys):
        assert exit_code(*argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestIgnoredInputsRejected:
    def test_fig_with_axis(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        argv = ("sweep", "--fig", "1a", "--nx", "2", "--ny", "2", "--axis", "u:0:1:3")
        assert run(*argv, "-o", str(out)) == 2
        assert "--axis" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--tau", "--u", "--nbar", "--theta"])
    def test_fig_with_a_parameter_the_preset_sets(self, tmp_path, capsys, flag):
        out = tmp_path / "x.csv"
        assert run("sweep", "--fig", "1a", flag, "0.3", "-o", str(out)) == 2
        assert f"sets {flag};" in capsys.readouterr().err
        assert not out.exists()

    def test_fig_leaves_the_phases_free(self, tmp_path):
        out = tmp_path / "x.csv"
        argv = ("sweep", "--fig", "2a", "--nx", "2", "--ny", "2", "--phi", "0.3")
        assert run(*argv, "-o", str(out)) == 0
        header, *rows = out.read_text().splitlines()
        assert {row.split(",")[header.split(",").index("phi")] for row in rows} == {"0.3"}

    @pytest.mark.parametrize("flag", ["--nx", "--ny"])
    def test_resolution_without_fig(self, tmp_path, capsys, flag):
        out = tmp_path / "x.csv"
        argv = ("sweep", "--axis", "nbar:0:1:3", "--tau", "0.3", "--u", "1", "--theta", PI_4)
        assert run(*argv, flag, "7", "-o", str(out)) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_critical_point_with_output(self, tmp_path, capsys):
        out = tmp_path / "crit.csv"
        assert run("critical", "--tau", "0.3", "--u", "1", "--theta", "0.2", "-o", str(out)) == 2
        assert "-o/--output" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "given,flag",
        [
            (("--nbar", "5"), "--nbar"),
            (("--format", "jsonl"), "--format"),
            (("--phi", "0.4", "--phi-b", "1"), "--phi"),
            (("--phi-b", "1"), "--phi-b"),
        ],
    )
    def test_critical_point_with_a_grid_option(self, capsys, given, flag):
        assert run("critical", "--tau", "0.3", "--u", "0.5", "--theta", "0.2", *given) == 2
        captured = capsys.readouterr()
        assert f"{flag} is read by critical --axis grids" in captured.err
        assert captured.out == ""

    def test_critical_grid_options_keep_their_defaults(self, tmp_path):
        implicit, explicit = tmp_path / "implicit.csv", tmp_path / "explicit.csv"
        grid = ("critical", "--axis", "theta:0:1.5:7", "--tau", "0.3", "--u", "0.5")
        defaults = ("--nbar", "0", "--phi", "0", "--phi-b", "0", "--format", "csv")
        assert run(*grid, "-o", str(implicit)) == 0
        assert run(*grid, *defaults, "-o", str(explicit)) == 0
        assert implicit.read_bytes() == explicit.read_bytes()


class TestConfigFile:
    def write(self, tmp_path, text):
        config = tmp_path / "run.cfg"
        config.write_text(text)
        return str(config)

    def test_fig_from_config_equals_the_flag(self, tmp_path):
        by_flag, by_config = tmp_path / "flag.csv", tmp_path / "config.csv"
        assert run("sweep", "--fig", "1a", "-o", str(by_flag)) == 0
        assert run("sweep", "--config", self.write(tmp_path, "fig=1a\n"), "-o", str(by_config)) == 0
        assert by_config.read_bytes() == by_flag.read_bytes()

    @pytest.mark.parametrize(
        "command,line",
        [
            ("sweep", "fig=9"),
            ("sweep", "format=xml"),
            ("sweep", "tau=abc"),
            ("sweep", "nx=abc"),
            ("oracle-check", "dim=3.5"),
            ("oracle-check", "dim=inf"),
        ],
    )
    def test_bad_value_is_a_usage_error(self, tmp_path, capsys, command, line):
        out = tmp_path / "x.out"
        config = self.write(tmp_path, line + "\n")
        argv = SWEEP_POINT if command == "sweep" else ("--tau-list", "0.2")
        assert exit_code(command, "--config", config, *argv, "-o", str(out)) == 2
        assert f"argument --{line.partition('=')[0]}" in capsys.readouterr().err
        assert not out.exists()

    def test_key_of_another_command_is_unknown(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        config = self.write(tmp_path, "dim=60\n")
        assert run("sweep", "--config", config, *SWEEP_POINT, "-o", str(out)) == 2
        assert "unknown config key 'dim'" in capsys.readouterr().err
        assert not out.exists()

    def test_degrees_switch(self, tmp_path, capsys):
        point = ("--tau", "0.25", "--u", "1", "--nbar", "0", "--theta", "45")
        assert run("negativity", "--config", self.write(tmp_path, "degrees=yes\n"), *point) == 0
        assert float(parse_report(capsys)["N"]) == pytest.approx(0.5, abs=1e-9)
        assert run("negativity", "--config", self.write(tmp_path, "degrees=no\n"), *point) == 0
        assert float(parse_report(capsys)["N"]) != pytest.approx(0.5, abs=1e-3)
        assert run("negativity", "--config", self.write(tmp_path, "degrees=maybe\n"), *point) == 2
        assert "degrees" in capsys.readouterr().err

    def test_negative_value(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run("sweep", "--config", self.write(tmp_path, "phi = -0.5\n"), *SWEEP_POINT,
                   "-o", str(out)) == 0  # fmt: skip
        header, row = out.read_text().splitlines()
        assert row.split(",")[header.split(",").index("phi")] == "-0.5"

    def test_config_axes_come_first(self, tmp_path):
        out = tmp_path / "order.csv"
        config = self.write(tmp_path, "axis=nbar:0:1:2\ntau=0.2\n")
        argv = ("--axis", "theta:0.2:0.4:2", "--u", "1", "-o", str(out))
        assert run("sweep", "--config", config, *argv) == 0
        header, *lines = out.read_text().strip().splitlines()
        names = header.split(",")
        cells = [line.split(",") for line in lines]
        combos = [(float(c[names.index("nbar")]), float(c[names.index("theta")])) for c in cells]
        assert combos == [(0.0, 0.2), (0.0, 0.4), (1.0, 0.2), (1.0, 0.4)]


class TestOracleCheckCommand:
    def test_single_point_pass(self, capsys):
        code = run(
            "oracle-check",
            "--tau-list",
            "0.2",
            "--u-list",
            "1",
            "--nbar-list",
            "0",
            "--theta-list",
            PI_4,
            "--dim",
            "24",
            "--tol-trace",
            "1e-6",
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "1 passed, 0 failed, 0 skipped" in out

    def test_disagreement_exit_code(self, capsys):
        # a mixed input at a small cutoff carries genuine truncation error,
        # so an unreachable comparison tolerance must report failure
        code = run(
            "oracle-check",
            "--tau-list",
            "0.3",
            "--u-list",
            "0.5",
            "--nbar-list",
            "1",
            "--theta-list",
            PI_4,
            "--dim",
            "24",
            "--tol-trace",
            "1e-4",
            "--tol-compare",
            "1e-9",
        )
        assert code == 1

    def test_skip_exits_zero_with_warning(self, capsys):
        code = run(
            "oracle-check",
            "--tau-list",
            "0.35",
            "--u-list",
            "0.5",
            "--nbar-list",
            "0.5",
            "--theta-list",
            PI_4,
            "--dim",
            "4",
            "--tol-trace",
            "1e-18",
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "skipped" in out
        assert "warning" in out

    def test_validity_guard(self, capsys):
        assert run("oracle-check", "--tau-list", "0.45") == 2
        assert "validity" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--tol-trace", "--tol-compare"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_tolerance_not_finite_exits_2(self, capsys, flag, value):
        # an infinite --tol-compare passed every point, an infinite --tol-trace
        # switched off the leakage budget
        assert run("oracle-check", flag, value) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        name = flag[2:].replace("-", "_")
        assert captured.err == f"error: {name} must be positive and finite, got {value}\n"

    def test_cutoff_above_escalation_cap_exits_2(self, capsys):
        assert run("oracle-check", "--dim", "130") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cutoff dimension 130 exceeds the escalation cap 120\n"

    def test_report_file(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = run(
            "oracle-check",
            "--tau-list",
            "0.1",
            "--u-list",
            "1",
            "--nbar-list",
            "0.5",
            "--theta-list",
            PI_4,
            "--dim",
            "24",
            "--tol-trace",
            "1e-6",
            "-o",
            str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("tau,u,nbar,theta,n_gaussian,n_fock,abs_diff")
        assert len(lines) == 2
        assert lines[1].endswith("pass")

    def test_memory_skip_is_named_in_the_warning(self, monkeypatch, capsys):
        monkeypatch.setattr(fock, "_available_memory", lambda: 1 << 20)
        code = run("oracle-check", "--tau-list", "0.2", "--u-list", "1", "--nbar-list", "0",
                   "--theta-list", PI_4, "--dim", "24")  # fmt: skip
        out = capsys.readouterr().out
        assert code == 0
        assert "1 passed" not in out and "0 failed, 1 skipped" in out
        warning = [line for line in out.splitlines() if line.startswith("warning")]
        assert warning == [
            "warning: some points were skipped: 1 whose window would not fit in the available memory"
        ]

    def test_skips_are_counted_by_reason(self, monkeypatch, capsys):
        notes = iter(["memory: window 64 needs 99 MiB", "leakage 1e-3 above budget at dim=120",
                      "memory: window 64 needs 99 MiB"])  # fmt: skip

        def skipped(params, cfg):
            return OracleComparison(params, 0.1, math.nan, math.nan, 1e-3, 40, "skip", next(notes))

        monkeypatch.setattr(cli, "compare_with_gaussian", skipped)
        code = run("oracle-check", "--tau-list", "0.2", "--u-list", "1", "--nbar-list", "0,0.5,1",
                   "--theta-list", PI_4)  # fmt: skip
        out = capsys.readouterr().out
        assert code == 0
        assert "checked 3 points: 0 passed, 0 failed, 3 skipped" in out
        assert out.splitlines()[-1] == (
            "warning: some points were skipped: 1 with leakage above budget after cutoff "
            "escalation; 2 whose window would not fit in the available memory"
        )

    def test_skip_reasons_shown_beside_a_failure(self, monkeypatch, capsys):
        results = iter([(0.2, "fail", ""), (math.nan, "skip", "memory: window 64 needs 99 MiB")])

        def mixed(params, cfg):
            n_fock, status, note = next(results)
            return OracleComparison(params, 0.1, n_fock, abs(0.1 - n_fock), 1e-9, 40, status, note)

        monkeypatch.setattr(cli, "compare_with_gaussian", mixed)
        code = run("oracle-check", "--tau-list", "0.2", "--u-list", "1", "--nbar-list", "0,0.5",
                   "--theta-list", PI_4)  # fmt: skip
        out = capsys.readouterr().out
        assert code == 1
        assert "checked 2 points: 0 passed, 1 failed, 1 skipped" in out
        assert out.splitlines()[-1] == (
            "warning: some points were skipped: 1 whose window would not fit in the available memory"
        )


class TestInternalErrors:
    def test_unexpected_exception_exits_4(self, monkeypatch, capsys):
        def crash(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_negativity", crash)
        assert run("negativity", "--tau", "0.25", "--u", "1", "--nbar", "0", "--theta", PI_4) == 4
        err = capsys.readouterr().err
        assert err == "internal error: RuntimeError: boom\n"

    def test_memory_error_is_not_a_verification_failure(self, monkeypatch, capsys):
        def exhausted(params, cfg):
            raise MemoryError()

        monkeypatch.setattr(cli, "compare_with_gaussian", exhausted)
        code = run("oracle-check", "--tau-list", "0.2", "--u-list", "1", "--nbar-list", "0")
        assert code == cli.EXIT_INTERNAL
        assert capsys.readouterr().err.startswith("internal error: MemoryError")

    def test_overflow_in_sweep_is_not_exit_0_or_1(self, tmp_path, capsys):
        code = run(
            "sweep",
            "--axis",
            "nbar:0:1e308:3",
            "--tau",
            "0.3",
            "--u",
            "1",
            "--theta",
            "0.7",
            "-o",
            str(tmp_path / "x.csv"),
        )
        assert code not in (0, 1)
        assert "Traceback" not in capsys.readouterr().err



class TestClosedStdout:
    """A reader that closes the pipe is an I/O failure (exit 3), not a crash."""

    def _run_and_close(self, argv, lines):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": "1"}
        proc = subprocess.Popen(
            [sys.executable, "-m", "gaussbs", *argv],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        read = [proc.stdout.readline() for _ in range(lines)]
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        return proc.wait(timeout=120), read, err

    def test_closed_before_the_first_line(self):
        argv = ("negativity", "--tau", "0.3", "--u", "0.5", "--nbar", "0.1", "--theta", "0.2")
        code, _, err = self._run_and_close(argv, 0)
        assert code == cli.EXIT_IO
        assert len(err.splitlines()) == 1 and err.startswith("I/O error: ")

    def test_closed_after_one_line(self):
        thetas = ",".join(f"{0.05 * k:.2f}" for k in range(1, 21))
        argv = (
            "oracle-check", "--tau-list", "0.1", "--u-list", "1", "--nbar-list", "0",
            "--theta-list", thetas, "--dim", "10", "--tol-trace", "1e-2",
        )  # fmt: skip
        code, (first,), err = self._run_and_close(argv, 1)
        assert first.startswith("tau=0.1 u=1 nbar=0 theta=0.05 ")
        assert code == cli.EXIT_IO
        assert len(err.splitlines()) == 1 and err.startswith("I/O error: ")


class TestSerialization:
    def test_twelve_significant_digits(self):
        assert format_number(math.pi) == "3.14159265359"
        assert format_number(0.75) == "0.75"
        assert format_number(True) == "1"
        assert format_number(False) == "0"

    def test_infinity_token(self, tmp_path):
        columns = ["tau", "nbar_c", "infinite_threshold"]
        chunk = {
            "tau": Column([0.4, 0.3]),
            "nbar_c": Column([math.inf, 0.75]),
            "infinite_threshold": Column([True, False]),
        }
        path = tmp_path / "inf.csv"
        write_chunks(str(path), columns, [(2, chunk)], "csv")
        lines = path.read_text().strip().splitlines()
        assert lines[1] == "0.4,inf,1"
        assert lines[2] == "0.3,0.75,0"
        path_jsonl = tmp_path / "inf.jsonl"
        write_chunks(str(path_jsonl), columns, [(2, chunk)], "jsonl")
        row = json.loads(path_jsonl.read_text().splitlines()[0])
        assert row["nbar_c"] == "inf"
        assert row["infinite_threshold"] == 1


class TestGridTypes:
    def test_axis_validation(self):
        with pytest.raises(DomainError):
            Axis("tau", 0.3, 0.1, 5)
        with pytest.raises(DomainError):
            Axis("tau", 0.0, 0.4, 0)
        with pytest.raises(DomainError):
            Axis("nope", 0.0, 1.0, 3)

    def test_grid_requires_all_parameters(self):
        with pytest.raises(DomainError):
            SweepGrid((Axis("nbar", 0.0, 1.0, 3),), {"tau": 0.2, "u": 1.0})

    def test_grid_unique_axes(self):
        with pytest.raises(DomainError):
            SweepGrid(
                (Axis("nbar", 0.0, 1.0, 3), Axis("nbar", 0.0, 2.0, 3)),
                {"tau": 0.2, "u": 1.0, "theta": 0.5, "phi": 0.0, "phi_b": 0.0},
            )

    def test_grid_size_and_points(self):
        grid = SweepGrid(
            (Axis("nbar", 0.0, 1.0, 3), Axis("theta", 0.0, 1.0, 4)),
            {"tau": 0.2, "u": 1.0, "phi": 0.0, "phi_b": 0.0},
        )
        points = list(grid_points(grid))
        assert grid.size() == 12 and len(points) == 12
        assert points[0]["nbar"] == 0.0 and points[-1]["nbar"] == 1.0

    def test_evaluate_point_with_threshold(self):
        record = evaluate_point(
            {"tau": 0.4, "u": 1.0, "nbar": 0.0, "theta": math.pi / 4, "phi": 0.0, "phi_b": 0.0},
            with_threshold=True,
        )
        assert record["nbar_c"] == pytest.approx(2.0, abs=1e-9)
        assert not record["never_entangled"]


class TestImports:
    def test_scipy_loads_only_for_the_fock_engine(self):
        code = """
import sys
from gaussbs import cli
cli.build_parser()
loaded = [m for m in ("scipy.linalg", "scipy.constants") if m in sys.modules]
assert not loaded, loaded
from gaussbs.fock import fock_squeezed_thermal
from gaussbs.states import GaussianSpec
rho = fock_squeezed_thermal(GaussianSpec(0.2, 0.9), 8)
assert rho.shape == (8, 8) and "scipy.linalg" in sys.modules
"""
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
