"""End-to-end tests of the gls command line."""

from __future__ import annotations

import pytest

from glshift.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_STATISTICAL,
    EXIT_VALIDATION,
    builtin_scenario_path,
    list_builtin_scenarios,
    main,
    round_half_away,
)


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRounding:
    @pytest.mark.parametrize(
        "value,expected",
        [(0.5, 1), (1.5, 2), (2.4, 2), (-0.5, -1), (-1.5, -2), (0.0, 0)],
    )
    def test_half_away_from_zero(self, value, expected):
        assert round_half_away(value) == expected


class TestBuiltinScenarios:
    def test_seven_scenarios_ship(self):
        assert list_builtin_scenarios() == [
            "table1_solar",
            "table1_wind",
            "table2_s1",
            "table2_s2",
            "table2_s3",
            "table2_s4",
            "table2_s5",
        ]

    def test_unknown_name(self):
        assert builtin_scenario_path("nope") is None


class TestEvaluate:
    def test_table2_s1_reduction(self, capsys):
        code, out, _ = run(capsys, "evaluate", "table2_s1", "--csv")
        assert code == EXIT_OK
        row = out.splitlines()[1].split(",")
        assert row[0] == "table2_s1"
        assert row[-1] == "30.5"

    def test_table1_wind_reduction(self, capsys):
        code, out, _ = run(capsys, "evaluate", "table1_wind", "--csv")
        assert code == EXIT_OK
        assert out.splitlines()[1].split(",")[-1] == "5.3"

    def test_table_output_layout(self, capsys):
        code, out, _ = run(capsys, "evaluate", "table2_s3")
        assert code == EXIT_OK
        lines = out.splitlines()
        labels = [line.rsplit("  ", 1)[0].strip() for line in lines]
        # parameters come first, results at the bottom in table order
        assert labels.index("Overhead (tCO2e/y)") < labels.index("Embodied (tCO2e/y)")
        assert labels.index("Baseline (tCO2e/y)") < labels.index(
            "Geographic load shifting (tCO2e/y)"
        )
        assert lines[-1].endswith("6.8%")

    def test_csv_header_contract(self, capsys):
        _, out, _ = run(capsys, "evaluate", "table2_s1", "--csv")
        assert out.splitlines()[0] == (
            "name,alpha_eff,overhead_t,embodied_t,baseline_t,gls_t,blended_t,reduction_pct"
        )
        assert out.endswith("\n")

    def test_full_precision_csv(self, capsys):
        _, rounded, _ = run(capsys, "evaluate", "table2_s1", "--csv")
        _, full, _ = run(capsys, "evaluate", "table2_s1", "--csv", "--precision", "full")
        baseline_full = float(full.splitlines()[1].split(",")[4])
        assert baseline_full == pytest.approx(1197.25, rel=1e-12)
        assert rounded != full

    def test_nonexistent_path_is_io_error(self, capsys):
        code, _, err = run(capsys, "evaluate", "/no/such/file.scenario")
        assert code == EXIT_IO
        assert "/no/such/file.scenario" in err

    def test_malformed_file_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "bad.scenario"
        path.write_text("[scenario]\nname = x\n", encoding="utf-8")
        code, _, err = run(capsys, "evaluate", str(path))
        assert code == EXIT_VALIDATION
        assert "missing required section" in err

    def test_count_beyond_float_range_is_validation_error(self, tmp_path, capsys):
        text = builtin_scenario_path("table2_s1").read_text(encoding="utf-8")
        path = tmp_path / "huge.scenario"
        path.write_text(text.replace("nodes = 100", "nodes = 1" + "0" * 400, 1), encoding="utf-8")
        code, out, err = run(capsys, "evaluate", str(path))
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err.startswith("error: line 8: key 'nodes'")
        assert err.count("\n") == 1

    def test_determinism(self, capsys):
        _, first, _ = run(capsys, "evaluate", "table1_solar", "--csv")
        _, second, _ = run(capsys, "evaluate", "table1_solar", "--csv")
        assert first == second


class TestSweep:
    def test_row_count_and_header(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "table1_solar", "--from", "0", "--to", "1", "--step", "0.01"
        )
        assert code == EXIT_OK
        lines = out.rstrip("\n").split("\n")
        assert lines[0] == "load,full,zero_idle,zero_embodied,no_time_constraints"
        assert len(lines) == 102  # header + 101 rows

    def test_plateau_column(self, capsys):
        _, out, _ = run(
            capsys, "sweep", "table1_solar", "--variants", "no_time_constraints",
            "--from", "0", "--to", "0.5", "--step", "0.1",
        )
        rows = [line.split(",") for line in out.rstrip("\n").split("\n")[1:]]
        values = {load: value for load, value in rows}
        assert values["0.1"] == values["0.3"]

    def test_deterministic_output(self, capsys, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        run(capsys, "sweep", "table2_s1", "--param", "load_hi", "--out", str(out_a))
        run(capsys, "sweep", "table2_s1", "--param", "load_hi", "--out", str(out_b))
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_invalid_range(self, capsys):
        code, _, err = run(capsys, "sweep", "table2_s1", "--from", "0.9", "--to", "0.1")
        assert code == EXIT_VALIDATION
        assert "error" in err

    def test_kink_report(self, capsys):
        code, _, err = run(
            capsys, "sweep", "table1_solar", "--variants", "no_time_constraints", "--kink",
        )
        assert code == EXIT_OK
        assert "kink[no_time_constraints] = 0.5" in err

    def test_kink_needs_three_rows_before_any_output(self, capsys):
        code, out, err = run(
            capsys, "sweep", "table1_solar", "--from", "0.5", "--to", "0.5", "--kink",
        )
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err == "error: kink detection needs at least 3 rows\n"


class TestGrowth:
    def test_half_reduction(self, capsys):
        code, out, _ = run(capsys, "growth", "--reduction", "0.5", "--growth", "0.22")
        assert code == EXIT_OK
        assert out == "3.49\n"

    def test_zero_reduction(self, capsys):
        code, out, _ = run(capsys, "growth", "--reduction", "0", "--growth", "0.22")
        assert code == EXIT_OK
        assert out == "0.00\n"

    def test_medium_growth_under_a_year(self, capsys):
        _, out, _ = run(capsys, "growth", "--reduction", "0.1", "--growth", "0.27")
        assert float(out) < 1.0

    def test_full_reduction_rejected(self, capsys):
        code, _, _ = run(capsys, "growth", "--reduction", "1.0", "--growth", "0.22")
        assert code == EXIT_VALIDATION


class TestOracle:
    def test_constant_distributions(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "--steps", "1000", "--load-min", "0.8", "--load-max", "0.8",
            "--ci-min", "400", "--ci-max", "400",
        )
        assert code == EXIT_OK
        assert "z_score           = 0.0000" in out

    def test_default_golden(self, capsys):
        code, out, _ = run(capsys, "oracle")
        assert code == EXIT_OK
        assert "trace_total       = 787.976184" in out
        assert "closed_form_total = 788.000000" in out
        assert "sample_mean_total = 787.955561" in out
        assert "z_score           = -0.1265" in out

    def test_correlated_negative_control(self, capsys):
        code, out, _ = run(capsys, "oracle", "--correlated")
        assert code == EXIT_STATISTICAL
        z = float(out.splitlines()[-1].split("=")[1])
        assert z > 3.0

    def test_invalid_distribution(self, capsys):
        code, _, err = run(capsys, "oracle", "--load-min", "0.9", "--load-max", "0.2")
        assert code == EXIT_VALIDATION
        assert "error" in err
