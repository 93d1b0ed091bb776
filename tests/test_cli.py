"""End-to-end tests of the gls command line."""

from __future__ import annotations

import contextlib
import hashlib
import io
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import glshift.cli
from glshift.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_STATISTICAL,
    EXIT_VALIDATION,
    builtin_scenario_path,
    main,
    round_half_away,
)
from tests.conftest import SCENARIO_NAMES


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# scenario files that are not UTF-8 text
NOT_UTF8 = {
    "ff_line_1": b"\xff",
    "ff_line_3": b"[scenario]\nname = x\n\xff",
    "ff_after_bom": b"\xef\xbb\xbf[scenario]\nname = \xffx\n",
    "cut_after_crlf": b"[scenario]\r\n\r\nname = x\xe2\x82",
}


class TestExitCodes:
    """The documented codes as literals, so that a changed constant fails."""

    @pytest.mark.parametrize(
        "argv,expected,error",
        [
            (["growth", "--reduction", "0.5", "--growth", "0.22"], 0, None),
            (["evaluate", "{bad}"], 1, None),
            (["evaluate", "/no/such/file.scenario"], 2, None),
            (["oracle", "--correlated"], 3, None),
            # a byte that is not UTF-8 gave the codec's message, with a byte
            # offset and no line
            (["evaluate", "{ff_line_1}"], 1, "line 1: not UTF-8 text"),
            (["evaluate", "{ff_line_3}"], 1, "line 3: not UTF-8 text"),
            (["evaluate", "{ff_after_bom}"], 1, "line 2: not UTF-8 text"),
            (["evaluate", "{cut_after_crlf}"], 1, "line 3: not UTF-8 text"),
        ],
        ids=[
            "ok", "validation", "io", "statistical",
            "not-utf8-line-1", "not-utf8-line-3", "not-utf8-after-bom", "not-utf8-cut-after-crlf",
        ],
    )
    def test_documented_exit_code(self, tmp_path, capsys, argv, expected, error):
        bad = tmp_path / "bad.scenario"
        text = builtin_scenario_path("table2_s1").read_text(encoding="utf-8")
        bad.write_text(text.replace("load = 1.0", "load = abc", 1), encoding="utf-8")
        paths = {"bad": bad}
        for name, data in NOT_UTF8.items():
            paths[name] = tmp_path / f"{name}.scenario"
            paths[name].write_bytes(data)
        code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
        assert code == expected
        if error is not None:
            assert (out, err) == ("", f"error: {error}\n")


class TestRounding:
    @pytest.mark.parametrize(
        "value,expected",
        [(0.5, 1), (1.5, 2), (2.4, 2), (-0.5, -1), (-1.5, -2), (0.0, 0)],
    )
    def test_half_away_from_zero(self, value, expected):
        assert round_half_away(value) == expected


class TestBuiltinScenarios:
    def test_seven_scenarios_ship(self):
        scenarios = Path(glshift.cli.__file__).with_name("scenarios")
        assert sorted(path.stem for path in scenarios.glob("*.scenario")) == [
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

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    @pytest.mark.parametrize(
        "command", [["evaluate"], ["evaluate", "--csv"], ["sweep", "--step", "0.5"]],
        ids=["evaluate", "csv", "sweep"],
    )
    def test_byte_order_mark_accepted(self, tmp_path, capsys, name, command):
        """A file saved with a UTF-8 byte-order mark failed at line 1."""
        text = builtin_scenario_path(name).read_text(encoding="utf-8")
        path = tmp_path / f"{name}.scenario"
        path.write_text("\ufeff" + text, encoding="utf-8")
        verb, *options = command
        assert run(capsys, verb, str(path), *options) == run(capsys, verb, name, *options)


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

    def test_name_with_a_comma_is_validation_error(self, tmp_path, capsys):
        """It printed a 9-field row under the 8-column header."""
        text = builtin_scenario_path("table2_s1").read_text(encoding="utf-8")
        path = tmp_path / "comma.scenario"
        path.write_text(text.replace("name = table2_s1", "name = s1,extra"), encoding="utf-8")
        code, out, err = run(capsys, "evaluate", str(path), "--csv")
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err == "error: line 4: name must not contain ',' or '\"'\n"

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
        assert err == "error: line 8: nodes must fit a float\n"

    @pytest.mark.parametrize("extra", [[], ["--csv"], ["--csv", "--precision", "full"]])
    def test_overflowing_totals_are_validation_error(self, tmp_path, capsys, extra):
        text = builtin_scenario_path("table2_s2").read_text(encoding="utf-8")
        path = tmp_path / "huge.scenario"
        path.write_text(text.replace("nodes = 100", "nodes = 1" + "0" * 306, 1), encoding="utf-8")
        code, out, err = run(capsys, "evaluate", str(path), *extra)
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err.startswith("error: line 7: key 'nodes': annual totals too large")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "old,new,message",
        [
            ("load = 1.0", "load = abc", "line 9: key 'load': not a number: 'abc'"),
            (
                "gamma = 0.3",
                "gamma = 0.3x",
                "line 8: key 'nodes': annual totals too large for a float",
            ),
            ("load = 1.0", "load = 1e999", "line 9: load must be in [0,1]"),
        ],
        ids=["abc", "gamma", "1e999"],
    )
    def test_overflow_blames_a_key_the_bound_reads(self, tmp_path, capsys, old, new, message):
        """A key not parsed yet gave a bare ValueError, or was blamed itself.

        The bound runs when the class is built, after its load rule, so a
        malformed or out-of-range load reports its own error; gamma is read
        after the classes.
        """
        text = builtin_scenario_path("table2_s1").read_text(encoding="utf-8")
        text = text.replace("nodes = 100", "nodes = 1" + "0" * 306, 1).replace(old, new, 1)
        path = tmp_path / "huge.scenario"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "evaluate", str(path))
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("ci", ["0", "1"])
    def test_overflowing_power_model_blames_its_line(self, tmp_path, capsys, ci):
        """op_full_per_node raises on overflow; the file still names the key."""
        text = builtin_scenario_path("table1_solar").read_text(encoding="utf-8")
        power = f"ci_g_per_kwh = {ci}\nnode_power_w = 1e308\npue = 1"
        path = tmp_path / "huge.scenario"
        path.write_text(text.replace("op_kg_per_node_year = 18978", power, 1), encoding="utf-8")
        code, out, err = run(capsys, "evaluate", str(path))
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err == "error: line 12: key 'node_power_w': annual totals too large for a float\n"

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

    def test_csv_written_in_blocks_is_unchanged(self, capsys, tmp_path):
        """10,001 rows, written one at a time; the sha256 is the output of
        the single-string write of earlier versions."""
        expected = "88d39616362d146a1dc95e75fa7314d78d13185b4c5eddc828dd69525546056c"
        code, out, err = run(capsys, "sweep", "table2_s1", "--step", "1e-4")
        assert (code, err) == (EXIT_OK, "")
        assert hashlib.sha256(out.encode()).hexdigest() == expected
        path = tmp_path / "sweep.csv"
        code, out, err = run(capsys, "sweep", "table2_s1", "--step", "1e-4", "--out", str(path))
        assert (code, out, err) == (EXIT_OK, "", "")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == expected

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

    def test_kink_report_none(self, capsys):
        """Below the cap the no_time_constraints curve is flat: no kink."""
        code, _, err = run(
            capsys, "sweep", "table1_solar", "--variants", "no_time_constraints",
            "--to", "0.4", "--step", "0.1", "--kink",
        )
        assert (code, err) == (EXIT_OK, "kink[no_time_constraints] = none\n")

    def test_kink_needs_three_rows_before_any_output(self, capsys):
        code, out, err = run(
            capsys, "sweep", "table1_solar", "--from", "0.5", "--to", "0.5", "--kink",
        )
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err == "error: kink detection needs at least 3 rows\n"

    def test_repeated_variants_rejected(self, capsys):
        code, out, err = run(
            capsys, "sweep", "table2_s1", "--variants", "full,full", "--step", "0.5",
        )
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err == "error: repeated variants: ['full']\n"

    @pytest.mark.parametrize("to_file", [False, True])
    def test_empty_variants_rejected(self, capsys, tmp_path, to_file):
        """An empty --variants list names no known variant; it does not
        fall back to all four."""
        path = tmp_path / "sweep.csv"
        extra = ("--out", str(path)) if to_file else ()
        code, out, err = run(
            capsys, "sweep", "table2_s1", "--step", "0.5", "--variants", "", *extra,
        )
        assert (code, out, err) == (EXIT_VALIDATION, "", "error: unknown variants: ['']\n")
        assert not path.exists()

    def test_writer_peak_memory(self, capsys, tmp_path):
        """20,001 rows: the sweep's table is 0.8 MB and the CSV 1.37 MB.
        The writer formats one row at a time, so the whole CSV is never
        held: the peak is 1.4 MB, and a writer that joins the CSV into one
        string peaks at 4.7 MB or more.  The bound scales with the CSV."""
        run(capsys, "sweep", "table2_s3", "--step", "0.5")  # warm-up: imports, caches
        path = tmp_path / "sweep.csv"
        tracemalloc.start()
        try:
            code = main(["sweep", "table2_s3", "--step", "5e-5", "--kink", "--out", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        csv = path.read_bytes()
        assert csv.count(b"\n") == 20_002  # header + rows
        assert peak < 1.45 * len(csv)  # 10 MB for the 6.9 MB CSV of 100,001 rows


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
        """Inverted bounds get TraceSpec's range messages."""
        code, out, err = run(capsys, "oracle", "--load-min", "0.9", "--load-max", "0.2")
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err == "error: load bounds must satisfy 0 <= min <= max <= 1\n"
        code, out, err = run(capsys, "oracle", "--ci-min", "500", "--ci-max", "300")
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err == "error: rate bounds must satisfy 0 <= min <= max < inf\n"

    @pytest.mark.parametrize("steps", ["0", "-1"])
    def test_empty_trace_rejected(self, capsys, steps):
        code, out, err = run(capsys, "oracle", "--steps", steps)
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err == "error: steps must be >= 1\n"

    def test_negative_seed_rejected(self, capsys):
        """numpy's own message did not name the option."""
        code, out, err = run(capsys, "oracle", "--seed", "-1")
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err == "error: seed must be a non-negative integer\n"

    @pytest.mark.parametrize("steps", ["31536001", "1000000000000000"])
    def test_too_many_steps_rejected_before_any_allocation(self, capsys, steps):
        code, out, err = run(capsys, "oracle", "--steps", steps)
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err == "error: steps must be <= 31,536,000\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "--ci-min", "nan"],
        ["oracle", "--ci-max", "inf"],
        ["oracle", "--load-max", "nan"],
        ["oracle", "--gamma", "1.5"],
        ["oracle", "--gamma", "nan"],
        ["oracle", "--embodied=-5"],
        ["oracle", "--embodied", "inf"],
        ["oracle", "--ci-max", "1e300"],
        ["sweep", "table2_s1", "--step", "inf"],
        ["evaluate", "table2_s1", "--precision", "full"],  # printed the rounded table
        ["growth", "--reduction", "0.5", "--growth", "nan"],
        ["growth", "--reduction", "0.5", "--growth", "inf"],
        ["growth", "--reduction", "0.5", "--growth", "1e-17"],
    ],
)
def test_invalid_arguments_are_validation_errors(capsys, argv):
    """Arguments that used to end in a traceback or print nonsense."""
    code, out, err = run(capsys, *argv)
    assert code == EXIT_VALIDATION
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1


FLOATS = st.floats(allow_nan=True, allow_infinity=True).map(repr)
UNIT_FLOATS = st.one_of(st.floats(-0.5, 1.5), FLOATS).map(str)
SCENARIOS = st.sampled_from(["table2_s1", "table1_wind", "no_such_scenario"])


def options(**values) -> st.SearchStrategy[list[str]]:
    """Any subset of the given options, each as one --name=value argument."""
    pairs = [
        st.one_of(st.none(), strategy.map(lambda v, name=name: f"--{name}={v}"))
        for name, strategy in values.items()
    ]
    return st.tuples(*pairs).map(lambda args: [arg for arg in args if arg is not None])


ARGVS = st.one_of(
    st.tuples(
        st.just(["evaluate"]),
        SCENARIOS.map(lambda name: [name]),
        st.sampled_from(
            [[], ["--csv"], ["--csv", "--precision=full"], ["--precision=full"], ["--precision=bad"]]
        ),
    ),
    st.tuples(
        st.just(["sweep"]),
        SCENARIOS.map(lambda name: [name]),
        options(
            param=st.sampled_from(["load_both", "load_hi", "load_lo"]),
            **{"from": UNIT_FLOATS, "to": UNIT_FLOATS},
            step=st.one_of(
                st.floats(1e-4, 2.0).map(str),  # at most 10^4 grid points
                st.floats(-1.0, 0.0).map(str),
                st.sampled_from(["inf", "-inf", "nan", "1e-300"]),
            ),
            variants=st.sampled_from(["full", "zero_idle,no_time_constraints", "bogus", ""]),
        ),
        st.sampled_from([[], ["--kink"]]),
    ),
    st.tuples(
        st.just(["growth"]),
        options(reduction=UNIT_FLOATS, growth=FLOATS),
    ),
    st.tuples(
        st.just(["oracle"]),
        options(
            steps=st.integers(-2, 10_000).map(str),
            seed=st.integers(-1, 2**70).map(str),
            gamma=UNIT_FLOATS,
            embodied=FLOATS,
            **{"load-min": UNIT_FLOATS, "load-max": UNIT_FLOATS},
            **{"ci-min": FLOATS, "ci-max": FLOATS},
        ),
        st.sampled_from([[], ["--correlated"]]),
    ),
).map(lambda parts: [arg for part in parts for arg in part])


@settings(max_examples=300, deadline=None)
@given(argv=ARGVS)
def test_fuzzed_arguments_exit_cleanly(argv):
    """Every argument list ends in a documented exit code, never a traceback."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            assert exc.code == 2
            return
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_IO, EXIT_STATISTICAL)
