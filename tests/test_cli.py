"""End-to-end tests of the command-line interface."""

import contextlib
import csv
import hashlib
import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noma_aloha import cli, model, optimize
from noma_aloha.cli import main
from noma_aloha.model import (
    PowerProfile,
    Scenario,
    average_throughput,
    success_probability,
)
from noma_aloha.simulate import SimConfig, run_simulation, sic_decode
from support import boundary_scenarios, random_scenario


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    assert text.endswith("\n")
    return rows


class TestRegion:
    def test_defaults_contains_joint_pair(self, capsys):
        code, out, err = run_cli(["region"], capsys)
        assert code == 0
        rows = parse_csv(out)
        assert {"n1": "1", "n2": "1", "high_ok": "true", "low_ok": "true"} in rows
        assert len(rows) == 66  # all pairs with n1+n2 <= 10
        assert "n1 <= 1" in err

    def test_high_threshold_empties_region(self, capsys):
        code, out, _ = run_cli(["region", "--gamma", "5"], capsys)
        assert code == 0
        for row in parse_csv(out):
            assert row["high_ok"] == "false" and row["low_ok"] == "false"

    def test_single_user(self, capsys):
        code, out, _ = run_cli(["region", "--m", "1"], capsys)
        assert code == 0
        rows = {(r["n1"], r["n2"]): (r["high_ok"], r["low_ok"]) for r in parse_csv(out)}
        assert rows[("1", "0")] == ("true", "false")
        assert rows[("0", "1")] == ("false", "true")
        assert rows[("0", "0")] == ("false", "false")

    def test_row_count_capped_before_any_work(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SWEEP_POINTS", 66)
        code, out, _ = run_cli(["region"], capsys)
        assert code == 0
        assert len(parse_csv(out)) == 66

        def no_work(*args):
            raise AssertionError("region built before the row count check")

        monkeypatch.setattr(cli, "region_bounds", no_work)
        code, out, err = run_cli(["region", "--m", "11"], capsys)
        assert code == 2
        assert out == ""
        assert "more than 66 rows" in err

    def test_invalid_scenario_exits_2(self, capsys):
        code, _, err = run_cli(["region", "--v2", "9"], capsys)
        assert code == 2
        assert "v1 > v2 > 0" in err

    @staticmethod
    def check_flags_match_inequalities(s):
        args = ["region", "--m", str(s.m), "--v1", repr(s.v1), "--v2", repr(s.v2)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert main(args + ["--gamma", repr(s.gamma)]) == 0
        rows = parse_csv(out.getvalue())
        assert len(rows) == (s.m + 1) * (s.m + 2) // 2
        for row in rows:
            out = sic_decode(s, int(row["n1"]), int(row["n2"]))
            want = [cli._cell(out.high_decoded), cli._cell(out.low_decoded)]
            assert [row["high_ok"], row["low_ok"]] == want, row

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_random_scenario_flags_match_inequalities(self, seed):
        s = random_scenario(np.random.default_rng(seed), m_max=30, gamma_lo=0.05)
        self.check_flags_match_inequalities(s)

    @given(boundary_scenarios())
    @settings(max_examples=60, deadline=None)
    def test_boundary_scenario_flags_match_inequalities(self, s):
        self.check_flags_match_inequalities(s)


class TestAnalyze:
    def test_silent_profile(self, capsys):
        code, out, _ = run_cli(["analyze", "--tau1", "0", "--tau2", "0"], capsys)
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["p_success"]) == 0.0
        assert float(row["th_avg"]) == 0.0

    def test_single_user_high(self, capsys):
        code, out, _ = run_cli(
            ["analyze", "--m", "1", "--tau1", "1", "--tau2", "0"], capsys
        )
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["p_success"]) == 1.0
        assert float(row["th_avg"]) == pytest.approx(math.log2(5.0), rel=1e-15)

    def test_values_pass_through_verbatim(self, capsys):
        code, out, _ = run_cli(
            ["analyze", "--tau1", "0.1", "--tau2", "0.1", "--format", "json"], capsys
        )
        assert code == 0
        record = json.loads(out)[0]
        s = Scenario(10, 4.0, 1.5, 1.5)
        prof = PowerProfile(0.1, 0.1)
        assert record["p_success"] == success_probability(s, prof)
        assert record["th_avg"] == average_throughput(s, prof)

    def test_invalid_profile_exits_2(self, capsys):
        code, _, err = run_cli(["analyze", "--tau1", "0.9", "--tau2", "0.4"], capsys)
        assert code == 2
        assert "must not exceed 1" in err

    @pytest.mark.parametrize(
        "args",
        [["--tau1", "nan"], ["--tau2", "nan"], ["--tau1", "inf"], ["--v1", "inf"],
         ["--gamma", "inf"]],
    )
    def test_non_finite_input_exits_2(self, args, capsys):
        code, out, err = run_cli(["analyze", *args], capsys)
        assert code == 2
        assert out == ""
        assert "config error" in err

    def test_csv_floats_carry_17_significant_digits(self, capsys):
        _, out, _ = run_cli(["analyze", "--tau1", "0.1", "--tau2", "0.1"], capsys)
        row = parse_csv(out)[0]
        s = Scenario(10, 4.0, 1.5, 1.5)
        # 17 significant digits round-trip the double exactly
        assert float(row["th_avg"]) == average_throughput(s, PowerProfile(0.1, 0.1))


TRACE_ALONE = "--trace emits only the ascent trace; drop --oracle and --baseline"


class TestOptimize:
    def test_oracle_comparison(self, capsys):
        code, out, _ = run_cli(
            ["optimize", "--oracle", "--baseline", "--format", "json"], capsys
        )
        assert code == 0
        rec = json.loads(out)[0]
        assert abs(rec["th_star"] - rec["oracle_th"]) <= 1e-3
        # the certificate's bound lies above both throughputs, within 1e-6 of its own
        assert rec["oracle_bound"] >= rec["oracle_th"] and rec["oracle_bound"] >= rec["th_star"]
        assert rec["oracle_bound"] - rec["oracle_th"] <= 1e-6
        assert rec["oracle_th"] == average_throughput(
            Scenario(10, 4.0, 1.5, 1.5), PowerProfile(rec["oracle_tau1"], rec["oracle_tau2"])
        )
        assert rec["th_star"] > rec["baseline_th_star"]
        assert rec["baseline_th_star"] == pytest.approx(
            10 * math.log2(5.0) * 0.1 * 0.9**9, rel=1e-12
        )
        assert rec["converged"] is True

    @pytest.mark.parametrize("step", ["0.5", "0", "nan"])
    def test_bad_oracle_step_exits_2_before_the_ascent(self, step, capsys):
        # the certificate has no step: the parser refuses every one
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--oracle", "--oracle-step", step])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments: --oracle-step" in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--trace", "--oracle"], TRACE_ALONE),
            (["--trace", "--baseline"], TRACE_ALONE),
            (["--trace", "--oracle", "--baseline"], TRACE_ALONE),
        ],
    )
    def test_ignored_flags_exit_2_before_the_ascent(self, flags, message, capsys, monkeypatch):
        def ascent(*args):
            raise AssertionError("the ascent ran before the flags were checked")

        monkeypatch.setattr(cli, "coordinate_ascent", ascent)
        code, out, err = run_cli(["optimize", *flags], capsys)
        assert code == 2
        assert out == ""
        assert err == f"config error: {message}\n"

    @pytest.mark.parametrize("command", [
        ["optimize"], ["sweep", "--axis", "m", "--start", "2", "--stop", "4", "--step", "1", "--optimize"],
    ], ids=["optimize", "sweep"])
    @pytest.mark.parametrize("flag", [
        ["--epsilon", "1e-6"], ["--max-iterations", "3"], ["--grid-step", "1e-6"],
        ["--refine-rounds", "1"], ["--single-start"],
    ], ids=lambda flag: flag[0])
    def test_ascent_flags_are_gone(self, command, flag, capsys):
        # the ascent's step comes from the model table, and its other knobs
        # are constants: the parser refuses each before any work
        with pytest.raises(SystemExit) as exc:
            main([*command, *flag])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"unrecognized arguments: {' '.join(flag)}" in err

    def test_initial_tau1_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--initial-tau1", "0.1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --initial-tau1" in capsys.readouterr().err

    def test_noma_beats_the_baseline_at_large_m(self, capsys):
        # 0.98171 against 0.85419; with a coarse step of 1e-3 the ascent
        # reached only 0.858611 here
        code, out, _ = run_cli(
            ["optimize", "--baseline", "--m", "100000", "--gamma", "1.3", "--format", "json"], capsys
        )
        assert code == 0
        rec = json.loads(out)[0]
        assert rec["th_star"] > 1.10 * rec["baseline_th_star"]

    def test_a_billion_users_optimize_in_bounded_memory(self, capsys):
        # the table and every scan stay as small as at m = 1000; with a
        # coarse step of 1e-3 the ascent reported th* = 0 here
        args = ["optimize", "--baseline", "--m", "1000000000", "--gamma", "1.3", "--format", "json"]
        tracemalloc.start()
        try:
            code = main(args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rec = json.loads(capsys.readouterr().out)[0]
        assert code == 0
        assert peak < 2**20, peak  # about 0.2 MiB, and 0.35 MiB at m = 1000
        assert rec["th_star"] > 1.10 * rec["baseline_th_star"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_populations_run_without_warnings(self, capsys):
        # the scan bounds pass exp's range from m ~ 1e16 on, and at 1e18 a
        # coarse step of cap / 20 would index past int64; the value is not
        # asserted, as the kernel's logs lose their precision at this m
        code, out, err = run_cli(["optimize", "--m", "1000000000000000000", "--gamma", "1.3"], capsys)
        assert code == 0, err
        assert parse_csv(out)[0]["converged"] == "true"

    def test_baseline_respects_gamma(self, capsys):
        # gamma above v1 = 4: a lone transmitter does not decode either
        code, out, _ = run_cli(
            ["optimize", "--baseline", "--gamma", "5", "--format", "json"], capsys
        )
        assert code == 0
        rec = json.loads(out)[0]
        assert rec["th_star"] == rec["baseline_th_star"] == 0.0

    def test_empty_region_reports_zero(self, capsys):
        code, out, _ = run_cli(["optimize", "--gamma", "5", "--format", "json"], capsys)
        assert code == 0
        rec = json.loads(out)[0]
        assert rec["th_star"] == 0.0

    def test_trace_rows_are_monotone(self, capsys):
        code, out, _ = run_cli(["optimize", "--trace"], capsys)
        assert code == 0
        rows = parse_csv(out)
        ths = [float(r["throughput"]) for r in rows]
        assert ths == sorted(ths)
        assert rows[0]["iteration"] == "0"


class TestSimulate:
    def test_silent_profile(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--tau1", "0", "--tau2", "0", "--slots", "500",
             "--replications", "2", "--seed", "4"],
            capsys,
        )
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["p_success_sim"]) == 0.0
        assert float(row["th_sim"]) == 0.0
        assert float(row["p_delta_over_stderr"]) == 0.0

    def test_population_past_int64_pair_keys(self, capsys):
        # n1 * (max n2 + 1) + n2 overflows int64 at this m
        code, out, _ = run_cli(
            ["simulate", "--m", "10000000000", "--tau1", "0.5", "--tau2", "0.3",
             "--slots", "1000", "--replications", "2"],
            capsys,
        )
        assert code == 0
        assert parse_csv(out)[0]["m"] == "10000000000"

    def test_deterministic_single_user(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--m", "1", "--tau1", "1", "--tau2", "0", "--slots", "2000",
             "--replications", "3", "--seed", "8", "--format", "json"],
            capsys,
        )
        assert code == 0
        rec = json.loads(out)[0]
        assert rec["th_sim"] == pytest.approx(math.log2(5.0), rel=1e-12)
        assert rec["th_stderr"] == 0.0

    def test_reports_sigma_ratios(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--tau1", "0.1", "--tau2", "0.1", "--slots", "20000",
             "--replications", "5", "--seed", "7", "--format", "json"],
            capsys,
        )
        assert code == 0
        rec = json.loads(out)[0]
        assert rec["p_abs_delta"] == abs(rec["p_success_sim"] - rec["p_success_analytic"])
        assert rec["p_delta_over_stderr"] <= 4.0

    def test_summary_reports_degrees_of_freedom(self, capsys):
        # |delta|/stderr follows Student's t with replications - 1 dof
        code, _, err = run_cli(
            ["simulate", "--tau1", "0.1", "--tau2", "0.1", "--slots", "2000",
             "--replications", "5", "--seed", "7"],
            capsys,
        )
        assert code == 0
        lines = err.splitlines()
        assert [line.split()[0] for line in lines] == ["p_success", "throughput"]
        assert all(line.endswith(" dof=4") for line in lines)

    def test_nan_profile_exits_2(self, capsys):
        code, out, err = run_cli(["simulate", "--tau1", "nan", "--slots", "10"], capsys)
        assert code == 2
        assert out == ""
        assert "nonnegative" in err

    def test_slot_trace_file(self, tmp_path, capsys):
        path = tmp_path / "slots.csv"
        code, _, _ = run_cli(
            ["simulate", "--tau1", "0.2", "--tau2", "0.2", "--slots", "32",
             "--replications", "1", "--seed", "5", "--trace-file", str(path)],
            capsys,
        )
        assert code == 0
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["slot", "n1", "n2", "high_decoded", "low_decoded", "sum_rate"]
        assert len(rows) == 33


class TestSweep:
    def test_tau2_sweep_single_user_is_increasing(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--axis", "tau2", "--start", "0", "--stop", "1", "--step", "0.1",
             "--m", "1", "--tau1", "0"],
            capsys,
        )
        assert code == 0
        ths = [float(r["th_avg"]) for r in parse_csv(out)]
        assert len(ths) == 11
        assert all(a < b for a, b in zip(ths, ths[1:]))

    def test_gamma_sweep_tail_is_zero(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--axis", "gamma", "--start", "4.5", "--stop", "8", "--step", "0.5",
             "--tau1", "0.1", "--tau2", "0.1"],
            capsys,
        )
        assert code == 0
        for row in parse_csv(out):
            assert float(row["th_avg"]) == 0.0

    def test_m_sweep_with_optimize_columns(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--axis", "m", "--start", "1", "--stop", "4", "--step", "1",
             "--tau1", "0.1", "--tau2", "0.1", "--optimize", "--format", "json"],
            capsys,
        )
        assert code == 0
        rows = json.loads(out)
        assert [r["m"] for r in rows] == [1, 2, 3, 4]
        for r in rows:
            assert r["th_opt"] >= r["th_avg"] - 1e-9
            assert r["tau1_opt"] + r["tau2_opt"] <= 1.0

    def test_simulate_columns(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--axis", "tau1", "--start", "0.05", "--stop", "0.15",
             "--step", "0.05", "--tau2", "0.1", "--simulate", "--slots", "5000",
             "--replications", "3", "--seed", "12", "--format", "json"],
            capsys,
        )
        assert code == 0
        for r in json.loads(out):
            assert abs(r["p_success_sim"] - r["p_success"]) <= 5 * r["stderr_p"]

    def test_p_baseline_axis(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--axis", "p_baseline", "--start", "0", "--stop", "1",
             "--step", "0.1", "--format", "json"],
            capsys,
        )
        assert code == 0
        rows = json.loads(out)
        best = max(rows, key=lambda r: r["th_avg"])
        assert best["p_baseline"] == pytest.approx(0.1)
        assert rows[0]["th_avg"] == 0.0 and rows[-1]["th_avg"] == 0.0

    @pytest.mark.parametrize(
        "scenario",
        [
            [],
            ["--m", "25", "--v1", "3", "--gamma", "0.8"],
            ["--m", "1"],
            # gamma at and above v1: a lone transmitter decodes only up to v1
            ["--gamma", "4"],
            ["--gamma", "5"],
            ["--m", "25", "--v1", "3", "--gamma", "3.5"],
            ["--m", "1", "--gamma", "4.5"],
        ],
    )
    def test_p_baseline_row_matches_single_power_analyze(self, scenario, capsys):
        # with gamma > v1/(v1+1) two high-power users collide and one alone
        # decodes if gamma <= v1, so NOMA at tau2 = 0 is single-power ALOHA
        code, out, _ = run_cli(
            ["sweep", "--axis", "p_baseline", "--start", "0", "--stop", "1",
             "--step", "0.05", "--format", "json", *scenario],
            capsys,
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 21
        for row in rows:
            code, out, _ = run_cli(
                ["analyze", "--tau1", repr(row["p_baseline"]), "--tau2", "0",
                 "--format", "json", *scenario],
                capsys,
            )
            assert code == 0
            ref = json.loads(out)[0]
            assert ref["v1"] / (ref["v1"] + 1.0) < ref["gamma"]
            for key in ("p_success", "th_avg"):
                assert math.isclose(row[key], ref[key], rel_tol=1e-12), (row, ref)

    def test_bad_sim_config_rejected_before_any_point_is_evaluated(
        self, capsys, monkeypatch
    ):
        def evaluated(*args):
            raise AssertionError("a point was evaluated before the config check")

        monkeypatch.setattr(cli, "success_probability", evaluated)
        monkeypatch.setattr(cli, "average_throughput", evaluated)
        code, out, err = run_cli(
            ["sweep", "--axis", "gamma", "--start", "1", "--stop", "2", "--step", "0.5",
             "--simulate", "--slots", "0"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err == "config error: slots must be at least 1\n"

    def test_simulate_columns_build_one_sim_config(self, capsys, monkeypatch):
        built = []

        def counted(**kwargs):
            built.append(kwargs)
            return SimConfig(**kwargs)

        monkeypatch.setattr(cli, "SimConfig", counted)
        code, out, _ = run_cli(
            ["sweep", "--axis", "m", "--start", "1", "--stop", "3", "--step", "1",
             "--tau1", "0.1", "--simulate", "--slots", "100", "--replications", "2"],
            capsys,
        )
        assert code == 0
        assert len(parse_csv(out)) == 3
        assert len(built) == 1

    def test_invalid_axis_lists_valid_ones(self, capsys):
        code, _, err = run_cli(
            ["sweep", "--axis", "nope", "--start", "0", "--stop", "1", "--step", "0.5"],
            capsys,
        )
        assert code == 2
        assert "valid axes" in err
        for name in ("m", "tau1", "tau2", "gamma", "v1", "v2", "p_baseline"):
            assert name in err

    def test_missing_axis_exits_2(self, capsys):
        code, _, err = run_cli(["sweep", "--start", "0", "--stop", "1", "--step", "0.5"], capsys)
        assert code == 2
        assert "sweep requires" in err

    def test_invalid_point_rejected_before_output(self, capsys):
        code, out, err = run_cli(
            ["sweep", "--axis", "v2", "--start", "1", "--stop", "6", "--step", "1"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "sweep value" in err

    @pytest.mark.parametrize("flag", ["--start", "--stop", "--step"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_range_exits_2(self, flag, value, capsys):
        args = {"--start": "0", "--stop": "1", "--step": "0.5", flag: value}
        code, out, err = run_cli(
            ["sweep", "--axis", "gamma", *(x for kv in args.items() for x in kv)], capsys
        )
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_point_count_capped(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SWEEP_POINTS", 10)
        sweep = ["sweep", "--axis", "gamma", "--start", "1", "--step", "0.5"]
        code, out, _ = run_cli([*sweep, "--stop", "5.5"], capsys)
        assert code == 0
        assert len(parse_csv(out)) == 10
        code, out, err = run_cli([*sweep, "--stop", "6"], capsys)
        assert code == 2
        assert out == ""
        assert "more than 10 points" in err

    @pytest.mark.parametrize(
        "start, stop, step", [("0", "1e9", "1e-9"), ("0", "1e308", "1e-308")]
    )
    def test_huge_point_count_rejected_before_values_are_built(
        self, start, stop, step, capsys, monkeypatch
    ):
        # ~1e18 and an infinite number of points: a missing check would try
        # to build them, so fail instead of building
        def bounded_range(*args):
            assert max(args) <= cli.MAX_SWEEP_POINTS, "values built before the count check"
            return range(*args)

        monkeypatch.setattr(cli, "range", bounded_range, raising=False)
        code, out, err = run_cli(
            ["sweep", "--axis", "gamma", "--start", start, "--stop", stop, "--step", step],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "points" in err

    def test_fractional_m_rejected(self, capsys):
        code, _, err = run_cli(
            ["sweep", "--axis", "m", "--start", "1", "--stop", "3", "--step", "0.5"],
            capsys,
        )
        assert code == 2
        assert "integer" in err


class TestTableCap:
    """A command whose model table, counted from the caps, holds more than
    MAX_TABLE_TERMS terms exits 2 before any table is built or any work
    starts.  At m = 10 and gamma = 0.3 the table holds 30 terms; at m = 2
    and 6, 6 and 26."""

    COMMANDS = [
        ["analyze", "--gamma", "0.3", "--tau1", "0.1", "--tau2", "0.1"],
        ["optimize", "--gamma", "0.3", "--oracle", "--baseline"],
        ["simulate", "--gamma", "0.3", "--tau1", "0.1", "--tau2", "0.1", "--slots", "100",
         "--replications", "2"],
        # only the last point is too large, and no point is computed
        ["sweep", "--gamma", "0.3", "--axis", "m", "--start", "2", "--stop", "10", "--step", "4",
         "--tau1", "0.1", "--tau2", "0.1", "--simulate", "--optimize", "--slots", "100",
         "--replications", "2"],
    ]

    @pytest.fixture
    def built(self, monkeypatch):
        """The scenarios whose table is built, each call of the work that
        follows refused."""
        tables = []
        real = model._terms

        def terms(s):
            tables.append(s)
            return real(s)

        monkeypatch.setattr(model, "_terms", terms)
        monkeypatch.setattr(optimize, "_terms", terms)
        return tables

    @pytest.mark.parametrize("args", COMMANDS, ids=lambda args: args[0])
    def test_a_table_over_the_cap_exits_2_before_any_work(self, args, built, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("work started before the table was counted")

        monkeypatch.setattr(cli, "MAX_TABLE_TERMS", 29)
        for name in ("coordinate_ascent", "run_simulation", "_certify"):
            monkeypatch.setattr(cli, name, fail)
        code, out, err = run_cli(args, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("config error: ")
        assert err.endswith("model table has 30 terms, more than 29\n")
        assert built == []

    @pytest.mark.parametrize("args", COMMANDS, ids=lambda args: args[0])
    def test_a_table_at_the_cap_is_built(self, args, built, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_TABLE_TERMS", 30)
        code, out, _ = run_cli(args, capsys)
        assert code == 0 and out
        assert Scenario(10, 4.0, 1.5, 0.3) in built

    def test_region_reads_only_the_caps(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_TABLE_TERMS", 0)
        code, out, _ = run_cli(["region", "--gamma", "0.3"], capsys)
        assert code == 0 and len(parse_csv(out)) == 66

    def test_readme_low_threshold_simulation_fits(self, built):
        # README's simulate --m 600 --gamma 1e-4 builds a table of 360 600 terms
        cfg = cli.ExperimentConfig(m=600, gamma=1e-4)
        assert cli.MAX_TABLE_TERMS >= 360_600
        assert cli._scenario(cfg) == Scenario(600, 4.0, 1.5, 1e-4)
        assert built == []
        with pytest.raises(cli.ConfigError, match="more than"):
            cli._scenario(cli.ExperimentConfig(m=1000, gamma=1e-6))


class TestUnwritablePaths:
    """An output or trace path that cannot be written is a configuration
    error, found before any work starts and without writing any file."""

    COMMANDS = [
        ["region"],
        ["analyze", "--tau1", "0.1", "--tau2", "0.1"],
        ["optimize", "--oracle"],
        ["simulate", "--tau1", "0.1", "--tau2", "0.1", "--slots", "100", "--replications", "2"],
        ["sweep", "--axis", "m", "--start", "2", "--stop", "3", "--step", "1",
         "--optimize", "--simulate", "--slots", "100", "--replications", "2"],
    ]

    @pytest.fixture
    def work(self, monkeypatch):
        calls = []

        def record(name):
            def no_work(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"{name} ran before the path check")
            return no_work

        for name in ("coordinate_ascent", "run_simulation"):
            monkeypatch.setattr(cli, name, record(name))
        return calls

    def run_rejected(self, args, capsys, work):
        code, out, err = run_cli(args, capsys)
        assert code == 2, err
        assert out == ""
        assert err.startswith("config error: cannot write "), err
        assert work == []
        return err

    @pytest.mark.parametrize("args", COMMANDS, ids=lambda a: a[0])
    def test_output_in_missing_directory(self, args, tmp_path, capsys, work):
        path = tmp_path / "missing" / "out.csv"
        err = self.run_rejected(args + ["--output", str(path)], capsys, work)
        assert "no directory" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args", COMMANDS, ids=lambda a: a[0])
    def test_output_is_a_directory(self, args, tmp_path, capsys, work):
        err = self.run_rejected(args + ["--output", str(tmp_path)], capsys, work)
        assert "not a file" in err
        assert list(tmp_path.iterdir()) == []

    def test_output_from_config_file(self, tmp_path, capsys, work):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"output = {tmp_path / 'missing' / 'out.csv'}\n")
        self.run_rejected(["optimize", "--config", str(cfg)], capsys, work)
        assert list(tmp_path.iterdir()) == [cfg]

    def test_trace_file_in_missing_directory(self, tmp_path, capsys, work):
        # the output file exists already: it is not truncated
        out = tmp_path / "out.csv"
        out.write_text("kept\n")
        args = self.COMMANDS[3] + ["--output", str(out)]
        err = self.run_rejected(
            args + ["--trace-file", str(tmp_path / "missing" / "t.csv")], capsys, work
        )
        assert "trace file" in err
        assert out.read_text() == "kept\n"
        assert list(tmp_path.iterdir()) == [out]

    def test_trace_file_not_created_when_output_is_rejected(self, tmp_path, capsys, work):
        trace = tmp_path / "t.csv"
        args = self.COMMANDS[3] + ["--trace-file", str(trace)]
        self.run_rejected(args + ["--output", str(tmp_path / "missing" / "out.csv")], capsys, work)
        assert list(tmp_path.iterdir()) == []

    def test_trace_file_is_a_directory(self, tmp_path, capsys, work):
        err = self.run_rejected(self.COMMANDS[3] + ["--trace-file", str(tmp_path)], capsys, work)
        assert "not a file" in err

    @pytest.mark.parametrize("exists", [False, True])
    def test_trace_file_is_the_output_file(self, exists, tmp_path, capsys, work):
        # the summary row would truncate the trace; an existing file keeps its bytes
        path = tmp_path / "run.csv"
        if exists:
            path.write_bytes(b"kept\n")
        alias = tmp_path / "." / "run.csv"
        args = self.COMMANDS[3] + ["--output", str(path), "--trace-file", str(alias)]
        err = self.run_rejected(args, capsys, work)
        assert "it is the output file" in err
        assert list(tmp_path.iterdir()) == ([path] if exists else [])
        if exists:
            assert path.read_bytes() == b"kept\n"


class TestConfigFile:
    def test_precedence_flags_over_file_over_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("m = 5\ngamma = 0.5  # inline comment\ntau1 = 0.2\n")
        code, out, _ = run_cli(
            ["analyze", "--config", str(cfg), "--tau1", "0.3", "--format", "json"],
            capsys,
        )
        assert code == 0
        rec = json.loads(out)[0]
        assert rec["m"] == 5          # from file
        assert rec["gamma"] == 0.5    # from file
        assert rec["tau1"] == 0.3     # flag wins
        assert rec["v1"] == 4.0       # default

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("powerlevel = 3\n")
        code, _, err = run_cli(["analyze", "--config", str(cfg)], capsys)
        assert code == 2
        assert "unknown config key 'powerlevel'" in err

    def test_bad_value_type_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("m = ten\n")
        code, _, err = run_cli(["analyze", "--config", str(cfg)], capsys)
        assert code == 2
        assert "config key 'm'" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(["analyze", "--config", "/does/not/exist.cfg"], capsys)
        assert code == 2
        assert "cannot read config file" in err


class TestDeterminism:
    def test_outputs_are_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--tau1", "0.1", "--tau2", "0.1", "--slots", "2000",
                "--replications", "2", "--seed", "31"]
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_traces_are_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--tau1", "0.1", "--tau2", "0.1", "--slots", "20000",
                "--replications", "2", "--seed", "31"]
        assert main(args + ["--trace-file", str(a)]) == 0
        first = capsys.readouterr()
        assert main(args + ["--trace-file", str(b)]) == 0
        assert capsys.readouterr() == first
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes().count(b"\n") == 1 + 2 * 20_000

    def test_trace_leaves_the_estimates_alone(self, tmp_path):
        s = Scenario(m=10, v1=4.0, v2=1.5, gamma=0.3)
        prof = PowerProfile(0.2, 0.15)
        cfg = SimConfig(slots=30_000, seed=31, replications=3)
        traced = run_simulation(s, prof, cfg, trace_path=tmp_path / "trace.csv")
        untraced = run_simulation(s, prof, cfg)
        assert traced == untraced
        assert traced.pair_counts == untraced.pair_counts

    # sha256 of the --output bytes: the seed-13 optimize-sweep workload,
    # recorded before the kernel evaluated lines, and the certificate
    @pytest.mark.parametrize(
        "args, digest",
        [
            (
                "sweep --axis gamma --optimize --start 0.17259008491715475 --stop 1.6675900849171548"
                " --step 0.13 --m 50 --v1 20.0 --v2 2.0 --tau1 0.02370515985929074"
                " --tau2 0.011840819180161107",
                "d172a99443d8597d248ef0c4bd70a692c3bd291e0792fe7ce9a20841c6ec87ad",
            ),
            (
                "optimize --oracle --m 50 --v1 20 --v2 2 --gamma 0.3",
                "7547b88fddd7a5d341d6239bea063d47c3ac8cf20f33d85135b619f9cf7f66a3",
            ),
        ],
        ids=["optimize-sweep-seed-13", "oracle-certificate"],
    )
    def test_optimizer_outputs_are_pinned(self, args, digest, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main([*args.split(), "--output", str(out)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
