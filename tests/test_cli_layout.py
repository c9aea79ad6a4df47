"""The column layout of every command's output: the CSV header and the JSON
key order, for each subcommand and flag combination.  Both come from the same
row dicts, so a change to how a row is built shows here first."""

import json

import pytest

from noma_aloha.cli import main

SCENARIO = ["m", "v1", "v2", "gamma"]
PROFILE = ["tau1", "tau2"]
ASCENT = ["tau1_star", "tau2_star", "th_star", "outer_iterations", "converged"]
ORACLE = ["oracle_tau1", "oracle_tau2", "oracle_th", "oracle_bound"]
BASELINE = ["baseline_p_star", "baseline_th_star"]
SIMULATE = [
    "slots", "replications", "seed",
    "p_success_sim", "p_success_analytic", "p_abs_delta", "p_stderr",
    "p_delta_over_stderr",
    "th_sim", "th_analytic", "th_abs_delta", "th_stderr", "th_delta_over_stderr",
]
POINT = ["p_success", "th_avg"]
SWEEP_SIM = ["p_success_sim", "th_sim", "stderr_p", "stderr_th"]
SWEEP_OPT = ["tau1_opt", "tau2_opt", "th_opt", "opt_iterations", "opt_converged"]
SIM_ARGS = ["--slots", "200", "--replications", "2", "--seed", "3"]

LAYOUTS = {
    "region": (["region"], ["n1", "n2", "high_ok", "low_ok"]),
    "analyze": (
        ["analyze", "--tau1", "0.1", "--tau2", "0.1"],
        SCENARIO + PROFILE + POINT,
    ),
    "optimize": (["optimize"], SCENARIO + ASCENT),
    "optimize-oracle-baseline": (
        ["optimize", "--oracle", "--baseline"],
        SCENARIO + ASCENT + ORACLE + BASELINE,
    ),
    "optimize-trace": (
        ["optimize", "--trace"],
        ["iteration", "tau1", "tau2", "throughput"],
    ),
    "simulate": (
        ["simulate", "--tau1", "0.1", "--tau2", "0.1", *SIM_ARGS],
        SCENARIO + PROFILE + SIMULATE,
    ),
    "sweep": (
        ["sweep", "--axis", "gamma", "--start", "1", "--stop", "2", "--step", "0.5"],
        ["gamma"] + POINT,
    ),
    "sweep-simulate": (
        ["sweep", "--axis", "m", "--start", "1", "--stop", "3", "--step", "1",
         "--tau1", "0.1", "--tau2", "0.1", "--simulate", *SIM_ARGS],
        ["m"] + POINT + SWEEP_SIM,
    ),
    "sweep-optimize": (
        ["sweep", "--axis", "v1", "--start", "3", "--stop", "4", "--step", "1",
         "--optimize"],
        ["v1"] + POINT + SWEEP_OPT,
    ),
    "sweep-simulate-optimize": (
        ["sweep", "--axis", "tau1", "--start", "0.1", "--stop", "0.2", "--step", "0.1",
         "--simulate", *SIM_ARGS, "--optimize"],
        ["tau1"] + POINT + SWEEP_SIM + SWEEP_OPT,
    ),
    "sweep-p_baseline": (
        ["sweep", "--axis", "p_baseline", "--start", "0", "--stop", "1", "--step", "0.5"],
        ["p_baseline"] + POINT,
    ),
}


def run(args, capsys):
    assert main(args) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", LAYOUTS)
def test_csv_header(name, capsys):
    args, columns = LAYOUTS[name]
    header = run(args, capsys).splitlines()[0]
    assert header.split(",") == columns


@pytest.mark.parametrize("name", LAYOUTS)
def test_json_key_order(name, capsys):
    args, columns = LAYOUTS[name]
    rows = json.loads(run([*args, "--format", "json"], capsys))
    assert rows and all(list(row) == columns for row in rows)


def test_optimize_summary_lines_keep_their_order(capsys):
    args, _ = LAYOUTS["optimize-oracle-baseline"]
    assert main(args) == 0
    lines = capsys.readouterr().err.splitlines()
    assert [line.split("=")[0].split()[0] for line in lines] == [
        "tau1*", "oracle", "baseline"
    ]
