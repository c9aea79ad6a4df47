"""Tests of the benchmark's reference model and output checks.

    PYTHONPATH=src python3 -m pytest bench -q

The checks are only worth something if they reject wrong output, so each
kind of fault the benchmark guards against is planted in a real CLI output.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import reference as ref
import run
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent


def test_one_user_earns_each_level_that_clears_gamma():
    reg = ref.region(1, 4.0, 1.5, 1.2)
    t1, t2 = 0.3, 0.5
    want = t1 * math.log2(1 + 4.0) + t2 * math.log2(1 + 1.5)
    assert ref.throughput(reg, t1, t2)[0] == pytest.approx(want, rel=1e-12)
    assert ref.success(reg, t1, t2)[0] == pytest.approx(t1 + t2, rel=1e-12)


def test_one_user_below_gamma_earns_nothing_at_low_power():
    reg = ref.region(1, 4.0, 1.5, 2.0)
    assert ref.throughput(reg, 0.3, 0.5)[0] == pytest.approx(0.3 * math.log2(5.0))
    assert ref.success(reg, 0.3, 0.5)[0] == pytest.approx(0.3)


def test_two_users_by_hand():
    # v1=4, v2=1.5, gamma=1.2: (1,0), (0,1) and (1,1) decode; (2,0) and
    # (0,2) do not (first SINRs 0.8 and 0.6)
    t1, t2 = 0.2, 0.3
    t0 = 1 - t1 - t2
    want = (2 * t1 * t0 * math.log2(5.0) + 2 * t2 * t0 * math.log2(2.5)
            + 2 * t1 * t2 * (math.log2(1 + 4.0 / 2.5) + math.log2(2.5)))
    reg = ref.region(2, 4.0, 1.5, 1.2)
    assert reg.layer_terms == 4
    assert ref.throughput(reg, t1, t2)[0] == pytest.approx(want, rel=1e-12)
    decoded = 2 * t1 * t0 + 2 * t2 * t0 + 2 * t1 * t2 * 2
    assert ref.success(reg, t1, t2)[0] == pytest.approx(decoded / 2, rel=1e-12)


def test_pruned_region_matches_full_enumeration():
    m, v1, v2, g = 12, 5.0, 1.3, 0.37
    reg = ref.region(m, v1, v2, g)
    full = {(n1, n2): ref.decode(v1, v2, g, n1, n2)
            for n1 in range(m + 1) for n2 in range(m + 1 - n1)}
    kept = {(a, b) for a, b in zip(reg.n1.tolist(), reg.n2.tolist())}
    assert kept == {k for k, v in full.items() if v[3] > 0}


def test_inputs_on_an_sinr_boundary_are_refused():
    # a gamma grid from 0.15 in steps of 0.05 reaches 0.4 = 2 / (2*2 + 1)
    gammas = [0.15 + k * 0.05 for k in range(10)]
    with pytest.raises(ref.InputError):
        ref.check_clear_of_boundaries(50, 20.0, 2.0, gammas)
    ref.check_clear_of_boundaries(50, 20.0, 2.0, [0.401])


def test_make_up_is_fixed_by_the_seed():
    for make in wl.WORKLOADS.values():
        a, b = make(5), make(5)
        assert a.argv() == b.argv()
        assert make(6).argv() != a.argv()


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(wl.WORKLOADS)


def _cli(argv, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "noma_aloha.cli", *argv], env=env,
                   cwd=tmp_path, check=True, capture_output=True)


class SmallSweep(wl.OptimizeSweep):
    points = 3
    step = 0.6


@pytest.fixture(scope="module")
def sweep_output(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sweep")
    w = SmallSweep(0.1734, 0.02, 0.01)
    w.check_inputs()
    w.expect()
    _cli(w.argv() + ["--output", str(tmp / "out.csv")], tmp)
    return w, (tmp / "out.csv").read_text()


@pytest.fixture(scope="module")
def trace_output(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trace")
    w = wl.Simulate("small-trace", 10, 4.0, 1.5, 1.3, 0.1, 0.1, 3000, 2, 7, True)
    w.check_inputs()
    w.expect()
    _cli(w.argv() + ["--output", str(tmp / "out.csv"),
                     "--trace-file", str(tmp / "trace.csv")], tmp)
    return w, (tmp / "out.csv").read_text(), (tmp / "trace.csv").read_text()


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def _replace_cell(csv_text, column, row, transform):
    lines = csv_text.splitlines(keepends=True)
    col = lines[0].rstrip("\n").split(",").index(column)
    cells = lines[1 + row].rstrip("\n").split(",")
    cells[col] = transform(cells[col])
    lines[1 + row] = ",".join(cells) + "\n"
    return "".join(lines)


def test_sweep_output_passes(sweep_output, tmp_path):
    w, text = sweep_output
    w.check(_write(tmp_path, "out.csv", text))


def test_perturbed_th_avg_is_rejected(sweep_output, tmp_path):
    w, text = sweep_output
    bad = _replace_cell(text, "th_avg", 1, lambda c: repr(float(c) * (1 + 1e-6)))
    with pytest.raises(wl.CheckError, match="th_avg"):
        w.check(_write(tmp_path, "out.csv", bad))


def test_unconverged_ascent_is_rejected(sweep_output, tmp_path):
    w, text = sweep_output
    bad = _replace_cell(text, "opt_converged", 0, lambda c: "false")
    with pytest.raises(wl.CheckError, match="converge"):
        w.check(_write(tmp_path, "out.csv", bad))


def test_simulate_output_and_trace_pass(trace_output, tmp_path):
    w, out, trace = trace_output
    w.check(_write(tmp_path, "out.csv", out), _write(tmp_path, "trace.csv", trace))


def test_perturbed_analytic_throughput_is_rejected(trace_output, tmp_path):
    w, out, trace = trace_output
    bad = _replace_cell(out, "th_analytic", 0, lambda c: repr(float(c) + 1e-6))
    with pytest.raises(wl.CheckError, match="th_analytic"):
        w.check(_write(tmp_path, "out.csv", bad), _write(tmp_path, "trace.csv", trace))


def test_simulated_throughput_far_from_reference_is_rejected(trace_output, tmp_path):
    w, out, trace = trace_output
    bad = _replace_cell(out, "th_sim", 0, lambda c: repr(w.th_ref + 6 * w.sigma_th))
    with pytest.raises(wl.CheckError, match="5 sigma"):
        w.check(_write(tmp_path, "out.csv", bad), _write(tmp_path, "trace.csv", trace))


def test_dropped_trace_row_is_rejected(trace_output, tmp_path):
    w, out, trace = trace_output
    lines = trace.splitlines(keepends=True)
    del lines[1 + 1234]
    with pytest.raises(wl.CheckError):
        w.check(_write(tmp_path, "out.csv", out),
                _write(tmp_path, "trace.csv", "".join(lines)))


def test_wrong_decoded_flag_is_rejected(trace_output, tmp_path):
    w, out, trace = trace_output
    lines = trace.splitlines(keepends=True)
    # one high-power transmitter alone always decodes here (SINR 4 > 1.3)
    k = next(i for i, line in enumerate(lines) if line.split(",")[1:4] == ["1", "0", "true"])
    lines[k] = lines[k].replace(",1,0,true,", ",1,0,false,")
    with pytest.raises(wl.CheckError, match="flags"):
        w.check(_write(tmp_path, "out.csv", out),
                _write(tmp_path, "trace.csv", "".join(lines)))


def _drop_column(csv_text, column):
    rows = [line.split(",") for line in csv_text.splitlines()]
    col = rows[0].index(column)
    return "".join(",".join(r[:col] + r[col + 1:]) + "\n" for r in rows)


def test_dropped_th_avg_column_fails_a_check(sweep_output, tmp_path):
    w, text = sweep_output
    with pytest.raises(wl.CheckError, match="malformed"):
        wl.verify(w, _write(tmp_path, "out.csv", _drop_column(text, "th_avg")))


def test_missing_output_file_fails_a_check(sweep_output, tmp_path):
    w, _ = sweep_output
    with pytest.raises(wl.CheckError, match="malformed"):
        wl.verify(w, tmp_path / "never-written.csv")


def test_short_trace_row_fails_a_check(trace_output, tmp_path):
    w, out, trace = trace_output
    lines = trace.splitlines(keepends=True)
    lines[1 + 99] = lines[1 + 99].rsplit(",", 1)[0] + "\n"
    with pytest.raises(wl.CheckError, match="malformed"):
        wl.verify(w, _write(tmp_path, "out.csv", out),
                  _write(tmp_path, "trace.csv", "".join(lines)))


def test_empty_trace_fails_a_check(trace_output, tmp_path):
    w, out, _ = trace_output
    with pytest.raises(wl.CheckError, match="malformed"):
        wl.verify(w, _write(tmp_path, "out.csv", out), _write(tmp_path, "trace.csv", ""))
