"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line with the tolerance it enforces.  All randomness is seeded, so the suite
is deterministic; run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time

import numpy as np
from scipy.optimize import minimize_scalar

from noma_aloha.cli import main
from noma_aloha.model import (
    CountPair,
    PowerProfile,
    Scenario,
    average_throughput,
    baseline_optimum,
    baseline_success,
    decode_feasibility,
    joint_pmf,
    region_bounds,
    success_probability,
)
from noma_aloha.optimize import coordinate_ascent, grid_search_oracle
from noma_aloha.simulate import SimConfig, run_simulation
from support import (
    all_pairs,
    brute_force_throughput,
    random_profile,
    random_scenario,
)

DEFAULTS = Scenario(m=10, v1=4.0, v2=1.5, gamma=1.5)


def _report(ok: bool, label: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def test_acceptance_01_region_bounds_match_inequalities():
    rng = np.random.default_rng(1001)
    start = time.monotonic()
    mismatches = 0
    for _ in range(200):
        s = random_scenario(rng, m_max=20, v1_lo=1.0, v1_hi=20.0, gamma_lo=0.1, gamma_hi=5.0)
        b = region_bounds(s)
        for n1, n2 in all_pairs(s.m):
            flags = decode_feasibility(s, CountPair(n1, n2))
            if b.in_high_region(n1, n2) != flags.high_ok:
                mismatches += 1
            if b.in_low_region(n1, n2) != flags.low_ok:
                mismatches += 1
    elapsed = time.monotonic() - start
    _report(
        mismatches == 0 and elapsed < 60.0,
        f"acceptance 1: closed-form bounds equal SINR feasibility on every pair "
        f"of 200 random scenarios (mismatches={mismatches}, {elapsed:.1f}s < 60s)",
    )


def test_acceptance_02_pmf_normalization():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(100):
        s = random_scenario(rng, m_max=30)
        prof = random_profile(rng)
        total = sum(joint_pmf(s, prof, CountPair(n1, n2)) for n1, n2 in all_pairs(s.m))
        worst = max(worst, abs(total - 1.0))
    _report(
        worst <= 1e-12,
        f"acceptance 2: count pmf sums to 1 within 1e-12 over 100 random cases "
        f"(worst |sum-1|={worst:.2e})",
    )


def test_acceptance_03_throughput_brute_force_oracle():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(50):
        s = random_scenario(rng, m_max=12)
        prof = random_profile(rng)
        delta = abs(average_throughput(s, prof) - brute_force_throughput(s, prof))
        worst = max(worst, delta)
    _report(
        worst <= 1e-12,
        f"acceptance 3: closed-form throughput equals explicit enumeration within "
        f"1e-12 on 50 random cases, m <= 12 (worst delta={worst:.2e})",
    )


def test_acceptance_04_simulation_matches_analytics():
    prof = PowerProfile(0.1, 0.1)
    start = time.monotonic()
    stats = run_simulation(
        DEFAULTS, prof, SimConfig(slots=10**6, seed=7, replications=10)
    )
    elapsed = time.monotonic() - start
    p = success_probability(DEFAULTS, prof)
    th = average_throughput(DEFAULTS, prof)
    z_p = abs(stats.p_success_hat - p) / stats.stderr_p
    z_th = abs(stats.throughput_hat - th) / stats.stderr_th
    _report(
        z_p <= 3.0 and z_th <= 3.0 and elapsed < 30.0,
        f"acceptance 4: 10^6-slot x 10-replication simulation within 3 stderr of "
        f"the closed forms (|z_p|={z_p:.2f}, |z_th|={z_th:.2f}, {elapsed:.1f}s < 30s)",
    )


def test_acceptance_05_ascent_dominates_grid_oracle():
    res = coordinate_ascent(DEFAULTS)
    oracle = grid_search_oracle(DEFAULTS, 0.01)
    ok_defaults = (
        res.th_star >= oracle.th_star - 1e-3
        and res.converged
        and res.outer_iterations <= 20
    )
    rng = np.random.default_rng(1005)
    worst_gap = res.th_star - oracle.th_star
    ok_random = True
    for _ in range(10):
        s = random_scenario(rng, m_max=20, v1_lo=1.0, v1_hi=20.0, gamma_lo=0.1, gamma_hi=3.0)
        r = coordinate_ascent(s)
        o = grid_search_oracle(s, 0.01)
        gap = r.th_star - o.th_star
        worst_gap = min(worst_gap, gap)
        if gap < -1e-3:
            ok_random = False
    _report(
        ok_defaults and ok_random,
        f"acceptance 5: alternating maximisation >= 0.01-grid oracle - 1e-3 at "
        f"defaults and 10 random scenarios, converging in "
        f"{res.outer_iterations} <= 20 iterations (worst gap={worst_gap:.2e})",
    )


def test_acceptance_06_optimum_prefers_high_power():
    res = coordinate_ascent(DEFAULTS)
    _report(
        res.tau1_star > res.tau2_star,
        f"acceptance 6: optimised tau1*={res.tau1_star:.4f} exceeds "
        f"tau2*={res.tau2_star:.4f} at defaults",
    )


def test_acceptance_07_noma_beats_single_power_baseline():
    res = coordinate_ascent(DEFAULTS)
    _, th_base = baseline_optimum(DEFAULTS)
    expected_base = 10 * math.log2(5.0) * 0.1 * 0.9**9
    _report(
        res.th_star > th_base and abs(th_base - expected_base) < 1e-12,
        f"acceptance 7: optimised throughput {res.th_star:.4f} strictly exceeds "
        f"the single-power optimum {th_base:.5f}",
    )


def test_acceptance_08_baseline_optimum_at_one_over_m():
    worst = 0.0
    for m in (2, 5, 10, 50):
        s = Scenario(m=m, v1=4.0, v2=1.5, gamma=1.5)
        res = minimize_scalar(
            lambda p: -baseline_success(s, p),
            bounds=(0.0, 1.0),
            method="bounded",
            options={"xatol": 1e-8},
        )
        worst = max(worst, abs(res.x - 1.0 / m))
    _report(
        worst <= 1e-4,
        f"acceptance 8: numeric maximiser of the single-power success is within "
        f"1e-4 of 1/m for m in (2, 5, 10, 50) (worst |p-1/m|={worst:.2e})",
    )


def test_acceptance_09_throughput_vs_population_is_unimodal():
    prof = PowerProfile(0.1, 0.1)
    series = [
        average_throughput(Scenario(m=m, v1=4.0, v2=1.5, gamma=1.5), prof)
        for m in range(1, 41)
    ]
    interior_maxima = [
        i + 1
        for i in range(1, len(series) - 1)
        if series[i] > series[i - 1] and series[i] > series[i + 1]
    ]
    _report(
        len(interior_maxima) == 1,
        f"acceptance 9: throughput over m=1..40 at tau1=tau2=0.1 has exactly one "
        f"interior peak (at m={interior_maxima[0] if interior_maxima else '?'}, "
        f"value={max(series):.4f})",
    )


def test_acceptance_10_commands_are_byte_deterministic(tmp_path, capsys):
    commands = {
        "region": ["region"],
        "analyze": ["analyze", "--tau1", "0.1", "--tau2", "0.1"],
        "optimize": ["optimize", "--oracle", "--baseline"],
        "simulate": ["simulate", "--tau1", "0.1", "--tau2", "0.1",
                     "--slots", "20000", "--replications", "3", "--seed", "77"],
        "sweep": ["sweep", "--axis", "m", "--start", "1", "--stop", "12", "--step", "1",
                  "--tau1", "0.1", "--tau2", "0.1", "--simulate",
                  "--slots", "2000", "--replications", "2", "--seed", "77"],
    }
    stable = []
    for name, args in commands.items():
        a = tmp_path / f"{name}_a.csv"
        b = tmp_path / f"{name}_b.csv"
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        stable.append(a.read_bytes() == b.read_bytes())
    capsys.readouterr()
    _report(
        all(stable),
        f"acceptance 10: repeated runs of {', '.join(commands)} produce "
        f"byte-identical output files",
    )
