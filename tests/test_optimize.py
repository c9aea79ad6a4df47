"""Tests for the alternating maximisation and the grid-search oracle."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from noma_aloha import optimize
from noma_aloha.model import PowerProfile, Scenario, _evaluate, average_throughput
from noma_aloha.optimize import (
    AscentConfig,
    coordinate_ascent,
    grid_search_oracle,
    maximize_over_tau1,
    maximize_over_tau2,
)
from support import reference_oracle, reference_scan

DEFAULTS = Scenario(m=10, v1=4.0, v2=1.5, gamma=1.5)
SINGLE = Scenario(m=1, v1=4.0, v2=1.5, gamma=1.5)
EMPTY = Scenario(m=10, v1=4.0, v2=1.5, gamma=5.0)


def dense_scan_argmax(f, lo, hi, step):
    best_x, best_f = lo, f(lo)
    k = 1
    while (x := lo + k * step) <= hi:
        fx = f(x)
        if fx > best_f:
            best_x, best_f = x, fx
        k += 1
    return best_x, best_f


class TestAscentConfig:
    def test_defaults(self):
        cfg = AscentConfig()
        assert cfg.epsilon == 1e-5
        assert cfg.max_outer_iterations == 100
        assert cfg.grid_step == 1e-3
        assert cfg.refine_rounds == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            AscentConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            AscentConfig(grid_step=1.0)
        with pytest.raises(ValueError):
            AscentConfig(max_outer_iterations=0)
        with pytest.raises(ValueError):
            AscentConfig(refine_rounds=-1)


class TestInnerMaximizations:
    def test_tau2_single_user_monotone(self):
        tau2, th = maximize_over_tau2(SINGLE, 0.0)
        assert tau2 == 1.0
        assert th == pytest.approx(math.log2(2.5), rel=1e-12)

    def test_tau2_empty_interval(self):
        tau2, _ = maximize_over_tau2(DEFAULTS, 1.0)
        assert tau2 == 0.0

    def test_tau2_matches_dense_scan(self):
        tau2, th = maximize_over_tau2(DEFAULTS, 0.0)
        ref_x, ref_f = dense_scan_argmax(
            lambda t: average_throughput(DEFAULTS, PowerProfile(0.0, t)), 0.0, 1.0, 1e-4
        )
        assert abs(tau2 - ref_x) <= 1e-3
        assert th >= ref_f - 1e-9

    def test_tau1_single_user_monotone(self):
        tau1, th = maximize_over_tau1(SINGLE, 0.0)
        assert tau1 == 1.0
        assert th == pytest.approx(math.log2(5.0), rel=1e-12)

    def test_tau1_empty_interval(self):
        tau1, _ = maximize_over_tau1(DEFAULTS, 1.0)
        assert tau1 == 0.0

    def test_tau1_matches_dense_scan(self):
        tau1, th = maximize_over_tau1(DEFAULTS, 0.0)
        ref_x, ref_f = dense_scan_argmax(
            lambda t: average_throughput(DEFAULTS, PowerProfile(t, 0.0)), 0.0, 1.0, 1e-4
        )
        assert abs(tau1 - ref_x) <= 1e-3
        assert th >= ref_f - 1e-9

    def test_rejects_out_of_range_fixed_coordinate(self):
        with pytest.raises(ValueError):
            maximize_over_tau2(DEFAULTS, 1.2)
        with pytest.raises(ValueError):
            maximize_over_tau1(DEFAULTS, -0.1)


class TestBatchedScan:
    """The batched scan visits the scalar loop's floats and keeps its argmax."""

    CASES = [
        (0.0, 1.0, 1e-3),  # the coarse scan of the ascent
        (0.3, 0.3, 0.01),  # hi == lo: lo alone
        (0.0, 0.7, 0.3),  # the step does not divide the span
        (0.0, 0.5, 0.125),  # lo + 4*step lands exactly on hi
        (0.25, 0.75, 0.0625),  # ... from lo > 0
        (0.0121, 0.0141, 1e-4),  # a refinement bracket
    ]

    @pytest.mark.parametrize("lo, hi, step", CASES)
    @pytest.mark.parametrize("s", [DEFAULTS, SINGLE, EMPTY, Scenario(50, 20.0, 2.0, 0.3)])
    def test_matches_reference_loop(self, s, lo, hi, step):
        got = optimize._scan(lambda xs: _evaluate(s, 0.0, xs)[0], lo, hi, step)
        want = reference_scan(
            lambda x: average_throughput(s, PowerProfile(0.0, x)), lo, hi, step
        )
        assert got == want

    @pytest.mark.parametrize("lo, hi, step", CASES)
    @pytest.mark.parametrize("piece", [1, 2, 4, 5])
    def test_ties_keep_first_sample_across_pieces(self, lo, hi, step, piece):
        # a staircase with long runs of equal values; pieces of 4 end exactly
        # on the last sample below hi in the (0, 0.5, 0.125) case
        with mock.patch.object(optimize, "_SCAN_PIECE", piece):
            got = optimize._scan(lambda xs: np.floor(xs * 3.0), lo, hi, step)
        assert got == reference_scan(lambda x: float(math.floor(x * 3.0)), lo, hi, step)


class TestCoordinateAscent:
    def test_single_user_prefers_high_power(self):
        res = coordinate_ascent(SINGLE)
        assert res.tau1_star == 1.0
        assert res.th_star == pytest.approx(math.log2(5.0), rel=1e-12)
        assert res.converged

    def test_defaults_converges_quickly(self):
        res = coordinate_ascent(DEFAULTS)
        assert res.converged
        assert res.outer_iterations <= 20
        oracle = grid_search_oracle(DEFAULTS, 0.01)
        assert res.th_star >= oracle.th_star - 1e-3

    def test_empty_region_stops_after_first_sweep(self):
        res = coordinate_ascent(EMPTY)
        assert res.th_star == 0.0
        assert res.tau1_star == 0.0 and res.tau2_star == 0.0
        assert res.converged
        assert res.outer_iterations == 1

    def test_reported_throughput_matches_profile(self):
        res = coordinate_ascent(DEFAULTS)
        direct = average_throughput(
            DEFAULTS, PowerProfile(res.tau1_star, res.tau2_star)
        )
        assert res.th_star == pytest.approx(direct, rel=0, abs=1e-12)

    def test_trace_is_monotone_and_improving(self):
        cfg = AscentConfig()
        res = coordinate_ascent(DEFAULTS, cfg)
        ths = [t[3] for t in res.trace]
        assert all(a <= b for a, b in zip(ths, ths[1:]))
        assert all(b - a > cfg.epsilon for a, b in zip(ths, ths[1:]))

    def test_boundary_safety(self):
        for s in (DEFAULTS, SINGLE, EMPTY, Scenario(3, 8.0, 0.5, 0.2)):
            res = coordinate_ascent(s)
            assert res.tau1_star + res.tau2_star <= 1.0
            assert 0.0 <= res.tau1_star <= 1.0
            assert 0.0 <= res.tau2_star <= 1.0

    def test_deterministic(self):
        a = coordinate_ascent(DEFAULTS)
        b = coordinate_ascent(DEFAULTS)
        assert a == b

    def test_single_start_follows_reference_order(self):
        # without the mirrored sweep, the single user stalls where the first
        # tau2 pass saturated the budget
        res = coordinate_ascent(SINGLE, AscentConfig(dual_start=False))
        assert res.tau2_star == 1.0
        assert res.th_star == pytest.approx(math.log2(2.5), rel=1e-12)


class TestGridSearchOracle:
    def test_single_user(self):
        res = grid_search_oracle(SINGLE, 0.01)
        assert (res.tau1_star, res.tau2_star) == (1.0, 0.0)
        assert res.th_star == pytest.approx(math.log2(5.0), rel=1e-12)

    def test_empty_region_ties_break_to_origin(self):
        res = grid_search_oracle(EMPTY, 0.05)
        assert res.th_star == 0.0
        assert (res.tau1_star, res.tau2_star) == (0.0, 0.0)

    def test_defaults_prefer_high_power(self):
        res = grid_search_oracle(DEFAULTS, 0.01)
        assert res.tau1_star > res.tau2_star

    def test_step_validation(self):
        with pytest.raises(ValueError):
            grid_search_oracle(DEFAULTS, 0.0)
        with pytest.raises(ValueError):
            grid_search_oracle(DEFAULTS, 0.2)

    def test_grid_respects_simplex(self):
        res = grid_search_oracle(Scenario(3, 4.0, 1.5, 0.5), 0.1)
        assert res.tau1_star + res.tau2_star <= 1.0

    @pytest.mark.parametrize("step", [0.1, 0.05, 0.01])
    @pytest.mark.parametrize(
        "s", [DEFAULTS, SINGLE, EMPTY, Scenario(3, 4.0, 1.5, 0.5), Scenario(50, 20.0, 2.0, 0.3)]
    )
    def test_matches_reference_nested_loops(self, s, step):
        res = grid_search_oracle(s, step)
        assert (res.tau1_star, res.tau2_star, res.th_star) == reference_oracle(s, step)

    @pytest.mark.parametrize("piece", [1, 7])
    def test_rows_split_into_pieces_match_reference(self, piece):
        with mock.patch.object(optimize, "_SCAN_PIECE", piece):
            res = grid_search_oracle(DEFAULTS, 0.05)
        assert (res.tau1_star, res.tau2_star, res.th_star) == reference_oracle(DEFAULTS, 0.05)

    def test_memory_stays_bounded_on_a_fine_grid(self):
        # about 125 k profiles over an 86-term table: built all at once, one
        # profile x term array would take about 86 MB
        s = Scenario(50, 20.0, 2.0, 0.3)
        tracemalloc.start()
        try:
            res = grid_search_oracle(s, 0.002)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.th_star > 0.0
        assert peak < 4 * 2**20, peak
