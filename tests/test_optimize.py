"""Tests for the alternating maximisation and the grid-search oracle."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noma_aloha import model, optimize
from noma_aloha.model import PowerProfile, Scenario, _evaluate, average_throughput
from noma_aloha.optimize import AscentConfig, coordinate_ascent, grid_search_oracle
from support import boundary_scenarios, random_scenario, reference_oracle, reference_scan

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
        tau2, th = optimize._maximize_over(SINGLE, 1, 0.0, AscentConfig())
        assert tau2 == 1.0
        assert th == pytest.approx(math.log2(2.5), rel=1e-12)

    def test_tau2_empty_interval(self):
        tau2, _ = optimize._maximize_over(DEFAULTS, 1, 1.0, AscentConfig())
        assert tau2 == 0.0

    def test_tau2_matches_dense_scan(self):
        tau2, th = optimize._maximize_over(DEFAULTS, 1, 0.0, AscentConfig())
        ref_x, ref_f = dense_scan_argmax(
            lambda t: average_throughput(DEFAULTS, PowerProfile(0.0, t)), 0.0, 1.0, 1e-4
        )
        assert abs(tau2 - ref_x) <= 1e-3
        assert th >= ref_f - 1e-9

    def test_tau1_single_user_monotone(self):
        tau1, th = optimize._maximize_over(SINGLE, 0, 0.0, AscentConfig())
        assert tau1 == 1.0
        assert th == pytest.approx(math.log2(5.0), rel=1e-12)

    def test_tau1_empty_interval(self):
        tau1, _ = optimize._maximize_over(DEFAULTS, 0, 1.0, AscentConfig())
        assert tau1 == 0.0

    def test_tau1_matches_dense_scan(self):
        tau1, th = optimize._maximize_over(DEFAULTS, 0, 0.0, AscentConfig())
        ref_x, ref_f = dense_scan_argmax(
            lambda t: average_throughput(DEFAULTS, PowerProfile(t, 0.0)), 0.0, 1.0, 1e-4
        )
        assert abs(tau1 - ref_x) <= 1e-3
        assert th >= ref_f - 1e-9

    def test_rejects_out_of_range_fixed_coordinate(self):
        with pytest.raises(ValueError):
            optimize._maximize_over(DEFAULTS, 1, 1.2, AscentConfig())
        with pytest.raises(ValueError):
            optimize._maximize_over(DEFAULTS, 0, -0.1, AscentConfig())


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
        got = optimize._scan(lambda xs, _: _evaluate(s, 0.0, xs)[0], lo, hi, step)
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
            got = optimize._scan(lambda xs, _: np.floor(xs * 3.0), lo, hi, step)
        assert got == reference_scan(lambda x: float(math.floor(x * 3.0)), lo, hi, step)


class TestGridScan:
    """Scans from 0 start with the cached grid and its logs, and still visit
    the scalar loop's floats and keep its argmax."""

    CASES = [
        (1.0, 1e-3),  # the ascent's coarse scan with the other coordinate at 0
        (0.9, 1e-3),  # ... and away from 0
        (0.7, 0.3),  # the step does not divide the span
        (0.5, 0.125),  # 4*step lands exactly on hi
        (0.35, 0.05),
    ]

    @staticmethod
    def kernel(s, axis, fixed):
        if axis == 0:
            return lambda xs, logs: model._throughput(s, xs, fixed, logs=(logs, None))
        return lambda xs, logs: model._throughput(s, fixed, xs, logs=(None, logs))

    @pytest.mark.parametrize("hi, step", CASES)
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("s", [DEFAULTS, EMPTY, Scenario(50, 20.0, 2.0, 0.3)])
    def test_matches_reference_loop(self, s, axis, hi, step):
        fixed = 1.0 - hi
        got = optimize._scan(self.kernel(s, axis, fixed), 0.0, hi, step, optimize._grid(step))
        profile = (lambda x: PowerProfile(x, fixed)) if axis == 0 else (lambda x: PowerProfile(fixed, x))
        want = reference_scan(lambda x: average_throughput(s, profile(x)), 0.0, hi, step)
        assert got == want

    @pytest.mark.parametrize("piece", [1, 7, 64])
    def test_scan_longer_than_the_grid(self, piece):
        # a grid of `piece` points, then fresh pieces without logs
        s = Scenario(50, 20.0, 2.0, 0.3)
        want = reference_scan(
            lambda x: average_throughput(s, PowerProfile(0.01, x)), 0.0, 0.99, 1e-3
        )
        with mock.patch.object(optimize, "_SCAN_PIECE", piece):
            grid = optimize._grid(1e-3)
            assert grid[0].size == piece
            got = optimize._scan(self.kernel(s, 1, 0.01), 0.0, 0.99, 1e-3, grid)
        assert got == want

    def test_grid_points_are_the_scan_floats(self):
        for step in (1e-3, 0.01, 0.3, 0.125):
            xs, logs = optimize._grid(step)
            assert xs.tolist() == [k * step for k in range(xs.size)]
            assert logs.tolist() == [model._log(x) for x in xs.tolist()]
            assert xs[-1] > 1.0 and not xs.flags.writeable

    def test_cache_stays_bounded_on_a_fine_step(self):
        # 500 001 coarse points: the grid keeps the first _SCAN_PIECE, the
        # rest are scanned in fresh pieces
        optimize._grid_points.cache_clear()
        tracemalloc.start()
        try:
            tau2, th = optimize._maximize_over(DEFAULTS, 1, 0.0, AscentConfig(grid_step=2e-6))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert th > 0.0
        assert peak < 8 * 2**20, peak
        assert optimize._grid_points.cache_info().currsize == 1
        assert optimize._grid(2e-6)[0].size == optimize._SCAN_PIECE


@st.composite
def large_scenarios(draw):
    """Up to 1e5 users, where the logs the bound sums are large; gamma
    keeps the table to a few hundred terms."""
    m = draw(st.integers(1000, 100_000))
    v1 = draw(st.floats(1.0, 20.0))
    v2 = v1 * draw(st.floats(0.05, 0.95))
    return Scenario(m, v1, v2, draw(st.floats(0.3, 5.0)))


SCAN_SCENARIOS = st.one_of(
    st.integers(0, 2**32 - 1).map(lambda seed: random_scenario(np.random.default_rng(seed), m_max=60)),
    boundary_scenarios(),
    large_scenarios(),
    st.sampled_from([DEFAULTS, SINGLE, EMPTY, Scenario(50, 20.0, 2.0, 0.3)]),
)
FIXED = st.one_of(st.sampled_from([0.0, 1.0 - 1e-9, 1.0]), st.floats(0.0, 1e-3), st.floats(0.0, 1.0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestPrunedScan:
    """The coarse scan skips runs of samples whose bound lies below the best
    value found, and still returns every bit of the full scan."""

    @staticmethod
    def scans(s, axis, fixed, step, interval, piece):
        """The full and the pruned coarse scan, the kernel's values and the
        bounds of each piece, all with the given run and piece sizes."""
        f = TestGridScan.kernel(s, axis, fixed)
        hi = 1.0 - fixed
        with mock.patch.object(optimize, "_SCAN_PIECE", piece), mock.patch.object(
            optimize, "_INTERVAL", interval
        ):
            full = optimize._scan(f, 0.0, hi, step, optimize._grid(step))
            pruned = optimize._pruned_scan(
                f, lambda xs: optimize._interval_bounds(s, axis, fixed, xs), hi, step
            )
            pieces = [
                (f(xs, logs), optimize._interval_bounds(s, axis, fixed, xs))
                for xs, logs in optimize._samples(
                    0.0, hi, step, lambda x: x < hi, tail=[hi], grid=optimize._grid(step)
                )
            ]
        return full, pruned, pieces

    @given(
        SCAN_SCENARIOS,
        st.sampled_from([0, 1]),
        FIXED,
        st.sampled_from([1e-3, 0.0137, 0.25]),
        st.sampled_from([1, 5, 32]),
        st.sampled_from([7, 64, optimize._SCAN_PIECE]),
    )
    @settings(max_examples=200, deadline=None)
    # the run with the largest bound does not hold the maximum
    @example(Scenario(50, 20.0, 2.0, 0.3), 1, 0.055, 1e-3, 5, optimize._SCAN_PIECE)
    @example(DEFAULTS, 0, 0.753, 1e-3, 5, 64)
    def test_matches_full_scan_and_bounds_cover_the_kernel(
        self, s, axis, fixed, step, interval, piece
    ):
        full, pruned, pieces = self.scans(s, axis, fixed, step, interval, piece)
        assert [v.hex() for v in pruned] == [v.hex() for v in full]
        for values, bounds in pieces:
            run_max = np.maximum.reduceat(values, np.arange(0, values.size, interval))
            assert bounds.shape == run_max.shape
            assert np.all(bounds >= run_max), (bounds - run_max).min()

    @pytest.mark.parametrize("fixed", [0.0, 1e-5, 0.1])
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize(
        "s", [SINGLE, DEFAULTS, Scenario(50, 20.0, 2.0, 0.3), Scenario(100_000, 4.0, 1.5, 1.3)]
    )
    def test_bounds_of_single_points_cover_the_kernel(self, s, axis, fixed):
        # a run of one point bounds the kernel's own formula at that point,
        # so only the slack covers the rounding of logs, sums and exps
        xs = np.linspace(0.0, 1.0 - fixed, 20_001)
        with mock.patch.object(optimize, "_INTERVAL", 1):
            bounds = optimize._interval_bounds(s, axis, fixed, xs)
        values = TestGridScan.kernel(s, axis, fixed)(xs, None)
        assert np.all(bounds >= values), int(np.sum(bounds < values))

    @pytest.mark.parametrize("fixed", [0.0, 0.3, 1.0 - 1e-9])
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("s", [SINGLE, DEFAULTS, EMPTY])
    def test_terms_the_kernel_zeroes_bound_exactly_zero(self, s, axis, fixed):
        # x = 0, fixed = 0 and idle = 0 make the kernel's terms exactly 0
        xs = np.array([0.0, 1e-3, 1.0 - fixed])
        with mock.patch.object(optimize, "_INTERVAL", 1):
            bounds = optimize._interval_bounds(s, axis, fixed, xs)
        values = TestGridScan.kernel(s, axis, fixed)(xs, None)
        assert np.all(bounds >= values)
        assert bounds[values == 0.0].tolist() == [0.0] * int(np.sum(values == 0.0))

    def test_skips_most_of_the_coarse_scan(self):
        s = Scenario(50, 20.0, 2.0, 0.3)
        kernel = TestGridScan.kernel(s, 1, 0.05)
        evaluated = []

        def f(xs, logs):
            evaluated.append(xs.size)
            return kernel(xs, logs)

        got = optimize._pruned_scan(
            f, lambda xs: optimize._interval_bounds(s, 1, 0.05, xs), 0.95, 1e-3
        )
        assert got == optimize._scan(kernel, 0.0, 0.95, 1e-3, optimize._grid(1e-3))
        # of 951 samples
        assert sum(evaluated) < 200, evaluated


# float.hex of (tau1_star, tau2_star, th_star) for m = 50, v1 = 20, v2 = 2,
# recorded from the batched kernel before fixed coordinates became one row
# and the coarse grid's logs were cached: both must leave every bit in place
PINNED = {
    (0.173, True): ("0x1.149a5657fb69ap-4", "0x1.7396d0917d6b5p-5", "0x1.645ce3e7d7f17p+2"),
    (0.173, False): ("0x1.149a5657fb69ap-4", "0x1.7396d0917d6b5p-5", "0x1.645ce3e7d7f17p+2"),
    (0.693, True): ("0x1.d3ed527e52158p-6", "0x1.50dae3e6c4c5ap-8", "0x1.736f45ae59d60p+1"),
    (0.693, False): ("0x1.d3ed527e52158p-6", "0x1.50dae3e6c4c5ap-8", "0x1.736f45ae59d60p+1"),
    (1.603, True): ("0x1.23f67f4dbdf8fp-6", "0x1.32b55ef1fddecp-7", "0x1.c3fa22b3516f8p+0"),
    (1.603, False): ("0x1.2378ab0c88a48p-6", "0x1.33b107746887bp-7", "0x1.c3fa0a56bdcb9p+0"),
}


@pytest.mark.parametrize("gamma, dual_start", sorted(PINNED))
def test_ascent_endpoints_are_pinned(gamma, dual_start):
    res = coordinate_ascent(Scenario(50, 20.0, 2.0, gamma), AscentConfig(dual_start=dual_start))
    got = tuple(x.hex() for x in (res.tau1_star, res.tau2_star, res.th_star))
    assert got == PINNED[gamma, dual_start]


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

    def test_fine_grid_reaches_the_optimum_at_large_m(self):
        # a coarse step of 1e-6 finds the optimum near tau = 1/m that the
        # default step misses; the pruned scans make its 1e6-point scans cheap
        res = coordinate_ascent(Scenario(100_000, 4.0, 1.5, 1.3), AscentConfig(grid_step=1e-6))
        assert res.converged
        assert res.th_star >= 0.98170

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
