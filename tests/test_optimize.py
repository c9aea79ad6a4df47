"""Tests for the alternating maximisation and the branch-and-bound certificate."""

import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from noma_aloha import model, optimize
from noma_aloha.model import PowerProfile, Scenario, average_throughput
from noma_aloha.optimize import _alternating_sweep, _certify, coordinate_ascent
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


maximize_over = optimize._maximize_over
line_bounds = model._line_bounds


def scan(f, bounds, budget, lo, hi, step):
    return optimize._scan(f, bounds, budget, *optimize._grid(lo, hi, step))


def exhaustive_scan(f, total, points):
    """The first maximum of f over every sample, by np.argmax."""
    xs = points(np.arange(total))
    fx = f(xs)
    i = int(np.argmax(fx))
    return float(xs[i]), float(fx[i])


def staircase(xs):
    return np.floor(xs * 3.0)


def staircase_bounds(lo, hi):
    # the staircase never decreases, so its value at a run's end bounds it
    return staircase(hi)


def never_prune(lo, hi):
    return np.full(lo.size, math.inf)


def run_bounds(s, axis, fixed, xs, interval):
    """The line's bounds on each run of ``interval`` consecutive points of
    the nondecreasing ``xs``, the last run possibly shorter."""
    lo, hi = xs[::interval], xs[interval - 1 :: interval]
    if hi.size < lo.size:
        hi = np.append(hi, xs[-1])
    return line_bounds(s, axis, fixed)(lo, hi)


class TestInnerMaximizations:
    def test_tau2_single_user_monotone(self):
        tau2, th = maximize_over(SINGLE, 1, 0.0)
        assert tau2 == 1.0
        assert th == pytest.approx(math.log2(2.5), rel=1e-12)

    def test_tau2_empty_interval(self):
        tau2, _ = maximize_over(DEFAULTS, 1, 1.0)
        assert tau2 == 0.0

    def test_tau2_matches_dense_scan(self):
        tau2, th = maximize_over(DEFAULTS, 1, 0.0)
        ref_x, ref_f = dense_scan_argmax(
            lambda t: average_throughput(DEFAULTS, PowerProfile(0.0, t)), 0.0, 1.0, 1e-4
        )
        assert abs(tau2 - ref_x) <= 1e-3
        assert th >= ref_f - 1e-9

    def test_tau1_single_user_monotone(self):
        tau1, th = maximize_over(SINGLE, 0, 0.0)
        assert tau1 == 1.0
        assert th == pytest.approx(math.log2(5.0), rel=1e-12)

    def test_tau1_empty_interval(self):
        tau1, _ = maximize_over(DEFAULTS, 0, 1.0)
        assert tau1 == 0.0

    def test_tau1_matches_dense_scan(self):
        tau1, th = maximize_over(DEFAULTS, 0, 0.0)
        ref_x, ref_f = dense_scan_argmax(
            lambda t: average_throughput(DEFAULTS, PowerProfile(t, 0.0)), 0.0, 1.0, 1e-4
        )
        assert abs(tau1 - ref_x) <= 1e-3
        assert th >= ref_f - 1e-9

    def test_rejects_out_of_range_fixed_coordinate(self):
        with pytest.raises(ValueError):
            maximize_over(DEFAULTS, 1, 1.2)
        with pytest.raises(ValueError):
            maximize_over(DEFAULTS, 0, -0.1)


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
        got = scan(*model._scan_line(s, 1, 0.0)[:3], lo, hi, step)
        want = reference_scan(
            lambda x: average_throughput(s, PowerProfile(0.0, x)), lo, hi, step
        )
        assert got == want

    @pytest.mark.parametrize("lo, hi, step", CASES)
    @pytest.mark.parametrize("piece", [1, 2, 4, 5])
    def test_ties_keep_first_sample_across_pieces(self, lo, hi, step, piece):
        # a staircase with long runs of equal values, bounded in runs of 2;
        # pieces of two runs end exactly on the last sample below hi in the
        # (0, 0.5, 0.125) case
        with mock.patch.object(optimize, "_INTERVAL", 2):
            got = scan(staircase, staircase_bounds, piece, lo, hi, step)
        assert got == reference_scan(lambda x: float(math.floor(x * 3.0)), lo, hi, step)

    @pytest.mark.parametrize("lo, hi, step", CASES[1:])
    def test_one_run_is_evaluated_without_a_bound(self, lo, hi, step):
        # each of these scans, a refinement bracket among them, is one run
        def bounds(lo, hi):
            raise AssertionError("a scan of one run was bounded")

        assert optimize._grid(lo, hi, step)[0] <= optimize._INTERVAL
        f, _, budget, _ = model._scan_line(DEFAULTS, 1, 0.0)
        got = scan(f, bounds, budget, lo, hi, step)
        assert got == exhaustive_scan(f, *optimize._grid(lo, hi, step))

    def test_pieces_of_one_run_are_bounded_after_the_first(self):
        # at a budget of one run a piece, the first run is evaluated without
        # a bound and each of the 31 after it is bounded
        runs = []

        def bounds(lo, hi):
            runs.append(lo.size)
            return staircase_bounds(lo, hi)

        got = scan(staircase, bounds, 1, 0.0, 1.0, 1e-3)
        assert got == reference_scan(lambda x: float(math.floor(x * 3.0)), 0.0, 1.0, 1e-3)
        assert runs == [1] * 31


class TestGridScan:
    """The ascent's coarse scans, from 0 along either axis with the other
    coordinate fixed, visit the scalar loop's floats and keep its argmax."""

    CASES = [
        (1.0, 1e-3),  # the ascent's coarse scan with the other coordinate at 0
        (0.9, 1e-3),  # ... and away from 0
        (0.7, 0.3),  # the step does not divide the span
        (0.5, 0.125),  # 4*step lands exactly on hi
        (0.35, 0.05),
    ]

    @staticmethod
    def kernel(s, axis, fixed):
        return model._line(s, axis, fixed)

    @pytest.mark.parametrize("hi, step", CASES)
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("s", [DEFAULTS, EMPTY, Scenario(50, 20.0, 2.0, 0.3)])
    def test_matches_reference_loop(self, s, axis, hi, step):
        fixed = 1.0 - hi
        got = scan(*model._scan_line(s, axis, fixed)[:3], 0.0, hi, step)
        profile = (lambda x: PowerProfile(x, fixed)) if axis == 0 else (lambda x: PowerProfile(fixed, x))
        want = reference_scan(lambda x: average_throughput(s, profile(x)), 0.0, hi, step)
        assert got == want

    @pytest.mark.parametrize("piece", [1, 7, 64])
    def test_scan_longer_than_the_grid(self, piece):
        # under bounds that rule nothing out, the kernel evaluates all 991
        # samples, at most a budget of them a call
        s = Scenario(50, 20.0, 2.0, 0.3)
        want = reference_scan(
            lambda x: average_throughput(s, PowerProfile(0.01, x)), 0.0, 0.99, 1e-3
        )
        sizes = []

        def kernel(xs):
            sizes.append(xs.size)
            return self.kernel(s, 1, 0.01)(xs)

        got = scan(kernel, never_prune, piece, 0.0, 0.99, 1e-3)
        assert got == want
        assert sum(sizes) == 991 and max(sizes) == piece

    def test_memory_stays_bounded_on_a_fine_step(self):
        # 500 001 coarse points, scanned a piece of the line's budget at a time
        tracemalloc.start()
        try:
            tau2, th = scan(*model._scan_line(DEFAULTS, 1, 0.0)[:3], 0.0, 1.0, 2e-6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert th > 0.0
        assert peak < 8 * 2**20, peak

    def test_memory_stays_bounded_on_a_finer_step(self):
        # 10 000 001 coarse samples, their runs bounded a piece at a time;
        # bounding all 312 501 runs at once peaked at about 10.3 MiB
        tracemalloc.start()
        try:
            tau2, th = scan(*model._scan_line(DEFAULTS, 1, 0.0)[:3], 0.0, 1.0, 1e-7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert th > 0.0
        assert peak < 2 * 2**20, peak


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
    """A scan skips runs of samples whose bound lies below the best value
    found, and still returns every bit of the exhaustive scan."""

    @staticmethod
    def samples(kind, axis, fixed, step, where):
        """The line and the samples of one scan of each kind: the ascent's
        coarse scan of [0, 1 - fixed], or a bracket [lo, 1 - fixed] with
        lo > 0 as a refinement scans."""
        hi = 1.0 - fixed
        lo = where * hi if kind == "bracket" else 0.0
        return (axis, *optimize._grid(lo, hi, step))

    @given(
        SCAN_SCENARIOS,
        st.sampled_from([0, 1]),
        FIXED,
        st.sampled_from([1e-3, 0.0137, 0.25]),
        st.sampled_from([1, 5, 32]),
        # an element budget, or None for the line's own
        st.sampled_from([1, 7, 64, None]),
        st.sampled_from(["coarse", "bracket"]),
        st.floats(0.0, 1.0, exclude_min=True),
    )
    @settings(max_examples=300, deadline=None)
    # the run with the largest bound does not hold the maximum
    @example(Scenario(50, 20.0, 2.0, 0.3), 1, 0.055, 1e-3, 5, None, "coarse", 0.5)
    @example(DEFAULTS, 0, 0.753, 1e-3, 5, 64, "coarse", 0.5)
    # scans of many pieces
    @example(Scenario(50, 20.0, 2.0, 0.3), 1, 0.05, 1e-3, 5, 64, "coarse", 0.5)
    @example(Scenario(50, 20.0, 2.0, 0.3), 0, 0.02, 1e-3, 1, 7, "bracket", 0.01)
    def test_matches_full_scan_and_bounds_cover_the_kernel(
        self, s, axis, fixed, step, interval, piece, kind, where
    ):
        axis, total, points = self.samples(kind, axis, fixed, step, where)
        f, bounds, budget, _ = model._scan_line(s, axis, fixed)
        with mock.patch.object(optimize, "_INTERVAL", interval):
            got = optimize._scan(f, bounds, piece or budget, total, points)
        xs = points(np.arange(total))
        values = f(xs)
        assert [v.hex() for v in got] == [v.hex() for v in exhaustive_scan(f, total, points)]
        run_max = np.maximum.reduceat(values, np.arange(0, values.size, interval))
        bounds = run_bounds(s, axis, fixed, xs, interval)
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
        bounds = line_bounds(s, axis, fixed)(xs, xs)
        values = TestGridScan.kernel(s, axis, fixed)(xs)
        assert np.all(bounds >= values), int(np.sum(bounds < values))

    @pytest.mark.parametrize("fixed", [0.0, 0.3, 1.0 - 1e-9])
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("s", [SINGLE, DEFAULTS, EMPTY])
    def test_terms_the_kernel_zeroes_bound_exactly_zero(self, s, axis, fixed):
        # x = 0, fixed = 0 and idle = 0 make the kernel's terms exactly 0
        xs = np.array([0.0, 1e-3, 1.0 - fixed])
        bounds = line_bounds(s, axis, fixed)(xs, xs)
        values = TestGridScan.kernel(s, axis, fixed)(xs)
        assert np.all(bounds >= values)
        assert bounds[values == 0.0].tolist() == [0.0] * int(np.sum(values == 0.0))

    # budgets of one run a piece, of several pieces and of one piece
    @pytest.mark.parametrize("piece", [1, 7, 64, 1 << 16])
    def test_ties_keep_the_first_sample(self, piece):
        # a plateau from x = 1/3 on, under bounds that grow along the scan:
        # the run evaluated first is the last one, and the plateau's first
        # sample lies in an earlier run that ties with it
        def f(xs):
            return np.minimum(np.floor(xs * 3.0), 1.0)

        def bounds(lo, hi):
            return f(hi) + hi

        got = scan(f, bounds, piece, 0.0, 1.0, 1e-3)
        want = reference_scan(lambda x: min(math.floor(x * 3.0), 1.0), 0.0, 1.0, 1e-3)
        assert got == exhaustive_scan(f, *optimize._grid(0.0, 1.0, 1e-3)) == want
        assert got[0] == 334 * 1e-3

    def test_skips_most_of_the_coarse_scan(self):
        s = Scenario(50, 20.0, 2.0, 0.3)
        kernel, bounds, budget, _ = model._scan_line(s, 1, 0.05)
        evaluated = []

        def f(xs):
            evaluated.append(xs.size)
            return kernel(xs)

        got = scan(f, bounds, budget, 0.0, 0.95, 1e-3)
        assert got == exhaustive_scan(kernel, *optimize._grid(0.0, 0.95, 1e-3))
        # of 951 samples
        assert sum(evaluated) < 200, evaluated

    def test_skips_most_of_a_line_over_many_pieces(self):
        s = Scenario(50, 20.0, 2.0, 0.3)
        kernel = TestGridScan.kernel(s, 1, 0.05)
        total, points = optimize._grid(0.0, 0.95, 1e-3)
        evaluated = []

        def f(xs):
            evaluated.append(xs.size)
            return kernel(xs)

        # 951 samples in pieces of two runs of 32
        got = optimize._scan(f, line_bounds(s, 1, 0.05), 2, total, points)
        assert got == exhaustive_scan(kernel, total, points)
        assert sum(evaluated) < 200, evaluated


ZERO_LINE = Scenario(6656051, 18.506373974213783, 1.226246808567364, 2.18350965575589)


def coarse_grid(cap, hi):
    """The coarse samples of a line: step min(1e-3, cap / 20), never below
    2**-52 of the line, and 1e-3 at cap = 0."""
    step = min(1e-3, max(cap / 20.0, hi * 2.0**-52)) if cap > 0.0 else 1e-3
    return step, *optimize._grid(0.0, hi, step)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestCoarseStep:
    """The coarse step follows the line's largest per-term peak, and the
    scan of the samples up to it, with the tail bounded, is the full scan."""

    @given(
        st.one_of(
            st.integers(0, 2**32 - 1).map(lambda seed: random_scenario(np.random.default_rng(seed), m_max=60)),
            boundary_scenarios(),
            st.sampled_from([DEFAULTS, SINGLE, EMPTY, Scenario(50, 20.0, 2.0, 0.3)]),
        ),
        st.sampled_from([0, 1]),
        FIXED,
        # an element budget, or None for the line's own: a small one makes
        # pieces of runs shorter than the line
        st.sampled_from([1, 3, None]),
    )
    @settings(max_examples=150, deadline=None)
    # lines of 10**6 samples, and a step of 2**-52 at m = 1e18
    @example(Scenario(100_000, 4.0, 1.5, 1.3), 0, 0.0, None)
    @example(Scenario(100_000, 4.0, 1.5, 1.3), 1, 8.3e-6, None)
    @example(Scenario(10**18, 4.0, 1.5, 1.3), 1, 0.0, None)
    def test_coarse_scan_is_the_full_scan_of_the_line(self, s, axis, fixed, piece):
        f, bounds, budget, cap = model._scan_line(s, axis, fixed)
        budget = piece or budget
        step, total, points = coarse_grid(cap, 1.0 - fixed)
        assert total <= 2**52 + 1
        # at m = 1e18 the bounds rule nothing out, and past 1e-13 every
        # term's idle factor is below e**-1e5: the samples up to it suffice
        count = total if s.m < 10**18 else 1 + int(1e-13 / step)
        want = optimize._scan(f, bounds, budget, count, points)
        with mock.patch.object(optimize, "_scan_line", lambda *line: (f, bounds, budget, cap)):
            with mock.patch.object(optimize, "_REFINE_ROUNDS", 0):
                got = maximize_over(s, axis, fixed)
        assert [v.hex() for v in got] == [v.hex() for v in want]

    @pytest.mark.parametrize("s", [DEFAULTS, Scenario(1000, 4.0, 1.5, 1.3)])
    def test_a_tail_not_ruled_out_is_scanned_in_doubling_ranges(self, s, monkeypatch):
        # under bounds that rule nothing out, every sample is evaluated, the
        # samples up to the cap first, then ranges of doubling length; at a
        # budget of 2, a piece of runs (64 samples) is shorter than the line.
        # Each range but the last bounds the rest of the line, from the
        # range's end to the last sample, in its first call
        f, _, _, cap = model._scan_line(s, 1, 0.0)
        step, total, points = coarse_grid(cap, 1.0)
        head = int(cap / step) + 2
        assert total > 64
        xs = points(np.arange(total))
        calls = []

        def bounds(lo, hi):
            calls.append((np.searchsorted(xs, lo).tolist(), np.searchsorted(xs, hi).tolist()))
            return never_prune(lo, hi)

        monkeypatch.setattr(optimize, "_scan_line", lambda *line: (f, bounds, 2, cap))
        monkeypatch.setattr(optimize, "_REFINE_ROUNDS", 0)
        got = maximize_over(s, 1, 0.0)
        assert got == exhaustive_scan(f, total, points)
        # the last call bounds the line's last run; every other call that
        # reaches the last sample is a range's first
        assert calls[-1][1][-1] == total - 1
        firsts = [lo for lo, hi in calls[:-1] if hi[-1] == total - 1]
        ends = [0] + [lo[-1] for lo in firsts] + [total]
        assert [lo[0] for lo in firsts] == ends[:-2]
        sizes = np.diff(ends).tolist()
        assert sizes[:4] == [head, head, 2 * head, 4 * head]
        assert sum(sizes) == total and sizes[-1] <= 2 * sizes[-2]

    @pytest.mark.parametrize(
        "scenarios, most_bounds, most_points",
        [
            # the twelve gammas of PINNED
            ([Scenario(50, 20.0, 2.0, round(0.173 + 0.13 * k, 3)) for k in range(12)], 143, 12_183),
            ([Scenario(10**15, 4.0, 1.5, 1.3)], 56, 2_643),
        ],
        ids=["sweep", "m1e15"],
    )
    def test_the_rest_of_a_line_costs_no_bounds_call_of_its_own(
        self, scenarios, most_bounds, most_points, monkeypatch
    ):
        # the head's first bounds call bounds the rest of the line too, so
        # the rest costs no call of its own: 143 bounds calls at the twelve
        # sweep gammas, as many as scans of whole lines make.  At m = 1e15
        # the bounds' slack lets the rest be scanned in ranges, and each
        # range prunes against the best value found before it
        calls = TestElementBudget.spy(monkeypatch)
        for s in scenarios:
            coordinate_ascent(s)
        assert sum(kind == "runs" for kind, _, _ in calls) <= most_bounds
        assert sum(size for kind, size, _ in calls if kind == "points") <= most_points

    def test_a_line_of_zeros_rules_its_tail_out(self, monkeypatch):
        # tau1 = 0 and the low layer never decodes (v2 < gamma): the
        # throughput is 0 on all 2.9e7 samples of the line, and a tail bound
        # of 0 equals the best value without exceeding it
        f, bounds, budget, cap = model._scan_line(ZERO_LINE, 1, 0.0)
        assert coarse_grid(cap, 1.0)[1] > 10**7
        evaluated = []

        def kernel(xs):
            evaluated.append(xs.size)
            assert sum(evaluated) < 100, "the tail was scanned"
            return f(xs)

        monkeypatch.setattr(optimize, "_scan_line", lambda *line: (kernel, bounds, budget, cap))
        assert maximize_over(ZERO_LINE, 1, 0.0) == (0.0, 0.0)

    @pytest.mark.parametrize(
        "s",
        [Scenario(m, 4.0, 1.5, 1.3) for m in (1000, 100_000, 10**9)] + [ZERO_LINE],
        ids=["m1e3", "m1e5", "m1e9", "zero-line"],
    )
    def test_cost_does_not_grow_with_m(self, s, monkeypatch):
        # about 840 kernel points at every m and 152 at the zero line; a
        # coarse step of 1e-3 misses the optimum at large m
        calls = TestElementBudget.spy(monkeypatch)
        res = coordinate_ascent(s)
        assert sum(size for kind, size, _ in calls if kind == "points") <= 1200
        assert res.th_star > 0.98 or s is ZERO_LINE


class TestElementBudget:
    """Every kernel call evaluates at most the line's element budget of
    points, max(1, 2**14 // T), and every bounds call bounds at most as many
    runs."""

    @staticmethod
    def spy(monkeypatch):
        """Record (kind, size, budget) of every kernel and bounds call."""
        calls = []
        real = optimize._scan_line

        def scan_line(s, axis, fixed):
            f, bounds, budget, cap = real(s, axis, fixed)

            def spied_f(xs):
                calls.append(("points", xs.size, budget))
                return f(xs)

            def spied_bounds(lo, hi):
                calls.append(("runs", lo.size, budget))
                return bounds(lo, hi)

            return spied_f, spied_bounds, budget, cap

        monkeypatch.setattr(optimize, "_scan_line", scan_line)
        return calls

    @staticmethod
    def check(calls, s):
        budget = max(1, 2**14 // model._terms(s).log_coef.size)
        assert {kind for kind, _, _ in calls} == {"points", "runs"}
        assert {b for _, _, b in calls} == {budget}
        assert all(0 < size <= budget for _, size, _ in calls), max(c[1] for c in calls)

    def test_default_ascent_at_the_widest_sweep_table(self, monkeypatch):
        s = Scenario(50, 20.0, 2.0, 0.171)
        assert model._terms(s).log_coef.size == 232
        calls = self.spy(monkeypatch)
        coordinate_ascent(s)
        self.check(calls, s)

    def test_fine_coarse_scan_at_the_defaults(self, monkeypatch):
        # 1 000 001 samples in 31 251 runs, bounded 4096 runs a call
        s = Scenario(10, 4.0, 1.5, 1.5)
        calls = self.spy(monkeypatch)
        scan(*optimize._scan_line(s, 1, 0.0)[:3], 0.0, 1.0, 1e-6)
        self.check(calls, s)
        runs = [size for kind, size, _ in calls if kind == "runs"]
        assert runs == [4096] * 7 + [31_251 - 7 * 4096]

    @pytest.mark.parametrize("s", [Scenario(50, 20.0, 2.0, 0.171), Scenario(100, 4.0, 1.5, 0.05)])
    def test_certificate_boxes(self, s, monkeypatch):
        # 232 and 908 terms: rounds of up to 512 halves, bounded 70 and 18
        # boxes a call
        sizes = []
        real = optimize._box_bounds

        def box_bounds(s, x0, x1, y0, y1):
            sizes.append(x0.size)
            return real(s, x0, x1, y0, y1)

        monkeypatch.setattr(optimize, "_box_bounds", box_bounds)
        _certify(s)
        budget = max(1, 2**14 // model._terms(s).log_coef.size)
        assert budget in (70, 18)
        assert max(sizes) == budget and min(sizes) > 0, sizes


# float.hex of (tau1_star, tau2_star, th_star), then outer_iterations and
# len(trace), for m = 50, v1 = 20, v2 = 2 at the twelve gammas 0.173 + 0.13 k
# of the optimize-sweep workload: recorded before the kernel evaluated lines,
# which must leave every bit in place
PINNED = {
    (0.173, True): ("0x1.149a5657fb69ap-4", "0x1.7396d0917d6b5p-5", "0x1.645ce3e7d7f17p+2", 3, 6),
    (0.173, False): ("0x1.149a5657fb69ap-4", "0x1.7396d0917d6b5p-5", "0x1.645ce3e7d7f17p+2", 3, 6),
    (0.303, True): ("0x1.8240b780346dbp-5", "0x1.d1f601797cc3bp-7", "0x1.2297dfa70327bp+2", 3, 6),
    (0.303, False): ("0x1.8201cd5f99c38p-5", "0x1.d78811b1d92b9p-7", "0x1.2297c467b74bep+2", 4, 7),
    (0.433, True): ("0x1.3387160956c0dp-5", "0x1.5b573eab367a0p-7", "0x1.ed3299411c55bp+1", 4, 7),
    (0.433, False): ("0x1.3387160956c0dp-5", "0x1.5b573eab367a0p-7", "0x1.ed3299411c55bp+1", 4, 7),
    (0.563, True): ("0x1.b66f9335d249ep-6", "0x1.fc8f32378ab0dp-7", "0x1.85879ffbd8c65p+1", 3, 6),
    (0.563, False): ("0x1.b59ddc1e7967cp-6", "0x1.fddebd9018e75p-7", "0x1.85878aa049c19p+1", 3, 6),
    (0.693, True): ("0x1.d3ed527e52158p-6", "0x1.50dae3e6c4c5ap-8", "0x1.736f45ae59d60p+1", 3, 6),
    (0.693, False): ("0x1.d3ed527e52158p-6", "0x1.50dae3e6c4c5ap-8", "0x1.736f45ae59d60p+1", 3, 6),
    (0.823, True): ("0x1.d7342edbb59dep-6", "0x1.d7dbf487fcb92p-9", "0x1.718324a8fa3a2p+1", 4, 7),
    (0.823, False): ("0x1.d7342edbb59dep-6", "0x1.d7dbf487fcb92p-9", "0x1.718324a8fa3a2p+1", 4, 7),
    (0.953, True): ("0x1.23f67f4dbdf8fp-6", "0x1.32b55ef1fddecp-7", "0x1.c3fa5fb84c15ap+0", 3, 6),
    (0.953, False): ("0x1.2378ab0c88a48p-6", "0x1.33b107746887bp-7", "0x1.c3fa487294fe0p+0", 3, 6),
    (1.083, True): ("0x1.23f67f4dbdf8fp-6", "0x1.32b55ef1fddecp-7", "0x1.c3fa5fb6cdab9p+0", 3, 6),
    (1.083, False): ("0x1.2378ab0c88a48p-6", "0x1.33b107746887bp-7", "0x1.c3fa48710c112p+0", 3, 6),
    (1.213, True): ("0x1.23f67f4dbdf8fp-6", "0x1.32b55ef1fddecp-7", "0x1.c3fa5f91f2412p+0", 3, 6),
    (1.213, False): ("0x1.2378ab0c88a48p-6", "0x1.33b107746887bp-7", "0x1.c3fa484b4c484p+0", 3, 6),
    (1.343, True): ("0x1.23f67f4dbdf8fp-6", "0x1.32b55ef1fddecp-7", "0x1.c3fa5c76ff066p+0", 3, 6),
    (1.343, False): ("0x1.2378ab0c88a48p-6", "0x1.33b107746887bp-7", "0x1.c3fa451fb569dp+0", 3, 6),
    (1.473, True): ("0x1.23f67f4dbdf8fp-6", "0x1.32b55ef1fddecp-7", "0x1.c3fa5c76ff066p+0", 3, 6),
    (1.473, False): ("0x1.2378ab0c88a48p-6", "0x1.33b107746887bp-7", "0x1.c3fa451fb569dp+0", 3, 6),
    (1.603, True): ("0x1.23f67f4dbdf8fp-6", "0x1.32b55ef1fddecp-7", "0x1.c3fa22b3516f8p+0", 3, 6),
    (1.603, False): ("0x1.2378ab0c88a48p-6", "0x1.33b107746887bp-7", "0x1.c3fa0a56bdcb9p+0", 3, 6),
}

# the same record for a large population, where the coarse step is a
# twentieth of the line's largest per-term peak, below 1e-3
PINNED_CONFIGS = {
    "m1000": (
        Scenario(1000, 4.0, 1.5, 1.3),
        ("0x1.b2de9369f34d7p-11", "0x1.e2f4508b0bcc8p-12", "0x1.f6e76866d231dp-1", 4, 7),
    ),
}


def ascent_pin(res):
    hexes = tuple(x.hex() for x in (res.tau1_star, res.tau2_star, res.th_star))
    return (*hexes, res.outer_iterations, len(res.trace))


@pytest.mark.parametrize("gamma, dual_start", sorted(PINNED))
def test_ascent_endpoints_are_pinned(gamma, dual_start):
    # dual_start False: the reference sweep alone
    s = Scenario(50, 20.0, 2.0, gamma)
    got = ascent_pin(coordinate_ascent(s) if dual_start else _alternating_sweep(s, low_first=True))
    assert got == PINNED[gamma, dual_start]


@pytest.mark.parametrize("name", sorted(PINNED_CONFIGS))
def test_ascent_endpoints_are_pinned_beyond_the_sweep(name):
    s, want = PINNED_CONFIGS[name]
    assert ascent_pin(coordinate_ascent(s)) == want


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
        tau1, tau2, th, bound = _certify(DEFAULTS)
        assert res.th_star >= bound - 1e-3

    @pytest.mark.parametrize("m", [1_000, 10_000, 100_000])
    def test_default_ascent_reaches_dense_grid_maximum(self, m):
        # the optimum sits near tau = 1/m, and the coarse step follows it
        # down: with a fixed step of 1e-3 the ascent reached 0.980809 at
        # m = 1e4 and 0.858611 at 1e5.  The reference is the certificate's
        # bound, which no profile exceeds: 0.981757 and 0.981709 there.
        s = Scenario(m, 4.0, 1.5, 1.3)
        res = coordinate_ascent(s)
        tau1, tau2, th, bound = _certify(s)
        assert bound - th <= 1e-6
        assert res.th_star >= bound - 1e-5

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
        res = coordinate_ascent(DEFAULTS)
        ths = [t[3] for t in res.trace]
        assert all(a <= b for a, b in zip(ths, ths[1:]))
        assert all(b - a > optimize._EPSILON for a, b in zip(ths, ths[1:]))

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
        res = _alternating_sweep(SINGLE, low_first=True)
        assert res.tau2_star == 1.0
        assert res.th_star == pytest.approx(math.log2(2.5), rel=1e-12)


@st.composite
def boxes_meeting_the_simplex(draw):
    """A box [x0, x1] x [y0, y1] with (x0, y0) in the simplex: on the axes,
    across the hypotenuse, wide or down to a few ulps."""
    def side(limit):
        lo = draw(st.one_of(st.just(0.0), st.floats(0.0, limit), st.floats(0.0, 1e-3)))
        width = draw(st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1e-4), st.sampled_from([5e-324, 1e-12])))
        return lo, lo + width

    x0, x1 = side(1.0)
    y0, y1 = side(1.0 - x0)
    assume(x0 + y0 <= 1.0)
    return x0, x1, y0, y1


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestBoxBounds:
    """A box's bound covers the kernel at every profile of the box within
    the simplex."""

    @staticmethod
    def points(box, where):
        """The profiles of the simplex on a grid over the box: its ends, its
        middle and three fractions of each side from ``where``, and the points
        of the hypotenuse above the grid's tau1 values."""
        x0, x1, y0, y1 = box
        xs = np.minimum(x0 + np.array([0.0, 1.0, 0.5, *where[0::2]]) * (x1 - x0), x1)
        ys = np.minimum(y0 + np.array([0.0, 1.0, 0.5, *where[1::2]]) * (y1 - y0), y1)
        grid = [(x, y) for x in xs.tolist() for y in ys.tolist() if x + y <= 1.0]
        # the box's points on the hypotenuse, as near as floats come
        grid += [(x, (1.0 - x)) for x in xs.tolist() if y0 <= 1.0 - x <= y1]
        return [(x, y) for x, y in grid if x + y <= 1.0]

    @given(
        SCAN_SCENARIOS,
        st.lists(boxes_meeting_the_simplex(), min_size=1, max_size=6),
        st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6),
    )
    @settings(max_examples=300, deadline=None)
    # a box across the hypotenuse, and one on both axes
    @example(DEFAULTS, [(0.25, 0.75, 0.5, 0.75), (0.0, 0.1, 0.0, 0.1)], [0.5] * 6)
    @example(Scenario(100_000, 4.0, 1.5, 1.3), [(0.0, 2e-5, 0.0, 1e-5)], [0.3, 0.7] * 3)
    def test_bounds_cover_the_kernel(self, s, boxes, where):
        x0, x1, y0, y1 = np.array(boxes).T
        bound, score = model._box_bounds(s, x0, x1, y0, y1)
        assert bound.shape == score.shape == (len(boxes),)
        for box, b in zip(boxes, bound.tolist()):
            for x, y in self.points(box, where):
                th = average_throughput(s, PowerProfile(x, y))
                assert b >= th, (box, x, y, b - th)

    @pytest.mark.parametrize("seed", range(6))
    def test_tiny_boxes_cover_the_kernel_at_their_corners(self, seed):
        # boxes 1e-13 wide: the tangent plane is the centre's value within
        # rounding, so only its slack covers the kernel's own rounding
        rng = np.random.default_rng(seed)
        scenarios = [random_scenario(rng, m_max=60) for _ in range(10)]
        scenarios += [Scenario(int(m), 4.0, 1.5, 1.3) for m in rng.integers(1000, 100_000, 10)]
        for s in scenarios:
            x0, y0 = rng.uniform(0.0, 0.3, 50), rng.uniform(0.0, 0.3, 50)
            bound = model._box_bounds(s, x0, x0 + 1e-13, y0, y0 + 1e-13)[0].tolist()
            for b, x, y in zip(bound, x0.tolist(), y0.tolist()):
                for px, py in ((x, y), (x + 1e-13, y + 1e-13), (x + 5e-14, y + 5e-14)):
                    assert b >= average_throughput(s, PowerProfile(px, py)), (s, x, y)

    @pytest.mark.parametrize("s", [DEFAULTS, SINGLE, EMPTY, Scenario(50, 20.0, 2.0, 0.3)])
    def test_scores_are_the_throughput_at_box_centres(self, s):
        x0, y0 = np.meshgrid(np.arange(8) / 8.0, np.arange(8) / 8.0)
        x0, y0 = x0.ravel(), y0.ravel()
        keep = x0 + y0 <= 1.0
        x0, y0 = x0[keep], y0[keep]
        bound, score = model._box_bounds(s, x0, x0 + 0.125, y0, y0 + 0.125)
        xc, yc = x0 + 0.0625, y0 + 0.0625
        inside = xc + yc < 1.0
        want = [average_throughput(s, PowerProfile(x, y)) for x, y in zip(xc[inside], yc[inside])]
        assert score[inside] == pytest.approx(want, rel=1e-12, abs=1e-300)
        assert np.all(score[~inside] == -np.inf)
        assert np.all(bound >= np.where(inside, score, 0.0))

    @pytest.mark.parametrize("s", [Scenario(3, 4.0, 1.5, 0.5), Scenario(1000, 4.0, 1.5, 1.3)])
    def test_boxes_split_in_any_batch_keep_their_bits(self, s):
        rng = np.random.default_rng(5)
        x0, y0 = rng.uniform(0.0, 0.5, 64), rng.uniform(0.0, 0.5, 64)
        x1, y1 = x0 + rng.uniform(0.0, 0.1, 64), y0 + rng.uniform(0.0, 0.1, 64)
        whole = model._box_bounds(s, x0, x1, y0, y1)
        for a in range(0, 64, 7):
            part = model._box_bounds(s, x0[a : a + 7], x1[a : a + 7], y0[a : a + 7], y1[a : a + 7])
            assert [v.tolist() for v in part] == [v[a : a + 7].tolist() for v in whole]

    def test_a_first_order_bound_past_exps_range_is_inf_without_a_warning(self):
        # T = 210 157: on the root box the first-order exponents pass exp's
        # range, and an inf bound still holds
        s = Scenario(1104, 15.175390072319463, 5.748560858668094, 0.0031919276610137106)
        root = [np.array([v]) for v in (0.0, 1.0, 0.0, 1.0)]
        strict = model._box_bounds(s, *root)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            loose = model._box_bounds(s, *root)
        assert [v.tolist() for v in strict] == [v.tolist() for v in loose]
        assert strict[0].tolist() == [math.inf]


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestCertificate:
    """The branch and bound: its best centre's throughput in the kernel's
    bits, and a bound that no profile exceeds."""

    def test_single_user(self):
        tau1, tau2, th, bound = _certify(SINGLE)
        assert tau1 + tau2 <= 1.0 and tau1 > tau2
        assert th <= math.log2(5.0) <= bound
        assert bound - th <= 1e-6

    def test_empty_region(self):
        assert _certify(EMPTY)[2:] == (0.0, 0.0)

    def test_defaults_prefer_high_power(self):
        tau1, tau2, th, bound = _certify(DEFAULTS)
        assert tau1 > tau2
        assert bound - th <= 1e-6

    @pytest.mark.parametrize(
        "s", [DEFAULTS, SINGLE, Scenario(3, 4.0, 1.5, 0.5), Scenario(50, 20.0, 2.0, 0.3)]
    )
    def test_reports_the_kernel_at_its_profile(self, s):
        tau1, tau2, th, bound = _certify(s)
        assert th == average_throughput(s, PowerProfile(tau1, tau2))

    @pytest.mark.parametrize("step", [0.1, 0.05, 0.01])
    @pytest.mark.parametrize(
        "s", [DEFAULTS, SINGLE, EMPTY, Scenario(3, 4.0, 1.5, 0.5), Scenario(50, 20.0, 2.0, 0.3)]
    )
    def test_bound_covers_reference_grid(self, s, step):
        tau1, tau2, th, bound = _certify(s)
        grid = reference_oracle(s, step)[2]
        assert bound >= grid and bound >= th
        assert th >= grid - 1e-6

    @given(st.one_of(boundary_scenarios(), large_scenarios(), st.integers(0, 2**32 - 1).map(
        lambda seed: random_scenario(np.random.default_rng(seed), m_max=30))))
    @settings(max_examples=40, deadline=None)
    # the ascent lies 1.27e-5 and 1.44e-5 below the certified maximum
    @example(Scenario(9, 17.278664559887254, 13.731211414798263, 0.2605601655821139))
    @example(Scenario(100, 4.0, 1.5, 0.05))
    def test_bound_covers_the_ascent_and_the_reference_grid(self, s):
        # epsilon = 1e-5 bounds the ascent's last accepted gain, not its gap
        # to the maximum; 1e-4 bounds the gap wherever the certificate closes
        tau1, tau2, th, bound = _certify(s)
        ascent = coordinate_ascent(s).th_star
        assert bound >= th and bound >= ascent
        if bound - th <= optimize._CERTIFY_TOL:
            assert ascent >= bound - 1e-4, bound - ascent
        if s.m <= 30:
            assert bound >= reference_oracle(s, 0.05)[2]

    @pytest.mark.parametrize(
        "s",
        [DEFAULTS, Scenario(10_000, 4.0, 1.5, 1.3), Scenario(100_000, 4.0, 1.5, 1.3)]
        + [Scenario(50, 20.0, 2.0, gamma) for gamma, _ in sorted(PINNED)[::2]],
    )
    def test_closes_on_the_sweep_and_at_large_m(self, s):
        tau1, tau2, th, bound = _certify(s)
        assert 0.0 <= bound - th <= 1e-6
        assert bound >= coordinate_ascent(s).th_star

    @pytest.mark.parametrize("budget", [1, 7])
    def test_boxes_a_call_leave_the_result(self, budget, monkeypatch):
        # the defaults' 4 terms count as 64 a box
        want = _certify(DEFAULTS)
        monkeypatch.setattr(optimize, "_BLOCK_ELEMENTS", 64 * budget)
        assert _certify(DEFAULTS) == want

    def test_the_work_budget_ends_the_search(self, monkeypatch):
        monkeypatch.setattr(optimize, "_CERTIFY_WORK", 1)
        tau1, tau2, th, bound = _certify(Scenario(50, 20.0, 2.0, 0.3))
        assert th == average_throughput(Scenario(50, 20.0, 2.0, 0.3), PowerProfile(tau1, tau2))
        assert bound - th > 1e-3

    def test_memory_stays_bounded(self):
        s = Scenario(50, 20.0, 2.0, 0.3)
        model._terms(s)
        tracemalloc.start()
        try:
            _certify(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak
