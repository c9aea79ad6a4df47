"""Tests for the alternating maximisation and the grid-search oracle."""

import math
import tracemalloc
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noma_aloha import model, optimize
from noma_aloha.model import PowerProfile, Scenario, average_throughput
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


maximize_over = optimize._maximize_over
line_bounds = model._line_bounds


def scan(f, bounds, budget, lo, hi, step):
    return optimize._scan(f, bounds, budget, *optimize._grid(lo, hi, step))


def with_budget(budget):
    """Hand every line of the ascent and the oracle the element ``budget``."""
    real = optimize._scan_line
    return mock.patch.object(optimize, "_scan_line", lambda *line: (*real(*line)[:2], budget))


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

    def test_refinement_width_must_stay_positive(self):
        # 1e-3 divided by 10 321 times is 0.0, and the scans divide by it
        AscentConfig(refine_rounds=320)
        for rounds in (321, 330, 10**12):
            with pytest.raises(ValueError, match="refinement width"):
                AscentConfig(refine_rounds=rounds)

    def test_grid_step_has_a_floor(self):
        # a finer coarse step scans more than 1e8 samples a line
        assert optimize._MIN_GRID_STEP == 1e-8
        AscentConfig(grid_step=1e-8)
        for step in (9.99e-9, 1e-300, 5e-324):
            with pytest.raises(ValueError, match="too large to run"):
                AscentConfig(grid_step=step)

    def test_fields(self):
        assert [f.name for f in fields(AscentConfig)] == [
            "epsilon", "max_outer_iterations", "grid_step", "refine_rounds", "dual_start"
        ]


class TestInnerMaximizations:
    def test_tau2_single_user_monotone(self):
        tau2, th = maximize_over(SINGLE, 1, 0.0, AscentConfig())
        assert tau2 == 1.0
        assert th == pytest.approx(math.log2(2.5), rel=1e-12)

    def test_tau2_empty_interval(self):
        tau2, _ = maximize_over(DEFAULTS, 1, 1.0, AscentConfig())
        assert tau2 == 0.0

    def test_tau2_matches_dense_scan(self):
        tau2, th = maximize_over(DEFAULTS, 1, 0.0, AscentConfig())
        ref_x, ref_f = dense_scan_argmax(
            lambda t: average_throughput(DEFAULTS, PowerProfile(0.0, t)), 0.0, 1.0, 1e-4
        )
        assert abs(tau2 - ref_x) <= 1e-3
        assert th >= ref_f - 1e-9

    def test_tau1_single_user_monotone(self):
        tau1, th = maximize_over(SINGLE, 0, 0.0, AscentConfig())
        assert tau1 == 1.0
        assert th == pytest.approx(math.log2(5.0), rel=1e-12)

    def test_tau1_empty_interval(self):
        tau1, _ = maximize_over(DEFAULTS, 0, 1.0, AscentConfig())
        assert tau1 == 0.0

    def test_tau1_matches_dense_scan(self):
        tau1, th = maximize_over(DEFAULTS, 0, 0.0, AscentConfig())
        ref_x, ref_f = dense_scan_argmax(
            lambda t: average_throughput(DEFAULTS, PowerProfile(t, 0.0)), 0.0, 1.0, 1e-4
        )
        assert abs(tau1 - ref_x) <= 1e-3
        assert th >= ref_f - 1e-9

    def test_rejects_out_of_range_fixed_coordinate(self):
        with pytest.raises(ValueError):
            maximize_over(DEFAULTS, 1, 1.2, AscentConfig())
        with pytest.raises(ValueError):
            maximize_over(DEFAULTS, 0, -0.1, AscentConfig())


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
        got = scan(*model._scan_line(s, 1, 0.0), lo, hi, step)
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
        f, _, budget = model._scan_line(DEFAULTS, 1, 0.0)
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
        got = scan(*model._scan_line(s, axis, fixed), 0.0, hi, step)
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
            tau2, th = maximize_over(DEFAULTS, 1, 0.0, AscentConfig(grid_step=2e-6))
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
            tau2, th = maximize_over(DEFAULTS, 1, 0.0, AscentConfig(grid_step=1e-7))
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
        """The line and the samples of one scan of each caller: the ascent's
        coarse scan of [0, 1 - fixed], a bracket [lo, 1 - fixed] with
        lo > 0 as a refinement scans, or an oracle row, tau2 = k*step while
        fixed + tau2 <= 1."""
        if kind == "row":
            total = optimize._prefix(0.0, step, lambda x: fixed + x <= 1.0, 1.0 - fixed)
            return 1, total, lambda k: k * step
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
        st.sampled_from(["coarse", "bracket", "row"]),
        st.floats(0.0, 1.0, exclude_min=True),
    )
    @settings(max_examples=300, deadline=None)
    # the run with the largest bound does not hold the maximum
    @example(Scenario(50, 20.0, 2.0, 0.3), 1, 0.055, 1e-3, 5, None, "coarse", 0.5)
    @example(DEFAULTS, 0, 0.753, 1e-3, 5, 64, "coarse", 0.5)
    # scans of many pieces
    @example(Scenario(50, 20.0, 2.0, 0.3), 1, 0.05, 1e-3, 5, 64, "row", 0.5)
    @example(Scenario(50, 20.0, 2.0, 0.3), 0, 0.02, 1e-3, 1, 7, "bracket", 0.01)
    def test_matches_full_scan_and_bounds_cover_the_kernel(
        self, s, axis, fixed, step, interval, piece, kind, where
    ):
        axis, total, points = self.samples(kind, axis, fixed, step, where)
        f, bounds, budget = model._scan_line(s, axis, fixed)
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
        kernel, bounds, budget = model._scan_line(s, 1, 0.05)
        evaluated = []

        def f(xs):
            evaluated.append(xs.size)
            return kernel(xs)

        got = scan(f, bounds, budget, 0.0, 0.95, 1e-3)
        assert got == exhaustive_scan(kernel, *optimize._grid(0.0, 0.95, 1e-3))
        # of 951 samples
        assert sum(evaluated) < 200, evaluated

    def test_skips_most_of_an_oracle_row_over_many_pieces(self):
        s = Scenario(50, 20.0, 2.0, 0.3)
        kernel = TestGridScan.kernel(s, 1, 0.05)
        points = lambda k: k * 1e-3  # noqa: E731
        total = optimize._prefix(0.0, 1e-3, lambda x: 0.05 + x <= 1.0, 0.95)
        evaluated = []

        def f(xs):
            evaluated.append(xs.size)
            return kernel(xs)

        # 951 samples in pieces of two runs of 32
        got = optimize._scan(f, line_bounds(s, 1, 0.05), 2, total, points)
        assert got == exhaustive_scan(kernel, total, points)
        assert sum(evaluated) < 200, evaluated


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
            f, bounds, budget = real(s, axis, fixed)

            def spied_f(xs):
                calls.append(("points", xs.size, budget))
                return f(xs)

            def spied_bounds(lo, hi):
                calls.append(("runs", lo.size, budget))
                return bounds(lo, hi)

            return spied_f, spied_bounds, budget

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
        maximize_over(s, 1, 0.0, AscentConfig(grid_step=1e-6, refine_rounds=0))
        self.check(calls, s)
        runs = [size for kind, size, _ in calls if kind == "runs"]
        assert runs == [4096] * 7 + [31_251 - 7 * 4096]

    def test_oracle_on_a_fine_grid(self, monkeypatch):
        s = Scenario(50, 20.0, 2.0, 0.3)
        calls = self.spy(monkeypatch)
        grid_search_oracle(s, 0.002)
        self.check(calls, s)


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

# the same record for a multi-piece coarse scan (500 001 samples at step
# 2e-6) and for a large population
PINNED_CONFIGS = {
    "defaults-step-2e-6": (
        DEFAULTS,
        AscentConfig(grid_step=2e-6),
        ("0x1.53319070d0f87p-4", "0x1.8407a189fdf03p-5", "0x1.09f45a7014062p+0", 4, 7),
    ),
    "m1000": (
        Scenario(1000, 4.0, 1.5, 1.3),
        AscentConfig(),
        ("0x1.b328b6d86ec18p-11", "0x1.e2584f4c6e6dap-12", "0x1.f6e773eea3d4ap-1", 4, 7),
    ),
}


def ascent_pin(s, cfg):
    res = coordinate_ascent(s, cfg)
    hexes = tuple(x.hex() for x in (res.tau1_star, res.tau2_star, res.th_star))
    return (*hexes, res.outer_iterations, len(res.trace))


@pytest.mark.parametrize("gamma, dual_start", sorted(PINNED))
def test_ascent_endpoints_are_pinned(gamma, dual_start):
    got = ascent_pin(Scenario(50, 20.0, 2.0, gamma), AscentConfig(dual_start=dual_start))
    assert got == PINNED[gamma, dual_start]


@pytest.mark.parametrize("name", sorted(PINNED_CONFIGS))
def test_ascent_endpoints_are_pinned_beyond_the_sweep(name):
    s, cfg, want = PINNED_CONFIGS[name]
    assert ascent_pin(s, cfg) == want


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

    @pytest.mark.parametrize(
        "m",
        [
            1_000,
            pytest.param(10_000, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 1")),
            pytest.param(100_000, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 1")),
        ],
    )
    def test_default_ascent_reaches_dense_grid_maximum(self, m):
        # the optimum sits near tau = 1/m; the default ascent's finest
        # resolution is a fixed 1e-5, so it falls short at large m
        s = Scenario(m, 4.0, 1.5, 1.3)
        cfg = AscentConfig()
        res = coordinate_ascent(s, cfg)
        taus = np.arange(801) * (10.0 / m / 800)
        dense = max(float(model._line(s, 1, tau1)(taus).max()) for tau1 in taus.tolist())
        assert res.th_star >= dense - cfg.epsilon

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

    def test_step_has_a_floor(self):
        # a finer step grids more than about 5e7 profiles
        assert optimize._MIN_ORACLE_STEP == 1e-4
        optimize._check_oracle_step(1e-4)
        for step in (9.99e-5, 1e-9, 5e-324):
            with pytest.raises(ValueError, match="too large to run"):
                grid_search_oracle(DEFAULTS, step)

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
        with with_budget(piece):
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
