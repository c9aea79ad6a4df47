"""Unit and property tests for the closed-form performance model."""

import math
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from noma_aloha import model
from noma_aloha.cli import main
from noma_aloha.model import (
    CountPair,
    PowerProfile,
    Scenario,
    average_throughput,
    baseline_optimum,
    baseline_success,
    region_bounds,
    sinr_high,
    sinr_low,
    success_probability,
)
from noma_aloha.simulate import sic_decode
from support import (
    all_decodable,
    all_pairs,
    boundary_scenarios,
    brute_force_success,
    brute_force_throughput,
    edge_profiles,
    near_threshold,
    poisson_limit_throughput,
    random_scenario,
    reference_evaluate,
    table_rates,
)

DEFAULTS = Scenario(m=10, v1=4.0, v2=1.5, gamma=1.5)


@st.composite
def scenarios(draw, m_max=20):
    m = draw(st.integers(1, m_max))
    v1 = draw(st.floats(0.5, 20.0))
    v2 = v1 * draw(st.floats(0.01, 0.99))
    gamma = draw(st.floats(0.05, 5.0))
    assume(v1 > v2 > 0.0)
    return Scenario(m=m, v1=v1, v2=v2, gamma=gamma)


@st.composite
def profiles(draw):
    tau1 = draw(st.floats(0.0, 1.0))
    tau2 = (1.0 - tau1) * draw(st.floats(0.0, 1.0))
    return PowerProfile(tau1, tau2)


class TestTypes:
    def test_scenario_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            Scenario(m=0, v1=4.0, v2=1.5, gamma=1.5)
        with pytest.raises(ValueError):
            Scenario(m=10, v1=1.5, v2=1.5, gamma=1.5)
        with pytest.raises(ValueError):
            Scenario(m=10, v1=1.0, v2=4.0, gamma=1.5)
        with pytest.raises(ValueError):
            Scenario(m=10, v1=4.0, v2=1.5, gamma=0.0)
        for v1, v2, gamma in ((math.inf, 1.5, 1.5), (4.0, 1.5, math.inf), (4.0, 1.5, math.nan)):
            with pytest.raises(ValueError):
                Scenario(m=10, v1=v1, v2=v2, gamma=gamma)

    def test_profile_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            PowerProfile(-0.1, 0.2)
        with pytest.raises(ValueError):
            PowerProfile(0.6, 0.5)
        for tau1, tau2 in ((math.nan, 0.1), (0.1, math.nan), (math.inf, 0.0), (-math.inf, 0.5)):
            with pytest.raises(ValueError):
                PowerProfile(tau1, tau2)

    def test_profile_accepts_simplex_boundary(self):
        for tau1, tau2 in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.3, 0.7)):
            PowerProfile(tau1, tau2)

    def test_count_pair_rejects_negative(self):
        with pytest.raises(ValueError):
            CountPair(-1, 0)


class TestSinr:
    def test_high_examples(self):
        assert sinr_high(DEFAULTS, 1, CountPair(1, 0)) == 4.0
        assert sinr_high(DEFAULTS, 1, CountPair(2, 0)) == pytest.approx(0.8)
        assert sinr_high(DEFAULTS, 1, CountPair(1, 1)) == pytest.approx(1.6)

    def test_low_examples(self):
        assert sinr_low(DEFAULTS, 1, CountPair(0, 1)) == 1.5
        assert sinr_low(DEFAULTS, 1, CountPair(0, 2)) == pytest.approx(0.6)
        assert sinr_low(DEFAULTS, 2, CountPair(0, 2)) == 1.5

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            sinr_high(DEFAULTS, 2, CountPair(1, 0))
        with pytest.raises(ValueError):
            sinr_high(DEFAULTS, 0, CountPair(1, 0))
        with pytest.raises(ValueError):
            sinr_low(DEFAULTS, 3, CountPair(0, 2))

    @given(scenarios(), st.data())
    def test_sinr_strictly_increasing_in_decode_order(self, s, data):
        n1 = data.draw(st.integers(1, s.m))
        n2 = data.draw(st.integers(0, s.m - n1))
        pair = CountPair(n1, n2)
        highs = [sinr_high(s, i, pair) for i in range(1, n1 + 1)]
        assert all(a < b for a, b in zip(highs, highs[1:]))
        if n2 >= 1:
            lows = [sinr_low(s, j, pair) for j in range(1, n2 + 1)]
            assert all(a < b for a, b in zip(lows, lows[1:]))


def assert_region_matches_decoder(s):
    """region_bounds membership equals sic_decode's layer flags on every pair."""
    b = region_bounds(s)
    for n1, n2 in all_pairs(s.m):
        out = sic_decode(s, n1, n2)
        assert b.in_high_region(n1, n2) == out.high_decoded, (n1, n2)
        assert b.in_low_region(n1, n2) == out.low_decoded, (n1, n2)


class TestFeasibility:
    def test_examples(self):
        b = region_bounds(DEFAULTS)
        for (n1, n2), want in (((1, 1), True), ((2, 0), False), ((0, 0), False)):
            out = sic_decode(DEFAULTS, n1, n2)
            assert b.in_high_region(n1, n2) == out.high_decoded == want
            assert b.in_low_region(n1, n2) == out.low_decoded == want

    def test_bounds_examples(self):
        b = region_bounds(DEFAULTS)
        assert b.high_max == 1
        assert b.low_max_given_high == (1,)
        assert b.low_max == 1
        assert b.high_max_given_low == (1,)
        b = region_bounds(Scenario(m=10, v1=4.0, v2=1.5, gamma=0.3))
        assert b.high_max == 4
        assert b.low_max == 3
        b = region_bounds(Scenario(m=10, v1=4.0, v2=1.5, gamma=5.0))
        assert b.high_max == 0
        assert b.low_max == 0

    def test_bounds_match_feasibility_at_defaults(self):
        assert_region_matches_decoder(DEFAULTS)

    @given(scenarios())
    def test_bounds_match_feasibility(self, s):
        assume(not near_threshold(s))
        assert_region_matches_decoder(s)

    def test_caps_are_bisected(self):
        # each cap takes O(log m) predicate calls, not one per count; counting
        # up pair by pair makes 360 600 calls here
        s = Scenario(600, 4.0, 1.5, 1e-4)
        b = region_bounds(s)
        with mock.patch.object(model, "_high_ok", wraps=model._high_ok) as high_ok:
            assert model.region_bounds.__wrapped__(s) == b
        limit = (b.high_max + b.low_max + 2) * (math.ceil(math.log2(s.m + 2)) + 1)
        assert limit == 13_222
        assert high_ok.call_count <= limit, high_ok.call_count

    @given(scenarios())
    def test_bound_maps_nonincreasing(self, s):
        b = region_bounds(s)
        caps = b.low_max_given_high
        assert all(a >= c for a, c in zip(caps, caps[1:]))
        caps = b.high_max_given_low
        assert all(a >= c for a, c in zip(caps, caps[1:]))

    @given(scenarios())
    def test_downward_closure(self, s):
        b = region_bounds(s)
        for n1, n2 in all_pairs(s.m):
            if b.in_high_region(n1, n2):
                if n1 >= 2:
                    assert b.in_high_region(n1 - 1, n2)
                if n2 >= 1:
                    assert b.in_high_region(n1, n2 - 1)
            if b.in_low_region(n1, n2):
                if n2 >= 2:
                    assert b.in_low_region(n1, n2 - 1)
                if n1 >= 1:
                    assert b.in_low_region(n1 - 1, n2)


class TestSinrBoundaries:
    @given(boundary_scenarios(), profiles())
    # 0.5 / (0.5 * 3 + 1) == 0.2 in floats, so four low users decode
    @example(Scenario(m=10, v1=2.0, v2=0.5, gamma=0.2), PowerProfile(0.1, 0.3))
    @settings(max_examples=150, deadline=None)
    def test_bounds_and_sums_match_brute_force(self, s, prof):
        """gamma equal to a float SINR: that signal decodes, and the bounds,
        the decoder's flags and both sums follow the same float comparison."""
        assert_region_matches_decoder(s)
        assert average_throughput(s, prof) == pytest.approx(
            brute_force_throughput(s, prof), rel=0, abs=1e-12
        )
        assert success_probability(s, prof) == pytest.approx(
            brute_force_success(s, prof), rel=0, abs=1e-12
        )


class TestJointPmf:
    """The count pmf inside the kernel, seen where every pair decodes both
    layers: there a user succeeds whenever it transmits, and the throughput
    weighs every pair's mass."""

    def test_examples(self):
        assert average_throughput(all_decodable(DEFAULTS), PowerProfile(0.0, 0.0)) == 0.0
        # m = 2 at (0.25, 0.25): masses 0.25 of (1, 0) and (0, 1), 0.0625 of
        # (2, 0) and (0, 2), 0.125 of (1, 1)
        s2 = all_decodable(Scenario(m=2, v1=4.0, v2=1.5, gamma=1.5))
        r1, r2 = math.log2(5.0), math.log2(2.5)
        expected = (
            0.25 * (r1 + r2)
            + 0.0625 * (math.log2(1.0 + 4.0 / 5.0) + r1)
            + 0.0625 * (math.log2(1.0 + 1.5 / 2.5) + r2)
            + 0.125 * (math.log2(1.0 + 4.0 / 2.5) + r2)
        )
        assert average_throughput(s2, PowerProfile(0.25, 0.25)) == pytest.approx(
            expected, rel=0, abs=1e-12
        )
        s1 = all_decodable(Scenario(m=1, v1=4.0, v2=1.5, gamma=1.5))
        assert average_throughput(s1, PowerProfile(0.3, 0.2)) == pytest.approx(
            0.3 * r1 + 0.2 * r2, rel=0, abs=1e-12
        )

    @given(scenarios(m_max=25), profiles())
    @settings(max_examples=60)
    def test_matches_exact_combinatorial_form(self, s, prof):
        s = all_decodable(s)
        assert average_throughput(s, prof) == pytest.approx(
            brute_force_throughput(s, prof), rel=0, abs=1e-12
        )

    @given(scenarios(m_max=30), profiles())
    @settings(max_examples=100)
    def test_normalizes_to_one(self, s, prof):
        s = all_decodable(s)
        b = region_bounds(s)
        assert b.high_max == b.low_max == s.m
        assert success_probability(s, prof) == pytest.approx(
            prof.tau1 + prof.tau2, rel=0, abs=1e-12
        )

    def test_zero_probability_modes(self):
        s = all_decodable(Scenario(m=5, v1=4.0, v2=1.5, gamma=1.5))
        assert success_probability(s, PowerProfile(0.0, 0.5)) == pytest.approx(
            0.5, rel=0, abs=1e-12
        )
        # idle probability zero: only pairs with n1 + n2 = m carry mass
        assert success_probability(s, PowerProfile(0.5, 0.5)) == pytest.approx(
            1.0, rel=0, abs=1e-12
        )


class TestSuccessProbability:
    def test_zero_profile(self):
        assert success_probability(DEFAULTS, PowerProfile(0.0, 0.0)) == 0.0

    def test_single_user_always_succeeds(self):
        s = Scenario(m=1, v1=4.0, v2=1.5, gamma=1.5)
        assert success_probability(s, PowerProfile(0.3, 0.2)) == pytest.approx(
            0.5, rel=1e-12
        )

    def test_matches_brute_force(self):
        prof = PowerProfile(0.1, 0.1)
        assert success_probability(DEFAULTS, prof) == pytest.approx(
            brute_force_success(DEFAULTS, prof), rel=0, abs=1e-12
        )

    @given(scenarios(m_max=12), profiles())
    @settings(max_examples=60)
    def test_brute_force_equivalence(self, s, prof):
        assume(not near_threshold(s))
        assert success_probability(s, prof) == pytest.approx(
            brute_force_success(s, prof), rel=0, abs=1e-12
        )

    @given(scenarios(), profiles())
    def test_bounded_by_transmit_probability(self, s, prof):
        p = success_probability(s, prof)
        assert 0.0 <= p <= prof.tau1 + prof.tau2 + 1e-12

    def test_zero_when_region_empty(self):
        s = Scenario(m=10, v1=4.0, v2=1.5, gamma=5.0)
        assert success_probability(s, PowerProfile(0.4, 0.4)) == 0.0


class TestConditionalRates:
    def test_high_examples(self):
        rates = table_rates(DEFAULTS)
        assert rates[1, 0, "high"] == pytest.approx(math.log2(5.0), rel=1e-12)
        assert rates[1, 1, "high"] == pytest.approx(math.log2(2.6), rel=1e-12)
        s = Scenario(m=10, v1=4.0, v2=1.5, gamma=0.3)
        assert table_rates(s)[2, 0, "high"] == pytest.approx(
            math.log2(1.8) + math.log2(5.0), rel=1e-12
        )

    def test_low_examples(self):
        rates = table_rates(DEFAULTS)
        assert rates[0, 1, "low"] == pytest.approx(math.log2(2.5), rel=1e-12)
        assert rates[1, 1, "low"] == pytest.approx(math.log2(2.5), rel=1e-12)
        s = Scenario(m=10, v1=4.0, v2=1.5, gamma=0.3)
        assert table_rates(s)[0, 2, "low"] == pytest.approx(2.0, rel=1e-12)


class TestLeftSum:
    @pytest.mark.parametrize(
        "s",
        [
            DEFAULTS,
            Scenario(50, 20.0, 2.0, 0.173),
            Scenario(50, 20.0, 2.0, 0.3),
            all_decodable(Scenario(60, 4.0, 1.5, 1.0)),
        ],
    )
    def test_layer_rates_are_left_to_right_sums(self, s):
        # the table's rate column, bit for bit, against a scalar loop per pair
        b = region_bounds(s)
        expected = {}
        for n1 in range(1, b.high_max + 1):
            for n2 in range(b.low_max_given_high[n1 - 1] + 1):
                total = 0.0
                for i in range(1, n1 + 1):
                    total += math.log2(1.0 + s.v1 / ((i - 1) * s.v1 + n2 * s.v2 + 1.0))
                expected[n1, n2, "high"] = total
        for n2 in range(1, b.low_max + 1):
            for n1 in range(b.high_max_given_low[n2 - 1] + 1):
                total = 0.0
                for j in range(1, n2 + 1):
                    total += math.log2(1.0 + s.v2 / ((j - 1) * s.v2 + 1.0))
                expected[n1, n2, "low"] = total
        rates = table_rates(s)
        assert len(rates) == model._terms(s)[2].size
        assert {k: v.hex() for k, v in rates.items()} == {k: v.hex() for k, v in expected.items()}

    def test_table_build_is_linear_in_its_size(self):
        # one log2 term per high column and one per low count, not one per
        # decoded signal of every pair (75 640 here)
        s = all_decodable(Scenario(60, 4.0, 1.5, 1.0))
        b = region_bounds(s)
        high_columns = sum(cap + 1 for cap in b.low_max_given_high)
        assert (high_columns, b.low_max) == (1830, 60)
        with mock.patch.object(math, "log2", wraps=math.log2) as log2:
            model._terms.__wrapped__(s)
        assert log2.call_count <= high_columns + b.low_max


def assert_log_coefs_are_lgamma_differences(s):
    # log(m! / (n1! n2! idle!)) per column, subtracted left to right
    counts, log_coef = model._terms.__wrapped__(s)[:2]
    expected = [
        ((math.lgamma(s.m + 1) - math.lgamma(n1 + 1)) - math.lgamma(n2 + 1)) - math.lgamma(idle + 1)
        for n1, n2, idle in counts.T.astype(int).tolist()
    ]
    assert [c.hex() for c in log_coef.tolist()] == [c.hex() for c in expected], s


class TestLogCoefficients:
    @pytest.mark.parametrize(
        "s",
        # the 12 gammas of the optimize-sweep make-up, then the CLI defaults
        [Scenario(50, 20.0, 2.0, 0.173 + 0.13 * k) for k in range(12)] + [DEFAULTS],
    )
    def test_match_lgamma_per_column(self, s):
        assert_log_coefs_are_lgamma_differences(s)

    @given(boundary_scenarios())
    @settings(max_examples=100, deadline=None)
    def test_match_lgamma_per_column_on_sinr_boundaries(self, s):
        assert_log_coefs_are_lgamma_differences(s)

    def test_analyze_memory_does_not_grow_with_m(self, capsys):
        # a table of 4 columns at m = 10**6: lgamma over 0..m would take
        # more than 30 MiB
        model.region_bounds.cache_clear()
        model._terms.cache_clear()
        tracemalloc.start()
        try:
            assert main(["analyze", "--m", str(10**6), "--gamma", "1.3"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak < 4 * 2**20, peak


class TestAverageThroughput:
    def test_zero_profile(self):
        assert average_throughput(DEFAULTS, PowerProfile(0.0, 0.0)) == 0.0

    def test_single_user_high(self):
        s = Scenario(m=1, v1=4.0, v2=1.5, gamma=1.5)
        assert average_throughput(s, PowerProfile(1.0, 0.0)) == pytest.approx(
            math.log2(5.0), rel=1e-12
        )

    def test_zero_when_region_empty(self):
        s = Scenario(m=10, v1=4.0, v2=1.5, gamma=5.0)
        assert average_throughput(s, PowerProfile(0.5, 0.3)) == 0.0

    def test_matches_brute_force_at_defaults(self):
        prof = PowerProfile(0.1, 0.1)
        assert average_throughput(DEFAULTS, prof) == pytest.approx(
            brute_force_throughput(DEFAULTS, prof), rel=0, abs=1e-12
        )

    @given(scenarios(m_max=12), profiles())
    @settings(max_examples=60)
    def test_brute_force_equivalence(self, s, prof):
        assume(not near_threshold(s))
        assert average_throughput(s, prof) == pytest.approx(
            brute_force_throughput(s, prof), rel=0, abs=1e-12
        )

    # (v1, v2, gamma) and a load near the optimum at large m
    POISSON_LOADS = [
        ((4.0, 1.5, 1.3), (0.8295, 0.4605)),
        ((8.0, 2.0, 0.7), (1.423, 0.2425)),
        ((20.0, 2.0, 0.3), (2.338, 0.704)),
    ]

    @pytest.mark.parametrize("powers, lam", POISSON_LOADS)
    def test_large_m_tends_to_the_poisson_limit(self, powers, lam):
        # the counts at tau = lam / m lie within (lam1 + lam2)**2 / m of the
        # Poisson laws in total variation (Le Cam), so the gap shrinks as
        # 1 / m: m * gap reads 0.53, 1.34 and 3.12 at each m from 1e3 to 1e5
        limit = poisson_limit_throughput(Scenario(1000, *powers), *lam)
        for m in (1000, 10_000, 100_000):
            th = average_throughput(Scenario(m, *powers), PowerProfile(lam[0] / m, lam[1] / m))
            assert m * abs(limit - th) <= 4.0, (m, limit, th)


# fixed coordinates at the edges of the simplex and just inside them
EDGE_FIXED = (0.0, 1.0, 1.0 - 1e-9, 1e-4, 7.5e-4)


class TestEvaluationKernel:
    """The line kernel gives every profile the bits of the scalar formula
    it replaced, whatever the line, its length and its pieces."""

    @staticmethod
    def line(s, axis, fixed, xs):
        """The kernel's throughput and success probability on a line."""
        th = model._line(s, axis, fixed, model._RATE)(xs)
        users = model._line(s, axis, fixed, model._USERS)(xs)
        return th, users

    @staticmethod
    def check_batch(s, profs):
        # every profile as a line of one point: the public calls
        expected = [reference_evaluate(s, prof) for prof in profs]
        got = [(average_throughput(s, prof), success_probability(s, prof)) for prof in profs]
        assert got == expected
        # lines through the first and last profiles along either axis, over
        # the other coordinate of every profile that stays on the simplex
        for fixed in {profs[0].tau1, profs[-1].tau1}:
            TestEvaluationKernel.check_fixed(s, 1, fixed, [q.tau2 for q in profs])
        for fixed in {profs[0].tau2, profs[-1].tau2}:
            TestEvaluationKernel.check_fixed(s, 0, fixed, [q.tau1 for q in profs])

    @staticmethod
    def check_fixed(s, axis, fixed, others):
        """One line, axis 0 varying tau1 and axis 1 varying tau2, against the
        scalar formula and the one-point calls, whole and in pieces."""
        others = [x for x in others if fixed + x <= 1.0]
        if not others:
            return
        profs = [PowerProfile(*((x, fixed) if axis == 0 else (fixed, x))) for x in others]
        expected = [reference_evaluate(s, prof) for prof in profs]
        xs = np.array(others)
        th, users = TestEvaluationKernel.line(s, axis, fixed, xs)
        assert list(zip(th.tolist(), (users / s.m).tolist())) == expected
        assert th.tolist() == [average_throughput(s, prof) for prof in profs]
        assert (users / s.m).tolist() == [success_probability(s, prof) for prof in profs]
        # the line in pieces of one profile, and in pieces of 1, 2, 3, ...
        # profiles, which split it unevenly
        uneven = np.cumsum(np.arange(1, xs.size))
        for cuts in (np.arange(1, xs.size), uneven[uneven < xs.size]):
            parts = [TestEvaluationKernel.line(s, axis, fixed, p) for p in np.split(xs, cuts)]
            got = [np.concatenate(a).tolist() for a in zip(*parts)]
            assert got == [th.tolist(), users.tolist()]

    @given(st.integers(0, 2**32 - 1), st.lists(edge_profiles(), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_random_scenarios_match_scalar_formula(self, seed, profs):
        self.check_batch(random_scenario(np.random.default_rng(seed), m_max=40), profs)

    @given(boundary_scenarios(), st.lists(edge_profiles(), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_boundary_scenarios_match_scalar_formula(self, s, profs):
        self.check_batch(s, profs)

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([0, 1]),
        st.one_of(st.sampled_from(EDGE_FIXED), st.floats(0.0, 1e-3)),
        st.lists(edge_profiles(), min_size=1, max_size=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_edge_fixed_values_match_scalar_formula(self, seed, axis, fixed, profs):
        s = random_scenario(np.random.default_rng(seed), m_max=40)
        self.check_fixed(s, axis, fixed, [q.tau1 for q in profs] + [q.tau2 for q in profs])

    def test_dense_batches_match_scalar_formula(self):
        # a last-place change in one log (np.log for math.log, say) moves
        # well under 1 % of the profiles, so each line is long
        rng = np.random.default_rng(5)
        for s in (Scenario(50, 20.0, 2.0, 0.18), Scenario(200, 20.0, 2.0, 0.3), Scenario(20, 8.0, 2.0, 0.5)):
            tau1 = rng.uniform(0.0, 0.2, 400).tolist()
            tau2 = rng.uniform(0.0, 0.2, 400).tolist()
            self.check_batch(s, [PowerProfile(a, b) for a, b in zip(tau1, tau2)])
            for fixed in EDGE_FIXED:
                self.check_fixed(s, 0, fixed, tau1)
                self.check_fixed(s, 1, fixed, tau2)

    def test_simplex_corners_and_empty_region(self):
        corners = [PowerProfile(*t) for t in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.3, 0.7))]
        # 1 - tau1 - tau2 rounds one ulp below zero here
        corners.append(PowerProfile(0.028275683863404344, 0.9717243161365957))
        assert 1.0 - corners[-1].tau1 - corners[-1].tau2 < 0.0
        for s in (DEFAULTS, Scenario(1, 4.0, 1.5, 1.5), Scenario(10, 4.0, 1.5, 5.0)):
            self.check_batch(s, corners)
            # the lines through the ulp-below-zero corner along either axis
            self.check_fixed(s, 1, corners[-1].tau1, [0.0, 0.5, corners[-1].tau2])
            self.check_fixed(s, 0, corners[-1].tau2, [0.0, corners[-1].tau1])
        s = Scenario(10, 4.0, 1.5, 5.0)
        for axis, fixed, xs in ((1, 0.2, [0.3, 0.5]), (0, 0.5, [0.2, 0.5])):
            th, users = self.line(s, axis, fixed, np.array(xs))
            assert th.tolist() == [0.0, 0.0] and users.tolist() == [0.0, 0.0]

    def test_scalar_coordinate_broadcasts(self):
        tau2 = np.linspace(0.0, 0.9, 50)
        th, users = self.line(DEFAULTS, 1, 0.1, tau2)
        assert th.shape == users.shape == (50,)
        assert th.tolist() == [average_throughput(DEFAULTS, PowerProfile(0.1, t)) for t in tau2]


class TestBaseline:
    def test_success_examples(self):
        assert baseline_success(DEFAULTS, 0.1) == pytest.approx(
            0.1 * 0.9**9, rel=1e-12
        )
        assert baseline_success(Scenario(1, 4.0, 1.5, 1.5), 1.0) == 1.0
        assert baseline_success(DEFAULTS, 0.0) == 0.0

    def test_success_rejects_bad_p(self):
        with pytest.raises(ValueError):
            baseline_success(DEFAULTS, 1.5)
        with pytest.raises(ValueError):
            baseline_success(DEFAULTS, -0.1)

    def test_optimum_examples(self):
        p_star, th_star = baseline_optimum(DEFAULTS)
        assert p_star == 0.1
        assert th_star == pytest.approx(10 * math.log2(5.0) * 0.1 * 0.9**9, rel=1e-12)
        p_star, th_star = baseline_optimum(Scenario(1, 4.0, 1.5, 1.5))
        assert p_star == 1.0
        assert th_star == pytest.approx(math.log2(5.0), rel=1e-12)
        p_star, th_star = baseline_optimum(Scenario(2, 4.0, 1.5, 1.5))
        assert p_star == 0.5
        assert th_star == pytest.approx(2 * math.log2(5.0) * 0.25, rel=1e-12)


class TestCachesAndImports:
    def test_gamma_sweep_keeps_model_caches_bounded(self, capsys):
        model.region_bounds.cache_clear()
        model._terms.cache_clear()
        sweep = ["sweep", "--axis", "gamma", "--start", "0.1", "--stop", "2", "--step", "0.1"]
        assert main([*sweep, "--tau1", "0.1", "--tau2", "0.1"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 21
        for table in (model.region_bounds, model._terms):
            info = table.cache_info()
            assert info.misses == 20 and info.currsize <= 8, info

    @staticmethod
    def run_python(code):
        src = os.path.dirname(os.path.dirname(model.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        return subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            check=True,
        ).stdout

    def test_cli_import_loads_no_scipy(self):
        code = "import sys, noma_aloha.cli; print([m for m in sys.modules if m.startswith('scipy')])"
        assert self.run_python(code) == "[]\n"

    def test_commands_load_no_scipy(self, tmp_path):
        # the test extra installs scipy, so only a check like this one sees a
        # stray runtime import of it: every command runs in one process
        out, trace = tmp_path / "out.csv", tmp_path / "trace.csv"
        commands = [
            ["region"],
            ["analyze", "--tau1", "0.1", "--tau2", "0.1"],
            ["optimize", "--oracle", "--baseline"],
            ["simulate", "--tau1", "0.1", "--tau2", "0.1", "--slots", "1000",
             "--trace-file", str(trace)],
            ["sweep", "--axis", "m", "--start", "2", "--stop", "6", "--step", "2",
             "--tau1", "0.1", "--tau2", "0.1", "--simulate", "--slots", "1000", "--optimize"],
        ]
        code = (
            "import sys; from noma_aloha.cli import main\n"
            f"codes = [main([*argv, '--output', {str(out)!r}]) for argv in {commands!r}]\n"
            "print(codes, [m for m in sys.modules if m.startswith('scipy')])"
        )
        assert self.run_python(code) == f"{[0] * len(commands)} []\n"

    def test_cli_import_loads_no_numpy_random(self):
        # numpy.random takes about 13 ms to import: the simulate commands pay
        # it inside main(), and no command pays it at start-up, unless
        # importing numpy alone loads it (numpy < 2)
        code = (
            "import sys, numpy; before = 'numpy.random' in sys.modules; "
            "import noma_aloha.cli; print(before, 'numpy.random' in sys.modules)"
        )
        before, after = self.run_python(code).split()
        assert after == "False" or before == "True"
