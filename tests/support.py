"""Shared test oracles: direct enumerations kept independent of the library's
closed-form summation paths.  Their masses come from exact integer
binomials, and each pair's decodability flags and decoded sum rate come from
the slot decoder ``simulate.sic_decode``, which walks the whole SIC chain,
not from the model's region.  Also the random and SINR-boundary scenarios
they are checked on."""

import math
from collections import Counter
from math import comb

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from noma_aloha import model
from noma_aloha.model import (
    CountPair,
    PowerProfile,
    Scenario,
    average_throughput,
    sinr_high,
    sinr_low,
)
from noma_aloha.simulate import sic_decode


def all_pairs(m):
    """Every (n1, n2) with n1 + n2 <= m."""
    return [(n1, n2) for n1 in range(m + 1) for n2 in range(m + 1 - n1)]


def trace_tally(path):
    """Slots per (n1, n2) count pair in a simulator trace file, read from
    its n1 and n2 columns."""
    counts = np.loadtxt(path, np.int64, delimiter=",", skiprows=1, usecols=(1, 2), ndmin=2)
    return Counter(zip(*counts.T.tolist()))


def trinomial_pmf(m, n1, n2, tau1, tau2):
    """Direct trinomial mass via exact integer binomials."""
    if n1 + n2 > m:
        return 0.0
    idle = max(0.0, 1.0 - tau1 - tau2)
    return (
        comb(m, n1 + n2)
        * comb(n1 + n2, n1)
        * tau1**n1
        * tau2**n2
        * idle ** (m - n1 - n2)
    )


def all_decodable(s):
    """``s`` with gamma = v2 / (2 (v2 (m - 1) + 1)), half the smallest
    first-signal SINR of any pair, so every pair decodes both of its layers
    (``high_max == low_max == m``)."""
    gamma = s.v2 / (2.0 * (s.v2 * (s.m - 1) + 1.0))
    return Scenario(m=s.m, v1=s.v1, v2=s.v2, gamma=gamma)


def brute_force_success(s, prof):
    """Success probability by explicit enumeration over the slot decoder."""
    total_high = 0.0
    total_low = 0.0
    for n1, n2 in all_pairs(s.m):
        out = sic_decode(s, n1, n2)
        if out.high_decoded:
            total_high += trinomial_pmf(s.m - 1, n1 - 1, n2, prof.tau1, prof.tau2)
        if out.low_decoded:
            total_low += trinomial_pmf(s.m - 1, n1, n2 - 1, prof.tau1, prof.tau2)
    return prof.tau1 * total_high + prof.tau2 * total_low


def brute_force_throughput(s, prof):
    """Average throughput by explicit enumeration over the slot decoder: each
    pair's mass times the sum rate of the signals it decodes."""
    return sum(
        trinomial_pmf(s.m, n1, n2, prof.tau1, prof.tau2) * sic_decode(s, n1, n2).sum_rate
        for n1, n2 in all_pairs(s.m)
    )


def table_rates(s):
    """The model's conditional layer rates, keyed by (n1, n2, layer) with
    layer "high" or "low", read from the rate column of its summation table
    (the high region's columns come first)."""
    table = model._terms(s)
    counts, rate = table.counts, table.rate
    b = model.region_bounds(s)
    high = sum(cap + 1 for cap in b.low_max_given_high)
    layers = ["high"] * high + ["low"] * (rate.size - high)
    return {
        (int(n1), int(n2), layer): r
        for n1, n2, layer, r in zip(counts[0], counts[1], layers, rate.tolist())
    }


def reference_evaluate(s, prof):
    """Throughput and success probability of one profile by the scalar
    formula the batched kernel replaced: the profile's trinomial log masses
    over the cached table, with 0 * log(0) = 0, and one np.sum per total."""
    counts, log_coef, rate, decoded_users = model._terms(s)[:4]
    log_p = log_coef
    idle = max(0.0, (1.0 - prof.tau1) - prof.tau2)
    for n, t in zip(counts, (prof.tau1, prof.tau2, idle)):
        log_p = log_p + (n * math.log(t) if t != 0.0 else np.where(n == 0, 0.0, -np.inf))
    pmf = np.exp(log_p)
    return float(np.sum(rate * pmf)), float(np.sum(decoded_users * pmf) / s.m)


def reference_scan(f, lo, hi, step):
    """The scalar 1-D scan the batched one replaced: f at lo + k*step while
    below hi, then at hi; only a strictly larger value moves the argmax."""
    best_x, best_f = lo, f(lo)
    k = 1
    while (x := lo + k * step) < hi:
        fx = f(x)
        if fx > best_f:
            best_x, best_f = x, fx
        k += 1
    if hi > lo:
        fx = f(hi)
        if fx > best_f:
            best_x, best_f = hi, fx
    return best_x, best_f


def reference_oracle(s, step):
    """The nested-loop simplex grid search, which the certificate's bound must
    cover: (tau1, tau2, throughput) of the lexicographically first maximum."""
    best_th = -1.0
    best = (0.0, 0.0)
    i = 0
    while (tau1 := i * step) <= 1.0:
        j = 0
        while tau1 + (tau2 := j * step) <= 1.0:
            th = average_throughput(s, PowerProfile(tau1, tau2))
            if th > best_th:
                best_th, best = th, (tau1, tau2)
            j += 1
        i += 1
    return (*best, best_th)


def near_threshold(s, tol=1e-9):
    """True when some first-signal SINR sits within tol of the threshold;
    floor arithmetic may then disagree with the direct inequality."""
    for n1, n2 in all_pairs(s.m):
        pair = CountPair(n1, n2)
        if n1 >= 1 and abs(sinr_high(s, 1, pair) - s.gamma) < tol:
            return True
        if n2 >= 1 and abs(sinr_low(s, 1, pair) - s.gamma) < tol:
            return True
    return False


@st.composite
def boundary_scenarios(draw):
    """Scenarios whose gamma equals the first-signal SINR of some pair, so
    the float comparison in the decoder sits exactly on its boundary."""
    m = draw(st.integers(1, 25))
    v1 = draw(st.floats(0.5, 20.0))
    v2 = v1 * draw(st.floats(0.01, 0.99))
    assume(v1 > v2 > 0.0)
    n1 = draw(st.integers(0, m))
    n2 = draw(st.integers(0, m - n1))
    assume(n1 + n2 >= 1)
    base = Scenario(m=m, v1=v1, v2=v2, gamma=1.0)
    pair = CountPair(n1, n2)
    if n1 >= 1 and (n2 == 0 or draw(st.booleans())):
        gamma = sinr_high(base, 1, pair)
    else:
        gamma = sinr_low(base, 1, pair)
    return Scenario(m=m, v1=v1, v2=v2, gamma=gamma)


def random_scenario(rng, m_max=20, v1_lo=1.0, v1_hi=20.0, gamma_lo=0.1, gamma_hi=5.0):
    """Random non-degenerate scenario (threshold-boundary cases rejected)."""
    while True:
        m = int(rng.integers(1, m_max + 1))
        v1 = float(rng.uniform(v1_lo, v1_hi))
        v2 = float(rng.uniform(0.2, v1))
        gamma = float(rng.uniform(gamma_lo, gamma_hi))
        if not v1 > v2 > 0.0:
            continue
        s = Scenario(m=m, v1=v1, v2=v2, gamma=gamma)
        if not near_threshold(s):
            return s


@st.composite
def edge_profiles(draw):
    """Profiles inside the simplex and on its edges: tau1 or tau2 equal to 0
    or 1, and tau2 = 1 - tau1 (idle 0)."""
    tau1 = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    tau2 = draw(
        st.one_of(st.sampled_from([0.0, 1.0 - tau1]), st.floats(0.0, 1.0).map(lambda u: u * (1.0 - tau1)))
    )
    return PowerProfile(tau1, tau2)


def random_profile(rng):
    tau1 = float(rng.uniform(0.0, 1.0))
    tau2 = float(rng.uniform(0.0, 1.0 - tau1))
    return PowerProfile(tau1, tau2)


def poisson_limit_throughput(s, lam1, lam2):
    """The throughput in the limit of many users at the fixed loads
    ``(lam1, lam2) = m (tau1, tau2)``: the counts tend to independent
    Poisson laws (Le Cam), so each pair's mass is a product of Poisson
    masses, taken from ``math.lgamma``, and its sum rate comes from the slot
    decoder.  Counts past lam + 20 sqrt(lam) + 40 carry no mass in floats."""

    def pmf(lam, n):
        return math.exp(n * math.log(lam) - lam - math.lgamma(n + 1)) if lam > 0.0 else float(n == 0)

    def top(lam):
        return int(lam + 20.0 * math.sqrt(lam) + 40.0)

    return sum(
        pmf(lam1, n1) * pmf(lam2, n2) * sic_decode(s, n1, n2).sum_rate
        for n1 in range(top(lam1) + 1)
        for n2 in range(top(lam2) + 1)
    )
