"""Shared test oracles: direct enumerations kept independent of the library's
closed-form summation paths (exact combinatorics, feasibility by inequality),
and the random and SINR-boundary scenarios they are checked on."""

import math
from math import comb

from hypothesis import assume
from hypothesis import strategies as st

from noma_aloha.model import (
    CountPair,
    PowerProfile,
    Scenario,
    decode_feasibility,
    sinr_high,
    sinr_low,
)


def all_pairs(m):
    """Every (n1, n2) with n1 + n2 <= m."""
    return [(n1, n2) for n1 in range(m + 1) for n2 in range(m + 1 - n1)]


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


def brute_force_success(s, prof):
    """Success probability by explicit enumeration over decode_feasibility."""
    total_high = 0.0
    total_low = 0.0
    for n1, n2 in all_pairs(s.m):
        flags = decode_feasibility(s, CountPair(n1, n2))
        if flags.high_ok:
            total_high += trinomial_pmf(s.m - 1, n1 - 1, n2, prof.tau1, prof.tau2)
        if flags.low_ok:
            total_low += trinomial_pmf(s.m - 1, n1, n2 - 1, prof.tau1, prof.tau2)
    return prof.tau1 * total_high + prof.tau2 * total_low


def brute_force_throughput(s, prof):
    """Average throughput by explicit enumeration over decode_feasibility,
    with per-user rates rebuilt from the SINR chain."""
    total = 0.0
    for n1, n2 in all_pairs(s.m):
        flags = decode_feasibility(s, CountPair(n1, n2))
        if not (flags.high_ok or flags.low_ok):
            continue
        p = trinomial_pmf(s.m, n1, n2, prof.tau1, prof.tau2)
        pair = CountPair(n1, n2)
        if flags.high_ok:
            total += p * sum(
                math.log2(1.0 + sinr_high(s, i, pair)) for i in range(1, n1 + 1)
            )
        if flags.low_ok:
            total += p * sum(
                math.log2(1.0 + sinr_low(s, j, pair)) for j in range(1, n2 + 1)
            )
    return total


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


def random_profile(rng):
    tau1 = float(rng.uniform(0.0, 1.0))
    tau2 = float(rng.uniform(0.0, 1.0 - tau1))
    return PowerProfile(tau1, tau2)
