"""Reference model of two-power NOMA slotted ALOHA, written apart from the
``noma_aloha`` package so that the benchmark can check the CLI's outputs.

The decoder walks the SIC chain signal by signal; probabilities come from
exact integer binomials.  Nothing here imports ``noma_aloha``.
"""

import math
from dataclasses import dataclass

import numpy as np


class InputError(ValueError):
    """A workload make-up the benchmark refuses to run."""


def decode(v1, v2, gamma, n1, n2):
    """SIC over one slot with n1 high and n2 low transmitters.

    Signals are decoded strongest first; the i-th high signal faces the
    n1 - i high signals not yet cancelled plus every low one, the j-th low
    signal only the n2 - j low ones left.  Decoding stops at the first SINR
    below gamma, and the low layer is tried only once every high signal is
    cancelled.  Returns (high_ok, low_ok, sum_rate, decoded_users).
    """
    rate = 0.0
    high = 0
    for i in range(1, n1 + 1):
        sinr = v1 / (v1 * (n1 - i) + v2 * n2 + 1.0)
        if sinr < gamma:
            break
        rate += math.log2(1.0 + sinr)
        high += 1
    high_ok = n1 >= 1 and high == n1
    low = 0
    if n2 >= 1 and (n1 == 0 or high_ok):
        for j in range(1, n2 + 1):
            sinr = v2 / (v2 * (n2 - j) + 1.0)
            if sinr < gamma:
                break
            rate += math.log2(1.0 + sinr)
            low += 1
    low_ok = n2 >= 1 and low == n2
    return high_ok, low_ok, rate, high + low


def check_clear_of_boundaries(m, v1, v2, gammas, tol=1e-9):
    """Refuse thresholds within ``tol`` of a first-signal SINR.

    At such a gamma the answer depends on float rounding of the SINR, so a
    disagreement between the program and this reference would say nothing.
    """
    n1, n2 = np.meshgrid(np.arange(1, m + 1), np.arange(m + 1), indexing="ij")
    keep = n1 + n2 <= m
    high = v1 / (v1 * (n1[keep] - 1) + v2 * n2[keep] + 1.0)
    low = v2 / (v2 * (np.arange(1, m + 1) - 1) + 1.0)
    sinrs = np.concatenate([high, low])
    for g in gammas:
        near = np.abs(sinrs - g) <= tol
        if near.any():
            raise InputError(
                f"gamma={g!r} lies within {tol} of the first-signal SINR "
                f"{sinrs[near][0]!r} (m={m}, v1={v1!r}, v2={v2!r})"
            )


@dataclass(frozen=True)
class Region:
    """Count pairs at which at least one signal decodes, with what they earn."""

    m: int
    n1: np.ndarray
    n2: np.ndarray
    rate: np.ndarray
    decoded: np.ndarray
    layers: np.ndarray
    log_coef: np.ndarray

    @property
    def layer_terms(self) -> int:
        """Summation terms: one per pair and layer that decodes there."""
        return int(self.layers.sum())


def region(m, v1, v2, gamma) -> Region:
    """Every (n1, n2) with n1 + n2 <= m at which some signal decodes.

    The first SINR of each layer falls as n1 or n2 grows, so once nothing
    decodes at (n1, n2) nothing decodes at (n1, n2 + 1) either, and once the
    high layer fails at (n1, 0) it fails for every larger n1.
    """
    rows = []
    for n1 in range(m + 1):
        if n1 >= 1 and not decode(v1, v2, gamma, n1, 0)[0]:
            break
        for n2 in range(m - n1 + 1):
            high_ok, low_ok, rate, users = decode(v1, v2, gamma, n1, n2)
            if users == 0:
                if n1 + n2 == 0:
                    continue
                break
            coef = math.comb(m, n1 + n2) * math.comb(n1 + n2, n1)
            rows.append((n1, n2, rate, users, high_ok + low_ok, math.log(coef)))
    cols = list(zip(*rows)) if rows else [()] * 6
    return Region(
        m,
        np.array(cols[0], dtype=np.int64),
        np.array(cols[1], dtype=np.int64),
        np.array(cols[2], dtype=float),
        np.array(cols[3], dtype=float),
        np.array(cols[4], dtype=np.int64),
        np.array(cols[5], dtype=float),
    )


def _n_log(n, t):
    # n * log(t) with 0 * log(0) = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(n == 0, 0.0, n * np.log(t))


def _pmf(reg: Region, tau1, tau2):
    """Trinomial masses of the region's pairs, one row per profile."""
    t1 = np.asarray(tau1, dtype=float).reshape(-1, 1)
    t2 = np.asarray(tau2, dtype=float).reshape(-1, 1)
    idle = np.maximum(0.0, 1.0 - t1 - t2)
    n0 = reg.m - reg.n1 - reg.n2
    return np.exp(
        reg.log_coef + _n_log(reg.n1, t1) + _n_log(reg.n2, t2) + _n_log(n0, idle)
    )


def throughput(reg: Region, tau1, tau2):
    """Mean decoded sum rate per slot, one value per profile."""
    return _pmf(reg, tau1, tau2) @ reg.rate


def success(reg: Region, tau1, tau2):
    """Probability that a given user transmits and is decoded.

    Users are exchangeable, so this is the mean number decoded over m.
    """
    return (_pmf(reg, tau1, tau2) @ reg.decoded) / reg.m


def rate_second_moment(reg: Region, tau1, tau2):
    """Mean squared decoded sum rate per slot, one value per profile."""
    return _pmf(reg, tau1, tau2) @ (reg.rate**2)


def simplex_grid_max(reg: Region, step: float) -> float:
    """Largest throughput over the grid (i*step, j*step), i + j <= 1/step."""
    k = int(round(1.0 / step))
    i, j = np.meshgrid(np.arange(k + 1), np.arange(k + 1), indexing="ij")
    keep = i + j <= k
    return float(np.max(throughput(reg, i[keep] * step, j[keep] * step)))
