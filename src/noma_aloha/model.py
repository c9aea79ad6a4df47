"""Closed-form performance model of two-power NOMA random access.

``m`` users contend in a slotted channel.  Each slot, every user independently
transmits so that its received SNR at the access point is ``v1`` (probability
``tau1``) or ``v2`` (probability ``tau2``), or stays idle.  The receiver runs
successive interference cancellation, strongest signals first; a signal is
decoded when its float SINR satisfies ``SINR >= gamma``, the test the slot
decoder applies too.  ``region_bounds`` reads that test as integer caps and
is the package's decodability query.  Noise power is normalised to one, so
``v1`` and ``v2`` are received SNRs.  Rates are Shannon spectral
efficiencies, log2(1 + SINR) bits per slot per unit bandwidth.

Everything here is a pure function of its arguments.  One summation table
per scenario is cached (the last eight scenarios), and one kernel evaluates
it on a line of the simplex: one coordinate varies over a batch of points
and the other is fixed.  The optimizer's scans are lines, and a single
profile is a line of one point.  The fixed
coordinate enters the kernel as one row computed once per line, and the
kernel reduces only the weight column its caller reads.  A scan takes a
line with closed-form upper bounds on runs of its points, whose per-scenario
constants the table holds too, one element budget, at most
max(1, 2**14 // T) points per kernel call and runs per bounds call, T the
table's size, and the point past which no term rises.  Boxes of the simplex
are bounded a budget a call.
"""

import bisect
import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Scenario",
    "PowerProfile",
    "CountPair",
    "RegionBounds",
    "sinr_high",
    "sinr_low",
    "region_bounds",
    "success_probability",
    "average_throughput",
    "baseline_success",
    "baseline_optimum",
]


@dataclass(frozen=True)
class Scenario:
    """Static network parameters.

    m: number of contending users.
    v1, v2: received SNR of the high / low power setting (v1 > v2 > 0).
    gamma: SINR decoding threshold, linear scale.
    """

    m: int
    v1: float
    v2: float
    gamma: float

    def __post_init__(self):
        if not isinstance(self.m, int) or self.m < 1:
            raise ValueError("m must be a positive integer")
        if not all(map(math.isfinite, (self.v1, self.v2, self.gamma))):
            raise ValueError("v1, v2 and gamma must be finite")
        if not self.v1 > self.v2 > 0.0:
            raise ValueError("power levels must satisfy v1 > v2 > 0")
        if not self.gamma > 0.0:
            raise ValueError("gamma must be positive")


@dataclass(frozen=True)
class PowerProfile:
    """Per-slot transmit policy: high power w.p. tau1, low power w.p. tau2."""

    tau1: float
    tau2: float

    def __post_init__(self):
        # negated comparisons, so NaN fails them too
        if not (self.tau1 >= 0.0 and self.tau2 >= 0.0):
            raise ValueError("tau1 and tau2 must be nonnegative")
        if not self.tau1 + self.tau2 <= 1.0:
            raise ValueError("tau1 + tau2 must not exceed 1")


@dataclass(frozen=True)
class CountPair:
    """Concurrent transmitter counts: n1 at high power, n2 at low power."""

    n1: int
    n2: int

    def __post_init__(self):
        if self.n1 < 0 or self.n2 < 0:
            raise ValueError("transmitter counts must be nonnegative")


@dataclass(frozen=True)
class RegionBounds:
    """Largest transmitter counts that keep each SIC layer decodable.

    ``high_max`` caps n1 when the high layer must decode, and
    ``low_max_given_high[n1 - 1]`` caps n2 for each n1 in 1..high_max.
    ``low_max`` caps n2 when the low layer must decode, and
    ``high_max_given_low[n2 - 1]`` caps n1 for each n2 in 1..low_max (the low
    layer needs the high layer cancelled first, so its n1 cap embeds the
    high-layer condition).
    """

    high_max: int
    low_max_given_high: tuple[int, ...]
    low_max: int
    high_max_given_low: tuple[int, ...]

    def in_high_region(self, n1: int, n2: int) -> bool:
        """True when all n1 >= 1 high-power signals decode at counts (n1, n2)."""
        return 1 <= n1 <= self.high_max and n2 <= self.low_max_given_high[n1 - 1]

    def in_low_region(self, n1: int, n2: int) -> bool:
        """True when all n2 >= 1 low-power signals decode at counts (n1, n2)."""
        return 1 <= n2 <= self.low_max and n1 <= self.high_max_given_low[n2 - 1]


def sinr_high(s: Scenario, i: int, pair: CountPair) -> float:
    """SINR of the i-th decoded high-power signal, the previous i-1 cancelled."""
    if not 1 <= i <= pair.n1:
        raise ValueError(f"decode index i={i} outside 1..{pair.n1}")
    return s.v1 / (s.v1 * (pair.n1 - i) + s.v2 * pair.n2 + 1.0)


def sinr_low(s: Scenario, j: int, pair: CountPair) -> float:
    """SINR of the j-th decoded low-power signal, all high power cancelled."""
    if not 1 <= j <= pair.n2:
        raise ValueError(f"decode index j={j} outside 1..{pair.n2}")
    return s.v2 / (s.v2 * (pair.n2 - j) + 1.0)


def _high_ok(s: Scenario, n1: int, n2: int) -> bool:
    """The high-layer half of the one decodability predicate: the first
    (weakest) of n1 >= 1 high-power signals clears gamma.  Later signals of
    a layer face less interference, so the layer decodes fully iff its first
    signal does."""
    return n1 >= 1 and sinr_high(s, 1, CountPair(n1, n2)) >= s.gamma


def _low_ok(s: Scenario, n1: int, n2: int) -> bool:
    """The low-layer half: the first of n2 >= 1 low-power signals clears
    gamma once the high layer is gone (n1 == 0 or decodable)."""
    return (
        n2 >= 1
        and sinr_low(s, 1, CountPair(n1, n2)) >= s.gamma
        and (n1 == 0 or _high_ok(s, n1, n2))
    )


def _count_up(ok, start: int, stop: int) -> int:
    """Largest k in start..stop with ok(start), ..., ok(k), or start - 1.
    ok must hold on a prefix of start..stop; the prefix's end is found by
    bisection, in O(log(stop - start + 2)) calls of ok."""
    return start - 1 + bisect.bisect_left(range(start, stop + 1), True, key=lambda k: not ok(k))


@lru_cache(maxsize=8)
def region_bounds(s: Scenario) -> RegionBounds:
    """Decodability bounds, used as summation limits.

    Each cap is the end of the prefix of counts on which the decodability
    predicate holds.  One more transmitter of either power never raises a
    first-signal SINR (float rounding is monotone), so the predicate holds
    on a prefix of each count range, every larger count fails too, and
    ``in_high_region`` / ``in_low_region`` equal the predicate on every
    pair.  A gamma equal to an SINR value decodes.
    """
    m = s.m
    high_max = _count_up(lambda n1: _high_ok(s, n1, 0), 1, m)
    low_given_high = tuple(
        _count_up(lambda n2: _high_ok(s, n1, n2), 0, m - n1)
        for n1 in range(1, high_max + 1)
    )
    low_max = _count_up(lambda n2: _low_ok(s, 0, n2), 1, m)
    high_given_low = tuple(
        _count_up(lambda n1: _low_ok(s, n1, n2), 0, m - n2)
        for n2 in range(1, low_max + 1)
    )
    return RegionBounds(high_max, low_given_high, low_max, high_given_low)


# A line's element budget: each kernel call evaluates at most
# max(1, _BLOCK_ELEMENTS // T) points and each bounds call bounds at most as
# many runs, T the table's size, so no call holds more than a few arrays of
# about this many profile x term elements.
_BLOCK_ELEMENTS = 1 << 14

# Stands in for log(0).  n * _LOG_ZERO is (minus) zero at n = 0, so 0 * log(0)
# counts as 0, and at n >= 1 it lies far below the log coefficients (at most
# m log 3) without overflowing, so its exp is exactly 0, as exp(-inf) is.
_LOG_ZERO = -1e200

# The scan bound's exponent is raised by _REL_SLACK times the size of the logs
# it sums, plus _ABS_SLACK: far above the rounding of the kernel's logs, sums
# and exps and of the bound's own, at any m.
_REL_SLACK = 2.0**-45
_ABS_SLACK = 2.0**-30


_Table = namedtuple("_Table", "counts log_coef rate users scaled spread slack")


@lru_cache(maxsize=8)
def _terms(s: Scenario) -> _Table:
    """The per-scenario summation table over the m users.

    One column per (decodable count pair, layer): the high region in (n1, n2)
    scan order, then the low region in (n2, n1) scan order.  Holds the
    (3, T) counts n1, n2 and m - n1 - n2 as floats, the log trinomial
    coefficients log(m! / (n1! n2! (m - n1 - n2)!)), the conditional layer
    rates and the users each layer decodes (n1 on high columns, n2 on low
    columns); then the scan bounds' constants: the counts scaled by
    1 - _REL_SLACK, max(a + c, 1) for each axis (a the axis count, c the
    idle count) and the additive slack ``_REL_SLACK (4|L| + 2m) +
    _ABS_SLACK`` (see _line_bounds).

    A layer's rate adds one log2(1 + SINR) term per decoded signal, left to
    right from 0.0 (builtin sum() compensates from Python 3.12 on, which
    would move the last bits with the interpreter).  The high layer at
    (n1, n2) earns one term per user with i - 1 residual high interferers,
    i = 1..n1, plus all n2 low signals, so its rate is the rate at
    (n1 - 1, n2) plus one term: a running sum per n2 column.
    ``low_max_given_high`` never rises with n1, so each row's columns were
    summed by every row before it.  The low rate does not depend on n1, so
    one prefix over n2 serves every row.
    """
    b = region_bounds(s)
    pairs, rate = [], []
    running = [0.0] * (b.low_max_given_high[0] + 1 if b.high_max else 0)
    for n1 in range(1, b.high_max + 1):
        for n2 in range(b.low_max_given_high[n1 - 1] + 1):
            running[n2] += math.log2(1.0 + s.v1 / ((n1 - 1) * s.v1 + n2 * s.v2 + 1.0))
            pairs.append((n1, n2))
            rate.append(running[n2])
    high_terms = len(pairs)
    low = 0.0
    for n2 in range(1, b.low_max + 1):
        low += math.log2(1.0 + s.v2 / ((n2 - 1) * s.v2 + 1.0))
        width = b.high_max_given_low[n2 - 1] + 1
        pairs += [(n1, n2) for n1 in range(width)]
        rate += [low] * width
    n1, n2 = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    idle = s.m - n1 - n2
    # lgamma only at the counts the table holds, so the build does not grow with m
    ks, at = np.unique(np.concatenate((n1, n2, idle)), return_inverse=True)
    lg = np.array([math.lgamma(k + 1) for k in ks.tolist()])
    lg_n1, lg_n2, lg_idle = lg[at].reshape(3, -1)
    log_coef = ((math.lgamma(s.m + 1) - lg_n1) - lg_n2) - lg_idle
    counts = np.array([n1, n2, idle], dtype=float)
    users = np.concatenate((n1[:high_terms], n2[high_terms:])).astype(float)
    spread = np.maximum(counts[:2] + counts[2], 1.0)
    slack = _REL_SLACK * (4.0 * np.abs(log_coef) + 2.0 * s.m) + _ABS_SLACK
    return _Table(
        counts, log_coef, np.array(rate), users, counts * (1.0 - _REL_SLACK), spread, slack
    )


def _log(x) -> float:
    """math.log of one probability, _LOG_ZERO at zero (or below)."""
    return math.log(x) if x > 0.0 else _LOG_ZERO


# weight columns of _terms(s): the conditional layer rates, the decoded users
_RATE, _USERS = 2, 3


def _line(s: Scenario, axis: int, fixed: float, column: int = _RATE):
    """The one evaluation kernel, from which every throughput and success
    probability of the package comes: the profiles on a line of the simplex.

    Coordinate ``axis`` (0: tau1, 1: tau2) varies and the other is held at
    ``fixed``.  Returns ``sums(xs)``, which maps a 1-D array of values of
    the varying coordinate to the (K,) sums of ``w * pmf`` over the table,
    ``w`` the ``column`` of ``_terms(s)``.  A call holds a few (K, T)
    arrays, so a caller with many points evaluates them in calls of at most
    the line's element budget (see _scan_line).

    A profile's log mass is ``((log_coef + a) + b) + c`` with a, b, c the
    count-weighted logs of tau1, tau2 and the idle probability
    ``(1 - tau1) - tau2``, each log taken by ``math.log``, and each row is
    reduced by ``np.add.reduce`` (pairwise, as ``np.sum``), so a profile's
    bits do not depend on the line or the batch it is evaluated in.  The
    fixed coordinate's log enters as one row built here, once per line:
    folded into the head along tau2, and added after the varying term along
    tau1, the same floats in the same order.  Each call takes the logs of
    its points and of their idle values in one pass.
    """
    table = _terms(s)
    counts, weight = table.counts, table[column]
    n_x, n_idle = counts[axis], counts[2]
    row = _log(fixed) * counts[1 - axis]
    head = table.log_coef if axis == 0 else table.log_coef + row

    def sums(xs):
        k = xs.size
        # can round one ulp below zero on the simplex edge; logged as 0
        idle = (1.0 - xs) - fixed if axis == 0 else (1.0 - fixed) - xs
        logs = np.array(
            [math.log(v) if v > 0.0 else _LOG_ZERO for v in np.concatenate((xs, idle)).tolist()]
        )
        log_p = np.multiply(logs[:k, None], n_x)
        log_p += head
        if axis == 0:
            log_p += row
        log_p += np.multiply(logs[k:, None], n_idle)
        pmf = np.exp(log_p, out=log_p)
        pmf *= weight
        return np.add.reduce(pmf, axis=1)

    return sums


def _log0(t):
    """np.log of each entry, _LOG_ZERO at zero, as the kernel takes it."""
    return np.log(t, out=np.full(t.shape, _LOG_ZERO), where=t > 0.0)


def _peak(table: _Table, axis: int, fixed):
    """``(room, peak)`` of a line with the other coordinate at ``fixed``:
    (1 - fixed) + 2**-50, and each term's stationary point along the axis
    with room in place of 1 - fixed (see _line_bounds)."""
    room = (1.0 - fixed) + 2.0**-50
    return room, table.counts[axis] * room / table.spread[axis]


def _clipped(table: _Table, axis: int, head, lo, hi, room, peak, open_):
    """_line_bounds' exponents on [lo, hi]: scalars, or columns of one per box."""
    log_peak, idle_peak = _log0(np.concatenate((peak, room - peak))).reshape(2, *peak.shape)
    ends = (lo, hi, room - hi, (room - lo) * open_)
    log_lo, log_hi, idle_hi, idle_lo = _log0(np.concatenate(ends)).reshape(4, -1, 1)
    g = np.minimum(np.maximum(log_peak, log_lo), log_hi)
    g *= table.scaled[axis]
    g += head
    # idle falls as x rises, so its log at hi is the low end of its clip
    log_idle = np.minimum(np.maximum(idle_peak, idle_hi), idle_lo)
    log_idle *= table.scaled[2]
    g += log_idle
    return g


def _line_bounds(s: Scenario, axis: int, fixed: float):
    """Upper bounds on the kernel's throughput on runs of a line:
    coordinate ``axis`` runs over [lo, hi] and the other is at ``fixed``.
    Returns ``bounds(lo, hi)``, one bound per entry of the arrays of run
    ends; a call holds a few (runs, T) arrays.

    Along the axis, with a, b and c the term's axis, fixed and idle counts,
    a term's log mass ``g = L + b log(fixed) + a log(x) + c log(1 - fixed - x)``
    is concave in x and peaks at ``a (1 - fixed) / (a + c)``; clipped to the
    run's [lo, hi], that point gives the term's largest mass on the run.  As
    log is monotone, the clip is taken on the logs.  The kernel's idle
    probability exceeds 1 - fixed - x by at most 2**-52, so the bound puts
    ``room`` = (1 - fixed) + 2**-50 in place of 1 - fixed.  The exponent
    is raised by ``_REL_SLACK (2|L| + m + |g|) + _ABS_SLACK``; as
    g <= L + m * 2**-50, ``g (1 - _REL_SLACK) + _REL_SLACK (4|L| + 2m) +
    _ABS_SLACK`` is at least that.  A zero probability counts as _LOG_ZERO,
    as in the kernel, so a term that vanishes there is exactly 0 here too.
    The scaled counts, spreads and slacks come with the table; the head is
    computed once per line.
    """
    table = _terms(s)
    room, peak = _peak(table, axis, fixed)
    head = (table.log_coef + _log(fixed) * table.counts[1 - axis]) * (1.0 - _REL_SLACK)
    head += table.slack

    def bounds(lo, hi):
        # Where the kernel's idle probability is 0 at lo, it is 0 on the
        # whole run, and so is every term with idle users.
        idle_at_lo = (1.0 - lo) - fixed if axis == 0 else (1.0 - fixed) - lo
        g = _clipped(table, axis, head, lo, hi, room, peak, idle_at_lo > 0.0)
        # the slack passes exp's range from m ~ 1e16 on: an inf bound still holds
        with np.errstate(over="ignore"):
            return np.exp(g, out=g) @ table.rate

    return bounds


def _box_bounds(s: Scenario, x0, x1, y0, y1):
    """Bounds on the kernel's throughput on boxes [x0, x1] x [y0, y1] of
    (tau1, tau2) in the simplex, and its value at their centres, rounded
    otherwise (-inf off it).  First order: a term is at most y1**b times its
    clipped peak along tau1 at tau2 = y0.  Tangent: a term's log mass lies
    below its plane at the centre (idle u), raised by 2 _REL_SLACK times its
    parts' size and c 2**-48 / u; a sum of exponentials of planes peaks at a
    corner (used below 512, centre in the simplex).  No BLAS: order is fixed."""
    table = _terms(s)
    log_coef, (a, b, c), rate = table.log_coef, table.counts, table.rate
    x0, x1, y0, y1 = (v[:, None] for v in (x0, x1, y0, y1))
    head = (log_coef + _log0(y1) * b) * (1.0 - _REL_SLACK) + table.slack
    g = _clipped(table, 0, head, x0, x1, *_peak(table, 0, y0), (1.0 - x0) - y0 > 0.0)
    first = np.add.reduce(np.exp(g, out=g) * rate, axis=1)
    xc, yc = (x0 + x1) / 2.0, (y0 + y1) / 2.0
    inside = (xc > 0.0) & (yc > 0.0) & ((1.0 - xc) - yc > 2.0**-500) & (xc + yc <= 1.0)
    xc, yc, u = (np.where(inside, v, 1.0 / 3.0) for v in (xc, yc, (1.0 - xc) - yc))
    hx, hy = np.maximum(x1 - xc, xc - x0), np.maximum(y1 - yc, yc - y0)
    lx, ly, lu = np.log(xc), np.log(yc), np.log(u)
    log_mass = log_coef + a * lx + b * ly + c * lu
    # L >= 0 and every log <= 0, so |L| + a |lx| + b |ly| + c |lu| = 2 L - log_mass
    size = 2.0 * log_coef - log_mass + a * (hx / xc) + b * (hy / yc) + c * ((hx + hy + 1 / 16) / u)
    e = (log_mass + 2.0 * _REL_SLACK * size) * (1.0 - _REL_SLACK) + table.slack
    sx, sy = a * (hx / xc) - c * (hx / u), b * (hy / yc) - c * (hy / u)
    over = (e + np.abs(sx) + np.abs(sy)).max(axis=1, initial=-np.inf) > 512.0
    e[over] = sx[over] = sy[over] = 0.0
    corners = [np.exp(e + i * sx + j * sy) * rate for i in (1, -1) for j in (1, -1)]
    plane = np.where(over | ~inside[:, 0], np.inf, np.add.reduce(corners, axis=2).max(axis=0))
    score = np.where(inside[:, 0], np.add.reduce(np.exp(log_mass) * rate, axis=1), -np.inf)
    return np.minimum(first, plane), score


def _scan_line(s: Scenario, axis: int, fixed: float):
    """The throughput on a line, as a scan takes it: ``(sums, bounds,
    budget, cap)``, the line's kernel, the bounds on its runs, its element
    budget, the most points a kernel call evaluates and the most runs a
    bounds call bounds, max(1, _BLOCK_ELEMENTS // T), and the largest
    per-term peak along the axis (0 for an empty table): no term rises past
    it, so the line's maximum lies in [0, cap]."""
    table = _terms(s)
    budget = max(1, _BLOCK_ELEMENTS // max(1, table.log_coef.size))
    cap = float(_peak(table, axis, fixed)[1].max(initial=0.0))
    return _line(s, axis, fixed), _line_bounds(s, axis, fixed), budget, cap


def _at(s: Scenario, prof: PowerProfile, column: int) -> float:
    """The kernel at one profile: a line along tau2 through it."""
    return float(_line(s, 1, prof.tau1, column)(np.array([prof.tau2]))[0])


def success_probability(s: Scenario, prof: PowerProfile) -> float:
    """Probability that a given user transmits and its signal is decoded.

    Users are exchangeable, so this is the expected number of decoded users
    per slot divided by m, summed over the same table as the throughput.
    """
    return _at(s, prof, _USERS) / s.m


def average_throughput(s: Scenario, prof: PowerProfile) -> float:
    """Long-term average system throughput in bits per slot per unit bandwidth.

    Sums conditional layer rates weighted by the count pmf over the decodable
    regions.  The high layer earns its rate whenever it decodes, even if the
    low layer then fails; the low layer's region already requires the high
    layer decoded.
    """
    return _at(s, prof, _RATE)


def baseline_success(s: Scenario, p: float) -> float:
    """Per-user success probability of single-power slotted ALOHA (no SIC): a
    user succeeds when it transmits alone and its SINR v1 clears gamma."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if not _high_ok(s, 1, 0):
        return 0.0
    return p * (1.0 - p) ** (s.m - 1)


def _baseline_throughput(s: Scenario, p: float) -> float:
    """System throughput of single-power slotted ALOHA at transmit probability
    p: each of the m users earns rate log2(1 + v1) when it transmits alone, so
    it compares with ``average_throughput``."""
    return s.m * math.log2(1.0 + s.v1) * baseline_success(s, p)


def baseline_optimum(s: Scenario) -> tuple[float, float]:
    """Optimal transmit probability 1/m of the single-power baseline and the
    system throughput it attains."""
    p_star = 1.0 / s.m
    return p_star, _baseline_throughput(s, p_star)
