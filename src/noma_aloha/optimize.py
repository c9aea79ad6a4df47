"""Throughput maximisation over the two transmit probabilities.

The objective ``average_throughput(s, (tau1, tau2))`` is a polynomial mixture
over the decodable count regions and can be multimodal, so the search is
derivative-free: alternating 1-D maximisations (coarse grid scan plus bracket
refinement) until the improvement drops below a tolerance.  An exhaustive
simplex grid search doubles as a validation oracle.  Each 1-D maximisation
and each row of the oracle is a line of the model's one evaluation kernel,
built once and evaluated on batches of sample points, reducing only the
throughput.  A scan's samples are indexed by k; a sample's float is formed
from k, and only for the samples a scan evaluates or bounds.

The coarse scans of the ascent are pruned.  Each term of the mixture is
log-concave along the scanned axis, so its largest value on a run of samples
sits at its stationary point clipped to the run, and the sum of those values,
raised by a slack for rounding, bounds the kernel's throughput on the run.
The run with the largest bound is evaluated first, then only the runs whose
bound is not below the best value found.  A skipped sample lies strictly
below that value and the kernel gives a point the same bits in any batch, so
the argmax, its ties and every output bit are those of the full scan.  The
bounds' constants are computed once per scenario and once per line.  The
refinement scans and the oracle stay exhaustive.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import _BLOCK_ELEMENTS, _LOG_ZERO, Scenario, _line, _log, _terms

# not called here any more: the benchmark's layer probe and traced runs patch
# ``optimize.average_throughput`` by name, so the name stays importable
from .model import average_throughput  # noqa: F401

__all__ = [
    "AscentConfig",
    "OptimizationResult",
    "coordinate_ascent",
    "grid_search_oracle",
]


@dataclass(frozen=True)
class AscentConfig:
    """Knobs for the alternating maximisation.

    epsilon: minimum throughput improvement for an update to be accepted.
    max_outer_iterations: cap on full tau2+tau1 update rounds.
    grid_step: coarse step of each inner 1-D scan.
    refine_rounds: bracket refinements around the incumbent, 10x finer each.
    initial_tau1: starting point of the reference sweep.
    dual_start: also run the sweep with the coordinate order mirrored
        (tau1 maximised first from tau2 = 0) and keep the better endpoint; a
        single fixed order can stall on the simplex boundary when its first
        1-D pass saturates the budget of the other coordinate.
    """

    epsilon: float = 1e-5
    max_outer_iterations: int = 100
    grid_step: float = 1e-3
    refine_rounds: int = 2
    initial_tau1: float = 0.0
    dual_start: bool = True

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")
        if not 0.0 < self.grid_step < 1.0:
            raise ValueError("grid_step must lie in (0, 1)")
        if self.max_outer_iterations < 1:
            raise ValueError("max_outer_iterations must be at least 1")
        if self.refine_rounds < 0:
            raise ValueError("refine_rounds must be nonnegative")
        # the finest width, divided as _maximize_1d does; stops at the first 0
        width = self.grid_step
        for _ in range(self.refine_rounds):
            width /= 10.0
            if width == 0.0:
                raise ValueError("refine_rounds takes the refinement width to 0")
        if not 0.0 <= self.initial_tau1 <= 1.0:
            raise ValueError("initial_tau1 must lie in [0, 1]")


@dataclass(frozen=True)
class OptimizationResult:
    """Optimised profile, attained throughput and convergence bookkeeping.

    ``trace`` records one (iteration, tau1, tau2, throughput) tuple per
    accepted update, starting from the initial state; its throughputs are
    nondecreasing.
    """

    tau1_star: float
    tau2_star: float
    th_star: float
    outer_iterations: int
    converged: bool
    trace: tuple[tuple[int, float, float, float], ...]


# Sample points are formed and evaluated at most this many at a time, so the
# scans and the oracle hold bounded memory at any step.
_SCAN_PIECE = 1 << 16


def _prefix(lo, step, keep, end):
    """Number of k >= 0 with keep(lo + k*step), which holds on a prefix of
    the k, as lo + k*step never decreases in k.  ``end`` estimates where
    keep first fails; the count is exact whatever the estimate."""
    k = max(0, int((end - lo) / step))
    while k and not keep(lo + (k - 1) * step):
        k -= 1
    while keep(lo + k * step):
        k += 1
    return k


def _grid(lo, hi, step):
    """The samples of a scan of [lo, hi]: lo + k*step while below hi, then
    hi itself (lo alone when hi <= lo).  Returns their count and
    ``points``, which maps an ascending array of sample indices to floats.

    numpy forms k*step and the sum in the same floats as the scalar loop
    ``x = lo + k * step``, so the count is that loop's, and a sample's
    float does not depend on the indices it is formed with.
    """
    n = _prefix(lo, step, lambda x: x < hi, hi)
    last = max(lo, hi)

    def points(k):
        x = lo + k * step
        if k[-1] == n:
            x[-1] = last
        return x

    return n + 1, points


def _pieces(total):
    """The sample indices 0..total-1 in pieces of at most _SCAN_PIECE."""
    for a in range(0, total, _SCAN_PIECE):
        yield np.arange(a, min(a + _SCAN_PIECE, total))


def _best(f, points, pieces, best=(-1, math.nan, -math.inf)):
    """(k, x, f(x)) of the first maximum of f over the samples of
    ``pieces``, ascending index arrays, from ``best`` on: a larger value
    wins, and an equal one only at a smaller index, as np.argmax's first
    index.  f maps an array of points to an array of values."""
    best_k, best_x, best_f = best
    for k in pieces:
        x = points(k)
        fx = f(x)
        i = int(fx.argmax())
        if fx[i] > best_f or (fx[i] == best_f and k[i] < best_k):
            best_k, best_x, best_f = k[i], x[i], fx[i]
    return best_k, best_x, best_f


def _scan(f, lo, hi, step):
    """Maximise f on [lo, hi] sampled at lo + k*step plus the hi endpoint.

    f maps an array of arguments to an array of values.  Ties keep the first
    (smallest) argument, as np.argmax does, so results are deterministic.
    """
    total, points = _grid(lo, hi, step)
    _, x, fx = _best(f, points, _pieces(total))
    return float(x), float(fx)


# Coarse-scan samples are bounded, and evaluated or skipped, in runs of this
# many consecutive points.
_INTERVAL = 32

# The bound's exponent is raised by _REL_SLACK times the size of the logs it
# sums, plus _ABS_SLACK: far above the rounding of the kernel's logs, sums and
# exps and of the bound's own, at any m.
_REL_SLACK = 2.0**-45
_ABS_SLACK = 2.0**-30


def _log0(t):
    """np.log of each entry, _LOG_ZERO at zero, as the kernel takes it."""
    return np.log(t, out=np.full(t.shape, _LOG_ZERO), where=t > 0.0)


def _table_bounds(s: Scenario):
    """The parts of the coarse-scan bounds that depend only on the
    scenario's table: its counts, log coefficients and rates, the counts
    scaled by 1 - _REL_SLACK, max(a + c, 1) for each axis and the additive
    slack ``_REL_SLACK (4|L| + 2m) + _ABS_SLACK`` (see _line_bounds)."""
    counts, log_coef, rate = _terms(s)[:3]
    spread = np.maximum(counts[:2] + counts[2], 1.0)
    slack = _REL_SLACK * (4.0 * np.abs(log_coef) + 2.0 * s.m) + _ABS_SLACK
    return counts, log_coef, rate, counts * (1.0 - _REL_SLACK), spread, slack


def _line_bounds(table, axis: int, fixed: float):
    """Upper bounds on the kernel's throughput on runs of a line:
    coordinate ``axis`` runs over [lo, hi] and the other is at ``fixed``.
    Returns ``bounds(lo, hi)``, one bound per entry of the arrays of run
    ends; ``table`` is ``_table_bounds(s)``.

    Along the axis, with a, b and c the term's axis, fixed and idle counts,
    a term's log mass ``g = L + b log(fixed) + a log(x) + c log(1 - fixed - x)``
    is concave in x and peaks at ``a (1 - fixed) / (a + c)``; clipped to the
    run's [lo, hi], that point gives the term's largest mass on the run.  As
    log is monotone, the clip is taken on the logs.  The kernel's idle
    probability exceeds 1 - fixed - x by at most 2**-52, so the bound puts
    ``budget`` = (1 - fixed) + 2**-50 in place of 1 - fixed.  The exponent
    is raised by ``_REL_SLACK (2|L| + m + |g|) + _ABS_SLACK``; as
    g <= L + m * 2**-50, ``g (1 - _REL_SLACK) + _REL_SLACK (4|L| + 2m) +
    _ABS_SLACK`` is at least that.  A zero probability counts as _LOG_ZERO,
    as in the kernel, so a term that vanishes there is exactly 0 here too.
    The peak and the head are computed once per line.
    """
    counts, log_coef, rate, scaled, spread, slack = table
    budget = (1.0 - fixed) + 2.0**-50
    peak = counts[axis] * budget / spread[axis]
    head = (log_coef + _log(fixed) * counts[1 - axis]) * (1.0 - _REL_SLACK)
    head += slack
    log_peak, idle_peak = _log0(np.concatenate((peak, budget - peak))).reshape(2, -1)
    a, c = scaled[axis], scaled[2]
    rows = max(1, _BLOCK_ELEMENTS // max(1, rate.size))

    def bounds(lo, hi):
        out = np.empty(lo.size)
        for r in range(0, lo.size, rows):
            lo_r, hi_r = lo[r : r + rows], hi[r : r + rows]
            # Where the kernel's idle probability is 0 at lo, it is 0 on the
            # whole run, and so is every term with idle users.
            idle_at_lo = (1.0 - lo_r) - fixed if axis == 0 else (1.0 - fixed) - lo_r
            ends = (lo_r, hi_r, budget - hi_r, (budget - lo_r) * (idle_at_lo > 0.0))
            # idle falls as x rises, so its log at hi is the low end of its clip
            log_lo, log_hi, idle_hi, idle_lo = _log0(np.concatenate(ends)).reshape(4, -1, 1)
            g = np.minimum(np.maximum(log_peak, log_lo), log_hi)
            g *= a
            g += head
            log_idle = np.minimum(np.maximum(idle_peak, idle_hi), idle_lo)
            log_idle *= c
            g += log_idle
            out[r : r + rows] = np.exp(g, out=g) @ rate
        return out

    return bounds


def _run_samples(runs, total):
    """The indices of the samples in the given ascending runs of _INTERVAL,
    the last run of the scan possibly shorter, in pieces of at most
    _SCAN_PIECE."""
    per = max(1, _SCAN_PIECE // _INTERVAL)
    for a in range(0, runs.size, per):
        k = (runs[a : a + per, None] * _INTERVAL + np.arange(_INTERVAL)).ravel()
        k = k[k < total]
        for b in range(0, k.size, _SCAN_PIECE):
            yield k[b : b + _SCAN_PIECE]


def _pruned_scan(f, bounds, hi, step):
    """``_scan(f, 0, hi, step)``, with f evaluated only on the
    runs of samples whose bound does not rule them out.

    ``bounds(lo, hi)`` bounds f from above on each run of _INTERVAL
    consecutive samples, given the arrays of the runs' first and last
    points.  The run with the largest bound is evaluated first; then, in one
    call of f per piece, every other run whose bound is not below the best
    value found so far.  A skipped point lies strictly below that value,
    and f's value at a point does not depend on the batch it is evaluated
    in, so the argmax, its first-index tie rule and every bit of the result
    are those of the full scan.  Only the points of the runs' ends and of
    the evaluated runs are formed, so memory stays bounded at any step.
    """
    total, points = _grid(0.0, hi, step)
    first = np.arange(0, total, _INTERVAL)
    b = bounds(points(first), points(np.minimum(first + (_INTERVAL - 1), total - 1)))
    j = int(np.argmax(b))
    best = _best(f, points, _run_samples(np.array([j]), total))
    keep = ~(b < best[2])
    keep[j] = False
    _, x, fx = _best(f, points, _run_samples(np.flatnonzero(keep), total), best)
    return float(x), float(fx)


def _maximize_1d(f, bounds, hi, cfg: AscentConfig):
    x, fx = _pruned_scan(f, bounds, hi, cfg.grid_step)
    width = cfg.grid_step
    for _ in range(cfg.refine_rounds):
        lo_r = max(0.0, x - width)
        hi_r = min(hi, x + width)
        width /= 10.0
        x2, f2 = _scan(f, lo_r, hi_r, width)
        if f2 > fx:
            x, fx = x2, f2
    return x, fx


def _maximize_over(s: Scenario, table, axis: int, fixed: float, cfg: AscentConfig):
    """Best value of coordinate ``axis`` (0: tau1, 1: tau2) in [0, 1 - fixed]
    with the other coordinate held at ``fixed``, and the attained throughput.
    The line's kernel and bounds are built once and serve every scan of the
    maximisation; ``table`` is ``_table_bounds(s)``."""
    if not 0.0 <= fixed <= 1.0:
        raise ValueError(f"{('tau2', 'tau1')[axis]} must lie in [0, 1]")
    bounds = _line_bounds(table, axis, fixed)
    return _maximize_1d(_line(s, axis, fixed), bounds, 1.0 - fixed, cfg)


def _alternating_sweep(s: Scenario, table, cfg: AscentConfig, low_first: bool) -> OptimizationResult:
    """One alternating maximisation run.

    ``low_first`` maximises tau2 first from tau1 = cfg.initial_tau1 (the
    reference order); otherwise tau1 is maximised first from tau2 = 0.  An
    update is accepted only when it improves the incumbent throughput by more
    than epsilon; the first rejected update stops the run (converged).
    """
    tau = [cfg.initial_tau1 if low_first else 0.0, 0.0]
    best = 0.0
    trace = [(0, *tau, best)]
    converged = False
    outer = 0
    axes = (1, 0) if low_first else (0, 1)
    while outer < cfg.max_outer_iterations and not converged:
        outer += 1
        for axis in axes:
            cand, th = _maximize_over(s, table, axis, tau[1 - axis], cfg)
            if th - best > cfg.epsilon:
                tau[axis] = cand
                best = th
                trace.append((outer, *tau, best))
            else:
                converged = True
                break
    return OptimizationResult(*tau, best, outer, converged, tuple(trace))


def coordinate_ascent(s: Scenario, cfg: AscentConfig | None = None) -> OptimizationResult:
    """Alternating 1-D throughput maximisation over (tau1, tau2).

    Runs the reference sweep (tau2 first, tau1 starting at
    ``cfg.initial_tau1``) and, when ``cfg.dual_start`` is set, the mirrored
    sweep as well, returning the endpoint with the higher throughput (the
    reference sweep wins ties).
    """
    cfg = cfg or AscentConfig()
    table = _table_bounds(s)
    result = _alternating_sweep(s, table, cfg, low_first=True)
    if cfg.dual_start:
        mirrored = _alternating_sweep(s, table, cfg, low_first=False)
        if mirrored.th_star > result.th_star:
            result = mirrored
    return result


def _check_oracle_step(step: float):
    """The grid oracle's validation of ``step``, on its own so that a caller
    can reject a bad step before any work starts."""
    if not 0.0 < step <= 0.1:
        raise ValueError("oracle step must lie in (0, 0.1]")


def grid_search_oracle(s: Scenario, step: float) -> OptimizationResult:
    """Exhaustive throughput maximisation on the (tau1, tau2) simplex grid.

    Evaluates every (i*step, j*step) with sum at most 1, in batches along
    each tau1 row, and returns the argmax; ties resolve to the lexicographically
    smallest point.
    """
    _check_oracle_step(step)
    best_th = -1.0
    best = (0.0, 0.0)
    i = 0
    while (tau1 := i * step) <= 1.0:
        row = _line(s, 1, tau1)
        total = _prefix(0.0, step, lambda x: tau1 + x <= 1.0, 1.0 - tau1)
        _, tau2, th = _best(row, lambda k: k * step, _pieces(total))
        if th > best_th:
            best_th, best = float(th), (tau1, float(tau2))
        i += 1
    tau1, tau2 = best
    return OptimizationResult(
        tau1, tau2, best_th, 0, True, ((0, tau1, tau2, best_th),)
    )
