"""Throughput maximisation over the two transmit probabilities.

The objective ``average_throughput(s, (tau1, tau2))`` is a polynomial mixture
over the decodable count regions and can be multimodal, so the search is
derivative-free: alternating 1-D maximisations (coarse grid scan plus bracket
refinement) until the improvement drops below a tolerance.  An exhaustive
simplex grid search doubles as a validation oracle.  Both evaluate their
sample points in batches through the model's one evaluation kernel, reducing
only the throughput.

The coarse scans of the ascent are pruned.  Each term of the mixture is
log-concave along the scanned axis, so its largest value on a run of samples
sits at its stationary point clipped to the run, and the sum of those values,
raised by a slack for rounding, bounds the kernel's throughput on the run.
The run with the largest bound is evaluated first, then only the runs whose
bound is not below the best value found.  A skipped sample lies strictly
below that value and the kernel gives a point the same bits in any batch, so
the argmax, its ties and every output bit are those of the full scan.  The
refinement scans and the oracle stay exhaustive.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import _BLOCK_ELEMENTS, _LOG_ZERO, Scenario, _log, _terms, _throughput

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


# Sample points are built and evaluated at most this many at a time, so the
# scans and the oracle hold bounded memory at any step.
_SCAN_PIECE = 1 << 16


def _samples(lo, end, step, keep, tail=()):
    """Arrays of lo + k*step for k = 0, 1, ... while keep(x) holds, then
    ``tail``, in pieces of at most _SCAN_PIECE points.

    numpy forms k*step and the sum in the same floats as the scalar loop
    ``x = lo + k * step``; ``end`` estimates where keep first fails and only
    sizes the pieces.
    """
    size = int(min(_SCAN_PIECE, (end - lo) / step + 3))
    k = 0
    while True:
        xs = lo + np.arange(k, k + size) * step
        n = int(np.count_nonzero(keep(xs)))  # a prefix: xs never decreases
        if n < xs.size:
            xs = np.concatenate((xs[:n], tail))
            if xs.size:
                yield xs
            return
        yield xs
        k += xs.size


def _scan(f, lo, hi, step):
    """Maximise f on [lo, hi] sampled at lo + k*step plus the hi endpoint.

    f maps an array of arguments to an array of values.  Ties keep the first
    (smallest) argument, as np.argmax does, so results are deterministic.
    """
    pieces = [np.array([lo])]
    if hi > lo:
        pieces = _samples(lo, hi, step, lambda x: x < hi, tail=[hi])
    best_x, best_f = lo, -math.inf
    for xs in pieces:
        fx = f(xs)
        i = int(np.argmax(fx))
        if fx[i] > best_f:
            best_x, best_f = float(xs[i]), float(fx[i])
    return best_x, best_f


# Coarse-scan samples are bounded, and evaluated or skipped, in runs of this
# many consecutive points of a piece.
_INTERVAL = 32

# The bound's exponent is raised by _REL_SLACK times the size of the logs it
# sums, plus _ABS_SLACK: far above the rounding of the kernel's logs, sums and
# exps and of the bound's own, at any m.
_REL_SLACK = 2.0**-45
_ABS_SLACK = 2.0**-30


def _log0(t):
    """np.log of each entry, _LOG_ZERO at zero, as the kernel takes it."""
    return np.log(t, out=np.full(t.shape, _LOG_ZERO), where=t > 0.0)


def _interval_bounds(s: Scenario, axis: int, fixed: float, xs):
    """Upper bounds on the kernel's throughput, coordinate ``axis`` at each
    point of the nondecreasing ``xs`` and the other at ``fixed``: one per run
    of _INTERVAL consecutive points, the last run possibly shorter.

    Along the axis, with a, b and c the term's axis, fixed and idle counts,
    a term's log mass ``g = L + b log(fixed) + a log(x) + c log(1 - fixed - x)``
    is concave in x and peaks at ``a (1 - fixed) / (a + c)``; clipped to the
    run's [lo, hi], that point gives the term's largest mass on the run.  As
    log is monotone, the clip is taken on the logs.  The kernel's idle
    probability exceeds 1 - fixed - x by at most 2**-52, so the bound puts
    ``budget`` = (1 - fixed) + 2**-50 in place of 1 - fixed.  The exponent
    is raised by ``_REL_SLACK (2|L| + m + |g|) + _ABS_SLACK``; as
    g <= L + m * 2**-50, ``g (1 - _REL_SLACK) + _REL_SLACK (4|L| + 2m) +
    _ABS_SLACK`` is at least that.  A zero probability counts as _LOG_ZERO, as in the kernel, so a
    term that vanishes there is exactly 0 here too.
    """
    counts, log_coef, rate = _terms(s)[:3]
    a, b, c = counts[axis], counts[1 - axis], counts[2]
    budget = (1.0 - fixed) + 2.0**-50
    peak = a * budget / np.maximum(a + c, 1.0)
    shrink = 1.0 - _REL_SLACK
    head = (log_coef + _log(fixed) * b) * shrink
    head += _REL_SLACK * (4.0 * np.abs(log_coef) + 2.0 * s.m) + _ABS_SLACK
    a, c = a * shrink, c * shrink
    lo, hi = xs[::_INTERVAL], xs[_INTERVAL - 1 :: _INTERVAL]
    if hi.size < lo.size:
        hi = np.append(hi, xs[-1])
    # Where the kernel's idle probability is 0 at lo, it is 0 on the whole
    # run, and so is every term with idle users.
    idle_at_lo = (1.0 - lo) - fixed if axis == 0 else (1.0 - fixed) - lo
    ends = (lo, hi, budget - hi, (budget - lo) * (idle_at_lo > 0.0))
    logs = _log0(np.concatenate((peak, budget - peak, *ends)))
    log_peak, idle_peak = logs[: peak.size], logs[peak.size : 2 * peak.size]
    # idle falls as x rises, so its log at hi is the low end of its clip
    log_lo, log_hi, idle_hi, idle_lo = logs[2 * peak.size :].reshape(4, lo.size, 1)
    out = np.empty(lo.size)
    rows = max(1, _BLOCK_ELEMENTS // max(1, rate.size))
    for r in range(0, lo.size, rows):
        block = slice(r, r + rows)
        g = np.minimum(np.maximum(log_peak, log_lo[block]), log_hi[block])
        g *= a
        g += head
        log_idle = np.minimum(np.maximum(idle_peak, idle_hi[block]), idle_lo[block])
        log_idle *= c
        g += log_idle
        out[block] = np.exp(g, out=g) @ rate
    return out


def _pruned_scan(f, bounds, hi, step):
    """``_scan(f, 0, hi, step)``, with f evaluated only on the
    runs of samples whose bound does not rule them out.

    ``bounds(xs)`` bounds f from above on each run of _INTERVAL consecutive
    points of a piece.  The run with the largest bound is evaluated first;
    then, in one call of f per piece, every other run whose bound is not
    below the best value found so far.  A skipped point lies strictly below
    that value, and f's value at a point does not depend on the batch it is
    evaluated in, so the argmax, its first-index tie rule and every bit of
    the result are those of the full scan.  Only the bounds of the pieces
    are kept between the two passes, so memory stays bounded at any step.
    """
    def pieces():
        return _samples(0.0, hi, step, lambda x: x < hi, tail=[hi])

    piece_bounds, top, offset = [], None, 0
    for xs in pieces():
        b = bounds(xs)
        j = int(np.argmax(b))
        if top is None or b[j] > top[0]:
            run = slice(j * _INTERVAL, (j + 1) * _INTERVAL)
            top = b[j], offset + run.start, xs[run]
        piece_bounds.append(b)
        offset += xs.size
    _, first, xs = top
    stop = first + xs.size
    fx = f(xs)
    i = int(np.argmax(fx))
    best_k, best_x, best_f = first + i, xs[i], fx[i]
    offset = 0
    for b, xs in zip(piece_bounds, pieces()):
        keep = np.repeat(~(b < best_f), _INTERVAL)[: xs.size]
        keep[max(0, first - offset) : max(0, stop - offset)] = False
        k = np.flatnonzero(keep)
        if k.size:
            fx = f(xs[k])
            i = int(np.argmax(fx))
            if fx[i] > best_f or (fx[i] == best_f and offset + k[i] < best_k):
                best_k, best_x, best_f = offset + k[i], xs[k[i]], fx[i]
        offset += xs.size
    return float(best_x), float(best_f)


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


def _maximize_over(s: Scenario, axis: int, fixed: float, cfg: AscentConfig):
    """Best value of coordinate ``axis`` (0: tau1, 1: tau2) in [0, 1 - fixed]
    with the other coordinate held at ``fixed``, and the attained throughput.
    Only the throughput column of the table is reduced."""
    if not 0.0 <= fixed <= 1.0:
        raise ValueError(f"{('tau2', 'tau1')[axis]} must lie in [0, 1]")

    def throughput(xs):
        if axis == 0:
            return _throughput(s, xs, fixed)
        return _throughput(s, fixed, xs)

    def bounds(xs):
        return _interval_bounds(s, axis, fixed, xs)

    return _maximize_1d(throughput, bounds, 1.0 - fixed, cfg)


def _alternating_sweep(s: Scenario, cfg: AscentConfig, low_first: bool) -> OptimizationResult:
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
            cand, th = _maximize_over(s, axis, tau[1 - axis], cfg)
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
    result = _alternating_sweep(s, cfg, low_first=True)
    if cfg.dual_start:
        mirrored = _alternating_sweep(s, cfg, low_first=False)
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
        for tau2 in _samples(0.0, 1.0 - tau1, step, lambda x: tau1 + x <= 1.0):
            th = _throughput(s, tau1, tau2)
            j = int(np.argmax(th))
            if th[j] > best_th:
                best_th, best = float(th[j]), (tau1, float(tau2[j]))
        i += 1
    tau1, tau2 = best
    return OptimizationResult(
        tau1, tau2, best_th, 0, True, ((0, tau1, tau2, best_th),)
    )
