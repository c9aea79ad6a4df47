"""Throughput maximisation over the two transmit probabilities.

The objective ``average_throughput(s, (tau1, tau2))`` is a polynomial mixture
over the decodable count regions and can be multimodal, so the search is
derivative-free: alternating 1-D maximisations (coarse grid scan plus bracket
refinement) until the improvement drops below a tolerance; a branch and
bound over boxes certifies the optimum.  Each 1-D maximisation is a line of
the model's one evaluation kernel, built once and evaluated on batches of
sample points, reducing only the throughput.  A scan's samples are indexed
by k; a sample's float is formed from k, and only for the samples a scan
evaluates or bounds.

Every scan is pruned by the bounds the model hands out with each line: each
term of the mixture is log-concave along the scanned axis, so the sum of
its values at their stationary points clipped to a run of samples, raised
by a slack for rounding, bounds the kernel's throughput on the run.  The
line's one element budget, max(1, 2**14 // T) for a table of T terms, is
the most points a kernel call evaluates and the most runs a bounds call
bounds, so a scan holds bounded memory at any step.  A scan bounds its runs
a piece of that many runs at a time, evaluates the piece's run with the
largest bound first, then only the runs whose bound is not below the best
value found.  A coarse scan goes past the line's largest per-term peak, in
ranges of doubling length, only while a bound on the rest of the line lies
above that value.  A skipped sample cannot win, and the kernel gives a point
the same bits in any batch, so every output bit is the full scan's.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import PowerProfile, Scenario, _box_bounds, _scan_line, _terms, average_throughput
from .model import _BLOCK_ELEMENTS

__all__ = ["OptimizationResult", "coordinate_ascent"]

# An update must gain more than _EPSILON; a run makes at most
# _MAX_OUTER_ITERATIONS rounds of updates; the coarse step is at most
# _GRID_STEP, and _REFINE_ROUNDS bracket refinements follow, each 10x finer.
_EPSILON, _MAX_OUTER_ITERATIONS, _GRID_STEP, _REFINE_ROUNDS = 1e-5, 100, 1e-3, 2


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


def _grid(lo, hi, step):
    """The samples of a scan of [lo, hi]: lo + k*step while below hi, then
    hi itself (lo alone when hi <= lo).  Returns their count and
    ``points``, which maps an ascending array of sample indices to floats.

    numpy forms k*step and the sum in the same floats as the scalar loop
    ``x = lo + k * step``, so the count is that loop's, and a sample's
    float does not depend on the indices it is formed with.
    """
    n = max(0, int((hi - lo) / step))  # lo + n*step never decreases in n
    while n and not lo + (n - 1) * step < hi:
        n -= 1
    while lo + n * step < hi:
        n += 1
    last = max(lo, hi)

    def points(k):
        x = lo + k * step
        if k[-1] == n:
            x[-1] = last
        return x

    return n + 1, points


# Scan samples are bounded, and evaluated or skipped, in runs of this many
# consecutive points.
_INTERVAL = 32


def _best(f, points, first, stop, budget, best):
    """(k, x, f(x)) of the first maximum of f over the samples below
    ``stop`` in the runs of _INTERVAL that start at the ascending ``first``,
    from ``best`` on: a larger value wins, and an equal one only at a
    smaller index, as np.argmax's first index.  f maps an array of at most
    ``budget`` points to an array of values."""
    k = (first[:, None] + np.arange(_INTERVAL)).ravel()
    k = k[k < stop]
    best_k, best_x, best_f = best
    for a in range(0, k.size, budget):
        piece = k[a : a + budget]
        x = points(piece)
        fx = f(x)
        i = int(fx.argmax())
        if fx[i] > best_f or (fx[i] == best_f and piece[i] < best_k):
            best_k, best_x, best_f = piece[i], x[i], fx[i]
    return best_k, best_x, best_f


def _scan(f, bounds, budget, total, points, head=None):
    """(x, f(x)) of the first maximum of f over ``total`` samples, whose
    floats ``points`` forms from an ascending array of indices, as _grid's.

    f maps an array of points to an array of values; ``bounds(lo, hi)``
    bounds f from above on each run of samples, given the arrays of the
    runs' first and last points.  ``budget`` is the most points a call of f
    and the most runs a call of bounds takes.  The scan goes through the
    ranges [0, head), [head, 2 head), [2 head, 4 head), ... (one range
    without ``head``) a piece of ``budget`` runs of _INTERVAL samples at a
    time.  A range's first piece also bounds the rest of the line; the scan
    stops once that bound is not above the best value, which every later
    sample follows.  A piece evaluates its run of largest bound first, then
    each run bounded not below the best value (one run alone unbounded while
    nothing is evaluated).  Ties keep the first sample, as np.argmax."""
    best = (-1, math.nan, -math.inf)
    per = budget * _INTERVAL
    lo, hi = 0, min(head or total, total)
    while True:
        tail = hi < total  # the rest of the line takes a run's place in the first piece
        for a in range(lo - tail * _INTERVAL, hi, per):
            runs = np.arange(max(a, lo), min(a + per, hi), _INTERVAL)
            ends = np.minimum(runs + (_INTERVAL - 1), hi - 1)
            if a < lo:
                runs, ends = np.append(runs, hi), np.append(ends, total - 1)
            if runs.size > 1 or best[2] > -math.inf or a < lo:
                b = bounds(points(runs), points(ends))
                if a < lo:  # bounded, and never evaluated here
                    rest, runs, b = b[-1], runs[:-1], b[:-1]
                if b.size:
                    j = int(np.argmax(b))
                    if not b[j] < best[2]:
                        best = _best(f, points, runs[j : j + 1], hi, budget, best)
                    b[j] = -math.inf  # evaluated or ruled out
                    runs = runs[~(b < best[2])]
            best = _best(f, points, runs, hi, budget, best)
        if not tail or rest <= best[2]:
            return float(best[1]), float(best[2])
        lo, hi = hi, min(total, 2 * hi)


def _maximize_over(s: Scenario, axis: int, fixed: float):
    """Best value of coordinate ``axis`` (0: tau1, 1: tau2) in [0, 1 - fixed]
    with the other coordinate held at ``fixed``, and the attained throughput:
    a coarse scan, then _REFINE_ROUNDS bracket refinements.  The line's
    kernel and bounds are built once and serve every scan.

    The coarse step is min(_GRID_STEP, cap / 20), cap the line's largest
    per-term peak, so the samples resolve the peak near tau = lambda / m at
    any m.  It is never below 2**-52 of the line, so a line has at most
    2**52 + 1 samples and their indices stay exact; at cap = 0 no term rises
    along the line and the step is _GRID_STEP.  The coarse scan's head runs
    to cap and one sample past it; its result is the full scan's."""
    if not 0.0 <= fixed <= 1.0:
        raise ValueError(f"{('tau2', 'tau1')[axis]} must lie in [0, 1]")
    f, bounds, budget, cap = _scan_line(s, axis, fixed)
    hi = 1.0 - fixed
    step = min(_GRID_STEP, max(cap / 20.0, hi * 2.0**-52)) if cap > 0.0 else _GRID_STEP
    total, points = _grid(0.0, hi, step)
    x, fx = _scan(f, bounds, budget, total, points, int(cap / step) + 2)
    width = step
    for _ in range(_REFINE_ROUNDS):
        lo_r = max(0.0, x - width)
        hi_r = min(hi, x + width)
        width /= 10.0
        x2, f2 = _scan(f, bounds, budget, *_grid(lo_r, hi_r, width))
        if f2 > fx:
            x, fx = x2, f2
    return x, fx


def _alternating_sweep(s: Scenario, low_first: bool) -> OptimizationResult:
    """One alternating maximisation run.

    From (0, 0), ``low_first`` maximises tau2 first (the reference order);
    otherwise tau1 is maximised first.  An update is accepted only when it
    improves the incumbent throughput by more than _EPSILON; the first
    rejected update stops the run (converged).
    """
    tau = [0.0, 0.0]
    best = 0.0
    trace = [(0, *tau, best)]
    converged = False
    outer = 0
    axes = (1, 0) if low_first else (0, 1)
    while outer < _MAX_OUTER_ITERATIONS and not converged:
        outer += 1
        for axis in axes:
            cand, th = _maximize_over(s, axis, tau[1 - axis])
            if th - best > _EPSILON:
                tau[axis] = cand
                best = th
                trace.append((outer, *tau, best))
            else:
                converged = True
                break
    return OptimizationResult(*tau, best, outer, converged, tuple(trace))


def coordinate_ascent(s: Scenario) -> OptimizationResult:
    """Alternating 1-D throughput maximisation over (tau1, tau2).

    Runs the reference sweep (tau2 first) and the mirrored sweep (tau1
    first), both from (0, 0), returning the endpoint with the higher
    throughput (the reference sweep wins ties): a single fixed order can
    stall on the simplex boundary when its first 1-D pass saturates the
    budget of the other coordinate.  A sweep stops at the first update that
    gains at most epsilon = 1e-5, so epsilon bounds the last accepted 1-D
    gain, not the gap to the optimum, which can be larger.
    """
    result = _alternating_sweep(s, low_first=True)
    mirrored = _alternating_sweep(s, low_first=False)
    return mirrored if mirrored.th_star > result.th_star else result


# the certificate's gap, boxes split a round and work in box x term elements
_CERTIFY_TOL, _CERTIFY_BATCH, _CERTIFY_WORK = 1e-6, 256, 1 << 23


def _certify(s: Scenario):
    """(tau1, tau2, throughput, bound): the best box centre and the largest
    bound of a box (a row x0, x1, y0, y1, bound) left open or dropped.  Each
    round halves the boxes of largest bound on their longer side, keeps the
    halves that meet the simplex (every lower one), bounds them a budget a
    call, evaluates the best scored centre, drops those within _CERTIFY_TOL."""
    terms = max(64, _terms(s).log_coef.size)  # a box's fixed costs count as 64 terms
    per, work, dropped = max(1, _BLOCK_ELEMENTS // terms), 0, -math.inf
    boxes, best = np.array([[0.0, 1.0, 0.0, 1.0, math.inf]]), (0.0, 0.0, -math.inf)
    while len(boxes) and boxes[:, 4].max() > best[2] + _CERTIFY_TOL and work < _CERTIFY_WORK:
        order = np.argpartition(-boxes[:, 4], min(_CERTIFY_BATCH, len(boxes)) - 1)
        low, boxes = boxes[order[:_CERTIFY_BATCH]], boxes[order[_CERTIFY_BATCH:]]
        high, rows = low.copy(), np.arange(len(low))
        side = 2 * (low[:, 1] - low[:, 0] < low[:, 3] - low[:, 2])
        low[rows, side + 1] = high[rows, side] = (low[rows, side] + low[rows, side + 1]) / 2.0
        halves = np.concatenate((low, high[high[:, 0] + high[:, 2] <= 1.0]))
        pieces = (_box_bounds(s, *halves[k : k + per, :4].T) for k in range(0, len(halves), per))
        halves[:, 4], score = map(np.concatenate, zip(*pieces))
        work += len(halves) * terms
        tau = ((halves[:, 0:4:2] + halves[:, 1:4:2]) / 2.0)[np.argmax(score)].tolist()
        if score.max() > -math.inf and (th := average_throughput(s, PowerProfile(*tau))) > best[2]:
            best = (*tau, th)
        kept = halves[:, 4] > best[2] + _CERTIFY_TOL
        dropped = max(dropped, halves[~kept, 4].max(initial=-math.inf))
        boxes = np.concatenate((boxes, halves[kept]))
    return (*best, float(max(dropped, boxes[:, 4].max(initial=-math.inf))))
