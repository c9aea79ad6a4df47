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

Every scan is pruned by the bounds the model hands out with each line: each
term of the mixture is log-concave along the scanned axis, so the sum of
its values at their stationary points clipped to a run of samples, raised
by a slack for rounding, bounds the kernel's throughput on the run.  The
line's one element budget, max(1, 2**14 // T) for a table of T terms, is
the most points a kernel call evaluates and the most runs a bounds call
bounds, so a scan holds bounded memory at any step.  A scan bounds its runs
a piece of that many runs at a time, evaluates the piece's run with the
largest bound first, then only the runs whose bound is not below the best
value found.  A skipped sample lies strictly below that value and the kernel
gives a point the same bits in any batch, so the argmax, its ties and every
output bit are those of the full scan.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import Scenario, _scan_line

# not called here any more: the benchmark's layer probe and traced runs patch
# ``optimize.average_throughput`` by name, so the name stays importable
from .model import average_throughput  # noqa: F401

__all__ = [
    "AscentConfig",
    "OptimizationResult",
    "coordinate_ascent",
    "grid_search_oracle",
]


# The finest coarse step, 1e8 samples a scan: about 5 s of ascent at the defaults.
_MIN_GRID_STEP = 1e-8


@dataclass(frozen=True)
class AscentConfig:
    """Knobs for the alternating maximisation.

    epsilon: minimum throughput improvement for an update to be accepted.
    max_outer_iterations: cap on full tau2+tau1 update rounds.
    grid_step: coarse step of each inner 1-D scan.
    refine_rounds: bracket refinements around the incumbent, 10x finer each.
    dual_start: also run the sweep with the coordinate order mirrored
        (tau1 maximised first from tau2 = 0) and keep the better endpoint; a
        single fixed order can stall on the simplex boundary when its first
        1-D pass saturates the budget of the other coordinate.
    """

    epsilon: float = 1e-5
    max_outer_iterations: int = 100
    grid_step: float = 1e-3
    refine_rounds: int = 2
    dual_start: bool = True

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")
        if not 0.0 < self.grid_step < 1.0:
            raise ValueError("grid_step must lie in (0, 1)")
        if self.grid_step < _MIN_GRID_STEP:
            raise ValueError(f"grid_step below {_MIN_GRID_STEP:g} makes a scan too large to run")
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


# Scan samples are bounded, and evaluated or skipped, in runs of this many
# consecutive points.
_INTERVAL = 32


def _best(f, points, first, total, budget, best):
    """(k, x, f(x)) of the first maximum of f over the samples in the runs
    of _INTERVAL that start at the ascending ``first``, the last run of the
    scan possibly shorter, from ``best`` on: a larger value wins, and an
    equal one only at a smaller index, as np.argmax's first index.  f maps
    an array of at most ``budget`` points to an array of values."""
    k = (first[:, None] + np.arange(_INTERVAL)).ravel()
    k = k[k < total]
    best_k, best_x, best_f = best
    for a in range(0, k.size, budget):
        piece = k[a : a + budget]
        x = points(piece)
        fx = f(x)
        i = int(fx.argmax())
        if fx[i] > best_f or (fx[i] == best_f and piece[i] < best_k):
            best_k, best_x, best_f = piece[i], x[i], fx[i]
    return best_k, best_x, best_f


def _scan(f, bounds, budget, total, points):
    """(x, f(x)) of the first maximum of f over ``total`` samples, where
    ``points`` maps an ascending array of indices to the samples' floats, as
    ``_grid`` returns them.

    f maps an array of points to an array of values; ``bounds(lo, hi)``
    bounds f from above on each run of _INTERVAL samples, given the arrays
    of the runs' first and last points.  ``budget`` is the most points a
    call of f takes and the most runs a call of bounds takes, so the scan
    goes a piece of ``budget`` runs at a time.  In each piece, the run with
    the largest bound is evaluated first, then every other run, each only if
    its bound is not below the best value found so far; a piece of one run
    is evaluated without a bound while nothing has been evaluated.  Ties
    keep the first (smallest) sample, as np.argmax does.
    """
    best = (-1, math.nan, -math.inf)
    per = budget * _INTERVAL
    for a in range(0, total, per):
        first = np.arange(a, min(a + per, total), _INTERVAL)
        if first.size > 1 or best[2] > -math.inf:
            b = bounds(points(first), points(np.minimum(first + (_INTERVAL - 1), total - 1)))
            j = int(np.argmax(b))
            if not b[j] < best[2]:
                best = _best(f, points, first[j : j + 1], total, budget, best)
            b[j] = -math.inf  # evaluated or ruled out
            first = first[~(b < best[2])]
        best = _best(f, points, first, total, budget, best)
    return float(best[1]), float(best[2])


def _maximize_over(s: Scenario, axis: int, fixed: float, cfg: AscentConfig):
    """Best value of coordinate ``axis`` (0: tau1, 1: tau2) in [0, 1 - fixed]
    with the other coordinate held at ``fixed``, and the attained throughput:
    a coarse scan, then ``cfg.refine_rounds`` bracket refinements.  The
    line's kernel and bounds are built once and serve every scan."""
    if not 0.0 <= fixed <= 1.0:
        raise ValueError(f"{('tau2', 'tau1')[axis]} must lie in [0, 1]")
    line = _scan_line(s, axis, fixed)
    hi = 1.0 - fixed
    x, fx = _scan(*line, *_grid(0.0, hi, cfg.grid_step))
    width = cfg.grid_step
    for _ in range(cfg.refine_rounds):
        lo_r = max(0.0, x - width)
        hi_r = min(hi, x + width)
        width /= 10.0
        x2, f2 = _scan(*line, *_grid(lo_r, hi_r, width))
        if f2 > fx:
            x, fx = x2, f2
    return x, fx


def _alternating_sweep(s: Scenario, cfg: AscentConfig, low_first: bool) -> OptimizationResult:
    """One alternating maximisation run.

    From (0, 0), ``low_first`` maximises tau2 first (the reference order);
    otherwise tau1 is maximised first.  An update is accepted only when it
    improves the incumbent throughput by more than epsilon; the first
    rejected update stops the run (converged).
    """
    tau = [0.0, 0.0]
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

    Runs the reference sweep (tau2 first) and, when ``cfg.dual_start`` is
    set, the mirrored sweep as well, both from (0, 0), returning the endpoint
    with the higher throughput (the reference sweep wins ties).
    """
    cfg = cfg or AscentConfig()
    result = _alternating_sweep(s, cfg, low_first=True)
    if cfg.dual_start:
        mirrored = _alternating_sweep(s, cfg, low_first=False)
        if mirrored.th_star > result.th_star:
            result = mirrored
    return result


# The finest oracle step, about 5e7 profiles: a few seconds of oracle.
_MIN_ORACLE_STEP = 1e-4


def _check_oracle_step(step: float):
    """The grid oracle's validation of ``step``, on its own so that a caller
    can reject a bad step before any work starts."""
    if not 0.0 < step <= 0.1:
        raise ValueError("oracle step must lie in (0, 0.1]")
    if step < _MIN_ORACLE_STEP:
        raise ValueError(f"oracle step below {_MIN_ORACLE_STEP:g} makes the grid too large to run")


def grid_search_oracle(s: Scenario, step: float) -> OptimizationResult:
    """Exact throughput maximisation on the (tau1, tau2) simplex grid.

    Maximises over every (i*step, j*step) with sum at most 1, one scan along
    each tau1 row, and returns the argmax; ties resolve to the
    lexicographically smallest point.
    """
    _check_oracle_step(step)
    best_th = -1.0
    best = (0.0, 0.0)
    i = 0
    while (tau1 := i * step) <= 1.0:
        total = _prefix(0.0, step, lambda x: tau1 + x <= 1.0, 1.0 - tau1)
        tau2, th = _scan(*_scan_line(s, 1, tau1), total, lambda k: k * step)
        if th > best_th:
            best_th, best = th, (tau1, tau2)
        i += 1
    tau1, tau2 = best
    return OptimizationResult(
        tau1, tau2, best_th, 0, True, ((0, tau1, tau2, best_th),)
    )
