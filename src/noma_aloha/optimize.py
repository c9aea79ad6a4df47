"""Throughput maximisation over the two transmit probabilities.

The objective ``average_throughput(s, (tau1, tau2))`` is a polynomial mixture
over the decodable count regions and can be multimodal, so the search is
derivative-free: alternating 1-D maximisations (coarse grid scan plus bracket
refinement) until the improvement drops below a tolerance.  An exhaustive
simplex grid search doubles as a validation oracle.  Both evaluate their
sample points in batches through the model's one evaluation kernel, reducing
only the throughput.  Every coarse scan, and every oracle row, starts with the
points k*step from 0; those points and their logs are taken once per step and
cached, and each scan takes a prefix of them.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import Scenario, _log, _logs, _throughput

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


@lru_cache(maxsize=1)
def _grid_points(step, size):
    xs = np.arange(size) * step
    logs = _logs(xs)
    xs.flags.writeable = logs.flags.writeable = False
    return xs, logs


def _grid(step):
    """The points k*step, k = 0, 1, ..., that every scan from 0 with this
    step starts with, and their logs.  Enough points to pass 1, but at most
    _SCAN_PIECE (read at call time); cached for the last step asked for."""
    return _grid_points(step, int(min(_SCAN_PIECE, 1.0 / step + 2)))


def _samples(lo, end, step, keep, tail=(), grid=None):
    """Pairs (xs, logs): xs holds lo + k*step for k = 0, 1, ... while keep(x)
    holds, then ``tail``, in pieces of at most _SCAN_PIECE points.

    numpy forms k*step and the sum in the same floats as the scalar loop
    ``x = lo + k * step``; ``end`` estimates where keep first fails and only
    sizes the pieces.  ``grid``, from ``_grid(step)`` when lo == 0, supplies
    the first piece with its logs; other pieces come with logs None.
    """
    size = int(min(_SCAN_PIECE, (end - lo) / step + 3))
    k = 0
    while True:
        if k == 0 and grid is not None:
            xs, logs = grid
        else:
            xs, logs = lo + np.arange(k, k + size) * step, None
        n = int(np.count_nonzero(keep(xs)))  # a prefix: xs never decreases
        if n < xs.size:
            xs = np.concatenate((xs[:n], tail))
            if logs is not None:
                logs = np.concatenate((logs[:n], [_log(x) for x in tail]))
            if xs.size:
                yield xs, logs
            return
        yield xs, logs
        k += xs.size


def _scan(f, lo, hi, step, grid=None):
    """Maximise f on [lo, hi] sampled at lo + k*step plus the hi endpoint.

    f maps an array of arguments and their logs (None when not taken yet)
    to an array of values; ``grid`` is passed on to ``_samples``.  Ties keep
    the first (smallest) argument, as np.argmax does, so results are
    deterministic.
    """
    pieces = [(np.array([lo]), None)]
    if hi > lo:
        pieces = _samples(lo, hi, step, lambda x: x < hi, tail=[hi], grid=grid)
    best_x, best_f = lo, -math.inf
    for xs, logs in pieces:
        fx = f(xs, logs)
        i = int(np.argmax(fx))
        if fx[i] > best_f:
            best_x, best_f = float(xs[i]), float(fx[i])
    return best_x, best_f


def _maximize_1d(f, hi, cfg: AscentConfig):
    x, fx = _scan(f, 0.0, hi, cfg.grid_step, _grid(cfg.grid_step))
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

    def throughput(xs, logs):
        if axis == 0:
            return _throughput(s, xs, fixed, logs=(logs, None))
        return _throughput(s, fixed, xs, logs=(None, logs))

    return _maximize_1d(throughput, 1.0 - fixed, cfg)


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
    grid = _grid(step)
    i = 0
    while (tau1 := i * step) <= 1.0:
        row = _samples(0.0, 1.0 - tau1, step, lambda x: tau1 + x <= 1.0, grid=grid)
        for tau2, logs in row:
            th = _throughput(s, tau1, tau2, logs=(None, logs))
            j = int(np.argmax(th))
            if th[j] > best_th:
                best_th, best = float(th[j]), (tau1, float(tau2[j]))
        i += 1
    tau1, tau2 = best
    return OptimizationResult(
        tau1, tau2, best_th, 0, True, ((0, tau1, tau2, best_th),)
    )
