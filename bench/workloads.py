"""The benchmark's workloads: their make-up from a seed, and the checks on
what the CLI writes for them.

Every check compares against ``reference`` (never against ``noma_aloha``),
so a fault in the package cannot hide by agreeing with itself.
"""

import csv
import math
import random
from collections import Counter

import reference as ref


class CheckError(AssertionError):
    """An output of the program disagrees with the reference."""


def _close(name, got, want, rel=1e-9, abs_=1e-12):
    if not math.isclose(got, want, rel_tol=rel, abs_tol=abs_):
        raise CheckError(f"{name}: program gave {float(got)!r}, reference {float(want)!r}")


def _read_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _redraw_until_clear(draw, seed):
    """Draw a make-up from ``seed`` again and again until no threshold sits
    on an SINR boundary; the sequence of draws is fixed by the seed."""
    rng = random.Random(seed)
    for _ in range(100):
        made = draw(rng)
        try:
            made.check_inputs()
            return made
        except ref.InputError:
            continue
    raise ref.InputError(f"seed {seed}: no make-up clear of SINR boundaries")


class OptimizeSweep:
    """``sweep --axis gamma --optimize`` over a wide-region scenario.

    m = 50, v1 = 20, v2 = 2 and gamma from about 0.17 to 1.6: the decodable
    region shrinks from about 230 layer terms to 8 along the sweep, so a change to
    the evaluation kernel shows at both wide and narrow tables.  All of the
    work is model and optimiser; nothing is simulated.
    """

    name = "optimize-sweep"
    m, v1, v2 = 50, 20.0, 2.0
    points = 12
    step = 0.13
    grid_step = 0.01
    trace_file = False

    def __init__(self, start, tau1, tau2):
        self.start = start
        self.tau1 = tau1
        self.tau2 = tau2
        # the CLI's own grid formula, so the floats agree bit for bit
        self.gammas = [start + k * self.step for k in range(self.points)]
        self.stop = start + (self.points - 0.5) * self.step

    @classmethod
    def from_seed(cls, seed):
        def draw(rng):
            return cls(
                0.17 + 0.01 * rng.random(),
                0.01 + 0.02 * rng.random(),
                0.005 + 0.01 * rng.random(),
            )

        return _redraw_until_clear(draw, seed)

    def check_inputs(self):
        ref.check_clear_of_boundaries(self.m, self.v1, self.v2, self.gammas)

    @property
    def work(self):
        return self.points

    def argv(self):
        return [
            "sweep", "--axis", "gamma", "--optimize",
            "--start", repr(self.start), "--stop", repr(self.stop),
            "--step", repr(self.step),
            "--m", str(self.m), "--v1", repr(self.v1), "--v2", repr(self.v2),
            "--tau1", repr(self.tau1), "--tau2", repr(self.tau2),
        ]

    def expect(self):
        """Reference values per point, computed once per run."""
        self.regions = [ref.region(self.m, self.v1, self.v2, g) for g in self.gammas]
        self.grid_max = [ref.simplex_grid_max(r, self.grid_step) for r in self.regions]

    def check(self, out_path, trace_path=None):
        rows = _read_rows(out_path)
        if len(rows) != self.points:
            raise CheckError(f"{len(rows)} sweep rows, expected {self.points}")
        for k, row in enumerate(rows):
            reg = self.regions[k]
            g = float(row["gamma"])
            if g != self.gammas[k]:
                raise CheckError(f"row {k}: gamma {g!r}, expected {self.gammas[k]!r}")
            _close(f"row {k} p_success", float(row["p_success"]),
                   ref.success(reg, self.tau1, self.tau2)[0])
            _close(f"row {k} th_avg", float(row["th_avg"]),
                   ref.throughput(reg, self.tau1, self.tau2)[0])
            t1, t2 = float(row["tau1_opt"]), float(row["tau2_opt"])
            if not (t1 >= 0.0 and t2 >= 0.0 and t1 + t2 <= 1.0):
                raise CheckError(f"row {k}: optimum ({t1}, {t2}) off the simplex")
            th_opt = float(row["th_opt"])
            _close(f"row {k} th_opt", th_opt, ref.throughput(reg, t1, t2)[0])
            if th_opt < self.grid_max[k] * (1.0 - 1e-12):
                raise CheckError(
                    f"row {k}: th_opt {th_opt!r} below the step-{self.grid_step} "
                    f"grid maximum {self.grid_max[k]!r}"
                )
            if row["opt_converged"] != "true":
                raise CheckError(f"row {k}: ascent did not converge")


class Simulate:
    """``simulate`` at one scenario, optionally writing the per-slot trace."""

    def __init__(self, name, m, v1, v2, gamma, tau1, tau2, slots, replications,
                 seed, trace_file):
        self.name = name
        self.m, self.v1, self.v2, self.gamma = m, v1, v2, gamma
        self.tau1, self.tau2 = tau1, tau2
        self.slots, self.replications, self.seed = slots, replications, seed
        self.trace_file = trace_file

    @classmethod
    def wide(cls, seed):
        """m = 1000 at tau1 = tau2 = 1/m, two replications.

        The O(m^2) decode-table build and the slots x m uniforms dominate;
        the model and the optimiser do almost nothing.  Two replications
        draw two chunks of uniforms, so the simulator's peak memory shows.
        """
        def draw(rng):
            return cls("simulate-wide", 1000, 4.0, 1.5, 1.25 + 0.1 * rng.random(),
                       1e-3, 1e-3, 20_000, 2, rng.randrange(1, 2**31), False)

        return _redraw_until_clear(draw, seed)

    @classmethod
    def trace(cls, seed):
        """m = 10 with the per-slot trace: sampling is cheap at this size and
        writing one CSV row per slot dominates."""
        def draw(rng):
            return cls("simulate-trace", 10, 4.0, 1.5, 1.25 + 0.1 * rng.random(),
                       0.1 + 0.01 * rng.random(), 0.1 + 0.01 * rng.random(),
                       100_000, 2, rng.randrange(1, 2**31), True)

        return _redraw_until_clear(draw, seed)

    def check_inputs(self):
        ref.check_clear_of_boundaries(self.m, self.v1, self.v2, [self.gamma])

    @property
    def work(self):
        return self.slots * self.replications

    def argv(self):
        return [
            "simulate",
            "--m", str(self.m), "--v1", repr(self.v1), "--v2", repr(self.v2),
            "--gamma", repr(self.gamma),
            "--tau1", repr(self.tau1), "--tau2", repr(self.tau2),
            "--slots", str(self.slots), "--replications", str(self.replications),
            "--seed", str(self.seed),
        ]

    def expect(self):
        reg = ref.region(self.m, self.v1, self.v2, self.gamma)
        self.p_ref = float(ref.success(reg, self.tau1, self.tau2)[0])
        self.th_ref = float(ref.throughput(reg, self.tau1, self.tau2)[0])
        second = float(ref.rate_second_moment(reg, self.tau1, self.tau2)[0])
        n = self.work
        # the tagged user's per-slot success is Bernoulli(p); slots are iid
        self.sigma_p = math.sqrt(self.p_ref * (1.0 - self.p_ref) / n)
        self.sigma_th = math.sqrt(max(0.0, second - self.th_ref**2) / n)

    def check(self, out_path, trace_path=None):
        rows = _read_rows(out_path)
        if len(rows) != 1:
            raise CheckError(f"{len(rows)} simulate rows, expected 1")
        row = rows[0]
        for key in ("m", "slots", "replications", "seed"):
            if int(row[key]) != getattr(self, key):
                raise CheckError(f"{key} echoed as {row[key]}")
        for key in ("v1", "v2", "gamma", "tau1", "tau2"):
            if float(row[key]) != getattr(self, key):
                raise CheckError(f"{key} echoed as {row[key]}")
        _close("p_success_analytic", float(row["p_success_analytic"]), self.p_ref)
        _close("th_analytic", float(row["th_analytic"]), self.th_ref)
        p_sim, th_sim = float(row["p_success_sim"]), float(row["th_sim"])
        if abs(p_sim - self.p_ref) > 5.0 * self.sigma_p:
            raise CheckError(
                f"p_success_sim {p_sim!r} is more than 5 sigma "
                f"({self.sigma_p:.3g}) from {self.p_ref!r}"
            )
        if abs(th_sim - self.th_ref) > 5.0 * self.sigma_th:
            raise CheckError(
                f"th_sim {th_sim!r} is more than 5 sigma "
                f"({self.sigma_th:.3g}) from {self.th_ref!r}"
            )
        if self.trace_file:
            self.check_trace(trace_path, th_sim)

    def check_trace(self, path, th_sim):
        """Row count, slot numbering, mean rate, and per-pair decoder agreement."""
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        if lines[-1] != "":
            raise CheckError("trace does not end with a newline")
        lines.pop()
        if lines[0] != "slot,n1,n2,high_decoded,low_decoded,sum_rate":
            raise CheckError(f"trace header {lines[0]!r}")
        if len(lines) != 1 + self.work:
            raise CheckError(f"trace has {len(lines) - 1} rows, expected {self.work}")
        outcomes = Counter()
        for k, line in enumerate(lines[1:]):
            slot, _, rest = line.partition(",")
            if slot != str(k % self.slots):
                raise CheckError(f"trace row {k} numbered {slot}")
            outcomes[rest] += 1
        rate_sum = 0.0
        for rest, count in outcomes.items():
            n1, n2, high, low, rate = rest.split(",")
            n1, n2, rate = int(n1), int(n2), float(rate)
            if n1 < 0 or n2 < 0 or n1 + n2 > self.m:
                raise CheckError(f"trace counts ({n1}, {n2}) impossible for m={self.m}")
            high_ok, low_ok, want_rate, _ = ref.decode(self.v1, self.v2, self.gamma, n1, n2)
            if (high, low) != (str(high_ok).lower(), str(low_ok).lower()):
                raise CheckError(
                    f"trace flags at ({n1}, {n2}) are {high},{low}; "
                    f"the decoder gives {high_ok},{low_ok}"
                )
            _close(f"trace rate at ({n1}, {n2})", rate, want_rate, rel=1e-12)
            rate_sum += count * rate
        _close("trace mean sum_rate vs th_sim", rate_sum / self.work, th_sim)


def verify(workload, out_path, trace_path=None):
    """Run the workload's checks.  Output the checks cannot even parse (a
    missing file or column, a short row, a number that is not one) fails a
    check as well, rather than stopping the benchmark."""
    try:
        workload.check(out_path, trace_path)
    except (KeyError, ValueError, IndexError, OSError) as e:
        raise CheckError(f"malformed output: {type(e).__name__}: {e}") from e


WORKLOADS = {
    OptimizeSweep.name: OptimizeSweep.from_seed,
    "simulate-wide": Simulate.wide,
    "simulate-trace": Simulate.trace,
}
