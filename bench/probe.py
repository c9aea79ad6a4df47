"""Per-layer timings and counts, run as its own process by ``bench/run.py``.

    python3 bench/probe.py '<json make-up>'

Calls the public functions of ``noma_aloha.model``, ``.optimize`` and
``.simulate`` directly, wrapping the ones a layer calls into, and prints one
JSON object of metric values as its last line.  The make-up names the
workload's scenarios; see ``run.py`` for how each value maps to an
end-to-end metric.
"""

import json
import os
import statistics
import sys
import time

from noma_aloha import model, optimize, simulate
from noma_aloha.model import PowerProfile, Scenario
from noma_aloha.simulate import SimConfig


class Counted:
    """Replace ``owner.name`` by a wrapper that counts and times its calls."""

    def __init__(self, owner, name):
        self.owner, self.name = owner, name
        self.inner = getattr(owner, name)
        self.calls = 0
        self.seconds = 0.0

    def __enter__(self):
        def counted(*args, **kwargs):
            self.calls += 1
            start = time.perf_counter()
            try:
                return self.inner(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - start

        setattr(self.owner, self.name, counted)
        return self

    def __exit__(self, *exc):
        setattr(self.owner, self.name, self.inner)


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - start


def per_call_us(fn, s, prof, calls=200):
    fn(s, prof)
    return 1e6 * timed(lambda: [fn(s, prof) for _ in range(calls)]) / calls


def model_and_optimize(sw):
    """Table build, warm evaluation and coordinate ascent at each sweep point."""
    prof = PowerProfile(sw["tau1"], sw["tau2"])
    scenarios = [Scenario(sw["m"], sw["v1"], sw["v2"], g) for g in sw["gammas"]]
    build = [timed(model.average_throughput, s, prof) for s in scenarios]
    th_us = [per_call_us(model.average_throughput, s, prof) for s in scenarios]
    ps_us = [per_call_us(model.success_probability, s, prof) for s in scenarios]
    ascent, ascent_self, calls, iterations = [], [], [], []
    for s in scenarios:
        with Counted(optimize, "average_throughput") as objective:
            start = time.perf_counter()
            res = optimize.coordinate_ascent(s)
            ascent.append(time.perf_counter() - start)
        ascent_self.append(ascent[-1] - objective.seconds)
        calls.append(objective.calls)
        iterations.append(res.outer_iterations)
    return {
        "model.table_build_ms": 1e3 * statistics.median(build),
        "model.throughput_calls": statistics.mean(calls),
        "model.throughput_call_us": statistics.median(th_us),
        "model.success_call_us": statistics.median(ps_us),
        "optimize.ascent_s": statistics.median(ascent),
        "optimize.ascent_self_s": statistics.median(ascent_self),
        "optimize.outer_iterations": statistics.mean(iterations),
    }


def _scenario(c):
    return Scenario(c["m"], c["v1"], c["v2"], c["gamma"]), PowerProfile(c["tau1"], c["tau2"])


def _config(c):
    return SimConfig(slots=c["slots"], seed=c["seed"], replications=c["replications"])


def simulate_setup(c):
    """One-slot run on a scenario this process has not simulated yet."""
    s, prof = _scenario(c)
    with Counted(simulate, "sic_decode") as decoder:
        seconds = timed(simulate.run_simulation, s, prof, SimConfig(slots=1, seed=1))
    return {"simulate.setup_s": seconds, "simulate.sic_decode_calls": decoder.calls}


def slots_per_s(c, repeats=3, trace_path=None):
    """Warm slots per second: the decode table is built before timing."""
    s, prof = _scenario(c)
    simulate.run_simulation(s, prof, SimConfig(slots=1, seed=1))
    cfg = _config(c)
    runs = [timed(simulate.run_simulation, s, prof, cfg, trace_path) for _ in range(repeats)]
    return cfg.slots * cfg.replications / statistics.median(runs)


def uniform_bytes(c):
    """Bytes of the largest chunk of uniforms one run draws: rows x m x 8,
    computed from the simulator's chunk size, not measured memory."""
    return min(simulate._CHUNK_SLOTS, c["slots"]) * c["m"] * 8


def trace_cost(c, path, repeats=3):
    """Extra seconds the per-slot trace adds, and the bytes it writes per slot."""
    s, prof = _scenario(c)
    cfg = _config(c)
    simulate.run_simulation(s, prof, SimConfig(slots=1, seed=1))
    with_trace, without = [], []
    try:
        for _ in range(repeats):
            without.append(timed(simulate.run_simulation, s, prof, cfg))
            with_trace.append(timed(simulate.run_simulation, s, prof, cfg, path))
        size = os.path.getsize(path)
    finally:
        if os.path.exists(path):
            os.remove(path)
    return {
        "simulate.trace_write_s": statistics.median(with_trace) - statistics.median(without),
        "simulate.trace_bytes_per_slot": size / (cfg.slots * cfg.replications),
    }


def main():
    made = json.loads(sys.argv[1])
    out = {}
    out.update(simulate_setup(made["setup"]))
    out.update(model_and_optimize(made["sweep"]))
    out["simulate.slots_per_s.m10"] = slots_per_s(made["m10"])
    out["simulate.slots_per_s.m100"] = slots_per_s(made["m100"])
    out["simulate.slots_per_s.m1000"] = slots_per_s(made["m1000"])
    out["simulate.uniform_bytes"] = uniform_bytes(made["m1000"])
    out.update(trace_cost(made["m10"], made["trace_path"]))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
