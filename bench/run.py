"""Benchmark of the noma-aloha CLI: end-to-end runs and a traced layer run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` runs the workload's command
again and again, each time in a fresh process, for about S seconds, checks
every output against ``reference`` and reports the medians of the
end-to-end metrics.  ``--trace 1`` alternates untraced and traced runs of the
same command for about S seconds, then runs the layer probe and
``python -X importtime``, and reports the per-layer metrics.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# name -> unit; the same names and units as BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "work_per_s": "1/s",
}
PER_LAYER = {
    "import.package_s": "s",
    "import.scipy_s": "s",
    "model.table_build_ms": "ms",
    "model.throughput_calls": "count",
    "model.throughput_call_us": "us",
    "model.success_call_us": "us",
    "model.region_terms.min": "count",
    "model.region_terms.median": "count",
    "model.region_terms.max": "count",
    "optimize.ascent_s": "s",
    "optimize.ascent_self_s": "s",
    "optimize.outer_iterations": "count",
    "simulate.setup_s": "s",
    "simulate.sic_decode_calls": "count",
    "simulate.slots_per_s.m10": "1/s",
    "simulate.slots_per_s.m100": "1/s",
    "simulate.slots_per_s.m1000": "1/s",
    "simulate.uniform_bytes": "B-computed",
    "simulate.trace_write_s": "s",
    "simulate.trace_bytes_per_slot": "B",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}

MIN_SAMPLES = 3
# every run must end within 180 s; a sample is cut off before that
RUN_DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark cannot run here, or the program failed outright."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Sampler:
    """Runs one command at a time in a fresh process and measures it."""

    def __init__(self, workload, deadline):
        self.workload = workload
        self.deadline = deadline
        self.env = child_env()
        self.out_path = OUT / f"{workload.name}.csv"
        self.trace_path = OUT / f"{workload.name}.trace.csv"
        self.err_path = OUT / f"{workload.name}.stderr"
        self.check_failures = []

    def launch(self, argv, flags=()):
        """Spawn the launcher; return (report or None, wall_s, peak_rss_mb)."""
        read_fd, write_fd = os.pipe()
        env = dict(self.env, BENCH_REPORT_FD=str(write_fd))
        cmd = [sys.executable, str(BENCH / "launcher.py"), *flags, "--", *argv]
        with open(self.err_path, "wb") as err:
            t0 = time.monotonic()
            env["BENCH_T0"] = repr(t0)
            proc = subprocess.Popen(
                cmd, env=env, cwd=ROOT, pass_fds=(write_fd,),
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
            )
            os.close(write_fd)
            killer = threading.Timer(max(1.0, self.deadline - t0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        with os.fdopen(read_fd, "rb") as pipe:
            raw = pipe.read()
        report = json.loads(raw) if raw else None
        if proc.returncode != 0 or report is None or report["rc"] != 0:
            sys.stderr.write(self.err_path.read_text(errors="replace"))
            return None, wall, usage.ru_maxrss / 1024.0
        if Path(report["package"]) != SRC / "noma_aloha":
            raise BenchError(f"imported noma_aloha from {report['package']}, not {SRC}")
        return report, wall, usage.ru_maxrss / 1024.0

    def warm_up(self):
        """Import once untimed, so that byte-code compilation is not timed."""
        report, _, _ = self.launch([], ("--import-only",))
        if report is None:
            raise BenchError("cannot import noma_aloha.cli from " + str(SRC))

    def sample(self, traced=False):
        """One checked run of the workload's command, or None if it failed."""
        argv = self.workload.argv() + ["--output", str(self.out_path)]
        if self.workload.trace_file:
            argv += ["--trace-file", str(self.trace_path)]
        try:
            report, wall, rss = self.launch(argv, ("--traced",) if traced else ())
            if report is not None:
                try:
                    wl.verify(self.workload, self.out_path, self.trace_path)
                except wl.CheckError as e:
                    print(f"check failed: {e}", file=sys.stderr)
                    self.check_failures.append(str(e))
        finally:
            for path in (self.out_path, self.trace_path):
                if path.exists():
                    path.unlink()
        if report is None:
            return None
        report.update(wall_s=wall, peak_rss_mb=rss)
        return report


def measure(seconds, step, min_steps):
    """Call ``step`` until about ``seconds`` have passed, at least
    ``min_steps`` times; stop early rather than overrun by a whole step."""
    start = time.monotonic()
    durations = []
    while True:
        t = time.monotonic()
        step()
        durations.append(time.monotonic() - t)
        elapsed = time.monotonic() - start
        if len(durations) >= min_steps and (
            elapsed + statistics.median(durations) > seconds
        ):
            return


def end_to_end(sampler, seconds):
    samples, failed = [], 0

    def step():
        nonlocal failed
        got = sampler.sample()
        if got is None:
            failed += 1
        else:
            samples.append(got)

    measure(seconds, step, MIN_SAMPLES)
    if not samples:
        raise BenchError("every run of the command failed")
    work = sampler.workload.work

    def med(key):
        return statistics.median(s[key] for s in samples)

    values = {
        "setup_s": med("setup_s"),
        "wall_s": med("wall_s"),
        "peak_rss_mb": med("peak_rss_mb"),
        "work_per_s": statistics.median(work / s["main_s"] for s in samples),
    }
    return values, len(samples) + failed, failed


def import_times(env, repeats=5):
    """Cumulative import seconds of the package and of scipy (outermost
    scipy modules only), from ``python -X importtime``, as medians."""
    package, scipy = [], []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import noma_aloha.cli"],
            env=env, cwd=ROOT, capture_output=True, text=True, check=True,
        )
        entries = []
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "imported package" in line:
                continue
            _, cumulative, name = line[len("import time:"):].split("|")
            level = (len(name) - len(name.lstrip(" ")) - 1) // 2
            entries.append((level, name.strip(), int(cumulative) / 1e6))
        # entries come children first; walk backwards to see ancestors first
        ancestors, pkg, sci = [], 0.0, 0.0
        for level, name, cum in reversed(entries):
            del ancestors[level:]
            in_scipy = any(a == "scipy" or a.startswith("scipy.") for a in ancestors)
            if level == 0 and name.split(".")[0] == "noma_aloha":
                pkg += cum
            if (name == "scipy" or name.startswith("scipy.")) and not in_scipy:
                sci += cum
            ancestors.append(name)
        package.append(pkg)
        scipy.append(sci)
    return statistics.median(package), statistics.median(scipy)


def probe_make_up(workload, seed):
    """The scenarios the layer probe runs: the same for every workload, apart
    from ``setup``, which is at the workload's own m."""
    sweep = wl.OptimizeSweep.from_seed(seed)
    wide = wl.Simulate.wide(seed)
    trace = wl.Simulate.trace(seed)

    def sim(w, **over):
        c = {k: getattr(w, k) for k in
             ("m", "v1", "v2", "gamma", "tau1", "tau2", "slots", "replications", "seed")}
        c.update(over)
        return c

    if isinstance(workload, wl.Simulate):
        setup = sim(workload)
    else:
        setup = sim(wide, m=sweep.m, v1=sweep.v1, v2=sweep.v2, gamma=sweep.gammas[0],
                    tau1=sweep.tau1, tau2=sweep.tau2)
    return sweep, {
        "sweep": {"m": sweep.m, "v1": sweep.v1, "v2": sweep.v2, "gammas": sweep.gammas,
                  "tau1": sweep.tau1, "tau2": sweep.tau2},
        "setup": setup,
        "m10": sim(trace),
        "m100": sim(wide, m=100, tau1=0.01, tau2=0.01, slots=50_000),
        "m1000": sim(wide),
        "trace_path": str(OUT / "probe.trace.csv"),
    }


def per_layer(sampler, seconds, seed):
    untraced, traced, failed = [], [], 0

    def step():
        nonlocal failed
        for into, flag in ((untraced, False), (traced, True)):
            got = sampler.sample(traced=flag)
            if got is None:
                failed += 1
            else:
                into.append(got)

    # half the time for the command, the rest for the probe and importtime
    measure(seconds / 2, step, 2)
    if not untraced or not traced:
        raise BenchError("every run of the command failed")
    sweep, made = probe_make_up(sampler.workload, seed)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), json.dumps(made)],
        env=sampler.env, cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, sampler.deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError("the layer probe failed")
    values = json.loads(proc.stdout.splitlines()[-1])
    values["import.package_s"], values["import.scipy_s"] = import_times(sampler.env)
    terms = [wl.ref.region(sweep.m, sweep.v1, sweep.v2, g).layer_terms
             for g in sweep.gammas]
    values["model.region_terms.min"] = min(terms)
    values["model.region_terms.median"] = statistics.median(terms)
    values["model.region_terms.max"] = max(terms)
    values["cli.self_s"] = statistics.median(s["self_s"] for s in traced)
    values["trace.overhead_s"] = (statistics.median(s["wall_s"] for s in traced)
                                  - statistics.median(s["wall_s"] for s in untraced))
    attempted = len(untraced) + len(traced) + failed + 1
    return values, attempted, failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S

    if not (SRC / "noma_aloha" / "cli.py").is_file():
        print(f"no noma_aloha package under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workload = wl.WORKLOADS[args.workload](args.seed)
    workload.expect()
    sampler = Sampler(workload, deadline)
    try:
        sampler.warm_up()
        if args.trace:
            values, attempted, failed = per_layer(sampler, args.seconds, args.seed)
            units = PER_LAYER
        else:
            values, attempted, failed = end_to_end(sampler, args.seconds)
            units = END_TO_END
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": not sampler.check_failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
