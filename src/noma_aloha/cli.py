"""Command-line front end, the package's only one.

Subcommands: ``region`` (decodable count pairs), ``analyze`` (one transmit
profile), ``optimize`` (the ascent, plus ``--oracle``, ``--baseline`` or
``--trace``), ``simulate`` (Monte Carlo against the closed forms) and
``sweep`` (one axis, plus ``--simulate`` and ``--optimize`` columns).

Machine-readable rows (CSV or JSON) go to stdout or --output; human-readable
summaries go to stderr.  Configuration precedence: command-line flags override
config-file values, which override the built-in defaults (m=10, v1=4, v2=1.5,
gamma=1.5).  A flag that sets an ``ExperimentConfig`` field has the field's
name as its dest.  Input is validated before any work starts.  Exit codes:
0 success, 2 configuration error, 3 internal error.
"""

import argparse
import csv
import io
import json
import math
import os
import sys
import typing
from dataclasses import Field, asdict, dataclass, fields, replace

from .model import (
    PowerProfile,
    Scenario,
    _baseline_throughput,
    _table_floor,
    average_throughput,
    baseline_optimum,
    baseline_success,
    region_bounds,
    success_probability,
)
from .optimize import _certify, coordinate_ascent
from .simulate import SimConfig, run_simulation

__all__ = ["main", "ExperimentConfig", "ConfigError"]

SWEEP_AXES = ("m", "tau1", "tau2", "gamma", "v1", "v2", "p_baseline")
# the most rows a command builds: a sweep's points, or the region's pairs
MAX_SWEEP_POINTS = 1_000_000
MAX_TABLE_TERMS = 1_000_000  # terms of a model table: about 300 MiB at its build's peak


class ConfigError(Exception):
    """Invalid configuration; reported with exit code 2."""


@dataclass
class ExperimentConfig:
    """Flat experiment settings; field names double as config-file keys."""

    m: int = 10
    v1: float = 4.0
    v2: float = 1.5
    gamma: float = 1.5
    tau1: float = 0.0
    tau2: float = 0.0
    axis: str | None = None
    start: float | None = None
    stop: float | None = None
    step: float | None = None
    slots: int = 1_000_000
    seed: int = 1
    replications: int = 10
    format: str = "csv"
    output: str | None = None


def _parse_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, _, val = line.partition("=")
                values[key.strip()] = val.strip()
    except OSError as e:
        raise ConfigError(f"cannot read config file: {e}") from None
    return values


def _convert(f: Field, raw: str):
    # an optional field ("float | None") converts to its one non-None type
    typ = next((t for t in typing.get_args(f.type) if t is not type(None)), f.type)
    if typ is str:
        return raw
    try:
        return typ(raw)
    except ValueError:
        raise ConfigError(
            f"config key '{f.name}' needs a value of type {typ.__name__}, got {raw!r}"
        ) from None


def _check_writable(path: str, what: str):
    """Reject a path that the command could not open for writing, before any
    work starts and without creating or truncating a file."""
    parent = os.path.dirname(path) or "."
    if not path or os.path.isdir(path):
        reason = "not a file"
    elif not os.path.isdir(parent):
        reason = f"no directory {parent}"
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        reason = "not writable"
    else:
        return
    raise ConfigError(f"cannot write {what} {path!r}: {reason}")


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge defaults, config file and command-line flags, in that order,
    and check that the output and trace paths can be written."""
    cfg = ExperimentConfig()
    if getattr(args, "config", None):
        by_name = {f.name: f for f in fields(cfg)}
        for key, raw in _parse_config_file(args.config).items():
            if key not in by_name:
                raise ConfigError(f"unknown config key '{key}'")
            setattr(cfg, key, _convert(by_name[key], raw))
    # each flag's dest is the field it sets, and an unset flag reads None
    given = {f.name: getattr(args, f.name, None) for f in fields(cfg)}
    cfg = replace(cfg, **{name: v for name, v in given.items() if v is not None})
    if cfg.format not in ("csv", "json"):
        raise ConfigError("format must be 'csv' or 'json'")
    if cfg.output:
        _check_writable(cfg.output, "output")
    trace = getattr(args, "trace_file", None)
    if trace is not None:
        _check_writable(trace, "trace file")
        # the summary row written last would truncate the trace
        if cfg.output and (
            os.path.samefile(cfg.output, trace)
            if os.path.exists(cfg.output) and os.path.exists(trace)
            else os.path.realpath(cfg.output) == os.path.realpath(trace)
        ):
            raise ConfigError(f"cannot write trace file {trace!r}: it is the output file")
    return cfg


def _checked(build, **kwargs):
    """``build(**kwargs)``, with the ValueError of its validation reported as
    a configuration error."""
    try:
        return build(**kwargs)
    except ValueError as e:
        raise ConfigError(str(e)) from None


def _scenario(cfg: ExperimentConfig) -> Scenario:
    s = _checked(Scenario, m=cfg.m, v1=cfg.v1, v2=cfg.v2, gamma=cfg.gamma)
    terms = s.m * (s.m + 1)  # at most a term per pair of each layer's region
    if terms > MAX_TABLE_TERMS and (floor := _table_floor(s)) > MAX_TABLE_TERMS:
        raise ConfigError(f"model table has at least {floor} terms, more than {MAX_TABLE_TERMS}")
    if terms > MAX_TABLE_TERMS:  # count them from the caps
        b = region_bounds(s)
        terms = sum(b.low_max_given_high + b.high_max_given_low, b.high_max + b.low_max)
    if terms > MAX_TABLE_TERMS:
        raise ConfigError(f"model table has {terms} terms, more than {MAX_TABLE_TERMS}")
    return s


def _profile(cfg: ExperimentConfig) -> PowerProfile:
    return _checked(PowerProfile, tau1=cfg.tau1, tau2=cfg.tau2)


def _sim_config(cfg: ExperimentConfig) -> SimConfig:
    return _checked(SimConfig, slots=cfg.slots, seed=cfg.seed, replications=cfg.replications)


# ---------------------------------------------------------------------------
# output rendering

def _say(msg: str):
    print(msg, file=sys.stderr)


def _fmt6(x: float) -> str:
    return format(x, ".6g")


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rows[0].keys())
    for row in rows:
        writer.writerow(_cell(v) for v in row.values())
    return buf.getvalue()


def _emit(rows: list[dict], cfg: ExperimentConfig):
    if cfg.format == "csv":
        text = _rows_to_csv(rows)
    else:
        text = json.dumps(rows, indent=2) + "\n"
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands

def cmd_region(args) -> int:
    cfg = build_config(args)
    s = _checked(Scenario, m=cfg.m, v1=cfg.v1, v2=cfg.v2, gamma=cfg.gamma)  # no model table
    # one row per pair n1 + n2 <= m; at m = 1e5 that is about 5e9 rows
    if (s.m + 1) * (s.m + 2) // 2 > MAX_SWEEP_POINTS:
        raise ConfigError(f"region table has more than {MAX_SWEEP_POINTS} rows")
    b = region_bounds(s)
    rows = [
        {"n1": n1, "n2": n2, "high_ok": b.in_high_region(n1, n2), "low_ok": b.in_low_region(n1, n2)}
        for n1 in range(s.m + 1)
        for n2 in range(s.m + 1 - n1)
    ]
    _say(
        f"high layer decodable: n1 <= {b.high_max}, "
        f"n2 caps per n1 {list(b.low_max_given_high)}"
    )
    _say(
        f"low layer decodable:  n2 <= {b.low_max}, "
        f"n1 caps per n2 {list(b.high_max_given_low)}"
    )
    _emit(rows, cfg)
    return 0


def cmd_analyze(args) -> int:
    cfg = build_config(args)
    s = _scenario(cfg)
    prof = _profile(cfg)
    p = success_probability(s, prof)
    th = average_throughput(s, prof)
    _say(f"p_success={_fmt6(p)} th_avg={_fmt6(th)}")
    _emit([{**asdict(s), **asdict(prof), "p_success": p, "th_avg": th}], cfg)
    return 0


def cmd_optimize(args) -> int:
    cfg = build_config(args)
    s = _scenario(cfg)
    if args.trace and (args.oracle or args.baseline):
        raise ConfigError("--trace emits only the ascent trace; drop --oracle and --baseline")
    res = coordinate_ascent(s)
    _say(
        f"tau1*={_fmt6(res.tau1_star)} tau2*={_fmt6(res.tau2_star)} "
        f"th*={_fmt6(res.th_star)} iterations={res.outer_iterations} "
        f"converged={res.converged}"
    )
    if args.trace:
        rows = [
            {"iteration": it, "tau1": t1, "tau2": t2, "throughput": th}
            for it, t1, t2, th in res.trace
        ]
        _emit(rows, cfg)
        return 0
    row = {
        **asdict(s),
        "tau1_star": res.tau1_star,
        "tau2_star": res.tau2_star,
        "th_star": res.th_star,
        "outer_iterations": res.outer_iterations,
        "converged": res.converged,
    }
    if args.oracle:
        tau1, tau2, th, bound = _certify(s)
        row.update(oracle_tau1=tau1, oracle_tau2=tau2, oracle_th=th, oracle_bound=bound)
        _say(f"oracle tau1={_fmt6(tau1)} tau2={_fmt6(tau2)} th={_fmt6(th)} bound={_fmt6(bound)}")
    if args.baseline:
        p_star, th_star = baseline_optimum(s)
        row["baseline_p_star"] = p_star
        row["baseline_th_star"] = th_star
        _say(f"baseline optimum: p={_fmt6(p_star)} th={_fmt6(th_star)}")
    _emit([row], cfg)
    return 0


def _sigma_ratio(delta: float, stderr: float, scale: float) -> float:
    if stderr > 0.0:
        return delta / stderr
    # zero-variance run: deltas at float-noise level do not count as disagreement
    if delta <= 1e-12 * max(1.0, abs(scale)):
        return 0.0
    return math.inf


def cmd_simulate(args) -> int:
    cfg = build_config(args)
    s = _scenario(cfg)
    prof = _profile(cfg)
    scfg = _sim_config(cfg)
    stats = run_simulation(s, prof, scfg, trace_path=args.trace_file)
    p = success_probability(s, prof)
    th = average_throughput(s, prof)
    dp = abs(stats.p_success_hat - p)
    dth = abs(stats.throughput_hat - th)
    p_ratio = _sigma_ratio(dp, stats.stderr_p, p)
    th_ratio = _sigma_ratio(dth, stats.stderr_th, th)
    # the stderr comes from the replications, so each ratio follows Student's
    # t with replications - 1 degrees of freedom
    dof = f"dof={scfg.replications - 1}"
    _say(
        f"p_success sim={_fmt6(stats.p_success_hat)} analytic={_fmt6(p)} "
        f"|delta|/stderr={_fmt6(p_ratio)} {dof}"
    )
    _say(
        f"throughput sim={_fmt6(stats.throughput_hat)} analytic={_fmt6(th)} "
        f"|delta|/stderr={_fmt6(th_ratio)} {dof}"
    )
    row = {
        **asdict(s),
        **asdict(prof),
        "slots": scfg.slots,
        "replications": scfg.replications,
        "seed": scfg.seed,
        "p_success_sim": stats.p_success_hat,
        "p_success_analytic": p,
        "p_abs_delta": dp,
        "p_stderr": stats.stderr_p,
        "p_delta_over_stderr": p_ratio,
        "th_sim": stats.throughput_hat,
        "th_analytic": th,
        "th_abs_delta": dth,
        "th_stderr": stats.stderr_th,
        "th_delta_over_stderr": th_ratio,
    }
    _emit([row], cfg)
    return 0


def _sweep_values(cfg: ExperimentConfig):
    if cfg.axis is None or cfg.start is None or cfg.stop is None or cfg.step is None:
        raise ConfigError("sweep requires axis, start, stop and step")
    if cfg.axis not in SWEEP_AXES:
        raise ConfigError(
            f"unknown sweep axis '{cfg.axis}' (valid axes: {', '.join(SWEEP_AXES)})"
        )
    if not all(map(math.isfinite, (cfg.start, cfg.stop, cfg.step))):
        raise ConfigError("sweep start, stop and step must be finite")
    if cfg.step <= 0:
        raise ConfigError("sweep step must be positive")
    if cfg.stop < cfg.start:
        raise ConfigError("sweep stop must not be smaller than start")
    # count the points before building them: the quotient can be huge or inf
    span = (cfg.stop - cfg.start) / cfg.step + 1e-9
    if not span < MAX_SWEEP_POINTS:
        raise ConfigError(f"sweep has more than {MAX_SWEEP_POINTS} points")
    count = int(math.floor(span)) + 1
    values = [cfg.start + k * cfg.step for k in range(count)]
    if cfg.axis == "m":
        out = []
        for v in values:
            iv = int(round(v))
            if abs(v - iv) > 1e-9 or iv < 1:
                raise ConfigError("sweep over m requires positive integer values")
            out.append(iv)
        return out
    return values


def _sweep_point(cfg: ExperimentConfig, value):
    point = cfg if cfg.axis == "p_baseline" else replace(cfg, **{cfg.axis: value})
    try:
        s, prof = _scenario(point), _profile(point)
        if cfg.axis == "p_baseline" and not 0.0 <= value <= 1.0:
            raise ConfigError("p must lie in [0, 1]")
    except ConfigError as e:
        raise ConfigError(f"sweep value {value!r} for axis '{cfg.axis}': {e}") from None
    return s, prof


def cmd_sweep(args) -> int:
    cfg = build_config(args)
    values = _sweep_values(cfg)
    if cfg.axis == "p_baseline" and (args.simulate or args.optimize):
        raise ConfigError("axis p_baseline supports neither --simulate nor --optimize")
    points = [_sweep_point(cfg, v) for v in values]  # validate all before output
    scfg = _sim_config(cfg) if args.simulate else None
    rows = []
    for value, (s, prof) in zip(values, points):
        if cfg.axis == "p_baseline":
            p = baseline_success(s, value)
            th = _baseline_throughput(s, value)
        else:
            p = success_probability(s, prof)
            th = average_throughput(s, prof)
        row = {cfg.axis: value, "p_success": p, "th_avg": th}
        if args.simulate:
            stats = run_simulation(s, prof, scfg)
            row["p_success_sim"] = stats.p_success_hat
            row["th_sim"] = stats.throughput_hat
            row["stderr_p"] = stats.stderr_p
            row["stderr_th"] = stats.stderr_th
        if args.optimize:
            res = coordinate_ascent(s)
            row["tau1_opt"] = res.tau1_star
            row["tau2_opt"] = res.tau2_star
            row["th_opt"] = res.th_star
            row["opt_iterations"] = res.outer_iterations
            row["opt_converged"] = res.converged
        rows.append(row)
    _say(f"swept {cfg.axis} over {len(rows)} points")
    _emit(rows, cfg)
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_scenario_args(p: argparse.ArgumentParser):
    p.add_argument("--config", help="config file (flat 'key = value' lines)")
    p.add_argument("--m", type=int, help="number of contending users")
    p.add_argument("--v1", type=float, help="high received SNR target")
    p.add_argument("--v2", type=float, help="low received SNR target")
    p.add_argument("--gamma", type=float, help="SINR decoding threshold")


def _add_profile_args(p: argparse.ArgumentParser):
    p.add_argument("--tau1", type=float, help="high-power transmit probability")
    p.add_argument("--tau2", type=float, help="low-power transmit probability")


def _add_sim_args(p: argparse.ArgumentParser):
    p.add_argument("--slots", type=int, help="slots per replication")
    p.add_argument("--seed", type=int, help="simulation seed")
    p.add_argument("--replications", type=int, help="independent replications")


def _add_output_args(p: argparse.ArgumentParser):
    p.add_argument("--format", choices=("csv", "json"), help="output format")
    p.add_argument("--output", help="output path (default: stdout)")


def _add_optimize_args(p: argparse.ArgumentParser):
    p.add_argument("--oracle", action="store_true", help="also certify the optimum")
    p.add_argument(
        "--baseline", action="store_true", help="also print the single-power optimum"
    )
    p.add_argument(
        "--trace", action="store_true", help="emit the ascent trace instead of the summary"
    )


def _add_trace_file_arg(p: argparse.ArgumentParser):
    p.add_argument("--trace-file", help="per-slot CSV trace path")


def _add_sweep_args(p: argparse.ArgumentParser):
    p.add_argument("--axis", help=f"sweep axis, one of {', '.join(SWEEP_AXES)}")
    p.add_argument("--start", type=float)
    p.add_argument("--stop", type=float)
    p.add_argument("--step", type=float)
    p.add_argument(
        "--simulate", action="store_true", help="add Monte Carlo columns per point"
    )
    p.add_argument(
        "--optimize", action="store_true", help="add optimised profile columns per point"
    )


# subcommand, its help line, its handler and its option groups in help order
_COMMANDS = (
    ("region", "enumerate decodable count pairs", cmd_region, (
        _add_scenario_args, _add_output_args)),
    ("analyze", "success probability and throughput at a point", cmd_analyze, (
        _add_scenario_args, _add_profile_args, _add_output_args)),
    ("optimize", "maximise throughput over (tau1, tau2)", cmd_optimize, (
        _add_scenario_args, _add_output_args, _add_optimize_args)),
    ("simulate", "Monte Carlo run with analytic comparison", cmd_simulate, (
        _add_scenario_args, _add_profile_args, _add_sim_args, _add_output_args,
        _add_trace_file_arg)),
    ("sweep", "one-axis parameter sweep", cmd_sweep, (
        _add_scenario_args, _add_profile_args, _add_sim_args, _add_output_args,
        _add_sweep_args)),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noma-aloha",
        description="Two-power NOMA slotted ALOHA: analysis, optimisation, simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary, func, groups in _COMMANDS:
        p = sub.add_parser(name, help=summary)
        for add_args in groups:
            add_args(p)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    except Exception as e:  # pragma: no cover - defensive
        print(f"internal error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
