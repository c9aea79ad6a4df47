"""Do two sets of benchmark runs of the same code agree within the bounds?

    python3 bench/agree.py

Runs ``bench/run.py --trace 0`` for ``run_seconds`` once per seed and
workload of BENCHMARK.json: seeds 1..10 make the first set, 11..20 the
second.  For every end-to-end metric and every workload it prints each set's
median and spread (quartile distance over median, as
``statistics.quantiles(n=4)`` gives the quartiles) and whether the sets
agree: every spread within the metric's bound, the second median no worse
than the first by more than the bound, and the same share of failed
operations.  The raw results go
to .bench_out/agree.json.  Exits 1 when anything disagrees or fails a check.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETS = 2
RUNS = 10


def one_run(workload, seed):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarise(sets):
    """One row per workload and metric; True when everything agrees."""
    ok = True
    print(f"{'workload':16} {'metric':12} {'bound':>5}  "
          + "  ".join(f"{'median' + str(i + 1):>12} {'spread':>6}" for i in range(len(sets)))
          + "  drift  verdict")
    for workload in sets[0]:
        runs = [s[workload] for s in sets]
        shares = {r["failed"] / r["attempted"] for rs in runs for r in rs}
        correct = all(r["correct"] for rs in runs for r in rs)
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians, spreads, verdict = [], [], "ok"
            for rs in runs:
                values = [r["metrics"][name]["value"] for r in rs]
                medians.append(statistics.median(values))
                spreads.append(spread(values))
                if spreads[-1] > bound:
                    verdict = "SPREAD"
            sign = 1.0 if metric["better"] == "lower" else -1.0
            drift = sign * (medians[1] - medians[0]) / medians[0]
            if drift > bound:
                verdict = "DRIFT"
            if len(shares) != 1:
                verdict = "FAILED-SHARE"
            if not correct:
                verdict = "INCORRECT"
            ok &= verdict == "ok"
            cells = "  ".join(f"{m:12.6g} {s:6.3f}" for m, s in zip(medians, spreads))
            print(f"{workload:16} {name:12} {bound:5.2f}  {cells}  {drift:+.3f}  {verdict}")
    return ok


def main():
    names = [w["name"] for w in SPEC["workloads"]]
    sets = []
    for k in range(SETS):
        results = {name: [] for name in names}
        for seed in range(1 + k * RUNS, 1 + (k + 1) * RUNS):
            for name in names:
                results[name].append(one_run(name, seed))
                print(f"set {k + 1} seed {seed} {name}: "
                      + json.dumps({m: round(v["value"], 4)
                                    for m, v in results[name][-1]["metrics"].items()}),
                      flush=True)
        sets.append(results)
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / "agree.json").write_text(json.dumps(sets, indent=1))
    return 0 if summarise(sets) else 1


if __name__ == "__main__":
    sys.exit(main())
