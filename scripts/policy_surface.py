#!/usr/bin/env python3
"""Success probability and throughput over the (tau1, tau2) simplex.

Scans a regular grid and writes one CSV row per feasible grid point; the two
surfaces peak at different profiles, which is what makes the throughput
objective worth optimising on its own.
"""

import argparse
import csv
import pathlib

import numpy as np

from noma_aloha.model import Scenario, _evaluate


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m", type=int, default=10)
    ap.add_argument("--v1", type=float, default=4.0)
    ap.add_argument("--v2", type=float, default=1.5)
    ap.add_argument("--gamma", type=float, default=1.5)
    ap.add_argument("--step", type=float, default=0.02)
    ap.add_argument("--output", default="results/policy_surface.csv")
    args = ap.parse_args()

    s = Scenario(m=args.m, v1=args.v1, v2=args.v2, gamma=args.gamma)
    path = pathlib.Path(args.output)
    path.parent.mkdir(parents=True, exist_ok=True)

    best_p = (0.0, 0.0, 0.0)
    best_th = (0.0, 0.0, 0.0)
    rows = 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["tau1", "tau2", "p_success", "th_avg"])
        i = 0
        while (tau1 := i * args.step) <= 1.0:
            # one row of the grid: j*step for j = 0, 1, ... while tau1 + tau2 <= 1
            tau2 = np.arange(int((1.0 - tau1) / args.step) + 3) * args.step
            tau2 = tau2[tau1 + tau2 <= 1.0]
            th, p = _evaluate(s, tau1, tau2)
            writer.writerows(
                [format(x, ".17g") for x in (tau1, *rest)]
                for rest in zip(tau2.tolist(), p.tolist(), th.tolist())
            )
            rows += tau2.size
            j = int(np.argmax(p))
            if p[j] > best_p[0]:
                best_p = (float(p[j]), tau1, float(tau2[j]))
            j = int(np.argmax(th))
            if th[j] > best_th[0]:
                best_th = (float(th[j]), tau1, float(tau2[j]))
            i += 1
    print(f"wrote {path} ({rows} grid points)")
    print(f"success peaks at tau1={best_p[1]:.2f} tau2={best_p[2]:.2f} (p={best_p[0]:.4f})")
    print(f"throughput peaks at tau1={best_th[1]:.2f} tau2={best_th[2]:.2f} (th={best_th[0]:.4f})")


if __name__ == "__main__":
    main()
