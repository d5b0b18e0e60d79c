#!/usr/bin/env python3
"""Checks that two all-workload bench_e2e runs agree within the bounds.

    python3 bench/e2e/agree.py A.json B.json

A and B are files written by `bench/e2e/run.py --out` (untraced). For every
(workload, end-to-end metric) pair the script prints both values and the
relative difference (B - A) / A, and marks the pair when that difference,
in either direction, exceeds the metric's bound in BENCHMARK.json. It also
prints whether the two runs saw identical inputs (same input digest). It
exits 1 when any pair is marked or missing. Use it on two runs of ONE
commit: it measures run-to-run agreement, not a regression between commits.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a, b = (json.loads(Path(p).read_text())["workloads"] for p in argv[1:])
    print(f"{'workload':14s} {'metric':16s} {'A':>14s} {'B':>14s} "
          f"{'diff':>8s} {'bound':>6s}")
    bad = 0
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in a or workload not in b:
            side = "A" if workload not in a else "B"
            print(f"{workload:14s} missing from {side}")
            bad += 1
            continue
        same = a[workload]["detail"]["input_digest"] == \
            b[workload]["detail"]["input_digest"]
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            va = a[workload]["metrics"][name]["value"]
            vb = b[workload]["metrics"][name]["value"]
            diff = (vb - va) / va if va else float("inf")
            mark = "" if abs(diff) <= bound else "  EXCEEDS"
            bad += bool(mark)
            print(f"{workload:14s} {name:16s} {va:14.6g} {vb:14.6g} "
                  f"{diff:+8.2%} {bound:6.0%}{mark}")
        print(f"{workload:14s} inputs {'identical' if same else 'DIFFER'}")
    print("agree" if bad == 0 else f"{bad} pair(s) outside their bounds")
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
