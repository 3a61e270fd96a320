#!/usr/bin/env python3
"""Run every theorem sweep at desk scale and print the reports.

Mirrors the acceptance suite but as a plain script with progress output.
With one worker expect about 1.5 s on a shared 2-vCPU host with Python
3.11, most of it in the degree-2 enumeration (0.6 s) and the two sampled
ThmStr sweeps (0.19 and 0.36 s); the exhaustive SalomaaAux and LemKplus1
sweeps, checked as lanes, take about 0.003 s each.  The sampled
SalomaaMain sweep on arity 2 is the one whose rejection sampling redraws:
about 7,400 of its 20,000 samples miss ess f >= 2 at their first draw and
are redrawn as compact blocks of their own.
"""

import argparse
import json
import sys

from aritygap import Exhaustive, Sampled, TheoremId, sweep

SWEEPS = [
    (TheoremId.THM1, Exhaustive(2, 2, 2)),
    (TheoremId.THM1, Exhaustive(3, 3, 2)),
    (TheoremId.THM1, Exhaustive(3, 3, 3)),
    (TheoremId.THM_SALOMAA_MAIN, Exhaustive(2, 2, 2)),
    (TheoremId.THM_SALOMAA_MAIN, Exhaustive(2, 2, 3)),
    (TheoremId.THM_SALOMAA_MAIN, Exhaustive(2, 2, 4)),
    (TheoremId.THM_SALOMAA_MAIN, Sampled(2, 2, 2, 20000, seed=20250802, reject_until_hypothesis=True)),
    (TheoremId.THM_STR, Exhaustive(2, 2, 4)),
    (TheoremId.THM_STR, Sampled(2, 2, 5, 100000, seed=20250805, reject_until_hypothesis=True)),
    (TheoremId.THM_STR, Sampled(2, 2, 6, 100000, seed=20250806, reject_until_hypothesis=True)),
    (TheoremId.THM_GEN, Sampled(3, 3, 4, 10000, seed=42, reject_until_hypothesis=True)),
    (TheoremId.THM_SALOMAA_AUX, Exhaustive(2, 2, 4)),
    (TheoremId.LEM_KPLUS1, Exhaustive(2, 2, 4)),
    (TheoremId.LEM_DEG2, Exhaustive(2, 2, 6)),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", action="store_true", help="one JSON report per line")
    parser.add_argument("--workers", type=int, default=None)
    args = parser.parse_args()

    failures = 0
    for theorem, population in SWEEPS:
        report = sweep(theorem, population, workers=args.workers)
        if args.json:
            print(json.dumps(report.to_dict(), sort_keys=True))
        else:
            status = "pass" if report.passed else "FAIL"
            print(
                f"{status}  {report.theorem.value:<15} {report.population:<60} "
                f"checked={report.checked} skipped={report.skipped} "
                f"violations={report.violation_count} ({report.elapsed_s:.1f}s)"
            )
        failures += 0 if report.passed else 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
