#!/usr/bin/env python3
"""Run every theorem sweep at desk scale and print the reports.

Mirrors the acceptance suite but as a plain script with progress output.
What each sweep exercises:
- Thm1: the full and diagonal witness searches;
- SalomaaMain: the gap scan at bound 2, on every table of arity 2 to 4
  and on 20,000 samples of arity 2, the sweep whose rejection sampling
  redraws: about 7,400 samples miss ess f >= 2 at their first draw and
  are redrawn as compact blocks of their own;
- ThmStr: the cubic rule and the classifier, on every table of arity 4
  and on samples of arity 5 and 6;
- ThmGen: the gap scan at bound k on samples of shape (3, 3, 4), and on
  all 390,625 tables of shape (2, 5, 3), a walk of base-5 codes that is
  cut into chunks at two workers or more;
- SalomaaAux and LemKplus1: the restriction and pair scans;
- LemDeg2: the walk of the degree-2 polynomials on 6 variables.
Most of the time goes to that walk and to the sampled ThmStr sweeps.
Timings are recorded in CHANGES.md and the BENCH_*.json files.
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
    (TheoremId.THM_GEN, Exhaustive(2, 5, 3)),
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
