"""sweep, search and generate, and the argparse parser that reads every command
line `cli.main` does not; plain analyze, anf and classify calls load neither."""

from __future__ import annotations

import json
import sys

from .cli import SCHEMA, _THEOREM_FLAGS, _budget, _read_text, cmd_analyze, cmd_anf, cmd_classify, function_file_text
from .core import gap_report, make_function
from .errors import ParseError, ValueOutOfRange


def cmd_sweep(args) -> int:
    from .verifier import Exhaustive, Sampled, TheoremId, sweep

    theorem = TheoremId[_THEOREM_FLAGS[args.theorem]]
    b = args.b if args.b is not None else args.k
    if args.count is not None:
        population = Sampled(args.k, b, args.n, args.count, args.seed, args.reject_hypothesis)
    else:
        population = Exhaustive(args.k, b, args.n)
    report = sweep(theorem, population, budget=_budget(), workers=args.workers)
    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=True))
    else:
        print(f"theorem: {report.theorem.value}")
        print(f"population: {report.population}")
        print(f"checked: {report.checked}  skipped: {report.skipped}")
        print(f"violations: {report.violation_count}")
        for f in report.violations:
            print(f"  violation: k={f.k} n={f.n} b={f.b} table={' '.join(map(str, f.table))}")
        for f in report.witnesses:
            print(f"witness: k={f.k} n={f.n} b={f.b} table={' '.join(map(str, f.table))}")
        state = "pass" if report.passed else "FAIL" if report.checked else "nothing checked"
        print(f"result: {state} (elapsed {report.elapsed_s:.2f}s)")
    return 0 if report.passed else 1 if report.checked else 4


def cmd_search(args) -> int:
    from .verifier import Sampled, _function_dict, _Search, sweep

    if args.k < 3:
        raise ValueOutOfRange("gap >= 3 search needs k >= 3; Boolean functions have gap at most 2")
    # A sampled sweep under ThmGen's hypothesis (ess f > k) whose recorded
    # "violations" are the functions with gap >= 3.
    population = Sampled(args.k, args.k, args.n, args.count, args.seed, True)
    report = sweep(_Search.GAP3, population, budget=_budget(), max_recorded=args.count)
    hits = [(f, gap_report(f)) for f in report.violations]
    payload = {
        "schema": SCHEMA,
        "k": args.k,
        "n": args.n,
        "count": args.count,
        "seed": args.seed,
        "found": [
            {**_function_dict(f), "ess": r.ess, "essl": r.essl, "gap": r.gap, "witness": list(r.witness)}
            for f, r in hits
        ],
    }
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    elif not hits:
        print(f"none found: {args.count} samples at k={args.k} n={args.n} all have gap <= 2")
    else:
        for f, r in hits:
            print(f"gap={r.gap} ess={r.ess} essl={r.essl} table={' '.join(map(str, f.table))}")
    return 0


def _load_json_spec(path: str) -> dict:
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON in {path}: {exc}") from exc


def _int(value) -> int:
    """A JSON integer as it is: no float, string or bool is truncated to one."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def cmd_generate(args) -> int:
    from .generators import LiftSpec, QuasiLinearSpec, lift, quasi_linear, random_function

    # Values are checked in the try, so a generator's SpecInvalid keeps its message.
    if args.quasilinear:
        spec = _load_json_spec(args.quasilinear)
        try:
            ql = QuasiLinearSpec(
                k=_int(spec["k"]),
                n=_int(spec["n"]),
                h_maps=tuple(tuple(map(_int, h)) for h in spec["h_maps"]),
                g_map=tuple(map(_int, spec["g_map"])),
            )
        except (KeyError, TypeError) as exc:
            raise ParseError(f"quasilinear spec needs k, n, h_maps, g_map: {exc}") from exc
        f = quasi_linear(ql)
        comment = "quasi-linear"
    elif args.lift:
        spec = _load_json_spec(args.lift)
        try:
            base = spec["base"]
            base_args = (_int(base["k"]), _int(base["b"]), _int(base["n"]), list(map(_int, base["table"])))
            gamma = tuple(map(_int, spec["gamma"]))
            phi = tuple(map(_int, spec["phi"]))
        except (KeyError, TypeError) as exc:
            raise ParseError(f"lift spec needs base, gamma, phi: {exc}") from exc
        f = lift(LiftSpec(base=make_function(*base_args), gamma=gamma, phi=phi))
        comment = "lift"
    else:
        k, b, n, seed = args.random
        f = random_function(k, b, n, seed, _budget())
        comment = f"random k={k} b={b} n={n} seed={seed}"
    text = function_file_text(f, comment=comment)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError(f"cannot write {args.out}: {exc}") from exc
    return 0


def _build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="aritygap",
        description="Essential arity, identification minors and arity gap of finite functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="ess, essl, gap and witness minor of a function file")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("anf", help="Zhegalkin polynomial of a Boolean function file")
    p.add_argument("path")
    p.set_defaults(func=cmd_anf)

    p = sub.add_parser("classify", help="match a Boolean function against the gap-2 forms")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("sweep", help="verify one theorem over a population")
    p.add_argument("--theorem", required=True, choices=sorted(_THEOREM_FLAGS))
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--b", type=int, default=None, help="defaults to k")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, default=None, help="sample count; omit for exhaustive")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--reject-hypothesis",
        action="store_true",
        help="resample until the theorem hypothesis holds instead of skipping",
    )
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("search", help="best-effort search for gap >= 3 on k >= 3 elements")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("generate", help="write a function file from a generator spec")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--quasilinear", metavar="SPEC.json")
    group.add_argument("--lift", metavar="SPEC.json")
    group.add_argument(
        "--random", nargs=4, type=int, metavar=("K", "B", "N", "SEED"), default=None
    )
    p.add_argument("--out", default="-", help="output path, '-' for stdout")
    p.set_defaults(func=cmd_generate)

    return parser
