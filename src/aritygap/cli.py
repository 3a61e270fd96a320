"""Command line front end.

Function file format (decimal form):

    # optional comment lines
    k n b
    v0 v1 v2 ...        (k**n whitespace-separated values, any line breaks)

Row order: value v_i belongs to the argument tuple whose mixed-radix
encoding is i, with x1 the most significant digit.  For k = b = 2 the
single-line form "hex:<digits>" gives the 2**n-bit truth table as
big-endian hexadecimal, row 0 being the most significant bit.

JSON outputs all carry {"schema": "aritygap/1"}.  Exit codes: 0 success
(for sweeps: no violations), 1 sweep violations, 2 bad input, 3 budget
exceeded, 4 nothing checked (a sweep whose population held no function
satisfying the theorem's hypothesis).  A reader that closes standard output
early (`| head`) also gives status 1, without a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .anf import polynomial_str, to_anf
from .classify import NOT_SPECIAL, classify
from .core import DEFAULT_BUDGET, FiniteFunction, essential_vars, gap_report, make_function
from .errors import ArityGapError, BudgetExceeded, ParseError, ValueOutOfRange

# The sweep, search and generate commands import verifier and generators
# themselves, so analyze, anf and classify never load them.

SCHEMA = "aritygap/1"

# --theorem flag -> TheoremId member name.
_THEOREM_FLAGS = {
    "thm1": "THM1",
    "salomaamain": "THM_SALOMAA_MAIN",
    "thmgen": "THM_GEN",
    "salomaaaux": "THM_SALOMAA_AUX",
    "lemkplus1": "LEM_KPLUS1",
    "thmstr": "THM_STR",
    "lemdeg2": "LEM_DEG2",
}

_HEX_DIGITS = set("0123456789abcdefABCDEF")


def parse_function_text(text: str) -> FiniteFunction:
    """Parse the function file format; raises ParseError on any defect."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError("empty function file")
    if lines[0].startswith("hex:"):
        if len(lines) > 1:
            raise ParseError("hex form must be a single line")
        digits = lines[0][4:].strip()
        if not digits or not _HEX_DIGITS.issuperset(digits):
            raise ParseError(f"bad hex digits {digits!r}")
        nbits = 4 * len(digits)
        n = nbits.bit_length() - 1
        if 1 << n != nbits:
            raise ParseError(f"hex form needs 2**n bits, got {nbits}")
        # Big-endian hex with row 0 first is the packed Boolean table.
        return FiniteFunction(2, 2, n, int(digits, 16))
    header = lines[0].split()
    if len(header) != 3:
        raise ParseError(f"header must be 'k n b', got {lines[0]!r}")
    try:
        k, n, b = map(int, header)
        values = list(map(int, " ".join(lines[1:]).split()))
    except ValueError as exc:
        raise ParseError(f"non-integer token in function file: {exc}") from exc
    try:
        return make_function(k, b, n, values)
    except ArityGapError as exc:
        raise ParseError(str(exc)) from exc


def load_function(path: str) -> FiniteFunction:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_function_text(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def function_file_text(f: FiniteFunction, comment: str | None = None) -> str:
    """Render a FiniteFunction in the decimal file form."""
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append(f"{f.k} {f.n} {f.b}")
    table = f.table  # unpacked on each access
    for start in range(0, len(table), 32):
        lines.append(" ".join(map(str, table[start : start + 32])))
    return "\n".join(lines) + "\n"


def _budget() -> int:
    raw = os.environ.get("ARITYGAP_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise ParseError(f"ARITYGAP_BUDGET must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ParseError(f"ARITYGAP_BUDGET must be >= 1, got {value}")
    return value


def _emit(args, payload: dict, human_lines) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def cmd_analyze(args) -> int:
    f = load_function(args.path)
    ev = essential_vars(f)
    ev_line = "essential_vars: " + (" ".join(map(str, ev)) if ev else "-")
    payload = {
        "schema": SCHEMA,
        "k": f.k,
        "n": f.n,
        "b": f.b,
        "ess": len(ev),
        "essential_vars": list(ev),
        "essl": None,
        "gap": None,
        "witness": None,
    }
    if len(ev) < 2:
        _emit(args, payload, [ev_line, f"ess={len(ev)} gap: undefined"])
        return 0
    r = gap_report(f)
    payload.update(essl=r.essl, gap=r.gap, witness=list(r.witness))
    summary = f"ess={r.ess} essl={r.essl} gap={r.gap} witness=({r.witness[0]},{r.witness[1]})"
    _emit(args, payload, [ev_line, summary])
    return 0


def cmd_anf(args) -> int:
    print(polynomial_str(to_anf(load_function(args.path))))
    return 0


def cmd_classify(args) -> int:
    f = load_function(args.path)
    form = classify(to_anf(f))
    gap = 1 if form is NOT_SPECIAL else 2
    payload = {
        "schema": SCHEMA,
        "tag": form.tag.value,
        "participants": list(form.participants),
        "c": form.c,
        "gap": gap,
    }
    human = [
        f"tag={form.tag.value}"
        + (f" participants=({','.join(map(str, form.participants))})" if form.participants else "")
        + (f" c={form.c}" if form.c is not None else ""),
        f"gap={gap}",
    ]
    _emit(args, payload, human)
    return 0


def cmd_sweep(args) -> int:
    from .verifier import Exhaustive, Sampled, TheoremId, sweep

    theorem = TheoremId[_THEOREM_FLAGS[args.theorem]]
    b = args.b if args.b is not None else args.k
    if args.count is not None:
        population = Sampled(
            args.k, b, args.n, args.count, args.seed, args.reject_hypothesis
        )
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
        state = "pass" if report.passed else "FAIL" if report.violation_count else "nothing checked"
        print(f"result: {state} (elapsed {report.elapsed_s:.2f}s)")
    return 1 if report.violation_count else 0 if report.passed else 4


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
            print(
                f"gap={r.gap} ess={r.ess} essl={r.essl} "
                f"table={' '.join(map(str, f.table))}"
            )
    return 0


def _load_json_spec(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
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
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
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


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ArityGapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Point stdout at devnull so the flush at shutdown cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
