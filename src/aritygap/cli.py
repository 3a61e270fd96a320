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
early (`| head`) also gives status 1, without a traceback.  `main` reads plain
analyze, anf and classify lines itself; aritygap.commands reads the rest.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

from .anf import polynomial_str, to_anf
from .classify import NOT_SPECIAL, classify
from .core import DEFAULT_BUDGET, FiniteFunction, essential_vars, field_width, gap_report, make_function
from .errors import ArityGapError, BudgetExceeded, ParseError

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


def _digit_fields(k: int, b: int, n: int, tokens: list[str]) -> int | None:
    """The packed table of k**n tokens that are each one ASCII digit below b <= 10, read by
    one int(): such a digit is the base-2**w numeral of its w-bit field.  None for any other body."""
    digits, count = "".join(tokens), len(tokens)
    # translate deletes the digits below b, so it leaves "" only if every token
    # is one; the count test is make_function's, which builds no huge k**n.
    if (not (1 <= b <= 10 and k >= 1 and n >= 1 and len(digits) == count)
            or digits.translate(dict.fromkeys(range(48, 48 + b)))
            or (k > 1 and n >= count.bit_length()) or k**n != count):
        return None
    return int(digits, 1 << field_width(b))


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
        tokens = " ".join(lines[1:]).split()
        bits = _digit_fields(k, b, n, tokens)
        if bits is not None:
            return FiniteFunction(k, b, n, bits)
        values = list(map(int, tokens))
    except ValueError as exc:
        raise ParseError(f"non-integer token in function file: {exc}") from exc
    try:
        return make_function(k, b, n, values)
    except ArityGapError as exc:
        raise ParseError(str(exc)) from exc


def _read_text(path: str) -> str:
    """The UTF-8 text of a file; ParseError if it cannot be read or decoded."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def load_function(path: str) -> FiniteFunction:
    return parse_function_text(_read_text(path))


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


def _file_command(argv: list[str]) -> SimpleNamespace | None:
    """What argparse reads from `analyze PATH [--json]`, `classify PATH [--json]` or `anf PATH`;
    None for any other line (a PATH starting with '-', an abbreviated, repeated or extra argument)."""
    command, *rest = argv or [""]
    func = {"analyze": cmd_analyze, "anf": cmd_anf, "classify": cmd_classify}.get(command)
    options = {} if command == "anf" else {"json": "--json" in rest}
    if options.get("json"):
        rest.remove("--json")
    if func is None or len(rest) != 1 or rest[0].startswith("-"):
        return None
    return SimpleNamespace(command=command, func=func, path=rest[0], **options)


def main(argv=None) -> int:
    args = _file_command(sys.argv[1:] if argv is None else argv)
    if args is None:
        from .commands import _build_parser
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
