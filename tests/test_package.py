"""The package surface, what a CLI call imports, and the names README.md cites.

`import aritygap` loads core, anf and classify; generators and verifier
load on first access to one of their names.  A plain analyze, anf or
classify command line is read by `cli` itself, without argparse or the
engine commands of `aritygap.commands`.  Each import check runs in a fresh
interpreter, since this test process has long imported everything.
"""

import importlib
import inspect
import json
import os
import pickle
import pkgutil
import re
import subprocess
import sys
import typing
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# The public names of the package, as `from aritygap import *` binds them.
PUBLIC = sorted(
    "DEFAULT_BUDGET Exhaustive FiniteFunction FormTag GapReport LiftSpec NOT_SPECIAL QuasiLinearSpec"
    " Sampled SpecialForm SplitMix64 SweepReport TheoremId ZhegalkinPolynomial anf check"
    " check_kplus1_lemma classify core decode_index degree encode_point errors ess essential_vars essl"
    " evaluate find_restriction_witness from_anf gap_report gap_via_classifier generators identify"
    " is_essential lift make_function make_polynomial mix64 occurs polynomial_str quasi_linear"
    " random_function substream_seed sweep to_anf verifier".split()
)

# Runs `python -m aritygap ARGS...` in this interpreter, then prints the
# loaded modules as one JSON line after the CLI's output.
MODULE_RUNNER = """
import json, runpy, sys
try:
    runpy.run_module("aritygap", run_name="__main__", alter_sys=True)
finally:
    print(json.dumps(sorted(sys.modules)))
"""

SWEEP_ENGINE = {"aritygap.verifier", "aritygap.generators", "multiprocessing"}

# What only command lines other than the plain file commands load.
PARSER = {"argparse", "gettext", "aritygap.commands"}


# Modules a cold CLI call should not pay for; dataclasses alone loads
# inspect, ast, dis and tokenize.
HEAVY = {"dataclasses", "inspect", "typing"}


def run_python(code: str, *args: str, flags: tuple[str, ...] = ()) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, *flags, "-c", code, *args], capture_output=True, text=True, env=env,
                            timeout=60)
    assert result.returncode == 0, result.stderr
    return result


class TestCliImports:
    @pytest.mark.parametrize(
        "command, text, expected",
        [
            ("analyze", "2 3 2\n0 0 0 1 0 1 1 1\n", {"ess": 3, "essl": 1, "gap": 2}),
            ("classify", "hex:6", {"tag": "LinearParity", "gap": 2}),
        ],
        ids=["analyze", "classify"],
    )
    def test_analyze_and_classify_load_no_sweep_engine(self, tmp_path, command, text, expected):
        path = tmp_path / "f.fn"
        path.write_text(text, encoding="utf-8")
        payload, modules = run_python(MODULE_RUNNER, command, str(path), "--json").stdout.splitlines()
        assert json.loads(payload).items() >= expected.items()
        modules = set(json.loads(modules))
        assert {"aritygap.cli", "aritygap.core", "aritygap.anf", "aritygap.classify"} <= modules
        assert modules & SWEEP_ENGINE == set()

    # -S keeps site from preloading typing, as some installations do.
    @pytest.mark.parametrize("flags", [(), ("-S",)], ids=["site", "no-site"])
    @pytest.mark.parametrize("command, text", [("analyze", "2 2 2\n0 1 1 0\n"), ("classify", "hex:6")],
                             ids=["analyze", "classify"])
    def test_analyze_and_classify_load_no_dataclasses_inspect_or_typing(self, tmp_path, flags, command, text):
        path = tmp_path / "f.fn"
        path.write_text(text, encoding="utf-8")
        bare = set(json.loads(run_python("import json, sys; print(json.dumps(sorted(sys.modules)))",
                                         flags=flags).stdout))
        modules = run_python(MODULE_RUNNER, command, str(path), flags=flags).stdout.splitlines()[-1]
        loaded = set(json.loads(modules)) - bare
        assert "aritygap.cli" in loaded
        assert {m for m in loaded if m.partition(".")[0] in HEAVY} == set()

    def test_the_runner_sees_what_a_sweep_loads(self):
        payload, modules = run_python(MODULE_RUNNER, "sweep", "--theorem", "salomaamain", "--n", "2",
                                      "--json").stdout.splitlines()
        assert json.loads(payload)["checked"] > 0
        assert {"aritygap.verifier", "aritygap.generators"} | PARSER <= set(json.loads(modules))

    @pytest.mark.parametrize("argv", [("analyze", "--json"), ("classify",), ("anf",)],
                             ids=["analyze", "classify", "anf"])
    def test_file_commands_load_no_argparse_or_engine_commands(self, tmp_path, argv):
        path = tmp_path / "f.fn"
        path.write_text("2 2 2\n0 1 1 1\n", encoding="utf-8")
        lines = run_python(MODULE_RUNNER, argv[0], str(path), *argv[1:]).stdout.splitlines()
        assert set(json.loads(lines[-1])) & PARSER == set()

    @pytest.mark.parametrize("argv", [("--help",), ("analyze", "--help")], ids=["help", "analyze-help"])
    def test_help_loads_the_parser(self, argv):
        lines = run_python(MODULE_RUNNER, *argv).stdout.splitlines()
        assert lines[0].startswith("usage: aritygap") and PARSER <= set(json.loads(lines[-1]))


# A backticked `_name` or `module.name` in README.md, a call's arguments aside.
CITED = re.compile(r"(?:(\w+)\.)?(\w+)(?:\(.*\))?")


class TestReadme:
    def test_every_cited_private_or_module_name_resolves(self):
        """README.md names `_name`s and `module.name`s of aritygap; each must exist.
        perfbench/README.md describes the benchmark and is not checked here."""
        import aritygap

        modules = {p.stem: importlib.import_module(f"aritygap.{p.stem}")
                   for p in (SRC / "aritygap").glob("*.py") if p.stem not in ("__init__", "__main__")}
        text = re.sub(r"```.*?```", "", (SRC.parent / "README.md").read_text(encoding="utf-8"), flags=re.S)
        checked, missing = 0, []
        for span in re.findall(r"`([^`]+)`", text):
            match = CITED.fullmatch(span)
            if match is None:
                continue
            owner, name = match.groups()
            if owner is None and name.startswith("_"):
                found = any(hasattr(m, name) for m in (aritygap, *modules.values()))
            elif owner == "aritygap":
                found = name in modules or hasattr(aritygap, name)
            elif owner in modules:
                found = hasattr(modules[owner], name)
            else:
                continue
            checked += 1
            if not found:
                missing.append(span)
        assert missing == [] and checked >= 8


class TestPackageSurface:
    def test_star_import_binds_the_public_names(self):
        out = run_python("import aritygap\nns = {}\nexec('from aritygap import *', ns)\n"
                         "print(sorted(set(ns) - {'__builtins__'}))\nprint(sorted(aritygap.__all__))")
        assert out.stdout.splitlines() == [str(PUBLIC)] * 2

    @pytest.mark.parametrize("first", ["import aritygap", "import aritygap.verifier", "import aritygap.classify",
                                       "import aritygap.generators", "import aritygap.cli"])
    def test_classify_is_the_function_whatever_loads_first(self, first):
        out = run_python(f"{first}\nimport aritygap\nimport aritygap.verifier\n"
                         "print(aritygap.classify.__module__, callable(aritygap.classify))")
        assert out.stdout.split() == ["aritygap.classify", "True"]

    def test_lazy_names_are_the_submodules_objects(self):
        out = run_python(
            "import sys, aritygap\n"
            "print(sorted(m for m in ('aritygap.verifier', 'aritygap.generators') if m in sys.modules))\n"
            "import aritygap.verifier as v, aritygap.generators as g\n"
            "print(aritygap.sweep is v.sweep, aritygap.TheoremId is v.TheoremId,"
            " aritygap.random_function is g.random_function, aritygap.verifier is v, aritygap.generators is g)\n"
            "print('sweep' in vars(aritygap))"
        )
        assert out.stdout.splitlines() == ["[]", "True True True True True", "True"]

    def test_every_public_name_resolves(self):
        import aritygap
        import aritygap.generators as generators
        import aritygap.verifier as verifier

        for name in PUBLIC:
            assert getattr(aritygap, name) is not None, name
        assert aritygap.sweep is verifier.sweep
        assert aritygap.SplitMix64 is generators.SplitMix64
        assert aritygap.DEFAULT_BUDGET == generators.DEFAULT_BUDGET == 1 << 24

    def test_every_function_annotation_resolves(self):
        # Under `from __future__ import annotations` an annotation is a string;
        # each must name what its module binds, not a name imported in a body.
        functions = []
        for info in pkgutil.iter_modules([str(SRC / "aritygap")]):
            module = importlib.import_module(f"aritygap.{info.name}")
            for obj in vars(module).values():
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    functions.append(obj)
                elif inspect.isclass(obj):
                    members = [m.fget if isinstance(m, property) else m for m in vars(obj).values()]
                    functions += [m for m in members if inspect.isfunction(m)]
        unresolved = []
        for f in functions:
            try:
                typing.get_type_hints(f)
            except NameError as exc:
                unresolved.append(f"{f.__module__}.{f.__qualname__}: {exc}")
        assert unresolved == [] and len(functions) > 50

    @pytest.mark.parametrize("name", ["nope", "_LAZY_", "random_lanes", "_Search"])
    def test_unknown_name_raises_attribute_error(self, name):
        import aritygap

        with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
            getattr(aritygap, name)


# One instance of each public record, with the repr its frozen dataclass had.
RECORD_REPRS = {
    "FiniteFunction": "FiniteFunction(k=2, b=2, n=3, bits=23)",
    "GapReport": "GapReport(ess=3, essl=1, gap=2, witness=(1, 2))",
    "ZhegalkinPolynomial": "ZhegalkinPolynomial(arity=3, coef=22)",
    "SpecialForm": "SpecialForm(tag=<FormTag.TRIANGLE_MAJ: 'TriangleMaj'>, participants=(1, 2, 3), c=0)",
    "Exhaustive": "Exhaustive(k=2, b=2, n=3)",
    "Sampled": "Sampled(k=3, b=3, n=4, count=10, seed=42, reject_until_hypothesis=False)",
    "SweepReport": "SweepReport(theorem=<TheoremId.THM_GEN: 'ThmGen'>, population='exhaustive k=2 b=2 n=3',"
                   " checked=10, skipped=2, violation_count=0, violations=(),"
                   " witnesses=(FiniteFunction(k=2, b=2, n=3, bits=23),), exhaustive=True, passed=True,"
                   " elapsed_s=0.5)",
    "QuasiLinearSpec": "QuasiLinearSpec(k=3, n=2, h_maps=((0, 1, 1), (1, 0, 0)), g_map=(0, 2))",
    "LiftSpec": "LiftSpec(base=FiniteFunction(k=2, b=2, n=2, bits=6), gamma=(0, 1, 1), phi=(0, 2))",
}


def _records() -> dict:
    from aritygap import (
        Exhaustive, FiniteFunction, LiftSpec, QuasiLinearSpec, Sampled, SweepReport, TheoremId, classify,
        gap_report, to_anf,
    )

    f = FiniteFunction(2, 2, 3, 23)  # majority
    return {
        "FiniteFunction": f,
        "GapReport": gap_report(f),
        "ZhegalkinPolynomial": to_anf(f),
        "SpecialForm": classify(to_anf(f)),
        "Exhaustive": Exhaustive(2, 2, 3),
        "Sampled": Sampled(3, 3, 4, 10, 42),
        "SweepReport": SweepReport(TheoremId.THM_GEN, "exhaustive k=2 b=2 n=3", 10, 2, 0, (), (f,), True, True, 0.5),
        "QuasiLinearSpec": QuasiLinearSpec(3, 2, ((0, 1, 1), (1, 0, 0)), (0, 2)),
        "LiftSpec": LiftSpec(FiniteFunction(2, 2, 2, 6), (0, 1, 1), (0, 2)),
    }


class TestRecords:
    @pytest.mark.parametrize("name", RECORD_REPRS)
    def test_record_is_an_immutable_picklable_named_tuple(self, name):
        r = _records()[name]
        assert type(r).__name__ == name and repr(r) == RECORD_REPRS[name]
        assert hash(r) == hash(tuple(r))
        field = r._fields[0]
        with pytest.raises(AttributeError):
            setattr(r, field, None)
        with pytest.raises(AttributeError):
            r.extra = 1
        copy = pickle.loads(pickle.dumps(r))
        assert type(copy) is type(r) and copy == r
        changed = r._replace(**{field: None})
        assert type(changed) is type(r) and getattr(changed, field) is None
        assert changed[1:] == r[1:] and repr(r) == RECORD_REPRS[name]
