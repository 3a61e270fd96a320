"""The mutation catalogue in scripts/mutants.py must stay in step with the
code: every catalogued text still occurs exactly once in its file, and
every selection names a test file that defines the classes and tests it
names, and --only refuses a name outside the catalogue.  The mutants
themselves run outside this suite (python scripts/mutants.py)."""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _catalogue():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_catalogued_text_occurs_once_in_its_file():
    mutants = _catalogue()
    assert mutants.MUTANTS
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for m in mutants.MUTANTS:
        text = (ROOT / m.file).read_text(encoding="utf-8")
        assert m.selection and mutants.mutated(text, m) != text, m.name


def _defines(body, names) -> bool:
    """Whether the statements define names[0], a class or function, whose
    body defines the rest in turn."""
    if not names:
        return True
    for node in body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == names[0]:
            return _defines(node.body, names[1:])
    return False


def test_every_selection_names_a_defined_test():
    for m in _catalogue().MUTANTS:
        for selection in m.selection:
            path, *names = selection.split("::")
            assert (ROOT / path).is_file(), (m.name, selection)
            tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
            # A parametrized id, test[5], is defined by its function.
            assert _defines(tree.body, [name.split("[")[0] for name in names]), (m.name, selection)


@pytest.mark.parametrize("names", [["no-such-mutant"], ["gap1-kernel-returns-meets", "no-such-mutant"]])
def test_only_an_unknown_name_exits_2_before_running_anything(names):
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / "mutants.py"), "--only", *names],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 2 and "no-such-mutant" in run.stderr and run.stdout == ""
