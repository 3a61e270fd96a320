"""The mutation catalogue in scripts/mutants.py must stay in step with the
code: every catalogued text still occurs exactly once in its file.  The
mutants themselves run outside this suite (python scripts/mutants.py)."""

import importlib.util
from pathlib import Path

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
