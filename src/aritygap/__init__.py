"""Essential arity, variable identification minors and arity gap of
functions on finite sets, with a gap classifier for Boolean functions
and exhaustive theorem sweeps.

The decision procedures (core, anf, classify) load with the package; the
generators and the sweep engine (verifier) load on first access to one of
their names, so a CLI analyze or classify call imports only what it runs.
"""

from importlib import import_module as _import_module

from .anf import ZhegalkinPolynomial, degree, from_anf, make_polynomial, occurs, polynomial_str, to_anf
from .classify import NOT_SPECIAL, FormTag, SpecialForm, classify, gap_via_classifier
from .core import (
    DEFAULT_BUDGET, FiniteFunction, GapReport, decode_index, encode_point, ess, essential_vars, essl, evaluate,
    gap_report, identify, is_essential, make_function,
)

__version__ = "0.1.0"

# Submodule -> the public names it provides, each resolved by __getattr__
# (PEP 562) on first access and then cached in the package globals.
_LAZY = {
    "generators": ("LiftSpec", "QuasiLinearSpec", "SplitMix64", "lift", "mix64", "quasi_linear",
                   "random_function", "substream_seed"),
    "verifier": ("Exhaustive", "Sampled", "SweepReport", "TheoremId", "check", "check_kplus1_lemma",
                 "find_restriction_witness", "sweep"),
}

__all__ = [
    "DEFAULT_BUDGET", "Exhaustive", "FiniteFunction", "FormTag", "GapReport", "LiftSpec", "NOT_SPECIAL",
    "QuasiLinearSpec", "Sampled", "SpecialForm", "SplitMix64", "SweepReport", "TheoremId",
    "ZhegalkinPolynomial", "anf", "check", "check_kplus1_lemma", "classify", "core", "decode_index",
    "degree", "encode_point", "errors", "ess", "essential_vars", "essl", "evaluate",
    "find_restriction_witness", "from_anf", "gap_report", "gap_via_classifier", "generators", "identify",
    "is_essential", "lift", "make_function", "make_polynomial", "mix64", "occurs", "polynomial_str",
    "quasi_linear", "random_function", "substream_seed", "sweep", "to_anf", "verifier",
]


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name == module or name in names:
            loaded = _import_module(f"{__name__}.{module}")
            value = globals()[name] = loaded if name == module else getattr(loaded, name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
