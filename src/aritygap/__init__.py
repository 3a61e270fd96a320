"""Essential arity, variable identification minors and arity gap of
functions on finite sets, with a gap classifier for Boolean functions
and exhaustive theorem sweeps."""

from .anf import (
    ZhegalkinPolynomial,
    degree,
    from_anf,
    make_polynomial,
    occurs,
    polynomial_str,
    to_anf,
)
from .classify import NOT_SPECIAL, FormTag, SpecialForm, classify, gap_via_classifier
from .core import (
    FiniteFunction,
    GapReport,
    encode_point,
    decode_index,
    ess,
    essential_vars,
    essl,
    evaluate,
    gap_report,
    identify,
    is_essential,
    make_function,
)
from .generators import (
    DEFAULT_BUDGET,
    LiftSpec,
    QuasiLinearSpec,
    SplitMix64,
    lift,
    mix64,
    quasi_linear,
    random_function,
    substream_seed,
)
from .verifier import (
    Exhaustive,
    Sampled,
    SweepReport,
    TheoremId,
    check,
    check_kplus1_lemma,
    find_restriction_witness,
    sweep,
)

__version__ = "0.1.0"
