"""Exact-arithmetic umbral calculus.

Delta operators as truncated formal series in the derivative, polynomial
sequences of binomial type, Lagrange inversion, connection constants, and
the logarithmic extension built on harmonic logarithms. All coefficients
are rational and exact; numeric evaluation happens only at the boundary.
"""

from importlib import import_module

from .errors import (
    ParseError,
    PreconditionError,
    UmbraError,
    VerificationFailure,
)
from .numbers import (
    bernoulli,
    bernoulli_higher,
    elementary_symmetric,
    roman_coefficient,
    roman_factorial,
    roman_number,
    stirling_first,
    stirling_second,
)
from .series import (
    INF,
    TruncatedSeries,
    compose,
    compositional_inverse,
    constant,
    exp_series,
    formal_derivative,
    from_coeffs,
    identity,
    int_pow,
    log_series,
    monomial,
    mul,
    reciprocal,
)
from .operators import (
    CATALOG_NAMES,
    DELTA_NAMES,
    DeltaOperator,
    Polynomial,
    ShiftInvariantOperator,
    apply_to_polynomial,
    catalog,
    expand_in_basis,
    lagrange_inversion,
    pincherle_derivative,
)
from .sequences import (
    BinomialSequence,
    ConnectionMatrix,
    connection_constants,
    conjugate_sequence,
    generate_recurrence,
    generate_transfer,
    ramey_sequence,
    taylor_expand,
    umbral_compose,
    verify_binomial_identity,
)
from .logarithmic import (
    HarmonicLogSeries,
    LogBinomialSequence,
    apply_operator,
    augmentation,
    evaluate_numeric,
    harmonic_log,
    log_conjugate_sequence,
    log_lower_factorial,
    log_sequence,
    newton_expand,
    roman_shift,
    tail_bound,
)

__version__ = "0.1.0"

__all__ = [
    "BinomialSequence",
    "CATALOG_NAMES",
    "ConnectionMatrix",
    "DELTA_NAMES",
    "DeltaOperator",
    "HarmonicLogSeries",
    "INF",
    "LogBinomialSequence",
    "ParseError",
    "Polynomial",
    "PreconditionError",
    "SUITE_NAMES",
    "ShiftInvariantOperator",
    "TruncatedSeries",
    "UmbraError",
    "VerificationFailure",
    "apply_operator",
    "apply_to_polynomial",
    "augmentation",
    "bernoulli",
    "bernoulli_higher",
    "catalog",
    "compose",
    "compositional_inverse",
    "connection_constants",
    "conjugate_sequence",
    "constant",
    "elaborate",
    "elementary_symmetric",
    "evaluate_numeric",
    "exp_series",
    "expand_in_basis",
    "formal_derivative",
    "from_coeffs",
    "generate_recurrence",
    "generate_transfer",
    "harmonic_log",
    "identity",
    "int_pow",
    "lagrange_inversion",
    "log_conjugate_sequence",
    "log_lower_factorial",
    "log_sequence",
    "log_series",
    "monomial",
    "mul",
    "newton_expand",
    "parse_operator",
    "pincherle_derivative",
    "pretty",
    "ramey_sequence",
    "reciprocal",
    "roman_coefficient",
    "roman_factorial",
    "roman_number",
    "roman_shift",
    "run_suite",
    "stirling_first",
    "stirling_second",
    "tail_bound",
    "taylor_expand",
    "umbral_compose",
    "verify_binomial_identity",
]

# parsing and suites serve the CLI, not the library: their names load their
# module on first use (PEP 562), so `import umbra` does not compile them.
_DEFERRED = {"elaborate": "parsing", "parse_operator": "parsing", "pretty": "parsing",
             "SUITE_NAMES": "suites", "run_suite": "suites"}


def __getattr__(name):
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_DEFERRED[name]}"), name)


def __dir__():
    return sorted({*globals(), *_DEFERRED})
