"""Optimal binary prefix codes under nonlinear length objectives.

Construction via generalized Huffman merge rules, closed-form redundancy
and cost bounds, generators for the extremal distributions that make the
bounds tight, and an exhaustive small-alphabet oracle to verify all of it.
"""

from .core import (
    AlphaOutOfRange,
    BoundKind,
    BoundReport,
    CodingError,
    DimensionMismatch,
    DOutOfRange,
    EmptyInput,
    LengthVector,
    NonPositiveProbability,
    Objective,
    ObjectiveKind,
    Pmf,
    QOutOfRange,
    SumNotOne,
    alpha_of_q,
    avg_redundancy,
    benford,
    binary_entropy,
    ceil_neg_lg,
    dth_exp_redundancy,
    exp_average_cost,
    lg,
    lg_sum_exp2,
    max_pointwise_redundancy,
    renyi_entropy,
    shannon_entropy,
    success_probability,
    validate_pmf,
)
from .coder import (
    CodeResult,
    CombineRule,
    KraftViolation,
    RuleKind,
    canonical_codewords,
    generalized_huffman,
    j_shannon_code,
    shannon_code,
    unary_code,
)

# Served on first use by __getattr__ (PEP 562), so that a caller who needs
# neither the bounds, the witness generators nor the oracle never loads them.
_LAZY = {
    "bounds": (
        "L1Region",
        "POutOfRange",
        "PreconditionUnmet",
        "avg_redundancy_lower",
        "avg_redundancy_upper_gallager",
        "dth_bounds",
        "exp_avg_bounds",
        "exp_avg_bounds_l1",
        "exp_avg_unit_bounds",
        "hat_transform",
        "l1_region",
        "lambda_j",
        "mmpr_bounds",
        "mmpr_length_bounds",
    ),
    "witness": ("FamilyKind", "ParamsOutOfProofRange", "WitnessFamily", "generate"),
    "oracle": ("AlphabetTooLarge", "OracleResult", "brute_force_optimal", "kraft_length_tuples"),
}
_OWNER = {name: module for module, names in _LAZY.items() for name in (module, *names)}

__all__ = [
    # the submodules
    "bounds", "coder", "core", "oracle", "witness",
    # core
    "AlphaOutOfRange", "BoundKind", "BoundReport", "CodingError", "DimensionMismatch",
    "DOutOfRange", "EmptyInput", "LengthVector", "NonPositiveProbability", "Objective",
    "ObjectiveKind", "Pmf", "QOutOfRange", "SumNotOne", "alpha_of_q", "avg_redundancy",
    "benford", "binary_entropy", "ceil_neg_lg", "dth_exp_redundancy", "exp_average_cost",
    "lg", "lg_sum_exp2", "max_pointwise_redundancy", "renyi_entropy", "shannon_entropy",
    "success_probability", "validate_pmf",
    # coder
    "CodeResult", "CombineRule", "KraftViolation", "RuleKind", "canonical_codewords",
    "generalized_huffman", "j_shannon_code", "shannon_code", "unary_code",
    # bounds, witness and oracle, loaded on first use
    *(name for names in _LAZY.values() for name in names),
]


def __getattr__(name: str):
    owner = _OWNER.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, not importlib.import_module: only the former is listed by -X importtime
    __import__(f"{__name__}.{owner}")
    module = globals()[owner]
    if name == owner:
        return module
    value = globals()[name] = getattr(module, name)
    return value


__version__ = "0.1.0"
