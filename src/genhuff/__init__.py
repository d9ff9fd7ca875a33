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
    MergeEvent,
    MergeTrace,
    RuleKind,
    canonical_codewords,
    generalized_huffman,
    j_shannon_code,
    shannon_code,
    unary_code,
)
from .bounds import (
    L1Region,
    POutOfRange,
    PreconditionUnmet,
    avg_redundancy_lower,
    avg_redundancy_upper_gallager,
    dth_bounds,
    exp_avg_bounds,
    exp_avg_bounds_l1,
    exp_avg_unit_bounds,
    hat_transform,
    l1_region,
    lambda_j,
    mmpr_bounds,
    mmpr_length_bounds,
)
from .witness import FamilyKind, ParamsOutOfProofRange, WitnessFamily, generate
from .oracle import (
    AlphabetTooLarge,
    OracleResult,
    brute_force_optimal,
    kraft_length_tuples,
)

__version__ = "0.1.0"
