"""Optimal binary prefix codes under nonlinear length objectives.

Construction via generalized Huffman merge rules, closed-form redundancy
and cost bounds, generators for the extremal distributions that make the
bounds tight, and an exact small-alphabet oracle to verify all of it.

The package exports its five submodules and each one's ``__all__``, which
is the only list of that module's public names.  ``core`` and ``coder``
load with the package; ``bounds``, ``witness`` and ``oracle`` load on
first use of one of their names.
"""

from . import coder, core
from .coder import *
from .core import *

# Served on first use by __getattr__ (PEP 562), so that a caller who needs
# neither the bounds, the witness generators nor the oracle never loads them.
# Each row is its module's __all__, which a test checks, as reading it here
# would load the module.
_LAZY = {
    "bounds": (
        "POutOfRange", "PreconditionUnmet", "L1Region", "lambda_j", "mmpr_bounds",
        "mmpr_length_bounds", "avg_redundancy_lower", "avg_redundancy_upper_gallager",
        "dth_bounds", "symbol_bounds", "exp_avg_unit_bounds", "hat_transform", "exp_avg_bounds",
        "exp_avg_bounds_l1", "l1_region",
    ),
    "witness": ("ParamsOutOfProofRange", "FamilyKind", "WitnessFamily", "generate",
                "one_bit_l1_cost_bound"),
    "oracle": ("AlphabetTooLarge", "OracleResult", "kraft_length_tuples",
               "random_complete_lengths", "brute_force_optimal"),
}
_OWNER = {name: module for module, names in _LAZY.items() for name in (module, *names)}

__all__ = ["bounds", "coder", "core", "oracle", "witness",
           *core.__all__, *coder.__all__, *(name for names in _LAZY.values() for name in names)]


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
