"""The ``genhuff bounds``, ``sweep`` and ``benford`` subcommands: the paper's
closed-form bounds as a query, as curves and on its worked example.

``code`` needs none of this, so ``cli`` imports the module only when one of
these three runs.  Each subcommand's flags are here with its handler.
"""

from __future__ import annotations

import argparse

from . import bounds as bnd
from . import coder
from .cli import (
    _interval_str,
    _objective_from_args,
    _report_dict,
    _round12,
    add_common_flags,
    add_objective_flag,
    add_param_flags,
    emit,
    emit_json,
    fmt,
    load_pmf,
    refuse,
)
from .core import (
    CodingError,
    Objective,
    Pmf,
    alpha_of_q,
    benford,
    renyi_entropy,
    shannon_entropy,
    success_probability,
)

__all__ = ["cmd_benford", "cmd_bounds", "cmd_sweep"]

SWEEP_MIN_STEP = 1e-5  # a sweep holds every row until it writes: at most ~2e5 here


def add_bounds_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("input", nargs="?", default=None,
                    help="expavg only (and required there): distribution file")
    add_objective_flag(sp, "mmpr")
    sp.add_argument("--p", type=float, default=None,
                    help="all but expavg: known symbol probability")
    sp.add_argument("--j", type=int, default=None,
                    help="all but mmpr: 1-based symbol index the probability belongs to "
                         "(default 1)")
    add_param_flags(sp)
    add_common_flags(sp, ("json", "plain"), needs_input=True)


def cmd_bounds(args) -> int:
    obj_name = args.objective
    if obj_name == "mmpr":
        # the MMPR bounds are the same for every symbol
        refuse(args, "under --objective mmpr", "--j")
    j = 1 if args.j is None else args.j
    if j < 1:
        raise CodingError(f"--j must be >= 1, got {j}")
    obj = _objective_from_args(args)
    doc: dict = {"objective": obj_name, "j": j, "param": obj.param}
    if obj_name == "expavg":
        refuse(args, "under --objective expavg", "--p")
        if args.input is None:
            raise CodingError("expavg bounds need an input distribution file")
        p = load_pmf(args.input, assume_sorted=args.assume_sorted,
                     normalize=args.normalize)
        report = bnd.exp_avg_bounds(p, obj.param, j)
        doc["n"] = p.n
    else:
        refuse(args, f"under --objective {obj_name}", "input", "--normalize", "--assume-sorted")
        if args.p is None:
            raise CodingError(f"--objective {obj_name} bounds need --p")
        report = bnd.symbol_bounds(obj, args.p, j)
        doc["p_j"] = _round12(args.p)
    doc["bounds"] = _report_dict(report)
    if args.format == "json":
        emit_json(doc, args.out)
    else:
        emit(f"bounds: {_interval_str(report)}"
              + (f"\nnote: {report.note}" if report.note else ""), args.out)
    return 0


def add_sweep_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--figure", choices=("mmpr", "dexp", "l1region"), required=True)
    sp.add_argument("--step", type=float, default=0.01,
                    help=f"grid spacing, {SWEEP_MIN_STEP:g} to 0.1 (default 0.01)")
    add_common_flags(sp, ("csv",), needs_input=False)


def cmd_sweep(args) -> int:
    step = args.step
    if not SWEEP_MIN_STEP <= step <= 0.1:
        raise CodingError(f"step must lie in [{SWEEP_MIN_STEP:g}, 0.1], got {step}")
    figure = args.figure
    rows = [{"mmpr": "p,lower,upper,lower_kind,upper_kind,exact", "dexp": "p,lower,upper",
             "l1region": "q,p1_threshold"}[figure]]
    # p runs over (0, 1) and q over (0, 2]; 1e-12 keeps k * step's rounding off the ends
    k = 1
    while (k * step <= 2.0 + 1e-12) if figure == "l1region" else (k * step < 1.0 - 1e-12):
        v = k * step
        if figure == "mmpr":
            r = bnd.mmpr_bounds(v)
            exact = "" if r.exact is None else fmt(r.exact)
            row = f"{fmt(r.lower)},{fmt(r.upper)},{r.lower_kind.value},{r.upper_kind.value},{exact}"
        elif figure == "dexp":
            # every d > 0 shares the one sandwich
            r = bnd.dth_bounds(v, 1.0)
            row = f"{fmt(r.lower)},{fmt(r.upper)}"
        else:
            # unary is optimal up to q = 1/2, and past q = 1 no p_1 below 1
            # guarantees a one-bit codeword
            row = fmt(0.0 if v <= 0.5 else 2.0 * v / (2.0 * v + 3.0) if v <= 1.0 else 1.0)
        rows.append(f"{fmt(v)},{row}")
        k += 1
    emit("\n".join(rows), args.out)
    return 0


def add_benford_flags(sp: argparse.ArgumentParser) -> None:
    add_common_flags(sp, ("json", "plain"), needs_input=False)


def _benford_block(p: Pmf, q: float) -> dict:
    """The report at one q: H_alpha, the transformed p_1 and every bound
    of the paper's worked example, with the optimal code."""
    alpha = alpha_of_q(q)
    rule = coder.CombineRule.for_objective(Objective.exp_average(q))
    # looked up on coder at each call, where a profiler's span may wrap it
    result = coder.generalized_huffman(p, rule)
    block = {
        "q": _round12(q),
        "alpha": _round12(alpha),
        "renyi_entropy_bits": _round12(renyi_entropy(p, alpha)),
        "unit_bounds": _report_dict(bnd.exp_avg_unit_bounds(p, q)),
        "per_symbol_bounds": _report_dict(bnd.exp_avg_bounds(p, q)),
        "hat_p1": _round12(bnd.hat_transform(p, q).probs[0]),
        "lengths": list(result.lengths.lengths),
        "codewords": list(result.codewords),
        "cost_bits": _round12(result.objective_value),
    }
    if q < 1.0:
        r3 = bnd.exp_avg_bounds_l1(p, q)
        block["one_bit_l1_bounds"] = _report_dict(r3)
        block["success_bounds"] = {"lower": _round12(q ** r3.upper),
                                   "upper": _round12(q ** r3.lower)}
        block["success_probability"] = _round12(success_probability(p, result.lengths, q))
    return block


def cmd_benford(args) -> int:
    p = benford()
    entropy = shannon_entropy(p)
    doc = {
        "distribution": [_round12(x) for x in p],
        "shannon_entropy_bits": _round12(entropy),
        "blocks": [_benford_block(p, 0.6), _benford_block(p, 2.0)],
    }
    if args.format == "json":
        emit_json(doc, args.out)
        return 0
    lines = ["benford digit distribution: " + " ".join(fmt(x) for x in p),
             f"shannon entropy: {fmt(entropy)} bits"]
    for block in doc["blocks"]:
        q = block["q"]
        lines.append(f"--- q = {fmt(q)}")
        lines.append(f"alpha(q): {fmt(block['alpha'])}")
        lines.append(f"renyi entropy: {fmt(block['renyi_entropy_bits'])} bits")
        ub = block["unit_bounds"]
        lines.append(f"unit cost bounds: [{fmt(ub['lower'])}, {fmt(ub['upper'])})")
        cb = block["per_symbol_bounds"]
        lines.append(f"per-symbol cost bounds: [{fmt(cb['lower'])}, {fmt(cb['upper'])}]"
                     f" (hat p_1 = {fmt(block['hat_p1'])})")
        if "one_bit_l1_bounds" in block:
            ob = block["one_bit_l1_bounds"]
            sb = block["success_bounds"]
            lines.append(f"one-bit-l1 cost bounds: [{fmt(ob['lower'])}, {fmt(ob['upper'])})")
            lines.append(f"success bounds: ({fmt(sb['lower'])}, {fmt(sb['upper'])}]")
        lines.append("optimal lengths: " + " ".join(str(l) for l in block["lengths"]))
        lines.append("codewords: " + " ".join(block["codewords"]))
        lines.append(f"cost: {fmt(block['cost_bits'])} bits")
        if "success_probability" in block:
            lines.append(f"success probability: {fmt(block['success_probability'])}")
    emit("\n".join(lines), args.out)
    return 0
