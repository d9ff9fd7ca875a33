"""Command-line surface: encode, query bounds, sweep figures, verify, Benford demo.

Numbers are printed with 12 significant digits (round half even), and
interval brackets follow the endpoint tags ('[' attained, '(' approached).
The only randomness, the pmfs and length vectors the ``verify`` campaign
samples, comes from ``random.Random(seed)``, so identical invocations
produce byte-identical output on one Python version.  A call's start-up is
the interpreter's and the modules its subcommand runs: ``verify``, with the
oracle and the witness generators, is imported only when it runs, and
``json`` only to read or write JSON.  So the parser keeps its own copies of
the family names and of the oracle's cap (``FAMILY_NAMES``,
``ORACLE_MAX_N``), which the test suite holds equal to the originals.

A flag that would have no effect is refused (exit 2).  ``code`` and
``bounds`` take ``--d`` only under ``--objective dexp`` and ``--q`` only
under ``expavg``; ``bounds`` takes the input file, ``--normalize`` and
``--assume-sorted`` only under ``expavg``, ``--p`` everywhere else, and
``--j`` everywhere but ``mmpr``.  ``verify`` without ``--family`` runs the
campaign, a table of checks on random pmfs, and takes ``--n`` (up to the
oracle's cap), ``--trials`` and ``--seed``; with ``--family`` it checks one
witness pmf built from those of ``--p1``, ``--eps`` and ``--q`` that the
family reads (``verify.FAMILY_FLAGS``), and refuses a 2^lam witness
past the oracle's cap before building it.  Each subcommand takes only the
``--format`` values it honours.

Exit codes: 0 success, 1 verification failure, 2 usage or input error,
141 output pipe closed by its reader (128 + SIGPIPE, as a shell reports a
process that SIGPIPE ended).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import bounds as bnd
from .coder import CombineRule, generalized_huffman
from .core import (
    D_MAX,
    BoundKind,
    BoundReport,
    CodingError,
    Objective,
    ObjectiveKind,
    Pmf,
    alpha_of_q,
    benford,
    renyi_entropy,
    shannon_entropy,
    success_probability,
    validate_pmf,
)

__all__ = ["ParseError", "main"]

EXIT_BROKEN_PIPE = 141

CAMPAIGN_N = 6
CAMPAIGN_TRIALS = 200
CAMPAIGN_SEED = 42
SWEEP_MIN_STEP = 1e-5  # a sweep holds every row until it writes: at most ~2e5 here
ORACLE_MAX_N = 16  # oracle.DEFAULT_MAX_N, the largest --n of the verify campaign
FLOAT_FLAGS = ("--d", "--q", "--p", "--p1", "--eps", "--step")  # every flag with type=float
FAMILY_NAMES = (  # the values of witness.FamilyKind, in its order
    "mmpr-upper-high", "mmpr-upper-mid", "mmpr-upper-low", "mmpr-lower-a", "mmpr-lower-b",
    "len-upper-tight", "len-lower-tight", "l1-boundary", "l1-counter", "l1-always-one",
)


class ParseError(CodingError):
    pass


def fmt(x: float) -> str:
    return format(float(x), ".12g")


def _round12(x: float) -> float:
    return float(fmt(x))


def _interval_str(r: BoundReport) -> str:
    left = "[" if r.lower_kind in (BoundKind.ACHIEVABLE, BoundKind.EXACT) else "("
    right = "]" if r.upper_kind in (BoundKind.ACHIEVABLE, BoundKind.EXACT) else ")"
    return f"{left}{fmt(r.lower)}, {fmt(r.upper)}{right}"


def _report_dict(r: BoundReport) -> dict:
    return {
        "lower": _round12(r.lower),
        "upper": _round12(r.upper),
        "lower_kind": r.lower_kind.value,
        "upper_kind": r.upper_kind.value,
        "exact": None if r.exact is None else _round12(r.exact),
        "note": r.note,
    }


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        try:
            with open(out, "w") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
        except OSError as e:
            raise CodingError(f"cannot write {out}: {e}") from e


def _emit_json(doc: dict, out: str | None) -> None:
    import json
    _emit(json.dumps(doc, indent=2), out)


def load_pmf(path: str, assume_sorted: bool = False, normalize: bool = False) -> Pmf:
    """Read one decimal per line ('#' comments allowed) or a JSON array, after an
    optional UTF-8 byte-order mark."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text: {e}") from e
    text = text.removeprefix("\ufeff")
    if text.lstrip().startswith("["):
        import json
        try:
            vals = json.loads(text)
        except json.JSONDecodeError as e:
            raise ParseError(f"{path}: invalid JSON array: {e}") from e
        if not isinstance(vals, list) or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in vals):
            raise ParseError(f"{path}: JSON input must be a flat array of numbers")
        try:
            vals = list(map(float, vals))
        except OverflowError as e:
            raise ParseError(f"{path}: JSON number past the float range: {e}") from e
    else:
        vals = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                vals.append(float(line))
            except ValueError as e:
                raise ParseError(f"{path}:{lineno}: not a number: {line!r}") from e
    return validate_pmf(vals, assume_sorted=assume_sorted, normalize=normalize)


def _refuse(args, context: str, *flags: str) -> None:
    """Refuse the first of ``flags`` given (unset is None, or a switch's False; 0 is given)."""
    for flag in flags:
        value = getattr(args, flag.lstrip("-").replace("-", "_"))
        if value is not None and value is not False:
            raise CodingError(f"{flag} has no effect {context}")


def _objective_from_args(args) -> Objective:
    """The --objective with its parameter; another objective's parameter flag is refused."""
    name = args.objective
    for owner, flag in (("dexp", "--d"), ("expavg", "--q")):
        if owner != name:
            _refuse(args, f"under --objective {name}", flag)
        elif getattr(args, flag[2:]) is None:
            raise CodingError(f"--objective {name} requires {flag}")
    return Objective(ObjectiveKind(name), args.d if name == "dexp" else args.q)


def _exact_report(value: float, note: str | None = None) -> BoundReport:
    return BoundReport(value, value, BoundKind.EXACT, BoundKind.EXACT,
                       exact=value, note=note)


def _symbol_bounds(obj: Objective, pj: float, j: int) -> BoundReport:
    """The avg, mmpr or dexp bounds on the optimum from p_j, the probability of symbol j."""
    if obj.kind is ObjectiveKind.MAX_POINTWISE:
        return bnd.mmpr_bounds(pj)
    if obj.kind is ObjectiveKind.DTH_EXP:
        return bnd.dth_bounds(pj, obj.param, is_p1=(j == 1))
    lo = bnd.avg_redundancy_lower(pj)
    if j == 1:
        return BoundReport(lo, bnd.avg_redundancy_upper_gallager(pj),
                           BoundKind.ACHIEVABLE, BoundKind.APPROACHABLE)
    return BoundReport(lo, 1.0, BoundKind.ACHIEVABLE, BoundKind.APPROACHABLE,
                       note="unit upper bound: top-probability form needs j=1")


def _bounds_for_code(p: Pmf, obj: Objective, value: float) -> tuple[float, BoundReport]:
    """The entropy and the bounds ``code`` prints next to ``value``.

    The entropy is H_alpha under expavg at q > 1/2, taken once for both,
    and Shannon's otherwise.  The bounds read p_1, or under expavg p_1 of
    the alpha-power transform, and hold for p_1 < 1.  A pmf of two or more
    symbols can still have a p_1 that rounds to 1.0, its sum within
    PMF_SUM_TOL of 1; then the report is the value itself, which is the
    optimum, with a note.
    """
    expavg = obj.kind is ObjectiveKind.EXP_AVERAGE
    if expavg and obj.param > 0.5:
        entropy, p_hat = bnd._exp_avg_parts(p, alpha_of_q(obj.param), 1)
    else:
        entropy = shannon_entropy(p)
    if p.n == 1:
        return entropy, _exact_report(0.0, note="single symbol, null codeword")
    if expavg:
        if obj.param <= 0.5:
            return entropy, _exact_report(value, note="unary-optimal regime (q <= 0.5)")
        try:
            return entropy, bnd._exp_avg_report(obj.param, 1, entropy, p_hat)
        except bnd.PreconditionUnmet:
            return entropy, _exact_report(value, note="transformed p_1 rounds to 1.0: "
                                                      "the engine's optimum, no bound from p_1")
    if p.probs[0] == 1.0:
        return entropy, _exact_report(value, note="p_1 rounds to 1.0: "
                                                  "the engine's optimum, no bound from p_1")
    return entropy, _symbol_bounds(obj, p.probs[0], 1)


def cmd_code(args) -> int:
    obj = _objective_from_args(args)
    p = load_pmf(args.input, assume_sorted=args.assume_sorted, normalize=args.normalize)
    result = generalized_huffman(p, CombineRule.for_objective(obj))
    entropy, report = _bounds_for_code(p, obj, result.objective_value)

    doc = {
        "objective": obj.kind.value,
        "param": None if obj.param is None else _round12(obj.param),
        "n": p.n,
        "lengths": list(result.lengths.lengths),
        "codewords": list(result.codewords),
        "value_bits": _round12(result.objective_value),
        "entropy_bits": _round12(entropy),
        "bounds": _report_dict(report),
    }
    if obj.kind is ObjectiveKind.EXP_AVERAGE and 0.0 < obj.param < 1.0:
        doc["success_probability"] = _round12(success_probability(p, result.lengths, obj.param))
    if args.format == "json":
        _emit_json(doc, args.out)
    elif args.format == "csv":
        rows = ["symbol,probability,length,codeword"]
        rows += [f"{i + 1},{fmt(pi)},{li},{w}" for i, (pi, li, w) in
                 enumerate(zip(p, result.lengths, result.codewords))]
        _emit("\n".join(rows), args.out)
    else:
        lines = [
            f"objective: {obj.kind.value}" + ("" if obj.param is None else f" param={fmt(obj.param)}"),
            f"n: {p.n}",
            "lengths: " + " ".join(str(l) for l in result.lengths),
            "codewords: " + " ".join(result.codewords),
            f"value_bits: {fmt(result.objective_value)}",
            f"entropy_bits: {fmt(entropy)}",
            f"bounds: {_interval_str(report)}",
        ]
        if report.note:
            lines.append(f"note: {report.note}")
        if "success_probability" in doc:
            lines.append(f"success_probability: {fmt(doc['success_probability'])}")
        _emit("\n".join(lines), args.out)
    return 0


def cmd_bounds(args) -> int:
    obj_name = args.objective
    if obj_name == "mmpr":
        # the MMPR bounds are the same for every symbol
        _refuse(args, "under --objective mmpr", "--j")
    j = 1 if args.j is None else args.j
    if j < 1:
        raise CodingError(f"--j must be >= 1, got {j}")
    obj = _objective_from_args(args)
    doc: dict = {"objective": obj_name, "j": j,
                 "param": None if obj.param is None else _round12(obj.param)}
    if obj_name == "expavg":
        _refuse(args, "under --objective expavg", "--p")
        if args.input is None:
            raise CodingError("expavg bounds need an input distribution file")
        p = load_pmf(args.input, assume_sorted=args.assume_sorted,
                     normalize=args.normalize)
        report = bnd.exp_avg_bounds(p, obj.param, j)
        doc["n"] = p.n
    else:
        _refuse(args, f"under --objective {obj_name}", "input", "--normalize", "--assume-sorted")
        if args.p is None:
            raise CodingError(f"--objective {obj_name} bounds need --p")
        report = _symbol_bounds(obj, args.p, j)
        doc["p_j"] = _round12(args.p)
    doc["bounds"] = _report_dict(report)
    if args.format == "json":
        _emit_json(doc, args.out)
    else:
        _emit(f"bounds: {_interval_str(report)}"
              + (f"\nnote: {report.note}" if report.note else ""), args.out)
    return 0


def cmd_sweep(args) -> int:
    step = args.step
    if not SWEEP_MIN_STEP <= step <= 0.1:
        raise CodingError(f"step must lie in [{SWEEP_MIN_STEP:g}, 0.1], got {step}")
    rows: list[str] = []
    if args.figure == "mmpr":
        rows.append("p,lower,upper,lower_kind,upper_kind,exact")
        k = 1
        while k * step < 1.0 - 1e-12:
            pv = k * step
            r = bnd.mmpr_bounds(pv)
            exact = "" if r.exact is None else fmt(r.exact)
            rows.append(f"{fmt(pv)},{fmt(r.lower)},{fmt(r.upper)},"
                        f"{r.lower_kind.value},{r.upper_kind.value},{exact}")
            k += 1
    elif args.figure == "dexp":
        rows.append("p,lower,upper")
        k = 1
        while k * step < 1.0 - 1e-12:
            pv = k * step
            rows.append(f"{fmt(pv)},{fmt(bnd.avg_redundancy_lower(pv))},"
                        f"{fmt(bnd.mmpr_bounds(pv).upper)}")
            k += 1
    else:
        rows.append("q,p1_threshold")
        k = 1
        while k * step <= 2.0 + 1e-12:
            qv = k * step
            if qv <= 0.5:
                thr = 0.0
            elif qv <= 1.0:
                thr = 2.0 * qv / (2.0 * qv + 3.0)
            else:
                # no p_1 below 1 guarantees a one-bit codeword
                thr = 1.0
            rows.append(f"{fmt(qv)},{fmt(thr)}")
            k += 1
    _emit("\n".join(rows), args.out)
    return 0


def cmd_verify(args) -> int:
    from .verify import cmd_verify
    return cmd_verify(args)


def _benford_block(p: Pmf, q: float) -> dict:
    obj = Objective.exp_average(q)
    result = generalized_huffman(p, CombineRule.for_objective(obj))
    block = {
        "q": _round12(q),
        "alpha": _round12(alpha_of_q(q)),
        "renyi_entropy_bits": _round12(renyi_entropy(p, alpha_of_q(q))),
        "unit_bounds": _report_dict(bnd.exp_avg_unit_bounds(p, q)),
        "per_symbol_bounds": _report_dict(bnd.exp_avg_bounds(p, q, 1)),
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
    doc = {
        "distribution": [_round12(x) for x in p],
        "shannon_entropy_bits": _round12(shannon_entropy(p)),
        "blocks": [_benford_block(p, 0.6), _benford_block(p, 2.0)],
    }
    if args.format == "json":
        _emit_json(doc, args.out)
        return 0
    lines = ["benford digit distribution: " + " ".join(fmt(x) for x in p),
             f"shannon entropy: {fmt(shannon_entropy(p))} bits"]
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
    _emit("\n".join(lines), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genhuff",
        description="Optimal binary prefix codes under nonlinear length "
                    "objectives, with redundancy bounds and verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, formats, needs_input):
        # each subcommand lists only the formats it writes; the last is the default
        sp.add_argument("--format", choices=formats, default=formats[-1])
        sp.add_argument("--out", default=None, help="write output to this path")
        if needs_input:
            sp.add_argument("--normalize", action="store_true",
                            help="rescale input to sum to 1 instead of rejecting")
            sp.add_argument("--assume-sorted", action="store_true",
                            help="verify nonincreasing order instead of sorting")

    d_help = (f"dexp only: the order d, in (-1,0) or (0,{D_MAX:g}]; a larger d would "
              f"overflow the terms (1+d) lg p_i + d l_i")
    sp = sub.add_parser("code", help="construct an optimal code for a distribution")
    sp.add_argument("input", help="probabilities, one per line or a JSON array; '-' for stdin")
    sp.add_argument("--objective", choices=("avg", "mmpr", "dexp", "expavg"), default="avg")
    sp.add_argument("--d", type=float, default=None, help=d_help)
    sp.add_argument("--q", type=float, default=None, help="expavg only: the base q")
    add_common(sp, ("json", "csv", "plain"), needs_input=True)
    sp.set_defaults(func=cmd_code)

    sp = sub.add_parser("bounds", help="closed-form bounds on the optimal value")
    sp.add_argument("input", nargs="?", default=None,
                    help="expavg only (and required there): distribution file")
    sp.add_argument("--objective", choices=("avg", "mmpr", "dexp", "expavg"),
                    default="mmpr")
    sp.add_argument("--p", type=float, default=None,
                    help="all but expavg: known symbol probability")
    sp.add_argument("--j", type=int, default=None,
                    help="all but mmpr: 1-based symbol index the probability belongs to "
                         "(default 1)")
    sp.add_argument("--d", type=float, default=None, help=d_help)
    sp.add_argument("--q", type=float, default=None, help="expavg only: the base q")
    add_common(sp, ("json", "plain"), needs_input=True)
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("sweep", help="emit bound curves as CSV")
    sp.add_argument("--figure", choices=("mmpr", "dexp", "l1region"), required=True)
    sp.add_argument("--step", type=float, default=0.01,
                    help=f"grid spacing, {SWEEP_MIN_STEP:g} to 0.1 (default 0.01)")
    add_common(sp, ("csv",), needs_input=False)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("verify", help="run the oracle-backed invariant battery")
    sp.add_argument("--n", type=int, default=None,
                    help=f"campaign only: largest random alphabet size, 2..{ORACLE_MAX_N} "
                         f"(default {CAMPAIGN_N})")
    sp.add_argument("--trials", type=int, default=None,
                    help=f"campaign only: random pmfs per check (default {CAMPAIGN_TRIALS})")
    sp.add_argument("--seed", type=int, default=None,
                    help=f"campaign only: seed of the random pmfs (default {CAMPAIGN_SEED})")
    sp.add_argument("--family", choices=FAMILY_NAMES, default=None,
                    help="check one witness family instead of the full campaign")
    sp.add_argument("--p1", type=float, default=None, help="--family only: top probability")
    sp.add_argument("--eps", type=float, default=None, help="--family only: free tail mass")
    sp.add_argument("--q", type=float, default=None, help="--family only: exponential base")
    add_common(sp, ("plain",), needs_input=False)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("benford", help="full worked example on the Benford distribution")
    add_common(sp, ("json", "plain"), needs_input=False)
    sp.set_defaults(func=cmd_benford)

    return parser


def _join_float_values(argv: list[str]) -> list[str]:
    """``--d -5e-1`` as ``--d=-5e-1``, for each flag that takes a float.

    argparse reads a token that starts with '-' as a flag unless it matches
    its negative-number pattern, which has no exponent or inf, so the
    space-separated ``--d -1e-12`` or ``--q -inf`` would not reach the range
    check.  A token that parses as a float is joined to such a flag instead,
    named in full or, as argparse also accepts, by a prefix of no other
    float flag (``--ep`` for ``--eps``).
    """
    out: list[str] = []
    for token in argv:
        if (out and token.startswith("-")
                and (out[-1] in FLOAT_FLAGS
                     or sum(flag.startswith(out[-1]) for flag in FLOAT_FLAGS) == 1)):
            try:
                float(token)
            except ValueError:
                pass
            else:
                out[-1] += "=" + token
                continue
        out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_float_values(sys.argv[1:] if argv is None else argv))
    try:
        code = args.func(args)
        # flush here, not at exit, so that a reader that went away shows up
        # as the BrokenPipeError below
        sys.stdout.flush()
        return code
    except CodingError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed the pipe (`genhuff ... | head`): send what is
        # still buffered to devnull so the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
