"""Command-line surface: encode, query bounds, sweep figures, verify, Benford demo.

Numbers are printed with 12 significant digits (round half even), and
interval brackets follow the endpoint tags ('[' attained, '(' approached).
The d or q that ``code`` and ``bounds`` echo prints so only where those
digits read back as it, and in full otherwise, so that it rebuilds the
``Objective`` that ran.
The only randomness, the pmfs and length vectors the ``verify`` campaign
samples, comes from ``random.Random(seed)``, so identical invocations
produce byte-identical output on one Python version.  A call's start-up is
the interpreter's and the modules its subcommand runs.  Each subcommand's
flags and handler live in one module, its home in ``SUBCOMMANDS``, and the
parser adds the flags of the subcommand the call names only, so a call
compiles its own home and no other: ``code`` runs on ``cli`` with
``core``, ``coder`` and ``bounds``; ``bounds``, ``sweep`` and ``benford``
add ``reports``; ``verify`` adds ``verify`` with the oracle and the witness
generators, and reads its family names and the package's one alphabet
cap, the oracle's ``DEFAULT_MAX_N``, from them.
``json`` is imported only to read or write JSON.  No module of the
package imports ``dataclasses``, ``inspect`` or ``typing`` on the way to
an answer: every record is a ``core._Record``, and annotations stay
strings.

A flag that would have no effect is refused (exit 2).  ``code`` and
``bounds`` take ``--d`` only under ``--objective dexp`` and ``--q`` only
under ``expavg``; ``bounds`` takes the input file, ``--normalize`` and
``--assume-sorted`` only under ``expavg``, ``--p`` everywhere else, and
``--j`` everywhere but ``mmpr``; both print ``bounds.symbol_bounds`` but
under ``expavg``.  ``verify`` without ``--family`` runs the campaign, a
table of checks on random pmfs and on every witness family, and takes
``--n`` (up to the oracle's cap), ``--trials`` and ``--seed``; with
``--family`` it checks one witness pmf built from those of ``--p1``,
``--eps`` and ``--q`` that the family reads (``witness.FAMILIES``), and
refuses a 2^lam witness past the oracle's cap before building it.  Each
subcommand takes only the ``--format`` values it honours.

A flag is read only by its full name: argparse's abbreviations are off,
so ``--p`` under ``verify`` is refused, not read as ``--p1``, and so is
``--n`` under ``code``, not read as ``--normalize``.  A negative value
may follow its flag after a space, in exponent form and as ``-inf`` too
(``--d -1e-12``), as well as after ``=``.

Exit codes: 0 success, 1 verification failure (verify's own faults
included), 2 usage or input error, 141 output pipe closed by its reader
(128 + SIGPIPE, as a shell reports a process that SIGPIPE ended).
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
    renyi_entropy,
    shannon_entropy,
    success_probability,
    validate_pmf,
)

__all__ = ["ParseError", "main", "emit", "emit_json", "refuse"]

EXIT_BROKEN_PIPE = 141

# Each subcommand's name, help line and home: the module that defines its
# flags, add_<name>_flags(parser), and its handler, cmd_<name>(args).  Only
# the home of the subcommand a call names is imported.
SUBCOMMANDS = (
    ("code", "construct an optimal code for a distribution", __name__),
    ("bounds", "closed-form bounds on the optimal value", f"{__package__}.reports"),
    ("sweep", "emit bound curves as CSV", f"{__package__}.reports"),
    ("verify", "run the oracle-backed invariant battery", f"{__package__}.verify"),
    ("benford", "full worked example on the Benford distribution", f"{__package__}.reports"),
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


def emit(text: str, out: str | None) -> None:
    """Write ``text``, ended by one newline, to stdout or to the file ``out``
    (a ``CodingError`` if it cannot be written)."""
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


def emit_json(doc: dict, out: str | None) -> None:
    """``emit`` ``doc`` as JSON indented by 2."""
    import json
    emit(json.dumps(doc, indent=2), out)


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


def refuse(args, context: str, *flags: str) -> None:
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
            refuse(args, f"under --objective {name}", flag)
        elif getattr(args, flag[2:]) is None:
            raise CodingError(f"--objective {name} requires {flag}")
    return Objective(ObjectiveKind(name), args.d if name == "dexp" else args.q)


def _exact_report(value: float, note: str | None = None) -> BoundReport:
    return BoundReport(value, value, BoundKind.EXACT, BoundKind.EXACT,
                       exact=value, note=note)


def _bounds_for_code(p: Pmf, obj: Objective, value: float) -> tuple[float, BoundReport]:
    """The entropy and the bounds ``code`` prints next to ``value``.

    The entropy is H_alpha under expavg at q > 1/2, and Shannon's
    otherwise.  The bounds read p_1, or under expavg p_1 of the alpha-power
    transform, and hold for p_1 < 1.  A pmf of two or more symbols can
    still have a p_1 that rounds to 1.0, its sum within PMF_SUM_TOL of 1;
    then the report is the value itself, which is the optimum, with a note.
    """
    expavg = obj.kind is ObjectiveKind.EXP_AVERAGE
    if expavg and obj.param > 0.5:
        entropy = renyi_entropy(p, alpha_of_q(obj.param))
    else:
        entropy = shannon_entropy(p)
    if p.n == 1:
        return entropy, _exact_report(0.0, note="single symbol, null codeword")
    if expavg:
        if obj.param <= 0.5:
            return entropy, _exact_report(value, note="unary-optimal regime (q <= 0.5)")
        try:
            return entropy, bnd.exp_avg_bounds(p, obj.param)
        except bnd.PreconditionUnmet:
            return entropy, _exact_report(value, note="transformed p_1 rounds to 1.0: "
                                                      "the engine's optimum, no bound from p_1")
    if p.probs[0] == 1.0:
        return entropy, _exact_report(value, note="p_1 rounds to 1.0: "
                                                  "the engine's optimum, no bound from p_1")
    return entropy, bnd.symbol_bounds(obj, p.probs[0], 1)


def cmd_code(args) -> int:
    obj = _objective_from_args(args)
    p = load_pmf(args.input, assume_sorted=args.assume_sorted, normalize=args.normalize)
    result = generalized_huffman(p, CombineRule.for_objective(obj))
    entropy, report = _bounds_for_code(p, obj, result.objective_value)

    doc = {
        "objective": obj.kind.value,
        "param": obj.param,
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
        emit_json(doc, args.out)
    elif args.format == "csv":
        rows = ["symbol,probability,length,codeword"]
        rows += [f"{i + 1},{fmt(pi)},{li},{w}" for i, (pi, li, w) in
                 enumerate(zip(p, result.lengths, result.codewords))]
        emit("\n".join(rows), args.out)
    else:
        # the parameter in 12 digits where they read back as it, in full where they
        # do not tell it from its neighbours, as at q = 1 + 2^-52
        param = "" if obj.param is None else fmt(obj.param)
        if param and float(param) != obj.param:
            param = repr(obj.param)
        lines = [
            f"objective: {obj.kind.value}" + (param and f" param={param}"),
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
        emit("\n".join(lines), args.out)
    return 0


def add_common_flags(sp: argparse.ArgumentParser, formats: tuple[str, ...],
                     needs_input: bool) -> None:
    """--format, of the formats the subcommand writes (the last is the default),
    and --out; with ``needs_input``, --normalize and --assume-sorted too."""
    sp.add_argument("--format", choices=formats, default=formats[-1])
    sp.add_argument("--out", default=None, help="write output to this path")
    if needs_input:
        sp.add_argument("--normalize", action="store_true",
                        help="rescale input to sum to 1 instead of rejecting it; a sum "
                             "within 1e-9 of 1 is divided out with or without this flag")
        sp.add_argument("--assume-sorted", action="store_true",
                        help="verify nonincreasing order instead of sorting")


def add_objective_flag(sp: argparse.ArgumentParser, default: str) -> None:
    sp.add_argument("--objective", choices=[k.value for k in ObjectiveKind], default=default)


def add_param_flags(sp: argparse.ArgumentParser) -> None:
    """--d and --q, the parameters of dexp and expavg."""
    sp.add_argument("--d", type=float, default=None,
                    help=f"dexp only: the order d, in (-1,0) or (0,{D_MAX:g}]; a larger d "
                         f"would overflow the terms (1+d) lg p_i + d l_i")
    sp.add_argument("--q", type=float, default=None, help="expavg only: the base q")


def add_code_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("input", help="probabilities, one per line or a JSON array; '-' for stdin")
    add_objective_flag(sp, "avg")
    add_param_flags(sp)
    add_common_flags(sp, ("json", "csv", "plain"), needs_input=True)


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser of ``argv``: every subcommand's name and help line, and the
    flags and handler of the one its first token that is not an option names.

    argparse hands the tokens after that name to its subparser alone, so no
    other subcommand's flags are read, and none is built.  Each name is still
    added, so the top-level help and usage read the same whatever argv names.
    """
    parser = argparse.ArgumentParser(
        prog="genhuff", allow_abbrev=False,
        description="Optimal binary prefix codes under nonlinear length "
                    "objectives, with redundancy bounds and verification.")
    sub = parser.add_subparsers(dest="command", required=True)
    chosen = next((token for token in argv if not token.startswith("-")), None)
    for name, help_line, home in SUBCOMMANDS:
        sp = sub.add_parser(name, help=help_line, allow_abbrev=False)
        if name == chosen:
            __import__(home)
            module = sys.modules[home]
            getattr(module, f"add_{name}_flags")(sp)
            sp.set_defaults(func=getattr(module, f"cmd_{name}"))
    return parser


def _join_float_values(argv: list[str]) -> list[str]:
    """``--d -5e-1`` as ``--d=-5e-1``: a token that parses as a negative
    float is joined to the ``--flag`` before it.

    argparse reads a token that starts with '-' as a flag unless it matches
    its negative-number pattern, which has no exponent or inf, so the
    space-separated ``--d -1e-12`` or ``--q -inf`` would not reach the range
    check.  The joined token is the flag's value whatever the flag takes:
    ``--j -1`` reads as it did, and a switch such as ``--normalize`` refuses
    it.
    """
    out: list[str] = []
    for token in argv:
        if (out and token.startswith("-") and out[-1].startswith("--")
                and len(out[-1]) > 2 and "=" not in out[-1]):
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
    argv = _join_float_values(sys.argv[1:] if argv is None else argv)
    args = build_parser(argv).parse_args(argv)
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
