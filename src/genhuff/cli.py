"""Command-line surface: encode, query bounds, sweep figures, verify, Benford demo.

Numbers are printed with 12 significant digits (round half even), and
interval brackets follow the endpoint tags ('[' attained, '(' approached).
The only randomness, the pmfs and length vectors the ``verify`` campaign
samples, comes from ``random.Random(seed)``, so identical invocations
produce byte-identical output on one Python version.  The package imports
nothing outside the standard library, so a call's start-up is the
interpreter's and genhuff's own.

A flag that would have no effect is refused (exit 2).  ``code`` and
``bounds`` take ``--d`` only under ``--objective dexp`` and ``--q`` only
under ``expavg``; ``bounds`` takes the input file, ``--normalize`` and
``--assume-sorted`` only under ``expavg``, ``--p`` everywhere else, and
``--j`` everywhere but ``mmpr``.  ``verify`` without ``--family`` runs the
campaign, a table of checks on random pmfs, and takes ``--n`` (up to the
oracle's cap), ``--trials`` and ``--seed``; with ``--family`` it checks one
witness pmf built from those of ``--p1``, ``--eps`` and ``--q`` that the
family reads (``FAMILY_FLAGS``).  Each subcommand takes only the
``--format`` values it honours.

Exit codes: 0 success, 1 verification failure, 2 usage or input error,
141 output pipe closed by its reader (128 + SIGPIPE, as a shell reports a
process that SIGPIPE ended).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys

from . import bounds as bnd
from . import witness as wit
from .coder import CombineRule, generalized_huffman, unary_code
from .core import (
    BoundKind,
    BoundReport,
    CodingError,
    LengthVector,
    Objective,
    ObjectiveKind,
    Pmf,
    alpha_of_q,
    avg_redundancy,
    benford,
    dth_exp_redundancy,
    exp_average_cost,
    max_pointwise_redundancy,
    renyi_entropy,
    shannon_entropy,
    success_probability,
    validate_pmf,
)
from .oracle import DEFAULT_MAX_N, brute_force_optimal, kraft_length_tuples

__all__ = ["ParseError", "main"]

EXIT_BROKEN_PIPE = 141

CAMPAIGN_N = 6
CAMPAIGN_TRIALS = 200
CAMPAIGN_SEED = 42
SWEEP_MIN_STEP = 1e-5  # a sweep holds every row until it writes: at most ~2e5 here


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
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def load_pmf(path: str, assume_sorted: bool = False, normalize: bool = False) -> Pmf:
    """Read one decimal per line ('#' comments allowed) or a JSON array."""
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as e:
            raise ParseError(f"cannot read {path}: {e}") from e
    if text.lstrip().startswith("["):
        try:
            vals = json.loads(text)
        except json.JSONDecodeError as e:
            raise ParseError(f"{path}: invalid JSON array: {e}") from e
        if not isinstance(vals, list) or not all(isinstance(v, (int, float)) for v in vals):
            raise ParseError(f"{path}: JSON input must be a flat array of numbers")
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


def _entropy_for(p: Pmf, obj: Objective) -> float:
    if obj.kind is ObjectiveKind.EXP_AVERAGE and obj.param > 0.5 and obj.param != 1.0:
        return renyi_entropy(p, alpha_of_q(obj.param))
    return shannon_entropy(p)


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


def _bounds_for_code(p: Pmf, obj: Objective, value: float) -> BoundReport:
    if p.n == 1:
        return _exact_report(0.0, note="single symbol, null codeword")
    if obj.kind is not ObjectiveKind.EXP_AVERAGE:
        return _symbol_bounds(obj, p.probs[0], 1)
    if obj.param <= 0.5:
        return _exact_report(value, note="unary-optimal regime (q <= 0.5)")
    return bnd.exp_avg_bounds(p, obj.param, 1)


def cmd_code(args) -> int:
    obj = _objective_from_args(args)
    p = load_pmf(args.input, assume_sorted=args.assume_sorted, normalize=args.normalize)
    result = generalized_huffman(p, CombineRule.for_objective(obj))
    entropy = _entropy_for(p, obj)
    report = _bounds_for_code(p, obj, result.objective_value)

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
    if args.format == "json":
        _emit(json.dumps(doc, indent=2), args.out)
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
        if obj.kind is ObjectiveKind.EXP_AVERAGE and 0.0 < obj.param < 1.0:
            lines.append(f"success_probability: "
                         f"{fmt(success_probability(p, result.lengths, obj.param))}")
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
        _emit(json.dumps(doc, indent=2), args.out)
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


def _random_pmf(rng: random.Random, n: int) -> Pmf:
    """A Dirichlet(1) draw: n Gamma(1, 1) variates over their sum, redrawn
    until every entry exceeds 1e-9."""
    while True:
        raw = [rng.gammavariate(1.0, 1.0) for _ in range(n)]
        total = math.fsum(raw)
        probs = [x / total for x in raw]
        if min(probs) > 1e-9:
            return validate_pmf(probs)


def _random_lengths(rng: random.Random, n: int) -> LengthVector:
    options = list(kraft_length_tuples(n))
    return LengthVector(options[rng.randrange(len(options))])


def _pmf_str(p: Pmf) -> str:
    return " ".join(fmt(x) for x in p)


OBJECTIVE_PANEL = (
    ("avg", Objective.avg()),
    ("mmpr", Objective.max_pointwise()),
    ("dexp d=-0.5", Objective.dth_exp(-0.5)),
    ("dexp d=0.5", Objective.dth_exp(0.5)),
    ("dexp d=2", Objective.dth_exp(2.0)),
    ("expavg q=0.6", Objective.exp_average(0.6)),
    ("expavg q=0.9", Objective.exp_average(0.9)),
    ("expavg q=1.5", Objective.exp_average(1.5)),
    ("expavg q=2", Objective.exp_average(2.0)),
)

WITNESS_PANEL = (
    wit.WitnessFamily(wit.FamilyKind.MMPR_UPPER_HIGH, p1=0.7),
    wit.WitnessFamily(wit.FamilyKind.MMPR_UPPER_MID, p1=0.45),
    wit.WitnessFamily(wit.FamilyKind.MMPR_LOWER_A, p1=0.4),
    wit.WitnessFamily(wit.FamilyKind.MMPR_LOWER_B, p1=0.3),
)


def one_bit_l1_cost_bound(q: float, p1: float) -> float:
    """Exact optimal cost among codes with l_1 = 1 for the q>1 witness.

    The 2^(2+m) equal tail symbols of the counterexample family optimally
    fill a complete subtree of depth 3+m under the root's other branch, so
    the best one-bit-l_1 cost is log_q(q p_1 + (1-p_1) q^(3+m)).
    Cross-checked against exhaustive enumeration in the test suite.
    """
    m = math.floor(math.log(4.0 * p1 / (1.0 - p1), q))
    return math.log(q * p1 + (1.0 - p1) * q ** (3 + m), q)


WITNESS_MAX_N = 18  # the oracle's cap on a witness: 2^lam families reach 17 at lam = 4


def _witness_checks(fam: wit.WitnessFamily, p: Pmf) -> list[tuple[str, bool, str]]:
    """(name, ok, detail) for each claim that p, the pmf of ``fam``, backs."""
    kind, p1 = fam.kind, p.probs[0]
    if kind is wit.FamilyKind.L1_COUNTEREXAMPLE_Q_GT_1:
        obj = Objective.exp_average(fam.q)
        engine = generalized_huffman(p, CombineRule.for_objective(obj))
        best_l1 = one_bit_l1_cost_bound(fam.q, fam.p1)
        checks = []
        if p.n <= WITNESS_MAX_N:
            res = brute_force_optimal(p, obj, max_n=WITNESS_MAX_N)
            checks.append(("l1-counter oracle", all(lv.lengths[0] >= 2 for lv in res.argmin),
                           f"n={p.n}, every optimum has l_1 >= 2, min={fmt(res.min_value)}"))
        checks.append(("l1-counter dominance", engine.objective_value < best_l1 - 1e-9,
                       f"engine cost {fmt(engine.objective_value)} beats best one-bit-l_1 "
                       f"cost {fmt(best_l1)}, so l_1 >= 2 in every optimum"))
        return checks
    if kind is wit.FamilyKind.L1_ALWAYS_ONE_Q_LT_1:
        l1 = generalized_huffman(p, CombineRule.exp_base(fam.q)).lengths.lengths[0]
        return [("l1-always-one", l1 == 1, f"engine l_1 = {l1}")]
    if kind is wit.FamilyKind.L1_BOUNDARY_Q_LE_1:
        obj = Objective.avg() if fam.q == 1.0 else Objective.exp_average(fam.q)
        optima = brute_force_optimal(p, obj).argmin_lengths()
        return [("l1-boundary", optima == ((2, 2, 2, 2),), f"unique optimum {optima}")]

    res = brute_force_optimal(p, Objective.max_pointwise(), max_n=WITNESS_MAX_N)
    firsts = [lv.lengths[0] for lv in res.argmin]
    lam = bnd.lambda_j(p1)
    if kind is wit.FamilyKind.LEN_UPPER_TIGHT:
        return [("len-upper-tight", min(firsts) >= lam,
                 f"every optimum has l_1 >= {lam} although ceil(-lg p_1) = {lam}")]
    if kind is wit.FamilyKind.LEN_LOWER_TIGHT:
        expected = lam + math.log2((1.0 - p1) / (2 ** lam - 2))
        ok = max(firsts) == lam - 1 and abs(res.min_value - expected) <= 1e-9
        return [("len-lower-tight", ok, f"optimal l_1 = {lam - 1}, value {fmt(res.min_value)}")]

    # an MMPR endpoint family: the bound's own tag says attained or approached
    r = bnd.mmpr_bounds(p1)
    end = "upper" if kind.value.startswith("mmpr-upper") else "lower"
    target, tag = (r.upper, r.upper_kind) if end == "upper" else (r.lower, r.lower_kind)
    if tag is BoundKind.APPROACHABLE:
        # to the 1e-9 of "attained": an eps window below an ulp puts the pmf on the bound
        how, ok = "approached", -1e-9 <= target - res.min_value < 0.01
    else:
        how, ok = "attained", abs(res.min_value - target) <= 1e-9
    return [(kind.value, ok, f"{end} bound {how}: oracle {fmt(res.min_value)} vs {fmt(target)}")]


class _EngineOracle:
    """The engine-oracle case; str() is its PASS detail, with the largest gap."""

    def __init__(self, trials: int):
        self.trials = trials
        self.worst = 0.0

    def __str__(self) -> str:
        return (f"max |engine - oracle| = {self.worst:.3g} over {self.trials} pmfs x "
                f"{len(OBJECTIVE_PANEL)} objectives")

    def __call__(self, rng, named, p):
        name, obj = named
        engine = generalized_huffman(p, CombineRule.for_objective(obj))
        gap = abs(engine.objective_value - brute_force_optimal(p, obj).min_value)
        self.worst = max(self.worst, gap)
        if gap > 1e-9:
            return f"{self}; counterexample {name} pmf=" + _pmf_str(p)
        return None


def _mmpr_sandwich(rng, _, p):
    star = brute_force_optimal(p, Objective.max_pointwise()).min_value
    for pj in p:
        if not bnd.mmpr_bounds(pj).contains(star):
            return f"violated at p_j={fmt(pj)} pmf=" + _pmf_str(p)
    return None


def _dth_sandwich(rng, d, p):
    rd = brute_force_optimal(p, Objective.dth_exp(d)).min_value
    for idx, pj in enumerate(p):
        if not bnd.dth_bounds(pj, d, is_p1=(idx == 0)).contains(rd):
            return f"violated at d={d} p_j={fmt(pj)} pmf=" + _pmf_str(p)
    return None


def _exp_avg_sandwich(rng, q, p):
    cost = brute_force_optimal(p, Objective.exp_average(q)).min_value
    if not bnd.exp_avg_unit_bounds(p, q).contains(cost):
        return f"unit bounds violated at q={q}"
    for j in range(1, p.n + 1):
        if not bnd.exp_avg_bounds(p, q, j).contains(cost):
            return f"violated at q={q} j={j} pmf=" + _pmf_str(p)
    return None


def _length_conformance(rng, _, p):
    for lv in brute_force_optimal(p, Objective.max_pointwise()).argmin:
        if any(lj > bnd.lambda_j(pj) for pj, lj in zip(p, lv)):
            return f"l={lv.lengths} pmf=" + _pmf_str(p)
    return None


def _moment_ordering(rng, _, p):
    lv = _random_lengths(rng, p.n)
    chain = (avg_redundancy(p, lv), dth_exp_redundancy(p, lv, 0.5),
             dth_exp_redundancy(p, lv, 2.0), max_pointwise_redundancy(p, lv))
    neg = dth_exp_redundancy(p, lv, -0.5)
    if any(a > b + 1e-12 for a, b in zip(chain, chain[1:])) \
            or not -1e-12 <= neg <= chain[0] + 1e-12:
        return "violated for pmf=" + _pmf_str(p)
    return None


def _transform_identity(rng, q, p):
    lv = _random_lengths(rng, p.n)
    lhs = dth_exp_redundancy(bnd.hat_transform(p, q), lv, math.log2(q))
    rhs = exp_average_cost(p, lv, q) - renyi_entropy(p, alpha_of_q(q))
    return f"q={q} pmf=" + _pmf_str(p) if abs(lhs - rhs) > 1e-9 else None


def _unary_regime(rng, _, p):
    q = rng.uniform(0.05, 0.5)
    got = generalized_huffman(p, CombineRule.exp_base(q)).lengths
    return f"q={fmt(q)} pmf=" + _pmf_str(p) if got != unary_code(p.n) else None


def _witness_tightness(rng, fam, p):
    return next((f"{name}: {detail}" for name, ok, detail in _witness_checks(fam, p)
                 if not ok), None)


def _case_pmf(rng: random.Random, nmax: int, param) -> Pmf:
    """A witness family brings its own pmf; every other case draws one."""
    if isinstance(param, wit.WitnessFamily):
        return wit.generate(param)
    return _random_pmf(rng, rng.randint(2, nmax))


def _campaign(trials: int) -> tuple:
    """The campaign's checks in run order, one row each: (name, PASS detail,
    parameters, cases per parameter, case function).  A case function takes
    (rng, parameter, pmf) and returns None or a failure detail."""
    quarter = max(1, trials // 4)
    qs = (0.6, 0.9, 1.5, 2.0)
    engine_oracle = _EngineOracle(trials)
    return (
        ("engine-oracle equivalence", engine_oracle, OBJECTIVE_PANEL, trials, engine_oracle),
        ("mmpr sandwich", "oracle optimum inside the bound interval for every symbol",
         (None,), trials, _mmpr_sandwich),
        ("dth sandwich", "oracle optimum inside the interval for d in {0.25, 1, 4, -0.5}",
         (0.25, 1.0, 4.0, -0.5), quarter, _dth_sandwich),
        ("exp-average sandwich",
         "oracle optimum inside unit and per-symbol intervals for q in {0.6, 0.9, 1.5, 2}",
         qs, quarter, _exp_avg_sandwich),
        ("length conformance", "every optimum satisfies l_j <= ceil(-lg p_j)",
         (None,), trials, _length_conformance),
        ("moment ordering",
         "redundancy chain avg <= R^0.5 <= R^2 <= max held with slack >= -1e-12",
         (None,), trials, _moment_ordering),
        ("transform identity", "power-transform identity held to 1e-9",
         qs, quarter, _transform_identity),
        ("unary regime", "coder output equals the unary code for q <= 0.5",
         (None,), 100, _unary_regime),
        ("witness tightness", "witness distributions attain their bound endpoints to 1e-9",
         WITNESS_PANEL, 1, _witness_tightness),
    )


def _run_campaign(nmax: int, trials: int, seed: int) -> list[tuple[str, bool, str]]:
    """Run each check, until its first failure, on pmfs from one ``random.Random(seed)``."""
    rng = random.Random(seed)
    results = []
    for name, passed, params, cases, case in _campaign(trials):
        outcomes = (case(rng, param, _case_pmf(rng, nmax, param))
                    for param in params for _ in range(cases))
        failure = next((f for f in outcomes if f is not None), None)
        results.append((name, failure is None, str(passed) if failure is None else failure))
    return results


# the WitnessFamily fields that witness.generate reads for each family
FAMILY_FLAGS = {
    wit.FamilyKind.MMPR_UPPER_HIGH: ("--p1", "--eps"),
    wit.FamilyKind.MMPR_UPPER_MID: ("--p1", "--eps"),
    wit.FamilyKind.MMPR_UPPER_LOW: ("--p1", "--eps"),
    wit.FamilyKind.MMPR_LOWER_A: ("--p1",),
    wit.FamilyKind.MMPR_LOWER_B: ("--p1",),
    wit.FamilyKind.LEN_UPPER_TIGHT: ("--p1",),
    wit.FamilyKind.LEN_LOWER_TIGHT: ("--p1",),
    wit.FamilyKind.L1_BOUNDARY_Q_LE_1: ("--q", "--eps"),
    wit.FamilyKind.L1_COUNTEREXAMPLE_Q_GT_1: ("--q", "--p1"),
    wit.FamilyKind.L1_ALWAYS_ONE_Q_LT_1: ("--q", "--p1"),
}


def cmd_verify(args) -> int:
    if args.family:
        _refuse(args, "with --family", "--n", "--trials", "--seed")
        kind = wit.FamilyKind(args.family)
        _refuse(args, f"with --family {args.family}",
                *(f for f in ("--p1", "--eps", "--q") if f not in FAMILY_FLAGS[kind]))
        fam = wit.WitnessFamily(kind, p1=args.p1, eps=args.eps, q=args.q)
        p = wit.generate(fam)
        lines = ["pmf: " + _pmf_str(p)]
        results = _witness_checks(fam, p)
    else:
        _refuse(args, "without --family", "--p1", "--eps", "--q")
        nmax = CAMPAIGN_N if args.n is None else args.n
        trials = CAMPAIGN_TRIALS if args.trials is None else args.trials
        if trials < 1:
            raise CodingError(f"trials must be >= 1, got {trials}")
        if not 2 <= nmax <= DEFAULT_MAX_N:
            raise CodingError(f"n must be >= 2 and <= {DEFAULT_MAX_N} (the oracle's cap), "
                              f"got {nmax}")
        lines = []
        results = _run_campaign(nmax, trials, CAMPAIGN_SEED if args.seed is None else args.seed)
    failures = sum(not ok for _, ok, _ in results)
    lines += [f"{'PASS' if ok else 'FAIL'} {name}: {detail}" for name, ok, detail in results]
    lines.append("result: " + ("ok" if failures == 0 else f"{failures} failure(s)"))
    _emit("\n".join(lines), args.out)
    return 0 if failures == 0 else 1


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
        _emit(json.dumps(doc, indent=2), args.out)
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

    sp = sub.add_parser("code", help="construct an optimal code for a distribution")
    sp.add_argument("input", help="probabilities, one per line or a JSON array; '-' for stdin")
    sp.add_argument("--objective", choices=("avg", "mmpr", "dexp", "expavg"), default="avg")
    sp.add_argument("--d", type=float, default=None, help="dexp only: the order d")
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
    sp.add_argument("--d", type=float, default=None, help="dexp only: the order d")
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
                    help=f"campaign only: largest random alphabet size, 2..{DEFAULT_MAX_N} "
                         f"(default {CAMPAIGN_N})")
    sp.add_argument("--trials", type=int, default=None,
                    help=f"campaign only: random pmfs per check (default {CAMPAIGN_TRIALS})")
    sp.add_argument("--seed", type=int, default=None,
                    help=f"campaign only: seed of the random pmfs (default {CAMPAIGN_SEED})")
    sp.add_argument("--family", choices=[k.value for k in wit.FamilyKind], default=None,
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
