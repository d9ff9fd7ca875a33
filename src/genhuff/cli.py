"""Command-line surface: encode, query bounds, sweep figures, verify, Benford demo.

Numbers are printed with 12 significant digits (round half even), and
interval brackets follow the endpoint tags ('[' attained, '(' approached).
The only randomness, the pmfs and length vectors the ``verify`` campaign
samples, comes from ``random.Random(seed)``, so identical invocations
produce byte-identical output on one Python version.  Each subcommand
accepts only the ``--format`` values it honours, and only ``verify`` takes
``--seed``.  The package imports nothing outside the standard library, so
a call's start-up is the interpreter's and genhuff's own.

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
from .oracle import brute_force_optimal, enumerate_kraft_lengths

__all__ = ["ParseError", "main"]

EXIT_BROKEN_PIPE = 141


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


def _objective_from_args(args) -> Objective:
    name = args.objective
    if name == "avg":
        return Objective.avg()
    if name == "mmpr":
        return Objective.max_pointwise()
    if name == "dexp":
        if args.d is None:
            raise CodingError("--objective dexp requires --d")
        return Objective.dth_exp(args.d)
    if args.q is None:
        raise CodingError("--objective expavg requires --q")
    return Objective.exp_average(args.q)


def _entropy_for(p: Pmf, obj: Objective) -> float:
    if obj.kind is ObjectiveKind.EXP_AVERAGE and obj.param > 0.5 and obj.param != 1.0:
        return renyi_entropy(p, alpha_of_q(obj.param))
    return shannon_entropy(p)


def _exact_report(value: float, note: str | None = None) -> BoundReport:
    return BoundReport(value, value, BoundKind.EXACT, BoundKind.EXACT,
                       exact=value, note=note)


def _bounds_for_code(p: Pmf, obj: Objective, value: float) -> BoundReport:
    if p.n == 1:
        return _exact_report(0.0, note="single symbol, null codeword")
    p1 = p.probs[0]
    if obj.kind is ObjectiveKind.AVG_REDUNDANCY:
        return BoundReport(bnd.avg_redundancy_lower(p1),
                           bnd.avg_redundancy_upper_gallager(p1),
                           BoundKind.ACHIEVABLE, BoundKind.APPROACHABLE)
    if obj.kind is ObjectiveKind.MAX_POINTWISE:
        return bnd.mmpr_bounds(p1, is_p1=True)
    if obj.kind is ObjectiveKind.DTH_EXP:
        return bnd.dth_bounds(p1, obj.param, is_p1=True)
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
    j = args.j
    doc: dict = {"objective": obj_name, "j": j}
    if obj_name == "expavg":
        if args.q is None:
            raise CodingError("--objective expavg requires --q")
        if args.input is None:
            raise CodingError("expavg bounds need an input distribution file")
        p = load_pmf(args.input, assume_sorted=args.assume_sorted,
                     normalize=args.normalize)
        report = bnd.exp_avg_bounds(p, args.q, j)
        doc.update(param=_round12(args.q), n=p.n)
    else:
        if args.p is None:
            raise CodingError(f"--objective {obj_name} bounds need --p")
        pj = args.p
        if obj_name == "mmpr":
            report = bnd.mmpr_bounds(pj, is_p1=(j == 1))
            doc.update(param=None, p_j=_round12(pj))
        elif obj_name == "dexp":
            if args.d is None:
                raise CodingError("--objective dexp requires --d")
            report = bnd.dth_bounds(pj, args.d, is_p1=(j == 1))
            doc.update(param=_round12(args.d), p_j=_round12(pj))
        else:
            lo = bnd.avg_redundancy_lower(pj)
            if j == 1:
                report = BoundReport(lo, bnd.avg_redundancy_upper_gallager(pj),
                                     BoundKind.ACHIEVABLE, BoundKind.APPROACHABLE)
            else:
                report = BoundReport(lo, 1.0, BoundKind.ACHIEVABLE,
                                     BoundKind.APPROACHABLE,
                                     note="unit upper bound: top-probability form needs j=1")
            doc.update(param=None, p_j=_round12(pj))
    doc["bounds"] = _report_dict(report)
    if args.format == "json":
        _emit(json.dumps(doc, indent=2), args.out)
    else:
        _emit(f"bounds: {_interval_str(report)}"
              + (f"\nnote: {report.note}" if report.note else ""), args.out)
    return 0


def cmd_sweep(args) -> int:
    step = args.step
    if not 0.0 < step <= 0.1:
        raise CodingError(f"step must lie in (0, 0.1], got {step}")
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
    options = list(enumerate_kraft_lengths(n))
    return options[rng.randrange(len(options))]


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


def one_bit_l1_cost_bound(q: float, p1: float) -> float:
    """Exact optimal cost among codes with l_1 = 1 for the q>1 witness.

    The 2^(2+m) equal tail symbols of the counterexample family optimally
    fill a complete subtree of depth 3+m under the root's other branch, so
    the best one-bit-l_1 cost is log_q(q p_1 + (1-p_1) q^(3+m)).
    Cross-checked against exhaustive enumeration in the test suite.
    """
    m = math.floor(math.log(4.0 * p1 / (1.0 - p1), q))
    return math.log(q * p1 + (1.0 - p1) * q ** (3 + m), q)


class _Verifier:
    def __init__(self, emit):
        self.emit = emit
        self.failures = 0

    def check(self, name: str, ok: bool, detail: str) -> None:
        if ok:
            self.emit(f"PASS {name}: {detail}")
        else:
            self.failures += 1
            self.emit(f"FAIL {name}: {detail}")


def _verify_family(v: _Verifier, args) -> None:
    kind = wit.FamilyKind(args.family)
    fam = wit.WitnessFamily(kind, p1=args.p1, eps=args.eps, q=args.q)
    p = wit.generate(fam)
    v.emit("pmf: " + " ".join(fmt(x) for x in p))

    if kind is wit.FamilyKind.L1_COUNTEREXAMPLE_Q_GT_1:
        obj = Objective.exp_average(args.q)
        engine = generalized_huffman(p, CombineRule.for_objective(obj))
        best_l1 = one_bit_l1_cost_bound(args.q, args.p1)
        if p.n <= 18:
            res = brute_force_optimal(p, obj, max_n=18)
            ok = all(lv.lengths[0] >= 2 for lv in res.argmin)
            v.check("l1-counter oracle", ok,
                    f"n={p.n}, every optimum has l_1 >= 2, min={fmt(res.min_value)}")
        ok = engine.objective_value < best_l1 - 1e-9
        v.check("l1-counter dominance", ok,
                f"engine cost {fmt(engine.objective_value)} beats best one-bit-l_1 "
                f"cost {fmt(best_l1)}, so l_1 >= 2 in every optimum")
        return

    if kind is wit.FamilyKind.L1_ALWAYS_ONE_Q_LT_1:
        engine = generalized_huffman(p, CombineRule.exp_base(args.q))
        v.check("l1-always-one", engine.lengths.lengths[0] == 1,
                f"engine l_1 = {engine.lengths.lengths[0]}")
        return

    if kind is wit.FamilyKind.L1_BOUNDARY_Q_LE_1:
        obj = Objective.avg() if args.q == 1.0 else Objective.exp_average(args.q)
        res = brute_force_optimal(p, obj)
        ok = res.argmin_lengths() == ((2, 2, 2, 2),)
        v.check("l1-boundary", ok, f"unique optimum {res.argmin_lengths()}")
        return

    res = brute_force_optimal(p, Objective.max_pointwise())
    r = bnd.mmpr_bounds(p.probs[0], is_p1=True)
    lam = bnd.lambda_j(p.probs[0])
    if kind in (wit.FamilyKind.MMPR_UPPER_HIGH, wit.FamilyKind.MMPR_UPPER_MID):
        target, name = r.upper, "upper bound attained"
        ok = abs(res.min_value - target) <= 1e-9
    elif kind is wit.FamilyKind.MMPR_UPPER_LOW:
        target, name = r.upper, "upper bound approached"
        ok = 0.0 <= target - res.min_value < 0.01
    elif kind in (wit.FamilyKind.MMPR_LOWER_A, wit.FamilyKind.MMPR_LOWER_B):
        target, name = r.lower, "lower bound attained"
        ok = abs(res.min_value - target) <= 1e-9
    elif kind is wit.FamilyKind.LEN_UPPER_TIGHT:
        ok = all(lv.lengths[0] >= lam for lv in res.argmin)
        v.check("len-upper-tight", ok,
                f"every optimum has l_1 >= {lam} although ceil(-lg p_1) = {lam}")
        return
    else:
        nu = lam
        expected = nu + math.log2((1.0 - p.probs[0]) / (2 ** nu - 2))
        ok = (any(lv.lengths[0] == nu - 1 for lv in res.argmin)
              and all(lv.lengths[0] <= nu - 1 for lv in res.argmin)
              and abs(res.min_value - expected) <= 1e-9)
        v.check("len-lower-tight", ok,
                f"optimal l_1 = {nu - 1}, value {fmt(res.min_value)}")
        return
    v.check(kind.value, ok, f"{name}: oracle {fmt(res.min_value)} vs {fmt(target)}")


def _verify_campaign(v: _Verifier, nmax: int, trials: int, seed: int) -> None:
    rng = random.Random(seed)

    worst = 0.0
    bad = None
    for name, obj in OBJECTIVE_PANEL:
        for _ in range(trials):
            p = _random_pmf(rng, rng.randint(2, nmax))
            engine = generalized_huffman(p, CombineRule.for_objective(obj))
            res = brute_force_optimal(p, obj)
            gap = abs(engine.objective_value - res.min_value)
            if gap > worst:
                worst, bad = gap, (name, p)
            if gap > 1e-9:
                break
    v.check("engine-oracle equivalence", worst <= 1e-9,
            f"max |engine - oracle| = {worst:.3g} over {trials} pmfs x "
            f"{len(OBJECTIVE_PANEL)} objectives"
            + ("" if worst <= 1e-9 else f"; counterexample {bad[0]} pmf="
               + " ".join(fmt(x) for x in bad[1])))

    ok = True
    detail = "oracle optimum inside the bound interval for every symbol"
    for _ in range(trials):
        p = _random_pmf(rng, rng.randint(2, nmax))
        star = brute_force_optimal(p, Objective.max_pointwise()).min_value
        for idx, pj in enumerate(p):
            if not bnd.mmpr_bounds(pj, is_p1=(idx == 0)).contains(star):
                ok = False
                detail = f"violated at p_j={fmt(pj)} pmf=" + " ".join(fmt(x) for x in p)
                break
        if not ok:
            break
    v.check("mmpr sandwich", ok, detail)

    ok = True
    detail = "oracle optimum inside the interval for d in {0.25, 1, 4, -0.5}"
    for d in (0.25, 1.0, 4.0, -0.5):
        for _ in range(max(1, trials // 4)):
            p = _random_pmf(rng, rng.randint(2, nmax))
            rd = brute_force_optimal(p, Objective.dth_exp(d)).min_value
            for idx, pj in enumerate(p):
                if not bnd.dth_bounds(pj, d, is_p1=(idx == 0)).contains(rd):
                    ok = False
                    detail = (f"violated at d={d} p_j={fmt(pj)} pmf="
                              + " ".join(fmt(x) for x in p))
                    break
            if not ok:
                break
    v.check("dth sandwich", ok, detail)

    ok = True
    detail = "oracle optimum inside unit and per-symbol intervals for q in {0.6, 0.9, 1.5, 2}"
    for q in (0.6, 0.9, 1.5, 2.0):
        for _ in range(max(1, trials // 4)):
            p = _random_pmf(rng, rng.randint(2, nmax))
            cost = brute_force_optimal(p, Objective.exp_average(q)).min_value
            if not bnd.exp_avg_unit_bounds(p, q).contains(cost):
                ok, detail = False, f"unit bounds violated at q={q}"
                break
            for j in range(1, p.n + 1):
                if not bnd.exp_avg_bounds(p, q, j).contains(cost):
                    ok = False
                    detail = (f"violated at q={q} j={j} pmf="
                              + " ".join(fmt(x) for x in p))
                    break
            if not ok:
                break
    v.check("exp-average sandwich", ok, detail)

    ok = True
    detail = "every optimum satisfies l_j <= ceil(-lg p_j)"
    for _ in range(trials):
        p = _random_pmf(rng, rng.randint(2, nmax))
        res = brute_force_optimal(p, Objective.max_pointwise())
        for lv in res.argmin:
            for pj, lj in zip(p, lv):
                if lj > bnd.lambda_j(pj):
                    ok = False
                    detail = f"l={lv.lengths} pmf=" + " ".join(fmt(x) for x in p)
                    break
    v.check("length conformance", ok, detail)

    ok = True
    detail = "redundancy chain avg <= R^0.5 <= R^2 <= max held with slack >= -1e-12"
    for _ in range(trials):
        p = _random_pmf(rng, rng.randint(2, nmax))
        lv = _random_lengths(rng, p.n)
        chain = (avg_redundancy(p, lv), dth_exp_redundancy(p, lv, 0.5),
                 dth_exp_redundancy(p, lv, 2.0), max_pointwise_redundancy(p, lv))
        neg = dth_exp_redundancy(p, lv, -0.5)
        if any(a > b + 1e-12 for a, b in zip(chain, chain[1:])) \
                or not -1e-12 <= neg <= chain[0] + 1e-12:
            ok = False
            detail = f"violated for pmf=" + " ".join(fmt(x) for x in p)
            break
    v.check("moment ordering", ok, detail)

    ok = True
    detail = "power-transform identity held to 1e-9"
    for q in (0.6, 0.9, 1.5, 2.0):
        for _ in range(max(1, trials // 4)):
            p = _random_pmf(rng, rng.randint(2, nmax))
            lv = _random_lengths(rng, p.n)
            lhs = dth_exp_redundancy(bnd.hat_transform(p, q), lv, math.log2(q))
            rhs = exp_average_cost(p, lv, q) - renyi_entropy(p, alpha_of_q(q))
            if abs(lhs - rhs) > 1e-9:
                ok, detail = False, f"q={q} pmf=" + " ".join(fmt(x) for x in p)
                break
    v.check("transform identity", ok, detail)

    ok = True
    detail = "coder output equals the unary code for q <= 0.5"
    for _ in range(100):
        p = _random_pmf(rng, rng.randint(2, nmax))
        q = rng.uniform(0.05, 0.5)
        got = generalized_huffman(p, CombineRule.exp_base(q)).lengths
        if got.lengths != unary_code(p.n).lengths:
            ok, detail = False, f"q={fmt(q)} pmf=" + " ".join(fmt(x) for x in p)
            break
    v.check("unary regime", ok, detail)

    panel = [
        ("mmpr-upper-high", wit.WitnessFamily(wit.FamilyKind.MMPR_UPPER_HIGH, p1=0.7)),
        ("mmpr-upper-mid", wit.WitnessFamily(wit.FamilyKind.MMPR_UPPER_MID, p1=0.45)),
        ("mmpr-lower-a", wit.WitnessFamily(wit.FamilyKind.MMPR_LOWER_A, p1=0.4)),
        ("mmpr-lower-b", wit.WitnessFamily(wit.FamilyKind.MMPR_LOWER_B, p1=0.3)),
    ]
    ok = True
    detail = "witness distributions attain their bound endpoints to 1e-9"
    for name, fam in panel:
        p = wit.generate(fam)
        res = brute_force_optimal(p, Objective.max_pointwise())
        r = bnd.mmpr_bounds(p.probs[0], is_p1=True)
        target = r.upper if "upper" in name else r.lower
        if abs(res.min_value - target) > 1e-9:
            ok, detail = False, f"{name}: oracle {fmt(res.min_value)} vs {fmt(target)}"
            break
    v.check("witness tightness", ok, detail)


def cmd_verify(args) -> int:
    lines: list[str] = []
    v = _Verifier(lines.append)
    if args.family:
        _verify_family(v, args)
    else:
        if args.trials < 1:
            raise CodingError(f"trials must be >= 1, got {args.trials}")
        if args.n < 2:
            raise CodingError(f"n must be >= 2, got {args.n}")
        _verify_campaign(v, args.n, args.trials, args.seed)
    lines.append("result: " + ("ok" if v.failures == 0 else f"{v.failures} failure(s)"))
    _emit("\n".join(lines), args.out)
    return 0 if v.failures == 0 else 1


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
    sp.add_argument("--d", type=float, default=None)
    sp.add_argument("--q", type=float, default=None)
    add_common(sp, ("json", "csv", "plain"), needs_input=True)
    sp.set_defaults(func=cmd_code)

    sp = sub.add_parser("bounds", help="closed-form bounds on the optimal value")
    sp.add_argument("input", nargs="?", default=None,
                    help="distribution file (required for expavg)")
    sp.add_argument("--objective", choices=("avg", "mmpr", "dexp", "expavg"),
                    default="mmpr")
    sp.add_argument("--p", type=float, default=None, help="known symbol probability")
    sp.add_argument("--j", type=int, default=1,
                    help="1-based symbol index the probability belongs to")
    sp.add_argument("--d", type=float, default=None)
    sp.add_argument("--q", type=float, default=None)
    add_common(sp, ("json", "plain"), needs_input=True)
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("sweep", help="emit bound curves as CSV")
    sp.add_argument("--figure", choices=("mmpr", "dexp", "l1region"), required=True)
    sp.add_argument("--step", type=float, default=0.01)
    add_common(sp, ("csv",), needs_input=False)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("verify", help="run the oracle-backed invariant battery")
    sp.add_argument("--n", type=int, default=6, help="largest random alphabet size")
    sp.add_argument("--trials", type=int, default=200)
    sp.add_argument("--family", choices=[k.value for k in wit.FamilyKind], default=None,
                    help="check one witness family instead of the full campaign")
    sp.add_argument("--p1", type=float, default=None)
    sp.add_argument("--eps", type=float, default=None)
    sp.add_argument("--q", type=float, default=None)
    sp.add_argument("--seed", type=int, default=42)
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
