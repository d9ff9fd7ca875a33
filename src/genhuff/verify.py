"""The ``genhuff verify`` subcommand: the oracle-backed campaign and the witness checks.

Only ``verify`` needs the exact oracle and the witness generators.
This module holds everything that uses them, its flags included, and
``cli`` imports it only when ``verify`` runs, so the other subcommands
start without loading either.  The flags read the family names from
``witness.FamilyKind``.  ``--n``, the refusal of a witness too large to
check and the witness checks all read one alphabet cap, the oracle's
``DEFAULT_MAX_N``.

Without ``--family`` the campaign runs a table of checks on random pmfs
from one ``random.Random(seed)`` and on ``WITNESS_PANEL``, every family's
witnesses; with ``--family`` it checks one witness pmf built from those of
``--p1``, ``--eps`` and ``--q`` that the family reads (``witness.FAMILIES``).
Flags outside the family's proof range, or a witness too close for the
oracle to resolve, are refused (exit 2).  A family's pmf that ``Pmf``
refuses, or any error from a panel entry, is verify's own fault: a FAIL.
"""

from __future__ import annotations

import argparse
import math
import random

from . import bounds as bnd
from . import witness as wit
from .cli import add_common_flags, emit, fmt, refuse
from .coder import CombineRule, generalized_huffman, unary_code
from .core import (
    BOUND_TOL,
    BoundKind,
    CodingError,
    LengthVector,
    Objective,
    ObjectiveKind,
    Pmf,
    _floor_lg,
    alpha_of_q,
    avg_redundancy,
    ceil_neg_lg,
    dth_exp_redundancy,
    exp_average_cost,
    max_pointwise_redundancy,
    renyi_entropy,
    shannon_entropy,
    validate_pmf,
)
from .oracle import ARGMIN_TOL, DEFAULT_MAX_N, brute_force_optimal, random_complete_lengths

__all__ = ["cmd_verify"]

CAMPAIGN_N = 6
CAMPAIGN_TRIALS = 200
CAMPAIGN_SEED = 42


def _random_pmf(rng: random.Random, nmax: int) -> Pmf:
    """A Dirichlet(1) draw: n = randint(2, nmax) Gamma(1, 1) variates over
    their sum, redrawn until every entry exceeds 1e-9."""
    n = rng.randint(2, nmax)
    while True:
        raw = [rng.gammavariate(1.0, 1.0) for _ in range(n)]
        total = math.fsum(raw)
        probs = [x / total for x in raw]
        if min(probs) > 1e-9:
            return validate_pmf(probs)


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

# The one list of witness parameter sets, every family's, each checked as by
# ``verify --family``; mmpr-upper-low at 1/16 is the largest the oracle checks
WITNESS_PANEL = (
    wit.WitnessFamily(wit.FamilyKind.MMPR_UPPER_HIGH, p1=0.7),
    wit.WitnessFamily(wit.FamilyKind.MMPR_UPPER_HIGH, p1=0.55, eps=0.05),
    wit.WitnessFamily(wit.FamilyKind.MMPR_UPPER_MID, p1=0.45),
    wit.WitnessFamily(wit.FamilyKind.MMPR_UPPER_LOW, p1=0.2, eps=0.01),
    wit.WitnessFamily(wit.FamilyKind.MMPR_UPPER_LOW, p1=0.0625, eps=0.001),
    wit.WitnessFamily(wit.FamilyKind.MMPR_LOWER_A, p1=0.4),
    wit.WitnessFamily(wit.FamilyKind.MMPR_LOWER_B, p1=0.3),
    wit.WitnessFamily(wit.FamilyKind.LEN_UPPER_TIGHT, p1=0.3),
    wit.WitnessFamily(wit.FamilyKind.LEN_LOWER_TIGHT, p1=0.4),
    wit.WitnessFamily(wit.FamilyKind.L1_BOUNDARY_Q_LE_1, q=0.9, eps=0.01),
    wit.WitnessFamily(wit.FamilyKind.L1_BOUNDARY_Q_LE_1, q=1.0, eps=1e-12),
    wit.WitnessFamily(wit.FamilyKind.L1_COUNTEREXAMPLE_Q_GT_1, q=2.0, p1=0.45),
    wit.WitnessFamily(wit.FamilyKind.L1_ALWAYS_ONE_Q_LT_1, q=0.8, p1=0.5),
)


def _refuse_unchecked_witness(fam: wit.WitnessFamily) -> None:
    """Refuse a witness of 2^lam + offset symbols (``witness.FAMILIES``) too
    large for the oracle, before it is built.

    Past 2^MAX_SYMBOLS_LG symbols ``witness.generate`` refuses it itself,
    also before building it, so that message is left to it."""
    offset = wit.FAMILIES[fam.kind][1]
    if offset is None or fam.p1 is None or not 0.0 < fam.p1 < 1.0:
        return
    lam = ceil_neg_lg(fam.p1)
    n = 2 ** lam + offset
    if DEFAULT_MAX_N < n and lam <= wit.MAX_SYMBOLS_LG:
        top = _floor_lg(DEFAULT_MAX_N - offset, 1)
        raise CodingError(f"--family {fam.kind.value} at p_1={fam.p1} needs {n} symbols, "
                          f"past the oracle cap {DEFAULT_MAX_N}: the oracle checks "
                          f"p_1 >= 2^-{top} = {fmt(2.0 ** -top)} only")


def _witness_checks(fam: wit.WitnessFamily, p: Pmf) -> list[tuple[str, bool, str]]:
    """(name, ok, detail) for each claim that p, the pmf of ``fam``, backs."""
    kind, p1 = fam.kind, p.probs[0]
    if kind is wit.FamilyKind.L1_COUNTEREXAMPLE_Q_GT_1:
        obj = Objective.exp_average(fam.q)
        engine = generalized_huffman(p, CombineRule.for_objective(obj))
        best_l1 = wit.one_bit_l1_cost_bound(fam.q, fam.p1)
        checks = []
        if p.n <= DEFAULT_MAX_N:
            res = brute_force_optimal(p, obj)
            checks.append(("l1-counter oracle", all(lv.lengths[0] >= 2 for lv in res.argmin),
                           f"n={p.n}, every optimum has l_1 >= 2, min={fmt(res.min_value)}"))
        checks.append(("l1-counter dominance", engine.objective_value < best_l1 - BOUND_TOL,
                       f"engine cost {fmt(engine.objective_value)} beats best one-bit-l_1 "
                       f"cost {fmt(best_l1)}, so l_1 >= 2 in every optimum"))
        return checks
    if kind is wit.FamilyKind.L1_ALWAYS_ONE_Q_LT_1:
        l1 = generalized_huffman(p, CombineRule.exp_base(fam.q)).lengths.lengths[0]
        return [("l1-always-one", l1 == 1, f"engine l_1 = {l1}")]
    if kind is wit.FamilyKind.L1_BOUNDARY_Q_LE_1:
        obj = Objective.avg() if fam.q == 1.0 else Objective.exp_average(fam.q)
        # the oracle scores the two codes as evaluate does, and keeps both
        # where (1, 2, 3, 3) scores within ARGMIN_TOL of (2, 2, 2, 2)
        square, other = (obj.evaluate(p, LengthVector(l)) for l in ((2, 2, 2, 2), (1, 2, 3, 3)))
        if abs(other - square) <= ARGMIN_TOL:
            raise CodingError(f"--family l1-boundary at q={fam.q}: (1, 2, 3, 3) scores "
                              f"{other - square:.3g} above (2, 2, 2, 2), within the oracle's "
                              f"resolution {ARGMIN_TOL:g}, too close for it to check")
        optima = brute_force_optimal(p, obj).argmin_lengths()
        return [("l1-boundary", optima == ((2, 2, 2, 2),), f"unique optimum {optima}")]

    lam = bnd.lambda_j(p1)
    if kind is wit.FamilyKind.LEN_UPPER_TIGHT:
        # all n = 2^lam codewords at lam score lam + lg p_1, which rises to 1
        # as p_1 nears 2^(1-lam); the best code with l_1 = lam - 1 (p_1 at
        # lam - 1, the last two masses at lam + 1, the rest at lam) scores 1
        shorter = (lam - 1,) + (lam,) * (p.n - 3) + (lam + 1,) * 2
        forced, other = (Objective.max_pointwise().evaluate(p, LengthVector(l))
                         for l in ((lam,) * p.n, shorter))
        if abs(other - forced) <= ARGMIN_TOL:
            raise CodingError(f"--family len-upper-tight at p_1={p1}: l_1 = {lam - 1} scores "
                              f"{other - forced:.3g} above l_1 = {lam}, within the oracle's "
                              f"resolution {ARGMIN_TOL:g}, too close for it to check")
    res = brute_force_optimal(p, Objective.max_pointwise())
    firsts = [lv.lengths[0] for lv in res.argmin]
    # the l_1 values of the oracle's optima, as each length detail names them
    found = " or ".join(map(str, sorted(set(firsts))))
    if kind is wit.FamilyKind.LEN_UPPER_TIGHT:
        if min(firsts) >= lam:
            return [("len-upper-tight", True,
                     f"every optimum has l_1 >= {lam} although ceil(-lg p_1) = {lam}")]
        return [("len-upper-tight", False,
                 f"optimal l_1 = {found}, not all >= ceil(-lg p_1) = {lam}")]
    if kind is wit.FamilyKind.LEN_LOWER_TIGHT:
        # the optimum is mmpr-lower-a's, the lower end of the row p_1 lies in
        expected = bnd.mmpr_bounds(p1).lower
        ok = max(firsts) == lam - 1 and abs(res.min_value - expected) <= BOUND_TOL
        return [("len-lower-tight", ok, f"optimal l_1 = {found}, value {fmt(res.min_value)}")]

    # an MMPR endpoint family: the bound's own tag says attained or approached
    r = bnd.mmpr_bounds(p1)
    end = "upper" if kind.value.startswith("mmpr-upper") else "lower"
    target, tag = (r.upper, r.upper_kind) if end == "upper" else (r.lower, r.lower_kind)
    detail = f"{end} bound {{}}: oracle {fmt(res.min_value)} vs {fmt(target)}"
    if tag is BoundKind.APPROACHABLE:
        # the optimum lies below the bound by lg((1-p_1)/(1-p_1-eps)), eps the
        # last p_i, or under mmpr-upper-high by lg(2 (1-p_1)/p_1) where that is
        # less; both are derived in witness.py, and both vanish as eps -> 0
        gap = math.log2((1.0 - p1) / (1.0 - p1 - p.probs[-1]))
        if kind is wit.FamilyKind.MMPR_UPPER_HIGH:
            gap = min(gap, math.log2(2.0 * (1.0 - p1) / p1))
        ok = abs(target - res.min_value - gap) <= BOUND_TOL
        return [(kind.value, ok, detail.format("approached") + f", gap {fmt(gap)}")]
    ok = abs(res.min_value - target) <= BOUND_TOL
    return [(kind.value, ok, detail.format("attained"))]


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
        if gap > BOUND_TOL:
            return f"{self}; counterexample {name} pmf=" + _pmf_str(p)
        return None


def _sandwich(rng, obj, p):
    """The oracle's optimum under ``obj`` inside the bounds from each p_j:
    ``symbol_bounds``, or under exp average the unit and per-symbol
    ``exp_avg_bounds``, which read the whole pmf."""
    star = brute_force_optimal(p, obj).min_value
    at = "at" if obj.param is None else f"at param={fmt(obj.param)}"
    if obj.kind is ObjectiveKind.EXP_AVERAGE:
        if not bnd.exp_avg_unit_bounds(p, obj.param).contains(star):
            return f"unit bounds violated {at}"
        reports = (bnd.exp_avg_bounds(p, obj.param, j) for j in range(1, p.n + 1))
    else:
        reports = (bnd.symbol_bounds(obj, pj, j) for j, pj in enumerate(p, 1))
    for j, r in enumerate(reports, 1):
        if not r.contains(star):
            return f"violated {at} j={j} p_j={fmt(p.probs[j - 1])} pmf=" + _pmf_str(p)
    return None


def _l1_sandwich(rng, q, p):
    """The oracle's optimum at base q inside ``exp_avg_bounds_l1`` where p_1
    meets the one-bit-l_1 threshold; a refusal there is a failure."""
    if bnd.l1_region(q, p.probs[0]) is not bnd.L1Region.GUARANTEED_L1:
        return None
    star = brute_force_optimal(p, Objective.exp_average(q)).min_value
    at = f"at q={fmt(q)} pmf=" + _pmf_str(p)
    try:
        r = bnd.exp_avg_bounds_l1(p, q)
    except CodingError as e:
        return f"refused {at}: {e}"
    if r.contains(star):
        return None
    return f"optimum {fmt(star)} outside [{fmt(r.lower)}, {fmt(r.upper)}) {at}"


def _limit_continuity(rng, obj, p):
    res, h = generalized_huffman(p, CombineRule.for_objective(obj)), shannon_entropy(p)
    expavg = obj.kind is ObjectiveKind.EXP_AVERAGE
    gaps = (res.objective_value - avg_redundancy(p, res.lengths) - (h if expavg else 0.0),
            renyi_entropy(p, alpha_of_q(obj.param)) - h if expavg else 0.0)
    return (f"value, H_alpha off by {gaps[0]:.3g}, {gaps[1]:.3g} at param={obj.param!r} pmf="
            + _pmf_str(p) if max(map(abs, gaps)) > BOUND_TOL else None)


def _length_conformance(rng, _, p):
    for lv in brute_force_optimal(p, Objective.max_pointwise()).argmin:
        if any(lj > bnd.lambda_j(pj) for pj, lj in zip(p, lv)):
            return f"l={lv.lengths} pmf=" + _pmf_str(p)
    return None


def _moment_ordering(rng, _, p):
    lv = random_complete_lengths(p.n, rng)
    chain = (avg_redundancy(p, lv), dth_exp_redundancy(p, lv, 0.5),
             dth_exp_redundancy(p, lv, 2.0), max_pointwise_redundancy(p, lv))
    neg = dth_exp_redundancy(p, lv, -0.5)
    if any(a > b + 1e-12 for a, b in zip(chain, chain[1:])) \
            or not -1e-12 <= neg <= chain[0] + 1e-12:
        return "violated for pmf=" + _pmf_str(p)
    return None


def _transform_identity(rng, q, p):
    lv = random_complete_lengths(p.n, rng)
    lhs = dth_exp_redundancy(bnd.hat_transform(p, q), lv, math.log2(q))
    rhs = exp_average_cost(p, lv, q) - renyi_entropy(p, alpha_of_q(q))
    return f"q={q} pmf=" + _pmf_str(p) if abs(lhs - rhs) > BOUND_TOL else None


def _unary_regime(rng, _, p):
    q = rng.uniform(0.05, 0.5)
    got = generalized_huffman(p, CombineRule.exp_base(q)).lengths
    return f"q={fmt(q)} pmf=" + _pmf_str(p) if got != unary_code(p.n) else None


def _witness_tightness(rng, fam, _):
    # the panel is verify's own, so is any error from one of its entries
    try:
        rows = _witness_checks(fam, wit.generate(fam))
    except CodingError as e:
        rows = [(fam.kind.value, False, str(e))]
    at = " ".join(f"{f}={v!r}" for f in wit.FAMILIES[fam.kind][0]
                  if (v := getattr(fam, f)) is not None)
    return next((f"{name} at {at}: {detail}" for name, ok, detail in rows if not ok), None)


def _campaign(trials: int) -> tuple:
    """The campaign's checks in run order, one row each: (name, PASS detail,
    parameters, cases per parameter, case function).  A case function takes
    (rng, parameter, pmf or None for a witness) and returns None or a failure detail."""
    quarter = max(1, trials // 4)
    qs = (0.6, 0.9, 1.5, 2.0)
    near = (*map(Objective.dth_exp, (1e-12, -1e-12)),
            *map(Objective.exp_average, (1 + 2.0 ** -52, 1 - 2.0 ** -53, 1 + 1e-12, 1 - 1e-12)))
    engine_oracle = _EngineOracle(trials)
    return (
        ("engine-oracle equivalence", engine_oracle, OBJECTIVE_PANEL, trials, engine_oracle),
        ("mmpr sandwich", "oracle optimum inside the bound interval for every symbol",
         (Objective.max_pointwise(),), trials, _sandwich),
        ("dth sandwich", "oracle optimum inside the interval for d in {0.25, 1, 4, -0.5}",
         tuple(map(Objective.dth_exp, (0.25, 1.0, 4.0, -0.5))), quarter, _sandwich),
        ("exp-average sandwich",
         "oracle optimum inside unit and per-symbol intervals for q in {0.6, 0.9, 1.5, 2}",
         tuple(map(Objective.exp_average, qs)), quarter, _sandwich),
        ("length conformance", "every optimum satisfies l_j <= ceil(-lg p_j)",
         (None,), trials, _length_conformance),
        ("moment ordering",
         "redundancy chain avg <= R^0.5 <= R^2 <= max held with slack >= -1e-12",
         (None,), trials, _moment_ordering),
        ("transform identity", "power-transform identity held to 1e-9",
         qs, quarter, _transform_identity),
        ("unary regime", "coder output equals the unary code for q <= 0.5",
         (None,), 100, _unary_regime),
        ("avg sandwich", "oracle optimum inside the interval for every symbol, "
         "Gallager's at j=1", (Objective.avg(),), trials, _sandwich),
        ("one-bit-l1 sandwich", "oracle optimum inside the one-bit-l_1 interval for q in "
         "{0.51, 0.6, 0.9} wherever p_1 >= 2q/(2q+3)", (0.51, 0.6, 0.9), quarter, _l1_sandwich),
        ("limit continuity", "value within 1e-9 of avg or mean length, and H_alpha of H, "
         "at d = +-1e-12 and q = 1 + 2^-52, 1 - 2^-53, 1 +- 1e-12", near, quarter,
         _limit_continuity),
        ("witness tightness", f"{len(WITNESS_PANEL)} witnesses of "
         f"{len({fam.kind for fam in WITNESS_PANEL})} families back their bound and length "
         "claims to 1e-9", WITNESS_PANEL, 1, _witness_tightness),
    )


def _run_campaign(nmax: int, trials: int, seed: int) -> list[tuple[str, bool, str]]:
    """Run each check, until its first failure, on pmfs from one ``random.Random(seed)``."""
    rng = random.Random(seed)
    results = []
    for name, passed, params, cases, case in _campaign(trials):
        outcomes = (case(rng, param, None if isinstance(param, wit.WitnessFamily)
                         else _random_pmf(rng, nmax)) for param in params for _ in range(cases))
        failure = next((f for f in outcomes if f is not None), None)
        results.append((name, failure is None, str(passed) if failure is None else failure))
    return results


def add_verify_flags(sp: argparse.ArgumentParser) -> None:
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
    add_common_flags(sp, ("plain",), needs_input=False)


def cmd_verify(args) -> int:
    if args.family:
        refuse(args, "with --family", "--n", "--trials", "--seed")
        kind = wit.FamilyKind(args.family)
        refuse(args, f"with --family {args.family}",
                *(f"--{f}" for f in ("p1", "eps", "q") if f not in wit.FAMILIES[kind][0]))
        fam = wit.WitnessFamily(kind, p1=args.p1, eps=args.eps, q=args.q)
        _refuse_unchecked_witness(fam)
        try:
            p = wit.generate(fam)
        except wit.ParamsOutOfProofRange:
            raise
        except CodingError as e:
            lines, results = [], [(kind.value, False, f"the built pmf is refused: {e}")]
        else:
            lines, results = ["pmf: " + _pmf_str(p)], _witness_checks(fam, p)
    else:
        refuse(args, "without --family", "--p1", "--eps", "--q")
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
    emit("\n".join(lines), args.out)
    return 0 if failures == 0 else 1
