"""The ``genhuff verify`` subcommand: the oracle-backed campaign and the witness checks.

Only ``verify`` needs the exhaustive oracle and the witness generators.
This module holds everything that uses them, and ``cli`` imports it only
when ``verify`` runs, so the other subcommands start without loading either.

Without ``--family`` the campaign runs a table of checks on random pmfs
from one ``random.Random(seed)``; with ``--family`` it checks one witness
pmf built from those of ``--p1``, ``--eps`` and ``--q`` that the family
reads (``FAMILY_FLAGS``).
"""

from __future__ import annotations

import math
import random

from . import bounds as bnd
from . import witness as wit
from .cli import CAMPAIGN_N, CAMPAIGN_SEED, CAMPAIGN_TRIALS, _emit, _refuse, fmt
from .coder import CombineRule, generalized_huffman, unary_code
from .core import (
    BoundKind,
    CodingError,
    LengthVector,
    Objective,
    Pmf,
    alpha_of_q,
    avg_redundancy,
    ceil_neg_lg,
    dth_exp_redundancy,
    exp_average_cost,
    max_pointwise_redundancy,
    renyi_entropy,
    validate_pmf,
)
from .oracle import DEFAULT_MAX_N, _completions, _unrank, brute_force_optimal

__all__ = ["cmd_verify"]


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
    """A uniform draw from the ``kraft_length_tuples(n)`` vectors, made by
    unranking the drawn index rather than listing them."""
    return LengthVector(_unrank(n, rng.randrange(_completions(1, n))))


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

WITNESS_MAX_N = 18  # the oracle's cap on a witness: 2^lam families reach 17 at lam = 4

# The families whose witness has 2^lam + offset symbols, lam = ceil(-lg p_1);
# each is checked against the oracle, so its p_1 must keep it to WITNESS_MAX_N.
POWER_FAMILY_OFFSET = {
    wit.FamilyKind.MMPR_UPPER_MID: 0,
    wit.FamilyKind.MMPR_UPPER_LOW: 1,
    wit.FamilyKind.MMPR_LOWER_A: -1,
    wit.FamilyKind.MMPR_LOWER_B: 0,
    wit.FamilyKind.LEN_UPPER_TIGHT: 0,
    wit.FamilyKind.LEN_LOWER_TIGHT: -1,
}


def _refuse_unchecked_witness(fam: wit.WitnessFamily) -> None:
    """Refuse a 2^lam witness too large for the oracle, before it is built.

    Past 2^MAX_SYMBOLS_LG symbols ``witness.generate`` refuses it itself,
    also before building it, so that message is left to it."""
    offset = POWER_FAMILY_OFFSET.get(fam.kind)
    if offset is None or fam.p1 is None or not 0.0 < fam.p1 < 1.0:
        return
    lam = ceil_neg_lg(fam.p1)
    n = 2 ** lam + offset
    if WITNESS_MAX_N < n and lam <= wit.MAX_SYMBOLS_LG:
        top = (WITNESS_MAX_N - offset).bit_length() - 1
        raise CodingError(f"--family {fam.kind.value} at p_1={fam.p1} needs {n} symbols, "
                          f"past the oracle cap {WITNESS_MAX_N}: the oracle checks "
                          f"p_1 >= 2^-{top} = {fmt(2.0 ** -top)} only")


def _witness_checks(fam: wit.WitnessFamily, p: Pmf) -> list[tuple[str, bool, str]]:
    """(name, ok, detail) for each claim that p, the pmf of ``fam``, backs."""
    kind, p1 = fam.kind, p.probs[0]
    if kind is wit.FamilyKind.L1_COUNTEREXAMPLE_Q_GT_1:
        obj = Objective.exp_average(fam.q)
        engine = generalized_huffman(p, CombineRule.for_objective(obj))
        best_l1 = wit.one_bit_l1_cost_bound(fam.q, fam.p1)
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
    detail = f"{end} bound {{}}: oracle {fmt(res.min_value)} vs {fmt(target)}"
    if tag is BoundKind.APPROACHABLE:
        # the optimum lies below the bound by lg((1-p_1)/(1-p_1-eps)), eps the
        # last p_i, or under mmpr-upper-high by lg(2 (1-p_1)/p_1) where that is
        # less; both are derived in witness.py, and both vanish as eps -> 0
        gap = math.log2((1.0 - p1) / (1.0 - p1 - p.probs[-1]))
        if kind is wit.FamilyKind.MMPR_UPPER_HIGH:
            gap = min(gap, math.log2(2.0 * (1.0 - p1) / p1))
        ok = abs(target - res.min_value - gap) <= 1e-9
        return [(kind.value, ok, detail.format("approached") + f", gap {fmt(gap)}")]
    ok = abs(res.min_value - target) <= 1e-9
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
        _refuse_unchecked_witness(fam)
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
