"""The benchmark's workloads: seeded inputs, one operation, and its output check.

Every input comes from the seed through stdlib ``random`` (Dirichlet(1)
draws by normalised ``gammavariate``), never from genhuff's own RNG
paths, so inputs stay fixed when those paths change.  Operations call
genhuff through module attributes, so the tracer's patches see them.
See README.md for why each workload exists.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import os
import random
import sys
from contextlib import redirect_stdout

import genhuff.bounds as bounds
import genhuff.cli as cli
import genhuff.coder as coder
import genhuff.core as core
import genhuff.oracle as oracle

import calibrate
import checks
from child import run_child

# (objective, parameter) in cycle order: sum, mmpr, d=0.5 and q=2 have
# f(a,b) >= max(a,b) (two-queue candidates); d=-0.5 and q=0.9 do not.
SIX_OBJECTIVES = (("avg", None), ("mmpr", None), ("dexp", 0.5),
                  ("expavg", 2.0), ("dexp", -0.5), ("expavg", 0.9))
RULE_TAGS = ("sum", "mmpr", "d0.5", "q2", "d-0.5", "q0.9")
_TAG_PREFIX = {"sum": "sum", "max_double": "mmpr", "dth_exp": "d", "exp_base": "q"}

CLI_OBJECTIVES = (("avg", None), ("mmpr", None), ("dexp", 0.5), ("expavg", 0.9))
CLI_FORMATS = ("plain", "json", "csv")
BENFORD_QS = (0.6, 2.0)  # the blocks `genhuff benford` prints


def rule_tag(rule) -> str:
    prefix = _TAG_PREFIX[rule.kind.value]
    return prefix if rule.param is None else f"{prefix}{rule.param:g}"


def objective(kind: str, param: float | None):
    return core.Objective(core.ObjectiveKind(kind), param)


def rule_for(kind: str, param: float | None):
    return coder.CombineRule.for_objective(objective(kind, param))


def dirichlet(rng: random.Random, n: int) -> list[float]:
    """A Dirichlet(1) pmf in draw order (unsorted), every entry > 0."""
    while True:
        xs = [rng.gammavariate(1.0, 1.0) for _ in range(n)]
        if min(xs) > 0.0:
            total = math.fsum(xs)
            return [x / total for x in xs]


class Engine:
    """``validate_pmf(raw)`` then ``generalized_huffman`` under the six rules.

    Every workload states the same plan for a timed run: ``min_ops`` is
    the fewest ops it makes (above 10, so the tail percentile exists, and
    whole cycles, so every rule counts alike), ``nominal_op_s`` is an op's
    time at the reference speed, which sizes a run to ``--seconds``,
    ``calibration`` says how the run is put at the reference speed (see
    calibrate.py), and ``in_children`` says whether the op's work, its CPU
    time and its peak RSS, is in child processes.
    """

    cycle = len(SIX_OBJECTIVES)
    in_children = False

    def __init__(self, raw: list[float], min_ops: int, nominal_op_s: float, cal_n: int,
                 cal_ref_s: float):
        self.raw = raw
        self.min_ops = min_ops
        self.nominal_op_s = nominal_op_s
        self.cal_n = cal_n
        self.cal_ref_s = cal_ref_s
        self.rules = [rule_for(k, q) for k, q in SIX_OBJECTIVES]
        self.refs = [checks.reference_value(raw, k, q) for k, q in SIX_OBJECTIVES]

    def op(self, i: int):
        p = core.validate_pmf(self.raw)
        return coder.generalized_huffman(p, self.rules[i % self.cycle])

    def check(self, i: int, res) -> str | None:
        return (checks.code_problem(res.lengths.lengths, res.codewords)
                or checks.value_problem(res.objective_value, self.refs[i % self.cycle],
                                        "reference merge"))

    def calibration(self, env: dict):
        return calibrate.Huffman(self.cal_n, self.cal_ref_s)


def wide(seed: int) -> Engine:
    # an op takes over a second here, so a run holds at least two cycles
    # whatever --seconds asks, and the tail percentile exists
    return Engine(dirichlet(random.Random(seed), 100_000), min_ops=12, nominal_op_s=1.25,
                  cal_n=30_000, cal_ref_s=0.135)


def deep(seed: int) -> Engine:
    raw = [2.0 ** (-i / 5) for i in range(1, 5001)]
    total = math.fsum(raw)
    raw = [x / total for x in raw]
    random.Random(seed).shuffle(raw)
    return Engine(raw, min_ops=12, nominal_op_s=0.17, cal_n=5000,
                  cal_ref_s=0.016)


def _bound_interval(p, obj) -> tuple[float, float]:
    """The bounds module's sandwich for p's optimal value, keyed on p_1."""
    p1 = p.probs[0]
    kind = obj.kind.value
    if kind == "avg":
        return bounds.avg_redundancy_lower(p1), bounds.avg_redundancy_upper_gallager(p1)
    if kind == "mmpr":
        r = bounds.mmpr_bounds(p1)
    elif kind == "dexp":
        r = bounds.dth_bounds(p1, obj.param, is_p1=True)
    else:
        r = bounds.exp_avg_bounds(p, obj.param, 1)
    return r.lower, r.upper


class Oracle:
    """Engine, exhaustive oracle and p_1 bound sandwich on n = 10..16."""

    # pmf k has n = 10 + k % 7 and meets objective k % 6, so one cycle
    # holds every (n, objective) pair twice
    cycle = 84
    min_ops = cycle
    nominal_op_s = 0.006
    in_children = False

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.pmfs = [core.validate_pmf(dirichlet(rng, 10 + k % 7)) for k in range(self.cycle)]
        self.objectives = [objective(k, q) for k, q in SIX_OBJECTIVES]
        self.rules = [rule_for(k, q) for k, q in SIX_OBJECTIVES]

    def op(self, i: int):
        p = self.pmfs[i % self.cycle]
        j = i % len(SIX_OBJECTIVES)
        res = coder.generalized_huffman(p, self.rules[j])
        best = oracle.brute_force_optimal(p, self.objectives[j], max_n=16)
        return res, best, _bound_interval(p, self.objectives[j])

    def check(self, i: int, out) -> str | None:
        res, best, (lo, hi) = out
        problem = (checks.code_problem(res.lengths.lengths, res.codewords)
                   or checks.value_problem(res.objective_value, best.min_value,
                                           "oracle minimum"))
        if problem:
            return problem
        if not lo - checks.VALUE_TOL <= res.objective_value <= hi + checks.VALUE_TOL:
            return f"value {res.objective_value!r} outside the bounds [{lo!r}, {hi!r}]"
        return None

    def calibration(self, env: dict):
        return calibrate.Interp(5)


def parse_codes(command: str, fmt: str, text: str) -> list[tuple[list[int], list[str]]]:
    """(lengths, codewords) for each code a `genhuff code|benford` output holds."""
    if fmt == "json":
        doc = json.loads(text)
        blocks = doc["blocks"] if command == "benford" else [doc]
        return [(b["lengths"], b["codewords"]) for b in blocks]
    if fmt == "csv" and command == "code":
        rows = [line.split(",") for line in text.splitlines()[1:]]
        return [([int(r[2]) for r in rows], [r[3] for r in rows])]
    lengths, words = [], []
    for line in text.splitlines():
        head, _, rest = line.partition(": ")
        if head in ("lengths", "optimal lengths"):
            lengths.append([int(x) for x in rest.split()])
        elif head == "codewords":
            words.append(rest.split())
    return list(zip(lengths, words))


class Cli:
    """`genhuff code` over seeded n = 1000 files, with `genhuff benford` mixed in.

    Each op is a child ``python -m genhuff`` run to completion; with
    ``in_process`` it is ``genhuff.cli.main(argv)`` on the same argv
    instead, which is what the traced run spans.
    """

    cycle = 14
    min_ops = 2 * cycle
    nominal_op_s = 0.21

    def __init__(self, seed: int, workdir: str, env: dict, in_process: bool = False):
        rng = random.Random(seed)
        self.in_process = in_process
        self.in_children = not in_process
        self.env = env
        self.calls = []  # (argv, command, format, expected lengths per code)
        for j in range(12):
            kind, param = CLI_OBJECTIVES[j % len(CLI_OBJECTIVES)]
            fmt = CLI_FORMATS[j % len(CLI_FORMATS)]
            vals = dirichlet(rng, 1000)
            path = os.path.join(workdir, f"pmf{j}.txt")
            with open(path, "w") as fh:
                fh.write("".join(f"{v!r}\n" for v in vals))
            argv = ["code", path, "--objective", kind, "--format", fmt]
            if param is not None:
                argv += ["--d" if kind == "dexp" else "--q", repr(param)]
            res = coder.generalized_huffman(core.validate_pmf(vals), rule_for(kind, param))
            self.calls.append((argv, "code", fmt, [list(res.lengths.lengths)]))
            if j % 6 == 5:
                fmt = ("plain", "json")[j // 6]
                want = [list(coder.generalized_huffman(core.benford(),
                                                       rule_for("expavg", q)).lengths.lengths)
                        for q in BENFORD_QS]
                self.calls.append((["benford", "--format", fmt], "benford", fmt, want))

    def op(self, i: int):
        argv = self.calls[i % self.cycle][0]
        if self.in_process:
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue()
        code, out, _ = run_child([sys.executable, "-m", "genhuff", *argv], self.env)
        return code, out

    def check(self, i: int, out) -> str | None:
        code, text = out
        _, command, fmt, want = self.calls[i % self.cycle]
        if code != 0:
            return f"exit code {code}"
        try:
            codes = parse_codes(command, fmt, text)
        except (ValueError, KeyError, IndexError) as e:
            return f"unparseable {fmt} output: {e!r}"
        if [lengths for lengths, _ in codes] != want:
            return "lengths differ from the in-process result"
        for lengths, words in codes:
            problem = checks.code_problem(lengths, words)
            if problem:
                return problem
        return None

    def calibration(self, env: dict):
        return calibrate.Child(env)


def selftest() -> list[str]:
    """Feed the checker two corrupted results; each must be counted as failed."""
    raw = [0.05, 0.4, 0.1, 0.2, 0.15, 0.1]
    wl = Engine(raw, min_ops=1, nominal_op_s=0.0, cal_n=0, cal_ref_s=0.0)
    res = wl.op(0)
    errors = []
    if wl.check(0, res) is not None:
        errors.append(f"checker rejects a correct result: {wl.check(0, res)}")
    lengths = res.lengths.lengths
    deepest, shallowest = lengths.index(max(lengths)), lengths.index(min(lengths))
    shortened = list(lengths)
    shortened[deepest] -= 1
    short = dataclasses.replace(res, lengths=core.LengthVector(tuple(shortened)))
    if wl.check(0, short) is None:
        errors.append("checker accepts a code with one length shortened (Kraft > 1)")
    words = list(res.codewords)
    words[deepest], words[shallowest] = words[shallowest], words[deepest]
    swapped = dataclasses.replace(res, codewords=tuple(words))
    if wl.check(0, swapped) is None:
        errors.append("checker accepts a code with two codewords swapped")
    return errors


WORKLOADS = ("wide", "deep", "cli", "oracle")


def build(name: str, seed: int, workdir: str, env: dict, in_process_cli: bool):
    if name == "wide":
        return wide(seed)
    if name == "deep":
        return deep(seed)
    if name == "cli":
        return Cli(seed, workdir, env, in_process=in_process_cli)
    return Oracle(seed)
