"""genhuff benchmark: one workload, one closed-loop caller, every output checked.

Run from the root of a genhuff checkout:

    python3 bench/run.py --workload wide --seed 1 --seconds 20 --trace 0

``--trace 0`` measures with nothing patched and reports the end-to-end
metrics: CPU times, put at a reference machine speed by the calibration
samples taken between ops (calibrate.py).  ``--trace 1`` runs the same op
sequence twice, first untraced and then with spans patched around
genhuff's public functions, and reports the per-layer metrics and the
tracing overhead.  ``--workload all`` runs the four workloads one after
another and prints a table.  The
last line of output is one JSON object with the keys correct, attempted,
failed and metrics; README.md lists the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

from calibrate import Child, at_reference
from child import child_env, cpu_s, run_child

# the tail is the highest percentile with this many samples beyond it,
# so a measured run needs more ops than this (a workload's min_ops)
TAIL_BEYOND = 10
# a run of more ops is cut into blocks of whole cycles, at least this
# many ops each, and the tail is the median of the blocks' tails: the
# 11th-slowest of thousands of ops is one stall of the host, while the
# median over blocks is the op's own tail
TAIL_BLOCK_OPS = 400
SETUP_REPEATS = 5
# a run still measuring after this many seconds of wall time stops at the
# next cycle boundary, so a run on a very slow or busy machine still ends
# within about two minutes
MEASURE_CAP_S = 100.0


def parse_args(argv, workload_names):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*workload_names, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _import_child(env, *flags) -> str:
    code, _, err = run_child([sys.executable, *flags, "-c", "import genhuff.cli"], env)
    if code != 0:
        raise RuntimeError(f"importing genhuff.cli failed with exit code {code}:\n{err}")
    return err


def fresh_import_s(env) -> float:
    """CPU time of a fresh interpreter importing genhuff.cli, start-up included."""
    start = cpu_s(children=True)
    _import_child(env)
    return cpu_s(children=True) - start


def import_split_ms(env) -> tuple[float, float]:
    """(genhuff without numpy, numpy) cumulative import ms from ``-X importtime``."""
    cumulative = {}
    for line in _import_child(env, "-X", "importtime").splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1000.0)
    numpy_ms = cumulative.get("numpy", 0.0)
    return cumulative["genhuff.cli"] - numpy_ms, numpy_ms


def setup_times(env, cal: Child) -> tuple[list[float], list[float]]:
    """SETUP_REPEATS fresh imports, with a calibration sample before and after each."""
    times, samples = [], [cal.sample()]
    for _ in range(SETUP_REPEATS):
        times.append(fresh_import_s(env))
        samples.append(cal.sample())
    return times, samples


def plan_ops(wl, seconds: float, min_ops: int) -> int:
    """The whole cycles nearest to ``seconds`` of ops at the reference speed, and at
    least ``min_ops`` ops.

    A fixed count, not a deadline, so every run of a workload makes the
    same ops and its tail sits at the same percentile.
    """
    cycles = max(round(seconds / (wl.cycle * wl.nominal_op_s)), math.ceil(min_ops / wl.cycle))
    return cycles * wl.cycle


def measure(wl, n_ops: int, clock, tracer=None, cal=None):
    """Run ``n_ops`` ops back to back; return (each op's time in s by ``clock``,
    calibration samples, failure reasons).

    Checks run between ops, outside the timed region.  With ``cal``, a
    calibration sample is taken before the first op and after each op's
    check.  A run still going after MEASURE_CAP_S stops early, at a cycle
    boundary.
    """
    latencies: list[float] = []
    samples: list[float] = [cal.sample()] if cal is not None else []
    problems: Counter = Counter()
    start = time.perf_counter()
    for i in range(n_ops):
        if i and i % wl.cycle == 0 and time.perf_counter() - start > MEASURE_CAP_S:
            break
        problem = None
        if tracer is not None:
            tracer.enabled = True
        t0 = clock()
        try:
            out = wl.op(i)
        except Exception as e:  # a raising op is a failed op, not the end of the run
            problem = f"raised {type(e).__name__}: {e}"
        elapsed = clock() - t0
        if tracer is not None:
            tracer.enabled = False
        latencies.append(elapsed)
        if problem is None:
            problem = wl.check(i, out)
            del out
        if problem:
            problems[problem[:300]] += 1
        if cal is not None:
            samples.append(cal.sample())
    return latencies, samples, problems


def tail_blocks(wl, latencies) -> list[list[float]]:
    """``latencies`` cut into runs of whole cycles of at least TAIL_BLOCK_OPS ops each;
    the last block takes the remainder."""
    size = math.ceil(TAIL_BLOCK_OPS / wl.cycle) * wl.cycle
    k = max(1, len(latencies) // size)
    return [latencies[j * size:(j + 1) * size if j < k - 1 else None] for j in range(k)]


def end_to_end(wl, latencies, failed, setup_samples) -> dict:
    """The end-to-end metrics from op latencies and set-up times, both in s."""
    ms = sorted(x * 1000.0 for x in latencies)
    n = len(ms)
    tails = [sorted(b)[len(b) - TAIL_BEYOND - 1] * 1000.0 for b in tail_blocks(wl, latencies)]
    who = resource.RUSAGE_CHILDREN if wl.in_children else resource.RUSAGE_SELF
    values = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (n / sum(latencies), "ops/s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_tail_ms": (statistics.median(tails), "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
        "ok_frac": ((n - failed) / n, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def install_spans(tracer, wmod) -> None:
    """Patch spans around each public function the benchmark's layers cover."""
    bounds, cli, coder, core, oracle = wmod.bounds, wmod.cli, wmod.coder, wmod.core, wmod.oracle

    def engine_counts(args, res):
        lengths = res.lengths.lengths
        merges = len(res.trace.events) if res.trace is not None else len(lengths) - 1
        return {"coder.merges": merges, "coder.depth_steps": sum(lengths),
                "coder.max_depth": max(lengths)}

    # cli imported these two by value, so its bindings are patched as well
    for owner in (coder, cli):
        tracer.patch(owner, "generalized_huffman", "coder.generalized_huffman",
                     tag_of=lambda args: wmod.rule_tag(args[1]), count=engine_counts)
    for owner in (core, cli):
        tracer.patch(owner, "validate_pmf", "core.validate_pmf")
    tracer.patch(coder, "canonical_codewords", "coder.canonical_codewords")
    tracer.patch(core.LengthVector, "kraft_sum", "core.kraft_sum")
    tracer.patch(core.Objective, "evaluate", "core.evaluate")
    tracer.patch(oracle, "brute_force_optimal", "oracle.brute_force_optimal",
                 count=lambda args, res: {"oracle.vectors": res.evaluated_count})
    for name in bounds.__all__:
        if inspect.isfunction(getattr(bounds, name)):
            tracer.patch(bounds, name, "bounds")
    tracer.patch(cli, "load_pmf", "cli.load_pmf")
    tracer.patch(cli, "main", "cli.main")


def per_layer(tracer, n_ops, import_ms, overhead_pct, rule_tags) -> dict:
    """Per-op layer metrics from the traced phase, plus the per-rule split of coder.*.

    A per-rule value is per engine call under that rule; coder.max_depth
    is the mean over engine calls, since an op may make more than one.
    """
    gh = "coder.generalized_huffman"
    cc = "coder.canonical_codewords"
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def coder_block(suffix, calls, tag=...):
        per = 1.0 / calls if calls else 0.0
        put(f"{gh}.self_ms{suffix}", tracer.total(gh, 2, tag) * 1000.0 * per, "ms")
        put(f"{cc}.self_ms{suffix}", tracer.total(cc, 2, tag) * 1000.0 * per, "ms")
        put(f"coder.merges{suffix}", tracer.count_total("coder.merges", tag) * per, "count")
        put(f"coder.depth_steps{suffix}", tracer.count_total("coder.depth_steps", tag) * per,
            "count")
        engine_calls = tracer.total(gh, 0, tag)
        put(f"coder.max_depth{suffix}", tracer.count_total("coder.max_depth", tag)
            / engine_calls if engine_calls else 0.0, "count")

    coder_block("", n_ops)
    for tag in rule_tags:
        coder_block(f".{tag}", tracer.total(gh, 0, tag), tag)
    put("core.kraft_sum.ms", tracer.total("core.kraft_sum", 1) * 1000.0 / n_ops, "ms")
    put("core.kraft_sum.calls", tracer.total("core.kraft_sum", 0) / n_ops, "count")
    put("core.evaluate.ms", tracer.total("core.evaluate", 1) * 1000.0 / n_ops, "ms")
    put("core.evaluate.calls", tracer.total("core.evaluate", 0) / n_ops, "count")
    put("core.validate_pmf.ms", tracer.total("core.validate_pmf", 1) * 1000.0 / n_ops, "ms")
    put("oracle.brute_force_optimal.self_ms",
        tracer.total("oracle.brute_force_optimal", 2) * 1000.0 / n_ops, "ms")
    put("oracle.vectors", tracer.count_total("oracle.vectors") / n_ops, "count")
    put("bounds.ms", tracer.total("bounds", 1) * 1000.0 / n_ops, "ms")
    put("cli.import_genhuff_ms", import_ms[0], "ms")
    put("cli.import_numpy_ms", import_ms[1], "ms")
    put("cli.load_pmf.self_ms", tracer.total("cli.load_pmf", 2) * 1000.0 / n_ops, "ms")
    put("cli.main.self_ms", tracer.total("cli.main", 2) * 1000.0 / n_ops, "ms")
    put("tracing.overhead_pct", overhead_pct, "%")
    return out


def shares(tracer, traced_s) -> list[str]:
    """Each span name's self time as a share of traced op time, largest first."""
    names = sorted({name for name, _ in tracer.spans})
    rows = [(tracer.total(name, 2), name) for name in names]
    rows.append((traced_s - sum(t for t, _ in rows), "(outside spans, tracer cost included)"))
    return [f"  {100.0 * t / traced_s:6.2f}%  {name}" for t, name in sorted(rows, reverse=True)]


def rule_shares(tracer, rule_tags) -> list[str]:
    lines = []
    for tag in rule_tags:
        calls = tracer.total("coder.generalized_huffman", 0, tag)
        if not calls:
            continue
        parts = [(tracer.total(name, 2, tag) * 1000.0 / calls, name)
                 for name in sorted({name for name, t in tracer.spans if t == tag})]
        lines.append(f"  {tag}: " + ", ".join(f"{name} {ms:.3f} ms" for ms, name in
                                               sorted(parts, reverse=True)))
    return lines


def provenance(root: str, src: str) -> dict:
    digest = hashlib.sha256()
    pkg = os.path.join(src, "genhuff")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    # only this tree's own repository counts, not one it happens to sit in
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except OSError:
            pass
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(), "nproc": os.cpu_count()}


def run_all(args, workload_names) -> int:
    """Each workload in its own child process; print one table of their metrics."""
    results = {}
    for name in workload_names:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        print(f"=== {name} (exit {proc.returncode})")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    metric_names = list(results[workload_names[0]]["metrics"])
    print(f"{'metric':44} {'unit':7}" + "".join(f"{n:>13}" for n in workload_names))
    for m in metric_names:
        unit = results[workload_names[0]]["metrics"][m]["unit"]
        print(f"{m:44} {unit:7}" + "".join(
            f"{results[n]['metrics'][m]['value']:13.6g}" for n in workload_names))
    print(f"{'fail_frac':44} {'ratio':7}" + "".join(
        f"{results[n]['failed'] / results[n]['attempted']:13.6g}" for n in workload_names))
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "genhuff", "__init__.py")):
        print("error: src/genhuff not found; run from the root of a genhuff checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import tracing
    import workloads as wmod

    args = parse_args(argv, wmod.WORKLOADS)
    if args.workload == "all":
        return run_all(args, wmod.WORKLOADS)

    errors = wmod.selftest()
    if errors:
        print("error: checker self-test failed: " + "; ".join(errors), file=sys.stderr)
        return 3

    env = child_env(src)
    fresh_import_s(env)  # warm-up: byte-compiles src and fills the page cache
    workdir = os.path.join(root, ".bench_build", f"inputs-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = wmod.build(args.workload, args.seed, workdir, env, in_process_cli=bool(args.trace))
        if args.trace:
            import_ms = [import_split_ms(env) for _ in range(SETUP_REPEATS)]
            import_ms = tuple(statistics.median(x) for x in zip(*import_ms))
            # wall time, the tracer's clock, so that span times add up to op times
            plain, _, problems = measure(wl, plan_ops(wl, args.seconds / 2, 1),
                                         time.perf_counter)
            tracer = tracing.Tracer()
            install_spans(tracer, wmod)
            try:
                traced, _, traced_problems = measure(wl, len(plain), time.perf_counter,
                                                     tracer=tracer)
            finally:
                tracer.restore()
            problems += traced_problems
            overhead = 100.0 * (sum(traced) / sum(plain) - 1.0)
            metrics = per_layer(tracer, len(traced), import_ms, overhead, wmod.RULE_TAGS)
            latencies = plain + traced
        else:
            setup_cal = Child(env)
            setup_raw, setup_samples = setup_times(env, setup_cal)
            setup = at_reference(setup_raw, setup_samples, setup_cal.ref_s)
            cal = wl.calibration(env)
            raw, samples, problems = measure(wl, plan_ops(wl, args.seconds, wl.min_ops),
                                             lambda: cpu_s(wl.in_children), cal=cal)
            latencies = at_reference(raw, samples, cal.ref_s)
            metrics = end_to_end(wl, latencies, sum(problems.values()), setup)
            speed = {"setup_cal_ratio": statistics.median(setup_samples) / setup_cal.ref_s,
                     "op_cal_ratio": statistics.median(samples) / cal.ref_s,
                     "raw_setup_s": statistics.median(setup_raw),
                     "raw_op_p50_ms": statistics.median(raw) * 1000.0,
                     "raw_ops_per_s": len(raw) / sum(raw)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(problems.values())
    n = len(latencies)
    meta = provenance(root, src) | {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ops": n}
    if not args.trace:
        blocks = tail_blocks(wl, latencies)
        block_n = len(blocks[0])
        meta |= {"op_tail_percentile": round(100.0 * (block_n - TAIL_BEYOND) / block_n, 2),
                 "op_tail_beyond": TAIL_BEYOND, "op_tail_blocks": len(blocks),
                 "op_tail_block_samples": block_n, "op_samples": n}
        # measured / reference calibration time: above 1, the machine ran slower
        # than the reference speed and the raw figures are scaled down by it
        meta |= {k: round(v, 6) for k, v in speed.items()}
    print("meta: " + json.dumps(meta))
    for name, m in metrics.items():
        print(f"{name:44} {m['value']:14.6g} {m['unit']}")
    print(f"{'fail_frac':44} {failed / n:14.6g} ratio")
    for reason, count in problems.most_common(5):
        print(f"FAILED x{count}: {reason}")
    if args.trace:
        print(f"traced op time by span (self), {len(traced)} ops:")
        print("\n".join(shares(tracer, sum(traced))))
        print("per engine call, by rule (self):")
        print("\n".join(rule_shares(tracer, wmod.RULE_TAGS)))
    print(json.dumps({"correct": failed == 0, "attempted": n, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
