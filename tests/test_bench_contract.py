"""What the benchmark in bench/ reads from genhuff, run in-process on one cycle of each kind of op.

bench/ reads genhuff attributes that nothing in the package reads
(``rule.kind.value`` and ``rule.param`` of a ``CombineRule`` in
``rule_tag``, ``CodeResult.trace``, ``OracleResult.evaluated_count``,
``dataclasses.replace`` on a ``CodeResult``) and patches spans around
public names.  A change that drops one of them breaks the benchmark, not
the rest of the suite; this test fails instead.
"""

import os

import pytest

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import run
    import tracing
    import workloads
    return run, tracing, workloads


def test_workloads_run_and_check_under_the_tracer(bench, tmp_path):
    run, tracing, workloads = bench
    assert workloads.selftest() == []
    env = run.child_env(os.path.abspath(SRC))
    wls = [workloads.deep(1), workloads.Oracle(1),
           workloads.Cli(1, str(tmp_path), env, in_process=True)]
    tracer = tracing.Tracer()
    run.install_spans(tracer, workloads)
    tracer.enabled = True
    ops = 0
    try:
        for wl in wls:
            for i in range(wl.cycle):
                assert wl.check(i, wl.op(i)) is None, (type(wl).__name__, i)
                ops += 1
    finally:
        tracer.enabled = False
        tracer.restore()
    metrics = run.per_layer(tracer, ops, (0.0, 0.0), 0.0, workloads.RULE_TAGS)
    assert metrics["coder.merges.sum"]["value"] > 0
