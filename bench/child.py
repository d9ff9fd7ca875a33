"""Child interpreters for the benchmark (genhuff from this tree), and the CPU clock."""

from __future__ import annotations

import os
import resource
import subprocess
import time

CHILD_TIMEOUT_S = 120


def child_env(src: str) -> dict:
    """The environment for a child interpreter that imports genhuff from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def cpu_s(children: bool) -> float:
    """CPU seconds (user + system) used so far by this process, or by its reaped children.

    The benchmark times work by the CPU it takes, not by the wall clock: on
    a shared host other work takes turns on the same CPUs, and a wall-clock
    time counts those turns as the op's own.  Children run one at a time,
    so the change in the children's total across one ``run_child`` is that
    child's time.
    """
    if children:
        ru = resource.getrusage(resource.RUSAGE_CHILDREN)
        return ru.ru_utime + ru.ru_stime
    return time.process_time()


def run_child(argv: list[str], env: dict) -> tuple[int, str, str]:
    """Run a child to completion; return (exit code, stdout, stderr).  A child that
    hangs is killed after CHILD_TIMEOUT_S and raises ``subprocess.TimeoutExpired``."""
    proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr
