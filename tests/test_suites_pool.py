"""The worker-process pool of ``phi-nielsen`` changes nothing but where
its jobs run, and no other phi-trivial suite starts it."""

import json
import multiprocessing
import os
import threading

import pytest

from torellikit import lpres, suites
from torellikit.symwords import alphabet, signed_alphabet

PHI_TRIVIAL = ("phi-nielsen", "phi-inverse-A", "phi-inverse-Z", "phi-zn")

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="worker processes are forked",
)


def _json(report) -> str:
    data = report.to_dict()
    del data["elapsed_ms"]
    return json.dumps(data, sort_keys=True)


def _width(monkeypatch, width):
    """Pool every job list that ``width`` workers can share."""
    monkeypatch.setattr(suites, "_pool_width", lambda jobs: min(width, jobs))
    monkeypatch.setattr(suites, "_POOL_MIN_JOBS", 1)


def _count_pools(monkeypatch) -> list:
    """Let pools start, and record the width of each one started."""
    started = []
    real = multiprocessing.context.BaseContext.Pool

    def counted(self, processes=None, *args, **kwargs):
        started.append(processes)
        return real(self, processes, *args, **kwargs)

    monkeypatch.setattr(multiprocessing.context.BaseContext, "Pool", counted)
    return started


def _refuse_pools(monkeypatch, error=AssertionError):
    def refused(self, *args, **kwargs):
        raise error("no pool may start here")

    monkeypatch.setattr(multiprocessing.context.BaseContext, "Pool", refused)


@needs_fork
@pytest.mark.parametrize("n", [2, 3])
def test_reports_are_the_same_at_width_one_and_two(monkeypatch, n):
    started = _count_pools(monkeypatch)
    reports = {}
    for width in (1, 2):
        _width(monkeypatch, width)
        reports[width] = [suites.run_suite(name, n=n) for name in PHI_TRIVIAL]
    # width 1 started none; width 2 one, for phi-nielsen alone
    assert started == [2]
    assert list(map(_json, reports[1])) == list(map(_json, reports[2]))


@needs_fork
def test_workers_see_a_mutation_made_in_the_parent(monkeypatch):
    s, t = signed_alphabet("S_Q", 3)[0], alphabet("S_K", 3)[0]
    phi_gen = lpres.phi_gen

    def corrupted(s2, t2, n):
        image = phi_gen(s2, t2, n)
        return image + (t2,) if (s2, t2, n) == (s, t, 3) else image

    monkeypatch.setattr(lpres, "phi_gen", corrupted)
    monkeypatch.setattr(lpres, "_PHI_SIGNED", {})
    started = _count_pools(monkeypatch)
    failures = {}
    for width in (1, 2):
        _width(monkeypatch, width)
        failures[width] = suites.run_suite("phi-nielsen", n=3).failures
    assert started == [2]
    assert failures[1] and failures[1] == failures[2]
    assert all(f["witness"].startswith("moves ") for f in failures[2])


def test_width_is_one_per_cpu_and_at_most_one_per_job(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)),
                        raising=False)
    assert suites._pool_width(3) == 3
    assert suites._pool_width(100) == 64
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert suites._pool_width(3) == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert suites._pool_width(3) == 1


@pytest.mark.parametrize("min_jobs, cpus, methods, threads, daemon, error", [
    (4, 64, ["fork", "spawn"], 1, False, AssertionError),  # too few jobs
    (1, 1, ["fork", "spawn"], 1, False, AssertionError),   # one CPU
    (1, 64, ["spawn"], 1, False, AssertionError),          # no fork
    (1, 64, ["fork", "spawn"], 2, False, AssertionError),  # another thread
    (1, 64, ["fork", "spawn"], 1, True, AssertionError),   # a daemon
    (1, 64, ["fork", "spawn"], 1, False, OSError),         # cannot start
])
def test_serial_fallback_starts_no_process(monkeypatch, min_jobs, cpus,
                                           methods, threads, daemon, error):
    monkeypatch.setattr(suites, "_POOL_MIN_JOBS", min_jobs)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: methods)
    monkeypatch.setattr(threading, "active_count", lambda: threads)
    # a daemonic process may not start children: Pool raises AssertionError
    monkeypatch.setattr(multiprocessing.current_process(), "daemon", daemon)
    _refuse_pools(monkeypatch, error)
    jobs = [(2, (s,)) for s in signed_alphabet("S_Q", 2)[:3]]
    assert suites._pool_map(suites._moved_generator, jobs) == [
        suites._psi_fixed_by(word, n, suites._kernel(n)) for n, word in jobs
    ]
