import functools
import itertools
import multiprocessing
import os

import numpy  # noqa: F401  loads the OpenBLAS whose thread setter the pin test needs
import pytest

from moelab import _fork
from moelab._fork import fork_map, usable_cpus

_calls = itertools.count()  # each process counts its own calls


def _where(x):
    """(x squared, the pid that ran it, its call number in that process)."""
    return x * x, os.getpid(), next(_calls)


def _raise_at(bad, x):
    if x in bad:
        raise ValueError(f"item {x}")
    return x


def _blas_threads(x):
    return _fork._openblas_thread_fns()[0]()


def _exit_outside(caller, x):
    if os.getpid() != caller:
        os._exit(3)
    return x


@pytest.fixture(autouse=True)
def no_child_outlives_the_call():
    yield
    assert multiprocessing.active_children() == []


def ran_here_in_order(got, items) -> bool:
    squares, pids, calls = zip(*got)
    return list(squares) == [x * x for x in items] and set(pids) == {os.getpid()} and list(calls) == sorted(calls)


@pytest.mark.parametrize("processes", [2, 3])
def test_results_come_back_in_item_order(processes):
    items = list(range(7))
    got = fork_map(_where, items, processes)
    assert [r[0] for r in got] == [x * x for x in items]
    here = [r for i, r in enumerate(got) if i % processes == 0]
    assert ran_here_in_order(here, items[::processes])
    workers = {r[1] for i, r in enumerate(got) if i % processes}
    assert os.getpid() not in workers and 1 <= len(workers) <= processes - 1


def test_one_usable_cpu_runs_every_item_here_in_order(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert usable_cpus() == 1
    items = list(range(5))
    assert ran_here_in_order(fork_map(_where, items, usable_cpus()), items)


def test_without_sched_getaffinity_the_cpu_count_is_used(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert usable_cpus() == 5


def test_without_fork_every_item_runs_here_in_order(monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    items = list(range(5))
    assert ran_here_in_order(fork_map(_where, items, 3), items)


@pytest.mark.parametrize("processes", [1, 2, 3])
def test_the_first_failing_item_in_order_raises_its_own_error(processes):
    # with 2 processes item 1 fails in the worker, item 2 here
    with pytest.raises(ValueError, match="item 1"):
        fork_map(functools.partial(_raise_at, {1, 2}), range(4), processes)


def test_a_failure_here_raises_when_the_workers_succeed():
    with pytest.raises(ValueError, match="item 2"):
        fork_map(functools.partial(_raise_at, {2}), range(4), 2)


def test_a_worker_that_dies_is_a_runtime_error():
    with pytest.raises(RuntimeError):
        fork_map(functools.partial(_exit_outside, os.getpid()), range(4), 2)


@pytest.mark.skipif(_fork._openblas_thread_fns() is None, reason="no loaded OpenBLAS exports a thread setter")
def test_every_process_computes_on_one_blas_thread_and_the_callers_count_comes_back():
    get, put = _fork._openblas_thread_fns()
    before = get()
    put(2)
    try:
        assert fork_map(_blas_threads, range(4), 2) == [1, 1, 1, 1]
        assert get() == 2
    finally:
        put(before)
