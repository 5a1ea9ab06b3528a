"""Independent calls run at once, in this process and forked workers, with
the results and errors of running them in order; and the OpenBLAS
one-thread pin that keeps such processes, and every training run, off
each other's cores."""

from __future__ import annotations

import contextlib
import ctypes
import os
from pathlib import Path

# (getter, setter) symbol pairs an OpenBLAS build may export
_OPENBLAS_THREAD_SYMBOLS = (
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
)


def _openblas_thread_fns():
    """(get, set) of the loaded OpenBLAS's thread count, or None when no
    loaded OpenBLAS exports both."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {ln.split()[-1] for ln in maps.splitlines() if "openblas" in ln.lower() and ".so" in ln}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            get, put = getattr(handle, get_name, None), getattr(handle, set_name, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block, or each call of the decorated function, with OpenBLAS
    on one thread and give the caller's count back afterwards, also on
    error; without a loaded OpenBLAS setter, change nothing."""
    fns = _openblas_thread_fns()
    if fns is None:
        yield
        return
    get, put = fns
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def fork_map(fn, items, processes: int) -> list:
    """``[fn(x) for x in items]``, across p = min(processes, len(items))
    processes: item i runs here when i % p == 0, else in one of p - 1
    forked workers.  With p < 2, or no ``fork`` start method, all run here.
    While they run at once, every process computes on one OpenBLAS thread
    (p processes of several BLAS threads each would crowd the cores).

    ``fn`` (by import path) and each item are pickled to a worker, which
    as a fork sees this process's module state, replaced functions
    included.  The first item, in order, whose call fails raises its own
    exception; a worker that dies raises ``BrokenProcessPool`` (a
    RuntimeError).  No worker outlives the call.
    """
    items = list(items)
    p = min(processes, len(items))
    # imported here, not with the module: they would add some 30 modules to every command's start
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if p < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return [fn(x) for x in items]
    with _one_blas_thread():  # a forked worker inherits the pin
        pool = ProcessPoolExecutor(p - 1, mp_context=multiprocessing.get_context("fork"))
        try:
            futures = {i: pool.submit(fn, x) for i, x in enumerate(items) if i % p}
            here = {}
            try:
                for i in range(0, len(items), p):
                    here[i] = fn(items[i])
            except Exception:
                for j in range(1, i):
                    if j % p:
                        futures[j].result()  # an earlier item that fails in a worker raises first
                raise
            return [futures[i].result() if i % p else here[i] for i in range(len(items))]
        finally:
            pool.shutdown(cancel_futures=True)
