"""The process pool shared by the Monte Carlo and permutation engines.

A process keeps at most one pool.  `map_tasks` makes it at the first call
that needs more than one worker and hands every later call with the same
worker count to the same warm workers.  A call that needs another count
shuts the old pool down, joining its workers, before it makes the new one,
so the new workers are started while no pool thread runs.  The pool is
joined at interpreter exit: by `concurrent.futures` in a main process, and
by a `multiprocessing` finalizer in a `multiprocessing` child, which joins
its child processes before `concurrent.futures` would.

A pool belongs to the process that made it.  A process forked from it (a
`multiprocessing` child, say) inherits a copy of the pool whose workers and
threads are its parent's, so the fork forgets that copy and the child makes
its own pool if it needs one.  A pool that loses a worker is dropped and the
`BrokenProcessPool` re-raised, never retried; the next call makes a fresh
pool.

Each worker takes contiguous batches of ceil(tasks / (4 * workers)) tasks,
not one task per round trip, and results come back in task order.
"""
from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from multiprocessing.util import Finalize

# (workers, pool, its shutdown finalizer) of this process's pool; the lock
# covers choosing the pool and handing it a call's tasks, so no other thread
# shuts it down in between
_pool: tuple[int, ProcessPoolExecutor, Finalize] | None = None
_lock = threading.Lock()
# the finalizer runs before a `multiprocessing` child joins the workers, and
# before the priority-10 finalizer that stops the pool's call queue feeding them
_SHUTDOWN_PRIORITY = 20


def _forget_pool() -> None:
    """In a forked child: the inherited pool, and any hold on the lock, are the parent's."""
    global _pool, _lock
    _pool, _lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def worker_count(threads: int, n_tasks: int) -> int:
    """Workers for a pool over n_tasks: at most the tasks and the CPUs."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    return min(threads, n_tasks, os.cpu_count() or 1)


def _shared_pool(workers: int) -> ProcessPoolExecutor:
    """This process's pool with `workers` workers, replacing one of another size."""
    global _pool
    if _pool is not None and _pool[0] != workers:
        _pool[2]()
        _pool = None
    if _pool is None:
        pool = ProcessPoolExecutor(max_workers=workers)
        _pool = (workers, pool, Finalize(None, pool.shutdown, exitpriority=_SHUTDOWN_PRIORITY))
    return _pool[1]


def _drop(pool: ProcessPoolExecutor) -> None:
    """Shut down and forget a broken pool, so that the next call makes a fresh one."""
    global _pool
    with _lock:
        if _pool is not None and _pool[1] is pool:
            _pool[2]()
            _pool = None


def _call(fn, args: tuple):
    """fn(*args): one task, as the pool hands it to a worker."""
    return fn(*args)


def map_tasks(fn, tasks: list, threads: int) -> list:
    """fn(*task) for each task, results in task order, in the pool when it has >1 worker."""
    workers = worker_count(threads, len(tasks))
    if workers <= 1:
        return [fn(*task) for task in tasks]
    try:
        with _lock:
            pool = _shared_pool(workers)
            # each task's arguments travel as one tuple, so a task with none still runs
            results = pool.map(partial(_call, fn), tasks,
                               chunksize=-(-len(tasks) // (4 * workers)))
        return list(results)
    except BrokenProcessPool:
        _drop(pool)
        raise
