"""Process pool sizing shared by the Monte Carlo and permutation engines."""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor


def worker_count(threads: int, n_tasks: int) -> int:
    """Workers for a pool over n_tasks: at most the tasks and the CPUs."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    return min(threads, n_tasks, os.cpu_count() or 1)


def map_tasks(fn, tasks: list, threads: int) -> list:
    """fn(*task) for each task, results in task order, in a pool when it has >1 worker."""
    workers = worker_count(threads, len(tasks))
    if workers <= 1:
        return [fn(*task) for task in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *zip(*tasks)))
