"""Independent tasks run in order, optionally in worker processes."""

from __future__ import annotations

from .errors import ConfigurationError


def run_tasks(fn, tasks, jobs: int) -> list:
    """``[fn(*task) for task in tasks]``, in task order.

    jobs > 1 runs the tasks in worker processes, never more of them than
    there are tasks: with the fork start method the pool starts every
    worker up front, needed or not. ``fn`` and the tasks must then pickle.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be at least 1, got {jobs}")
    tasks = list(tasks)
    workers = min(jobs, len(tasks))
    if workers <= 1:
        return [fn(*task) for task in tasks]
    # imported here: the pool pulls in all of multiprocessing, which a
    # one-worker run never uses
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *zip(*tasks)))
