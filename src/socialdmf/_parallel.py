"""One process-wide thread pool for the package's loops over independent work.

Per-bin ALS fits and the preconditioner's user chunks spend their time in
numpy and scipy calls that release the GIL, so threads run them in
parallel. Every such loop shares one lazily made pool of ``usable CPUs - 1``
workers, and the calling thread works too. So the thread count, and with it
the number of per-thread malloc arenas, stays at the CPU count, and a call
made from inside a worker (or a ``sweep`` cell thread) finishes even when
every worker is busy.
"""

from __future__ import annotations

import concurrent.futures
import os
import threading
from typing import Callable, Iterable, Optional

_pool: Optional[concurrent.futures.ThreadPoolExecutor] = None
_pool_lock = threading.Lock()


def _usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def parallel_map(fn: Callable, items: Iterable) -> list:
    """``[fn(item) for item in items]``, run on up to one thread per usable CPU.

    The calling thread counts as one; with one usable CPU or a single item
    everything runs inline and no thread is started. Results keep the input
    order. If any call raises, items not yet started are skipped and the
    exception of the earliest failing item is re-raised, as a sequential
    loop would.
    """
    global _pool
    items = list(items)
    helpers = min(_usable_cpus(), len(items)) - 1
    if helpers <= 0:
        return [fn(item) for item in items]
    with _pool_lock:
        if _pool is None:
            _pool = concurrent.futures.ThreadPoolExecutor(_usable_cpus() - 1, "socialdmf")
        pool = _pool

    results: list = [None] * len(items)
    errors: dict[int, BaseException] = {}
    lock = threading.Lock()
    # Items are handed out in input order and none from ``stop`` on is
    # started, so every item before a failing one runs, as in a loop.
    taken, stop = 0, len(items)

    def drain() -> None:
        nonlocal taken, stop
        while True:
            with lock:
                i = taken
                if i >= stop:
                    return
                taken += 1
            try:
                results[i] = fn(items[i])
            except BaseException as exc:  # noqa: BLE001 - re-raised by the caller
                with lock:
                    errors[i] = exc
                    stop = min(stop, i)
                return

    futures = [pool.submit(drain) for _ in range(helpers)]
    drain()
    # A helper still queued behind busy workers finds nothing left to do;
    # cancel it rather than wait for a worker that may be this very thread.
    for future in futures:
        if not future.cancel():
            future.result()
    if errors:
        raise errors[min(errors)]
    return results
