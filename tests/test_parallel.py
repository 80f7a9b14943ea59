import sys
import threading
import time

import pytest

from socialdmf import _parallel
from socialdmf._parallel import parallel_map


def test_results_keep_input_order(three_cpus):
    def slow_square(i):
        # Early items finish last, so completion order differs from input order.
        time.sleep(0.001 * (20 - i))
        return i * i

    assert parallel_map(slow_square, range(20)) == [i * i for i in range(20)]
    assert parallel_map(slow_square, []) == []


def test_work_is_shared_with_the_pool(three_cpus):
    barrier = threading.Barrier(3, timeout=10)

    def meet(_):
        # Passes only when three threads hold an item at the same time.
        barrier.wait()
        return threading.get_ident()

    assert len(set(parallel_map(meet, range(3)))) == 3


def test_a_worker_exception_is_reraised(three_cpus):
    caller = threading.current_thread()
    barrier = threading.Barrier(2, timeout=10)

    def fail_off_the_caller(i):
        # Both items are held at once, so one of them runs on a worker.
        barrier.wait()
        if threading.current_thread() is not caller:
            raise KeyError(f"item {i}")
        return i

    with pytest.raises(KeyError, match="item"):
        parallel_map(fail_off_the_caller, range(2))


def test_the_earliest_failing_item_wins(three_cpus):
    def fail_from_three(i):
        if i >= 3:
            raise ValueError(f"item {i}")
        return i

    with pytest.raises(ValueError, match="item 3"):
        parallel_map(fail_from_three, range(40))


def test_a_call_nested_in_every_worker_completes(three_cpus):
    # Every pool worker and the caller hold an outer item before any of them
    # starts its inner call, so no worker is free for the inner items.
    barrier = threading.Barrier(3, timeout=10)

    def outer(i):
        barrier.wait()
        return sum(parallel_map(lambda j: i * j, range(10)))

    results = []
    runner = threading.Thread(target=lambda: results.append(parallel_map(outer, range(3))))
    runner.start()
    runner.join(timeout=30)
    assert not runner.is_alive(), "nested parallel_map did not finish"
    assert results == [[45 * i for i in range(3)]]


def test_one_usable_cpu_runs_inline_without_a_pool(monkeypatch):
    monkeypatch.setattr(_parallel, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(_parallel, "_pool", None)
    caller = threading.current_thread()
    threads = parallel_map(lambda _: threading.current_thread(), range(8))
    assert all(t is caller for t in threads)
    assert _parallel._pool is None


def test_every_item_runs_once_under_frequent_switches(three_cpus):
    calls = [0] * 3000

    def count(i):
        calls[i] += 1
        return -i

    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=lambda: results.append(parallel_map(count, range(len(calls)))))
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive(), "parallel_map did not finish"
    assert results == [[-i for i in range(len(calls))]]
    assert calls == [1] * len(calls)
