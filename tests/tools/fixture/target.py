"""A fixture for the reachability collector: three of its four functions
are called the ways a profiler most easily misses — from a thread, from a
process-pool worker, and while the profiler is cleared (as pytest-benchmark
clears it around a timed call) — and the fourth is never called."""

import sys
import threading
from concurrent.futures import ProcessPoolExecutor


def from_thread():
    return 1


def from_worker(value):
    return value + 1


def while_profiler_cleared():
    return 3


def never_called():
    return 4


def main():
    thread = threading.Thread(target=from_thread)
    thread.start()
    thread.join(timeout=30)
    with ProcessPoolExecutor(max_workers=1) as pool:
        assert pool.submit(from_worker, 1).result(timeout=30) == 2
    previous = sys.getprofile()
    sys.setprofile(None)
    try:
        while_profiler_cleared()
    finally:
        sys.setprofile(previous)


if __name__ == "__main__":
    main()
