"""A co-running loop that measures request cost in units the machine's drift cancels.

On a shared machine the speed of a core drifts by 20-60% over seconds to
minutes as other tenants load it, and wall times drift with it. While the
benchmark times requests, it pins itself to one CPU and runs this loop in a
second process pinned to the same CPU. The two share the core in time slices
of milliseconds, so whatever slows the core slows both alike. The number of
loop units completed while a request runs is therefore the request's cost in
loop units, whatever the machine's speed.

The price: requests take about twice their wall time while measured, and a
change that spreads work over several cores would not show in the count.

The loop runs as ``python3 reference.py FD CPU PARENT_PID``: it adds one to
the 8-byte counter in the shared memory file FD after each unit, and ends by
itself when PARENT_PID is no longer its parent.
"""

from __future__ import annotations

import mmap
import os
import struct
import subprocess
import sys
import time

#: iterations per unit: about 2.5 ms on a 2.1 GHz Xeon core
UNIT_ITERATIONS = 10_000
START_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 10.0
COUNTER = struct.Struct("q")


def _unit() -> None:
    # tuple comparisons and float sums, as in the DTW recursion and Pareto dominance
    acc, best = 0.0, (0.0, 0)
    for i in range(UNIT_ITERATIONS):
        key = (acc, i & 7)
        if key < best:
            best = key
        acc += i * 0.5


def _count_forever(fd: int, cpu: int, parent: int) -> None:
    os.sched_setaffinity(0, {cpu})
    shared = mmap.mmap(fd, COUNTER.size)
    count = 0
    # ends by itself if the benchmark is killed before it can stop the loop
    while os.getppid() == parent:
        _unit()
        count += 1
        COUNTER.pack_into(shared, 0, count)


class CoRunner:
    """Pins this process and a counting loop to one CPU while in use.

    The loop process is stopped and waited for, and this process's CPU mask
    restored, when the ``with`` block ends.
    """

    def __enter__(self) -> "CoRunner":
        self._mask = os.sched_getaffinity(0)
        cpu = min(self._mask)
        self._fd = os.memfd_create("perfbench-units")
        os.ftruncate(self._fd, COUNTER.size)
        self._shared = mmap.mmap(self._fd, COUNTER.size)
        self._process = None
        try:
            os.sched_setaffinity(0, {cpu})
            self._process = subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), str(self._fd), str(cpu), str(os.getpid())],
                pass_fds=(self._fd,), stdin=subprocess.DEVNULL,
            )
            deadline = time.monotonic() + START_TIMEOUT_S
            # the first unit shows that the loop runs, pinned
            while self.units() == 0:
                if self._process.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError("the reference loop did not start")
                time.sleep(0.01)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def units(self) -> int:
        """Units the loop has completed so far."""
        return COUNTER.unpack_from(self._shared, 0)[0]

    def __exit__(self, *exc_info) -> None:
        try:
            if self._process is not None:
                self._process.terminate()
                try:
                    self._process.wait(timeout=STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    self._process.kill()
                    self._process.wait()
        finally:
            self._shared.close()
            os.close(self._fd)
            os.sched_setaffinity(0, self._mask)


if __name__ == "__main__":
    _count_forever(*(int(arg) for arg in sys.argv[1:4]))
