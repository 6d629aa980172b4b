"""Machine-speed calibration.

The benchmark machine is shared, and its speed for pure-Python code drifts
by up to a factor of two over seconds to minutes.  Every timed sample is
therefore scaled to a fixed reference speed: it is multiplied by
``REF_S / k``, where ``k`` is the median time of a fixed calibration kernel
over the calibrations taken during the sample and within WINDOW_S before
and after it.  A calibration runs before any sample that would otherwise
start more than MAX_AGE_S after the last one.  The kernel does the same
kind of work as the library: field arithmetic through method calls, a
polynomial product, a row reduction, and row operations with inline
modular arithmetic like those of the distance search.

Samples of operations that run worker processes are scaled by a parallel
calibration instead, against ``PARALLEL_REF_S``: the wall time for as many
fresh processes as the operation has workers to start, run the kernel
together and exit.  Those operations start a pool of processes on every
pass, and the cost of starting processes and whether the machine's other
core is free move them by up to a factor of two from run to run; the
kernel run in this process alone sees neither.

The kernel and ``REF_S`` are part of the benchmark's definition: changing
either re-bases every timing, so a change to them is a change of the
benchmark, never part of a change that claims a speed-up.
"""

from __future__ import annotations

import multiprocessing
import statistics
import time

REF_S = 0.002  # the kernel's typical time on the 2-core baseline machine
# a parallel calibration with two workers took this long on the baseline
# machine when its kernel took REF_S, so the two references match
PARALLEL_REF_S = 0.022
PARALLEL_WORKERS = 2  # the processes of a parallel calibration, as in the workers=2 cases
MAX_AGE_S = 0.2  # recalibrate when the last calibration is older than this
# calibrations this close to a sample set its speed; above MAX_AGE_S, so a
# sample always has the calibration taken just before it.  The machine's
# speed changes within a second, and a wider window (2 s) tracked it less
# well: its medians spread more from run to run.
WINDOW_S = 0.25
REPEATS = 3


class _Field:
    def __init__(self, p):
        self.p = p

    def sub(self, a, b):
        return (a - b) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        return pow(a, self.p - 2, self.p)


def _poly_mul(f, a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = f.add(out[i + j], f.mul(x, y))
    return out


def _rank(f, rows):
    rows = [r[:] for r in rows]
    r = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = f.inv(rows[r][c])
        rows[r] = [f.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                k = rows[i][c]
                rows[i] = [f.sub(x, f.mul(k, y)) for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def _reduce_inline(rows, p, rounds):
    """Row reductions with inline modular arithmetic, as in the distance
    search."""
    acc = 0
    for _ in range(rounds):
        pivot = rows[0]
        for r in rows[1:]:
            c = r[1]
            if c:
                v = [(a - c * b) % p for a, b in zip(r, pivot)]
                acc += v[2]
    return acc


def kernel() -> int:
    f = _Field(79)
    acc = [1]
    for s in range(6):
        acc = _poly_mul(f, acc, [(7 * i + s) % 79 for i in range(24)])
    rows = [[(i * 7 + j * 13 + i * j + 1) % 79 for j in range(20)] for i in range(14)]
    return _rank(f, rows) + len(acc) + _reduce_inline(rows * 2, 79, 6)


def kernel_seconds() -> float:
    """Median time of a few kernel runs."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _kernel_child(barrier, conn) -> None:
    barrier.wait()
    conn.send(kernel_seconds())
    conn.close()


def parallel_kernel_seconds() -> float:
    """Wall time for PARALLEL_WORKERS fresh processes to start, run the
    kernel together and exit, as the library's worker pools do."""
    t0 = time.perf_counter()
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(PARALLEL_WORKERS)
    procs, pipes = [], []
    for _ in range(PARALLEL_WORKERS):
        recv, send = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_kernel_child, args=(barrier, send))
        proc.start()
        send.close()
        procs.append(proc)
        pipes.append(recv)
    for recv in pipes:
        recv.recv()
    for proc in procs:
        proc.join()
    return time.perf_counter() - t0


class Speed:
    """Calibrations taken during a run, each at most MAX_AGE_S old when a
    sample starts: serial ones, and parallel ones for the samples of
    operations that run worker processes."""

    def __init__(self):
        # (time, kernel seconds), serial and parallel
        self.history: list[tuple[float, float]] = []
        self.parallel: list[tuple[float, float]] = []
        self.refresh()

    def current(self, parallel: bool = False) -> None:
        history = self.parallel if parallel else self.history
        if not history or time.perf_counter() - history[-1][0] > MAX_AGE_S:
            self.refresh(parallel)

    def refresh(self, parallel: bool = False) -> None:
        if parallel:
            self.parallel.append((time.perf_counter(), parallel_kernel_seconds()))
        else:
            self.history.append((time.perf_counter(), kernel_seconds()))

    def factor(self, start: float, end: float, parallel: bool = False) -> float:
        """Factor taking a sample timed from ``start`` to ``end`` to the
        reference speed: REF_S over the median of the calibrations taken
        within WINDOW_S of the sample."""
        history = self.parallel if parallel else self.history
        ks = [k for t, k in history if start - WINDOW_S <= t <= end + WINDOW_S]
        return (PARALLEL_REF_S if parallel else REF_S) / statistics.median(ks)

    def median_kernel(self) -> float:
        return statistics.median(k for _, k in self.history)
