"""Latency samples corrected for the speed of a shared host.

On a small shared machine the CPU speed available to one process swings by
30-50 % over seconds to minutes, for all Python code running at that
moment.  The benchmark therefore times a fixed calibration kernel (pure
Python, independent of paridhi) after every few milliseconds of workload
time, tags each operation's latency with the mean of the two calibrations
around it, and rescales the latency by ref / tag: it is reported in
seconds of a host on which the kernel takes ref seconds.  Slow spells do
not slow all code alike, so there are two kernels: short interpreter-bound
work for most operations, and plain arithmetic for big-Fraction sums and
for set-up.  The raw, uncorrected figures go into the run record
beside the corrected ones.
"""

from __future__ import annotations

import gc
import math
import statistics
from array import array
from fractions import Fraction
from time import perf_counter, perf_counter_ns

CAL_EVERY_NS = 10_000_000  # workload busy time between calibrations
CAL_KERNELS = 3  # kernels per calibration; their median is the calibration
CAPACITY = 1 << 18


def interpreter_kernel() -> int:
    """Short interpreter-bound work: small- and big-int arithmetic, calls,
    str and dict, and an alternating Fraction sum whose denominators grow
    to ~100 digits."""
    acc, big, table = 0, 3**300, {}
    for i in range(400):
        acc += _mix(i, acc)
        big = big * 7 // 5 + i
        table[i & 31] = f"{i}:{acc & 1023}"
    total = Fraction(0)
    for k in range(1, 120):
        total += Fraction(1, 2 * k - 1) if k & 1 else -Fraction(1, 2 * k - 1)
    return acc + len(table) + big % 97 + total.numerator % 89


def _mix(i: int, acc: int) -> int:
    return (i * i + acc // (2 * i + 1)) % 1_000_003


def arithmetic_kernel() -> int:
    """Arithmetic in two halves: a small-int loop, and multiply/floor-divide
    on ~2900-digit ints."""
    acc = 0
    for i in range(1500):
        acc += (i * i + acc // (2 * i + 1)) % 1_000_003
    big = _BIG
    for i in range(2):
        big = big * (big + i) // (_BIG + i)
    return acc + big % 97


_BIG = 3**6000

# Each kernel with its time on the reference host (2-core x86-64 VM,
# Python 3.11): corrected times are in seconds of that host.
KERNELS = {"interpreter": (interpreter_kernel, 0.0006),
           "arithmetic": (arithmetic_kernel, 0.0005)}
SETUP_KERNEL = "arithmetic"


def time_calibration(kernel) -> float:
    """Seconds the kernel takes now; collector pauses owed to the workload's
    objects are kept out of it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def percentile(sorted_values, p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def weighted_percentile(pairs: list[tuple[float, float]], p: float) -> tuple[float, int]:
    """Percentile of (value, weight) pairs, and the number of samples beyond it."""
    pairs = sorted(pairs)
    target = p / 100 * sum(w for _, w in pairs)
    cumulative = 0.0
    for i, (value, weight) in enumerate(pairs):
        cumulative += weight
        if cumulative >= target:
            return value, len(pairs) - i - 1
    return pairs[-1][0], 0


class LatencyBuffer:
    """Latencies, operation kinds and speed tags in fixed, preallocated arrays.

    When they fill, every second sample is dropped and from then on only
    every second operation is recorded, so memory (and peak RSS) does not
    grow with throughput and the kept samples stay spread over the run.
    """

    def __init__(self, capacity: int = CAPACITY):
        self.values = array("d", bytes(8 * capacity))
        self.tags = array("d", bytes(8 * capacity))
        self.kinds = array("H", bytes(2 * capacity))
        self.size = 0
        self.stride = 1
        self.seen = 0

    def add(self, kind: int, seconds: float, tag: float) -> None:
        self.seen += 1
        if (self.seen - 1) % self.stride:
            return
        if self.size == len(self.values):
            half = self.size // 2
            for column in (self.values, self.tags, self.kinds):
                column[:half] = column[0:self.size:2]
            self.size = half
            self.stride *= 2
            if (self.seen - 1) % self.stride:
                return
        self.values[self.size] = seconds
        self.tags[self.size] = tag
        self.kinds[self.size] = kind
        self.size += 1


class Sampler:
    """Collects operation latencies between calibration runs.

    Each kind of operation is corrected by its own kernel; every kernel in
    use is timed at each calibration.
    """

    def __init__(self, kind_kernels: list[str]) -> None:
        self.kind_kernels = kind_kernels
        self.kernels = {name: KERNELS[name] for name in sorted(set(kind_kernels))}
        self.buffer = LatencyBuffer()
        self.calibrations = {name: array("d") for name in self.kernels}
        self.pending: list[tuple[int, int]] = []
        self.pending_ns = 0
        self.last = self._calibrate()

    def _calibrate(self) -> dict[str, float]:
        cal = {}
        for name, (kernel, _) in self.kernels.items():
            cal[name] = statistics.median(time_calibration(kernel) for _ in range(CAL_KERNELS))
            self.calibrations[name].append(cal[name])
        return cal

    def add(self, kind: int, elapsed_ns: int) -> None:
        self.pending.append((kind, elapsed_ns))
        self.pending_ns += elapsed_ns
        if self.pending_ns >= CAL_EVERY_NS:
            self.flush()

    def flush(self) -> None:
        """Tag the pending latencies with their kernel's slowdown against
        the reference host, averaged over the calibrations around them."""
        if not self.pending:
            return
        cal = self._calibrate()
        slowdown = {name: (self.last[name] + cal[name]) / 2 / ref_s
                    for name, (_, ref_s) in self.kernels.items()}
        for kind, elapsed_ns in self.pending:
            self.buffer.add(kind, elapsed_ns / 1e9, slowdown[self.kind_kernels[kind]])
        self.pending.clear()
        self.pending_ns = 0
        self.last = cal

    def corrected(self, kinds: int) -> list[list[float]]:
        """Corrected seconds of the recorded samples, one list per kind."""
        b = self.buffer
        groups: list[list[float]] = [[] for _ in range(kinds)]
        for i in range(b.size):
            groups[b.kinds[i]].append(b.values[i] / b.tags[i])
        return groups


def corrected_setup(run_once, reps: int) -> tuple[float, list[float], list[float]]:
    """Median of `reps` corrected set-up times, with the raw and corrected lists.

    A set-up lasts about a hundred arithmetic kernels, so each is scaled
    by the median of five kernels timed on each side of it.
    """
    raw, corrected = [], []
    kernel, ref_s = KERNELS[SETUP_KERNEL]
    speed = lambda: statistics.median(time_calibration(kernel) for _ in range(5))  # noqa: E731
    before = speed()
    for _ in range(reps):
        start = perf_counter_ns()
        run_once()
        elapsed = (perf_counter_ns() - start) / 1e9
        after = speed()
        raw.append(elapsed)
        corrected.append(elapsed * ref_s * 2 / (before + after))
        before = after
    return statistics.median(corrected), raw, corrected
