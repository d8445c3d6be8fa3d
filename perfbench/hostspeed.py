"""Host-speed calibration: time a fixed pure-Python loop beside the work.

On a shared VM this host's speed drifts by up to 2x within minutes, and a
plain host time measures that drift more than the program.  A fixed
calibration loop timed next to the work slows down with it, so the
benchmark reports every host time *at the reference speed*: a measured
interval is scaled by ``REF_CAL_S`` over the calibration time measured
around it.  A change that makes the program faster or slower still moves
the scaled time by the same factor; the calibration loop never changes.
"""

from __future__ import annotations

import statistics
import time

#: The calibration loop's time on the reference host: the 2-vCPU x86_64
#: VM of README.md in a quiet spell.  Scaled times are seconds on that host.
REF_CAL_S = 0.014
CAL_ITERATIONS = 50_000


def calibrate() -> float:
    """Seconds the fixed loop takes now: dict, str and int work, as in the simulator."""
    started = time.perf_counter()
    table: dict = {}
    total = 0
    for i in range(CAL_ITERATIONS):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        total += len(str(i))
    return time.perf_counter() - started


def scaled(seconds: float, cal_before: float, cal_after: float) -> float:
    """``seconds`` at the reference speed, from the calibrations around it."""
    return seconds * 2.0 * REF_CAL_S / (cal_before + cal_after)


class RefClock:
    """Sums timed segments, each scaled to the reference speed.

    Time runs between :meth:`resume` and :meth:`pause`.  Once at least
    ``every`` seconds have run since the last calibration, :meth:`pause`
    calibrates again and scales that stretch by the two calibrations around
    it (:meth:`flush` does so at once); calibrations and anything done while
    paused are never timed.
    """

    def __init__(self, every: float = 0.25) -> None:
        self.every = every
        self.first_cal = self.last_cal = calibrate()
        self.cals = [self.first_cal]
        self.raw_s = 0.0
        self.ref_s = 0.0
        self._pending = 0.0
        self._started = None

    def resume(self) -> None:
        self._started = time.perf_counter()

    def pause(self) -> None:
        """Stop timing; calibrate and scale now if due."""
        self._pending += time.perf_counter() - self._started
        self._started = None
        if self._pending >= self.every:
            self.flush()

    def flush(self) -> None:
        """Calibrate and scale the time run since the last calibration."""
        if self._pending > 0:
            before = self.last_cal
            self.raw_s += self._pending
            self.ref_s += scaled(self._pending, before, self.recalibrate())
            self._pending = 0.0

    def recalibrate(self) -> float:
        """Calibrate now, after an untimed stretch the speed may have changed in."""
        self.last_cal = calibrate()
        self.cals.append(self.last_cal)
        return self.last_cal

    def median_scale(self) -> float:
        """Reference seconds per host second, from the median calibration."""
        return REF_CAL_S / statistics.median(self.cals)
