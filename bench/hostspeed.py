"""How fast the host runs right now, from a fixed kernel timed between operations.

The benchmark's host is a small virtual machine that shares its physical
cores with other tenants. While a neighbour is busy, all code here slows
together, by up to about 1.8x, in phases of seconds to minutes, with CPU
time still equal to wall time. Long recordings, whose arrays outgrow the
core's own cache, slow the most. No choice of estimator over the
operation times alone removes phases that last a whole run.

So every run also times a fixed kernel that does not touch ``cryscreen``:
the lag loop of a difference-function pitch tracker over the frames of an
80 s recording, allocated afresh on each call, which is the memory
pattern of ``dsp.estimate_f0``, the step that dominates extraction. The
kernel runs between operations, never during one, whenever
``INTERVAL_S`` has passed since its last run, so its samples cover the
run evenly. Its time against ``REFERENCE_S``, interpolated between the
samples on either side, is the host's slowdown at that moment. Dividing a
timed interval by the slowdown at its midpoint gives the time the same
work takes on the reference host; a change to ``cryscreen`` moves the
operation times and leaves the kernel alone, so it still shows in full.

The kernel runs in a child process, so that its 30 MB of arrays stay out
of the measured process's peak memory, and the measured process and the
child are held to one CPU, so that the kernel meets the same neighbours
as the operations.

    python3 bench/hostspeed.py    # times one kernel pass per line read
"""

import os
import statistics
import subprocess
import sys
import time

import numpy as np
from numpy.lib.stride_tricks import as_strided

# kernel shape: 8000 frames of 400 samples on a 160-sample hop (80 s at
# 16 kHz), a 320-sample integration window and 4 lags; each lag's 20 MB
# difference array outgrows the 2 MB L2 of a core, as on long recordings
FRAMES, HOP, WIN, SPAN, LAGS = 8000, 160, 400, 320, 4
# the kernel's time on the reference host, a fixed scale: about its mean
# time on the benchmark's 2-vCPU host in a quiet phase (README.md, "Host
# speed"). Changing it rescales every reported time.
REFERENCE_S = 0.065
INTERVAL_S = 0.5


def kernel() -> float:
    """Seconds one pass of the fixed kernel takes now."""
    t0 = time.perf_counter()
    signal = np.arange(FRAMES * HOP + WIN, dtype=np.float64)
    signal *= 1e-3
    np.cos(signal, out=signal)
    frames = as_strided(signal, (FRAMES, WIN), (HOP * signal.itemsize, signal.itemsize))
    base = frames[:, :SPAN]
    for tau in range(1, LAGS + 1):
        diff = base - frames[:, tau : tau + SPAN]
        np.einsum("ij,ij->i", diff, diff)
    return time.perf_counter() - t0


class HostSpeed:
    """Kernel samples taken between operations, each with the time it was taken at.

    Holds the calling process to one CPU from here on and starts the
    kernel's process there; `close` stops it and waits for it.
    """

    def __init__(self):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        self.run_kernel()  # warm-up, not a sample
        self.samples: list[float] = []
        self.times: list[float] = []
        self.sample()

    def run_kernel(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("host-speed kernel process ended")
        return float(line)

    def between_ops(self) -> None:
        """Time the kernel if `INTERVAL_S` has passed since the last sample."""
        if time.perf_counter() - self.last >= INTERVAL_S:
            self.sample()

    def sample(self) -> None:
        start = time.perf_counter()
        self.samples.append(self.run_kernel())
        self.last = time.perf_counter()
        self.times.append(0.5 * (start + self.last))

    def slowdown_at(self, t):
        """Kernel time at `t`, interpolated between samples, as a multiple of the reference host's."""
        return np.interp(t, self.times, self.samples) / REFERENCE_S

    def mean_slowdown(self) -> float:
        return statistics.mean(self.samples) / REFERENCE_S

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


if __name__ == "__main__":
    for _ in sys.stdin:
        print(repr(kernel()), flush=True)
