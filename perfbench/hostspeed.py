"""Host-speed sampling: rescale wall times to a fixed reference speed.

The benchmark runs on shared machines whose CPU speed drifts with the
load of other tenants: on the 2-vCPU virtual machine this benchmark was
tuned on, the same Table 1 pass took anywhere from 8.9 s to 15.7 s
within minutes, and a fixed pure-Python kernel slowed and sped up in
step with it.  A drift that size would swamp any change to the
program.

So a sampler process times :func:`kernel` about twenty times a second
for the whole run, writing ``start duration`` lines, and the workloads
report every time metric at the reference speed: a wall time measured
over ``[start, end]`` is multiplied by ``REFERENCE_KERNEL_S`` over the
kernel's mean duration in that interval.  That is the time the same
work takes on a host where the kernel takes exactly
``REFERENCE_KERNEL_S``; the raw wall times are printed beside it.  The
sampler keeps one CPU busy about 2% of the time.

Usage (started and stopped by :class:`HostSpeed`)::

    python3 perfbench/hostspeed.py SAMPLES.txt
"""

import subprocess
import sys
import time

#: Kernel duration that defines the reference speed (seconds).
REFERENCE_KERNEL_S = 0.001

#: Pause between two kernel timings (seconds).
PERIOD_S = 0.05

#: Fewest samples a rescaling averages; shorter intervals are widened.
MIN_SAMPLES = 5


def kernel():
    """A fixed slice of dictionary and integer work."""
    table = {}
    for number in range(4000):
        key = number & 511
        table[key] = table.get(key, 0) + (number * 7) // 3
    return table


def sample(path):
    """Time :func:`kernel` every ``PERIOD_S`` until terminated."""
    with open(path, "w", buffering=1) as out:
        while True:
            start = time.perf_counter()
            kernel()
            out.write("%r %r\n" % (start, time.perf_counter() - start))
            time.sleep(PERIOD_S)


class HostSpeed:
    """A running sampler process and the rescaling it allows.

    ``time.perf_counter`` is the system-wide monotonic clock on Linux,
    so intervals measured in any process of the run line up with the
    sampler's stamps.
    """

    def __init__(self, path):
        self.path = path
        self._process = subprocess.Popen([sys.executable, __file__, path])

    def factor(self, start, end):
        """Reference speed over the host's speed during [start, end]."""
        samples = self._samples()
        widen = 0.0
        while True:
            inside = [duration for stamp, duration in samples
                      if start - widen <= stamp <= end + widen]
            if len(inside) >= MIN_SAMPLES or widen > 10.0:
                break
            widen += 0.5
        if not inside:
            raise RuntimeError("the host-speed sampler recorded nothing")
        return REFERENCE_KERNEL_S * len(inside) / sum(inside)

    def _samples(self):
        samples = []
        with open(self.path) as handle:
            for line in handle:
                fields = line.split()
                if len(fields) == 2:
                    samples.append((float(fields[0]), float(fields[1])))
        return samples

    def close(self):
        self._process.terminate()
        self._process.wait()


if __name__ == "__main__":
    sample(sys.argv[1])
