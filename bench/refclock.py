"""Reference clocks: fixed work timed beside every measured call.

The benchmark runs on shared machines whose speed drifts by tens of percent
over seconds to minutes, so a wall time measured in one run says as much
about the neighbours as about the program.  Every measured call is
therefore bracketed by two timings of reference work that belongs to the
benchmark, and its time is reported divided by the *slowdown*: the mean of
the two reference times over the reference's nominal time.  A scaled time
reads as the wall time on a machine where the reference takes its nominal
time; a change to the program moves it exactly as it moves the wall time.

Two references, each like the work it scales:

* ``kernel``, pure-Python list arithmetic on small integers mod p, the same
  kind of work as the library's mod-p and integer layers, scales library
  calls.  Over eight 30-second windows on a 2-vCPU VM the interquartile
  spread of median certify_galois times was 0.117 of their median unscaled
  and 0.014 scaled.
* a bare interpreter start (``python3 -c pass``, timed in run.py) scales
  whole processes: CLI commands and interpreter set-up, which are mostly
  process start, unmarshalling and imports.  Over eight 30-second windows
  the spread of median CLI command times was 0.103 unscaled, 0.036 scaled by
  the kernel and 0.022 scaled by interpreter starts.
"""

from __future__ import annotations

import time

# Nominal reference times: about their medians on a 2-vCPU Intel Xeon VM
# with Python 3.11.
KERNEL_S = 0.010
START_S = 0.050

_P = 10007
_A = tuple(range(1, 120))
_B = tuple(range(3, 122))


def kernel() -> int:
    """Six products of degree-118 polynomials mod p, truncated to the degree."""
    a = list(_A)
    for _ in range(6):
        r = [0] * (len(a) + len(_B) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(_B):
                    r[i + j] = (r[i + j] + x * y) % _P
        a = r[: len(_A)]
    return a[0]


def kernel_slowdown() -> float:
    """One kernel run's wall time over its nominal time."""
    t0 = time.perf_counter()
    kernel()
    return (time.perf_counter() - t0) / KERNEL_S
