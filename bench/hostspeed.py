"""Host-speed probe: a fixed piece of work timed between benchmark operations.

The benchmark's machine does not run at a steady speed: a fixed pure-Python
loop took 13 to 33 ms over 150 s, and its CPU time moved with its wall
time, so the host itself slows down, not the scheduling of this process
(see README.md). Every timed operation is therefore scaled by
``REFERENCE_S / probe``, where ``probe`` is the mean of the probes timed just
before and just after it. The scaled figure is the wall time the operation
would take on a host that runs the probe in ``REFERENCE_S``. The probe does
the kinds of work the package does: interpreted bookkeeping, small float32
matmuls with elementwise transcendentals, and streaming passes over
V x H-sized buffers. No code of the package runs in it, so a change to the
package cannot move it.
"""

import time

import numpy as np

REFERENCE_S = 0.018  # the probe's typical time on the reference machine in README.md

_rng = np.random.default_rng(0)
_W = (_rng.standard_normal((256, 256)) / 16).astype(np.float32)
_H0 = _rng.standard_normal((256, 32)).astype(np.float32)
_BUF = np.zeros((8000, 256), np.float32)  # one V x H gradient buffer


def probe_s() -> float:
    """Wall seconds of one run of the fixed probe work."""
    t = time.perf_counter()
    h = _H0
    for _ in range(100):
        h = np.tanh(_W @ h)
    for _ in range(12):
        np.multiply(_BUF, 0.5, out=_BUF)
    acc = {}
    for i in range(30000):
        acc[i % 61] = acc.get(i % 61, 0) + i
    return time.perf_counter() - t
