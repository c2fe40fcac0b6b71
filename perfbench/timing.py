"""Operation timing against a fixed reference kernel.

The benchmark runs on a few cores shared with other machines' work.
Their load slows the whole host, by up to 1.7 times, for stretches of
seconds to minutes, so an operation's seconds measure the neighbours as
much as the program, and no statistic over one run removes a slow
stretch that outlasts the run. Each untraced operation is therefore
timed together with a fixed reference kernel run just before it. The
operation's cost in reference units (its seconds over the kernel's)
cancels the host's speed of that moment, while a change to the work an
operation does moves the cost as it moves the seconds.

The kernel is bulk numpy work of the kinds the program's operations
spend their time in (matrix products and elementwise passes over a
megabyte) on inputs fixed here, so a change to the program never
changes it. Scatter-adds and small-array updates from a Python loop are
left out: their times swing about twice as much with the host's load as
the program's operations do, which would make the cost swing the other
way.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

__all__ = ["OpTimer", "reference_seconds"]

_rng = np.random.default_rng(0)
_MATRIX = _rng.standard_normal((128, 128)).astype(np.float32)
_VECTOR = _rng.standard_normal(1 << 18).astype(np.float32)


def reference_seconds() -> float:
    """Wall seconds of one run of the reference kernel (about 1 ms)."""
    t0 = time.perf_counter()
    _MATRIX @ _MATRIX @ _MATRIX
    y = np.abs(_VECTOR) * 0.5 + _VECTOR
    np.sign(y).astype(np.int8)
    y.max()
    return time.perf_counter() - t0


class OpTimer:
    """Per-operation seconds, each paired with a reference kernel run.

    Traced units run no reference kernel: their operations only feed the
    per-layer breakdown, whose spans must cover the unit's wall.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.seconds: list[float] = []
        #: Reference kernel seconds measured just before each operation.
        self.reference: list[float] = []

    @contextmanager
    def op(self):
        if self.tracer is None:
            self.reference.append(reference_seconds())
        else:
            self.tracer.op = len(self.seconds)
        t0 = time.perf_counter()
        yield
        self.seconds.append(time.perf_counter() - t0)
