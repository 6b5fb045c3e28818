"""Host-speed reference for the benchmark's timings.

Other tenants slow this kind of shared host by up to 1.6x for minutes at a
time, which moves every timing of a run together.  The benchmark therefore
times this fixed pure-Python kernel (``Fraction`` arithmetic and dict updates,
no ``rigidmono`` code) around its measurements and scales each measured time
by ``REFERENCE_S / kernel time``: the reported times are what the host gives
when the kernel takes ``REFERENCE_S``.  A change to ``rigidmono`` moves them;
a slower stretch of the host does not.
"""
from __future__ import annotations

from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.010
_VALUES = [Fraction(i % 13 - 6, i % 7 + 1) for i in range(200)]


def kernel_s() -> float:
    """Seconds the reference kernel takes now."""
    t0 = perf_counter()
    acc = Fraction(0)
    for _ in range(6):
        for a, b in zip(_VALUES, _VALUES[1:]):
            acc += a * b - b / 3
        sums = {}
        for i, x in enumerate(_VALUES):
            key = (i % 17, x.denominator)
            sums[key] = sums.get(key, Fraction(0)) + x
    return perf_counter() - t0
