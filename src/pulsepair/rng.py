"""Child seeds of a Monte Carlo scan.

Point i of a scan of seed s runs with seed ``derive_seed(s, i)``, word i of
a keyed counter stream: the splitmix64 output finalizer (Stafford mix 13)
applied to a Weyl sequence.  The stream's key is that finalizer applied to
s mod 2**64 offset by the golden ratio, so seeds equal mod 2**64 give the
same child seeds.  A run's own random draws come from numpy generators
built in :mod:`pulsepair.counting`, not from here.

:func:`mix64`, the finalizer over a uint64 array, has no caller in the
package: it stays for perfbench's ``rng.ns_per_word`` probe until perfbench
drops that metric.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1

# Weyl increments: PULSE_GAMMA (the golden ratio) offsets a seed before it
# is whitened into the key of its seed stream, DRAW_GAMMA steps from one
# child seed to the next.
PULSE_GAMMA = 0x9E3779B97F4A7C15
DRAW_GAMMA = 0xD1B54A32D192ED03

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)


def mix64(z: np.ndarray) -> np.ndarray:
    """Finalize a uint64 array in place; returns the diffused array."""
    z ^= z >> _S30
    z *= _M1
    z ^= z >> _S27
    z *= _M2
    z ^= z >> _S31
    return z


def mix64_int(x: int) -> int:
    """Scalar mix64 on plain Python integers (no numpy overflow warnings)."""
    z = x & MASK64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK64
    return (z ^ (z >> 31)) & MASK64


def derive_seed(seed: int, index: int) -> int:
    """Child seed for an independent sub-stream (e.g. one per scan angle):
    word ``index`` of the stream keyed by ``seed`` mod 2**64."""
    key = mix64_int((seed & MASK64) + PULSE_GAMMA)
    return mix64_int(key + (index + 1) * DRAW_GAMMA)
