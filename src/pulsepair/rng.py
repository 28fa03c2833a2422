"""Seeds and pass length of the Monte Carlo's random streams.

A run of seed s draws its uniforms from numpy's SFC64 generator, through
``np.random.Generator(np.random.SFC64([s mod 2**64, stream]))``: stream 0
holds the gaps that place its click pulses (those where a detector clicks),
stream 1 the click-pattern draws, one for each click pulse in order, or
one for each pulse when the run visits every pulse.  Both are read front
to back, in passes of at most ``ROW_WORDS`` draws, and a float64 draw takes
one 64-bit word whatever the pass it falls in, so a run's draws do not
depend on how its passes split them.  Only the Monte Carlo builds
generators, so a process that never runs it never imports ``numpy.random``.

This module gives the child seeds of a scan: :func:`derive_seed` is word
``index`` of a keyed counter stream, the splitmix64 output finalizer
(Stafford mix 13) applied to a Weyl sequence.
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

# The most draws one pass of a run takes from each of its streams.
ROW_WORDS = (1 << 15) + (1 << 10)


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


def stream_key(seed: int) -> int:
    """Whiten a user seed into the key of its seed stream, whose words are
    the child seeds of :func:`derive_seed`."""
    return mix64_int((seed & MASK64) + PULSE_GAMMA)


def derive_seed(seed: int, index: int) -> int:
    """Child seed for an independent sub-stream (e.g. one per scan angle):
    word ``index`` of the seed stream."""
    return mix64_int(stream_key(seed) + (index + 1) * DRAW_GAMMA)
