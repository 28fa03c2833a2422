"""Counter-based random number streams for reproducible parallel simulation.

Every uniform variate is addressed by (seed, pulse index, draw index), or by
(seed, block index, word index) in the block-level stream, instead of being
pulled from a sequential generator, so any partition of the pulse range over
chunks or worker threads reproduces bit-identical outcomes.  The
mixing function is the splitmix64 output finalizer (Stafford mix 13) applied
to a Weyl sequence, a standard construction for keyed counter streams.

All vector routines operate on uint64 arrays and wrap modulo 2**64.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1

# Weyl increments: the golden-ratio gamma for the pulse-level stream and an
# independent odd constant for draws within one pulse; BLOCK_GAMMA offsets
# the seed of the block-level stream from that of the pulse-level one.
PULSE_GAMMA = 0x9E3779B97F4A7C15
DRAW_GAMMA = 0xD1B54A32D192ED03
BLOCK_GAMMA = 0x8CB92BA72F3D8DD7

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_PULSE_GAMMA_U64 = np.uint64(PULSE_GAMMA)
_DRAW_GAMMA_U64 = np.uint64(DRAW_GAMMA)


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
    """Whiten a user seed into the base key of the pulse-level stream."""
    return mix64_int((seed & MASK64) + PULSE_GAMMA)


def block_stream_key(seed: int) -> int:
    """Whiten a user seed into the base key of the block-level stream.

    Blocks are keyed like pulses (:func:`pulse_keys`) and their words drawn
    like draws (:func:`draw_at`), from a base key apart from :func:`stream_key`.
    """
    return mix64_int((seed & MASK64) + BLOCK_GAMMA)


def derive_seed(seed: int, index: int) -> int:
    """Child seed for an independent sub-stream (e.g. one per scan angle)."""
    return mix64_int(stream_key(seed) + (index + 1) * DRAW_GAMMA)


def pulse_keys(key: int, pulse_indices: np.ndarray) -> np.ndarray:
    """Per-pulse hash keys for a contiguous uint64 array of pulse indices."""
    z = pulse_indices * _PULSE_GAMMA_U64
    z += np.uint64(key)
    return mix64(z)


def draw(keys: np.ndarray, draw_index: int) -> np.ndarray:
    """Uniform uint64 draw number ``draw_index`` for every pulse key."""
    off = np.uint64(((draw_index + 1) * DRAW_GAMMA) & MASK64)
    return mix64(keys + off)


def draw_at(keys: np.ndarray, draw_indices: np.ndarray) -> np.ndarray:
    """Like :func:`draw` but with a uint64 draw-index array that broadcasts
    against ``keys`` (per element, or a row of indices for a column of keys)."""
    off = draw_indices + np.uint64(1)
    off *= _DRAW_GAMMA_U64
    return mix64(keys + off)


def to_unit(u: np.ndarray) -> np.ndarray:
    """Map uint64 draws onto float64 uniforms in [0, 1)."""
    return (u >> np.uint64(11)) * (1.0 / (1 << 53))
