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

# Words one block_words call may return: a pass over a block of the event
# stream draws at most 2**15 expected words plus four standard deviations and
# 2, which is 33 494.
ROW_WORDS = (1 << 15) + (1 << 10)
# (j + 1) DRAW_GAMMA mod 2**64, the draw offset of word j of a row; scaled in
# place, since a product's temporary would add to every process's peak memory
_ROW_OFFSETS = np.arange(1, ROW_WORDS + 1, dtype=np.uint64)
_ROW_OFFSETS *= np.uint64(DRAW_GAMMA)


def mix64(z: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """Finalize a uint64 array in place; returns the diffused array.

    ``scratch``, a uint64 array of z's shape, takes the shifted words that
    would otherwise go to a new temporary at each of the three rounds.
    """
    z ^= np.right_shift(z, _S30, out=scratch)
    z *= _M1
    z ^= np.right_shift(z, _S27, out=scratch)
    z *= _M2
    z ^= np.right_shift(z, _S31, out=scratch)
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
    like draws (:func:`draw_at`), from a base key apart from :func:`stream_key`;
    :func:`block_words` gives a run of one block's words.
    """
    return mix64_int((seed & MASK64) + BLOCK_GAMMA)


def derive_seed(seed: int, index: int) -> int:
    """Child seed for an independent sub-stream (e.g. one per scan angle)."""
    return mix64_int(stream_key(seed) + (index + 1) * DRAW_GAMMA)


def pulse_keys(
    key: int,
    pulse_indices: np.ndarray,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Per-pulse hash keys for a uint64 array of pulse indices.

    ``out`` (which may be ``pulse_indices`` itself) receives the keys and
    ``scratch`` serves :func:`mix64`; both default to new arrays.
    """
    z = np.multiply(pulse_indices, _PULSE_GAMMA_U64, out=out)
    z += np.uint64(key)
    return mix64(z, scratch)


def draw_at(
    keys: np.ndarray,
    draw_index: int,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Uniform uint64 draws, draw number ``draw_index`` of every pulse key.

    ``out`` (which may be ``keys`` itself) receives the draws and
    ``scratch``, of the keys' shape, serves :func:`mix64`; both default to
    new arrays.
    """
    # Python ints wrap without the overflow warning of numpy scalar arithmetic
    off = np.uint64((draw_index + 1) * DRAW_GAMMA & MASK64)
    return mix64(np.add(keys, off, out=out), scratch)


def block_words(
    key: int, block: int, first_word: int, out: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """Words ``first_word``, ``first_word + 1``, ... of block ``block`` of the
    block-level stream with base key ``key``, as many as ``out`` holds, at
    most ``ROW_WORDS``.

    Word j equals ``draw_at(pulse_keys(key, [block]), j)``: the block's key
    is one scalar, and the draw offsets come from a table built once, so no
    index array is formed per call.  ``scratch``, of ``out``'s shape, serves
    :func:`mix64`.
    """
    row_key = mix64_int(block * PULSE_GAMMA + key)
    start = np.uint64((row_key + first_word * DRAW_GAMMA) & MASK64)
    return mix64(np.add(_ROW_OFFSETS[: out.size], start, out=out), scratch)
