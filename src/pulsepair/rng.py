"""Counter-based random number streams for reproducible parallel simulation.

Every uniform variate is word k of a keyed stream, addressed by (seed, word
index), instead of being pulled from a sequential generator, so any word can
be computed directly from its address and any split of a run into passes
reproduces bit-identical outcomes.  A run reads up to two streams of its
seed: the gap stream, which places its click pulses (those where a detector
clicks), and the pattern stream, whose word k is the click-pattern draw of
the click pulse that gap word k places, or of pulse k when the run hashes
every pulse instead.  The mixing function is the splitmix64 output
finalizer (Stafford mix 13) applied to a Weyl sequence, a standard
construction for keyed counter streams.

All vector routines operate on uint64 arrays and wrap modulo 2**64.
"""

from __future__ import annotations

import functools

import numpy as np

MASK64 = (1 << 64) - 1

# Weyl increments: DRAW_GAMMA steps from one word of a stream to the next;
# PULSE_GAMMA (the golden ratio), GAP_GAMMA and PATTERN_GAMMA (2**64 over the
# plastic number) offset a seed before it is whitened into the key of the
# seed stream, the gap stream and the pattern stream.
PULSE_GAMMA = 0x9E3779B97F4A7C15
DRAW_GAMMA = 0xD1B54A32D192ED03
GAP_GAMMA = 0x8CB92BA72F3D8DD7
PATTERN_GAMMA = 0xC13FA9A902A6328F

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)

# The most words one stream_words call returns, and so one pass of a run
# draws from each of its streams.
ROW_WORDS = (1 << 15) + (1 << 10)


@functools.cache
def _row_offsets() -> np.ndarray:
    """(j + 1) DRAW_GAMMA mod 2**64 for j < ``ROW_WORDS``, the draw offset of
    word j of a row.  Built on first use, so a process that never runs the
    Monte Carlo never holds its 264 KiB, and scaled in place, since a
    product's temporary would add to the peak memory of the first run."""
    offsets = np.arange(1, ROW_WORDS + 1, dtype=np.uint64)
    offsets *= np.uint64(DRAW_GAMMA)
    return offsets


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
    """Whiten a user seed into the key of its seed stream, whose words are
    the child seeds of :func:`derive_seed`."""
    return mix64_int((seed & MASK64) + PULSE_GAMMA)


def gap_stream_key(seed: int) -> int:
    """Whiten a user seed into the key of the gap stream, whose word k
    places a run's k-th click pulse; :func:`stream_words` gives a run of
    its words."""
    return mix64_int((seed & MASK64) + GAP_GAMMA)


def pattern_stream_key(seed: int) -> int:
    """Whiten a user seed into the key of the pattern stream, whose word k
    is the click-pattern draw of the click pulse that gap word k places, or
    of pulse k on the per-pulse kernel."""
    return mix64_int((seed & MASK64) + PATTERN_GAMMA)


def derive_seed(seed: int, index: int) -> int:
    """Child seed for an independent sub-stream (e.g. one per scan angle):
    word ``index`` of the seed stream."""
    return mix64_int(stream_key(seed) + (index + 1) * DRAW_GAMMA)


def stream_words(key: int, first_word: int, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Words ``first_word``, ``first_word + 1``, ... of the stream with key
    ``key``, as many as ``out`` holds, at most ``ROW_WORDS``.

    Word k is mix64(key + (k + 1) DRAW_GAMMA), its index wrapping modulo
    2**64: the offsets come from a table built once, so no index array is
    formed per call.  ``scratch``, of ``out``'s shape, serves :func:`mix64`.
    """
    start = np.uint64((key + first_word * DRAW_GAMMA) & MASK64)
    return mix64(np.add(_row_offsets()[: out.size], start, out=out), scratch)
