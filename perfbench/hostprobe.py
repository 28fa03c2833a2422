"""Host-speed probes: fixed kernels, independent of pulsepair, timed between ops.

The benchmark runs on a few vCPUs of a shared host whose speed drifts with
the other tenants' load: a fixed pure-Python loop took anywhere from 160 to
230 ms on a 2-vCPU Xeon within one minute, and a run's mean moved with it.
Timing a probe after every op samples the same host states as the ops, so
``op time / probe time`` cancels the drift while any change to pulsepair
still moves it in full.  Each probe does the kind of work its workload's op
does, on as many threads:

  array   splitmix64-style uint64 hashing over a 256 KiB block, one block
          per worker thread (the Monte Carlo workloads: counter-based
          hashing and array tallies)
  python  interpreter loops, dict and small 4x4 matrix products, then one
          array pass (the analytic workload: CLI parsing, per-angle loops,
          the Jacobi eigensolver)

Over 150 s of one process cut into 15 s windows, the spread (IQR/median)
of the windows' mean op time was 0.122 on mc-dense and 0.133 on analytic;
that of mean op time over mean probe time was 0.008 and 0.019.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

BLOCK_WORDS = 1 << 15
ARRAY_ROUNDS = 10
PYTHON_LOOP = 10_000
PYTHON_DICT = 1_000
PYTHON_MATMUL = 100

# Median time of each (kind, threads) probe on a 2-vCPU Xeon host.  These
# only set the scale of ``ref_ops_per_s``: ops per second on a host where
# the probe takes this long.
REFERENCE_S = {("array", 1): 0.9e-3, ("array", 2): 1.3e-3, ("python", 1): 2.2e-3}

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S30, _S27, _S31 = np.uint64(30), np.uint64(27), np.uint64(31)


def _hash_block(block: np.ndarray) -> int:
    x = np.empty_like(block)
    for _ in range(ARRAY_ROUNDS):
        np.right_shift(block, _S30, out=x)
        x ^= block
        x *= _M1
        x ^= x >> _S27
        x *= _M2
        x ^= x >> _S31
    return int(x[-1])


def _python_work(mat: np.ndarray) -> int:
    s = 0
    for k in range(PYTHON_LOOP):
        s += k * k
    table = {}
    for k in range(PYTHON_DICT):
        table[str(k)] = k
    for _ in range(PYTHON_MATMUL):
        mat = (mat @ mat) / mat.sum()
    return s + len(table)


class HostProbe:
    """One probe kind; ``__call__`` returns the seconds of one timed pass.

    An untimed pass goes first, so the timed one finds its data in cache
    and its code warm, whatever the op before it evicted.  Close the probe
    when done.
    """

    def __init__(self, kind: str, threads: int = 1) -> None:
        if (kind, threads) not in REFERENCE_S:
            raise ValueError(f"no reference time for a {kind!r} probe on {threads} threads")
        self.kind = kind
        self.reference_s = REFERENCE_S[kind, threads]
        self._blocks = [np.arange(BLOCK_WORDS, dtype=np.uint64) + t for t in range(threads)]
        self._mat = np.eye(4) + 0.125
        self._pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None

    def __call__(self) -> float:
        self._run()
        t0 = time.perf_counter()
        self._run()
        return time.perf_counter() - t0

    def _run(self) -> None:
        if self.kind == "python":
            _python_work(self._mat)
        if self._pool is None:
            _hash_block(self._blocks[0])
        else:
            list(self._pool.map(_hash_block, self._blocks))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
