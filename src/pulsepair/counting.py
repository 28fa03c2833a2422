"""Counting statistics: analytic rates and exact Monte Carlo pulse runs.

One pump pulse is one coincidence window (the 2 ns window is shorter than the
12.5 ns period of an 80 MHz pulse train, so windows never straddle pulses).
Per pulse the source emits a Poisson number of pairs.  The photon-level
physics lives once, in :func:`pair_click_probs`: each photon of a pair is
routed independently through a 50/50 beamsplitter to one of the two analyzer
ports, joint analyzer outcomes follow the exact four-outcome distribution of
the emitted state, and threshold (non-number-resolving) detectors fire per
transmitted photon with their efficiency, saturating when both photons reach
the same port.  It gives the probabilities s1, s2 and s12 that one pair
clicks D1, D2 or both, as contractions of the emitted state's correlation
tensor (:func:`pulsepair.polarization.correlation_tensor`) with analyzer
vectors; since either photon may reach either port, only the part of the
tensor symmetric under photon exchange enters.  This module reads neither
the density matrix nor an analyzer's axis.  Each detector also clicks with
an independent background probability per window.  D1 and D2 in the same window count as a
coincidence; D1 at window i with D2 at window i+1 feeds the delayed-window
accidental estimate.

The pairs of a pulse are independent, so given k pairs
P(no D1) = (1 - b1)(1 - s1)^k and
P(neither) = (1 - b1)(1 - b2)(1 - s1 - s2 + s12)^k.  The Monte Carlo visits
only event pulses: those with at least one pair or a background click,
P(event) = 1 - (1 - b1)(1 - b2) exp(-lambda).  Their positions come from
geometric gaps between events, drawn from a block-level counter stream keyed
by (seed, block of 4096 pulses, word index).  Each event pulse takes its pair
number and whether D1 and D2 click in one draw from their joint distribution
given an event, keyed by (seed, pulse index, draw index).  The draw's cell is
found through a guide table indexed by its top 12 bits (Chen & Asau, AIIE
Trans. 6(2), 1974; Devroye, Non-Uniform Random Variate Generation, 1986,
III.2.4): one table read and at most one step, with a binary search only in
the few buckets that hold two or more thresholds.  It returns exactly the cell
a binary search over all thresholds returns, so counts are those of the plain
search.  Chunks of whole blocks run one after another in a single thread.  A
run is therefore bit-reproducible regardless of chunking or worker count, and
its cost grows with the number of event pulses, not of pulses or pairs.

A scan (:func:`simulate_scan`) is one run per analyzer-1 angle, point i
seeded by ``rng.derive_seed(seed, i)``.  The emitted state and the click
probabilities of every angle are computed once per scan, and each point
then builds its own tables and runs the same chunk loop;
:func:`simulate_run` is the one-angle case, with the run's own seed.

Every chunk-sized intermediate is written with ``out=`` into flat buffers of
one workspace per thread, which every chunk of a run and every later run on
that thread reuse, so a warm run allocates no chunk-sized array and faults in
no new pages.  A buffer that is dead by the time a later stage runs serves
that stage too: the gap words become positions in place, and the cell
search keeps its indices and thresholds in the buffers of the positions and
the gap stage's scratch words.  A buffer is kept only up to the largest
first-pass gap grid of a default chunk, ``_CACHE_WORDS`` 8-byte items; a
larger one, which only an explicit ``chunk_size`` asks for, is a new array
that the workspace drops.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass

import numpy as np

from . import rng
from .polarization import NO_ANALYZER, DensityMatrix, analyzer_vector, correlation_tensor
from .polarization import pass_probability
from .source import SourceConfig, emitted_state

FIRST_ORDER_LAMBDA_LIMIT = 0.1
# Event positions are float64 pulse indices, exact up to 2**53.
MAX_N_PULSES = 1 << 53


class ModelRegimeWarning(UserWarning):
    """Raised when the analytic rate model leaves its first-order regime."""


@dataclass(frozen=True)
class DetectorConfig:
    """Per-port detection efficiency and per-window background probability."""

    efficiency1: float = 0.6
    efficiency2: float = 0.6
    background_prob1: float = 0.0
    background_prob2: float = 0.0

    def __post_init__(self) -> None:
        for name in ("efficiency1", "efficiency2"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {val}")
        for name in ("background_prob1", "background_prob2"):
            val = getattr(self, name)
            if not 0.0 <= val < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {val}")


@dataclass(frozen=True)
class RunConfig:
    """Length, seed and worker count of one simulated run.

    ``n_pulses`` lies in [1, MAX_N_PULSES].  ``workers`` is kept for config
    compatibility; it has no effect on results or speed, since chunks run in
    one thread.
    """

    n_pulses: int = 1_000_000
    seed: int = 12345
    workers: int = 1

    def __post_init__(self) -> None:
        if not 1 <= self.n_pulses <= MAX_N_PULSES:
            raise ValueError(f"n_pulses must lie in [1, 2**53], got {self.n_pulses}")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if not -(1 << 63) <= self.seed < (1 << 64):
            raise ValueError("seed must fit in 64 bits")


@dataclass(frozen=True)
class CountRecord:
    """Tallies of one run: singles, same-window coincidences, accidentals."""

    n_pulses: int
    singles1: int
    singles2: int
    coincidences: int
    accidentals: int

    def __post_init__(self) -> None:
        if not 0 <= self.coincidences <= min(self.singles1, self.singles2):
            raise ValueError("coincidences must not exceed either singles count")
        if not 0 <= self.accidentals <= max(self.n_pulses - 1, 0):
            raise ValueError("accidentals exceed the number of delayed windows")


@dataclass(frozen=True)
class ExpectedRates:
    """Per-pulse click probabilities from the analytic model.

    Each field is a scalar, or an array over the analyzer angles it was
    computed for.
    """

    p_single1: float | np.ndarray
    p_single2: float | np.ndarray
    p_coinc: float | np.ndarray
    p_accidental: float | np.ndarray

    def __post_init__(self) -> None:
        for name in ("p_single1", "p_single2", "p_coinc", "p_accidental"):
            val = getattr(self, name)
            if not np.all((val >= 0.0) & (val <= 1.0)):
                raise ValueError(f"{name} out of [0, 1]: {val}")


def _exchange_symmetric_tensor(rho: DensityMatrix) -> np.ndarray:
    """(T + T^T) / 2 of the correlation tensor T of rho.

    The beamsplitter sends either photon to either port with equal chance,
    so one pair's click probabilities read only the part of T that is
    symmetric under exchange of the photons.
    """
    t = correlation_tensor(rho)
    return 0.5 * (t + t.T)


def _click_rate(s: np.ndarray, c: np.ndarray, eta: float) -> float | np.ndarray:
    """One pair's click probability at a port with analyzer vector ``c`` and
    efficiency ``eta``, given the exchange-symmetric tensor ``s``."""
    return eta * pass_probability(s, NO_ANALYZER, c) - eta**2 * 0.25 * pass_probability(s, c, c)


def pair_click_rate(
    rho: DensityMatrix, theta: float | np.ndarray, efficiency: float
) -> float | np.ndarray:
    """Probability that one emitted pair clicks the detector at ``theta``.

    Averages the four equally likely beamsplitter routings.  Photons landing
    alone contribute eta * marginal pass probability; when both photons reach
    the same port the threshold detector saturates, which subtracts the
    eta^2/4 * P(theta, theta) double-transmission overlap.  An array of
    angles gives an array of rates.
    """
    return _click_rate(_exchange_symmetric_tensor(rho), analyzer_vector(theta), efficiency)


def pair_click_probs(
    rho: DensityMatrix,
    theta1: float | np.ndarray,
    theta2: float | np.ndarray,
    det: DetectorConfig,
) -> tuple:
    """Probabilities (s1, s2, s12) that one emitted pair clicks D1, D2 or both.

    s1 and s2 are :func:`pair_click_rate` at each port.  Both detectors click
    only when the photons take different ports and both are transmitted and
    detected: s12 = eta1 eta2 (P(theta1, theta2) + P(theta2, theta1)) / 4.
    All three read one correlation tensor.  Arrays of angles pass through;
    s12 takes their broadcast shape.
    """
    s = _exchange_symmetric_tensor(rho)
    c1, c2 = analyzer_vector(theta1), analyzer_vector(theta2)
    s12 = det.efficiency1 * det.efficiency2 * 0.5 * pass_probability(s, c1, c2)
    return _click_rate(s, c1, det.efficiency1), _click_rate(s, c2, det.efficiency2), s12


def expected_rates(
    rho: DensityMatrix,
    theta1: float | np.ndarray,
    theta2: float | np.ndarray,
    mean_pairs_per_pulse: float,
    det: DetectorConfig,
) -> ExpectedRates:
    """First-order-in-lambda analytic model of the per-pulse rates.

    Exact for at most one pair per pulse and exact in efficiency and
    background; multi-pair corrections are O(lambda^2).  The intended regime
    is lambda <= 0.05; above 0.1 a ModelRegimeWarning is emitted (the values
    are still computed).  The angles broadcast against each other, and all
    four rates take their broadcast shape; scalar angles give scalar rates.
    """
    lam = mean_pairs_per_pulse
    if lam < 0:
        raise ValueError("mean_pairs_per_pulse must be nonnegative")
    if lam > FIRST_ORDER_LAMBDA_LIMIT:
        warnings.warn(
            f"first-order model out of regime: mean pairs per pulse {lam} > "
            f"{FIRST_ORDER_LAMBDA_LIMIT}",
            ModelRegimeWarning,
            stacklevel=2,
        )
    s1, s2, s12 = pair_click_probs(rho, theta1, theta2, det)
    pair1 = lam * s1
    pair2 = lam * s2
    p1 = pair1 + det.background_prob1 - pair1 * det.background_prob1
    p2 = pair2 + det.background_prob2 - pair2 * det.background_prob2
    p_true = lam * s12
    p_acc = p1 * p2
    rates = np.clip(np.broadcast_arrays(p1, p2, p_true + p_acc, p_acc), 0.0, 1.0)
    return ExpectedRates(*rates)


def subtract_accidentals(rec: CountRecord) -> float:
    """Accidental-corrected coincidence count, floored at zero."""
    return float(max(0, rec.coincidences - rec.accidentals))


# --- Monte Carlo engine ----------------------------------------------------

# The event stream is keyed per block of pulses; chunk bounds fall on block
# bounds, so a chunk never needs a block's gaps that another chunk drew.
_BLOCK_BITS = 12
_BLOCK = 1 << _BLOCK_BITS
# expected event pulses in one default chunk
_CHUNK_EVENTS = 1 << 15
# Gap draws resolve U to steps of 2**-53, so they cannot place events rarer
# than that; a pulse's event chance below it counts as none.
_GAP_RESOLUTION = 2.0**-53
# Words in the first-pass gap grid (blocks x gap words) of the largest default
# chunk: 2**15 blocks of at most 7 words, at about one event per block.  The
# workspace keeps no buffer of more 8-byte items than this.
_CACHE_WORDS = 7 * _CHUNK_EVENTS
# positions per batch of the event compaction: 32 KiB of float64
_COMPACT_ITEMS = 1 << 12
# The cell guide table has one entry per value of a draw's top bits.
_GUIDE_BITS = 12
_GUIDE_SHIFT = np.uint64(64 - _GUIDE_BITS)


def _event_cells(
    lam: float, b1: float, b2: float, s1: float, s2: float, s12: float
) -> np.ndarray:
    """uint64 CDF thresholds of a pulse's (pairs, D1 click, D2 click) given an event.

    Cell c holds k = c >> 2 pairs, a D1 click if c & 1 and a D2 click if
    c & 2; (s1, s2, s12) are one pair's click probabilities from
    :func:`pair_click_probs` and b1, b2 the background probabilities.  Row k
    holds the four click patterns given k independent pairs, weighted by
    Poisson(k).  The empty cell 0 (no pair, no click) is left out, so
    threshold i closes cell i + 1.  The Poisson table ends ten standard
    deviations plus 30 above lam, where its tail mass is below 1e-20; the
    table stops at the first cell where the float64 CDF reaches 1, since
    later cells carry less mass than the thresholds resolve.
    """
    if lam > 0.0:
        k = np.arange(int(lam + 10.0 * np.sqrt(lam) + 30.0) + 1)
        log_factorial = np.concatenate(([0.0], np.cumsum(np.log(k[1:]))))
        # in log space: exp(-lam) alone underflows for large lam
        pmf = np.exp(k * np.log(lam) - lam - log_factorial)
    else:
        k, pmf = np.zeros(1), np.ones(1)
    # P(no D1), P(no D2) and P(neither) given k pairs
    none1 = (1 - b1) * (1 - s1) ** k
    none2 = (1 - b2) * (1 - s2) ** k
    neither = (1 - b1) * (1 - b2) * (1 - s1 - s2 + s12) ** k
    pattern = np.stack([neither, none2 - neither, none1 - neither, 1 - none1 - none2 + neither], 1)
    # the differences may round to tiny negatives
    np.maximum(pattern, 0.0, out=pattern)
    cdf = np.cumsum((pmf[:, None] * pattern).ravel()[1:])
    cdf = cdf[: int(np.argmax(cdf >= cdf[-1])) + 1] / cdf[-1]
    # cap strictly below 2**64 so the uint64 cast cannot wrap
    cap = np.nextafter(2.0**64, 0.0)
    out = np.minimum(cdf * 2.0**64, cap).astype(np.uint64)
    out[-1] = np.uint64(rng.MASK64)
    return out


def _gap_words(p_event: float) -> int:
    """Gap words drawn per block and pass: one more than the block's expected
    events plus four standard deviations, so few blocks need a second pass."""
    mean = _BLOCK * p_event
    return min(int(mean + 4.0 * np.sqrt(mean * (1.0 - p_event))) + 2, _BLOCK + 1)


@dataclass(frozen=True)
class _PulseTables:
    """Precomputed sampling tables shared by all chunks of one run."""

    key: int  # pulse stream: per-event draws
    block_key: int  # block stream: event positions
    log_q: float  # ln P(no pair and no background click) for one pulse
    gap_words: int
    cell_cdf: np.ndarray  # uint64 thresholds of the joint (k, d1, d2) cells
    guide: np.ndarray  # per top-bits bucket: thresholds <= its lowest word, or -1


def _guide_table(cell_cdf: np.ndarray) -> np.ndarray:
    """Guide entries for the cell thresholds.

    Bucket j holds the draws whose top ``_GUIDE_BITS`` bits are j.  Its guide
    entry counts the thresholds in lower buckets, all below any draw in it:
    the first candidate for the search count of such a draw.  A bucket with
    at most one threshold settles every draw in one step; the others are
    crowded, and their entry is -1.  Entries are int32: the lookup is random
    reads of this table, and at half the cache footprint of int64 entries a
    run at lambda = 2 took 8-18 % less time on a 2-vCPU Xeon.
    """
    # buckets are below 2**12: their int64 view counts without conversion
    per = np.bincount((cell_cdf >> _GUIDE_SHIFT).view(np.intp), minlength=1 << _GUIDE_BITS)
    # the exclusive sum in place on intp: a mixed-dtype one takes a cast buffer
    guide = np.cumsum(per)
    guide -= per
    guide[per >= 2] = -1
    return guide.astype(np.int32)


def _cell_search(tables: _PulseTables, u: np.ndarray, ws: _Workspace) -> np.ndarray:
    """``np.searchsorted(tables.cell_cdf, u, side="right")`` via the guide table.

    The last threshold is ``MASK64``, above every bucket's lowest word, so a
    guide entry of a bucket that is not crowded indexes a threshold, and the
    one step stays in bounds; draws in crowded buckets take a binary search.
    ``mode="wrap"`` changes no index in bounds and sends the -1 entries to a
    threshold whose step the search then replaces; unlike the default mode,
    it lets ``take`` write straight to its ``out``.  The result is an int32
    view into ``ws``.
    """
    n = u.size
    # buckets are below 2**12: their int64 view indexes without conversion
    bucket = np.right_shift(u, _GUIDE_SHIFT, out=ws.take("scratch", n, np.uint64)).view(np.intp)
    found = tables.guide.take(bucket, mode="wrap", out=ws.take("cell", n, np.int32))
    crowded = np.less(found, 0, out=ws.take("crowded", n, np.bool_))
    # take would convert the int32 indices to a new intp array; the buckets
    # in "scratch" are dead, and "pos" is not needed until after the search
    index = ws.take("pos", n, np.float64).view(np.intp)
    np.copyto(index, found)
    threshold = tables.cell_cdf.take(index, mode="wrap", out=ws.take("scratch", n, np.uint64))
    found += np.less_equal(threshold, u, out=ws.take("mask", n, np.bool_))
    if crowded.any():
        found[crowded] = np.searchsorted(tables.cell_cdf, u[crowded], side="right")
    return found


def _build_tables(probs, det: DetectorConfig, seed: int, lam: float) -> _PulseTables:
    """Tables of one run with seed ``seed``, from one pair's click
    probabilities ``probs`` = (s1, s2, s12) of :func:`pair_click_probs`."""
    b1, b2 = det.background_prob1, det.background_prob2
    log_q = float(np.log1p(-b1) + np.log1p(-b2) - lam)
    if log_q > -_GAP_RESOLUTION:
        log_q, cell_cdf = 0.0, np.empty(0, np.uint64)  # no event pulses
    else:
        cell_cdf = _event_cells(lam, b1, b2, *probs)
    return _PulseTables(
        key=rng.stream_key(seed),
        block_key=rng.block_stream_key(seed),
        log_q=log_q,
        gap_words=_gap_words(-np.expm1(log_q)),
        cell_cdf=cell_cdf,
        guide=_guide_table(cell_cdf),
    )


class _Workspace:
    """Named flat buffers of the chunk kernel, reused by every chunk that gets it.

    ``take(name, n, dtype)`` returns the first ``n`` items of buffer
    ``name``, replacing the buffer by a larger one when it is too short; a
    name always comes with the same dtype.  A request over ``_CACHE_WORDS``
    8-byte items gets a new array that the workspace does not keep, so a
    huge ``chunk_size`` cannot pin memory.
    """

    def __init__(self) -> None:
        self._bufs: dict[str, np.ndarray] = {}

    def take(self, name: str, n: int, dtype) -> np.ndarray:
        buf = self._bufs.get(name)
        if buf is None or buf.size < n:
            buf = np.empty(n, dtype)
            if buf.nbytes <= _CACHE_WORDS * 8:
                self._bufs[name] = buf
        return buf[:n]


_thread = threading.local()


def _thread_workspace() -> _Workspace:
    """This thread's workspace, kept across runs and bounded by ``_CACHE_WORDS``.

    Freed chunk-sized temporaries let the allocator hand their pages back to
    the OS, to be faulted in again by the next chunk; buffers that outlive
    the run are faulted in once per thread.
    """
    ws = getattr(_thread, "ws", None)
    if ws is None:
        ws = _thread.ws = _Workspace()
    return ws


def _gap_pass(
    tables: _PulseTables, keys: np.ndarray, last: np.ndarray, first_word: int, ws: _Workspace
) -> np.ndarray:
    """Event positions from gap words ``first_word`` on, one row per block, as a grid in ``ws``.

    The positions overwrite the words they come from, as a float64 view of
    the "words" buffer.

    Row r continues from ``last[r]`` by ``gap_words`` geometric gaps
    floor(ln U / ln q) + 1, each from one word w of block key ``keys[r]``,
    with U = 1 - (w >> 11) 2**-53 in (0, 1].  w >> 11 is below 2**53, so its
    int64 view converts to float64 exactly, and the scaled value is exactly
    -(w >> 11) 2**-53.  Steps are whole numbers of at least 1 and ``last``
    is one too, so every partial sum below 2**53 is exact in any order, and
    one at or above it rounds to at least 2**53, past every block end:
    adding ``last`` to the first step gives the positions that adding it to
    each sum gives, wherever they can count.
    """
    shape = (keys.size, tables.gap_words)
    size = shape[0] * shape[1]
    words = ws.take("words", size, np.uint64).reshape(shape)
    scratch = ws.take("scratch", size, np.uint64).reshape(shape)
    index = np.arange(first_word, first_word + tables.gap_words, dtype=np.uint64)
    np.copyto(words, keys[:, None])
    rng.draw_at(words, index, out=words, scratch=scratch)
    np.right_shift(words, np.uint64(11), out=scratch)
    pos = words.view(np.float64)
    np.copyto(pos, scratch.view(np.int64))
    pos *= -(2.0**-53)
    # U lies in (0, 1], so each step is finite or +inf, never NaN
    np.log1p(pos, out=pos)
    pos /= tables.log_q
    np.floor(pos, out=pos)
    pos += 1.0
    pos[:, 0] += last
    return pos.cumsum(axis=1, out=pos)


def _compact(pos: np.ndarray, ends: np.ndarray, out: np.ndarray, ws: _Workspace) -> int:
    """Copy each row's positions below its block end, in order, to the front
    of ``out``; returns how many.

    Rows rise, so a row's kept positions are a prefix.  Rows longer than
    half of ``_COMPACT_ITEMS`` (event chances above about one half) are few,
    and each finds its prefix by a binary search, which reads no other
    position; at λ = 2 that is about 5 % of a run faster than the mask.
    Shorter rows go through a mask, in batches of whole rows of at most
    ``_COMPACT_ITEMS`` positions: boolean indexing has no ``out``, so only
    a batch's selection is a new array.  The block ends are first copied
    out to ``pos``'s shape, since comparing against their broadcast column
    would take an iterator buffer of up to 64 KiB.
    """
    rows = _COMPACT_ITEMS // pos.shape[1]
    found = 0
    if rows < 2:
        for row, end in zip(pos, ends.tolist()):
            count = int(row.searchsorted(end))
            out[found : found + count] = row[:count]
            found += count
        return found
    limit = ws.take("scratch", pos.size, np.uint64).view(np.float64).reshape(pos.shape)
    np.copyto(limit, ends[:, None])
    kept = np.less(pos, limit, out=ws.take("mask", pos.size, np.bool_).reshape(pos.shape))
    for r in range(0, pos.shape[0], rows):
        batch = pos[r : r + rows][kept[r : r + rows]]
        out[found : found + batch.size] = batch
        found += batch.size
    return found


def _event_pulses(tables: _PulseTables, lo: int, hi: int, ws: _Workspace) -> np.ndarray:
    """Sorted indices of the pulses in [lo, hi) with a pair or a background click.

    ``lo`` is a block bound and ``hi`` a block bound or the end of the run.
    Word j of block b gives the geometric gap floor(ln U / ln q) between event
    pulses, U in (0, 1]; a block whose words run out before it ends draws the
    next ones by word index, so the events depend only on (seed, block, word).
    The indices are float64, exact below 2**53, in a view into ``ws``.
    """
    if tables.log_q == 0.0:
        return ws.take("events", 0, np.float64)
    first_block = lo >> _BLOCK_BITS
    n_blocks = -(-hi >> _BLOCK_BITS) - first_block
    keys = np.arange(first_block, first_block + n_blocks, dtype=np.uint64)
    last = ws.take("last", n_blocks, np.float64)  # last position drawn per block
    np.copyto(last, keys)
    last *= _BLOCK
    ends = np.add(last, _BLOCK, out=ws.take("ends", n_blocks, np.float64))
    np.minimum(ends, hi, out=ends)
    last -= 1.0
    scratch = ws.take("scratch", n_blocks, np.uint64)
    rng.pulse_keys(tables.block_key, keys, out=keys, scratch=scratch)
    events = ws.take("events", n_blocks * tables.gap_words, np.float64)
    found = 0
    first_word = 0
    while True:
        pos = _gap_pass(tables, keys, last, first_word, ws)
        if found + pos.size > events.size:  # a later pass, past the buffer
            events = np.concatenate((events[:found], np.empty(pos.size)))
        found += _compact(pos, ends, events[found:], ws)
        more = pos[:, -1] < ends
        if not more.any():
            break
        keys, last, ends = keys[more], pos[more, -1], ends[more]
        first_word += tables.gap_words
    events = events[:found]
    if first_word:
        events.sort()  # a later pass appends a block's later events behind other blocks
    return events


def _run_chunk(
    tables: _PulseTables, lo: int, hi: int, ws: _Workspace
) -> tuple[int, int, int, int, bool, bool]:
    """Tallies for pulses [lo, hi): singles, coincidences, in-chunk accidentals
    and the edge detector flags needed to stitch accidentals across chunks.
    Every chunk-sized intermediate lives in ``ws``."""
    events = _event_pulses(tables, lo, hi, ws)
    n = events.size
    if n == 0:
        return 0, 0, 0, 0, False, False
    keys = ws.take("words", n, np.uint64)
    scratch = ws.take("scratch", n, np.uint64)
    # whole numbers below 2**53: the cast to int64 is exact, and faster than to uint64
    np.copyto(keys.view(np.int64), events, casting="unsafe")
    rng.pulse_keys(tables.key, keys, out=keys, scratch=scratch)
    rng.draw_at(keys, 0, out=keys, scratch=scratch)  # the cell: an event's only draw
    cell = _cell_search(tables, keys, ws)
    np.minimum(cell, tables.cell_cdf.size - 1, out=cell)
    cell += 1
    d1 = np.bitwise_and(cell, 1, out=ws.take("d1", n, np.bool_), casting="unsafe")
    d2 = np.bitwise_and(cell, 2, out=ws.take("d2", n, np.bool_), casting="unsafe")
    singles1 = int(np.count_nonzero(d1))
    singles2 = int(np.count_nonzero(d2))
    both = np.logical_and(d1, d2, out=ws.take("mask", n, np.bool_))
    coincidences = int(np.count_nonzero(both))
    # D1 at one event pulse and D2 at the next, when that is the next pulse
    after = np.add(events[:-1], 1.0, out=ws.take("pos", n - 1, np.float64))
    delayed = np.equal(events[1:], after, out=both[:-1])
    np.logical_and(delayed, d1[:-1], out=delayed)
    np.logical_and(delayed, d2[1:], out=delayed)
    accidentals = int(np.count_nonzero(delayed))
    return (
        singles1,
        singles2,
        coincidences,
        accidentals,
        bool(d1[-1]) and int(events[-1]) == hi - 1,
        bool(d2[0]) and int(events[0]) == lo,
    )


def _chunk_blocks(p_event: float, chunk_size: int | None) -> int:
    """Whole blocks per chunk: ``chunk_size`` pulses rounded up, or by default
    about ``_CHUNK_EVENTS`` expected event pulses."""
    if chunk_size is None:
        return max(1, int(_CHUNK_EVENTS / max(_BLOCK * p_event, 1.0)))
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    return -(-chunk_size >> _BLOCK_BITS)


def _count_run(
    tables: _PulseTables, n: int, chunk_size: int | None, ws: _Workspace
) -> CountRecord:
    """Tallies of one run of ``n`` pulses, chunk by chunk."""
    step = _chunk_blocks(-np.expm1(tables.log_q), chunk_size) * _BLOCK
    results = [_run_chunk(tables, lo, min(lo + step, n), ws) for lo in range(0, n, step)]
    singles1, singles2, coincidences, accidentals, *_ = map(sum, zip(*results))
    # delayed windows spanning a chunk boundary: D1 on the last pulse of one
    # chunk against D2 on the first pulse of the next
    accidentals += sum(prev[4] and nxt[5] for prev, nxt in zip(results[:-1], results[1:]))
    return CountRecord(n, singles1, singles2, coincidences, accidentals)


def _simulate(
    cfg: SourceConfig,
    theta1s,
    theta2: float,
    det: DetectorConfig,
    run: RunConfig,
    seed_of,
    chunk_size: int | None = None,
) -> list[CountRecord]:
    """One record per analyzer-1 angle (a scalar is one angle), run i seeded
    by ``seed_of(i)``.  Every angle is checked, and the state and all click
    probabilities come from one call each, before the first run; each run's
    tables are dropped before the next run's are built."""
    for name, theta in (("theta1", theta1s), ("theta2", theta2)):
        bad = np.asarray(theta, dtype=float)[~np.isfinite(theta)]
        if bad.size:
            raise ValueError(f"analyzer angle {name} must be finite, got {bad[0]}")
    probs = np.broadcast_arrays(*pair_click_probs(emitted_state(cfg), theta1s, theta2, det))
    rows = np.stack(probs, -1).reshape(-1, 3).tolist()
    lam, ws = cfg.mean_pairs_per_pulse, _thread_workspace()
    return [
        _count_run(_build_tables(p, det, seed_of(i), lam), run.n_pulses, chunk_size, ws)
        for i, p in enumerate(rows)
    ]


def simulate_run(
    cfg: SourceConfig,
    theta1: float,
    theta2: float,
    det: DetectorConfig,
    run: RunConfig,
    chunk_size: int | None = None,
) -> CountRecord:
    """Simulate ``run.n_pulses`` windows and tally counts.

    Only pulses with a pair or a background click are visited.  Their
    positions are keyed by (seed, block of 4096 pulses, word); each such
    pulse draws its (pair number, D1 click, D2 click) in one draw keyed by
    (seed, pulse, draw), from a table built on :func:`pair_click_probs`, so
    no photon is routed one by one.  The draw's cell comes from a guide-table
    lookup that returns exactly the cell of a binary search over the
    thresholds, so counts equal those of the binary-search kernel.  The result
    depends only on (seed, configs): chunk size only sets the memory of one
    chunk, and ``run.workers`` has no effect, because the chunks run one after
    another in this thread, in this thread's workspace.  The counts for a
    given seed differ from those of earlier samplers, which routed every pair
    photon by photon; their statistics do not.  Chunks are whole blocks
    (``chunk_size`` is rounded up to one); by default a chunk holds about
    32 k expected event pulses.  Non-finite analyzer angles raise
    ``ValueError``.  This is the one-angle case of :func:`simulate_scan`.
    """
    return _simulate(cfg, theta1, theta2, det, run, lambda i: run.seed, chunk_size)[0]


def simulate_scan(
    cfg: SourceConfig, theta1s, theta2: float, det: DetectorConfig, run: RunConfig
) -> list[CountRecord]:
    """One :func:`simulate_run` per analyzer-1 angle in ``theta1s``, analyzer 2 at ``theta2``.

    Point i is run with seed ``derive_seed(run.seed, i)`` and equals
    ``simulate_run(cfg, theta1s[i], theta2, det, RunConfig(run.n_pulses,
    derive_seed(run.seed, i)))``.  What no angle changes, the emitted state
    and its correlation tensor, is computed once per scan, and all angles'
    click probabilities come from one array call.  A non-finite angle
    anywhere raises ``ValueError`` before any point runs.
    """
    return _simulate(cfg, theta1s, theta2, det, run, lambda i: rng.derive_seed(run.seed, i))
