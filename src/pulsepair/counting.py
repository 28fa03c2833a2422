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
P(neither) = (1 - b1)(1 - b2)(1 - s1 - s2 + s12)^k; summed over the Poisson
pair number these become P(no D1) = (1 - b1) exp(-lambda s1) and
P(neither) = (1 - b1)(1 - b2) exp(-lambda (s1 + s2 - s12)).  A pulse where
no detector clicks feeds no tally, so the Monte Carlo need only find the
click pulses, those where D1 or D2 clicks, P(click) = 1 - Q with
Q = P(neither).  It has two kernels for that, and the click chance alone
picks one per run.

Below a click chance of 0.36 (``_PER_PULSE_CLICK_CHANCE``) the gap kernel visits
only click pulses.  Draw k of the run's gap stream gives the geometric gap
from click pulse k - 1 to click pulse k, and draw k of its pattern stream
the uniform u in [0, 1) that decides which detectors click there; both
streams are numpy SFC64 generators of the run's seed (:func:`_stream`).
Two thresholds t1 <= t2 split the draws into the click patterns given a
click pulse, in the order D1 only, both, D2 only, so D1 clicks if u < t2
and D2 if u >= t1: two compares against scalars per click pulse, with no
table to search.  Every click pulse clicks one detector at least, so the
coincidences are the singles' excess over the click pulses.  A delayed
window needs click pulses one pulse apart, a gap of 1, so positions are
summed only to find which click pulses of the pass that crosses the run's
end lie inside the run.  Its cost grows with the number of click pulses,
not of pulses or pairs.

Above that click chance a gap would cost more than the pulses it skips, so
the per-pulse kernel takes draw k of the pattern stream for pulse k, and
builds no gap stream.  A third threshold t3 puts the no-click pattern last:
D1 clicks if u < t2 and D2 if t1 <= u < t3, so a pulse costs one draw and
three compares, accidentals need no gap test, and the cost grows with the
number of pulses.

Either kernel reads its streams front to back in passes of at most
``ROW_WORDS`` draws, one after another in a single thread; each pass is
one chunk, and the same tallies and the same stitching of accidentals
across chunks serve both.  A run is therefore bit-reproducible regardless
of chunk size or worker count.

A scan (:func:`simulate_scan`) is one run per analyzer-1 angle, point i
seeded by ``rng.derive_seed(seed, i)``.  The emitted state and the click
probabilities of every angle are computed once per scan, and each point
then builds its own tables and runs the same chunk loop;
:func:`simulate_run` is the one-angle case, with the run's own seed.

Every chunk-sized intermediate is written with ``out=`` into flat buffers of
one workspace per thread, which every chunk of a run and every later run on
that thread reuse, so a warm run allocates no chunk-sized array and faults in
no new pages.  A buffer that is dead by the time a later stage runs serves
that stage too: the gap draws become gaps in place, and on the pass that
crosses the run's end the positions are summed into the buffer that the
pattern draws then overwrite.  One pass draws at most ``ROW_WORDS``
numbers, so the buffers stay near that size whatever the click chance.
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from . import rng
from .polarization import NO_ANALYZER, DensityMatrix, analyzer_vector, correlation_tensor
from .polarization import pass_probability
from .source import SourceConfig, emitted_state

FIRST_ORDER_LAMBDA_LIMIT = 0.1
# Click pulse positions are float64 pulse indices, exact up to 2**53.
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


def _event_patterns(lam, b1, b2, s1, s2, s12) -> tuple:
    """ln Q, Q = P(neither detector clicks in a pulse), and the per-pulse
    probabilities of a click pulse's patterns: D1 only, both, D2 only.  The
    patterns sum to P(click) = 1 - Q.

    (s1, s2, s12) are one pair's click probabilities from
    :func:`pair_click_probs` and b1, b2 the background probabilities.  Summed
    over the Poisson pair number, A = P(no D1) = (1 - b1) exp(-lam s1),
    B = P(no D2) = (1 - b2) exp(-lam s2) and Q = P(neither) =
    (1 - b1)(1 - b2) exp(-lam (s1 + s2 - s12)).  The patterns are B - Q,
    1 - A - B + Q and A - Q; each is written as survival factors times
    -expm1 of a nonpositive argument, so no near-equal terms are subtracted
    at small lam and nothing overflows at large lam.  Arrays of (s1, s2, s12)
    pass through.
    """
    l1, l2 = np.log1p(-b1), np.log1p(-b2)
    # one pair's chance of D1 alone and of D2 alone, never below 0
    only1, only2 = np.maximum(s1 - s12, 0.0), np.maximum(s2 - s12, 0.0)
    log_q = l1 + l2 - lam * (s1 + s2 - s12)
    neither = np.exp(log_q)
    return (
        log_q,
        -np.exp(l2 - lam * s2) * np.expm1(l1 - lam * only1),
        # (1 - A)(1 - B) + Q - AB, with Q - AB = Q (1 - exp(-lam s12))
        np.expm1(l1 - lam * s1) * np.expm1(l2 - lam * s2) - neither * np.expm1(-lam * s12),
        -np.exp(l1 - lam * s1) * np.expm1(l2 - lam * only2),
    )


def exact_rates(
    rho: DensityMatrix,
    theta1: float | np.ndarray,
    theta2: float | np.ndarray,
    mean_pairs_per_pulse: float,
    det: DetectorConfig,
) -> ExpectedRates:
    """Per-pulse rates exact in lambda: any number of pairs per pulse.

    The pairs of a pulse are Poisson and independent, so the click patterns
    of :func:`_event_patterns` give P(D1) = D1 only + both, P(D2) = both +
    D2 only and P(both) as the coincidence rate; the delayed window has
    P(D1) P(D2).  Every rate is formed with ``expm1``, so it keeps full
    relative precision at lambda = 1e-6 and stays finite at lambda = 1000.
    The angles broadcast as in :func:`expected_rates`, which is this
    model's first order in lambda.
    """
    lam = mean_pairs_per_pulse
    if lam < 0:
        raise ValueError("mean_pairs_per_pulse must be nonnegative")
    probs = pair_click_probs(rho, theta1, theta2, det)
    _, only1, both, only2 = _event_patterns(lam, det.background_prob1, det.background_prob2, *probs)
    p1, p2 = only1 + both, both + only2
    return ExpectedRates(*np.clip(np.broadcast_arrays(p1, p2, both, p1 * p2), 0.0, 1.0))


def tally_pulls(rec: CountRecord, rates: ExpectedRates) -> np.ndarray:
    """(observed - mean) / sigma of the singles, coincidence and accidental
    tallies of ``rec`` against per-pulse ``rates``, each strictly inside (0, 1).

    Singles and coincidences are binomial over the n pulses.  Accidentals
    count D1 at pulse i with D2 at pulse i + 1 over n - 1 windows;
    neighbouring windows share a pulse, which adds
    2 (n - 2)(pa pc - pa^2) to their variance.
    """
    n = rec.n_pulses
    p1, p2, pc, pa = rates.p_single1, rates.p_single2, rates.p_coinc, rates.p_accidental
    var_acc = (n - 1) * pa * (1 - pa) + 2 * (n - 2) * (pa * pc - pa * pa)
    return np.array([
        (rec.singles1 - n * p1) / np.sqrt(n * p1 * (1 - p1)),
        (rec.singles2 - n * p2) / np.sqrt(n * p2 * (1 - p2)),
        (rec.coincidences - n * pc) / np.sqrt(n * pc * (1 - pc)),
        (rec.accidentals - (n - 1) * pa) / np.sqrt(var_acc),
    ])


def subtract_accidentals(rec: CountRecord) -> float:
    """Accidental-corrected coincidence count, floored at zero."""
    return float(max(0, rec.coincidences - rec.accidentals))


# --- Monte Carlo engine ----------------------------------------------------

# The most draws one pass of a run takes from each of its streams.
ROW_WORDS = (1 << 15) + (1 << 10)

# Gap draws resolve U to steps of 2**-53, so they cannot place click pulses
# rarer than that; a pulse's click chance below it counts as none.
_GAP_RESOLUTION = 2.0**-53


def _gap_words(p_click: float, pulses: float) -> int:
    """Gap draws that cover ``pulses`` pulses: their expected click pulses
    plus four standard deviations and 2, so a pass seldom falls short, and
    at most ``pulses + 1``, which always run past the last pulse."""
    mean = pulses * p_click
    return int(min(mean + 4.0 * math.sqrt(mean * (1.0 - p_click)) + 2.0, pulses + 1))


# Above this click chance 1 - Q a run draws for every pulse instead of
# placing click pulses by geometric gaps: a click pulse costs the gap kernel
# two draws, a log and a divide, a pulse costs the per-pulse kernel one
# draw and three compares.  The two break even near 0.36 (in-process sweep
# of lambda = 0.5-2 at 200 k pulses on the pull table's dense source).
_PER_PULSE_CLICK_CHANCE = 0.36


@dataclass(frozen=True)
class _PulseTables:
    """Precomputed sampling tables shared by all chunks of one run."""

    seed: int  # the run's seed mod 2**64, which keys both its streams
    log_q: float  # ln P(neither detector clicks) for one pulse
    # cumulative chances of the patterns D1 only, both, D2 only, as
    # thresholds on a draw u in [0, 1): D1 clicks if u < t2, D2 if u >= t1.
    # Two of them, t1 <= t2, split a click pulse's draw (the gap kernel);
    # three, t1 <= t2 <= t3, split any pulse's draw, and neither clicks if
    # u >= t3 (the per-pulse kernel)
    thresholds: np.ndarray

    @property
    def per_pulse(self) -> bool:
        return self.thresholds.size == 3


def _build_tables(probs, det: DetectorConfig, seed: int, lam: float) -> _PulseTables:
    """Tables of one run with seed ``seed``, from one pair's click
    probabilities ``probs`` = (s1, s2, s12) of :func:`pair_click_probs`.

    The run takes the per-pulse kernel when its click chance 1 - Q exceeds
    ``_PER_PULSE_CLICK_CHANCE``, so the kernel depends on (lam, b1, b2,
    s1, s2, s12) alone."""
    log_q, *patterns = _event_patterns(lam, det.background_prob1, det.background_prob2, *probs)
    if log_q > -_GAP_RESOLUTION:
        log_q, cdf = 0.0, (0.0, 0.0)  # no click pulses
    else:
        cdf = np.cumsum(patterns)
        p_click = -math.expm1(log_q)
        if p_click <= _PER_PULSE_CLICK_CHANCE:
            cdf = cdf[:2] / p_click  # given a click pulse
    return _PulseTables(seed & rng.MASK64, float(log_q), np.asarray(cdf, np.float64))


class _Workspace:
    """Named flat buffers of the chunk kernel, reused by every chunk that gets it.

    ``take(name, n, dtype)`` returns the first ``n`` items of buffer
    ``name``, replacing the buffer by a larger one when it is too short; a
    name always comes with the same dtype.  Every request is bounded by one
    pass, so the buffers stay near ``ROW_WORDS`` items.
    """

    def __init__(self) -> None:
        self._bufs: dict[str, np.ndarray] = {}

    def take(self, name: str, n: int, dtype) -> np.ndarray:
        buf = self._bufs.get(name)
        if buf is None or buf.size < n:
            buf = self._bufs[name] = np.empty(n, dtype)
        return buf[:n]


_thread = threading.local()


def _thread_workspace() -> _Workspace:
    """This thread's workspace, kept across runs.

    Freed chunk-sized temporaries let the allocator hand their pages back to
    the OS, to be faulted in again by the next chunk; buffers that outlive
    the run are faulted in once per thread.
    """
    ws = getattr(_thread, "ws", None)
    if ws is None:
        ws = _thread.ws = _Workspace()
    return ws


def _stream(seed: int, index: int):
    """Stream ``index`` of a run's seed ``seed`` in [0, 2**64), a numpy SFC64
    generator: 0 holds the gap draws, 1 the pattern draws.  ``numpy.random``
    is first imported here, so only the Monte Carlo pays for it."""
    return np.random.Generator(np.random.SFC64([seed, index]))


def _gap_pass(tables: _PulseTables, gaps, steps: np.ndarray) -> np.ndarray:
    """Gaps between click pulses from the next ``steps.size`` draws of the
    gap stream ``gaps``, written into ``steps``: gap k leads from the click
    pulse before to the click pulse of draw k.

    Each gap is a geometric step floor(ln(1 - U) / ln q) + 1 from one
    uniform U in [0, 1), a whole number of at least 1.
    """
    gaps.random(out=steps)
    np.negative(steps, out=steps)
    np.log1p(steps, out=steps)
    steps /= tables.log_q
    np.floor(steps, out=steps)
    steps += 1.0
    return steps


def _run_chunk(
    tables: _PulseTables, u: np.ndarray, steps: np.ndarray | None, ws: _Workspace
) -> tuple[int, int, int, int, bool, bool]:
    """Tallies of a chunk's visited pulses, given their pattern draws ``u``
    and the gaps ``steps`` before them: singles, coincidences, accidentals
    within the chunk, and whether D1 clicks at its last visited pulse and
    D2 at its first, to stitch accidentals across chunks.  ``steps`` is
    None on the per-pulse kernel, where every pulse is visited and every
    gap is 1.  Every chunk-sized intermediate lives in ``ws``."""
    n = u.size
    if n == 0:
        return 0, 0, 0, 0, False, False
    t1, t2 = tables.thresholds[:2]
    d1 = np.less(u, t2, out=ws.take("d1", n, np.bool_))
    d2 = np.greater_equal(u, t1, out=ws.take("d2", n, np.bool_))
    # delayed: D1 at one visited pulse and D2 at the next, when that is the
    # next pulse
    if steps is None:  # the third compare, neither clicking from t3 on
        clicked = np.less(u, tables.thresholds[2], out=ws.take("mask", n, np.bool_))
        np.logical_and(d2, clicked, out=d2)
        clicks = int(np.count_nonzero(clicked))
        delayed = np.logical_and(d1[:-1], d2[1:], out=clicked[:-1])
    else:  # only click pulses are visited
        clicks = n
        delayed = np.equal(steps[1:], 1.0, out=ws.take("mask", n - 1, np.bool_))
        np.logical_and(delayed, d1[:-1], out=delayed)
        np.logical_and(delayed, d2[1:], out=delayed)
    singles1 = int(np.count_nonzero(d1))
    singles2 = int(np.count_nonzero(d2))
    # t1 <= t2, so every pulse that clicks clicks D1 or D2: both count twice
    coincidences = singles1 + singles2 - clicks
    accidentals = int(np.count_nonzero(delayed))
    return singles1, singles2, coincidences, accidentals, bool(d1[-1]), bool(d2[0])


def _count_run(tables: _PulseTables, n: int, ws: _Workspace) -> CountRecord:
    """Tallies of one run of ``n`` pulses, one chunk per pass of its streams.

    On the per-pulse kernel a pass is the next ``ROW_WORDS`` pulses at
    most, pulse k taking pattern draw k.  On the gap kernel each pass turns
    the gap stream's next draws, at most ``ROW_WORDS``, into gaps in
    ``ws``; ``end``, ``last`` plus their sum, is the position of its last
    click pulse.  A pass that ends before pulse n - 1 lies wholly inside
    the run, and the next pass starts from ``end``.  The pass that ends at
    or past it, the run's last, sums its gaps from ``last`` into positions,
    and those below n are its click pulses.  Either way their pattern draws
    fill the ``draws`` buffer.  How many gaps the last pass draws depends on
    n, and the pattern draws come from a stream of their own, so runs of n
    and n + 1 pulses share the draws of their common pulses.

    Gaps are whole numbers, so a sum below 2**53 is exact in any order, and
    one at or above it rounds to at least 2**53.  Then ``end`` is at least
    2**53 - 1 >= n - 1, and the pass takes the running sums, whose positions
    at or past 2**53 round to at least n.  An ``end`` of n - 1 takes them
    too: at n = 2**53 it may hide a true end one pulse later.
    """
    if tables.log_q == 0.0:  # no click pulses
        return CountRecord(n, 0, 0, 0, 0)
    p_click = -math.expm1(tables.log_q)
    patterns = _stream(tables.seed, 1)
    gaps = None if tables.per_pulse else _stream(tables.seed, 0)
    tallies, last, d1_last = (0, 0, 0, 0), -1.0, False
    while last < n - 1:
        if gaps is None:
            m = min(n - 1 - int(last), ROW_WORDS)
            steps, end = None, last + m
        else:
            words = min(_gap_words(p_click, n - 1 - last), ROW_WORDS)
            steps = _gap_pass(tables, gaps, ws.take("words", words, np.float64))
            end, m = last + float(steps.sum()), words
            if end >= n - 1:  # the pass that crosses the run's end
                pos = ws.take("draws", words, np.float64)
                np.copyto(pos, steps)
                pos[0] += last
                m = int(np.cumsum(pos, out=pos).searchsorted(n))
                steps = steps[:m]
        u = patterns.random(out=ws.take("draws", m, np.float64))
        *counts, d1_end, d2_start = _run_chunk(tables, u, steps, ws)
        # a delayed window across the chunk bound: D1 on the previous chunk's
        # last visited pulse and D2 on the pulse after it
        counts[3] += bool(d1_last and d2_start and (steps is None or steps[0] == 1.0))
        tallies = tuple(map(sum, zip(tallies, counts)))
        last, d1_last = end, d1_end
    return CountRecord(n, *tallies)


def _simulate(
    cfg: SourceConfig,
    theta1s,
    theta2: float,
    det: DetectorConfig,
    run: RunConfig,
    seed_of,
) -> list[CountRecord]:
    """One record per analyzer-1 angle (a scalar is one angle), run i seeded
    by ``seed_of(i)``.  Every angle is checked, and the state and all click
    probabilities come from one call each, before the first run; each run's
    tables are dropped before the next run's are built."""
    for name, theta in (("theta1", theta1s), ("theta2", theta2)):
        bad = [t for t in np.asarray(theta, dtype=float).ravel().tolist() if not math.isfinite(t)]
        if bad:
            raise ValueError(f"analyzer angle {name} must be finite, got {bad[0]}")
    # one (s1, s2, s12) per angle, in C order over the broadcast shape
    rows = np.broadcast(*pair_click_probs(emitted_state(cfg), theta1s, theta2, det))
    lam, ws = cfg.mean_pairs_per_pulse, _thread_workspace()
    return [
        _count_run(_build_tables(p, det, seed_of(i), lam), run.n_pulses, ws)
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

    The run's click chance 1 - Q picks its kernel.  Below 0.36 only pulses
    where D1 or D2 clicks are visited: draw k of the run's gap stream gives
    the gap before click pulse k, and draw k of its pattern stream which
    detectors click there, compared with two thresholds; the cost grows with
    the click pulses.  Above it every pulse takes one draw: draw k of the
    pattern stream is compared with three thresholds, the third for the
    pulses where neither clicks; the cost grows with the pulses.  Both
    streams are numpy SFC64 generators seeded by (seed mod 2**64, stream),
    and the thresholds are built on :func:`pair_click_probs`, so no pair is
    counted and no photon is routed one by one.  The streams are read in
    passes of at most ``ROW_WORDS`` draws, one chunk each, that run one
    after another in this thread, in this thread's workspace.  The result
    depends only on (seed, configs), and seeds equal mod 2**64 give the same
    record: ``chunk_size``, a positive int or ``None``, is kept for
    compatibility and has no effect, as ``run.workers`` has none.
    Non-finite analyzer angles raise ``ValueError``.  This is the one-angle
    case of :func:`simulate_scan`.
    """
    if chunk_size is not None and chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    return _simulate(cfg, theta1, theta2, det, run, lambda i: run.seed)[0]


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
