"""Polarization-interference scans, fringe fitting and Bell-type correlations.

The standard experiment fixes analyzer 2 and steps analyzer 1 through a grid
of angles; the coincidence rate then traces a two-peaked fringe over a full
turn.  Fits use the linear basis {1, cos 2t, sin 2t} (equivalent to
A + B cos^2(t - t0) but a closed-form least-squares problem), and visibility
is reported both as amplitude/offset of the fit and from the extreme bins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .counting import MAX_N_PULSES, DetectorConfig, RunConfig, expected_rates, simulate_scan
from .polarization import DensityMatrix, correlation
from .source import SourceConfig, emitted_state

MODE_ANALYTIC = "analytic"
MODE_MONTE_CARLO = "monte-carlo"
_MODES = (MODE_ANALYTIC, MODE_MONTE_CARLO)


@dataclass(frozen=True)
class FringePoint:
    """One scan point: analyzer-1 angle (radians) and its tallies."""

    theta1: float
    coincidences: float
    singles1: float
    singles2: float
    accidentals: float


@dataclass(frozen=True)
class FringeScan:
    """Ordered polarization scan at fixed analyzer-2 angle ``theta2``."""

    theta2: float
    points: tuple[FringePoint, ...]
    mode: str

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if not self.points:
            raise ValueError("scan has no points")
        if not math.isfinite(self.theta2):
            raise ValueError(f"theta2 must be finite, got {self.theta2}")
        for pt in self.points:
            counts = (pt.coincidences, pt.singles1, pt.singles2, pt.accidentals)
            if not all(math.isfinite(v) for v in (pt.theta1, *counts)):
                raise ValueError("scan angles and counts must be finite")
            if min(counts) < 0:
                raise ValueError("scan counts must be nonnegative")
            # no run tallies more than its pulses
            if max(counts) > MAX_N_PULSES:
                raise ValueError(
                    f"scan counts must be finite and at most 2**53, got {max(counts):g}"
                )

    @property
    def theta1s(self) -> np.ndarray:
        return np.array([p.theta1 for p in self.points])

    @property
    def coincidences(self) -> np.ndarray:
        return np.array([p.coincidences for p in self.points])

    @property
    def accidentals(self) -> np.ndarray:
        return np.array([p.accidentals for p in self.points])


@dataclass(frozen=True)
class FringeFit:
    """Result of a fringe fit.

    ``phase`` is the analyzer-1 angle of the fringe maximum in [0, pi);
    ``visibility`` is amplitude/offset clamped into [0, 1], with a one-sigma
    Poisson propagation estimate in ``visibility_sigma``; the extreme-bin
    estimator (max-min)/(max+min) is kept alongside the fit-based one.
    """

    offset: float
    amplitude: float
    phase: float
    visibility: float
    rms_residual: float
    visibility_extremes: float = 0.0
    offset_sigma: float = 0.0
    amplitude_sigma: float = 0.0
    visibility_sigma: float = 0.0
    n_points: int = field(default=0)


def polarization_scan(
    cfg: SourceConfig,
    det: DetectorConfig,
    run: RunConfig,
    theta2: float,
    theta1_list,
    mode: str = MODE_ANALYTIC,
    theta1_sign: int = 1,
) -> FringeScan:
    """Scan analyzer 1 over ``theta1_list`` with analyzer 2 fixed at ``theta2``.

    Analytic mode fills expected counts (per-pulse rates times the pulse
    count) from one :func:`expected_rates` call over all angles; monte-carlo
    mode takes one seeded run per angle from one :func:`simulate_scan` call,
    which derives each angle's child seed from ``run.seed``.
    ``theta1_sign=-1`` evaluates physics at the negated analyzer-1 angle
    while recording the dial reading, which reproduces the cos^2(t1+t2) form
    of the fringe law for a (HH+VV) source.
    """
    theta1_list = list(theta1_list)
    if not theta1_list:
        raise ValueError("theta1_list must not be empty")
    if theta1_sign not in (1, -1):
        raise ValueError("theta1_sign must be +1 or -1")
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")

    t1s = theta1_sign * np.asarray(theta1_list, dtype=float)
    # (coincidences, singles1, singles2, accidentals) per angle
    if mode == MODE_ANALYTIC:
        r = expected_rates(emitted_state(cfg), t1s, theta2, cfg.mean_pairs_per_pulse, det)
        counts = np.array([r.p_coinc, r.p_single1, r.p_single2, r.p_accidental]).T
        counts *= float(run.n_pulses)
    else:
        recs = simulate_scan(cfg, t1s, theta2, det, run)
        counts = np.array(
            [(r.coincidences, r.singles1, r.singles2, r.accidentals) for r in recs], dtype=float
        )
    points = [FringePoint(t1, *row) for t1, row in zip(theta1_list, counts.tolist())]
    return FringeScan(theta2=theta2, points=tuple(points), mode=mode)


def fit_fringe(
    scan: FringeScan,
    use_accidental_subtraction: bool = False,
    weighted: bool = False,
) -> FringeFit:
    """Least-squares fringe fit of counts against {1, cos 2t1, sin 2t1}.

    With ``use_accidental_subtraction`` each point is corrected to
    max(0, coincidences - accidentals) before fitting.  The unweighted
    default is unbiased but not minimum-variance: fringe counts are far from
    homoscedastic (they span about 40x at V = 0.95), and its spread in V is
    about 1.7x that of a Poisson maximum-likelihood fit.  ``weighted``
    switches to inverse-variance weights from the observed counts, which
    narrows the spread but biases V high, by about +0.0019 at 1 M pulses
    per point.  Both fits are one weighted solve, with weights
    1/sqrt(max(y, 1)) or 1, and the sigmas propagate the Poisson variance
    max(y, 1) of each point through that solve.
    """
    t = scan.theta1s
    y = scan.coincidences
    if use_accidental_subtraction:
        y = np.maximum(0.0, y - scan.accidentals)

    # round scales t by 1e12, which overflows to +-inf past about 1e296 rad
    with np.errstate(over="ignore"):
        distinct = len(np.unique(np.round(t, 12)))
    if distinct < 4:
        raise ValueError("underdetermined fit: need at least 4 distinct angles")
    design = np.column_stack([np.ones_like(t), np.cos(2.0 * t), np.sin(2.0 * t)])
    var = np.maximum(y, 1.0)  # Poisson variance floor
    w = 1.0 / np.sqrt(var) if weighted else np.ones_like(var)
    a = design * w[:, None]
    coeffs, _, rank, _ = np.linalg.lstsq(a, y * w, rcond=None)
    if rank < 3:
        raise ValueError("underdetermined fit: rank-deficient design matrix")

    offset, c_cos, c_sin = (float(c) for c in coeffs)
    if offset <= 0.0:
        raise ValueError("degenerate fringe: fitted offset is not positive")
    amplitude = float(np.hypot(c_cos, c_sin))
    phase = 0.5 * np.arctan2(c_sin, c_cos) % np.pi
    visibility = min(max(amplitude / offset, 0.0), 1.0)
    residuals = y - design @ coeffs
    rms = float(np.sqrt(np.mean(residuals**2)))

    # Poisson-propagated parameter covariance of the estimator actually used:
    # the sandwich (A^T A)^-1 A^T diag(w^2 var) A (A^T A)^-1, A = W X
    ata_inv = np.linalg.inv(a.T @ a)
    cov = ata_inv @ (a.T * (w * w * var)) @ a @ ata_inv
    offset_sigma = float(np.sqrt(max(cov[0, 0], 0.0)))
    # at counts near 1e-154 or less the gradient's products underflow to zero
    if amplitude * offset > 0.0 and offset * offset > 0.0:
        g_amp = np.array([0.0, c_cos / amplitude, c_sin / amplitude])
        amplitude_sigma = float(np.sqrt(max(g_amp @ cov @ g_amp, 0.0)))
        g_vis = np.array(
            [-amplitude / offset**2, c_cos / (amplitude * offset), c_sin / (amplitude * offset)]
        )
        visibility_sigma = float(np.sqrt(max(g_vis @ cov @ g_vis, 0.0)))
    else:
        amplitude_sigma = float(np.sqrt(max(cov[1, 1] + cov[2, 2], 0.0)))
        visibility_sigma = amplitude_sigma / offset

    y_max, y_min = float(y.max()), float(y.min())
    extremes = (y_max - y_min) / (y_max + y_min) if y_max > 0.0 else 0.0

    return FringeFit(
        offset=offset,
        amplitude=amplitude,
        phase=float(phase),
        visibility=visibility,
        rms_residual=rms,
        visibility_extremes=extremes,
        offset_sigma=offset_sigma,
        amplitude_sigma=amplitude_sigma,
        visibility_sigma=visibility_sigma,
        n_points=len(scan.points),
    )


def visibility(r_max: float, r_min: float) -> float:
    """Fringe contrast (r_max - r_min) / (r_max + r_min)."""
    if r_max < r_min:
        raise ValueError("r_max must not be smaller than r_min")
    if r_min < 0:
        raise ValueError("rates must be nonnegative")
    if r_max == 0:
        raise ValueError("visibility undefined for r_max = 0")
    return (r_max - r_min) / (r_max + r_min)


def chsh(
    rho: DensityMatrix, a: float, a_prime: float, b: float, b_prime: float
) -> float:
    """CHSH combination |E(a,b) - E(a,b') + E(a',b) + E(a',b')|.

    Classical bound 2; the quantum maximum 2*sqrt(2) is reached by Bell
    states at the standard angle set (0, 45, 22.5, 67.5 degrees).  The four
    correlations come from one call.
    """
    e = correlation(rho, np.array([a, a, a_prime, a_prime]), np.array([b, b_prime, b, b_prime]))
    return abs(e[0] - e[1] + e[2] + e[3])
