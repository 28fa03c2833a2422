"""Scans, fringe fits, visibility estimators and CHSH combinations."""

import numpy as np
import pytest

from pulsepair import (
    DetectorConfig,
    FringePoint,
    FringeScan,
    RunConfig,
    SourceConfig,
    bell_state,
    chsh,
    concurrence,
    correlation,
    emitted_state,
    fit_fringe,
    mixed_state,
    polarization_scan,
    pure_to_density,
    visibility,
)
from oracles import fit_fringe_oracle

DEG = np.pi / 180
GRID = np.arange(0, 360, 10) * DEG


def synthetic_scan(counts, theta1s=GRID, accidentals=None, theta2=45 * DEG):
    acc = np.zeros_like(counts) if accidentals is None else accidentals
    pts = tuple(
        FringePoint(t, c, 0.0, 0.0, a) for t, c, a in zip(theta1s, counts, acc)
    )
    return FringeScan(theta2=theta2, points=pts, mode="analytic")


# --- polarization_scan -----------------------------------------------------


def test_analytic_scan_of_ideal_source_follows_malus_law():
    cfg = SourceConfig()  # balanced, full overlap
    det = DetectorConfig()  # no background
    run = RunConfig(n_pulses=1_000_000, seed=1)
    scan = polarization_scan(cfg, det, run, theta2=45 * DEG, theta1_list=GRID)
    assert len(scan.points) == 36
    y = scan.coincidences - scan.accidentals
    shape = 0.5 * np.cos(GRID - 45 * DEG) ** 2
    # proportional: normalized profiles agree
    np.testing.assert_allclose(y / y.max(), shape / shape.max(), atol=1e-9)


def test_scan_has_two_peaks_over_a_full_turn():
    cfg = SourceConfig()
    scan = polarization_scan(
        cfg, DetectorConfig(), RunConfig(100_000, seed=1), 45 * DEG, GRID
    )
    y = scan.coincidences
    n = len(y)
    # The maxima fall midway between grid points, so each peak is a two-point
    # plateau whose values differ only by round-off; count a plateau once.
    peaks = sum(
        1 for i in range(n) if y[i] >= y[(i - 1) % n] and y[i] > y[(i + 1) % n]
    )
    assert peaks == 2


def test_scan_zero_source_zero_background_is_all_zero():
    cfg = SourceConfig(mean_pairs_per_pulse=0.0)
    scan = polarization_scan(
        cfg, DetectorConfig(), RunConfig(10_000, seed=1), 45 * DEG, GRID
    )
    assert scan.coincidences.max() == 0.0


def test_scan_requires_angles_and_known_mode():
    cfg = SourceConfig()
    with pytest.raises(ValueError):
        polarization_scan(cfg, DetectorConfig(), RunConfig(10, seed=1), 0.0, [])
    with pytest.raises(ValueError):
        polarization_scan(cfg, DetectorConfig(), RunConfig(10, seed=1), 0.0, [0.1], mode="nope")


def test_monte_carlo_scan_records_integer_counts():
    cfg = SourceConfig()
    det = DetectorConfig(background_prob1=1e-3, background_prob2=1e-3)
    scan = polarization_scan(
        cfg, det, RunConfig(20_000, seed=9), 45 * DEG, GRID[:6], mode="monte-carlo"
    )
    assert scan.mode == "monte-carlo"
    assert all(float(p.coincidences).is_integer() for p in scan.points)


def test_monte_carlo_scan_is_deterministic_per_seed():
    cfg = SourceConfig()
    det = DetectorConfig(background_prob1=1e-3, background_prob2=1e-3)
    args = (cfg, det, RunConfig(20_000, seed=9), 45 * DEG, GRID[:5])
    a = polarization_scan(*args, mode="monte-carlo")
    b = polarization_scan(*args, mode="monte-carlo")
    assert a == b


def test_paper_convention_flips_fringe_position():
    cfg = SourceConfig()
    det = DetectorConfig()
    run = RunConfig(1_000_000, seed=1)
    standard = fit_fringe(
        polarization_scan(cfg, det, run, 45 * DEG, GRID, theta1_sign=1)
    )
    flipped = fit_fringe(
        polarization_scan(cfg, det, run, 45 * DEG, GRID, theta1_sign=-1)
    )
    # cos^2(t1 - t2) peaks at 45 deg; cos^2(t1 + t2) peaks at 135 deg
    assert abs(np.degrees(standard.phase) - 45.0) < 1e-9
    assert abs(np.degrees(flipped.phase) - 135.0) < 1e-9


# --- fit_fringe --------------------------------------------------------------


def test_fit_recovers_noiseless_synthetic_fringe():
    counts = 100 + 800 * np.cos(GRID - 45 * DEG) ** 2
    fit = fit_fringe(synthetic_scan(counts))
    assert abs(fit.offset - 500.0) < 1e-9
    assert abs(fit.amplitude - 400.0) < 1e-9
    assert abs(fit.visibility - 0.8) < 1e-12
    assert abs(np.degrees(fit.phase) - 45.0) < 1e-9
    assert fit.rms_residual / fit.offset < 1e-9
    # independent normal-equations oracle agrees
    off, amp, phase = fit_fringe_oracle(GRID, counts)
    assert abs(off - fit.offset) < 1e-9 and abs(amp - fit.amplitude) < 1e-9
    assert abs(phase - fit.phase) < 1e-12


def test_fit_constant_counts_has_zero_visibility():
    fit = fit_fringe(synthetic_scan(np.full(36, 42.0)))
    assert fit.amplitude < 1e-9
    assert fit.visibility < 1e-12


def test_fit_rejects_degenerate_and_underdetermined():
    with pytest.raises(ValueError, match="degenerate fringe"):
        fit_fringe(synthetic_scan(np.zeros(36)))
    few = synthetic_scan(np.array([1.0, 2.0, 3.0]), theta1s=GRID[:3])
    with pytest.raises(ValueError, match="underdetermined"):
        fit_fringe(few)
    # many points but only two distinct angles
    dup = synthetic_scan(
        np.array([1.0, 2.0, 1.0, 2.0]), theta1s=np.array([0.0, 1.0, 0.0, 1.0])
    )
    with pytest.raises(ValueError, match="underdetermined"):
        fit_fringe(dup)


def test_fit_weighted_equals_unweighted_on_noiseless_data():
    counts = 50 + 30 * np.cos(2 * GRID + 0.4)
    a = fit_fringe(synthetic_scan(counts))
    b = fit_fringe(synthetic_scan(counts), weighted=True)
    assert abs(a.offset - b.offset) < 1e-9
    assert abs(a.amplitude - b.amplitude) < 1e-9


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("subtract", [False, True])
@pytest.mark.parametrize("scale", [400.0, 3.0])
def test_fit_sigmas_match_closed_forms(scale, subtract, weighted):
    """The three sigmas equal their closed forms with V = diag(max(y, 1)):
    the parameter covariance is the sandwich (X^T X)^-1 X^T V X (X^T X)^-1
    unweighted and (X^T V^-1 X)^-1 weighted, carried to amplitude and
    visibility by delta-method gradients.  At scale 3 some corrected counts
    are zero, so the variance floor is read."""
    draw = np.random.default_rng(31)
    acc = draw.poisson(0.1 * scale, GRID.size).astype(float)
    counts = draw.poisson(scale * (1.1 + 0.9 * np.cos(2 * GRID - 0.7))).astype(float)
    fit = fit_fringe(synthetic_scan(counts, accidentals=acc),
                     use_accidental_subtraction=subtract, weighted=weighted)
    y = np.maximum(counts - acc, 0.0) if subtract else counts
    if subtract and scale == 3.0:
        assert y.min() == 0.0
    got = (fit.offset_sigma, fit.amplitude_sigma, fit.visibility_sigma)
    assert got == pytest.approx(_closed_form_sigmas(y, weighted), rel=1e-12, abs=0.0)


def _closed_form_sigmas(y, weighted):
    """Sigmas of offset, amplitude and the unclamped ratio amplitude/offset
    of a fit of ``y`` over GRID, with V = diag(max(y, 1)): the sandwich
    (X^T X)^-1 X^T V X (X^T X)^-1 unweighted and (X^T V^-1 X)^-1 weighted,
    carried by delta-method gradients."""
    x = np.column_stack([np.ones_like(GRID), np.cos(2 * GRID), np.sin(2 * GRID)])
    v = np.maximum(y, 1.0)
    if weighted:
        cov = np.linalg.inv(x.T @ np.diag(1.0 / v) @ x)
        c = cov @ x.T @ (y / v)
    else:
        xtx_inv = np.linalg.inv(x.T @ x)
        cov = xtx_inv @ x.T @ np.diag(v) @ x @ xtx_inv
        c = xtx_inv @ x.T @ y
    offset, amp = c[0], np.hypot(c[1], c[2])
    grads = (
        np.array([1.0, 0.0, 0.0]),
        np.array([0.0, c[1], c[2]]) / amp,
        np.array([-amp / offset, c[1] / amp, c[2] / amp]) / offset,
    )
    return [np.sqrt(g @ cov @ g) for g in grads]


@pytest.mark.parametrize("weighted", [False, True])
def test_clamped_fit_reports_the_sigma_of_the_unclamped_ratio(weighted):
    """A fringe whose fitted amplitude exceeds its offset, as when accidental
    subtraction floors the minima at zero, reads V = 1 with the propagated
    sigma of the ratio amplitude/offset; the clamp has no sigma of its own."""
    counts = np.maximum(0.0, 1000.0 + 1500.0 * np.cos(2 * GRID - 0.4)).round()
    fit = fit_fringe(synthetic_scan(counts), weighted=weighted)
    assert fit.amplitude / fit.offset > 1.05
    assert fit.visibility == 1.0
    assert fit.visibility_sigma == pytest.approx(
        _closed_form_sigmas(counts, weighted)[2], rel=1e-12, abs=0.0
    )
    assert fit.visibility_sigma > 0.0


def test_accidental_subtraction_never_lowers_visibility_for_flat_floor():
    base = 100 + 80 * np.cos(2 * GRID)
    floor = np.full(36, 15.0)
    scan = synthetic_scan(base + floor, accidentals=floor)
    raw = fit_fringe(scan)
    corrected = fit_fringe(scan, use_accidental_subtraction=True)
    assert corrected.visibility >= raw.visibility
    assert abs(corrected.offset - 100.0) < 1e-9


def test_fitted_visibility_equals_overlap_for_balanced_sources():
    det = DetectorConfig()
    run = RunConfig(1_000_000, seed=1)
    for mu in (0.0, 0.25, 0.5, 0.86, 1.0):
        cfg = SourceConfig(overlap_mu=mu)
        scan = polarization_scan(cfg, det, run, 45 * DEG, GRID)
        fit = fit_fringe(scan, use_accidental_subtraction=True)
        assert abs(fit.visibility - mu) < 1e-9, mu


def test_pure_imbalanced_states_keep_full_fringe_contrast():
    # a pure a|HH> + b|VV> superposition shifts the fringe but keeps V = 1;
    # only the mixed (partial-overlap) family trades contrast for imbalance
    det = DetectorConfig()
    run = RunConfig(1_000_000, seed=1)
    for ratio in (0.3, 0.5943, 0.9):
        cfg = SourceConfig(gain_down=ratio)
        fit = fit_fringe(
            polarization_scan(cfg, det, run, 45 * DEG, GRID),
            use_accidental_subtraction=True,
        )
        assert abs(fit.visibility - 1.0) < 1e-9
        # the fringe maximum moves off 45 deg by the imbalance angle
        expected_max = np.degrees(np.arctan(ratio))
        assert abs(np.degrees(fit.phase) - expected_max) < 1e-6


def test_diagonal_correlation_equals_concurrence_for_pure_superpositions():
    for ratio in (0.2, 0.5943, 1.0):
        rho = emitted_state(SourceConfig(gain_down=ratio))
        assert abs(correlation(rho, 45 * DEG, 45 * DEG) - concurrence(rho)) < 1e-10


def test_fringe_shift_follows_analyzer_two():
    cfg = SourceConfig()
    det = DetectorConfig()
    run = RunConfig(1_000_000, seed=1)
    base = fit_fringe(polarization_scan(cfg, det, run, 45 * DEG, GRID))
    moved = fit_fringe(polarization_scan(cfg, det, run, 65 * DEG, GRID))
    delta = (np.degrees(moved.phase) - np.degrees(base.phase)) % 180.0
    assert abs(min(delta, 180.0 - delta) - 20.0) < 1e-9


# --- visibility -----------------------------------------------------------------


def test_visibility_examples_and_errors():
    assert visibility(1.0, 0.0) == 1.0
    assert visibility(3.0, 3.0) == 0.0
    mu = 0.86
    assert abs(visibility(0.25 * (1 + mu), 0.25 * (1 - mu)) - mu) < 1e-12
    assert abs(visibility(0.465, 0.035) - 0.86) < 1e-12
    with pytest.raises(ValueError):
        visibility(0.1, 0.2)
    with pytest.raises(ValueError):
        visibility(0.0, 0.0)
    with pytest.raises(ValueError):
        visibility(1.0, -0.1)


# --- chsh -----------------------------------------------------------------------


def test_chsh_values():
    angles = (0.0, 45 * DEG, 22.5 * DEG, 67.5 * DEG)
    phi_plus = pure_to_density(bell_state("phi_plus"))
    assert abs(chsh(phi_plus, *angles) - 2 * np.sqrt(2)) < 1e-9
    assert abs(chsh(mixed_state(45 * DEG), *angles) - np.sqrt(2)) < 1e-9
    rho = emitted_state(SourceConfig(overlap_mu=0.86))
    assert abs(chsh(rho, *angles) - np.sqrt(2) * 1.86) < 1e-9


def test_chsh_overlap_law():
    angles = (0.0, 45 * DEG, 22.5 * DEG, 67.5 * DEG)
    for mu in np.linspace(0, 1, 6):
        rho = emitted_state(SourceConfig(overlap_mu=mu))
        assert abs(chsh(rho, *angles) - np.sqrt(2) * (1 + mu)) < 1e-9


# --- scan container -------------------------------------------------------------


def test_fringe_scan_validation():
    with pytest.raises(ValueError, match="mode"):
        FringeScan(theta2=0.0, points=(FringePoint(0, 1, 1, 1, 0),), mode="bogus")
    with pytest.raises(ValueError, match="nonnegative"):
        FringeScan(
            theta2=0.0, points=(FringePoint(0, -1.0, 1, 1, 0),), mode="analytic"
        )
    with pytest.raises(ValueError, match="no points"):
        FringeScan(theta2=0.0, points=(), mode="analytic")
    # no run has more than 2**53 pulses, so no tally can exceed that
    FringeScan(theta2=0.0, points=(FringePoint(0, 2.0**53, 2.0**53, 2.0**53, 0),), mode="analytic")
    for point in (FringePoint(0, 1e308, 1e308, 1e308, 0), FringePoint(0, 1, 1, 1, 2.0**54)):
        with pytest.raises(ValueError, match="at most 2\\*\\*53"):
            FringeScan(theta2=0.0, points=(point,), mode="analytic")


def test_monte_carlo_scan_rejects_non_finite_theta2():
    run = RunConfig(n_pulses=1000, seed=1)
    with pytest.raises(ValueError, match="theta2"):
        polarization_scan(SourceConfig(), DetectorConfig(), run, float("nan"), [0.0],
                          mode="monte-carlo")
