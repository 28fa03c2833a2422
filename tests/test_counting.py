"""Analytic rates against the enumeration oracle; Monte Carlo statistics."""

import hashlib
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from pulsepair import counting, rng
from pulsepair import (
    CountRecord,
    DensityMatrix,
    DetectorConfig,
    ModelRegimeWarning,
    RunConfig,
    SourceConfig,
    bell_state,
    emitted_state,
    exact_rates,
    expected_rates,
    pair_click_probs,
    pure_to_density,
    simulate_run,
    simulate_scan,
    subtract_accidentals,
)
from pulsepair.cli import fig3_experiment
from oracles import (
    enumerated_exact_rates,
    enumerated_expected_rates,
    enumerated_pair_rates,
    poisson_pattern_probs,
    random_density_matrix,
)

DEG = np.pi / 180


def _binomial_ok(count, n, p, nsigma=5.0):
    sigma = np.sqrt(max(n * p * (1 - p), 1.0))
    return abs(count - n * p) <= nsigma * sigma


# --- config validation -------------------------------------------------------


def test_detector_config_validation():
    with pytest.raises(ValueError):
        DetectorConfig(efficiency1=1.2)
    with pytest.raises(ValueError):
        DetectorConfig(background_prob2=1.0)


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(n_pulses=0)
    assert RunConfig(n_pulses=counting.MAX_N_PULSES).n_pulses == 2**53
    with pytest.raises(ValueError, match="n_pulses"):
        RunConfig(n_pulses=2**53 + 1)
    with pytest.raises(ValueError):
        RunConfig(workers=0)
    with pytest.raises(ValueError):
        RunConfig(seed=1 << 65)


def test_count_record_invariants_enforced():
    with pytest.raises(ValueError):
        CountRecord(n_pulses=10, singles1=1, singles2=5, coincidences=2, accidentals=0)
    with pytest.raises(ValueError):
        CountRecord(n_pulses=10, singles1=5, singles2=5, coincidences=2, accidentals=10)


# --- expected_rates ------------------------------------------------------------


def test_expected_rates_background_only():
    rho = pure_to_density(bell_state("phi_plus"))
    det = DetectorConfig(0.6, 0.6, 1e-3, 1e-3)
    r = expected_rates(rho, 0.0, 0.0, 0.0, det)
    assert abs(r.p_single1 - 1e-3) < 1e-15
    assert abs(r.p_single2 - 1e-3) < 1e-15
    assert abs(r.p_coinc - 1e-6) < 1e-15
    assert abs(r.p_accidental - 1e-6) < 1e-15


def test_expected_rates_blind_detectors():
    rho = pure_to_density(bell_state("phi_plus"))
    det = DetectorConfig(0.0, 0.0, 2e-3, 3e-3)
    r = expected_rates(rho, 0.4, 1.1, 0.05, det)
    assert abs(r.p_coinc - 2e-3 * 3e-3) < 1e-15


def test_expected_rates_match_enumeration_oracle():
    rng = np.random.default_rng(83)
    angles = []
    for _ in range(40):
        m = random_density_matrix(rng)
        dm = DensityMatrix(m)
        det = DetectorConfig(
            efficiency1=rng.uniform(0.1, 1.0),
            efficiency2=rng.uniform(0.1, 1.0),
            background_prob1=rng.uniform(0, 0.01),
            background_prob2=rng.uniform(0, 0.01),
        )
        t1, t2 = rng.uniform(0, 2 * np.pi, 2)
        angles.append((t1, t2))
        lam = rng.uniform(0, 0.05)
        r = expected_rates(dm, t1, t2, lam, det)
        o1, o2, oc, oa = enumerated_expected_rates(m, t1, t2, lam, det)
        assert abs(r.p_single1 - o1) < 1e-14
        assert abs(r.p_single2 - o2) < 1e-14
        assert abs(r.p_coinc - oc) < 1e-14
        assert abs(r.p_accidental - oa) < 1e-14
    assert all(np.isscalar(v) for v in (r.p_single1, r.p_single2, r.p_coinc, r.p_accidental))
    # every angle pair at once, on the last state and detectors
    t1s, t2s = np.array(angles).T
    r = expected_rates(dm, t1s, t2s, lam, det)
    for i, (t1, t2) in enumerate(angles):
        want = enumerated_expected_rates(m, t1, t2, lam, det)
        got = (r.p_single1[i], r.p_single2[i], r.p_coinc[i], r.p_accidental[i])
        assert max(abs(g - w) for g, w in zip(got, want)) < 1e-14, (got, want)


def test_pair_click_probs_match_enumeration_oracle():
    rng = np.random.default_rng(29)
    for _ in range(40):
        m = random_density_matrix(rng)
        eta1, eta2 = rng.uniform(0.0, 1.0, 2)
        t1, t2 = rng.uniform(0, 2 * np.pi, 2)
        det = DetectorConfig(efficiency1=eta1, efficiency2=eta2)
        got = pair_click_probs(DensityMatrix(m), t1, t2, det)
        want = enumerated_pair_rates(m, t1, t2, eta1, eta2)
        assert max(abs(g - w) for g, w in zip(got, want)) < 1e-14, (got, want)


def test_expected_rates_out_of_regime_warns_but_computes():
    rho = pure_to_density(bell_state("phi_plus"))
    with pytest.warns(ModelRegimeWarning, match="out of regime"):
        r = expected_rates(rho, 0.0, 0.0, 0.5, DetectorConfig())
    assert 0.0 <= r.p_coinc <= 1.0


# --- subtract_accidentals --------------------------------------------------------


def test_subtract_accidentals():
    rec = CountRecord(1000, 500, 500, 100, 0)
    assert subtract_accidentals(rec) == 100.0
    rec = CountRecord(1000, 500, 500, 100, 100)
    assert subtract_accidentals(rec) == 0.0
    rec = CountRecord(10000, 2000, 2000, 930, 70)
    assert subtract_accidentals(rec) == 860.0


# --- simulate_run ---------------------------------------------------------------


def test_simulate_run_all_zero_without_pairs_or_background():
    cfg = SourceConfig(mean_pairs_per_pulse=0.0)
    rec = simulate_run(cfg, 0.3, 0.9, DetectorConfig(), RunConfig(n_pulses=5000, seed=3))
    assert (rec.singles1, rec.singles2, rec.coincidences, rec.accidentals) == (0, 0, 0, 0)


def test_simulate_run_deterministic_across_workers_and_chunks():
    """On the gap kernel (lambda 0.01) and on the per-pulse kernel (lambda 2)."""
    det = DetectorConfig(0.5, 0.7, 2e-3, 1e-3)
    for lam, per_pulse in ((0.01, False), (2.0, True)):
        cfg = SourceConfig(gain_down=0.8, overlap_mu=0.9, mean_pairs_per_pulse=lam)
        assert _tables(cfg, det, theta1=0.2, theta2=0.9).per_pulse == per_pulse
        records = [
            simulate_run(cfg, 0.2, 0.9, det, RunConfig(200_000, seed=99, workers=w))
            for w in (1, 2, 4, 8)
        ]
        assert all(r == records[0] for r in records)
        odd_chunks = simulate_run(
            cfg, 0.2, 0.9, det, RunConfig(200_000, seed=99, workers=3), chunk_size=777
        )
        assert odd_chunks == records[0]


@pytest.mark.parametrize("theta1, theta2", [
    (float("nan"), 0.3), (0.3, float("inf")), (-float("inf"), 0.3), (0.3, float("nan")),
    pytest.param([0.1 * i for i in range(35)] + [float("nan")], 0.3, id="scan-last-nan"),
])
def test_simulate_run_rejects_non_finite_angles(theta1, theta2, monkeypatch):
    """A non-finite angle raises before any point runs; a list of angles is a scan."""
    name = "theta1" if not np.isfinite(theta1).all() else "theta2"
    monkeypatch.setattr(counting, "_build_tables", None)
    simulate = simulate_scan if np.ndim(theta1) else simulate_run
    with pytest.raises(ValueError, match=name):
        simulate(SourceConfig(), theta1, theta2, DetectorConfig(), RunConfig(1000))


def test_simulate_run_different_seeds_differ():
    cfg = SourceConfig()
    det = DetectorConfig(background_prob1=1e-3, background_prob2=1e-3)
    a = simulate_run(cfg, 0.0, 0.0, det, RunConfig(100_000, seed=1))
    b = simulate_run(cfg, 0.0, 0.0, det, RunConfig(100_000, seed=2))
    assert a != b


def test_seeds_equal_mod_2_64_give_the_same_record():
    """Seeds -1 and 2**64 - 1, the two ends of ``RunConfig``'s seed range,
    key the same streams, on the gap kernel (lambda 0.01) and on the
    per-pulse kernel (lambda 2); seed 0 keys other ones."""
    det = DetectorConfig(0.5, 0.7, 2e-3, 1e-3)
    for lam in (0.01, 2.0):
        cfg = SourceConfig(mean_pairs_per_pulse=lam)
        a, b, c = (simulate_run(cfg, 0.2, 0.9, det, RunConfig(100_000, seed=seed))
                   for seed in (-1, 2**64 - 1, 0))
        assert a == b != c


def test_monte_carlo_matches_analytic_rates_over_angle_grid():
    cfg = SourceConfig(mean_pairs_per_pulse=0.01)
    rho = emitted_state(cfg)
    det = DetectorConfig(0.6, 0.6, 1e-3, 1e-3)
    n = 1_000_000
    settings = [(0, 0), (0, 45), (22.5, 45), (45, 45), (45, 67.5), (90, 45), (135, 45), (30, 60)]
    for i, (d1, d2) in enumerate(settings):
        t1, t2 = d1 * DEG, d2 * DEG
        rec = simulate_run(cfg, t1, t2, det, RunConfig(n, seed=1000 + i))
        r = expected_rates(rho, t1, t2, cfg.mean_pairs_per_pulse, det)
        assert _binomial_ok(rec.singles1, n, r.p_single1), (d1, d2, "singles1")
        assert _binomial_ok(rec.singles2, n, r.p_single2), (d1, d2, "singles2")
        assert _binomial_ok(rec.coincidences, n, r.p_coinc), (d1, d2, "coinc")
        assert _binomial_ok(rec.accidentals, n - 1, r.p_accidental), (d1, d2, "acc")


def test_background_dominated_coincidences():
    # no pairs at all: coincidence rate converges on the background product
    b = 0.05
    cfg = SourceConfig(mean_pairs_per_pulse=0.0)
    det = DetectorConfig(0.6, 0.6, b, b)
    n = 1_000_000
    rec = simulate_run(cfg, 0.0, 0.0, det, RunConfig(n, seed=4242))
    assert _binomial_ok(rec.coincidences, n, b * b)
    assert _binomial_ok(rec.singles1, n, b)


def test_singles_rates_angle_independent_for_balanced_source():
    # expected singles over a full analyzer-1 scan stay flat within 7 percent
    cfg = SourceConfig(overlap_mu=1.0)
    rho = emitted_state(cfg)
    det = DetectorConfig(0.6, 0.6, 2.5e-3, 2.5e-3)
    singles = [
        expected_rates(rho, t1, np.pi / 4, cfg.mean_pairs_per_pulse, det).p_single1
        for t1 in np.arange(0, 2 * np.pi, 10 * DEG)
    ]
    spread = (max(singles) - min(singles)) / np.mean(singles)
    assert spread < 0.07
    # partially coherent balanced source stays within the bound as well
    cfg = SourceConfig(overlap_mu=0.86)
    rho = emitted_state(cfg)
    singles = [
        expected_rates(rho, t1, np.pi / 4, cfg.mean_pairs_per_pulse, det).p_single1
        for t1 in np.arange(0, 2 * np.pi, 10 * DEG)
    ]
    spread = (max(singles) - min(singles)) / np.mean(singles)
    assert spread < 0.07


def test_record_invariants_over_random_short_runs():
    rng = np.random.default_rng(97)
    for _ in range(1000):
        cfg = SourceConfig(
            pump_angle=rng.uniform(0.1, np.pi / 2 - 0.1),
            gain_down=rng.uniform(0.2, 1.5),
            overlap_mu=rng.uniform(0, 1),
            mean_pairs_per_pulse=rng.uniform(0, 0.3),
        )
        det = DetectorConfig(
            efficiency1=rng.uniform(0, 1),
            efficiency2=rng.uniform(0, 1),
            background_prob1=rng.uniform(0, 0.3),
            background_prob2=rng.uniform(0, 0.3),
        )
        n = int(rng.integers(1, 60))
        rec = simulate_run(cfg, rng.uniform(0, np.pi), rng.uniform(0, np.pi), det,
                           RunConfig(n, seed=int(rng.integers(0, 2**63))))
        # CountRecord.__post_init__ enforces the invariants; sanity-check anyway
        assert 0 <= rec.coincidences <= min(rec.singles1, rec.singles2)
        assert 0 <= rec.accidentals <= max(n - 1, 0)
        assert rec.n_pulses == n


def test_multi_pair_regime_runs_and_warns_only_in_model():
    # the Monte Carlo itself is exact in lambda; pairs > 1 per pulse are routine
    cfg = SourceConfig(mean_pairs_per_pulse=2.0)
    rec = simulate_run(cfg, 0.1, 0.8, DetectorConfig(), RunConfig(20_000, seed=5))
    assert rec.singles1 > 0 and rec.coincidences > 0


@pytest.mark.parametrize("lam", [0.01, 0.5, 2.0, 20.0])
def test_multi_pair_monte_carlo_matches_exact_rates(lam):
    cfg = SourceConfig(gain_down=0.7, overlap_mu=0.8, mean_pairs_per_pulse=lam)
    rho = emitted_state(cfg)
    det = DetectorConfig(0.5, 0.7, 2e-3, 5e-3)
    n = 200_000
    for i, (d1, d2) in enumerate([(0, 0), (0, 45), (22.5, 45), (90, 45), (135, 60)]):
        t1, t2 = d1 * DEG, d2 * DEG
        rec = simulate_run(cfg, t1, t2, det, RunConfig(n, seed=7000 + i))
        pulls = counting.tally_pulls(rec, exact_rates(rho, t1, t2, lam, det))
        assert max(abs(p) for p in pulls) <= 5.0, (lam, d1, d2, pulls)


@pytest.mark.parametrize("side", ["below", "above"])
def test_monte_carlo_matches_exact_rates_either_side_of_the_kernel_switch(side):
    """Sources whose click chance lies 5 % below the switch to the per-pulse
    kernel, so they take the gap kernel, or 5 % above it, so they take the
    per-pulse one, match the exact rates; lambda is solved per angle pair
    from 1 - p = (1 - b1)(1 - b2) exp(-lambda (s1 + s2 - s12))."""
    rho = emitted_state(SourceConfig(gain_down=0.7, overlap_mu=0.8))
    det = DetectorConfig(0.5, 0.7, 2e-3, 5e-3)
    p_click = counting._PER_PULSE_CLICK_CHANCE * (0.95 if side == "below" else 1.05)
    for i, (d1, d2) in enumerate([(0, 0), (0, 45), (22.5, 45), (90, 45), (135, 60)]):
        t1, t2 = d1 * DEG, d2 * DEG
        s1, s2, s12 = pair_click_probs(rho, t1, t2, det)
        lam = float((np.log1p(-2e-3) + np.log1p(-5e-3) - np.log1p(-p_click)) / (s1 + s2 - s12))
        cfg = SourceConfig(gain_down=0.7, overlap_mu=0.8, mean_pairs_per_pulse=lam)
        tables = counting._build_tables((s1, s2, s12), det, 0, lam)
        assert tables.per_pulse == (side == "above")
        np.testing.assert_allclose(-np.expm1(tables.log_q), p_click, rtol=1e-12)
        rec = simulate_run(cfg, t1, t2, det, RunConfig(200_000, seed=7100 + i))
        pulls = counting.tally_pulls(rec, exact_rates(rho, t1, t2, lam, det))
        assert max(abs(p) for p in pulls) <= 5.0, (side, d1, d2, pulls)


@pytest.mark.parametrize("lam, b", [(1e-6, 0.0), (0.01, 2e-3), (2.0, 2e-3), (1000.0, 2e-3)])
def test_exact_rates_match_enumeration_oracle(lam, b):
    """Every angle pair at once and one at a time, to 1e-12 relative."""
    cfg = SourceConfig(gain_down=0.7, overlap_mu=0.8, mean_pairs_per_pulse=lam)
    rho = emitted_state(cfg)
    det = DetectorConfig(0.5, 0.7, b, 2.5 * b)
    angles = [(0.0, 0.0), (0.0, 45 * DEG), (22.5 * DEG, 45 * DEG), (135 * DEG, 60 * DEG)]
    t1s, t2s = np.array(angles).T
    rates = exact_rates(rho, t1s, t2s, lam, det)
    for i, (t1, t2) in enumerate(angles):
        one = exact_rates(rho, t1, t2, lam, det)
        want = enumerated_exact_rates(rho.matrix, t1, t2, lam, det)
        got = (one.p_single1, one.p_single2, one.p_coinc, one.p_accidental)
        assert all(np.isscalar(g) for g in got)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0, err_msg=f"{t1} {t2}")
        row = (rates.p_single1[i], rates.p_single2[i], rates.p_coinc[i], rates.p_accidental[i])
        np.testing.assert_allclose(row, want, rtol=1e-12, atol=0.0, err_msg=f"{t1} {t2}")
    with pytest.raises(ValueError, match="mean_pairs_per_pulse"):
        exact_rates(rho, 0.0, 0.0, -1.0, det)


def test_tally_pulls_give_each_tally_against_its_mean():
    rates = counting.ExpectedRates(0.1, 0.2, 0.05, 0.02)
    rec = CountRecord(10_000, 1000 + 30, 2000 - 40, 500, 200 - 2)
    var_acc = 9999 * 0.02 * 0.98 + 2 * 9998 * (0.02 * 0.05 - 0.02**2)
    want = [30 / np.sqrt(900.0), -40 / np.sqrt(1600.0), 0.0, (198 - 199.98) / np.sqrt(var_acc)]
    np.testing.assert_allclose(counting.tally_pulls(rec, rates), want, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("scenario", ["fig3", "dense"])
def test_simulate_scan_equals_per_point_runs(scenario):
    """Point i of a scan is the run seeded derive_seed(seed, i): the fig3 scan
    at 1 M pulses and the lambda = 2 scan at 200 k pulses."""
    fig3 = fig3_experiment(n_pulses=1_000_000)
    src, det, run = fig3.source, fig3.detector, fig3.run
    if scenario == "dense":
        src, det = _DENSE
        run = RunConfig(200_000, seed=12345)
    theta1s = np.radians(fig3.theta1_grid_deg())
    seeds = [rng.derive_seed(run.seed, i) for i in range(theta1s.size)]
    expected = [simulate_run(src, t1, 45 * DEG, det, RunConfig(run.n_pulses, seed))
                for t1, seed in zip(theta1s, seeds)]
    assert simulate_scan(src, theta1s, 45 * DEG, det, run) == expected


# --- click-pulse sampler ----------------------------------------------------------


def _tables(cfg, det, seed=12345, theta1=0.0, theta2=0.0):
    """Sampling tables of a run, by default at analyzer angles 0, 0."""
    probs = pair_click_probs(emitted_state(cfg), theta1, theta2, det)
    return counting._build_tables(probs, det, seed, cfg.mean_pairs_per_pulse)


def _pin_kernel(monkeypatch, kernel):
    """Send every run that has click pulses to one kernel, ``"gap"`` or
    ``"per-pulse"``, whatever its click chance."""
    monkeypatch.setattr(counting, "_PER_PULSE_CLICK_CHANCE", 1.0 if kernel == "gap" else 0.0)


def _pass_pulses(cfg, det):
    """About the pulses that one full pass, ``counting.ROW_WORDS`` gap draws, covers."""
    return int(counting.ROW_WORDS / -np.expm1(_tables(cfg, det).log_q))


def _streams(tables):
    """The run's gap and pattern streams, built as the kernel builds them."""
    return tuple(np.random.Generator(np.random.SFC64([tables.seed, i])) for i in (0, 1))


def _pass_steps(tables, words, gaps=None):
    """The next ``words`` gaps of the gap stream ``gaps``, by default a new
    one, in a new workspace."""
    gaps = _streams(tables)[0] if gaps is None else gaps
    return counting._gap_pass(tables, gaps, counting._Workspace().take("words", words, np.float64))


def _first_pass_end(tables):
    """The last position of a full first pass: a run longer than it by two
    or more pulses draws a second pass."""
    pos = -1.0 + np.cumsum(_pass_steps(tables, counting.ROW_WORDS))
    return int(pos[-1])


@pytest.mark.parametrize("words_per_pass", [1, 3, 4097, counting.ROW_WORDS])
def test_event_positions_do_not_depend_on_gap_word_oversupply(monkeypatch, words_per_pass):
    """Each run spans three full passes and 123 pulses of a fourth, or about
    3000 click pulses when a pass draws a few words, on the gap kernel,
    pinned here since the dense source would take the per-pulse one."""
    _pin_kernel(monkeypatch, "gap")
    cases = [  # sparse, moderate, background only, dense
        (SourceConfig(mean_pairs_per_pulse=0.01), DetectorConfig(0.6, 0.6, 2.6e-3, 2.6e-3)),
        (SourceConfig(gain_down=0.7, mean_pairs_per_pulse=0.5), DetectorConfig(0.5, 0.7, 1e-2, 0.0)),
        (SourceConfig(mean_pairs_per_pulse=0.0), DetectorConfig(0.6, 0.6, 0.3, 0.2)),
        _DENSE,
    ]
    passes = 3 if words_per_pass > 3 else 3000 / counting.ROW_WORDS
    runs = [(cfg, det, RunConfig(int(passes * _pass_pulses(cfg, det)) + 123, seed=31 + i))
            for i, (cfg, det) in enumerate(cases)]
    expected = [simulate_run(cfg, 0.2, 0.9, det, run) for cfg, det, run in runs]
    monkeypatch.setattr(counting, "_gap_words", lambda p_click, pulses: words_per_pass)
    assert [simulate_run(cfg, 0.2, 0.9, det, run) for cfg, det, run in runs] == expected


def test_a_64_word_pass_cap_gives_the_same_counts(monkeypatch):
    """With the pass cap cut to 64 words, every pass but the last hits it,
    and the run counts what one full pass and a short second one count, on
    the gap kernel, pinned here since the dense source would take the
    per-pulse one."""
    _pin_kernel(monkeypatch, "gap")
    cfg, det = _DENSE
    run = RunConfig(_pass_pulses(cfg, det) + 123, seed=5)
    expected = simulate_run(cfg, 0.2, 0.9, det, run)
    sizes, gap_pass = [], counting._gap_pass

    def spy(tables, gaps, steps):
        sizes.append(steps.size)
        return gap_pass(tables, gaps, steps)

    monkeypatch.setattr(counting, "_gap_pass", spy)
    monkeypatch.setattr(counting, "ROW_WORDS", 64)
    assert simulate_run(cfg, 0.2, 0.9, det, run) == expected
    assert len(sizes) > 500 and max(sizes) == 64


def test_per_pulse_passes_of_64_pulses_give_the_same_counts(monkeypatch):
    """With the pass cap cut to 64 words, a per-pulse run of two full passes
    and 123 pulses takes 1058 passes of 64 pulses and counts the same:
    pulse k takes pattern draw k whatever the pass it falls in."""
    cfg, det = _DENSE
    assert _tables(cfg, det, theta1=0.2, theta2=0.9).per_pulse
    n = 2 * counting.ROW_WORDS + 123
    run = RunConfig(n, seed=5)
    expected = simulate_run(cfg, 0.2, 0.9, det, run)
    sizes, run_chunk = [], counting._run_chunk

    def spy(tables, u, steps, ws):
        sizes.append(u.size)
        return run_chunk(tables, u, steps, ws)

    monkeypatch.setattr(counting, "_run_chunk", spy)
    monkeypatch.setattr(counting, "ROW_WORDS", 64)
    assert simulate_run(cfg, 0.2, 0.9, det, run) == expected
    assert len(sizes) == 1058 and sizes.count(64) == 1057 and sizes[-1] == n % 64


@pytest.mark.parametrize("lam, b1, b2", [(0.01, 2.6e-3, 2.6e-3), (2.0, 1e-3, 1e-3), (0.0, 0.05, 0.0)])
def test_event_pulse_count_is_binomial(lam, b1, b2):
    """Walk the gap stream pass by pass, as a run of n pulses does: the
    pulses it places are Binomial(n, 1 - Q), Q the chance that neither
    detector clicks at the tables' angles, 0 and 0."""
    n = 1_000_000
    cfg, det = SourceConfig(mean_pairs_per_pulse=lam), DetectorConfig(0.6, 0.6, b1, b2)
    tables = _tables(cfg, det, 77)
    gaps = _streams(tables)[0]
    count, last = 0, -1.0
    while last < n - 1:
        steps = _pass_steps(tables, counting.ROW_WORDS, gaps)
        assert np.all(steps >= 1.0) and np.all(steps == np.floor(steps))
        pos = last + np.cumsum(steps)
        count += pos.searchsorted(n)
        last = pos[-1]
    p1, p2, pc, _ = enumerated_exact_rates(emitted_state(cfg).matrix, 0.0, 0.0, lam, det)
    p_click = p1 + p2 - pc
    assert _binomial_ok(count, n, p_click), (count, n * p_click)


_UNALIGNED = (SourceConfig(gain_down=0.8, overlap_mu=0.9, mean_pairs_per_pulse=0.3),
              DetectorConfig(0.5, 0.7, 0.2, 0.3))
_UNALIGNED_PASS = _pass_pulses(*_UNALIGNED)


@pytest.mark.parametrize(
    "n", [1, 4095, 12_411, _UNALIGNED_PASS - 1, 3 * _UNALIGNED_PASS + 123])
def test_records_match_across_block_unaligned_chunks(n):
    """Short runs inside one pass, and runs about a pulse short of a full
    pass or 123 pulses past the third: ``chunk_size`` and ``workers`` are
    accepted and change nothing."""
    cfg, det = _UNALIGNED
    expected = simulate_run(cfg, 0.2, 0.9, det, RunConfig(n, seed=4))
    rec = simulate_run(cfg, 0.2, 0.9, det, RunConfig(n, seed=4, workers=3), chunk_size=777)
    assert rec == expected


@pytest.mark.parametrize("lam", [2.0, 1000.0])
def test_one_more_pulse_adds_at_most_one_to_each_tally(lam, monkeypatch):
    """Runs of n and n + 1 pulses share the first n pulses, so their tallies
    differ only by what pulse n adds, for n at and around the end of the
    first pass, where accidentals are stitched across chunks, and for short
    runs.  At lambda = 1000 every pulse clicks both detectors, so it adds
    exactly one to every tally.  The gap kernel is pinned: these sources
    would take the per-pulse one, tested below."""
    _pin_kernel(monkeypatch, "gap")
    cfg, det = SourceConfig(mean_pairs_per_pulse=lam), DetectorConfig(0.6, 0.6, 1e-3, 1e-3)
    _check_one_more_pulse(cfg, det, _first_pass_end(_tables(cfg, det, seed=8)), lam == 1000.0)


@pytest.mark.parametrize("lam", [2.0, 1000.0])
def test_per_pulse_one_more_pulse_adds_at_most_one_to_each_tally(lam):
    """The same on the per-pulse kernel, whose first pass ends at pulse
    ``counting.ROW_WORDS`` - 1."""
    cfg, det = SourceConfig(mean_pairs_per_pulse=lam), DetectorConfig(0.6, 0.6, 1e-3, 1e-3)
    assert _tables(cfg, det, theta1=0.2, theta2=0.9).per_pulse
    _check_one_more_pulse(cfg, det, counting.ROW_WORDS - 1, lam == 1000.0)


def _check_one_more_pulse(cfg, det, end, every_pulse_clicks_both):
    ns = [1, 2, 3, 1000] + [end + d for d in range(-3, 5)] + [2 * end + 3]
    for n in ns:
        a, b = (simulate_run(cfg, 0.2, 0.9, det, RunConfig(m, seed=8)) for m in (n, n + 1))
        d1, d2, coinc, acc = (b.singles1 - a.singles1, b.singles2 - a.singles2,
                              b.coincidences - a.coincidences, b.accidentals - a.accidentals)
        assert {d1, d2, coinc, acc} <= {0, 1}, (n, a, b)
        # both clicks on pulse n make its coincidence, D2 on it an accidental
        assert coinc <= min(d1, d2) and acc <= d2, (n, a, b)
        if every_pulse_clicks_both:
            assert b == CountRecord(n + 1, n + 1, n + 1, n + 1, n), (n, b)


def _reference_record(tables, n):
    """A run's tallies the long way: two full passes of gaps drawn in one
    call and summed into positions from -1, one pattern draw per click
    pulse inside the run in one call, clicks read from the two thresholds
    and accidentals from neighbouring positions."""
    gaps, patterns = _streams(tables)
    pos = -1.0 + np.cumsum(_pass_steps(tables, 2 * counting.ROW_WORDS, gaps))
    assert pos[-1] >= n - 1
    pos = pos[pos < n]
    u = patterns.random(pos.size)
    t1, t2 = tables.thresholds
    d1, d2 = u < t2, u >= t1
    delayed = (np.diff(pos) == 1.0) & d1[:-1] & d2[1:]
    return CountRecord(n, *(int(np.count_nonzero(x)) for x in (d1, d2, d1 & d2, delayed)))


@pytest.mark.parametrize("lam, b", [(2.0, 1e-3), (1000.0, 1e-3), (1e-6, 0.0)])
def test_runs_match_a_reference_that_sums_every_pass(lam, b, monkeypatch):
    """Passes that end before the run's last pulse are tallied from their
    gaps alone, and only the pass that reaches it from positions: a run of
    n pulses, for n at and around the end of the first full pass, counts
    what a reference that sums every pass counts.  At lambda = 1e-6 with no
    background the gaps are about 2.4e6 pulses, and the end lies near 8e10;
    every visited pulse clicks a detector, so a run that counted the one
    there past n would differ.  The gap kernel is pinned: the two dense
    sources would take the per-pulse one."""
    _pin_kernel(monkeypatch, "gap")
    cfg, det = SourceConfig(mean_pairs_per_pulse=lam), DetectorConfig(0.6, 0.6, b, b)
    tables = _tables(cfg, det, seed=2)
    end = _first_pass_end(tables)
    for n in (end - 1, end, end + 1):
        got = simulate_run(cfg, 0.0, 0.0, det, RunConfig(n, seed=2))
        assert got == _reference_record(tables, n), n


def _per_pulse_reference_record(tables, n):
    """A per-pulse run's tallies the long way: the pattern draws of all n
    pulses in one call, pulse k taking draw k, clicks read from the three
    thresholds and accidentals from neighbouring pulses."""
    u = _streams(tables)[1].random(n)
    t1, t2, t3 = tables.thresholds
    d1, d2 = u < t2, (u >= t1) & (u < t3)
    delayed = d1[:-1] & d2[1:]
    return CountRecord(n, *(int(np.count_nonzero(x)) for x in (d1, d2, d1 & d2, delayed)))


@pytest.mark.parametrize("lam", [2.0, 1000.0])
def test_per_pulse_runs_match_a_reference(lam):
    """A per-pulse run of n pulses, for n at and around the end of the first
    and second passes, counts what the reference counts."""
    cfg, det = SourceConfig(mean_pairs_per_pulse=lam), DetectorConfig(0.6, 0.6, 1e-3, 1e-3)
    tables = _tables(cfg, det, seed=2)
    assert tables.per_pulse
    for n in (1, 2, counting.ROW_WORDS - 1, counting.ROW_WORDS, counting.ROW_WORDS + 1, 2 * counting.ROW_WORDS + 1):
        got = simulate_run(cfg, 0.0, 0.0, det, RunConfig(n, seed=2))
        assert got == _per_pulse_reference_record(tables, n), n


def test_a_pass_whose_gaps_round_to_the_last_pulse_counts_exactly(monkeypatch):
    """At n = 2**53 gaps of 2**52, 2**52 and 1 from pulse -1 sum to
    2**53 + 1, which rounds to 2**53, so the pass seems to end at pulse
    n - 1; its positions are exact, and its third click pulse lies past the
    run.  At lambda = 1000 every click pulse clicks both detectors; the gap
    kernel is pinned, since the source would take the per-pulse one."""
    _pin_kernel(monkeypatch, "gap")
    cfg, det = SourceConfig(mean_pairs_per_pulse=1000.0), DetectorConfig()

    def gaps(tables, gen, steps):
        steps[:] = [2.0**52, 2.0**52, 1.0]
        return steps

    monkeypatch.setattr(counting, "_gap_words", lambda p_click, pulses: 3)
    monkeypatch.setattr(counting, "_gap_pass", gaps)
    n = counting.MAX_N_PULSES
    assert simulate_run(cfg, 0.0, 0.0, det, RunConfig(n, seed=3)) == CountRecord(n, 2, 2, 2, 0)


def _below(t):
    """The chance that a draw U = k 2**-53, k uniform below 2**53, is below
    ``t``: ceil(t 2**53) 2**-53, clipped to [0, 1], in integer arithmetic."""
    return min(max(math.ceil(float(t) * 2.0**53), 0), 2**53) / 2**53


def _decoded_rates(tables):
    """Per-pulse P(D1), P(D2) and P(both) read back from the thresholds.

    D1 clicks for draws in [0, t2), D2 for draws in [t1, t3) and both for
    [t1, t2).  On the gap kernel t3 is 1 and the draw is a click pulse's,
    which has chance 1 - Q; on the per-pulse kernel it is any pulse's.
    """
    t1, t2, *t3 = tables.thresholds
    end, scale = (t3[0], 1.0) if tables.per_pulse else (1.0, -np.expm1(tables.log_q))
    return tuple(scale * width for width in
                 (_below(t2), _below(end) - _below(t1), _below(t2) - _below(t1)))


@pytest.mark.parametrize("b1, b2", [(0.0, 0.0), (2e-3, 5e-3)])
@pytest.mark.parametrize("lam", [0.0, 1e-6, 0.01, 0.5, 2.0, 20.0, 1000.0])
def test_event_cells_decode_to_exact_rates(lam, b1, b2, monkeypatch):
    """The thresholds of both kernels, each pinned in turn, decode to the
    exact rates; a source without click pulses gets two zero thresholds.
    The thresholds are the patterns' cumulative sums as float64, and a draw
    resolves them to steps of 2**-53, so each pattern's chance is off by at
    most 2**-53, the resolution of the gap draws (``_GAP_RESOLUTION``)."""
    cfg = SourceConfig(gain_down=0.7, overlap_mu=0.8, mean_pairs_per_pulse=lam)
    rho = emitted_state(cfg)
    det = DetectorConfig(0.5, 0.7, b1, b2)
    for kernel in ("gap", "per-pulse"):
        _pin_kernel(monkeypatch, kernel)
        for t1, t2 in [(0.0, 0.0), (0.0, 45 * DEG), (22.5 * DEG, 45 * DEG), (135 * DEG, 60 * DEG)]:
            tables = counting._build_tables(pair_click_probs(rho, t1, t2, det), det, 12345, lam)
            t = tables.thresholds
            size = 3 if kernel == "per-pulse" and tables.log_q < 0.0 else 2
            assert t.dtype == np.float64 and t.shape == (size,) and np.all(t[:-1] <= t[1:]), t
            p1, p2, pc, _ = enumerated_exact_rates(rho.matrix, t1, t2, lam, det)
            got = _decoded_rates(tables)
            assert max(abs(g - w) for g, w in zip(got, (p1, p2, pc))) < 1e-12, (t1, t2, got)


@pytest.mark.parametrize("b1, b2", [(0.0, 0.0), (2e-3, 5e-3)])
@pytest.mark.parametrize("lam", [1e-6, 0.01, 0.5, 2.0, 10.0, 20.0, 100.0, 1000.0])
def test_event_patterns_match_poisson_sum(lam, b1, b2):
    """The closed-form click patterns (D1 only, both, D2 only) equal the sum
    over the pair number, and add up to 1 - Q, whose ln Q comes with them.

    Up to lam = 10 they agree to 1e-12 relative.  Above it the oracle's log
    pmf, k ln lam - lam - ln k!, adds terms of size lam ln lam, about 7000 at
    lam = 1000, so its rounding alone gives the pmf a relative error that
    grows with lam: 7.7e-12 at lam = 1000 on these cases.  Larger lam is
    therefore held to 1e-12 lam / 10.
    """
    rho = emitted_state(SourceConfig(gain_down=0.7, overlap_mu=0.8))
    det = DetectorConfig(0.5, 0.7, b1, b2)
    rtol = 1e-12 * max(lam / 10.0, 1.0)
    for t1, t2 in [(0.0, 0.0), (0.0, 45 * DEG), (22.5 * DEG, 45 * DEG), (135 * DEG, 60 * DEG)]:
        probs = [float(p) for p in pair_click_probs(rho, t1, t2, det)]
        log_q, *got = counting._event_patterns(lam, b1, b2, *probs)
        assert len(got) == 3
        want = poisson_pattern_probs(lam, b1, b2, *probs)[1:]
        np.testing.assert_allclose(got, want, rtol=rtol, atol=0.0, err_msg=f"{t1} {t2}")
        s1, s2, s12 = probs
        want_log_q = np.log1p(-b1) + np.log1p(-b2) - lam * (s1 + s2 - s12)
        np.testing.assert_allclose(log_q, want_log_q, rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(sum(got), -np.expm1(log_q), rtol=1e-15, atol=0.0)


def test_exact_rate_oracle_matches_poisson_sum_at_small_lambda():
    """At lam = 1e-6, where 1 - exp(-lam s) loses nine digits, the closed-form
    oracle equals the sum over the pair number to 1e-12 relative."""
    lam = 1e-6
    cfg = SourceConfig(gain_down=0.7, overlap_mu=0.8, mean_pairs_per_pulse=lam)
    rho = emitted_state(cfg)
    det = DetectorConfig(0.5, 0.7)
    for t1, t2 in [(0.0, 0.0), (0.0, 45 * DEG), (22.5 * DEG, 45 * DEG), (135 * DEG, 60 * DEG)]:
        _, only1, both, only2 = poisson_pattern_probs(
            lam, 0.0, 0.0, *(float(p) for p in pair_click_probs(rho, t1, t2, det)))
        p1, p2, pc, _ = enumerated_exact_rates(rho.matrix, t1, t2, lam, det)
        np.testing.assert_allclose([p1, p2, pc], [only1 + both, only2 + both, both],
                                   rtol=1e-12, atol=0.0, err_msg=f"{t1} {t2}")


def test_no_events_without_pairs_or_background(monkeypatch):
    """With no click pulses the longest run draws no gap words: with no
    pairs and no background, and with pairs that blind detectors never see."""

    def no_gap_words(*args):
        raise AssertionError("a run without click pulses drew gap words")

    monkeypatch.setattr(counting, "_gap_pass", no_gap_words)
    n = counting.MAX_N_PULSES
    cases = [(SourceConfig(mean_pairs_per_pulse=0.0), DetectorConfig()),
             (SourceConfig(mean_pairs_per_pulse=2.0), DetectorConfig(0.0, 0.0, 0.0, 0.0))]
    for cfg, det in cases:
        assert _tables(cfg, det).log_q == 0.0
        run = RunConfig(n, seed=3, workers=2)
        for chunk in (None, 1, 777):
            rec = simulate_run(cfg, 0.3, 0.9, det, run, chunk_size=chunk)
            assert rec == CountRecord(n, 0, 0, 0, 0)


# CountRecords which every chunk size and worker count must repeat exactly:
# the fig3 point on the gap kernel, visiting click pulses only, click pulse
# k taking pattern draw k beside gap draw k, and the dense point on the
# per-pulse kernel, pulse k taking pattern draw k.
_FIG3_RECORD = CountRecord(1_000_000, 5664, 5176, 920, 26)
_DENSE_RECORD = CountRecord(200_000, 90592, 81306, 48240, 36920)


@pytest.mark.parametrize("workers, chunk", [(1, None), (2, None), (1, 77_777), (2, 77_777)])
def test_counts_pinned_to_pattern_threshold_kernel(workers, chunk):
    fig3 = fig3_experiment(n_pulses=1_000_000, workers=workers)
    rec = simulate_run(fig3.source, 30 * DEG, 45 * DEG, fig3.detector, fig3.run, chunk_size=chunk)
    assert rec == _FIG3_RECORD
    dense = SourceConfig(gain_down=0.7, overlap_mu=0.8, mean_pairs_per_pulse=2.0)
    det = DetectorConfig(0.6, 0.6, 1e-3, 1e-3)
    run = RunConfig(200_000, seed=12345, workers=workers)
    rec = simulate_run(dense, 30 * DEG, 45 * DEG, det, run, chunk_size=chunk)
    assert rec == _DENSE_RECORD


# --- kernel workspace -----------------------------------------------------------

_DENSE = (SourceConfig(gain_down=0.7, overlap_mu=0.8, mean_pairs_per_pulse=2.0),
          DetectorConfig(0.6, 0.6, 1e-3, 1e-3))


def _workspace_runs():
    """(source, detector, run) at lambda 0.01, 2 and 1000, the last two over
    several passes."""
    fig3 = fig3_experiment(n_pulses=1_000_000)
    huge = SourceConfig(mean_pairs_per_pulse=1000.0)
    return [(fig3.source, fig3.detector, RunConfig(1_000_000, seed=41)),
            (*_DENSE, RunConfig(300_000, seed=42)),
            (huge, DetectorConfig(), RunConfig(100_000, seed=43))]


def test_workspace_reuse_leaks_nothing_between_runs():
    cases = _workspace_runs()
    first = simulate_run(cases[0][0], 0.3, 0.9, cases[0][1], cases[0][2])
    records = [simulate_run(src, 0.3, 0.9, det, run) for src, det, run in cases]
    assert records[0] == first
    again = [simulate_run(src, 0.3, 0.9, det, run) for src, det, run in reversed(cases)]
    assert again[::-1] == records
    assert simulate_run(cases[0][0], 0.3, 0.9, cases[0][1], cases[0][2]) == first
    # no buffer outgrew one pass
    cached = counting._thread_workspace()._bufs.values()
    assert max(buf.size for buf in cached) <= counting.ROW_WORDS


def test_concurrent_runs_in_threads_match_serial_runs():
    cases = _workspace_runs()
    serial = [simulate_run(src, 0.3, 0.9, det, run) for src, det, run in cases]
    start = threading.Barrier(2, timeout=60)

    def run_all(order):
        start.wait()
        return [simulate_run(cases[i][0], 0.3, 0.9, cases[i][1], cases[i][2]) for i in order]

    forward = list(range(len(cases)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            a = pool.submit(run_all, forward)
            b = pool.submit(run_all, forward[::-1])
            assert a.result(timeout=120) == serial
            assert b.result(timeout=120)[::-1] == serial
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("setting", ["fig3", "dense", "one-event-per-4096"])
def test_default_chunk_workspace_stays_under_2_mib(setting):
    """A fresh thread's workspace after one run totals under 2 MiB: the gap
    draws become the gaps in place, and no buffer holds more than one pass
    of draws, whatever the click chance.  The dense setting takes the
    per-pulse kernel, whose pass is ``counting.ROW_WORDS`` pulses.  The last
    setting is background only, one click pulse per 4096 pulses over about
    three passes."""
    fig3 = fig3_experiment()
    src, det, run = fig3.source, fig3.detector, fig3.run
    if setting == "dense":
        src, det = _DENSE
        run = RunConfig(200_000, seed=12345)
    if setting == "one-event-per-4096":
        b = 1.0 - (1.0 - 1.0 / 4096) ** 0.5
        src, det = SourceConfig(mean_pairs_per_pulse=0.0), DetectorConfig(0.6, 0.6, b, b)
        run = RunConfig(400_000_000, seed=12345)
    sizes, items = {}, []

    def fresh_thread_run():
        simulate_run(src, 30 * DEG, 45 * DEG, det, run)
        bufs = counting._thread_workspace()._bufs
        sizes.update((name, buf.nbytes) for name, buf in bufs.items())
        items.append(max(buf.size for buf in bufs.values()))

    worker = threading.Thread(target=fresh_thread_run)
    worker.start()
    worker.join()
    assert sizes and sum(sizes.values()) < 2 << 20, sizes
    assert max(items) <= counting.ROW_WORDS, items


@pytest.mark.parametrize("setting", ["fig3", "dense", "scan"])
def test_warm_kernel_allocates_no_chunk_sized_array(setting):
    """A warm default-chunk run, and a warm 36 x 1 M-pulse fig3 scan, peak
    below 128 KiB above their baseline under tracemalloc; one float64 per
    click pulse of a default chunk alone is 256 KiB."""
    fig3 = fig3_experiment()
    src, det, run = fig3.source, fig3.detector, fig3.run
    if setting == "dense":
        src, det = _DENSE
        run = RunConfig(200_000, seed=12345)
    if setting == "scan":
        run = RunConfig(1_000_000, run.seed)
    theta1s = np.radians(fig3.theta1_grid_deg())

    def simulate():
        if setting == "scan":
            return simulate_scan(src, theta1s, 45 * DEG, det, run)
        return simulate_run(src, 30 * DEG, 45 * DEG, det, run)

    simulate()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        simulate()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 128 * 1024, peak


# --- pinned records ----------------------------------------------------------------

# Captured when both kernels came to draw from numpy SFC64 generators
# instead of splitmix64 counter streams (all 136 lines changed): the SHA-256
# over the records of the 136 runs of _digest_runs, one line each in
# _record_line's format, and the first 8 hex digits of each line's own
# SHA-256, which locate the first record that changed.  A change that alters
# counts on purpose recaptures both.
_RECORDS_SHA256 = "c605a1d77bb382b3702371196d4fa6cdee3aed6838f9f6b28efb0b66c27ad907"
_RECORD_TAGS = (
    "27688172fa29973fbcdb147461a88c76105230a8f6493762d467de4298827720"
    "4bd066e1a1e27083d8d26b0830f14dba6066d090196edeb73fa27c7bbae5da32"
    "89abc2d2665a5a4af72d992aa262f828f8f1c1f398d99742d5b613b531969765"
    "a261ae9773aca01cb4778685db57a58f1c107c3d7cc1043cd0a83adce88276b6"
    "5aa09de75174864c3d538dea58fb5314aa61c00fa92b198b6ea5a0031826048b"
    "baef86ab14cb7951c6ad2995f99128fa51d22a7a13d0c9bc6625640bdf1d7c7f"
    "e83263dad6bbb83f9700a1975b7bedb83f916a87dac375de43e5157c050066d9"
    "78b589c0fd283858b4ddbc7c9a3eea4a252126a81b0b3c48e819943a0d30b937"
    "4768b932ba55f6c8f96b614e090f0368c79d11416b24a2e4b7e21c7fddb5d901"
    "7d436c5a95f5fe4528786a8202b61ae0445ff5dc46bfa2498da013ebbe40a540"
    "7f6115c73d403f3e5fcd069f8dea6ae35b2dfea0becbf3bcdcf39173437834e7"
    "2232966c5fe24fef4e25d149811a7c91b9707e75636c0a4f9827c2450edd8db5"
    "295dc723a92aeacd407c5956a09c2c4bd27b439ca8f1cffeba6e47721cf5aec4"
    "6085ab77af25e45f63c881c0aa350ceed9981f4d3548183b0e835b3e42c27278"
    "328ac6efd0751179fe8fbe455ab36181a5b24fd8d7ae0b7723a58fcbea8bb1e3"
    "cb3a2e618ff166d20ef0c907a9eedb43f97aa00f2a921519d46a582c8a6ff252"
    "3512675a128791aff9d4ea3b09ea883ec4824adc8d16d33c9903dcb1a8f871f9"
)


def _digest_runs():
    """(label, source, theta1, theta2, detector, run) of 136 runs: the fig3
    scan at 1 M pulses, a lambda = 2 scan at 200 k pulses, and 64 random
    sources, detectors and angles at 100 k pulses."""
    fig3 = fig3_experiment(n_pulses=1_000_000)
    theta1s = np.radians(fig3.theta1_grid_deg())
    runs = [(f"fig3 {i}", fig3.source, t1, 45 * DEG, fig3.detector,
             RunConfig(1_000_000, seed=rng.derive_seed(715_517, i)))
            for i, t1 in enumerate(theta1s)]
    runs += [(f"dense {i}", _DENSE[0], t1, 45 * DEG, _DENSE[1],
              RunConfig(200_000, seed=rng.derive_seed(12345, i)))
             for i, t1 in enumerate(theta1s)]
    draw = np.random.default_rng(7)
    for i in range(64):
        src = SourceConfig(
            pump_angle=draw.uniform(0.0, np.pi / 2),
            gain_down=draw.uniform(0.2, 1.5),
            relative_phase=draw.uniform(0.0, 2 * np.pi),
            overlap_mu=draw.uniform(0.0, 1.0),
            mean_pairs_per_pulse=10.0 ** draw.uniform(-3.0, 0.5),
        )
        det = DetectorConfig(*draw.uniform(0.1, 1.0, 2), *draw.uniform(0.0, 0.01, 2))
        t1, t2 = draw.uniform(0.0, 2 * np.pi, 2)
        runs.append((f"random {i}", src, t1, t2, det,
                     RunConfig(100_000, seed=int(draw.integers(0, 2**63)))))
    return runs


def _record_line(label, rec):
    return (f"{label}: {rec.n_pulses} {rec.singles1} {rec.singles2} {rec.coincidences} "
            f"{rec.accidentals}\n")


def test_count_records_match_pinned_digest():
    """Every record of a fixed set of runs equals the one pinned here: the
    rate model and the kernel may change how they compute, not what a seed
    counts."""
    lines = [_record_line(label, simulate_run(src, t1, t2, det, run))
             for label, src, t1, t2, det, run in _digest_runs()]
    tags = [hashlib.sha256(line.encode()).hexdigest()[:8] for line in lines]
    changed = [line for i, line in enumerate(lines) if tags[i] != _RECORD_TAGS[8 * i : 8 * i + 8]]
    assert not changed, f"{len(changed)} records changed, first: {changed[0].strip()}"
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == _RECORDS_SHA256
