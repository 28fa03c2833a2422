"""Source model: emitted state, amplitude ratio, mixtures, Bell transforms."""

import numpy as np
import pytest

from pulsepair import source
from pulsepair import (
    SourceConfig,
    amplitude_ratio,
    bell_state,
    bell_transform,
    concurrence,
    emitted_state,
    mixed_state,
    pure_to_density,
    purity,
)
from oracles import concurrence_oracle

DEG = np.pi / 180


def balanced(mu, lam=0.01):
    return SourceConfig(overlap_mu=mu, mean_pairs_per_pulse=lam)


def test_balanced_coherent_source_is_phi_plus():
    rho = emitted_state(balanced(1.0))
    np.testing.assert_allclose(
        rho.matrix, pure_to_density(bell_state("phi_plus")).matrix, atol=1e-12
    )


def test_zero_overlap_gives_even_mixture():
    rho = emitted_state(balanced(0.0))
    np.testing.assert_allclose(rho.matrix, np.diag([0.5, 0, 0, 0.5]), atol=1e-15)


def test_imbalanced_pure_state_concurrence():
    cfg = SourceConfig(gain_up=1.0, gain_down=0.5943)
    rho = emitted_state(cfg)
    expected = 2 * 0.5943 / (1 + 0.5943**2)
    assert abs(concurrence(rho) - expected) < 1e-10
    assert abs(purity(rho) - 1.0) < 1e-12


def test_source_config_validation():
    with pytest.raises(ValueError):
        SourceConfig(overlap_mu=1.5)
    with pytest.raises(ValueError):
        SourceConfig(gain_up=-0.1)
    with pytest.raises(ValueError):
        SourceConfig(mean_pairs_per_pulse=-1)
    with pytest.raises(ValueError, match="degenerate source"):
        SourceConfig(pump_angle=0.0, gain_up=0.0, gain_down=1.0)


@pytest.mark.parametrize(
    "field",
    ["pump_angle", "gain_up", "gain_down", "relative_phase", "overlap_mu", "mean_pairs_per_pulse"],
)
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_source_config_rejects_non_finite_fields(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        SourceConfig(**{field: value})


# --- emitted-state cache ---------------------------------------------------------


def _uncached(cfg):
    """The state built afresh, past the cache."""
    fields = (cfg.pump_angle, cfg.gain_up, cfg.gain_down, cfg.relative_phase, cfg.overlap_mu)
    return source._state.__wrapped__(*fields)


def _bits(rho):
    m = rho.matrix
    return m.tobytes(), np.signbit(m.real).tobytes(), np.signbit(m.imag).tobytes()


def test_equal_configs_share_one_state():
    cfg = SourceConfig(pump_angle=0.61, gain_down=0.8, relative_phase=0.3, overlap_mu=0.9)
    rho = emitted_state(cfg)
    assert emitted_state(SourceConfig(0.61, 1.0, 0.8, 0.3, 0.9, 0.01)) is rho
    # the state does not depend on the mean pair number
    assert emitted_state(SourceConfig(0.61, 1.0, 0.8, 0.3, 0.9, 2.0)) is rho
    assert _bits(rho) == _bits(_uncached(cfg))


@pytest.mark.parametrize("field", ["pump_angle", "relative_phase", "gain_down"])
@pytest.mark.parametrize("first", [0.0, -0.0])
def test_signed_zero_fields_give_the_uncached_state_in_any_order(field, first):
    """0.0 == -0.0, so configs differing in a zero's sign share an entry;
    whichever comes first, each gets the entries and sign bits that its own
    uncached construction gives."""
    bases = [{}, {"pump_angle": np.pi / 2}, {"relative_phase": np.pi}, {"overlap_mu": 0.0},
             {"pump_angle": 0.3, "gain_down": 0.7, "relative_phase": -1.2}]
    for base in bases:
        source._state.cache_clear()
        for value in (first, -first):
            cfg = SourceConfig(**{**base, field: value})
            assert _bits(emitted_state(cfg)) == _bits(_uncached(cfg)), (base, value)


def test_state_cache_is_bounded():
    size = source._state.cache_info().maxsize
    assert size is not None
    configs = [SourceConfig(pump_angle=0.01 * (i + 1)) for i in range(size + 5)]
    first = emitted_state(configs[0])
    for cfg in configs[1:]:
        emitted_state(cfg)
    assert source._state.cache_info().currsize == size
    rebuilt = emitted_state(configs[0])
    assert rebuilt is not first and _bits(rebuilt) == _bits(first)


def test_numpy_scalar_fields_do_not_share_the_float_entry():
    """np.float32(0.5) == 0.5, but its cosine is taken in float32."""
    single = emitted_state(SourceConfig(pump_angle=np.float32(0.5)))
    double = emitted_state(SourceConfig(pump_angle=0.5))
    assert _bits(single) == _bits(_uncached(SourceConfig(pump_angle=np.float32(0.5))))
    assert _bits(double) == _bits(_uncached(SourceConfig(pump_angle=0.5)))
    assert single is not double


def test_degenerate_source_raises_on_every_call():
    cfg = SourceConfig()
    # past the config's own check, so the state's check is reached
    object.__setattr__(cfg, "gain_up", 0.0)
    object.__setattr__(cfg, "gain_down", 0.0)
    for _ in range(3):
        with pytest.raises(ValueError, match="degenerate source"):
            emitted_state(cfg)


def test_amplitude_ratio():
    assert abs(amplitude_ratio(balanced(1.0)) - 1.0) < 1e-15
    cfg = SourceConfig(relative_phase=np.pi)
    assert abs(amplitude_ratio(cfg) + 1.0) < 1e-12
    cfg = SourceConfig(pump_angle=30 * DEG)
    assert abs(amplitude_ratio(cfg) - np.tan(30 * DEG)) < 1e-12
    assert abs(amplitude_ratio(cfg).real - 0.57735) < 5e-6
    with pytest.raises(ValueError, match="pure VV"):
        amplitude_ratio(SourceConfig(pump_angle=np.pi / 2))


def test_mixed_state_diagonals():
    np.testing.assert_allclose(mixed_state(0.0).matrix, np.diag([1.0, 0, 0, 0]), atol=1e-15)
    np.testing.assert_allclose(
        mixed_state(45 * DEG).matrix, np.diag([0.5, 0, 0, 0.5]), atol=1e-15
    )
    np.testing.assert_allclose(
        mixed_state(30 * DEG).matrix, np.diag([0.75, 0, 0, 0.25]), atol=1e-15
    )


def test_mixed_state_equals_zero_overlap_source_on_grid():
    for theta in np.arange(0.05, np.pi / 2, 0.1):
        cfg = SourceConfig(
            pump_angle=theta, gain_up=1.0, gain_down=1.0, overlap_mu=0.0, relative_phase=1.3
        )
        np.testing.assert_allclose(
            emitted_state(cfg).matrix, mixed_state(theta).matrix, atol=1e-12
        )


def test_emitted_state_valid_for_random_configs():
    rng = np.random.default_rng(71)
    for _ in range(500):
        cfg = SourceConfig(
            pump_angle=rng.uniform(0.05, np.pi / 2 - 0.05),
            gain_up=rng.uniform(0.1, 2.0),
            gain_down=rng.uniform(0.1, 2.0),
            relative_phase=rng.uniform(0, 2 * np.pi),
            overlap_mu=rng.uniform(0, 1),
            mean_pairs_per_pulse=rng.uniform(0, 0.1),
        )
        rho = emitted_state(cfg).matrix
        assert np.abs(rho - rho.conj().T).max() <= 1e-12
        assert abs(np.trace(rho).real - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(rho).min() >= -1e-10


def test_concurrence_equals_overlap_for_balanced_source():
    for mu in np.linspace(0, 1, 11):
        assert abs(concurrence(emitted_state(balanced(mu))) - mu) < 1e-12


def test_full_overlap_concurrence_from_amplitude_ratio():
    rng = np.random.default_rng(73)
    for _ in range(30):
        cfg = SourceConfig(
            pump_angle=rng.uniform(0.1, np.pi / 2 - 0.1),
            gain_up=rng.uniform(0.2, 2.0),
            gain_down=rng.uniform(0.2, 2.0),
            relative_phase=rng.uniform(0, 2 * np.pi),
            overlap_mu=1.0,
        )
        rho = emitted_state(cfg)
        eps = abs(amplitude_ratio(cfg))
        assert abs(purity(rho) - 1.0) < 1e-12
        assert abs(concurrence(rho) - 2 * eps / (1 + eps * eps)) < 1e-12


def test_bell_transform_reaches_other_bell_states():
    phi_plus = pure_to_density(bell_state("phi_plus"))
    # pi shifter alone: phi_minus (oracle: explicit matrix product on the ket)
    out = bell_transform(phi_plus, hwp_angle=None, shifter_phase=np.pi, arm=2)
    np.testing.assert_allclose(
        out.matrix, pure_to_density(bell_state("phi_minus")).matrix, atol=1e-12
    )
    # half waveplate at 45 deg on arm 2: psi_plus
    out = bell_transform(phi_plus, hwp_angle=np.pi / 4, shifter_phase=0.0, arm=2)
    np.testing.assert_allclose(
        out.matrix, pure_to_density(bell_state("psi_plus")).matrix, atol=1e-12
    )
    # both together: psi_minus (up to global phase, identical density matrix)
    out = bell_transform(phi_plus, hwp_angle=np.pi / 4, shifter_phase=np.pi, arm=2)
    np.testing.assert_allclose(
        out.matrix, pure_to_density(bell_state("psi_minus")).matrix, atol=1e-12
    )


def test_bell_transform_identity_configuration():
    rho = emitted_state(balanced(0.7))
    out = bell_transform(rho, hwp_angle=None, shifter_phase=0.0, arm=1)
    np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)


def test_bell_transform_preserves_purity_and_concurrence():
    rng = np.random.default_rng(79)
    for _ in range(50):
        cfg = SourceConfig(
            gain_down=rng.uniform(0.3, 1.5),
            overlap_mu=rng.uniform(0, 1),
            relative_phase=rng.uniform(0, 2 * np.pi),
        )
        rho = emitted_state(cfg)
        out = bell_transform(
            rho,
            hwp_angle=rng.uniform(0, np.pi) if rng.random() < 0.7 else None,
            shifter_phase=rng.uniform(0, 2 * np.pi),
            arm=int(rng.integers(1, 3)),
        )
        assert abs(purity(out) - purity(rho)) < 1e-12
        assert abs(concurrence(out) - concurrence(rho)) < 1e-12
        assert abs(concurrence(out) - concurrence_oracle(rho.matrix)) < 1e-10


def test_bell_transform_rejects_bad_arm():
    with pytest.raises(ValueError, match="arm"):
        bell_transform(emitted_state(balanced(1.0)), arm=3)
