"""States, optical elements and trace probabilities against brute-force oracles."""

import numpy as np
import pytest

from pulsepair import (
    DensityMatrix,
    OneQubitOperator,
    PureState,
    TwoQubitOperator,
    apply_local,
    bell_state,
    coincidence_probability,
    concurrence,
    correlation,
    half_waveplate,
    identity,
    phase_shifter,
    polarizer,
    pure_to_density,
    purity,
)
from oracles import (
    concurrence_oracle,
    correlation_oracle,
    random_density_matrix,
    random_pure_density,
    trace_prob,
)

DEG = np.pi / 180


# --- states ------------------------------------------------------------------


def test_bell_state_amplitudes():
    s = 1 / np.sqrt(2)
    np.testing.assert_allclose(bell_state("phi_plus").amplitudes, [s, 0, 0, s], atol=1e-15)
    np.testing.assert_allclose(bell_state("psi_minus").amplitudes, [0, s, -s, 0], atol=1e-15)
    for kind in ("phi_plus", "phi_minus", "psi_plus", "psi_minus"):
        assert abs(np.linalg.norm(bell_state(kind).amplitudes) - 1) < 1e-12


def test_bell_state_unknown_kind():
    with pytest.raises(ValueError, match="unknown Bell state"):
        bell_state("phi")


def test_pure_state_normalizes_and_rejects_zero():
    psi = PureState([2.0, 0, 0, 0])
    np.testing.assert_allclose(psi.amplitudes, [1, 0, 0, 0])
    with pytest.raises(ValueError):
        PureState([0, 0, 0, 0])
    with pytest.raises(ValueError):
        PureState([1, 0, 0])


def test_pure_to_density_corners_and_trace():
    rho = pure_to_density(bell_state("phi_plus")).matrix
    for i, j in ((0, 0), (0, 3), (3, 0), (3, 3)):
        assert abs(rho[i, j] - 0.5) < 1e-15
    assert abs(np.trace(rho) - 1) < 1e-15
    basis_hh = pure_to_density(PureState([1, 0, 0, 0])).matrix
    np.testing.assert_allclose(basis_hh, np.diag([1.0, 0, 0, 0]), atol=1e-15)
    assert abs(purity(pure_to_density(bell_state("psi_plus"))) - 1) < 1e-12


def test_density_matrix_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(np.diag([1.0, 0, 0, 0]) + 1e-6 * np.array([[0, 1j, 0, 0]] * 4))
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.diag([0.5, 0, 0, 0]))
    neg = np.diag([1.2, 0, 0, -0.2]).astype(complex)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        DensityMatrix(neg)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_density_matrix_rejects_non_finite_entries(value):
    with pytest.raises(ValueError, match="non-finite"):
        DensityMatrix(np.full((4, 4), value))
    # one bad entry in an otherwise valid state, on and off the diagonal
    for i, j in ((0, 0), (0, 3)):
        m = pure_to_density(bell_state("phi_plus")).matrix.copy()
        m[i, j] = value
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(m)


def test_density_matrix_immutable():
    rho = pure_to_density(bell_state("phi_plus"))
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 0.0


# --- elements ----------------------------------------------------------------


def test_polarizer_matrices():
    np.testing.assert_allclose(polarizer(0.0).matrix, np.diag([1.0, 0.0]), atol=1e-15)
    np.testing.assert_allclose(polarizer(np.pi / 2).matrix, np.diag([0.0, 1.0]), atol=1e-15)
    np.testing.assert_allclose(polarizer(np.pi / 4).matrix, np.full((2, 2), 0.5), atol=1e-15)
    assert polarizer(0.3).is_projector()
    assert not polarizer(0.3).is_unitary()


def test_half_waveplate_matrices():
    np.testing.assert_allclose(half_waveplate(0.0).matrix, np.diag([1.0, -1.0]), atol=1e-15)
    np.testing.assert_allclose(
        half_waveplate(np.pi / 4).matrix, np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-15
    )
    rng = np.random.default_rng(5)
    for theta in rng.uniform(0, np.pi, 20):
        assert half_waveplate(theta).is_unitary()


def test_phase_shifter_matrices():
    np.testing.assert_allclose(phase_shifter(0.0).matrix, np.eye(2), atol=1e-15)
    np.testing.assert_allclose(phase_shifter(np.pi).matrix, np.diag([1.0, -1.0]), atol=1e-12)
    assert phase_shifter(1.234).is_unitary()


def test_phase_shifter_on_arm2_turns_phi_plus_into_phi_minus():
    # oracle: explicit 4x4 product on the ket
    k = np.kron(np.eye(2), phase_shifter(np.pi).matrix)
    expected = np.outer(
        k @ bell_state("phi_plus").amplitudes, (k @ bell_state("phi_plus").amplitudes).conj()
    )
    out, p = apply_local(pure_to_density(bell_state("phi_plus")), identity(), phase_shifter(np.pi))
    assert abs(p - 1) < 1e-12
    np.testing.assert_allclose(out.matrix, expected, atol=1e-12)
    np.testing.assert_allclose(
        out.matrix, pure_to_density(bell_state("phi_minus")).matrix, atol=1e-12
    )


def test_two_qubit_operator_is_kron_of_factors():
    a, b = half_waveplate(0.3), polarizer(1.1)
    op = TwoQubitOperator(a, b)
    assert np.abs(op.matrix - np.kron(a.matrix, b.matrix)).max() == 0.0


# --- apply_local ---------------------------------------------------------------


def test_apply_local_unitaries_pass_probability_one():
    rng = np.random.default_rng(99)
    for _ in range(20):
        rho = DensityMatrix(random_density_matrix(rng))
        out, p = apply_local(rho, half_waveplate(rng.uniform(0, np.pi)), phase_shifter(rng.uniform(0, 2 * np.pi)))
        assert abs(p - 1.0) < 1e-12
        assert abs(purity(out) - purity(rho)) < 1e-12
        assert abs(concurrence(out) - concurrence(rho)) < 1e-12


def test_apply_local_blocked_state():
    rho = pure_to_density(PureState([0, 0, 0, 1]))  # |VV>
    with pytest.raises(ValueError, match="fully blocked"):
        apply_local(rho, polarizer(0.0), polarizer(0.0))


def test_apply_local_projects_phi_plus_onto_hh():
    rho = pure_to_density(bell_state("phi_plus"))
    out, p = apply_local(rho, polarizer(0.0), polarizer(0.0))
    assert abs(p - 0.5) < 1e-12
    np.testing.assert_allclose(out.matrix, np.diag([1.0, 0, 0, 0]), atol=1e-12)


# --- probabilities -------------------------------------------------------------


def test_coincidence_probability_examples():
    phi_plus = pure_to_density(bell_state("phi_plus"))
    assert abs(coincidence_probability(phi_plus, 45 * DEG, 45 * DEG) - 0.5) < 1e-12
    assert coincidence_probability(phi_plus, 0.0, 90 * DEG) < 1e-12
    phi_minus = pure_to_density(bell_state("phi_minus"))
    expected = 0.5 * np.cos(50 * DEG) ** 2  # = 0.2065879...
    assert abs(coincidence_probability(phi_minus, 30 * DEG, 20 * DEG) - expected) < 1e-12
    assert abs(expected - 0.206588) < 5e-7


def test_coincidence_probability_balanced_partially_coherent():
    mu = 0.86
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = rho[3, 3] = 0.5
    rho[0, 3] = rho[3, 0] = mu / 2
    dm = DensityMatrix(rho)
    assert abs(coincidence_probability(dm, 45 * DEG, 45 * DEG) - 0.25 * (1 + mu)) < 1e-12


def test_coincidence_probability_closed_forms_random_angles():
    phi_plus = pure_to_density(bell_state("phi_plus"))
    phi_minus = pure_to_density(bell_state("phi_minus"))
    rng = np.random.default_rng(17)
    angles = rng.uniform(0, 2 * np.pi, size=(50, 2))
    for t1, t2 in angles:
        assert abs(
            coincidence_probability(phi_plus, t1, t2) - 0.5 * np.cos(t1 - t2) ** 2
        ) < 1e-12
        assert abs(
            coincidence_probability(phi_minus, t1, t2) - 0.5 * np.cos(t1 + t2) ** 2
        ) < 1e-12
    # all 50 pairs in one call
    t1s, t2s = angles.T
    got = coincidence_probability(phi_minus, t1s, t2s)
    assert got.shape == (50,)
    np.testing.assert_allclose(got, 0.5 * np.cos(t1s + t2s) ** 2, atol=1e-12, rtol=0)


def test_rotation_covariance_of_phi_plus():
    phi_plus = pure_to_density(bell_state("phi_plus"))
    rng = np.random.default_rng(23)
    for t1, t2, alpha in rng.uniform(0, 2 * np.pi, size=(50, 3)):
        assert abs(
            coincidence_probability(phi_plus, t1 + alpha, t2 + alpha)
            - coincidence_probability(phi_plus, t1, t2)
        ) < 1e-12


def test_four_outcome_probabilities_sum_to_one():
    rng = np.random.default_rng(31)
    h = np.pi / 2
    for _ in range(50):
        dm = DensityMatrix(random_density_matrix(rng))
        t1, t2 = rng.uniform(0, 2 * np.pi, 2)
        total = (
            coincidence_probability(dm, t1, t2)
            + coincidence_probability(dm, t1 + h, t2)
            + coincidence_probability(dm, t1, t2 + h)
            + coincidence_probability(dm, t1 + h, t2 + h)
        )
        assert abs(total - 1.0) < 1e-12


def test_correlation_examples_and_oracle():
    phi_plus = pure_to_density(bell_state("phi_plus"))
    assert abs(correlation(phi_plus, 0.0, 0.0) - 1.0) < 1e-12
    assert abs(correlation(phi_plus, 0.0, 45 * DEG)) < 1e-12
    mu = 0.86
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = rho[3, 3] = 0.5
    rho[0, 3] = rho[3, 0] = mu / 2
    dm = DensityMatrix(rho)
    expected = mu * np.sin(np.pi / 2) * np.sin(np.pi / 4)  # 0.608111...
    assert abs(correlation(dm, 45 * DEG, 22.5 * DEG) - expected) < 1e-12
    rng = np.random.default_rng(37)
    for _ in range(30):
        dm = DensityMatrix(random_density_matrix(rng))
        t1, t2 = rng.uniform(0, 2 * np.pi, 2)
        assert abs(correlation(dm, t1, t2) - correlation_oracle(dm.matrix, t1, t2)) < 1e-12
    # arrays broadcast theta1 against theta2 and agree with scalar calls
    t1s, t2s = rng.uniform(0, 2 * np.pi, (3, 1)), rng.uniform(0, 2 * np.pi, 4)
    grid = correlation(dm, t1s, t2s)
    assert grid.shape == (3, 4)
    for (i, j), e in np.ndenumerate(grid):
        assert e == correlation(dm, t1s[i, 0], t2s[j]), (i, j)


# --- entanglement measures -----------------------------------------------------


def test_concurrence_bell_and_mixture():
    assert abs(concurrence(pure_to_density(bell_state("phi_plus"))) - 1.0) < 1e-10
    diag = DensityMatrix(np.diag([0.75, 0, 0, 0.25]).astype(complex))
    assert concurrence(diag) < 1e-10


def test_concurrence_unbalanced_superposition():
    eps = 0.5943
    psi = PureState([1.0, 0, 0, eps])
    expected = 2 * eps / (1 + eps * eps)  # = 0.878367...
    assert abs(concurrence(pure_to_density(psi)) - expected) < 1e-10
    # the eigenvalue oracle only reaches ~1e-8 on rank-deficient states
    assert abs(expected - concurrence_oracle(pure_to_density(psi).matrix)) < 1e-8


def test_concurrence_matches_eigenvalue_oracle_on_mixed_states():
    rng = np.random.default_rng(41)
    for _ in range(60):
        m = random_density_matrix(rng)
        assert abs(concurrence(DensityMatrix(m)) - concurrence_oracle(m)) < 1e-10


def test_concurrence_matches_closed_form_on_pure_states():
    # exact pure-state value |psi^T (sy x sy) psi|; the eigenvalue oracle
    # loses half its precision on rank-deficient states, the closed form not
    from oracles import SY2

    rng = np.random.default_rng(43)
    for _ in range(60):
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps /= np.linalg.norm(amps)
        exact = abs(amps @ SY2 @ amps)
        assert abs(concurrence(DensityMatrix(np.outer(amps, amps.conj()))) - exact) < 1e-12


def test_rank_two_state_with_degenerate_spectrum():
    # equal mixture of two orthogonal states: eigenvalues 0.5 and 0 are each
    # doubly degenerate
    from oracles import SY2

    rng = np.random.default_rng(7)
    u = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    m = u @ np.diag([0.5, 0.5, 0.0, 0.0]) @ u.conj().T
    dm = DensityMatrix(m)
    np.testing.assert_allclose(dm.eigenvalues(), [0, 0, 0.5, 0.5], atol=1e-13, rtol=0)
    # rho rho~ has rank 2, so the oracle's square roots of its two zero
    # eigenvalues (about 1e-17 after round-off) are off by up to 1e-8; the
    # exact concurrence keeps only the top two roots of the oracle's recipe
    e = np.sort(np.linalg.eigvals(m @ SY2 @ m.conj() @ SY2).real)[::-1]
    assert abs(concurrence(dm) - (np.sqrt(e[0]) - np.sqrt(e[1]))) < 1e-10
    assert abs(concurrence(dm) - concurrence_oracle(m)) < 1e-7


def test_purity_examples():
    assert abs(purity(pure_to_density(bell_state("phi_minus"))) - 1.0) < 1e-12
    half = DensityMatrix(np.diag([0.5, 0, 0, 0.5]).astype(complex))
    assert abs(purity(half) - 0.5) < 1e-12
    mu = 0.86
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = rho[3, 3] = 0.5
    rho[0, 3] = rho[3, 0] = mu / 2
    assert abs(purity(DensityMatrix(rho)) - (1 + mu * mu) / 2) < 1e-12


# --- randomized invariants ------------------------------------------------------


def test_density_matrix_invariants_hold_over_randomized_constructions():
    rng = np.random.default_rng(53)
    for _ in range(1000):
        m = random_density_matrix(rng)
        dm = DensityMatrix(m)
        assert np.abs(dm.matrix - dm.matrix.conj().T).max() <= 1e-12
        assert abs(np.trace(dm.matrix).real - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(dm.matrix).min() >= -1e-10


def test_trace_probability_matches_kron_oracle_randomized():
    rng = np.random.default_rng(59)
    for _ in range(200):
        m = random_density_matrix(rng)
        t1, t2 = rng.uniform(0, 2 * np.pi, 2)
        assert abs(coincidence_probability(DensityMatrix(m), t1, t2) - trace_prob(m, t1, t2)) < 1e-12


def test_one_qubit_operator_shape_validation():
    with pytest.raises(ValueError):
        OneQubitOperator(np.eye(3))
