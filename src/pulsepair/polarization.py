"""Two-photon polarization states and Jones-calculus optical elements.

The pair lives in the four-dimensional space spanned by the ordered basis
(|HH>, |HV>, |VH>, |VV>).  Analyzer angles are measured counterclockwise from
horizontal, looking along the propagation direction; with that convention a
polarizer at angle theta projects onto cos(theta)|H> + sin(theta)|V>.

A linear analyzer at theta is P(theta) = (c . sigma) / 2 with the analyzer
vector c(theta) = (1, cos 2theta, sin 2theta) over sigma = (I, Z, X), so every
linear-analyzer probability is a contraction of one real 3x3 matrix, the
correlation tensor T_ab = Tr[rho sigma_a (x) sigma_b]: P(theta1, theta2) =
c(theta1)^T T c(theta2) / 4.  Only this module knows the 4x4 layout and the
analyzer vector; :func:`coincidence_probability` and :func:`correlation` read
T and broadcast over arrays of analyzer angles.  Spectra come from LAPACK: the
eigenvalue checks call ``np.linalg.eigvalsh`` and the concurrence takes its
Wootters roots from :mod:`pulsepair.linalg`.  Every state object validates its
own invariants at construction time and is immutable afterwards.
"""

from __future__ import annotations

import numpy as np

from .linalg import wootters_roots

BASIS_LABELS = ("HH", "HV", "VH", "VV")

CONSTRUCTION_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
BLOCKED_TOL = 1e-15

# sigma = (I, Z, X) on one photon, and the 16 entries of sigma_a (x) sigma_b in
# row 3a + b; each product is real and symmetric, so Tr[rho S] = sum Re(rho) S
_IZX = np.array([np.eye(2), np.diag([1.0, -1.0]), [[0.0, 1.0], [1.0, 0.0]]])
_IZX_PAIRS = np.einsum("aij,bkl->abikjl", _IZX, _IZX).reshape(9, 16)
# a port without an analyzer passes every photon: I = (c . sigma) / 2
NO_ANALYZER = np.array([2.0, 0.0, 0.0])


class PureState:
    """Normalized two-photon polarization ket.

    Amplitudes are given over ``BASIS_LABELS`` order and normalized at
    construction; a zero vector is rejected.
    """

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes) -> None:
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if amps.shape != (4,):
            raise ValueError(f"need 4 amplitudes over {BASIS_LABELS}, got {amps.shape}")
        norm = float(np.linalg.norm(amps))
        if norm <= CONSTRUCTION_TOL:
            raise ValueError("cannot normalize an all-zero ket")
        amps = amps / norm
        amps.setflags(write=False)
        self.amplitudes = amps

    def __repr__(self) -> str:
        terms = ", ".join(f"{lbl}: {a:.4g}" for lbl, a in zip(BASIS_LABELS, self.amplitudes))
        return f"PureState({terms})"


class DensityMatrix:
    """4x4 two-photon density matrix: Hermitian, unit trace, positive.

    Construction enforces Hermiticity and unit trace to 1e-12 and an
    eigenvalue floor of -1e-10 (tiny negatives from round-off are treated as
    zero by :meth:`eigenvalues`).
    """

    __slots__ = ("matrix",)

    def __init__(self, entries) -> None:
        m = np.asarray(entries, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"density matrix must be 4x4, got {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("density matrix has non-finite entries")
        adjoint = m.conj().T
        if np.abs(m - adjoint).max() > CONSTRUCTION_TOL:
            raise ValueError("density matrix is not Hermitian within 1e-12")
        trace = m.trace().real
        if abs(trace - 1.0) > CONSTRUCTION_TOL:
            raise ValueError(f"density matrix trace {trace} is not 1 within 1e-12")
        m = 0.5 * (m + adjoint)
        m = m / m.trace().real
        w = np.linalg.eigvalsh(m)
        if w.min() < EIGENVALUE_FLOOR:
            raise ValueError(f"density matrix has negative eigenvalue {w.min():.3e}")
        m.setflags(write=False)
        self.matrix = m

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues with the [-1e-10, 0) band clamped to 0."""
        return np.clip(np.linalg.eigvalsh(self.matrix), 0.0, None)

    def __repr__(self) -> str:
        return f"DensityMatrix(trace={np.trace(self.matrix).real:.6f})"


class OneQubitOperator:
    """2x2 Jones operator acting on a single photon's polarization."""

    __slots__ = ("matrix",)

    def __init__(self, entries) -> None:
        m = np.asarray(entries, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"one-qubit operator must be 2x2, got {m.shape}")
        m = m.copy()
        m.setflags(write=False)
        self.matrix = m

    def is_unitary(self, tol: float = CONSTRUCTION_TOL) -> bool:
        return bool(np.abs(self.matrix.conj().T @ self.matrix - np.eye(2)).max() <= tol)

    def is_projector(self, tol: float = CONSTRUCTION_TOL) -> bool:
        m = self.matrix
        return bool(
            np.abs(m @ m - m).max() <= tol and np.abs(m - m.conj().T).max() <= tol
        )


class TwoQubitOperator:
    """Tensor product of two one-photon operators acting on the pair."""

    __slots__ = ("factor_a", "factor_b", "matrix")

    def __init__(self, factor_a: OneQubitOperator, factor_b: OneQubitOperator) -> None:
        self.factor_a = factor_a
        self.factor_b = factor_b
        m = np.kron(factor_a.matrix, factor_b.matrix)
        m.setflags(write=False)
        self.matrix = m


_BELL_AMPLITUDES = {
    "phi_plus": (1.0, 0.0, 0.0, 1.0),
    "phi_minus": (1.0, 0.0, 0.0, -1.0),
    "psi_plus": (0.0, 1.0, 1.0, 0.0),
    "psi_minus": (0.0, 1.0, -1.0, 0.0),
}


def bell_state(kind: str) -> PureState:
    """One of the four maximally entangled kets.

    ``kind`` is ``phi_plus``, ``phi_minus``, ``psi_plus`` or ``psi_minus``:
    (HH+VV), (HH-VV), (HV+VH), (HV-VH), each normalized.
    """
    try:
        amps = _BELL_AMPLITUDES[kind]
    except KeyError:
        valid = ", ".join(sorted(_BELL_AMPLITUDES))
        raise ValueError(f"unknown Bell state {kind!r}; expected one of {valid}") from None
    return PureState(amps)


def pure_to_density(psi: PureState) -> DensityMatrix:
    """Outer product |psi><psi|."""
    return DensityMatrix(np.outer(psi.amplitudes, psi.amplitudes.conj()))


def identity() -> OneQubitOperator:
    return OneQubitOperator(np.eye(2))


def polarizer(theta: float) -> OneQubitOperator:
    """Rank-1 projector of an ideal linear analyzer at angle ``theta``."""
    axis = np.array([np.cos(theta), np.sin(theta)])
    return OneQubitOperator(np.outer(axis, axis))


def half_waveplate(theta_fast: float) -> OneQubitOperator:
    """Half waveplate with fast axis at ``theta_fast``:
    [[cos 2t, sin 2t], [sin 2t, -cos 2t]]."""
    c, s = np.cos(2.0 * theta_fast), np.sin(2.0 * theta_fast)
    return OneQubitOperator([[c, s], [s, -c]])


def phase_shifter(phi: float) -> OneQubitOperator:
    """Retarder diag(1, exp(i*phi)) delaying V relative to H."""
    return OneQubitOperator(np.diag([1.0, np.exp(1j * phi)]))


def apply_local(
    rho: DensityMatrix, op_a: OneQubitOperator, op_b: OneQubitOperator
) -> tuple[DensityMatrix, float]:
    """Apply ``op_a (x) op_b`` to the state.

    Returns the renormalized output state and the pass probability
    Tr[K rho K+].  Raises ValueError when the state is fully blocked
    (pass probability below 1e-15), in which case no output state exists.
    """
    k = TwoQubitOperator(op_a, op_b).matrix
    out = k @ rho.matrix @ k.conj().T
    p = float(np.trace(out).real)
    if p <= BLOCKED_TOL:
        raise ValueError("state fully blocked: pass probability is zero")
    return DensityMatrix(out / p), min(max(p, 0.0), 1.0)


def correlation_tensor(rho: DensityMatrix) -> np.ndarray:
    """Real 3x3 correlation tensor T_ab = Tr[rho sigma_a (x) sigma_b] over
    sigma = (I, Z, X), with T_00 = Tr rho = 1.

    It is the linear-analyzer block of the Horodecki correlation matrix
    (R. & M. Horodecki, PRA 54, 1838 (1996)); Y never enters a linear
    analyzer.  Rows belong to photon A, columns to photon B.
    """
    return (_IZX_PAIRS @ rho.matrix.real.ravel()).reshape(3, 3)


def analyzer_vector(theta: float | np.ndarray) -> np.ndarray:
    """c(theta) = (1, cos 2theta, sin 2theta) on a new last axis, so that the
    linear analyzer at theta is P(theta) = (c . sigma) / 2."""
    t = 2.0 * np.asarray(theta, dtype=float)[..., None]
    return np.concatenate([np.ones_like(t), np.cos(t), np.sin(t)], -1)


def pass_probability(t: np.ndarray, c1: np.ndarray, c2: np.ndarray) -> float | np.ndarray:
    """Tr[rho (A1 (x) A2)] = c1^T t c2 / 4 for A = (c . sigma) / 2 and the
    correlation tensor ``t`` of rho; the leading axes of c1 and c2 broadcast."""
    return 0.25 * (c1 @ t * c2).sum(-1)


def coincidence_probability(
    rho: DensityMatrix, theta1: float | np.ndarray, theta2: float | np.ndarray
) -> float | np.ndarray:
    """Probability that both photons pass analyzers at (theta1, theta2).

    Tr[rho (P(theta1) (x) P(theta2))] = c(theta1)^T T c(theta2) / 4, clipped
    into [0, 1] against round-off.  The angles broadcast against each other;
    scalar angles give a scalar.
    """
    p = pass_probability(correlation_tensor(rho), analyzer_vector(theta1), analyzer_vector(theta2))
    return np.clip(p, 0.0, 1.0)


def correlation(
    rho: DensityMatrix, theta1: float | np.ndarray, theta2: float | np.ndarray
) -> float | np.ndarray:
    """Polarization correlation E(theta1, theta2) in [-1, 1].

    E is the expectation of the product of the two analyzers' +-1 outcomes,
    pass minus block: E = c'(theta1)^T T c'(theta2) with
    c' = (0, cos 2theta, sin 2theta), so the identity row and column of T drop
    out.  The angles broadcast against each other; scalar angles give a scalar.
    """
    c1, c2 = analyzer_vector(theta1)[..., 1:], analyzer_vector(theta2)[..., 1:]
    return (c1 @ correlation_tensor(rho)[1:, 1:] * c2).sum(-1)


def concurrence(rho: DensityMatrix) -> float:
    """Wootters concurrence in [0, 1]: max(0, l1 - l2 - l3 - l4) over the
    decreasing roots from :func:`pulsepair.linalg.wootters_roots`."""
    lam = wootters_roots(rho.matrix)
    return min(max(float(lam[0] - lam[1] - lam[2] - lam[3]), 0.0), 1.0)


def purity(rho: DensityMatrix) -> float:
    """Tr[rho^2]; 1 for pure states, 1/4 for the maximally mixed pair."""
    return float(np.trace(rho.matrix @ rho.matrix).real)
