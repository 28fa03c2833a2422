"""Two-photon polarization states and Jones-calculus optical elements.

The pair lives in the four-dimensional space spanned by the ordered basis
(|HH>, |HV>, |VH>, |VV>).  Analyzer angles are measured counterclockwise from
horizontal, looking along the propagation direction; with that convention a
polarizer at angle theta projects onto cos(theta)|H> + sin(theta)|V>.

All probabilities are operator traces, and :func:`coincidence_probability`
and :func:`correlation` broadcast over arrays of analyzer angles.  Spectra
come from LAPACK: the eigenvalue checks call ``np.linalg.eigvalsh`` and the
concurrence takes its Wootters roots from :mod:`pulsepair.linalg`.  Every
state object validates its own invariants at construction time and is
immutable afterwards.
"""

from __future__ import annotations

import numpy as np

from .linalg import wootters_roots

BASIS_LABELS = ("HH", "HV", "VH", "VV")

CONSTRUCTION_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
BLOCKED_TOL = 1e-15


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
        if np.abs(m - m.conj().T).max() > CONSTRUCTION_TOL:
            raise ValueError("density matrix is not Hermitian within 1e-12")
        trace = np.trace(m).real
        if abs(trace - 1.0) > CONSTRUCTION_TOL:
            raise ValueError(f"density matrix trace {trace} is not 1 within 1e-12")
        m = 0.5 * (m + m.conj().T)
        m = m / np.trace(m).real
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


def coincidence_probability(
    rho: DensityMatrix, theta1: float | np.ndarray, theta2: float | np.ndarray
) -> float | np.ndarray:
    """Probability that both photons pass analyzers at (theta1, theta2).

    Tr[rho (P(theta1) (x) P(theta2))] = w rho w with w = a1 (x) a2, clipped
    into [0, 1] against round-off.  The angles broadcast against each other;
    scalar angles give a scalar.
    """
    a1 = np.stack([np.cos(theta1), np.sin(theta1)], -1)
    a2 = np.stack([np.cos(theta2), np.sin(theta2)], -1)
    w = a1[..., :, None] * a2[..., None, :]
    w = w.reshape(w.shape[:-2] + (4,))
    return np.clip(((w @ rho.matrix) * w).sum(-1).real, 0.0, 1.0)


def correlation(
    rho: DensityMatrix, theta1: float | np.ndarray, theta2: float | np.ndarray
) -> float | np.ndarray:
    """Polarization correlation E(theta1, theta2) in [-1, 1].

    Built from the four joint pass/block probabilities of the two analyzers,
    normalized by their sum (which is 1 for a unit-trace state).  The angles
    broadcast against each other; scalar angles give a scalar.
    """
    # an analyzer blocks at theta what it passes at theta + pi/2; the four
    # pass/block settings go on a new last axis
    h = 0.5 * np.pi
    t1 = np.expand_dims(theta1, -1) + np.array([0.0, h, 0.0, h])
    t2 = np.expand_dims(theta2, -1) + np.array([0.0, h, h, 0.0])
    pp, bb, pb, bp = np.moveaxis(coincidence_probability(rho, t1, t2), -1, 0)
    return (pp + bb - pb - bp) / (pp + bb + pb + bp)


def concurrence(rho: DensityMatrix) -> float:
    """Wootters concurrence in [0, 1]: max(0, l1 - l2 - l3 - l4) over the
    decreasing roots from :func:`pulsepair.linalg.wootters_roots`."""
    lam = wootters_roots(rho.matrix)
    return min(max(float(lam[0] - lam[1] - lam[2] - lam[3]), 0.0), 1.0)


def purity(rho: DensityMatrix) -> float:
    """Tr[rho^2]; 1 for pure states, 1/4 for the maximally mixed pair."""
    return float(np.trace(rho.matrix @ rho.matrix).real)
