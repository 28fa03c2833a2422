"""Spectral step of the Wootters concurrence, on LAPACK.

With a factorization rho = Psi Psi+ the Wootters roots are the singular
values of the complex symmetric matrix Psi^T (sy (x) sy) Psi.  Unlike
square-root-of-rho formulations, this stays accurate for pure and
rank-deficient states.
"""

from __future__ import annotations

import numpy as np

# sigma_y tensor sigma_y, the spin-flip kernel of the Wootters concurrence
_SPIN_FLIP = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ],
    dtype=complex,
)
# eigenvalues of rho at or below this are dropped from the factor Psi
_RANK_TOL = 1e-14


def wootters_roots(matrix: np.ndarray) -> np.ndarray:
    """Decreasing square roots of the eigenvalues of rho (sy (x) sy) rho* (sy (x) sy).

    ``matrix`` is a 4x4 density matrix; four values are always returned,
    zero-padded past the rank of rho.
    """
    w, v = np.linalg.eigh(matrix)
    keep = w > _RANK_TOL
    factor = v[:, keep] * np.sqrt(w[keep])
    sv = np.linalg.svd(factor.T @ _SPIN_FLIP @ factor, compute_uv=False)
    return np.concatenate([sv, np.zeros(4 - len(sv))])
