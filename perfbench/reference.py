"""Reference physics for the benchmark's output checks.

Written apart from the package on purpose: probabilities are traces of
explicit Kronecker products of projectors, single-pair click probabilities
come from enumerating every beamsplitter routing, analyzer outcome and
detection pattern, and concurrence uses the eigenvalues of the
non-Hermitian product rho * rho~.  Nothing here imports ``pulsepair``.
"""

from __future__ import annotations

import itertools

import numpy as np

HALF_TURN = 0.5 * np.pi
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SY2 = np.kron(_SY, _SY)


def source_state(pump, gain_up, gain_down, phase, mu) -> np.ndarray:
    """Emitted pair state: HH and VV populations, coherence scaled by mu."""
    a_h = gain_up * np.cos(pump)
    a_v = gain_down * np.sin(pump) * np.exp(1j * phase)
    norm = abs(a_h) ** 2 + abs(a_v) ** 2
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = abs(a_h) ** 2 / norm
    rho[3, 3] = abs(a_v) ** 2 / norm
    rho[0, 3] = mu * a_h * np.conj(a_v) / norm
    rho[3, 0] = np.conj(rho[0, 3])
    return rho


def _projectors(theta) -> np.ndarray:
    """Stack of 2x2 analyzer projectors, shape theta.shape + (2, 2)."""
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([np.stack([c * c, c * s], -1), np.stack([s * c, s * s], -1)], -2)


def trace_prob(rho, theta1, theta2) -> np.ndarray:
    """Tr[rho (P(theta1) x P(theta2))], broadcast over the angle arrays."""
    t1, t2 = np.broadcast_arrays(np.asarray(theta1, float), np.asarray(theta2, float))
    p1, p2 = _projectors(t1), _projectors(t2)
    kron = np.einsum("...ab,...cd->...acbd", p1, p2).reshape(t1.shape + (4, 4))
    return np.einsum("ij,...ji->...", rho, kron).real


def pair_click_probs(rho, theta1, theta2, eta1, eta2):
    """Single-pair probabilities (s1, s2, s12) of clicking D1, D2 and both.

    Enumerates the 4 routings, 4 joint analyzer outcomes and 4 detection
    patterns of one pair; ``theta1`` may be an array.
    """
    angles, etas = (theta1, theta2), (eta1, eta2)
    s1 = s2 = s12 = 0.0
    for port_a, port_b in itertools.product((0, 1), repeat=2):
        for block_a, block_b in itertools.product((0, 1), repeat=2):
            p_out = trace_prob(
                rho,
                angles[port_a] + block_a * HALF_TURN,
                angles[port_b] + block_b * HALF_TURN,
            )
            for det_a, det_b in itertools.product((0, 1), repeat=2):
                if (block_a and det_a) or (block_b and det_b):
                    continue
                p_a = 1.0 if block_a else (etas[port_a] if det_a else 1.0 - etas[port_a])
                p_b = 1.0 if block_b else (etas[port_b] if det_b else 1.0 - etas[port_b])
                p = 0.25 * p_out * p_a * p_b
                click1 = (det_a and port_a == 0) or (det_b and port_b == 0)
                click2 = (det_a and port_a == 1) or (det_b and port_b == 1)
                s1 = s1 + p * click1
                s2 = s2 + p * click2
                s12 = s12 + p * (click1 and click2)
    return s1, s2, s12


def exact_rates(s1, s2, s12, lam, b1, b2):
    """Per-pulse (p1, p2, p_coinc, p_acc) for Poisson(lam) pairs, any lam.

    The pairs clicking D1, D2 or both are thinned Poisson variables, so
    P(no D1) = (1-b1) exp(-lam s1) and P(neither) = (1-b1)(1-b2)
    exp(-lam (s1 + s2 - s12)).
    """
    q1 = (1.0 - b1) * np.exp(-lam * s1)
    q2 = (1.0 - b2) * np.exp(-lam * s2)
    q0 = (1.0 - b1) * (1.0 - b2) * np.exp(-lam * (s1 + s2 - s12))
    p1, p2 = 1.0 - q1, 1.0 - q2
    return p1, p2, 1.0 - q1 - q2 + q0, p1 * p2


def first_order_rates(s1, s2, s12, lam, b1, b2):
    """Per-pulse (p1, p2, p_coinc, p_acc) of the first-order-in-lam model."""
    p1 = lam * s1 + b1 - lam * s1 * b1
    p2 = lam * s2 + b2 - lam * s2 * b2
    p_acc = p1 * p2
    return p1, p2, lam * s12 + p_acc, p_acc


def count_pulls(n, p1, p2, pc, pa, singles1, singles2, coincidences, accidentals):
    """Pulls (observed - mean) / sigma of the four tallies of an n-pulse run.

    Singles and coincidences are binomial over n pulses.  Accidentals count
    D1 at pulse i with D2 at pulse i+1 over n-1 windows; neighbouring
    windows share one pulse, which adds 2(n-2)(p1 pc p2 - pa^2) to the
    variance.
    """
    var_acc = (n - 1) * pa * (1.0 - pa) + 2.0 * (n - 2) * (pa * pc - pa * pa)
    tallies = (
        (singles1, n * p1, n * p1 * (1.0 - p1)),
        (singles2, n * p2, n * p2 * (1.0 - p2)),
        (coincidences, n * pc, n * pc * (1.0 - pc)),
        (accidentals, (n - 1) * pa, var_acc),
    )
    return [(obs - mean) / np.sqrt(var) for obs, mean, var in tallies]


def concurrence(rho) -> float:
    """Wootters concurrence from the eigenvalues of rho (sy x sy) rho* (sy x sy)."""
    evals = np.linalg.eigvals(rho @ _SY2 @ rho.conj() @ _SY2)
    lam = np.sort(np.sqrt(np.clip(evals.real, 0.0, None)))[::-1]
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))


def chsh(rho, a, a_prime, b, b_prime) -> float:
    """|E(a,b) - E(a,b') + E(a',b) + E(a',b')| from pass/block traces."""

    def corr(t1, t2):
        pp = trace_prob(rho, t1, t2)
        bb = trace_prob(rho, t1 + HALF_TURN, t2 + HALF_TURN)
        pb = trace_prob(rho, t1, t2 + HALF_TURN)
        bp = trace_prob(rho, t1 + HALF_TURN, t2)
        return (pp + bb - pb - bp) / (pp + bb + pb + bp)

    return float(abs(corr(a, b) - corr(a, b_prime) + corr(a_prime, b) + corr(a_prime, b_prime)))


def fringe_fit(theta1s, counts):
    """Normal-equations fit of counts to {1, cos 2t, sin 2t}.

    Returns (offset, amplitude, phase of the maximum in [0, pi)).
    """
    x = np.column_stack([np.ones_like(theta1s), np.cos(2 * theta1s), np.sin(2 * theta1s)])
    c = np.linalg.solve(x.T @ x, x.T @ counts)
    return float(c[0]), float(np.hypot(c[1], c[2])), float(0.5 * np.arctan2(c[2], c[1]) % np.pi)
