"""Independent brute-force oracles used by the tests.

Everything here deliberately avoids the package's own computational paths:
probabilities and correlation tensors come from explicit Kronecker products
and LAPACK traces, concurrence from the singular values of sqrt(rho) sqrt(rho~),
and detector rates from exhaustive enumeration of routing/outcome/detection
combinations.
"""

import itertools

import numpy as np

SY2 = np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]]))
# (I, Z, X): the one-photon operators a linear analyzer is built from
PAULI_IZX = (np.eye(2), np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]))


def projector(theta):
    v = np.array([np.cos(theta), np.sin(theta)])
    return np.outer(v, v)


def trace_prob(rho4, theta1, theta2):
    """Tr[rho (P(theta1) x P(theta2))] by direct matrix products."""
    return float(np.trace(rho4 @ np.kron(projector(theta1), projector(theta2))).real)


def correlation_oracle(rho4, t1, t2):
    p = lambda a, b: trace_prob(rho4, a, b)  # noqa: E731
    h = np.pi / 2
    tot = p(t1, t2) + p(t1 + h, t2 + h) + p(t1, t2 + h) + p(t1 + h, t2)
    return (p(t1, t2) + p(t1 + h, t2 + h) - p(t1, t2 + h) - p(t1 + h, t2)) / tot


def correlation_tensor_oracle(rho4):
    """T_ab = Tr[rho (sigma_a x sigma_b)] over (I, Z, X), one trace per entry."""
    return np.array(
        [[np.trace(rho4 @ np.kron(sa, sb)).real for sb in PAULI_IZX] for sa in PAULI_IZX]
    )


def concurrence_oracle(rho4):
    """Wootters recipe via the singular values of sqrt(rho) sqrt(rho~).

    sqrt(rho) comes from ``eigh`` with eigenvalues at or below 1e-14 set to
    0, and sqrt(rho~) = (sy x sy) sqrt(rho)* (sy x sy).  Unlike square roots
    of the round-off eigenvalues of rho rho~, this keeps full precision on
    rank-deficient states.
    """
    w, v = np.linalg.eigh(rho4)
    root = (v * np.sqrt(np.where(w > 1e-14, w, 0.0))) @ v.conj().T
    lam = np.linalg.svd(root @ SY2 @ root.conj() @ SY2, compute_uv=False)
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


def random_density_matrix(rng, rank=4):
    """Random two-qubit state of the given rank (Wishart construction)."""
    a = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_pure_density(rng):
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps = amps / np.linalg.norm(amps)
    return np.outer(amps, amps.conj())


def enumerated_pair_rates(rho4, theta1, theta2, eta1, eta2):
    """Exact single-pair click probabilities by exhaustive enumeration.

    Walks every beamsplitter routing (4), every joint analyzer outcome (4)
    and every detection pattern (4) of one photon pair and accumulates the
    probabilities of a click at detector 1, at detector 2, and at both.
    """
    angles = (theta1, theta2)
    etas = (eta1, eta2)
    h = np.pi / 2
    p_d1 = p_d2 = p_both = 0.0
    for port_a, port_b in itertools.product((0, 1), repeat=2):
        alpha, beta = angles[port_a], angles[port_b]
        for block_a, block_b in itertools.product((0, 1), repeat=2):
            p_outcome = trace_prob(rho4, alpha + block_a * h, beta + block_b * h)
            for det_a, det_b in itertools.product((0, 1), repeat=2):
                if block_a:
                    p_det_a = 0.0 if det_a else 1.0
                else:
                    p_det_a = etas[port_a] if det_a else 1.0 - etas[port_a]
                if block_b:
                    p_det_b = 0.0 if det_b else 1.0
                else:
                    p_det_b = etas[port_b] if det_b else 1.0 - etas[port_b]
                p = 0.25 * p_outcome * p_det_a * p_det_b
                if p == 0.0:
                    continue
                click1 = (det_a and port_a == 0) or (det_b and port_b == 0)
                click2 = (det_a and port_a == 1) or (det_b and port_b == 1)
                if click1:
                    p_d1 += p
                if click2:
                    p_d2 += p
                if click1 and click2:
                    p_both += p
    return p_d1, p_d2, p_both


def enumerated_expected_rates(rho4, theta1, theta2, lam, det):
    """First-order analytic rates rebuilt from the enumeration oracle."""
    s1, s2, both = enumerated_pair_rates(
        rho4, theta1, theta2, det.efficiency1, det.efficiency2
    )
    pair1, pair2 = lam * s1, lam * s2
    p1 = pair1 + det.background_prob1 - pair1 * det.background_prob1
    p2 = pair2 + det.background_prob2 - pair2 * det.background_prob2
    p_acc = p1 * p2
    return p1, p2, lam * both + p_acc, p_acc


def enumerated_exact_rates(rho4, theta1, theta2, lam, det):
    """Exact-in-lambda rates (p1, p2, p_coinc, p_acc) from the enumeration oracle.

    The pairs of one pulse are Poisson(lam) and independent, so the pairs
    clicking D1, D2 or both are thinned Poisson variables:
    P(no D1) = (1 - b1) exp(-lam s1) and
    P(neither) = (1 - b1)(1 - b2) exp(-lam (s1 + s2 - s12)).  Each click
    probability is -expm1 of its survival's log, so none is a difference of
    near-equal terms at small lam, and P(both) = P(D1) + P(D2) - P(either).
    """
    s1, s2, both = enumerated_pair_rates(
        rho4, theta1, theta2, det.efficiency1, det.efficiency2
    )
    l1, l2 = np.log1p(-det.background_prob1), np.log1p(-det.background_prob2)
    p1 = -np.expm1(l1 - lam * s1)
    p2 = -np.expm1(l2 - lam * s2)
    p_either = -np.expm1(l1 + l2 - lam * (s1 + s2 - both))
    return p1, p2, p1 + p2 - p_either, p1 * p2


def poisson_pattern_probs(lam, b1, b2, s1, s2, s12):
    """Per-pulse probabilities of an event pulse's click patterns (no click,
    D1 only, both, D2 only), summed pair number by pair number; lam > 0.

    Given k pairs, P(no D1) = (1 - b1)(1 - s1)^k, P(no D2) = (1 - b2)(1 - s2)^k
    and P(neither) = (1 - b1)(1 - b2)(1 - s1 - s2 + s12)^k.  Each k >= 1 is
    weighted by its Poisson pmf, taken in log space since exp(-lam) alone
    underflows at large lam.  The k = 0 row is the background alone:
    b1 (1 - b2), b1 b2 and (1 - b1) b2, with the empty pulse left out.  The
    sum stops at lam + 12 sqrt(lam) + 40 pairs, past which the Poisson tail
    is below 1e-25.
    """
    k = np.arange(1.0, int(lam + 12.0 * np.sqrt(lam) + 40.0) + 1)
    pmf = np.exp(k * np.log(lam) - lam - np.cumsum(np.log(k)))
    none1 = (1 - b1) * (1 - s1) ** k
    none2 = (1 - b2) * (1 - s2) ** k
    neither = (1 - b1) * (1 - b2) * (1 - s1 - s2 + s12) ** k
    rows = np.stack([neither, none2 - neither, 1 - none1 - none2 + neither, none1 - neither])
    background = np.array([0.0, b1 * (1 - b2), b1 * b2, (1 - b1) * b2])
    return np.exp(-lam) * background + rows @ pmf


def fit_fringe_oracle(theta1s, counts):
    """Plain normal-equations fringe fit, independent of the package path."""
    x = np.column_stack([np.ones_like(theta1s), np.cos(2 * theta1s), np.sin(2 * theta1s)])
    c = np.linalg.solve(x.T @ x, x.T @ counts)
    amp = float(np.hypot(c[1], c[2]))
    return float(c[0]), amp, float(0.5 * np.arctan2(c[2], c[1]) % np.pi)
