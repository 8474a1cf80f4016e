"""Test-only references for quantities the library computes another way.

These are the direct definitions: the Krein parameters as the expansion of
every entrywise product E_i o E_j of primitive idempotents, the M* product as
a chain of dense n x n matrix products, kappa_i as one scalar product loop,
the Krein-chain band check as a loop over every entry, and the route column
deviations one column at a time.  The first two cost O(d^3 n^2) and O(d n^3), so tests only run them on
small or mid-sized schemes.
"""

from __future__ import annotations

import numpy as np

from schemex.spectral import primitive_idempotents


def krein_expansion(s, sd, *, residual_tol: float = 1e-8) -> np.ndarray:
    """q[k, i, j] = n * (coefficient of E_k in E_i o E_j), by trace inner products."""
    d, n = sd.d, sd.n
    E = primitive_idempotents(s, sd)
    stack = np.stack(E)
    denom = np.array([(Ek * Ek).sum() for Ek in E])  # tr(E_k E_k), about m_k
    q = np.zeros((d + 1, d + 1, d + 1))
    for i in range(d + 1):
        for j in range(i, d + 1):
            H = E[i] * E[j]
            c = np.array([(H * Ek).sum() for Ek in E]) / denom
            resid = np.abs(H - np.tensordot(c, stack, axes=1)).max()
            assert resid <= residual_tol * max(1.0, float(np.abs(H).max())), (i, j, resid)
            q[:, i, j] = n * c
            q[:, j, i] = n * c
    return q


def kappa_scalar(theta, i: int) -> float:
    """prod_{j=1..d, j != i} (theta_0 - theta_j) / (theta_i - theta_j), one factor at a time."""
    out = 1.0
    for j in range(1, len(theta)):
        if j != i:
            out *= (theta[0] - theta[j]) / (theta[i] - theta[j])
    return out


def mstar_product(s, sd, i: int) -> float:
    """Max-abs entry of prod_{j!=i}(A_1 - theta_j I)/(theta_i - theta_j) - kappa_i E_0 - E_i."""
    th = sd.theta
    A1 = s.adjacency(1).astype(float)
    eye = np.eye(s.n)
    M = eye
    for j in range(1, s.d + 1):
        if j == i:
            continue
        M = (A1 - th[j] * eye) @ M / (th[i] - th[j])
    kap = kappa_scalar(sd.theta, i)
    E_i = sd.Q[s.rel, i] / s.n
    return float(np.abs(M - kap / s.n - E_i).max())


def band_violation_loop(mat, order, thr):
    """The first entry, row by row in ``order``, off the band pattern: |entry| <= thr two
    or more places off the diagonal, entry > thr next to it; NaN fails both tests."""
    m = len(order)
    idx = np.asarray(order)
    R = mat[np.ix_(idx, idx)]
    for a in range(m):
        for b in range(m):
            if abs(a - b) >= 2 and not abs(R[a, b]) <= thr:
                return f"entry ({order[a]},{order[b]}) = {R[a, b]} lies outside the band"
            if abs(a - b) == 1 and not R[a, b] > thr:
                return f"band entry ({order[a]},{order[b]}) = {R[a, b]} is not positive"
    return None


def column_deviations_loop(values, targets):
    """Raw and scaled max deviation of values vs each column targets[:, l], one column at a time."""
    raws, scaleds = [], []
    for l in range(targets.shape[1]):
        col = targets[:, l]
        raw = np.abs(values - col)
        scaled = raw / np.maximum(1.0, np.maximum(np.abs(values), np.abs(col)))
        raws.append(float(raw.max()))
        scaleds.append(float(scaled.max()))
    return raws, scaleds
