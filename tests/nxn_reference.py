"""Test-only references for quantities the library computes another way.

These are the direct definitions: the Krein parameters as the expansion of
every entrywise product E_i o E_j of primitive idempotents, the M* product as
a chain of dense n x n matrix products, kappa_i as one scalar product loop,
the Krein-chain band check as a loop over every entry, and the route column
deviations one column at a time.  The first two cost O(d^3 n^2) and O(d n^3),
so tests only run them on small or mid-sized schemes.

Beside them sit identities no library stage reads: the 0/1 adjacency matrix
of a relation, the spectrum-weighted inner product, the Lagrange power
identity (with RepeatedBeta for repeated nodes) and the graph-property
residual kappa_i + m_i p_d(theta_i) / p_d(theta_0), the identity that
schemex.poly.spectral_excess's closed form comes from.
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
    A1 = adjacency(s, 1).astype(float)
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


def adjacency(s, i: int) -> np.ndarray:
    """0/1 indicator matrix of relation i (int32)."""
    return (s.rel == i).astype(np.int32)


def inner_product(p, q, sp) -> float:
    """(1/n) sum_i m_i p(theta_i) q(theta_i)."""
    return float((sp.m * p(sp.theta) * q(sp.theta)).sum() / sp.n)


class RepeatedBeta(ValueError):
    """Interpolation nodes must be mutually distinct."""


def lagrange_power_identity(betas, x: float, h: int) -> float:
    """sum_i beta_i^h prod_{k != i} (x - beta_k)/(beta_i - beta_k).

    For mutually distinct nodes and 0 <= h <= len(betas) - 1 this equals x^h
    exactly (interpolation of t^h is exact below the node count); the function
    computes the left-hand side so the identity stays testable.
    """
    b = np.asarray(betas, dtype=float)
    if b.ndim != 1 or b.size < 1:
        raise ValueError("betas must be a non-empty 1-d sequence")
    if np.unique(b).size != b.size:
        raise RepeatedBeta(f"nodes {betas} contain a repeat")
    if not 0 <= h <= b.size - 1:
        raise ValueError(f"h must be in 0..{b.size - 1}")
    total = 0.0
    for i in range(b.size):
        others = np.delete(b, i)
        total += b[i] ** h * float(np.prod((x - others) / (b[i] - others)))
    return total


def graph_property_residual(sp, values: np.ndarray, i: int) -> float:
    """kappa_i + m_i p_d(theta_i) / p_d(theta_0); about 0 for connected regular graph spectra.

    ``values`` is the table of predistance_polynomials(sp).
    """
    if not 1 <= i <= sp.d:
        raise ValueError(f"i must be in 1..{sp.d}")
    vd = values[sp.d]
    return float(sp.kappa[i] + sp.m[i] * vd[i] / vd[0])
