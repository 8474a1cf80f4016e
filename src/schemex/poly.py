"""Predistance polynomials and related identities over a regular graph spectrum.

The inner product is <p, q> = (1/n) sum_i m_i p(theta_i) q(theta_i).  The
predistance polynomials are the unique orthogonal system with deg p_i = i and
<p_i, p_i> = p_i(theta_0) > 0.  They are kept only as their values on the
spectrum, built by the discretized Stieltjes (Lanczos) procedure: row i
orthogonalizes theta * p_{i-1} against every earlier row (classical
Gram-Schmidt, two passes) and is rescaled at once to
p_i = q_i(theta_0)/<q_i, q_i> * q_i (Gautschi, Orthogonal Polynomials:
Computation and Approximation, 2004).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Gram-Schmidt breakdown threshold: ||q_i||^2 below this times ||theta p_{i-1}||^2
GS_BREAKDOWN_RTOL = 1e-12


class DegenerateSpectrum(ValueError):
    """Eigenvalues are not strictly decreasing (a repeated theta)."""


class NumericalBreakdown(RuntimeError):
    """Gram-Schmidt norm collapsed; the spectrum is numerically degenerate."""


class RepeatedBeta(ValueError):
    """Interpolation nodes must be mutually distinct."""


@dataclass(eq=False)
class Spectrum:
    """Eigenvalues theta_0 > ... > theta_d with positive multiplicities, m_0 = 1."""

    theta: np.ndarray
    m: np.ndarray
    n: int

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        m = np.asarray(self.m, dtype=float)
        if theta.ndim != 1 or theta.shape != m.shape or theta.size < 1:
            raise ValueError("theta and m must be 1-d arrays of equal positive length")
        gaps = np.diff(theta)
        if np.any(gaps >= 0):
            j = int(np.flatnonzero(gaps >= 0)[0])
            raise DegenerateSpectrum(
                f"theta_{j} = {theta[j]!r} is not strictly above theta_{j + 1} = {theta[j + 1]!r}"
            )
        if m.min() <= 0:
            raise ValueError("multiplicities must be positive")
        if abs(m[0] - 1.0) > 1e-6:
            raise ValueError(f"m_0 = {m[0]} but the top eigenvalue must be simple")
        if abs(m.sum() - self.n) > 1e-6 * max(1.0, self.n):
            raise ValueError(f"multiplicities sum to {m.sum()}, expected n = {self.n}")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "m", m)

    @property
    def d(self) -> int:
        return self.theta.size - 1


def inner_product(p, q, sp: Spectrum) -> float:
    """(1/n) sum_i m_i p(theta_i) q(theta_i)."""
    return float((sp.m * p(sp.theta) * q(sp.theta)).sum() / sp.n)


@dataclass(eq=False)
class PredistanceSystem:
    """The predistance polynomials p_0..p_d as their values on the spectrum.

    values[i, h] = p_i(theta_h); d + 1 values fix a polynomial of degree <= d.
    norms[i] = <p_i, p_i> = p_i(theta_0).
    """

    spectrum: Spectrum
    values: np.ndarray
    norms: np.ndarray


def predistance_polynomials(sp: Spectrum) -> PredistanceSystem:
    d = sp.d
    w = sp.m / sp.n
    values = np.zeros((d + 1, d + 1))
    norms = np.zeros(d + 1)
    values[0] = 1.0
    norms[0] = float(w.sum())
    for i in range(1, d + 1):
        x = sp.theta * values[i - 1]
        v = x.copy()
        for _ in range(2):  # classical pass + one re-orthogonalization pass
            v -= (values[:i] @ (w * v) / norms[:i]) @ values[:i]
        norm = float(w @ (v * v))
        if norm < GS_BREAKDOWN_RTOL * float(w @ (x * x)):
            raise NumericalBreakdown(f"||q_{i}||^2 = {norm:.3e} collapsed during Gram-Schmidt")
        # rescale now (q_i(theta_0) / <q_i, q_i>): unnormalized rows overflow by degree ~300
        values[i] = v[0] / norm * v
        norms[i] = float(w @ (values[i] * values[i]))
    return PredistanceSystem(spectrum=sp, values=values, norms=norms)


def kappa(sp: Spectrum, i: int) -> float:
    """prod_{j=1..d, j != i} (theta_0 - theta_j) / (theta_i - theta_j); empty product is 1."""
    if not 1 <= i <= sp.d:
        raise ValueError(f"i must be in 1..{sp.d}")
    th = sp.theta
    out = 1.0
    for j in range(1, sp.d + 1):
        if j == i:
            continue
        out *= (th[0] - th[j]) / (th[i] - th[j])
    return out


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


def graph_property_residual(sp: Spectrum, ps: PredistanceSystem, i: int) -> float:
    """kappa_i + m_i p_d(theta_i) / p_d(theta_0); about 0 for connected regular graph spectra."""
    if not 1 <= i <= sp.d:
        raise ValueError(f"i must be in 1..{sp.d}")
    vd = ps.values[sp.d]
    return float(kappa(sp, i) + sp.m[i] * vd[i] / vd[0])
