"""Predistance polynomials and the spectral excess over a regular graph spectrum.

The inner product is <p, q> = (1/n) sum_i m_i p(theta_i) q(theta_i).  The
predistance polynomials are the unique orthogonal system with deg p_i = i and
<p_i, p_i> = p_i(theta_0) > 0.  They are kept only as their values on the
spectrum, built by the discretized Stieltjes (Lanczos) procedure: row i
orthogonalizes theta * p_{i-1} against every earlier row (classical
Gram-Schmidt, two passes) and is rescaled at once to
p_i = q_i(theta_0)/<q_i, q_i> * q_i (Gautschi, Orthogonal Polynomials:
Computation and Approximation, 2004).  The top value p_d(theta_0) also has a
closed form, which spectral_excess computes without the recurrence.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

#: Gram-Schmidt breakdown threshold: ||q_i||^2 below this times ||theta p_{i-1}||^2
GS_BREAKDOWN_RTOL = 1e-12


class DegenerateSpectrum(ValueError):
    """Eigenvalues are not strictly decreasing (a repeated theta)."""


class NumericalBreakdown(RuntimeError):
    """Gram-Schmidt norm collapsed; the spectrum is numerically degenerate."""


class Spectrum:
    """Eigenvalues theta_0 > ... > theta_d with positive multiplicities, m_0 = 1.

    No ``__slots__``: the cached kappa lives in the instance dict.
    """

    def __init__(self, theta: np.ndarray, m: np.ndarray, n: int):
        theta = np.asarray(theta, dtype=float)
        m = np.asarray(m, dtype=float)
        if theta.ndim != 1 or theta.shape != m.shape or theta.size < 1:
            raise ValueError("theta and m must be 1-d arrays of equal positive length")
        # NaN passes every comparison below as False, and inf breaks kappa
        if not (np.isfinite(theta).all() and np.isfinite(m).all()):
            raise ValueError("theta and m must be finite")
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
        if abs(m.sum() - n) > 1e-6 * max(1.0, n):
            raise ValueError(f"multiplicities sum to {m.sum()}, expected n = {n}")
        self.theta = theta
        self.m = m
        self.n = n

    @property
    def d(self) -> int:
        return self.theta.size - 1

    @cached_property
    def kappa(self) -> np.ndarray:
        """kappa[i] = prod_{j=1..d, j != i} (theta_0 - theta_j) / (theta_i - theta_j); kappa[0] = 1.

        Each pass over j updates every i, in the order of a scalar loop over j.
        Entries 0 and j take the factor (theta_0 - theta_j) / (theta_0 - theta_j),
        which is exactly 1, so one multiply covers the rest.  The products leave
        float64's range near d = 600, so each pass moves their exponents into an
        integer; that rescaling is exact and keeps the loop's roundings.
        """
        th = self.theta
        out = np.ones(th.size)
        exponent = np.zeros(th.size, dtype=np.int64)
        for j in range(1, th.size):
            num = th[0] - th[j]
            den = th - th[j]
            den[j] = num
            out *= num / den
            out, e = np.frexp(out)
            exponent += e
        out = np.ldexp(out, exponent)
        out.flags.writeable = False
        return out


def predistance_polynomials(sp: Spectrum) -> np.ndarray:
    """The predistance polynomials p_0..p_d as their values on the spectrum.

    Entry [i, h] is p_i(theta_h); d + 1 values fix a polynomial of degree <= d.
    """
    d = sp.d
    w = sp.m / sp.n
    values = np.zeros((d + 1, d + 1))
    norms = np.zeros(d + 1)  # norms[i] = <p_i, p_i> = p_i(theta_0)
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
    return values


def spectral_excess(sp: Spectrum) -> float:
    """p_d(theta_0) = n / sum_h pi_0^2 / (m_h pi_h^2), with pi_h = prod_{j != h} |theta_h - theta_j|.

    kappa_h = -m_h p_d(theta_h) / p_d(theta_0) and <p_d, p_d> = p_d(theta_0)
    give this closed form (Fiol and Garriga, J. Combin. Theory Ser. B 71
    (1997); van Dam, Electron. J. Combin. 15 (2008) R129).  The pi_h leave
    float64's range at large d, so the sum is taken in log space; a value far
    below that range (about 1e-1060 for a random 12-regular graph on 729
    vertices, d = 728) comes out as 0.0.
    """
    log_gaps = np.subtract.outer(sp.theta, sp.theta)  # the one (d+1)^2 array, updated in place
    np.abs(log_gaps, out=log_gaps)
    np.fill_diagonal(log_gaps, 1.0)
    log_pi = np.log(log_gaps, out=log_gaps).sum(axis=1)
    e = 2 * log_pi[0] - np.log(sp.m) - 2 * log_pi
    top = e.max()
    return float(sp.n * np.exp(-top - np.log(np.exp(e - top).sum())))
