"""Spectra: eigenmatrices P and Q of a scheme, idempotents, Krein parameters, predistance polynomials.

The rows of P are recovered as the common left eigenvectors of the
intersection matrices B_i = (p^k_{ij})_{k,j}, which represent multiplication
by A_i on the (d+1)-dimensional adjacency algebra.  Conjugating B_i by
diag(sqrt(k)) turns the whole family into commuting *symmetric* matrices, so
everything reduces to eigh plus eigenspace refinement: diagonalize the first
matrix, then split any degenerate eigenspace with the next one, and so on.
Q comes from P and the multiplicities, and P Q = nI checks that P's rows are
orthogonal.  Of the Krein parameters only the slab q^k_{1j} that the dual
chain reads is computed, in closed form from P.

A Spectrum of distinct theta gives kappa, matched against Q, and the
predistance polynomials, whose p_d is matched against P.  Under the inner
product <p, q> = (1/n) sum_i m_i p(theta_i) q(theta_i) they are the unique
orthogonal system with deg p_i = i and <p_i, p_i> = p_i(theta_0) > 0, kept
only as their values on the spectrum and built by the discretized Stieltjes
(Lanczos) procedure: row i orthogonalizes theta * p_{i-1} against every
earlier row (classical Gram-Schmidt, two passes) and is rescaled at once to
p_i = q_i(theta_0)/<q_i, q_i> * q_i (Gautschi, Orthogonal Polynomials:
Computation and Approximation, 2004).  The top value p_d(theta_0) also has a
closed form, which spectral_excess computes without the recurrence.
"""

from __future__ import annotations

import math

import numpy as np

from .scheme_core import AssociationScheme, FrozenRecord

#: two computed eigenvalues count as equal when their gap is at most this,
#: relative to max(1, spectral radius); read only by eigen_groups
EIG_GROUP_RTOL = 1e-9

#: multiplicities must land within this of a positive integer
INTEGRALITY_TOL = 1e-6

#: Gram-Schmidt breakdown threshold: ||q_i||^2 below this times ||theta p_{i-1}||^2
GS_BREAKDOWN_RTOL = 1e-12


class EigenSplitFailure(RuntimeError):
    """The intersection matrices failed to separate the common eigenspaces."""


class DegenerateSpectrum(ValueError):
    """Eigenvalues are not strictly decreasing (a repeated theta)."""


class NumericalBreakdown(RuntimeError):
    """Gram-Schmidt norm collapsed; the spectrum is numerically degenerate."""


class Spectrum(FrozenRecord):
    """Eigenvalues theta_0 > ... > theta_d with positive multiplicities, m_0 = 1, and kappa.

    kappa[h] = prod_{j=1..d, j != h} (theta_0 - theta_j) / (theta_h - theta_j), kappa[0] = 1,
    is (-1)^(h-1) pi_0 / pi_h with pi_h = prod_{j != h} |theta_h - theta_j|.  The pi_h
    leave float64's range near d = 600, so they are summed as logs from one (d+1)^2
    table of gaps, and log_kappa[h] = log pi_0 - log pi_h = log |kappa_h| is kept; a
    kappa past float64's range is inf.  Every array is a read-only copy.
    """

    __slots__ = ("theta", "m", "n", "kappa", "log_kappa")

    def __init__(self, theta: np.ndarray, m: np.ndarray, n: int):
        theta = np.array(theta, dtype=float)
        m = np.array(m, dtype=float)
        if theta.ndim != 1 or theta.shape != m.shape or theta.size < 1:
            raise ValueError("theta and m must be 1-d arrays of equal positive length")
        # O(d) checks on Python floats; NaN passes every comparison as False, inf breaks kappa
        th, ml = theta.tolist(), m.tolist()
        if not all(map(math.isfinite, th + ml)):
            raise ValueError("theta and m must be finite")
        j = next((j for j in range(len(th) - 1) if th[j + 1] >= th[j]), None)
        if j is not None:
            raise DegenerateSpectrum(
                f"theta_{j} = {theta[j]!r} is not strictly above theta_{j + 1} = {theta[j + 1]!r}"
            )
        if min(ml) <= 0:
            raise ValueError("multiplicities must be positive")
        if abs(ml[0] - 1.0) > 1e-6:
            raise ValueError(f"m_0 = {m[0]} but the top eigenvalue must be simple")
        if abs(m.sum() - n) > 1e-6 * max(1.0, n):
            raise ValueError(f"multiplicities sum to {m.sum()}, expected n = {n}")
        log_gaps = np.subtract.outer(theta, theta)  # the one (d+1)^2 array, updated in place
        np.abs(log_gaps, out=log_gaps)
        log_gaps.flat[::theta.size + 1] = 1.0  # the diagonal
        log_pi = np.log(log_gaps, out=log_gaps).sum(axis=1)
        log_kappa = log_pi[0] - log_pi  # log_kappa[0] = 0 exactly, so kappa[0] = 1
        with np.errstate(over="ignore"):
            kappa = np.exp(log_kappa)
        kappa[2::2] *= -1.0
        for a in (theta, m, kappa, log_kappa):
            a.setflags(write=False)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "log_kappa", log_kappa)

    @property
    def d(self) -> int:
        return self.theta.size - 1


class SpectralData:
    """First/second eigenmatrix pair and friends; every array is read-only.

    Row ordering convention: row 0 is the valency row (P_i(0) = k_i); the
    remaining rows are sorted by strictly decreasing theta_j = P_1(j), ties
    broken by ascending multiplicity and then lexicographically.  On distinct
    theta, ``theta`` and ``multiplicities`` are the Spectrum's own arrays.
    """

    __slots__ = ("P", "Q", "theta", "multiplicities", "tie", "spectrum", "pq_residual",
                 "multiplicity_residual")

    def __init__(
        self, P: np.ndarray, Q: np.ndarray, theta: np.ndarray, multiplicities: np.ndarray,
        tie: tuple | None,  # descending sorted positions of the highest tied theta pair
        spectrum: Spectrum | None,  # theta and multiplicities; None when theta are tied
        pq_residual: float,  # max |P Q - n I|
        multiplicity_residual: float,  # max |m - round(m)|
    ):
        for a in (P, Q, theta, multiplicities):
            a.setflags(write=False)
        self.P = P
        self.Q = Q
        self.theta = theta
        self.multiplicities = multiplicities
        self.tie = tie
        self.spectrum = spectrum
        self.pq_residual = pq_residual
        self.multiplicity_residual = multiplicity_residual


def eigen_groups(w: np.ndarray) -> list:
    """Index ranges [a, b) of the clusters of the non-empty ascending array ``w``.

    A cluster ends where a gap exceeds EIG_GROUP_RTOL * max(1, max|w|).  This
    is the one place that decides whether two computed eigenvalues are equal.
    """
    v = np.asarray(w, dtype=float).tolist()
    thr = EIG_GROUP_RTOL * max(1.0, -v[0], v[-1])  # ascending: max|w| sits at an end
    edges = [0, *(i for i in range(1, len(v)) if v[i] - v[i - 1] > thr), len(v)]
    return list(zip(edges[:-1], edges[1:]))


def _split_blocks(mats):
    """Common eigenvectors of a family of commuting symmetric (d+1) x (d+1) matrices.

    The first matrix is diagonalized whole; only its degenerate eigenspaces
    are refined by the next matrices, and ``mats`` is left as soon as every
    block is 1-dimensional.  Returns the (d+1) x (d+1) matrix whose columns
    are the common unit eigenvectors, or raises if the family does not
    separate all eigenspaces.
    """
    mats = iter(mats)
    w, V = np.linalg.eigh(next(mats))
    groups = eigen_groups(w)
    if len(groups) == V.shape[1]:
        return V
    blocks = [V[:, a:b] for a, b in groups]
    for S in mats:
        refined = []
        for V in blocks:
            if V.shape[1] == 1:
                refined.append(V)
                continue
            T = V.T @ S @ V
            T = (T + T.T) / 2.0
            w, U = np.linalg.eigh(T)
            refined.extend(V @ U[:, a:b] for a, b in eigen_groups(w))
        blocks = refined
        if all(V.shape[1] == 1 for V in blocks):
            break
    stuck = [V.shape[1] for V in blocks if V.shape[1] > 1]
    if stuck:
        raise EigenSplitFailure(
            f"eigenspaces of dimensions {stuck} could not be split by the "
            f"intersection matrices; identical P-rows should be impossible"
        )
    return np.hstack(blocks)


def spectral_data(s: AssociationScheme) -> SpectralData:
    """Compute P, Q, theta and the multiplicities from the intersection numbers.

    Raises EigenSplitFailure if the eigenstructure cannot be separated, or the
    multiplicities or P Q = nI fail beyond tolerance.
    """
    n, d = s.n, s.d
    k = s.valencies.astype(float)
    sq = np.sqrt(k)

    # S_i = diag(sqrt k) B_i diag(sqrt k)^-1 is symmetric by the identity
    # k_k p^k_{ij} = k_j p^j_{ik}, which AssociationScheme checks exactly, so
    # averaging S_i with its transpose only evens out rounding.  Each S_i is
    # built when _split_blocks reads it; a simple spectrum stops after S_1.
    scaled = ((sq[:, None] * s.slab(i)) / sq[None, :] for i in range(1, d + 1))
    U = sq[:, None] * _split_blocks((S + S.T) / 2.0 for S in scaled)
    if (np.abs(U[0]) < 1e-12 * np.sqrt((U * U).sum(axis=0))).any():  # U[0] vs column norms
        raise EigenSplitFailure("eigenvector with vanishing identity coordinate")
    rows = (U / U[0]).T

    # one row must be the (exactly known) valency row; pin it to index 0
    dists = np.abs(rows - k).max(axis=1)
    j0 = int(dists.argmin())
    if dists[j0] > 1e-6 * max(1.0, k.max()):
        raise EigenSplitFailure("no computed row matches the valency row")
    # a C-order copy, so the row sums below add in the order they always have
    rest = rows.take([j for j in range(d + 1) if j != j0], axis=0)
    mults = n / (rest * rest / k).sum(axis=1)

    # one grouping of all d+1 theta, the valency row's k_1 among them, gives the tie and the
    # sort key on tied theta (a cluster keyed by its smallest member); else -theta decides
    thetas = np.concatenate(([k[1]], rest[:, 1]))
    order = thetas.argsort()
    groups = eigen_groups(thetas[order])
    tied = [b for a, b in groups if b - a > 1]
    if tied:
        snapped = np.empty_like(thetas)
        for a, b in groups:
            snapped[order[a:b]] = thetas[order[a]]
        # sort by (-snapped, multiplicity, the row rounded to 9 places), stably;
        # lexsort reads its last key first
        keyed = np.lexsort((*np.round(rest, 9).T[::-1], mults, -snapped[1:]))
    else:
        keyed = (-rest[:, 1]).argsort()
    P = np.concatenate((k[None], rest[keyed]))
    m = np.concatenate(((1.0,), mults[keyed]))  # m_0 = n / sum k = 1 exactly
    ml = m.tolist()
    m_resid = max(abs(x - round(x)) for x in ml)
    if m_resid > INTEGRALITY_TOL or min(map(round, ml)) < 1 or sum(map(round, ml)) != n:
        raise EigenSplitFailure(
            f"multiplicities {m} do not round to positive integers summing to {n}"
        )

    # Q_i(l) = m_i P_l(i) / k_l (Bannai-Ito 1984), so P Q = n I measures the
    # orthogonality of P's rows
    Q = (P.T * m) / k[:, None]
    PQ = P @ Q
    PQ.ravel()[::d + 2] -= n  # P Q - n I, in place
    pq_resid = float(np.abs(PQ).max())
    if pq_resid > 1e-7 * n:
        raise EigenSplitFailure(f"P Q = nI fails (residual {pq_resid:.3e})")

    # P's rows hold the same d+1 theta, so the groups of their ascending order stand
    tie = (d + 1 - tied[-1], d + 2 - tied[-1]) if tied else None
    # no tie: singleton groups, so theta falls strictly from k_1 and Spectrum accepts it
    spectrum = Spectrum(theta=P[:, 1], m=m, n=n) if tie is None else None
    theta, m = (P[:, 1].copy(), m) if spectrum is None else (spectrum.theta, spectrum.m)
    return SpectralData(
        P=P, Q=Q, theta=theta, multiplicities=m, tie=tie, spectrum=spectrum,
        pq_residual=pq_resid, multiplicity_residual=m_resid,
    )


def primitive_idempotents(s: AssociationScheme, sd: SpectralData) -> tuple:
    """The projections E_j = (1/n) sum_m Q_j(m) A_m, built straight off the relation matrix."""
    return tuple(sd.Q[s.rel, j] / s.n for j in range(s.d + 1))


def krein_parameters(s: AssociationScheme, sd: SpectralData) -> np.ndarray:
    """The dual intersection numbers q1[k, j] = q^k_{1j}, read-only: the one slab q_poly reads.

    q^k_{ij} = (m_i m_j / n) sum_l P_l(i) P_l(j) P_l(k) / k_l^2
    (Bannai-Ito 1984; Brouwer-Cohen-Neumaier 1989) gives the coefficients of
    n E_i o E_j in the idempotent basis without forming any n x n matrix;
    slab i = 1 is one (d+1)^2 product.  The other slabs are not computed:
    on a validated scheme every q^k_{ij} >= 0 is a theorem (the Krein
    conditions, Scott 1973), so their minimum would only measure rounding.
    """
    W = sd.P / s.valencies  # W[i, l] = P_l(i) / k_l
    m = sd.multiplicities
    q1 = (((W[1] * W) @ sd.P.T) * (m[1] * m / s.n)[:, None]).T
    q1.flags.writeable = False
    return q1


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
    # x.dot(y) is the BLAS call of x @ y with less dispatch: it counts at small d
    for i in range(1, d + 1):
        V, v = values[:i], sp.theta * values[i - 1]
        floor = GS_BREAKDOWN_RTOL * float(w.dot(v * v))  # relative to ||theta p_{i-1}||^2
        for _ in range(2):  # classical pass + one re-orthogonalization pass
            v -= (V.dot(w * v) / norms[:i]).dot(V)
        norm = float(w.dot(v * v))
        if norm < floor:
            raise NumericalBreakdown(f"||q_{i}||^2 = {norm:.3e} collapsed during Gram-Schmidt")
        # rescale now (q_i(theta_0) / <q_i, q_i>): unnormalized rows overflow by degree ~300
        v *= v[0] / norm
        values[i] = v
        norms[i] = float(w.dot(v * v))
    return values


def spectral_excess(sp: Spectrum) -> float:
    """p_d(theta_0) = n / sum_h pi_0^2 / (m_h pi_h^2), with pi_h = prod_{j != h} |theta_h - theta_j|.

    kappa_h = -m_h p_d(theta_h) / p_d(theta_0) and <p_d, p_d> = p_d(theta_0)
    give this closed form (Fiol and Garriga, J. Combin. Theory Ser. B 71
    (1997); van Dam, Electron. J. Combin. 15 (2008) R129).  The sum is taken in
    log space from sp.log_kappa = log(pi_0 / pi_h); a value far below float64's
    range (about 1e-1060 for a random 12-regular graph on 729 vertices,
    d = 728) comes out as 0.0.
    """
    e = 2 * sp.log_kappa - np.log(sp.m)
    top = e.max()
    return float(sp.n * np.exp(-top - np.log(np.exp(e - top).sum())))
