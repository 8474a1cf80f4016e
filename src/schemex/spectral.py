"""Spectral data of a scheme: eigenmatrices P and Q, multiplicities, idempotents, Krein parameters.

The rows of P are recovered as the common left eigenvectors of the
intersection matrices B_i = (p^k_{ij})_{k,j}, which represent multiplication
by A_i on the (d+1)-dimensional adjacency algebra.  Conjugating B_i by
diag(sqrt(k)) turns the whole family into commuting *symmetric* matrices, so
everything reduces to eigh plus eigenspace refinement: diagonalize the first
matrix, then split any degenerate eigenspace with the next one, and so on.
Of the Krein parameters only the slab q^k_{1j} that the dual chain reads is
computed, in closed form from P.
"""

from __future__ import annotations

import numpy as np

from .poly import Spectrum
from .scheme_core import AssociationScheme, IntersectionTensor

#: two computed eigenvalues count as equal when their gap is at most this,
#: relative to max(1, spectral radius); read only by eigen_groups
EIG_GROUP_RTOL = 1e-9

#: multiplicities must land within this of a positive integer
INTEGRALITY_TOL = 1e-6


class EigenSplitFailure(RuntimeError):
    """The intersection matrices failed to separate the common eigenspaces."""


class SpectralData:
    """First/second eigenmatrix pair and friends.

    Row ordering convention: row 0 is the valency row (P_i(0) = k_i); the
    remaining rows are sorted by strictly decreasing theta_j = P_1(j), ties
    broken by ascending multiplicity and then lexicographically.
    """

    __slots__ = ("n", "d", "valencies", "P", "Q", "theta", "multiplicities", "tie", "spectrum",
                 "pq_residual", "multiplicity_residual")

    def __init__(
        self, n: int, d: int, valencies: np.ndarray, P: np.ndarray, Q: np.ndarray,
        theta: np.ndarray, multiplicities: np.ndarray,
        tie: tuple | None,  # descending sorted positions of the highest tied theta pair
        spectrum: Spectrum | None,  # theta and multiplicities; None when theta are tied
        pq_residual: float,  # max |P Q - n I|
        multiplicity_residual: float,  # max |m - round(m)|
    ):
        self.n = n
        self.d = d
        self.valencies = valencies
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


def spectral_data(t: IntersectionTensor) -> SpectralData:
    """Compute P, Q, theta and the multiplicities from the intersection tensor.

    Raises EigenSplitFailure if the eigenstructure cannot be separated or the
    resulting multiplicities/Q fail their exact identities beyond tolerance.
    """
    n, d = t.n, t.d
    k = t.valencies.astype(float)
    sq = np.sqrt(k)

    # S_i = diag(sqrt k) B_i diag(sqrt k)^-1 is symmetric by the identity
    # k_k p^k_{ij} = k_j p^j_{ik}, which IntersectionTensor checks exactly, so
    # averaging S_i with its transpose only evens out rounding.  Each S_i is
    # built when _split_blocks reads it; a simple spectrum stops after S_1.
    scaled = ((sq[:, None] * t.slab(i)) / sq[None, :] for i in range(1, d + 1))
    U = sq[:, None] * _split_blocks((S + S.T) / 2.0 for S in scaled)
    if (np.abs(U[0]) < 1e-12 * np.linalg.norm(U, axis=0)).any():
        raise EigenSplitFailure("eigenvector with vanishing identity coordinate")
    rows = (U / U[0]).T

    # one row must be the (exactly known) valency row; pin it to index 0
    dists = np.abs(rows - k).max(axis=1)
    j0 = int(np.argmin(dists))
    if dists[j0] > 1e-6 * max(1.0, k.max()):
        raise EigenSplitFailure("no computed row matches the valency row")
    rest = rows[np.arange(d + 1) != j0]
    mults = n / (rest * rest / k).sum(axis=1)

    # one grouping of all d+1 theta, the valency row's k_1 among them, gives both
    # the sort key (every theta of a cluster keyed by its smallest member) and the tie
    thetas = np.concatenate(([k[1]], rest[:, 1]))
    order = np.argsort(thetas)
    groups = eigen_groups(thetas[order])
    snapped = np.empty_like(thetas)
    for a, b in groups:
        snapped[order[a:b]] = thetas[order[a]]
    # sort by (-snapped, multiplicity, the row rounded to 9 places), stably;
    # lexsort reads its last key first
    keyed = np.lexsort((*np.round(rest, 9).T[::-1], mults, -snapped[1:]))
    P = np.vstack([k, rest[keyed]])
    m = np.concatenate(([n / k.sum()], mults[keyed]))
    m_round = np.round(m)
    m_resid = float(np.abs(m - m_round).max())
    if m_resid > INTEGRALITY_TOL or m_round.min() < 1 or int(m_round.sum()) != n:
        raise EigenSplitFailure(
            f"multiplicities {m} do not round to positive integers summing to {n}"
        )

    nI = n * np.eye(d + 1)
    Q = np.linalg.solve(P, nI)
    pq_resid = float(np.abs(P @ Q - nI).max())
    if pq_resid > 1e-7 * n:
        raise EigenSplitFailure(f"P Q = nI fails (residual {pq_resid:.3e})")
    # cross-check against Q_i(l) = m_i P_l(i) / k_l, entrywise
    Q_alt = (P.T * m[None, :]) / k[:, None]
    if np.abs(Q - Q_alt).max() > 1e-6 * max(1.0, np.abs(Q).max()):
        raise EigenSplitFailure("Q disagrees with m_i P_l(i)/k_l")

    theta = P[:, 1].copy()
    # P's rows hold the same d+1 theta, so the groups of their ascending order stand
    tied = [b for a, b in groups if b - a > 1]
    tie = (d + 1 - tied[-1], d + 2 - tied[-1]) if tied else None
    # no tie: singleton groups, so theta falls strictly from k_1 and Spectrum accepts it
    spectrum = Spectrum(theta=theta.copy(), m=m.copy(), n=n) if tie is None else None
    return SpectralData(
        n=n, d=d, valencies=t.valencies.copy(),
        P=P, Q=Q, theta=theta, multiplicities=m, tie=tie, spectrum=spectrum,
        pq_residual=pq_resid, multiplicity_residual=m_resid,
    )


def primitive_idempotents(s: AssociationScheme, sd: SpectralData) -> tuple:
    """The projections E_j = (1/n) sum_m Q_j(m) A_m, built straight off the relation matrix."""
    return tuple(sd.Q[s.rel, j] / s.n for j in range(s.d + 1))


def krein_parameters(sd: SpectralData) -> np.ndarray:
    """The dual intersection numbers q1[k, j] = q^k_{1j}, read-only: the one slab q_poly reads.

    q^k_{ij} = (m_i m_j / n) sum_l P_l(i) P_l(j) P_l(k) / k_l^2
    (Bannai-Ito 1984; Brouwer-Cohen-Neumaier 1989) gives the coefficients of
    n E_i o E_j in the idempotent basis without forming any n x n matrix;
    slab i = 1 is one (d+1)^2 product.  The other slabs are not computed:
    on a validated scheme every q^k_{ij} >= 0 is a theorem (the Krein
    conditions, Scott 1973), so their minimum would only measure rounding.
    """
    W = sd.P / sd.valencies  # W[i, l] = P_l(i) / k_l
    m = sd.multiplicities
    q1 = (((W[1] * W) @ sd.P.T) * (m[1] * m / sd.n)[:, None]).T
    q1.flags.writeable = False
    return q1
