"""Spectral data of a scheme: eigenmatrices P and Q, multiplicities, idempotents, Krein parameters.

The rows of P are recovered as the common left eigenvectors of the
intersection matrices B_i = (p^k_{ij})_{k,j}, which represent multiplication
by A_i on the (d+1)-dimensional adjacency algebra.  Conjugating B_i by
diag(sqrt(k)) turns the whole family into commuting *symmetric* matrices, so
everything reduces to eigh plus eigenspace refinement: diagonalize the first
matrix, then split any degenerate eigenspace with the next one, and so on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scheme_core import AssociationScheme, IntersectionTensor

#: two computed eigenvalues count as equal below this, relative to the
#: spectral radius of the matrix being split
EIG_GROUP_RTOL = 1e-9

#: multiplicities must land within this of a positive integer
INTEGRALITY_TOL = 1e-6


class EigenSplitFailure(RuntimeError):
    """The intersection matrices failed to separate the common eigenspaces."""


@dataclass(eq=False)
class SpectralData:
    """First/second eigenmatrix pair and friends.

    Row ordering convention: row 0 is the valency row (P_i(0) = k_i); the
    remaining rows are sorted by strictly decreasing theta_j = P_1(j), ties
    broken by ascending multiplicity and then lexicographically.
    """

    n: int
    d: int
    valencies: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    theta: np.ndarray
    multiplicities: np.ndarray


@dataclass(eq=False)
class KreinTensor:
    """Dual intersection numbers q^k_{ij}, indexed q[k, i, j]."""

    d: int
    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        scale = max(1.0, float(np.abs(q).max()))
        if np.abs(q - q.transpose(0, 2, 1)).max() > 1e-8 * scale:
            raise ValueError("Krein tensor is not symmetric in its lower indices")
        object.__setattr__(self, "q", q)

    @property
    def min_value(self) -> float:
        return float(self.q.min())


def _split_blocks(dim, mats, eig_rtol):
    """Common eigenvectors of a family of commuting symmetric dim x dim matrices.

    ``mats`` is iterated lazily and left as soon as every block is
    1-dimensional.  Returns a list of those blocks (unit vectors) or raises if
    the family does not separate all eigenspaces.
    """
    blocks = [np.eye(dim)]
    for S in mats:
        refined = []
        for V in blocks:
            if V.shape[1] == 1:
                refined.append(V)
                continue
            T = V.T @ S @ V
            T = (T + T.T) / 2.0
            w, U = np.linalg.eigh(T)
            thr = eig_rtol * max(1.0, float(np.abs(w).max()))
            start = 0
            for pos in range(1, len(w) + 1):
                if pos == len(w) or w[pos] - w[pos - 1] > thr:
                    refined.append(V @ U[:, start:pos])
                    start = pos
        blocks = refined
        if all(V.shape[1] == 1 for V in blocks):
            break
    stuck = [V.shape[1] for V in blocks if V.shape[1] > 1]
    if stuck:
        raise EigenSplitFailure(
            f"eigenspaces of dimensions {stuck} could not be split by the "
            f"intersection matrices; identical P-rows should be impossible"
        )
    return [V[:, 0] for V in blocks]


def _snap(values: np.ndarray, thr: float) -> np.ndarray:
    """Replace each value by the representative of its tolerance-cluster."""
    order = np.argsort(values)
    snapped = values.astype(float).copy()
    rep = None
    prev = None
    for idx in order:
        v = values[idx]
        if prev is None or v - prev > thr:
            rep = v
        snapped[idx] = rep
        prev = v
    return snapped


def spectral_data(t: IntersectionTensor, *, eig_rtol: float = EIG_GROUP_RTOL) -> SpectralData:
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
    scaled = ((sq[:, None] * t.p[:, i, :]) / sq[None, :] for i in range(1, d + 1))
    vecs = _split_blocks(d + 1, ((S + S.T) / 2.0 for S in scaled), eig_rtol)

    rows = []
    for v in vecs:
        u = sq * v
        if abs(u[0]) < 1e-12 * np.linalg.norm(u):
            raise EigenSplitFailure("eigenvector with vanishing identity coordinate")
        rows.append(u / u[0])

    # one row must be the (exactly known) valency row; pin it to index 0
    dists = [float(np.abs(r - k).max()) for r in rows]
    j0 = int(np.argmin(dists))
    if dists[j0] > 1e-6 * max(1.0, k.max()):
        raise EigenSplitFailure("no computed row matches the valency row")
    rest = [r for j, r in enumerate(rows) if j != j0]

    def mult(row):
        return n / float((row * row / k).sum())

    thetas = np.array([r[1] for r in rest])
    snapped = _snap(thetas, eig_rtol * max(1.0, float(np.abs(thetas).max(initial=0.0))))
    keyed = sorted(
        range(len(rest)),
        key=lambda j: (-snapped[j], mult(rest[j]), tuple(np.round(rest[j], 9))),
    )
    P = np.vstack([k] + [rest[j] for j in keyed])

    m = n / (P * P / k[None, :]).sum(axis=1)
    m_round = np.round(m)
    if np.abs(m - m_round).max() > INTEGRALITY_TOL or m_round.min() < 1 or int(m_round.sum()) != n:
        raise EigenSplitFailure(
            f"multiplicities {m} do not round to positive integers summing to {n}"
        )

    Q = np.linalg.solve(P, n * np.eye(d + 1))
    pq_resid = np.abs(P @ Q - n * np.eye(d + 1)).max()
    if pq_resid > 1e-7 * n:
        raise EigenSplitFailure(f"P Q = nI fails (residual {pq_resid:.3e})")
    # cross-check against Q_i(l) = m_i P_l(i) / k_l, entrywise
    Q_alt = (P.T * m[None, :]) / k[:, None]
    if np.abs(Q - Q_alt).max() > 1e-6 * max(1.0, np.abs(Q).max()):
        raise EigenSplitFailure("Q disagrees with m_i P_l(i)/k_l")

    return SpectralData(
        n=n, d=d, valencies=t.valencies.copy(),
        P=P, Q=Q, theta=P[:, 1].copy(), multiplicities=m,
    )


def primitive_idempotents(s: AssociationScheme, sd: SpectralData) -> tuple:
    """The projections E_j = (1/n) sum_m Q_j(m) A_m, built straight off the relation matrix."""
    return tuple(sd.Q[s.rel, j] / s.n for j in range(s.d + 1))


def krein_parameters(sd: SpectralData) -> KreinTensor:
    """Dual intersection numbers from the first eigenmatrix, in closed form.

    q^k_{ij} = (m_i m_j / n) sum_l P_l(i) P_l(j) P_l(k) / k_l^2
    (Bannai-Ito 1984; Brouwer-Cohen-Neumaier 1989) gives the coefficients of
    n E_i o E_j in the idempotent basis without forming any n x n matrix.
    The sum over l runs as one ((d+1)^2 x (d+1)) @ ((d+1) x (d+1)) product.
    """
    d, n = sd.d, sd.n
    P = sd.P
    m = sd.multiplicities
    W = P / sd.valencies  # W[i, l] = P_l(i) / k_l
    pairs = (W[:, None, :] * W[None, :, :]).reshape((d + 1) ** 2, d + 1)
    q_ijk = (pairs @ P.T).reshape(d + 1, d + 1, d + 1)
    del pairs  # the tensor is (d+1)^3; hold at most two of that size
    q_ijk *= (np.outer(m, m) / n)[:, :, None]
    return KreinTensor(d=d, q=q_ijk.transpose(2, 0, 1))
