"""Test-only references for quantities the library computes another way.

These are the direct definitions: the Krein parameters as the expansion of
every entrywise product E_i o E_j of primitive idempotents, the M* product as
a chain of dense n x n matrix products, kappa_i as one scalar product loop,
the Krein-chain band check as a loop over every entry, and the route column
deviations one column at a time.  The first two cost O(d^3 n^2) and O(d n^3),
so tests only run them on small or mid-sized schemes.

The loop references come next: the forms the library had before it moved
to whole (d+1)-arrays.  They are spectral_data's per-row bookkeeping with
its Python sort key (and that key alone, full_key_row_order), the per-slab Krein parameters and intersection-tensor
checks, and the breadth-first walks by np.flatnonzero.  Tests hold the
library to them bit for bit, and to the loop checks' failure messages.  The
library computes only Krein slab 1, so the slab loop is also the dense
q[k, i, j] on which the tests assert the Krein conditions.
Three more are forms the library had before: the intersection tensor
counted at representatives found by sorting all n^2 relation entries,
Graph.from_edges one pair at a time, and the file reader that turned every
token into a Python string.

array_slabs is a second slab source beside AssociationScheme: the slabs
B_i of a distance-regular graph's scheme, in distance order, computed from
its intersection array in exact integers when a stage asks for them.  So the
analysis runs on it at d = 2500 without a relation matrix of 5000^2 entries.
intersection_array gives the arrays of the generated metric families.
dense(t) stacks every slab of a slab source into the (d+1)^3 array
p[k, i, j] = p^k_{ij}, for the tests that compare or relabel all of it, and
dense_slabs(p) is the slab source over such an array.

Beside them sit identities no library stage reads: the 0/1 adjacency matrix
of a relation, the spectrum-weighted inner product, the Lagrange power
identity (with RepeatedBeta for repeated nodes) and the graph-property
residual kappa_i + m_i p_d(theta_i) / p_d(theta_0), the identity that
schemex.spectral.spectral_excess's closed form comes from.  reorder_relations
relabels the relations of a scheme through its relation matrix and
validates the result again with build_scheme, as the library's own
generators do.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from schemex.cli import InputError
from schemex.detect import PerronNotSeparated
from schemex.scheme_core import RelationMatrix, build_scheme
from schemex.spectral import (
    INTEGRALITY_TOL,
    EigenSplitFailure,
    SpectralData,
    Spectrum,
    eigen_groups,
    primitive_idempotents,
)


def krein_expansion(s, sd, *, residual_tol: float = 1e-8) -> np.ndarray:
    """q[k, i, j] = n * (coefficient of E_k in E_i o E_j), by trace inner products."""
    d, n = s.d, s.n
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


def reorder_relations(s, perm):
    """``s`` with relation i relabelled perm[i], validated again by build_scheme."""
    rel = np.asarray(perm, dtype=np.uint16)[s.rel]
    return build_scheme(RelationMatrix(n=s.n, d=s.d, rel=rel))


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


def split_blocks_loop(dim, mats):
    """Common eigenvectors, refined from the identity block by block; a list of unit vectors."""
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
    return [V[:, 0] for V in blocks]


def spectral_data_loop(t) -> SpectralData:
    """schemex.spectral.spectral_data with one step per eigenvector row and a sorted() key."""
    n, d = t.n, t.d
    k = t.valencies.astype(float)
    sq = np.sqrt(k)
    scaled = ((sq[:, None] * t.slab(i)) / sq[None, :] for i in range(1, d + 1))
    vecs = split_blocks_loop(d + 1, ((S + S.T) / 2.0 for S in scaled))

    rows = []
    for v in vecs:
        u = sq * v
        if abs(u[0]) < 1e-12 * np.linalg.norm(u):
            raise EigenSplitFailure("eigenvector with vanishing identity coordinate")
        rows.append(u / u[0])
    dists = [float(np.abs(r - k).max()) for r in rows]
    j0 = int(np.argmin(dists))
    if dists[j0] > 1e-6 * max(1.0, k.max()):
        raise EigenSplitFailure("no computed row matches the valency row")
    rest = [r for j, r in enumerate(rows) if j != j0]

    def mult(row):
        return n / float((row * row / k).sum())

    thetas = np.array([r[1] for r in rest])
    order = np.argsort(thetas)
    snapped = np.empty_like(thetas)
    for a, b in eigen_groups(thetas[order]):
        snapped[order[a:b]] = thetas[order[a]]
    keyed = sorted(
        range(len(rest)),
        key=lambda j: (-snapped[j], mult(rest[j]), tuple(np.round(rest[j], 9))),
    )
    P = np.vstack([k] + [rest[j] for j in keyed])

    m = n / (P * P / k[None, :]).sum(axis=1)
    m_round = np.round(m)
    m_resid = float(np.abs(m - m_round).max())
    if m_resid > INTEGRALITY_TOL or m_round.min() < 1 or int(m_round.sum()) != n:
        raise EigenSplitFailure(
            f"multiplicities {m} do not round to positive integers summing to {n}"
        )
    Q = (P.T * m) / k[:, None]
    pq_resid = float(np.abs(P @ Q - n * np.eye(d + 1)).max())
    if pq_resid > 1e-7 * n:
        raise EigenSplitFailure(f"P Q = nI fails (residual {pq_resid:.3e})")

    theta = P[:, 1].copy()
    tied = [b for a, b in eigen_groups(np.sort(theta)) if b - a > 1]
    tie = (d + 1 - tied[-1], d + 2 - tied[-1]) if tied else None
    spectrum = Spectrum(theta=theta.copy(), m=m.copy(), n=n) if tie is None else None
    return SpectralData(
        P=P, Q=Q, theta=theta, multiplicities=m, tie=tie, spectrum=spectrum,
        pq_residual=pq_resid, multiplicity_residual=m_resid,
    )


def full_key_row_order(P, m) -> list:
    """Positions into P[1:] of its rows sorted by the full key of the row convention.

    The key is (-theta snapped to the smallest member of its eigen_groups cluster,
    the multiplicity, the row rounded to 9 places), compared as a tuple and sorted
    stably, with the valency row's theta P[0, 1] grouped with the others.  On
    distinct theta only -theta decides, which is how spectral_data orders them.
    """
    thetas = P[:, 1]
    order = np.argsort(thetas)
    snapped = np.empty_like(thetas)
    for a, b in eigen_groups(thetas[order]):
        snapped[order[a:b]] = thetas[order[a]]
    keys = [(-snapped[j], m[j], *np.round(P[j], 9)) for j in range(1, len(P))]
    return sorted(range(len(keys)), key=keys.__getitem__)


def krein_slabs_loop(s, sd):
    """The slabs q[:, i, :] of the dual intersection numbers, indexed [k, j], one per step."""
    d, n = s.d, s.n
    P = sd.P
    m = sd.multiplicities
    W = P / s.valencies
    for i in range(d + 1):
        yield (((W[i] * W) @ P.T) * (m[i] * m / n)[:, None]).T


def tensor_checks_loop(d, p) -> None:
    """AssociationScheme's checks on every slab of the int64 array p, identity by identity.

    Raises the ValueError the library raises, with the same message, or returns None.
    """
    m = d + 1
    if p.shape != (m, m, m):
        raise ValueError(f"tensor has shape {p.shape}, expected {(m, m, m)}")
    if p.min() < 0:
        raise ValueError("intersection numbers must be non-negative")
    k = p[0].diagonal()
    if any(not np.array_equal(pk, pk.T) for pk in p):
        raise ValueError("p^k_{ij} != p^k_{ji}; input is not a symmetric scheme")
    if not np.array_equal(p[0], np.diag(k)):
        raise ValueError("p^0_{ij} must equal delta_{ij} k_i; input is not a scheme")
    if not np.array_equal(p[:, 0, :], np.eye(m, dtype=np.int64)):
        raise ValueError("p^k_{0j} must equal delta_{kj}; input is not a scheme")
    kb = np.empty((m, m), dtype=np.int64)
    for i in range(m):
        np.multiply(k[:, None], p[:, i, :], out=kb)
        if not np.array_equal(kb.sum(axis=0), k[i] * k):
            raise ValueError("sum_k p^k_{ij} k_k != k_i k_j; input is not a scheme")
        if (kb != kb.T).any():
            raise ValueError(f"k_k p^k_{{{i}j}} != k_j p^j_{{{i}k}}; not a symmetric scheme")
    if k.min() < 1:
        raise ValueError(f"k_{int(np.argmin(k))} = 0: every class must be nonempty")


def generates_algebra_loop(p, i) -> bool:
    """Breadth-first search from class 0 on the support of B_i finds one class per level."""
    m = p.shape[0]
    seen = np.zeros(m, dtype=bool)
    seen[0] = True
    c = 0
    for _ in range(m - 1):
        level = np.flatnonzero((p[:, i, c] > 0) & ~seen)
        if level.size != 1:
            return False
        c = int(level[0])
        seen[c] = True
    return True


def greedy_chain_loop(support, d):
    """From each relation cur, step to the one unused j with support[j, cur]: (ordering, witness)."""
    order = [0, 1]
    used = {0, 1}
    while len(order) < d + 1:
        cur = order[-1]
        cands = [j for j, on in enumerate(support[:, cur].tolist()) if on and j not in used]
        if len(cands) != 1:
            return None, (
                f"chain {tuple(order)} cannot be extended from {cur}: "
                f"{len(cands)} candidates {cands}"
            )
        order.append(cands[0])
        used.add(cands[0])
    return tuple(order), None


def nstar_sets_loop(t, sd) -> tuple:
    """First-appearance sets of the relations in the powers of A_1, by breadth-first search."""
    d = t.d
    support = t.slab(1) > 0
    first = [None] * (d + 1)
    first[0] = 0
    frontier = [0]
    while frontier:
        reached = []
        for j in frontier:
            for k in np.flatnonzero(support[:, j]).tolist():
                if first[k] is None:
                    first[k] = first[j] + 1
                    reached.append(k)
        frontier = reached
    if any(f is None for f in first):
        unreached = [j for j, f in enumerate(first) if f is None]
        order = np.argsort(sd.theta)
        group = next(order[a:b] for a, b in eigen_groups(sd.theta[order]) if 0 in order[a:b])
        near = sorted(int(j) for j in group if j != 0)
        raise PerronNotSeparated(
            f"relations {unreached} never appear in powers of A_1 up to d = {d}; "
            f"theta_0 = {sd.theta[0]:g} is shared (rows {near} by the float data)"
        )
    return tuple(frozenset(j for j, f in enumerate(first) if f == h) for h in range(d + 1))


def tensor_from_representatives_full(rel, d) -> np.ndarray:
    """p[k, i, j] counted at each class's row-major first pair, found by a stable sort of all n^2 entries."""
    m = d + 1
    _, first = np.unique(rel.ravel(), return_index=True)
    x, y = np.divmod(first, rel.shape[0])
    key = (np.arange(m)[:, None] * m + rel[x]) * m + rel[:, y].T
    return np.bincount(key.ravel(), minlength=m ** 3).reshape(m, m, m)


def dense(t) -> np.ndarray:
    """p[k, i, j] = p^k_{ij} of a slab source: every slab t.slab(i) stacked as p[:, i, :]."""
    return np.stack([t.slab(i) for i in range(t.d + 1)], axis=1)


def dense_slabs(p):
    """The slab source over a (d+1)^3 array p[k, i, j]: d, n, the valencies
    p^0_{ii} and slab(i) = p[:, i, :], read-only, as a stage reads a tensor."""
    p = np.array(p, dtype=np.int64)
    p.flags.writeable = False
    k = p[0].diagonal()
    return SimpleNamespace(d=p.shape[0] - 1, n=int(k.sum()), valencies=k, slab=lambda i: p[:, i, :])


def _int_label(x):
    """The integer vertex x names, or None: a string is read by int(), anything else must
    equal its int()."""
    if isinstance(x, str):
        try:
            return int(x)
        except ValueError:
            return None
    try:
        return int(x) if int(x) == x else None
    except (TypeError, ValueError, OverflowError):
        return None


def from_edges_loop(n: int, edges) -> np.ndarray:
    """Graph.from_edges one pair at a time: the read-only bool adjacency matrix, or its ValueError."""
    if n < 1:
        raise ValueError("graph needs at least one vertex")
    adj = np.zeros((n, n), dtype=bool)
    for a, b in edges:
        u, v = _int_label(a), _int_label(b)
        if u is None or v is None:
            raise ValueError(f"edge ({a},{b}) has a vertex that is not an integer")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range 0..{n - 1}")
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        if adj[u, v]:
            raise ValueError(f"duplicate edge ({u},{v})")
        adj[u, v] = adj[v, u] = True
    adj.flags.writeable = False
    return adj


def read_ints_general(path, header: str):
    """cli._read_ints before its canonical-file fast path: every token a Python string.

    The file is decoded as UTF-8 text, the header read by int() and the body by
    np.array(tokens, dtype=np.int64); every failure is an InputError.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            tokens = fh.read().split()
    except (OSError, ValueError) as e:  # ValueError: a UnicodeDecodeError
        raise InputError(str(e)) from None
    if len(tokens) < 2:
        raise InputError(f"{path}: missing '{header}' header")
    try:
        return int(tokens[0]), int(tokens[1]), np.array(tokens[2:], dtype=np.int64)
    except ValueError as e:
        raise InputError(f"{path}: non-integer token ({e})") from None
    except OverflowError:
        raise InputError(f"{path}: integer token out of int64 range") from None


def intersection_array(family, *params):
    """(b_0..b_{D-1}, c_1..c_D) of a metric family generated in distance order
    (Brouwer-Cohen-Neumaier 1989, sections 9.1-9.2)."""
    if family == "cycle":
        (n,) = params
        D = n // 2
        return [2] + [1] * (D - 1), [1] * (D - 1) + [2 - n % 2]
    if family == "hamming":
        D, q = params
        return [(D - i) * (q - 1) for i in range(D)], [i for i in range(1, D + 1)]
    if family == "johnson":
        v, k = params
        return [(k - i) * (v - k - i) for i in range(k)], [i * i for i in range(1, k + 1)]
    if family == "complete":
        (n,) = params
        return [n - 1], [1]
    if family == "petersen":
        return [3, 2], [1, 1]
    raise ValueError(f"no intersection array for {family}")


def array_slabs(b, c):
    """A slab source of the scheme with intersection array {b_0..b_{D-1}; c_1..c_D}.

    It has what the analysis reads of an AssociationScheme: d, n, the
    valencies and slab(i) = B_i, indexed [k, j] = p^k_{ij}, read-only.  B_1 is
    tridiagonal with row k = (c_k, a_k, b_k), a_k = b_0 - b_k - c_k, and
    A_1 A_i = b_{i-1} A_{i-1} + a_i A_i + c_{i+1} A_{i+1} gives
    B_{i+1} = (B_1 B_i - b_{i-1} B_{i-1} - a_i B_i) / c_{i+1}, computed in
    exact integers, B_1 applied through its three bands, the first time a
    stage asks for a slab past the last one computed.  Valencies
    k_{i+1} = k_i b_i / c_{i+1}.  Raises ValueError where a valency, an a_i or
    a slab entry is not a non-negative integer.
    """
    D = len(b)
    if D < 1 or len(c) != D or c[0] != 1:
        raise ValueError("b_0..b_{D-1} and c_1..c_D need D >= 1 entries each, and c_1 = 1")
    bb = np.array([*b, 0], dtype=np.int64)  # b_D = 0
    cc = np.array([0, *c], dtype=np.int64)  # c_0 = 0
    a = bb[0] - bb - cc
    k = [1]
    for i in range(D):
        if k[-1] * bb[i] % cc[i + 1] or a[i] < 0:
            raise ValueError(f"k_{i + 1} = k_{i} b_{i} / c_{i + 1} or a_{i} is not a valid count")
        k.append(k[-1] * int(bb[i]) // int(cc[i + 1]))
    if a[D] < 0:
        raise ValueError(f"a_{D} = {a[D]} < 0")
    k = np.array(k, dtype=np.int64)
    k.flags.writeable = False

    def times_b1(X):  # (B_1 X)[r] = c_r X[r-1] + a_r X[r] + b_r X[r+1]
        out = a[:, None] * X
        out[1:] += cc[1:, None] * X[:-1]
        out[:-1] += bb[:-1, None] * X[1:]
        return out

    slabs = []

    def keep(slab):
        slab.flags.writeable = False
        slabs.append(slab)

    keep(np.eye(D + 1, dtype=np.int64))
    keep(times_b1(slabs[0]))

    def slab(i):
        while len(slabs) <= i:
            h = len(slabs) - 1
            num = times_b1(slabs[h]) - bb[h - 1] * slabs[h - 1] - a[h] * slabs[h]
            nxt, rem = np.divmod(num, cc[h + 1])
            if rem.any() or nxt.min() < 0:
                raise ValueError(f"B_{h + 1} is not a non-negative integer matrix")
            keep(nxt)
        return slabs[i]

    return SimpleNamespace(d=D, n=int(k.sum()), valencies=k, slab=slab)
