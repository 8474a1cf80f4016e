"""Graph-side utilities: distances, excesses, spectra, and the distance-regularity bridge."""

from __future__ import annotations

import numpy as np

from .scheme_core import (
    AssociationScheme,
    FrozenRecord,
    RelationMatrix,
    SchemeValidationError,
    build_scheme,
)
from .spectral import (
    Spectrum,
    eigen_groups,
    predistance_polynomials,  # noqa: F401  unused here; perfbench/spans.py traces this name
    spectral_excess,
)

# Seidel's products are counts <= (n - 1)**2, which float32 holds exactly (<= 2**24) up to this n
_SEIDEL_FLOAT32_MAX_N = 1 + 2 ** 12


class Disconnected(ValueError):
    def __init__(self, components: int):
        self.components = components
        super().__init__(f"graph is disconnected ({components} components)")


class TooFewVertices(ValueError):
    pass


class NotDistanceRegular(ValueError):
    pass


class NotRegular(NotDistanceRegular):
    """Vertex degrees differ, so the graph is not distance-regular either."""


class SpectrumSanityFailure(RuntimeError):
    """The computed eigenvalues fail sum m theta^2 = n k, or number other than diameter + 1
    on a distance-regular graph; no known graph does either."""


def _vertex(x):
    """int(x) when x is an integer value or a string that int() reads, else None."""
    try:
        i = int(x)
    except (TypeError, ValueError, OverflowError):
        return None
    return i if isinstance(x, str) or i == x else None


class Graph(FrozenRecord):
    """Simple undirected graph as its n x n bool adjacency: symmetric, loop-free, read-only."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: np.ndarray):
        if not isinstance(adj, np.ndarray) or adj.dtype != bool or adj.shape != (n, n):
            got = getattr(adj, "dtype", type(adj).__name__)
            raise ValueError(f"adjacency must be a {n}x{n} bool matrix, not {got} {np.shape(adj)}")
        if adj.diagonal().any():
            raise ValueError(f"loop at vertex {adj.diagonal().argmax()}")
        if (adj != adj.T).any():
            u, v = np.argwhere(adj != adj.T)[0].tolist()
            raise ValueError(f"adjacency is not symmetric: adj[{u},{v}] != adj[{v},{u}]")
        adj.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", adj)

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """The graph on 0..n-1 with the given (u, v) pairs as its edges.

        A vertex is an integer value (2, 2.0, True, a numpy integer) or a string
        int() reads.  The first offending pair in input order raises ValueError;
        within it a vertex that is not an integer comes first, then one out of
        range, a loop, and a repeat of an earlier edge in either orientation.
        """
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        adj = np.zeros((n, n), dtype=bool)
        pairs = edges if isinstance(edges, np.ndarray) else list(edges)
        raw = np.asarray(pairs)
        if raw.dtype.kind not in "iu":  # floats, strings, ints past int64: one at a time
            with np.errstate(invalid="ignore"):  # int(nan) flags an invalid value as it raises
                raw = np.frompyfunc(_vertex, 1, 1)(np.asarray(pairs, dtype=object))
        raw = raw.reshape(len(raw), 2)
        nonint = np.equal(raw, None).any(axis=1)
        raw = np.where(nonint[:, None], -1, raw)  # out of range below; nonint picks the message
        out = ((raw < 0) | (raw >= n)).any(axis=1)
        u, v = np.where(out[:, None], 0, raw).astype(np.int64).T
        loop = u == v
        _, first, which = np.unique(np.minimum(u, v) * n + np.maximum(u, v),
                                    return_index=True, return_inverse=True)
        bad = out | loop | (first[which] != np.arange(len(raw)))
        if bad.any():
            t = int(np.argmax(bad))
            if nonint[t]:
                a, b = pairs[t]
                raise ValueError(f"edge ({a},{b}) has a vertex that is not an integer")
            a, b = int(raw[t, 0]), int(raw[t, 1])
            if out[t]:
                raise ValueError(f"edge ({a},{b}) out of range 0..{n - 1}")
            if loop[t]:
                raise ValueError(f"loop at vertex {a}")
            raise ValueError(f"duplicate edge ({a},{b})")
        adj[u, v] = adj[v, u] = True
        return cls(n=n, adj=adj)

    @property
    def degrees(self):
        return tuple(self.adj.sum(axis=1).tolist())


class DistanceData(FrozenRecord):
    """All-pairs distance data.

    excess[x] counts the vertices at maximal distance from x (its
    eccentricity), so it is >= 1 on every connected graph; for
    distance-regular graphs every eccentricity equals the diameter and this is
    the usual |Gamma_D(x)|.
    """

    __slots__ = ("dist", "diameter", "gamma_counts", "eccentricity", "excess")

    def __init__(self, dist: np.ndarray, diameter: int,
                 gamma_counts: np.ndarray,  # gamma_counts[x, i] = |Gamma_i(x)|
                 eccentricity: np.ndarray, excess: np.ndarray):
        for a in (dist, gamma_counts, eccentricity, excess):
            a.setflags(write=False)
        object.__setattr__(self, "dist", dist)
        object.__setattr__(self, "diameter", diameter)
        object.__setattr__(self, "gamma_counts", gamma_counts)
        object.__setattr__(self, "eccentricity", eccentricity)
        object.__setattr__(self, "excess", excess)


def _seidel_distances(a: np.ndarray) -> np.ndarray:
    """All-pairs distances from a boolean adjacency matrix; raises Disconnected.

    Seidel's recursion (J. Comput. Syst. Sci. 51 (1995) 400-403), unrolled:
    square the graph until it is complete, then walk back down, recovering
    each level's distances T from the level above with one product X = T A:
    D = 2T where X >= T * deg, else 2T - 1.  That is O(log D) GEMMs.  A and
    deg are those of the level graph, whose degree can reach n - 1 whatever
    the input's is, and every T is at most n - 1.  So every product entry (a
    common-neighbour count in a squaring, X, or T * deg) is an integer
    <= (n - 1)**2, as is every partial sum: float32 holds them exactly for
    n <= _SEIDEL_FLOAT32_MAX_N = 4097, and larger graphs run the same products
    in float64.  A level whose square adds no edge before the graph is
    complete is the transitive closure, so the graph is disconnected and each
    component is one distinct row of (level | I).
    """
    n = a.shape[0]
    ftype = np.float32 if n <= _SEIDEL_FLOAT32_MAX_N else np.float64
    off_diagonal = ~np.eye(n, dtype=bool)
    levels = [a]
    while True:
        f = levels[-1].astype(ftype)
        square = (levels[-1] | (f @ f > 0)) & off_diagonal
        if square.sum() == n * (n - 1):
            break
        if np.array_equal(square, levels[-1]):
            reach = square | ~off_diagonal
            raise Disconnected(int(np.unique(reach, axis=0).shape[0]))
        levels.append(square)
    dist = 2 * off_diagonal.astype(ftype) - levels[-1]
    for level in reversed(levels[:-1]):
        f = level.astype(ftype)
        odd = dist @ f < dist * f.sum(axis=0)
        dist *= 2
        dist -= odd
    return dist.astype(np.int32)


def distance_data(g: Graph) -> DistanceData:
    """All-pairs distances; raises Disconnected with the component count."""
    n = g.n
    dist = _seidel_distances(g.adj)
    diameter = int(dist.max())
    rows = np.arange(n)[:, None] * (diameter + 1)
    gamma = np.bincount((dist + rows).ravel(), minlength=n * (diameter + 1))
    gamma = gamma.reshape(n, diameter + 1).astype(np.int64)
    ecc = dist.max(axis=1).astype(np.int64)
    excess = gamma[np.arange(n), ecc]
    return DistanceData(dist=dist, diameter=diameter, gamma_counts=gamma,
                        eccentricity=ecc, excess=excess)


def graph_spectrum(g: Graph) -> Spectrum:
    """Distinct eigenvalues with integer multiplicities of a connected regular graph."""
    degs = g.degrees
    if len(set(degs)) != 1:
        raise NotRegular(f"degrees range over {sorted(set(degs))}")
    w = np.linalg.eigvalsh(g.adj.astype(float))
    groups = eigen_groups(w)[::-1]
    # a cluster straddling 0 is the eigenvalue 0, not the rounding noise of its mean
    theta = np.array([
        0.0 if w[a] <= 0.0 <= w[b - 1] else float(w[a:b].mean()) for a, b in groups
    ])
    mult = np.array([b - a for a, b in groups], dtype=float)
    if mult[0] != 1:  # the degree k has one eigenvector per component
        raise Disconnected(int(mult[0]))
    k = degs[0]
    # sanity: sum of m_i theta_i^2 = tr A^2 counts the 2|E| = n k closed 2-walks
    walks = (mult * theta ** 2).sum()
    if not abs(walks - g.n * k) <= 1e-6 * max(1.0, g.n * k):
        raise SpectrumSanityFailure(f"sum m theta^2 = {walks:.6g} but n k = {g.n * k}")
    return Spectrum(theta=theta, m=mult, n=g.n)


def _drg_scheme(g: Graph, dd: DistanceData) -> AssociationScheme:
    """The distance scheme of g, which must validate; else NotDistanceRegular with the witness."""
    rm = RelationMatrix(n=g.n, d=dd.diameter, rel=dd.dist)
    try:
        return build_scheme(rm)
    except SchemeValidationError as e:
        raise NotDistanceRegular(str(e)) from e


class SpectralExcessReport(FrozenRecord):
    __slots__ = ("degree", "diameter", "pd_theta0", "excess", "excess_mean",
                 "excess_harmonic_mean", "drg", "witness", "spectrum")

    def __init__(
        self, degree: int, diameter: int, pd_theta0: float, excess: np.ndarray,
        excess_mean: float, excess_harmonic_mean: float, drg: bool, witness: str | None,
        spectrum: Spectrum,  # holds n, and d: the number of distinct eigenvalues minus one
    ):
        excess.setflags(write=False)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "diameter", diameter)
        object.__setattr__(self, "pd_theta0", pd_theta0)
        object.__setattr__(self, "excess", excess)
        object.__setattr__(self, "excess_mean", excess_mean)
        object.__setattr__(self, "excess_harmonic_mean", excess_harmonic_mean)
        object.__setattr__(self, "drg", drg)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "spectrum", spectrum)


def spectral_excess_report(g: Graph) -> SpectralExcessReport:
    """Average excess against p_d(theta_0), with a combinatorial verdict.

    Both the arithmetic and the harmonic mean of the excesses are reported as
    evidence; the distance-regularity verdict itself comes from validating the
    distance partition as a scheme, never from the spectral comparison.  A
    validated partition whose diameter is not d raises SpectrumSanityFailure.
    """
    if g.n < 2:
        raise TooFewVertices(f"n = {g.n}: a distance partition needs at least 2 vertices")
    dd = distance_data(g)
    sp = graph_spectrum(g)
    pd0 = spectral_excess(sp)
    exc = dd.excess.astype(float)
    mean = float(exc.mean())
    harm = float(g.n / (1.0 / exc).sum())
    try:
        _drg_scheme(g, dd)
    except NotDistanceRegular as e:
        witness = str(e)
    else:  # g is distance-regular, so it has diameter + 1 distinct eigenvalues
        witness = None
        if dd.diameter != sp.d:
            raise SpectrumSanityFailure(
                f"the distance partition validates, so diameter {dd.diameter} needs "
                f"{dd.diameter + 1} distinct eigenvalues, but {sp.d + 1} were found")
    return SpectralExcessReport(
        degree=g.degrees[0], diameter=dd.diameter, pd_theta0=pd0,
        excess=dd.excess, excess_mean=mean, excess_harmonic_mean=harm,
        drg=witness is None, witness=witness, spectrum=sp,
    )


def scheme_from_drg(g: Graph) -> AssociationScheme:
    """The metric scheme of a distance-regular graph (relation i = distance i)."""
    return _drg_scheme(g, distance_data(g))
