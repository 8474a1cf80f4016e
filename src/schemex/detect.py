"""Decide the P-polynomial (metric) property of a scheme by independent routes.

Four routes are provably equivalent and are run side by side:

* ``tridiagonal``: greedy reordering of the first intersection matrix into an
  irreducible tridiagonal band (pure integer arithmetic, no preconditions);
* ``nstar``: which relations first appear in which power of A_1 (breadth-first
  search on the support of the first intersection matrix; needs the top
  eigenvalue separated, i.e. the relation-1 graph connected);
* ``excess``: kappa_i = -Q_i(l) for a unique column l of the second
  eigenmatrix (needs all theta distinct);
* ``predistance``: p_d(theta_h) = P_l(h) for a unique column l (same
  precondition).

Disagreement between routes whose preconditions hold is a bug or a tolerance
failure and raises RouteDisagreement instead of guessing.  The greedy chain on
the Krein parameters q^k_{1j} (``q_poly``) decides the dual property and is
reported but never folded into the consensus.
"""

from __future__ import annotations

import functools

import numpy as np

from .scheme_core import AssociationScheme, ValueRecord, greedy_chain
from .spectral import (
    DegenerateSpectrum,
    SpectralData,
    eigen_groups,
    krein_parameters,
    predistance_polynomials,
    primitive_idempotents,  # noqa: F401  unused here; perfbench/spans.py traces this name
    spectral_data,
)

YES = "yes"
NO = "no"
PRECONDITION_FAILED = "precondition-failed"

#: relative tolerance for matching kappa against -Q and p_d against P columns
ROUTE_MATCH_RTOL = 1e-6

#: Krein-chain threshold, relative to max(1, n); q_poly is reported, never in the consensus
BASE_TOL = 1e-8


class PerronNotSeparated(ValueError):
    """theta_0 coincides with another eigenvalue (relation-1 graph disconnected)."""


class MultipleL(RuntimeError):
    """More than one column matched; reported loudly, never silently resolved."""


class RouteDisagreement(RuntimeError):
    """Provably equivalent routes returned different verdicts."""


class RouteVerdict(ValueRecord):
    """One route's verdict and its evidence; compares and hashes by value."""

    __slots__ = ("route", "verdict", "ordering", "l", "max_residual", "witness")

    def __init__(self, route: str, verdict: str, ordering: tuple | None = None,
                 l: int | None = None, max_residual: float = 0.0, witness: str | None = None):
        object.__setattr__(self, "route", route)
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "ordering", ordering)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "max_residual", max_residual)
        object.__setattr__(self, "witness", witness)

    def to_dict(self) -> dict:
        """Every field but the route, with the ordering as a list."""
        out = {name: getattr(self, name) for name in self.__slots__ if name != "route"}
        if self.ordering is not None:
            out["ordering"] = list(self.ordering)
        return out


class DetectionReport:
    __slots__ = ("n", "d", "valencies", "tridiagonal", "nstar", "excess", "predistance",
                 "q_poly", "consensus", "preconditions_ok", "ordering", "l")

    def __init__(
        self, n: int, d: int, valencies: tuple, tridiagonal: RouteVerdict, nstar: RouteVerdict,
        excess: RouteVerdict, predistance: RouteVerdict, q_poly: RouteVerdict, consensus: str,
        preconditions_ok: bool, ordering: tuple | None, l: int | None,
    ):
        self.n = n
        self.d = d
        self.valencies = valencies
        self.tridiagonal = tridiagonal
        self.nstar = nstar
        self.excess = excess
        self.predistance = predistance
        self.q_poly = q_poly
        self.consensus = consensus
        self.preconditions_ok = preconditions_ok
        self.ordering = ordering
        self.l = l

    @property
    def status(self) -> str:
        """Overall outcome: yes / no / precondition-failed.

        The tridiagonal route always produces a yes/no consensus; the status
        downgrades a "no" to "precondition-failed" when some spectral route
        could not run, so a disconnected or degenerate input is never reported
        as a clean negative.
        """
        if self.consensus == YES:
            return YES
        return NO if self.preconditions_ok else PRECONDITION_FAILED

    def routes(self) -> dict:
        return {
            "tridiagonal": self.tridiagonal,
            "nstar": self.nstar,
            "excess": self.excess,
            "predistance": self.predistance,
            "q_poly": self.q_poly,
        }


def _band_violation(mat, order, thr):
    """The first entry, row-major in ``order``, off the band pattern; NaN is always off."""
    m = len(order)
    R = mat.take(order, axis=0).take(order, axis=1)
    r = np.arange(m)
    gap = np.abs(r[:, None] - r)
    bad = np.flatnonzero(((gap >= 2) & ~(np.abs(R) <= thr)) | ((gap == 1) & ~(R > thr)))
    if not bad.size:
        return None
    a, b = divmod(int(bad[0]), m)
    if gap[a, b] >= 2:
        return f"entry ({order[a]},{order[b]}) = {R[a, b]} lies outside the band"
    return f"band entry ({order[a]},{order[b]}) = {R[a, b]} is not positive"


def tridiagonal_route(s: AssociationScheme) -> RouteVerdict:
    """Greedy relation chain from [0, 1] on p^j_{1,i} (:func:`greedy_chain`); exact
    integers, total (no preconditions).

    A completed chain is already an irreducible tridiagonal band, so no band
    check follows it.  Below the diagonal: order[b+1] was the only unused j
    with p^j_{1,order[b]} > 0 (for b = 0, p^j_{10} = delta_{j1}).  Above it:
    k_k p^k_{1j} = k_j p^j_{1k} with every k_i >= 1, both checked exactly by
    AssociationScheme, copies that zero/positive pattern.  q_polynomial_route
    keeps its band check, since its float thresholds break this argument.
    """
    order, witness = greedy_chain(s.slab(1) > 0, 1)
    if order is None:
        return RouteVerdict("tridiagonal", NO, witness=witness)
    return RouteVerdict("tridiagonal", YES, ordering=order, l=order[-1])


def nstar_sets(s: AssociationScheme, sd: SpectralData) -> tuple:
    """First-appearance sets of the relations in A_1^0, A_1^1, ..., A_1^d.

    Entry h is the frozenset of relations whose coefficient in A_1^h is
    nonzero for the first time.

    The coefficient vector of A_1^h is B_1^h applied to the unit vector of
    A_0, and every entry of B_1 = (p^k_{1j}) is a nonnegative integer, so no
    cancellation can occur: relation k has a nonzero coefficient in A_1^h
    exactly when the support graph of B_1 (edge j -> k when p^k_{1j} > 0) has
    a walk of length h from 0 to k.  Its first appearance is therefore its
    breadth-first distance from 0, found in O(d^2).  If some relation is
    never reached, the relation-1 graph is disconnected, i.e. theta_0 is not
    separated from the rest of the spectrum: PerronNotSeparated.
    """
    d = s.d
    out = (s.slab(1) > 0).T.tolist()  # out[j][k]: p^k_{1j} > 0
    seen = [True] + [False] * d
    levels = []  # levels[h]: the breadth-first frontier at distance h
    frontier = [0]
    while frontier:
        levels.append(frozenset(frontier))
        reached = []
        for j in frontier:
            for k, on in enumerate(out[j]):
                if on and not seen[k]:
                    seen[k] = True
                    reached.append(k)
        frontier = reached
    if not all(seen):
        unreached = [j for j, f in enumerate(seen) if not f]
        order = np.argsort(sd.theta)
        group = next(order[a:b] for a, b in eigen_groups(sd.theta[order]) if 0 in order[a:b])
        near = sorted(int(j) for j in group if j != 0)
        raise PerronNotSeparated(
            f"relations {unreached} never appear in powers of A_1 up to d = {d}; "
            f"theta_0 = {sd.theta[0]:g} is shared (rows {near} by the float data)"
        )
    return (*levels, *[frozenset()] * (d + 1 - len(levels)))


def _match_columns(values, targets):
    """For each column l: scaled and raw max deviation of values vs targets[:, l]."""
    v = values[:, None]
    raw = np.abs(v - targets)
    scaled = raw / np.maximum(1.0, np.maximum(np.abs(v), np.abs(targets)))
    raws = raw.max(axis=0).tolist()
    scaleds = scaled.max(axis=0).tolist()
    passing = [l for l, sc in enumerate(scaleds) if sc <= ROUTE_MATCH_RTOL]
    return passing, raws, scaleds


def _column_verdict(route, values, targets, many, none):
    """Match ``values`` against the columns of ``targets``.

    Exactly one matching column l is a yes; several raise MultipleL, whose
    message names them and goes on with ``many``; none is a no, whose witness
    opens with ``none`` and names the closest column.
    """
    passing, raws, scaleds = _match_columns(values, targets)
    if len(passing) > 1:
        raise MultipleL(f"columns {passing} {many}")
    if len(passing) == 1:
        l = passing[0]
        return RouteVerdict(route, YES, l=l, max_residual=raws[l])
    best = int(np.argmin(scaleds))
    return RouteVerdict(
        route, NO, max_residual=raws[best],
        witness=f"{none}; closest is l={best} (scaled deviation {scaleds[best]:.3e})",
    )


def _tied(route, tie):
    """The precondition-failed verdict of a column-matching route on tied theta."""
    j1, j2 = tie
    return RouteVerdict(
        route, PRECONDITION_FAILED,
        witness=f"theta values at sorted positions {j1} and {j2} coincide",
    )


def excess_route(sd: SpectralData) -> RouteVerdict:
    """Match (kappa_1..kappa_d) against the columns -Q_i(l), i >= 1.

    Exactly one matching l is required for a yes; zero is a no; several raise
    MultipleL.  spectral_data has already checked Q against m_i P_l(i)/k_l.
    """
    if sd.tie is not None:
        return _tied("excess", sd.tie)
    return _column_verdict(
        "excess", sd.spectrum.kappa[1:], -sd.Q[:, 1:].T,  # targets[i-1, l] = -Q_i(l)
        many="all satisfy kappa_i = -Q_i(l)", none="no column of -Q matches kappa",
    )


def predistance_route(sd: SpectralData, values: np.ndarray | None) -> RouteVerdict:
    """Match the values p_d(theta_h) against the columns P_l(h) of the first eigenmatrix.

    ``values[i, h] = p_i(theta_h)`` is the table of predistance_polynomials.
    On tied theta the verdict is precondition-failed and ``values`` is never
    read, so it may be None there.
    """
    if sd.tie is not None:
        return _tied("predistance", sd.tie)
    return _column_verdict(
        "predistance", values[-1], sd.P,
        many="of P all match p_d on the spectrum", none="p_d matches no column of P",
    )


@functools.lru_cache(maxsize=64)
def _bit_reversed(count: int) -> tuple:
    """0..count-1 sorted by their reversed binary digits: the van der Corput order."""
    bits = max(1, (count - 1).bit_length())
    return tuple(sorted(range(count), key=lambda q: f"{q:0{bits}b}"[::-1]))


def mstar_decomposition_residual(s: AssociationScheme, sd: SpectralData, i: int) -> float:
    """Max-abs residual of prod_{j!=i}(A_1 - theta_j I)/(theta_i - theta_j) - kappa_i E_0 - E_i.

    The product interpolates through all eigenvalues except theta_0 and
    theta_i, so it must collapse onto kappa_i E_0 + E_i whenever the theta are
    mutually distinct -- P-polynomial or not.

    Everything lives in the Bose-Mesner algebra, so the product is carried as
    its coefficient vector c in the basis A_0..A_d: multiplication by A_1 is
    c -> B_1 c with B_1 = (p^k_{1j}), and kappa_i E_0 + E_i has coefficients
    kappa_i / n + Q_i(l) / n.  The A_l have disjoint supports and every class
    is nonempty (AssociationScheme checks k_l >= 1), so the max-abs entry of
    the n x n residual equals the max-abs entry of the coefficient residual.
    """
    if sd.spectrum is None:
        raise DegenerateSpectrum("the decomposition needs mutually distinct theta")
    if not 1 <= i <= s.d:
        raise ValueError(f"i must be in 1..{s.d}")
    th = sd.theta.tolist()
    B1 = s.slab(1).astype(float)
    c = np.zeros(s.d + 1)
    c[0] = 1.0  # A_0 = I
    # Apply the factors at the theta-sorted positions j != i in bit-reversed
    # (van der Corput) order, which interleaves near and far theta_j.  In index
    # order the partial product climbs to ~2e20 on cycle(100) before cancelling
    # to O(1), losing every digit.
    js = [j for j in range(1, s.d + 1) if j != i]
    for pos in _bit_reversed(len(js)):
        j = js[pos]
        c = (B1.dot(c) - th[j] * c) / (th[i] - th[j])  # B1 @ c, with less dispatch
    return float(np.abs(c - sd.spectrum.kappa[i] / s.n - sd.Q[:, i] / s.n).max())


def q_polynomial_route(q1: np.ndarray, n: int) -> RouteVerdict:
    """Greedy chain on q1[k, j] = q^k_{1j}: the dual (cometric) analogue of tridiagonal."""
    thr = BASE_TOL * max(1.0, n)
    order, witness = greedy_chain(q1 > thr, 1)
    if order is None:
        return RouteVerdict("q_poly", NO, witness=witness)
    bad = _band_violation(q1, order, thr)
    if bad is not None:
        return RouteVerdict("q_poly", NO, witness=bad)
    return RouteVerdict("q_poly", YES, ordering=order, l=order[-1])


class Analysis:
    """Everything detect computed along the way, for reporting.  ``mstar_max`` is the largest
    M* residual_i / max(1, |kappa_i| / n), relative to what it checks; None on tied theta."""

    __slots__ = ("report", "spectral", "krein_q1", "predistance_values", "mstar_max",
                 "pq_residual")

    def __init__(self, report: DetectionReport, spectral: SpectralData, krein_q1: np.ndarray,
                 predistance_values: np.ndarray | None, mstar_max: float | None,
                 pq_residual: float):
        self.report = report
        self.spectral = spectral
        self.krein_q1 = krein_q1
        self.predistance_values = predistance_values
        self.mstar_max = mstar_max
        self.pq_residual = pq_residual


def _nstar_verdict(s, sd):
    """Yes iff some relation first appears in A_1^d, i.e. iff each of the d+1 levels
    holds one relation: first appearances are breadth-first distances, so none is skipped."""
    try:
        sets = nstar_sets(s, sd)
    except PerronNotSeparated as e:
        return RouteVerdict("nstar", PRECONDITION_FAILED, witness=str(e))
    if any(len(part) != 1 for part in sets):
        return RouteVerdict(
            "nstar", NO,
            witness="every relation already appears in a power A_1^h with h <= d-1",
        )
    order = tuple(j for part in sets for j in part)
    return RouteVerdict("nstar", YES, ordering=order, l=order[-1])


def analyze(s: AssociationScheme) -> Analysis:
    """Run every route on ``s``, enforce their pairwise agreement, keep the evidence."""
    sd = spectral_data(s)

    tri = tridiagonal_route(s)
    nstar_v = _nstar_verdict(s, sd)

    values = predistance_polynomials(sd.spectrum) if sd.spectrum is not None else None
    excess_v = excess_route(sd)
    pred_v = predistance_route(sd, values)

    q1 = krein_parameters(s, sd)
    qv = q_polynomial_route(q1, s.n)

    principal = [tri, nstar_v, excess_v, pred_v]
    ran = [v for v in principal if v.verdict != PRECONDITION_FAILED]
    verdicts = {v.verdict for v in ran}
    if len(verdicts) != 1:
        raise RouteDisagreement(
            "routes disagree: "
            + ", ".join(f"{v.route}={v.verdict} (residual {v.max_residual:.3e})"
                        for v in principal)
        )
    consensus = verdicts.pop()
    preconditions_ok = len(ran) == len(principal)

    ordering = None
    l = None
    if consensus == YES:
        if not preconditions_ok:
            raise RouteDisagreement(
                "a positive verdict forces distinct eigenvalues, yet a spectral "
                "route reported precondition-failed: "
                + ", ".join(f"{v.route}={v.verdict}" for v in principal)
            )
        ordering = tri.ordering
        l = ordering[-1]
        if nstar_v.ordering != ordering:
            raise RouteDisagreement(
                f"nstar ordering {nstar_v.ordering} != tridiagonal ordering {ordering}"
            )
        for v in (excess_v, pred_v):
            if v.l != l:
                raise RouteDisagreement(
                    f"{v.route} found l = {v.l} but the chain ends at xi_d = {l}"
                )

    mstar_max = None
    if sd.spectrum is not None:
        kappa = sd.spectrum.kappa.tolist()  # kappa_i E_0 + E_i has entries up to |kappa_i| / n
        mstar_max = max(
            mstar_decomposition_residual(s, sd, i) / max(1.0, abs(kappa[i]) / s.n)
            for i in range(1, s.d + 1)
        )

    report = DetectionReport(
        n=s.n, d=s.d, valencies=tuple(s.valencies.tolist()),
        tridiagonal=tri, nstar=nstar_v, excess=excess_v, predistance=pred_v,
        q_poly=qv, consensus=consensus, preconditions_ok=preconditions_ok,
        ordering=ordering, l=l,
    )
    return Analysis(
        report=report, spectral=sd, krein_q1=q1, predistance_values=values, mstar_max=mstar_max,
        pq_residual=sd.pq_residual,
    )


def detect(s: AssociationScheme) -> DetectionReport:
    """Run all routes and return the agreed report; see :func:`analyze`."""
    return analyze(s).report
