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
the Krein tensor (``q_poly``) decides the dual property and is reported but
never folded into the consensus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .poly import PredistanceSystem, predistance_polynomials
from .scheme_core import AssociationScheme, IntersectionTensor
from .spectral import (
    KreinTensor,
    SpectralData,
    eigen_groups,
    krein_parameters,
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


class SpectrumNotSimple(ValueError):
    """An operation needed mutually distinct eigenvalues."""


class PerronNotSeparated(ValueError):
    """theta_0 coincides with another eigenvalue (relation-1 graph disconnected)."""


class MultipleL(RuntimeError):
    """More than one column matched; reported loudly, never silently resolved."""


class RouteDisagreement(RuntimeError):
    """Provably equivalent routes returned different verdicts."""


@dataclass(frozen=True)
class RouteVerdict:
    route: str
    verdict: str
    ordering: tuple | None = None
    l: int | None = None
    max_residual: float = 0.0
    witness: str | None = None

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "ordering": list(self.ordering) if self.ordering is not None else None,
            "l": self.l,
            "max_residual": self.max_residual,
            "witness": self.witness,
        }


@dataclass(frozen=True)
class NStarChain:
    """sets[h] = relations whose coefficient in A_1^h is nonzero for the first time."""

    sets: tuple

    def singletons(self):
        if any(len(part) != 1 for part in self.sets):
            return None
        return tuple(next(iter(part)) for part in self.sets)


@dataclass(eq=False)
class DetectionReport:
    n: int
    d: int
    valencies: tuple
    tridiagonal: RouteVerdict
    nstar: RouteVerdict
    excess: RouteVerdict
    predistance: RouteVerdict
    q_poly: RouteVerdict
    consensus: str
    preconditions_ok: bool
    ordering: tuple | None
    l: int | None

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


def _greedy_chain(mat, d, positive):
    """Shared chain builder: mat[j, cur] read through ``positive``.

    Returns (ordering, None) on success or (None, witness) when the chain
    stalls or branches.
    """
    order = [0, 1]
    used = {0, 1}
    while len(order) < d + 1:
        cur = order[-1]
        cands = [j for j in range(d + 1) if j not in used and positive(mat[j, cur])]
        if len(cands) != 1:
            return None, (
                f"chain {tuple(order)} cannot be extended from {cur}: "
                f"{len(cands)} candidates {cands}"
            )
        order.append(cands[0])
        used.add(cands[0])
    return tuple(order), None


def _band_violation(mat, order, positive, zero):
    m = len(order)
    idx = np.asarray(order)
    R = mat[np.ix_(idx, idx)]
    for a in range(m):
        for b in range(m):
            if abs(a - b) >= 2 and not zero(R[a, b]):
                return f"entry ({order[a]},{order[b]}) = {R[a, b]} lies outside the band"
            if abs(a - b) == 1 and not positive(R[a, b]):
                return f"band entry ({order[a]},{order[b]}) = {R[a, b]} is not positive"
    return None


def tridiagonal_route(t: IntersectionTensor) -> RouteVerdict:
    """Greedy relation chain on p^j_{1,i}; exact integers, total (no preconditions).

    A completed chain is already an irreducible tridiagonal band, so no band
    check follows it.  Below the diagonal: order[b+1] was the only unused j
    with p^j_{1,order[b]} > 0 (for b = 0, p^j_{10} = delta_{j1}).  Above it:
    k_k p^k_{1j} = k_j p^j_{1k} with every k_i >= 1, both checked exactly by
    IntersectionTensor, copies that zero/positive pattern.  q_polynomial_route
    keeps its band check, since its float thresholds break this argument.
    """
    order, witness = _greedy_chain(t.p[:, 1, :], t.d, lambda v: v > 0)
    if order is None:
        return RouteVerdict("tridiagonal", NO, witness=witness)
    return RouteVerdict("tridiagonal", YES, ordering=order, l=order[-1])


def nstar_sets(t: IntersectionTensor, sd: SpectralData) -> NStarChain:
    """First-appearance sets of the relations in A_1^0, A_1^1, ..., A_1^d.

    The coefficient vector of A_1^h is B_1^h applied to the unit vector of
    A_0, and every entry of B_1 = (p^k_{1j}) is a nonnegative integer, so no
    cancellation can occur: relation k has a nonzero coefficient in A_1^h
    exactly when the support graph of B_1 (edge j -> k when p^k_{1j} > 0) has
    a walk of length h from 0 to k.  Its first appearance is therefore its
    breadth-first distance from 0, found in O(d^2).  If some relation is
    never reached, the relation-1 graph is disconnected, i.e. theta_0 is not
    separated from the rest of the spectrum: PerronNotSeparated.
    """
    d = t.d
    support = t.p[:, 1, :] > 0  # support[k, j]: p^k_{1j} > 0
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
    sets = tuple(
        frozenset(j for j, f in enumerate(first) if f == h) for h in range(d + 1)
    )
    assert sets[0] == frozenset({0}) and sets[1] == frozenset({1})
    return NStarChain(sets=sets)


def _match_columns(values, targets):
    """For each column l: scaled and raw max deviation of values vs targets[:, l]."""
    raws, scaleds = [], []
    for l in range(targets.shape[1]):
        col = targets[:, l]
        raw = np.abs(values - col)
        scaled = raw / np.maximum(1.0, np.maximum(np.abs(values), np.abs(col)))
        raws.append(float(raw.max()))
        scaleds.append(float(scaled.max()))
    passing = [l for l, sc in enumerate(scaleds) if sc <= ROUTE_MATCH_RTOL]
    return passing, raws, scaleds


def excess_route(sd: SpectralData) -> RouteVerdict:
    """Match (kappa_1..kappa_d) against the columns -Q_i(l), i >= 1.

    Exactly one matching l is required for a yes; zero is a no; several raise
    MultipleL.  spectral_data has already checked Q against m_i P_l(i)/k_l.
    """
    if sd.tie is not None:
        j1, j2 = sd.tie
        return RouteVerdict(
            "excess", PRECONDITION_FAILED,
            witness=f"theta values at sorted positions {j1} and {j2} coincide",
        )
    targets = -sd.Q[:, 1:].T  # targets[i-1, l] = -Q_i(l)
    passing, raws, scaleds = _match_columns(sd.spectrum.kappa[1:], targets)
    if len(passing) > 1:
        raise MultipleL(f"columns {passing} all satisfy kappa_i = -Q_i(l)")
    if len(passing) == 1:
        l = passing[0]
        return RouteVerdict("excess", YES, l=l, max_residual=raws[l])
    best = int(np.argmin(scaleds))
    return RouteVerdict(
        "excess", NO, max_residual=raws[best],
        witness=f"no column of -Q matches kappa; closest is l={best} "
                f"(scaled deviation {scaleds[best]:.3e})",
    )


def predistance_route(sd: SpectralData, ps: PredistanceSystem | None) -> RouteVerdict:
    """Match the values p_d(theta_h) against the columns P_l(h) of the first eigenmatrix.

    On tied theta the verdict is precondition-failed and ``ps`` is never read,
    so it may be None there.
    """
    if sd.tie is not None:
        j1, j2 = sd.tie
        return RouteVerdict(
            "predistance", PRECONDITION_FAILED,
            witness=f"theta values at sorted positions {j1} and {j2} coincide",
        )
    vals = ps.values[sd.d]  # p_d at every theta_h
    passing, raws, scaleds = _match_columns(vals, sd.P)
    if len(passing) > 1:
        raise MultipleL(f"columns {passing} of P all match p_d on the spectrum")
    if len(passing) == 1:
        l = passing[0]
        return RouteVerdict("predistance", YES, l=l, max_residual=raws[l])
    best = int(np.argmin(scaleds))
    return RouteVerdict(
        "predistance", NO, max_residual=raws[best],
        witness=f"p_d matches no column of P; closest is l={best} "
                f"(scaled deviation {scaleds[best]:.3e})",
    )


def mstar_decomposition_residual(t: IntersectionTensor, sd: SpectralData, i: int) -> float:
    """Max-abs residual of prod_{j!=i}(A_1 - theta_j I)/(theta_i - theta_j) - kappa_i E_0 - E_i.

    The product interpolates through all eigenvalues except theta_0 and
    theta_i, so it must collapse onto kappa_i E_0 + E_i whenever the theta are
    mutually distinct -- P-polynomial or not.

    Everything lives in the Bose-Mesner algebra, so the product is carried as
    its coefficient vector c in the basis A_0..A_d: multiplication by A_1 is
    c -> B_1 c with B_1 = (p^k_{1j}), and kappa_i E_0 + E_i has coefficients
    kappa_i / n + Q_i(l) / n.  The A_l have disjoint supports and every class
    is nonempty (IntersectionTensor checks k_l >= 1), so the max-abs entry of
    the n x n residual equals the max-abs entry of the coefficient residual.
    """
    if sd.spectrum is None:
        raise SpectrumNotSimple("the decomposition needs mutually distinct theta")
    if not 1 <= i <= t.d:
        raise ValueError(f"i must be in 1..{t.d}")
    th = sd.theta
    B1 = t.p[:, 1, :].astype(float)
    c = np.zeros(t.d + 1)
    c[0] = 1.0  # A_0 = I
    # Apply the factors at the theta-sorted positions j != i in bit-reversed
    # (van der Corput) order, which interleaves near and far theta_j.  In index
    # order the partial product climbs to ~2e20 on cycle(100) before cancelling
    # to O(1), losing every digit.
    js = [j for j in range(1, t.d + 1) if j != i]
    bits = max(1, (len(js) - 1).bit_length())
    for pos in sorted(range(len(js)), key=lambda q: f"{q:0{bits}b}"[::-1]):
        j = js[pos]
        c = (B1 @ c - th[j] * c) / (th[i] - th[j])
    return float(np.abs(c - sd.spectrum.kappa[i] / sd.n - sd.Q[:, i] / sd.n).max())


def q_polynomial_route(kt: KreinTensor) -> RouteVerdict:
    """Greedy chain on the Krein tensor: the dual (cometric) analogue of tridiagonal."""
    q = kt.q
    n = float(q[0].diagonal().sum())  # q^0_{ii} = m_i sums to n
    thr = BASE_TOL * max(1.0, n)
    mat = q[:, 1, :]
    order, witness = _greedy_chain(mat, kt.d, lambda v: v > thr)
    if order is None:
        return RouteVerdict("q_poly", NO, witness=witness)
    bad = _band_violation(mat, order, lambda v: v > thr, lambda v: abs(v) <= thr)
    if bad is not None:
        return RouteVerdict("q_poly", NO, witness=bad)
    return RouteVerdict("q_poly", YES, ordering=order, l=order[-1])


@dataclass(eq=False)
class Analysis:
    """Everything detect computed along the way, for reporting."""

    report: DetectionReport
    spectral: SpectralData
    krein: KreinTensor
    predistance_system: PredistanceSystem | None
    mstar_max: float | None
    pq_residual: float
    multiplicity_residual: float


def _nstar_verdict(t, sd):
    """Yes iff some relation first appears in A_1^d, i.e. iff all d+1 levels are
    singletons: first appearances are breadth-first distances, so none is skipped."""
    try:
        sing = nstar_sets(t, sd).singletons()
    except PerronNotSeparated as e:
        return RouteVerdict("nstar", PRECONDITION_FAILED, witness=str(e))
    if sing is None:
        return RouteVerdict(
            "nstar", NO,
            witness="every relation already appears in a power A_1^h with h <= d-1",
        )
    return RouteVerdict("nstar", YES, ordering=sing, l=sing[-1])


def analyze(s: AssociationScheme) -> Analysis:
    """Run every route on ``s.tensor``, enforce their pairwise agreement, keep the evidence."""
    t = s.tensor
    sd = spectral_data(t)

    tri = tridiagonal_route(t)
    nstar_v = _nstar_verdict(t, sd)

    ps = predistance_polynomials(sd.spectrum) if sd.spectrum is not None else None
    excess_v = excess_route(sd)
    pred_v = predistance_route(sd, ps)

    kt = krein_parameters(sd)
    qv = q_polynomial_route(kt)

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
        mstar_max = max(
            mstar_decomposition_residual(t, sd, i) for i in range(1, t.d + 1)
        )

    report = DetectionReport(
        n=t.n, d=t.d, valencies=tuple(int(v) for v in t.valencies),
        tridiagonal=tri, nstar=nstar_v, excess=excess_v, predistance=pred_v,
        q_poly=qv, consensus=consensus, preconditions_ok=preconditions_ok,
        ordering=ordering, l=l,
    )
    return Analysis(
        report=report, spectral=sd, krein=kt, predistance_system=ps, mstar_max=mstar_max,
        pq_residual=sd.pq_residual, multiplicity_residual=sd.multiplicity_residual,
    )


def detect(s: AssociationScheme) -> DetectionReport:
    """Run all routes and return the agreed report; see :func:`analyze`."""
    return analyze(s).report
