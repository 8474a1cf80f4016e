"""Command line: validate scheme files, run detection, generate families, analyze graphs.

Exit codes: 0 ok/yes, 1 parse error, 2 axiom violation, 3 verdict no,
4 precondition failed (or graph irregular, disconnected or under 2 vertices), 5 route disagreement.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .detect import BASE_TOL, ROUTE_MATCH_RTOL, RouteDisagreement, analyze
from .families import FamilySpec, ParamOutOfRange, generate
from .graph_tools import (
    Disconnected,
    Graph,
    NotRegular,
    TooFewVertices,
    spectral_excess_report,
)
from .scheme_core import AssociationScheme, RelationMatrix, SchemeValidationError, build_scheme
from .spectral import EIG_GROUP_RTOL

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVALID = 2
EXIT_NO = 3
EXIT_PRECONDITION = 4
EXIT_DISAGREE = 5

_STATUS_EXIT = {"yes": EXIT_OK, "no": EXIT_NO, "precondition-failed": EXIT_PRECONDITION}


def _read_scheme_file(path) -> RelationMatrix:
    """Text format: a header line "n d", then n rows of n relation indices."""
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise ValueError(f"{path}: missing 'n d' header")
    try:
        values = [int(tok) for tok in tokens]
    except ValueError as e:
        raise ValueError(f"{path}: non-integer token ({e})") from None
    n, d = values[0], values[1]
    body = values[2:]
    if n < 1 or len(body) != n * n:
        raise ValueError(f"{path}: expected {n}x{n} entries after the header, got {len(body)}")
    rel = np.array(body, dtype=np.int64).reshape(n, n)
    return RelationMatrix(n=n, d=d, rel=rel)


def write_scheme_file(s: AssociationScheme, fh) -> None:
    fh.write(f"{s.n} {s.d}\n")
    for row in np.asarray(s.rel):
        fh.write(" ".join(str(int(v)) for v in row) + "\n")


def _read_edge_file(path) -> Graph:
    """Text format: a header line "n m", then m lines "u v" (0-indexed)."""
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    try:
        values = [int(tok) for tok in tokens]
    except ValueError as e:
        raise ValueError(f"{path}: non-integer token ({e})") from None
    if len(values) < 2:
        raise ValueError(f"{path}: missing 'n m' header")
    n, m = values[0], values[1]
    body = values[2:]
    if len(body) != 2 * m:
        raise ValueError(f"{path}: expected {m} edges, got {len(body) // 2}")
    edges = list(zip(body[0::2], body[1::2]))
    return Graph.from_edges(n, edges)


def _tol_from(args) -> float:
    """The base tolerance: --tol, else SCHEMEX_TOL, else BASE_TOL; finite and > 0."""
    if args.tol is not None:
        tol, source = args.tol, "--tol"
    else:
        env = os.environ.get("SCHEMEX_TOL")
        if not env:
            return BASE_TOL
        try:
            tol = float(env)
        except ValueError:
            raise ValueError(f"SCHEMEX_TOL = {env!r} is not a number") from None
        source = "SCHEMEX_TOL"
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"{source} = {tol!r} is not a finite number > 0")
    return tol


def _round12(obj):
    """Fix every float at 12 significant digits so reports are byte-stable."""
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def cmd_validate(args) -> int:
    try:
        rm = _read_scheme_file(args.path)
    except (OSError, ValueError) as e:
        print(f"PARSE ERROR: {e}", file=sys.stderr)
        return EXIT_PARSE
    try:
        build_scheme(rm)
    except SchemeValidationError as e:
        print(f"INVALID: {e}")
        return EXIT_INVALID
    print(f"VALID n={rm.n} d={rm.d}")
    return EXIT_OK


def _report_json(a, tol) -> dict:
    sd = a.spectral
    rep = a.report
    return {
        "n": rep.n,
        "d": rep.d,
        "valencies": list(rep.valencies),
        "theta": sd.theta.tolist(),
        "multiplicities": sd.multiplicities.tolist(),
        "P": sd.P.tolist(),
        "Q": sd.Q.tolist(),
        "krein_min": a.krein.min_value,
        "routes": {name: v.to_dict() for name, v in rep.routes().items()},
        "consensus": {
            "verdict": rep.consensus,
            "status": rep.status,
            "preconditions_ok": rep.preconditions_ok,
            "ordering": list(rep.ordering) if rep.ordering is not None else None,
            "l": rep.l,
        },
        "residuals": {
            "pq_identity": a.pq_residual,
            "multiplicity_rounding": a.multiplicity_residual,
            "mstar_max": a.mstar_max,
        },
        "tol": {"base": tol, "route_match": ROUTE_MATCH_RTOL, "eig_group": EIG_GROUP_RTOL},
    }


def cmd_detect(args) -> int:
    try:
        tol = _tol_from(args)
        rm = _read_scheme_file(args.path)
    except (OSError, ValueError) as e:
        print(f"PARSE ERROR: {e}", file=sys.stderr)
        return EXIT_PARSE
    try:
        s = build_scheme(rm)
    except SchemeValidationError as e:
        print(f"INVALID: {e}")
        return EXIT_INVALID
    try:
        a = analyze(s, base_tol=tol)
    except RouteDisagreement as e:
        print(f"ROUTE DISAGREEMENT: {e}")
        return EXIT_DISAGREE
    rep = a.report
    if args.json:
        payload = json.dumps(_round12(_report_json(a, tol)), indent=2, sort_keys=True)
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    print(f"n={rep.n} d={rep.d} valencies={list(rep.valencies)}")
    routes = " ".join(f"{name}={v.verdict}" for name, v in rep.routes().items())
    print(f"routes: {routes}")
    ordering = list(rep.ordering) if rep.ordering is not None else None
    print(f"consensus={rep.consensus} status={rep.status} ordering={ordering} l={rep.l}")
    return _STATUS_EXIT[rep.status]


def cmd_gen(args) -> int:
    try:
        s = generate(FamilySpec(args.family, tuple(args.params)))
    except ParamOutOfRange as e:
        print(f"ERROR: {e}", file=sys.stderr)
        return EXIT_PARSE
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            write_scheme_file(s, fh)
    else:
        write_scheme_file(s, sys.stdout)
    return EXIT_OK


def _fmt_theta(x: float) -> str:
    return f"{x:.6g}"


def cmd_graph(args) -> int:
    try:
        g = _read_edge_file(args.path)
    except (OSError, ValueError) as e:
        print(f"PARSE ERROR: {e}", file=sys.stderr)
        return EXIT_PARSE
    try:
        rep = spectral_excess_report(g)
    except (NotRegular, Disconnected, TooFewVertices) as e:
        print(f"NOT APPLICABLE: {e}")
        return EXIT_PRECONDITION
    sp = rep.spectrum
    spec_str = " ".join(
        f"{_fmt_theta(t)}^{int(m)}" for t, m in zip(sp.theta, sp.m)
    )
    print(f"n={rep.n} k={rep.degree}")
    print(f"spectrum: {spec_str}")
    print(f"d={rep.d} D={rep.diameter}")
    print(f"excess={rep.excess_mean:g} p_d(theta0)={rep.pd_theta0:.6f}")
    print(f"excess_mean_arith={rep.excess_mean:.6f} excess_mean_harm={rep.excess_harmonic_mean:.6f}")
    print(f"drg={'true' if rep.drg else 'false'}")
    if rep.witness:
        print(f"witness: {rep.witness}")
    if args.json:
        payload = {
            "n": rep.n, "k": rep.degree, "d": rep.d, "diameter": rep.diameter,
            "theta": sp.theta.tolist(), "multiplicities": sp.m.tolist(),
            "pd_theta0": rep.pd_theta0,
            "excess": rep.excess.tolist(),
            "excess_mean": rep.excess_mean,
            "excess_harmonic_mean": rep.excess_harmonic_mean,
            "drg": rep.drg, "witness": rep.witness,
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(_round12(payload), indent=2, sort_keys=True) + "\n")
    return EXIT_OK if rep.drg else EXIT_NO


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="schemex",
        description="association schemes: validation, spectra, and P-polynomial detection",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the scheme axioms of a relation-matrix file")
    p.add_argument("path")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("detect", help="run every detection route on a scheme file")
    p.add_argument("path")
    p.add_argument("--json", metavar="PATH", help="write the full report as JSON")
    p.add_argument("--tol", type=float, default=None,
                   help="base tolerance (default 1e-8; SCHEMEX_TOL env var also honoured)")
    p.set_defaults(fn=cmd_detect)

    p = sub.add_parser("gen", help="generate a named family as a scheme file")
    p.add_argument("family")
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("-o", "--output", metavar="PATH")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("graph", help="spectral-excess report for an edge-list file")
    p.add_argument("path")
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(fn=cmd_graph)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
