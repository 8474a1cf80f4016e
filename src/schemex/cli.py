"""Command line: validate scheme files, run detection, generate families, analyze graphs.

Commands read, compute and print; only :func:`main` maps failures to exit codes, and
:func:`run`, the process entry, maps a stdout closed before its last flush:
0 ok/yes, 1 unreadable input or command-line usage error (PARSE ERROR), or bad gen
parameters, unwritable output or stdout, or no memory left (ERROR), 2 axiom violation (INVALID),
3 verdict no, 4 precondition failed or graph irregular, disconnected or under 2 vertices
(NOT APPLICABLE), 5 route disagreement or a failed analysis sanity check (ANALYSIS FAILURE).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

import numpy as np

from .detect import (
    BASE_TOL,
    NO,
    PRECONDITION_FAILED,
    ROUTE_MATCH_RTOL,
    YES,
    MultipleL,
    RouteDisagreement,
    analyze,
)
from .families import FamilySpec, ParamOutOfRange, generate
from .graph_tools import (
    Disconnected,
    Graph,
    NotRegular,
    SpectrumSanityFailure,
    TooFewVertices,
    spectral_excess_report,
)
from .scheme_core import AssociationScheme, RelationMatrix, SchemeValidationError, build_scheme
from .spectral import EIG_GROUP_RTOL, EigenSplitFailure, NumericalBreakdown

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVALID = 2
EXIT_NO = 3
EXIT_PRECONDITION = 4
EXIT_DISAGREE = 5

_STATUS_EXIT = {YES: EXIT_OK, NO: EXIT_NO, PRECONDITION_FAILED: EXIT_PRECONDITION}


class InputError(ValueError):
    """An input file or the command line could not be read or parsed."""


_CANONICAL_BYTES = b"0123456789 \t\n\r\v\f"


def _canonical(data: bytes) -> bool:
    """Only ASCII digits and ASCII whitespace, and no token past 14 digits.

    Whitespace sorts below "0".  Each aligned 8-byte window holds a whitespace
    byte, checked 8 flags to a word, and a run of 15 digits would cover one.
    """
    if data.translate(None, _CANONICAL_BYTES):
        return False
    space = np.frombuffer(data, dtype=np.uint8) < ord("0")
    return bool(space[:space.size // 8 * 8].view(np.uint64).all())


def _read_ints(path, header: str):
    """A file of integers: the two header values by int(), whatever their size, then the
    rest as int64 (numpy accepts the tokens int() accepts, and overflows past int64).

    A canonical file (:func:`_canonical`) is parsed in C by np.fromstring: its
    values are below 10**14, so np.fromstring never clamps one to int64 and int()
    never refuses one for its length.  Any other file is read token by token, the
    only way that reads the rest of int()'s syntax and words every error.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise InputError(str(e)) from None
    if _canonical(data):
        tokens = data.split(maxsplit=2)
        if len(tokens) >= 2:
            body = tokens[2] if len(tokens) == 3 else b""
            return int(tokens[0]), int(tokens[1]), np.fromstring(body, dtype=np.int64, sep=" ")
    try:
        tokens = data.decode("utf-8").split()
    except ValueError as e:  # a UnicodeDecodeError
        raise InputError(str(e)) from None
    if len(tokens) < 2:
        raise InputError(f"{path}: missing '{header}' header")
    try:
        return int(tokens[0]), int(tokens[1]), np.array(tokens[2:], dtype=np.int64)
    except ValueError as e:
        raise InputError(f"{path}: non-integer token ({e})") from None
    except OverflowError:
        raise InputError(f"{path}: integer token out of int64 range") from None


def _read_scheme_file(path) -> RelationMatrix:
    """Text format: a header line "n d", then n rows of n relation indices."""
    n, d, body = _read_ints(path, "n d")
    if n < 1 or body.size != n * n:
        raise InputError(f"{path}: expected {n}x{n} entries after the header, got {body.size}")
    try:
        return RelationMatrix(n=n, d=d, rel=body.reshape(n, n))
    except ValueError as e:
        raise InputError(str(e)) from None


def write_scheme_file(s: AssociationScheme, fh) -> None:
    fh.write(f"{s.n} {s.d}\n")
    np.savetxt(fh, s.rel, fmt="%d")


def _read_edge_file(path) -> Graph:
    """Text format: a header line "n m", then m lines "u v" (0-indexed)."""
    n, m, body = _read_ints(path, "n m")
    if body.size != 2 * m:
        raise InputError(f"{path}: expected {m} edges, got {body.size // 2}")
    try:
        return Graph.from_edges(n, body.reshape(m, 2))
    except (ValueError, MemoryError) as e:  # MemoryError: no room for the n x n matrix
        raise InputError(str(e)) from None


def _write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(_round12(payload), indent=2, sort_keys=True) + "\n")


def _round12(obj):
    """Fix every float at 12 significant digits so reports are byte-stable."""
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    return obj


def cmd_validate(args) -> int:
    rm = _read_scheme_file(args.path)
    build_scheme(rm)
    print(f"VALID n={rm.n} d={rm.d}")
    return EXIT_OK


def _report_json(a) -> dict:
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
        "routes": {name: v.to_dict() for name, v in rep.routes().items()},
        "consensus": {
            "verdict": rep.consensus,
            "status": rep.status,
            "preconditions_ok": rep.preconditions_ok,
            "ordering": list(rep.ordering) if rep.ordering is not None else None,
            "l": rep.l,
        },
        "residuals": {
            "pq_identity": sd.pq_residual,
            "multiplicity_rounding": sd.multiplicity_residual,
            "mstar_max": a.mstar_max,
        },
        "tol": {"base": BASE_TOL, "route_match": ROUTE_MATCH_RTOL, "eig_group": EIG_GROUP_RTOL},
    }


def cmd_detect(args) -> int:
    a = analyze(build_scheme(_read_scheme_file(args.path)))
    rep = a.report
    if args.json:
        _write_json(args.json, _report_json(a))
    print(f"n={rep.n} d={rep.d} valencies={list(rep.valencies)}")
    routes = " ".join(f"{name}={v.verdict}" for name, v in rep.routes().items())
    print(f"routes: {routes}")
    ordering = list(rep.ordering) if rep.ordering is not None else None
    print(f"consensus={rep.consensus} status={rep.status} ordering={ordering} l={rep.l}")
    return _STATUS_EXIT[rep.status]


def cmd_gen(args) -> int:
    s = generate(FamilySpec(args.family, tuple(args.params)))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            write_scheme_file(s, fh)
    else:
        write_scheme_file(s, sys.stdout)
    return EXIT_OK


def cmd_graph(args) -> int:
    rep = spectral_excess_report(_read_edge_file(args.path))
    sp = rep.spectrum
    if args.json:
        _write_json(args.json, {
            "n": sp.n, "k": rep.degree, "d": sp.d, "diameter": rep.diameter,
            "theta": sp.theta.tolist(), "multiplicities": sp.m.tolist(),
            "pd_theta0": rep.pd_theta0,
            "excess": rep.excess.tolist(),
            "excess_mean": rep.excess_mean,
            "excess_harmonic_mean": rep.excess_harmonic_mean,
            "drg": rep.drg, "witness": rep.witness,
        })
    spec_str = " ".join(f"{t:.6g}^{int(m)}" for t, m in zip(sp.theta, sp.m))
    print(f"n={sp.n} k={rep.degree}")
    print(f"spectrum: {spec_str}")
    print(f"d={sp.d} D={rep.diameter}")
    print(f"excess={rep.excess_mean:g} p_d(theta0)={rep.pd_theta0:.6f}")
    print(f"excess_mean_arith={rep.excess_mean:.6f} excess_mean_harm={rep.excess_harmonic_mean:.6f}")
    print(f"drg={'true' if rep.drg else 'false'}")
    if rep.witness:
        print(f"witness: {rep.witness}")
    return EXIT_OK if rep.drg else EXIT_NO


class _Parser(argparse.ArgumentParser):
    """Usage errors raise InputError, so main reports them like an unreadable input."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
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
    """Run one command; the only place a failure becomes an exit code."""
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except InputError as e:
        print(f"PARSE ERROR: {e}", file=sys.stderr)
        return EXIT_PARSE
    except SchemeValidationError as e:
        print(f"INVALID: {e}")
        return EXIT_INVALID
    except RouteDisagreement as e:
        print(f"ROUTE DISAGREEMENT: {e}")
        return EXIT_DISAGREE
    # sanity checks that no known input fails: like a disagreement, never expected
    except (EigenSplitFailure, MultipleL, NumericalBreakdown, SpectrumSanityFailure) as e:
        print(f"ANALYSIS FAILURE: {type(e).__name__}: {e}")
        return EXIT_DISAGREE
    except (NotRegular, Disconnected, TooFewVertices) as e:
        print(f"NOT APPLICABLE: {e}")
        return EXIT_PRECONDITION
    # OSError: an output file (inputs raise InputError); MemoryError: e.g. a gen too large to build
    except (ParamOutOfRange, OSError, MemoryError) as e:
        print(f"ERROR: {str(e) or 'out of memory'}", file=sys.stderr)
        return EXIT_PARSE


def run() -> int:
    """The process entry, of ``schemex`` and of ``python -m schemex.cli``: :func:`main`,
    then stdout flushed and the heap frozen.

    A stdout closed by its reader is one ERROR line and exit 1, the exit an
    unbuffered stdout already gives from inside main; /dev/null then takes its
    descriptor, so the interpreter's own flush at exit finds nothing to fail on.
    ``gc.freeze()`` moves every object alive now out of the collector's reach,
    so shutdown does not walk the ~22k objects numpy and schemex made at import.
    They live until exit anyway, which is what makes the freeze safe; main never
    freezes, since tests and perfbench's traced mode call it in process.
    """
    try:
        code = main()
    except SystemExit as e:  # argparse's --help, after printing it
        code = e.code
    try:
        if sys.stdout is not None:  # None when the process starts with descriptor 1 closed
            sys.stdout.flush()
    except BrokenPipeError as e:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"ERROR: {e}", file=sys.stderr)
        code = EXIT_PARSE
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
