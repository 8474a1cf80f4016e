from __future__ import annotations

import ast
import gc
import itertools
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from schemex import cli, graph_tools
from schemex.cli import (
    EXIT_DISAGREE,
    EXIT_INVALID,
    EXIT_NO,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    main,
)
from schemex.detect import MultipleL, RouteDisagreement
from schemex.spectral import EigenSplitFailure, NumericalBreakdown, Spectrum
from schemex.families import FAMILIES, FamilySpec, generate

from nxn_reference import adjacency


@pytest.fixture()
def scheme_file(tmp_path):
    def write(family, params=()):
        out = tmp_path / f"{family}.scheme"
        rc = main(["gen", family, *map(str, params), "-o", str(out)])
        assert rc == EXIT_OK
        return str(out)

    return write


@pytest.fixture()
def edge_file(tmp_path):
    def write(name, n, edges):
        out = tmp_path / f"{name}.edges"
        lines = [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
        out.write_text("\n".join(lines) + "\n")
        return str(out)

    return write


# one generator call per family, every corpus family included
GEN_SPECS = [
    ("cycle", (12,)), ("hamming", (4, 3)), ("johnson", (7, 3)), ("complete", (6,)),
    ("petersen", ()), ("cyclotomic13", ()), ("disjoint_cliques", (3, 3)),
    ("hypercube_reordered", (0, 3, 2, 1)),
]


def _cli_env():
    """The environment of a fresh interpreter that imports this checkout's schemex."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


def _petersen_edges():
    s = generate(FamilySpec("petersen"))
    A = adjacency(s, 1)
    return [(u, v) for u in range(10) for v in range(u + 1, 10) if A[u, v]]


def _cube_edges(dim):
    n = 1 << dim
    return [(u, u ^ (1 << b)) for u in range(n) for b in range(dim) if u < u ^ (1 << b)]


class TestGen:
    def test_stdout_header(self, capsys):
        assert main(["gen", "cycle", "5"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "5 2"
        assert len(out.splitlines()) == 6

    def test_hamming_header(self, capsys):
        assert main(["gen", "hamming", "3", "2"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[0] == "8 3"

    def test_johnson_header(self, capsys):
        assert main(["gen", "johnson", "5", "2"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[0] == "10 2"

    def test_unknown_family(self, capsys):
        assert main(["gen", "paley", "13"]) == EXIT_PARSE
        assert "paley" in capsys.readouterr().err

    def test_bad_params(self, capsys):
        assert main(["gen", "cycle", "2"]) == EXIT_PARSE

    def test_output_is_a_per_row_join(self, capsys):
        assert {family for family, _ in GEN_SPECS} == set(FAMILIES)
        for family, params in GEN_SPECS:
            assert main(["gen", family, *map(str, params)]) == EXIT_OK
            s = generate(FamilySpec(family, params))
            rows = [" ".join(str(int(v)) for v in row) for row in s.rel]
            want = "\n".join([f"{s.n} {s.d}", *rows]) + "\n"
            assert capsys.readouterr().out == want, family

    def test_roundtrip_through_validate(self, scheme_file, capsys):
        path = scheme_file("johnson", (5, 2))
        assert main(["validate", path]) == EXIT_OK
        assert "VALID n=10 d=2" in capsys.readouterr().out


class TestValidate:
    def test_ok(self, scheme_file, capsys):
        assert main(["validate", scheme_file("hamming", (3, 2))]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "VALID n=8 d=3"

    def test_axiom_failure(self, tmp_path, capsys):
        # path graph distances: pair products are not constant on classes
        bad = tmp_path / "bad.scheme"
        bad.write_text("3 2\n0 1 2\n1 0 1\n2 1 0\n")
        assert main(["validate", str(bad)]) == EXIT_INVALID
        assert capsys.readouterr().out.startswith("INVALID:")

    def test_parse_failure(self, tmp_path, capsys):
        bad = tmp_path / "garbled.scheme"
        bad.write_text("2 1\n0 x\nx 0\n")
        assert main(["validate", str(bad)]) == EXIT_PARSE
        assert capsys.readouterr().err != ""

    def test_missing_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope")]) == EXIT_PARSE

    @pytest.mark.parametrize("command", ["validate", "detect"])
    def test_oversized_token(self, tmp_path, capsys, command):
        bad = tmp_path / "huge.scheme"
        bad.write_text("2 1\n0 1\n1 99999999999999999999999\n")
        assert main([command, str(bad)]) == EXIT_PARSE
        assert "PARSE ERROR" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "detect"])
    def test_oversized_class_count(self, tmp_path, capsys, command):
        bad = tmp_path / "huge-d.scheme"
        bad.write_text("2 99999999999999999999999\n0 1\n1 0\n")
        assert main([command, str(bad)]) == EXIT_INVALID
        assert capsys.readouterr().out.startswith("INVALID: relation index 2 never occurs")

    def test_index_past_uint16(self, tmp_path, capsys):
        bad = tmp_path / "wide.scheme"
        bad.write_text("2 65537\n0 65537\n65537 0\n")
        assert main(["validate", str(bad)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("PARSE ERROR") and "relation index 65537" in err

    def test_wrong_row_count(self, tmp_path):
        bad = tmp_path / "short.scheme"
        bad.write_text("3 1\n0 1 1\n1 0 1\n")
        assert main(["validate", str(bad)]) == EXIT_PARSE


class TestDetect:
    def test_yes(self, scheme_file, capsys):
        assert main(["detect", scheme_file("hamming", (3, 2))]) == EXIT_OK
        out = capsys.readouterr().out
        assert "status=yes" in out
        assert "ordering=[0, 1, 2, 3]" in out
        assert "l=3" in out

    def test_no(self, scheme_file, capsys):
        assert main(["detect", scheme_file("cyclotomic13")]) == EXIT_NO
        assert "status=no" in capsys.readouterr().out

    def test_precondition(self, scheme_file, capsys):
        rc = main(["detect", scheme_file("disjoint_cliques", (3, 3))])
        assert rc == EXIT_PRECONDITION
        assert "status=precondition-failed" in capsys.readouterr().out

    def test_invalid_scheme(self, tmp_path):
        bad = tmp_path / "bad.scheme"
        bad.write_text("3 2\n0 1 2\n1 0 1\n2 1 0\n")
        assert main(["detect", str(bad)]) == EXIT_INVALID

    def test_json_contents(self, scheme_file, tmp_path):
        out = tmp_path / "report.json"
        assert main(["detect", scheme_file("hamming", (3, 2)),
                     "--json", str(out)]) == EXIT_OK
        d = json.loads(out.read_text())
        assert set(d) == {
            "n", "d", "valencies", "theta", "multiplicities", "P", "Q",
            "routes", "consensus", "residuals", "tol",
        }
        assert d["n"] == 8 and d["d"] == 3
        assert d["valencies"] == [1, 3, 3, 1]
        assert d["theta"] == [3, 1, -1, -3]
        assert d["multiplicities"] == [1, 3, 3, 1]
        assert d["consensus"] == {
            "verdict": "yes", "status": "yes", "preconditions_ok": True,
            "ordering": [0, 1, 2, 3], "l": 3,
        }
        assert set(d["routes"]) == {
            "tridiagonal", "nstar", "excess", "predistance", "q_poly"
        }
        assert all(v["verdict"] == "yes" for v in d["routes"].values())
        assert d["residuals"]["pq_identity"] < 1e-8
        assert d["residuals"]["mstar_max"] < 1e-8
        assert np.allclose(d["P"], d["Q"])  # binary Hamming is self-dual

    def test_json_bytes_are_stable(self, scheme_file, tmp_path):
        src = scheme_file("johnson", (6, 2))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["detect", src, "--json", str(a)]) == EXIT_OK
        assert main(["detect", src, "--json", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.slow
    def test_hamming_10_2(self, scheme_file, capsys):
        # n = 1024, d = 10: about 0.8 s with the gen step, so it stays out of the default run
        assert main(["detect", scheme_file("hamming", (10, 2))]) == EXIT_OK
        out = capsys.readouterr().out
        assert "status=yes" in out
        assert f"ordering={list(range(11))}" in out

    @pytest.mark.slow
    def test_cycle_1000(self, scheme_file, capsys):
        # d = 500: the largest d detect is run on; see CHANGES.md for its time and peak RSS
        path = scheme_file("cycle", (1000,))
        assert main(["detect", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "status=yes" in out
        assert "l=500" in out
        # in a process of its own: the (d+1)^3 tensor, 959 MB here, is never counted
        tool = Path(__file__).resolve().parents[1] / "tools" / "child_rss.py"
        proc = subprocess.run([sys.executable, str(tool), "--runs", "1", "--", sys.executable,
                               "-m", "schemex.cli", "detect", path], env=_cli_env(),
                              capture_output=True, text=True, check=True)
        got = json.loads(proc.stdout.splitlines()[-1])
        assert got["runs"][0]["exit"] == EXIT_OK and got["rss_mb"]["max"] < 200


class TestGraph:
    def test_petersen(self, edge_file, capsys):
        path = edge_file("petersen", 10, _petersen_edges())
        assert main(["graph", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "n=10 k=3" in out
        assert "spectrum: 3^1 1^5 -2^4" in out
        assert "excess=6 p_d(theta0)=6.000000" in out
        assert "drg=true" in out

    def test_prism_not_drg(self, edge_file, capsys):
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                 (0, 3), (1, 4), (2, 5)]
        assert main(["graph", edge_file("prism", 6, edges)]) == EXIT_NO
        assert "drg=false" in capsys.readouterr().out

    def test_four_cube_prints_zero_eigenvalue(self, edge_file, tmp_path, capsys):
        # the computed zero cluster straddles 0, so it prints as 0, not as its mean's rounding noise
        path = edge_file("cube4", 16, _cube_edges(4))
        out = tmp_path / "cube4.json"
        assert main(["graph", path, "--json", str(out)]) == EXIT_OK
        assert "spectrum: 4^1 2^4 0^6 -2^4 -4^1\n" in capsys.readouterr().out
        d = json.loads(out.read_text())
        assert d["theta"][2] == 0.0 and d["multiplicities"][2] == 6

    @pytest.mark.slow
    def test_ten_cube(self, edge_file, capsys):
        # n = 1024, d = D = 10: about 0.5 s, so it stays out of the default run
        assert main(["graph", edge_file("cube10", 1024, _cube_edges(10))]) == EXIT_OK
        out = capsys.readouterr().out
        assert "d=10 D=10" in out
        assert " 0^252 " in out
        assert "drg=true" in out

    @pytest.mark.slow
    def test_eleven_cube(self, edge_file, capsys):
        # n = 2048, below the 4097 vertices up to which Seidel's products run in float32
        assert main(["graph", edge_file("cube11", 2048, _cube_edges(11))]) == EXIT_OK
        out = capsys.readouterr().out
        assert "d=11 D=11" in out
        assert "drg=true" in out

    def test_star_is_not_regular(self, edge_file, capsys):
        edges = [(0, 1), (0, 2), (0, 3)]
        assert main(["graph", edge_file("star", 4, edges)]) == EXIT_PRECONDITION
        out = capsys.readouterr().out
        assert out.startswith("NOT APPLICABLE:")
        assert "degrees" in out

    def test_disconnected(self, edge_file):
        assert main(["graph", edge_file("pair", 4, [(0, 1), (2, 3)])]) \
            == EXIT_PRECONDITION

    def test_random_regular_with_d_far_above_diameter(self, edge_file, capsys):
        # 60 distinct eigenvalues, so d = 59 while the diameter is about 5
        h = nx.random_regular_graph(4, 60, seed=1)
        assert main(["graph", edge_file("rr4", 60, list(h.edges()))]) == EXIT_NO
        assert "drg=false" in capsys.readouterr().out

    def test_top_value_below_float_range_is_zero(self, edge_file, tmp_path, capsys):
        # d = 728 and diameter 4: p_d(theta_0) is near 1e-1060, which float64 holds as 0.0
        h = nx.random_regular_graph(12, 729, seed=1)
        out = tmp_path / "rr12.json"
        assert main(["graph", edge_file("rr12", 729, list(h.edges())), "--json", str(out)]) == EXIT_NO
        assert "p_d(theta0)=0.000000\n" in capsys.readouterr().out
        assert json.loads(out.read_text())["pd_theta0"] == 0.0

    def test_named_drgs(self, edge_file, capsys, named_drgs):
        for name, h, _q_poly in named_drgs:
            h = nx.convert_node_labels_to_integers(h)
            path = edge_file(name, h.number_of_nodes(), list(h.edges()))
            assert main(["graph", path]) == EXIT_OK, name
            assert "drg=true\n" in capsys.readouterr().out, name

    def test_every_graph_on_at_most_four_vertices(self, edge_file, capsys):
        # all 1 + 2 + 8 + 64 = 75 labelled graphs on 1..4 vertices
        count = 0
        for n in range(1, 5):
            pairs = list(itertools.combinations(range(n), 2))
            for mask in range(2 ** len(pairs)):
                edges = [p for b, p in enumerate(pairs) if mask >> b & 1]
                rc = main(["graph", edge_file(f"g{n}_{mask}", n, edges)])
                assert rc in (EXIT_OK, EXIT_NO, EXIT_PRECONDITION), (n, edges, rc)
                out = capsys.readouterr().out.splitlines()
                if n == 1:  # the edge file "1 0"
                    assert rc == EXIT_PRECONDITION
                    assert len(out) == 1 and out[0].startswith("NOT APPLICABLE:")
                count += 1
        assert count == 75

    def test_parse_error(self, tmp_path):
        bad = tmp_path / "bad.edges"
        bad.write_text("4 1\n0 q\n")
        assert main(["graph", str(bad)]) == EXIT_PARSE

    @pytest.mark.parametrize("n", [10**12, 3 * 10**9, 10**25])
    def test_absurd_vertex_count_fails_fast(self, tmp_path, capsys, n):
        # numpy refuses the n x n adjacency matrix before any edge is read:
        # past the largest array size, or past the address space at n = 3e9
        bad = tmp_path / "huge.edges"
        bad.write_text(f"{n} 0\n")
        assert main(["graph", str(bad)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("PARSE ERROR")

    def test_json(self, edge_file, tmp_path):
        path = edge_file("petersen", 10, _petersen_edges())
        out = tmp_path / "g.json"
        assert main(["graph", path, "--json", str(out)]) == EXIT_OK
        d = json.loads(out.read_text())
        assert d["drg"] is True
        assert d["n"] == 10 and d["k"] == 3
        assert d["pd_theta0"] == pytest.approx(6.0)


class TestOutputFiles:
    """An output file that cannot be written is one ERROR line and exit 1, never a traceback."""

    def _assert_one_error(self, capsys):
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR:"), captured.err
        return captured.out

    def test_detect_json(self, scheme_file, tmp_path, capsys):
        src = scheme_file("cycle", (5,))
        capsys.readouterr()
        rc = main(["detect", src, "--json", str(tmp_path / "missing" / "r.json")])
        assert rc == EXIT_PARSE
        assert self._assert_one_error(capsys) == ""  # the report is written before stdout

    def test_graph_json(self, edge_file, tmp_path, capsys):
        path = edge_file("petersen", 10, _petersen_edges())
        capsys.readouterr()
        rc = main(["graph", path, "--json", str(tmp_path / "missing" / "g.json")])
        assert rc == EXIT_PARSE
        assert self._assert_one_error(capsys) == ""  # the report is written before stdout

    def test_gen_output(self, tmp_path, capsys):
        rc = main(["gen", "cycle", "5", "-o", str(tmp_path / "missing" / "x")])
        assert rc == EXIT_PARSE
        assert self._assert_one_error(capsys) == ""


class TestGenSizeBound:
    """Parameters far past the point cap are refused before any point is counted."""

    @staticmethod
    def _limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

    @pytest.mark.parametrize("params, err", [
        (("hamming", "100000000000000000000", "2"),
         "hamming(100000000000000000000,2) has more than 5000 points"),
        (("johnson", "100000000", "50000000"),
         "johnson(100000000,50000000) has more than 5000 points"),
    ])
    def test_huge_parameters_fail_fast(self, params, err):
        # a subprocess, so a regression that counts the points times out instead of hanging
        proc = subprocess.run(
            [sys.executable, "-m", "schemex.cli", "gen", *params], env=_cli_env(),
            capture_output=True, text=True, timeout=10, preexec_fn=self._limit_memory,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_PARSE, "", f"ERROR: {err}\n")

    @pytest.mark.parametrize("params, err", [
        (("hamming", "12", "9" * 4300), f"hamming(12,{'9' * 4300}) has more than 5000 points"),
        (("disjoint_cliques", "9" * 4300, "9" * 4300),
         f"disjoint_cliques({'9' * 4300},{'9' * 4300}) has more than 5000 points"),
    ], ids=["hamming", "disjoint_cliques"])
    def test_point_count_past_the_digit_limit(self, capsys, params, err):
        # q^12 and c m have more digits than Python converts to a string
        assert main(["gen", *params]) == EXIT_PARSE
        assert capsys.readouterr() == ("", f"ERROR: {err}\n")


class TestOutOfMemory:
    """No memory left is one ERROR line and exit 1, never a traceback.

    The failure is injected: a real cycle(5000) asks numpy for 117 GiB, which
    an overcommitting kernel grants lazily and then kills the process filling it.
    """

    @pytest.mark.parametrize("exc, err", [
        (MemoryError("Unable to allocate 117. GiB"), "ERROR: Unable to allocate 117. GiB"),
        (MemoryError(), "ERROR: out of memory"),
    ])
    def test_gen(self, monkeypatch, capsys, exc, err):
        def no_room(spec):
            raise exc

        monkeypatch.setattr(cli, "generate", no_room)
        assert main(["gen", "cycle", "5000"]) == EXIT_PARSE
        assert capsys.readouterr() == ("", err + "\n")

    def test_detect(self, scheme_file, monkeypatch, capsys):
        src = scheme_file("cycle", (5,))
        capsys.readouterr()

        def no_room(rm):
            raise MemoryError("Unable to allocate 8. GiB")

        monkeypatch.setattr(cli, "build_scheme", no_room)
        assert main(["detect", src]) == EXIT_PARSE
        assert capsys.readouterr() == ("", "ERROR: Unable to allocate 8. GiB\n")


class TestUsageErrors:
    """A bad command line is one PARSE ERROR line and exit 1; exit 2 stays INVALID's."""

    @pytest.mark.parametrize("argv, err", [
        (["gen", "hamming", "x", "2"], "schemex gen: argument params: invalid int value: 'x'"),
        (["detect"], "schemex detect: the following arguments are required: path"),
        (["bogus"], "schemex: argument command: invalid choice: 'bogus'"),
        (["detect", "F", "--tol", "1e-7"], "schemex: unrecognized arguments: --tol 1e-7"),
    ])
    def test_one_parse_error_line(self, capsys, argv, err):
        assert main(argv) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"PARSE ERROR: {err}")
        assert len(captured.err.splitlines()) == 1

    def test_help_exits_zero_and_lists_no_tol(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["detect", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--json" in out and "--tol" not in out


class TestProcessEntry:
    """A process runs cli.run: main, then stdout flushed and the heap frozen."""

    def test_main_leaves_the_heap_unfrozen(self, scheme_file):
        # library callers and the in-process benchmark never get a frozen heap
        path = scheme_file("hamming", (3, 2))
        frozen = gc.get_freeze_count()
        assert main(["detect", path]) == EXIT_OK
        assert gc.get_freeze_count() == frozen

    def test_both_entries_name_run(self):
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        assert '[project.scripts]\nschemex = "schemex.cli:run"\n' in pyproject.read_text(
            encoding="utf-8")
        guard = ast.parse(Path(cli.__file__).read_text(encoding="utf-8")).body[-1]
        assert ast.unparse(guard) == "if __name__ == '__main__':\n    sys.exit(run())"

    @pytest.mark.parametrize("command", ["detect", "graph"])
    def test_a_process_prints_what_main_prints(self, scheme_file, edge_file, tmp_path, capsys,
                                               command):
        path = (scheme_file("cyclotomic13") if command == "detect"
                else edge_file("petersen", 10, _petersen_edges()))
        capsys.readouterr()
        code = main([command, path, "--json", str(tmp_path / "main.json")])
        out, err = capsys.readouterr()
        proc = subprocess.run(
            [sys.executable, "-m", "schemex.cli", command, path, "--json",
             str(tmp_path / "process.json")],
            env=_cli_env(), capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
        assert (tmp_path / "process.json").read_bytes() == (tmp_path / "main.json").read_bytes()

    @pytest.mark.parametrize("argv", [["detect", "FILE"], ["gen", "cycle", "300"],
                                      ["detect", "--help"]], ids=["detect", "gen", "help"])
    def test_a_closed_stdout_is_one_error_line(self, scheme_file, argv):
        # a buffered stdout (no PYTHONUNBUFFERED) holds a short output until the last flush
        argv = [scheme_file("hamming", (3, 2)) if a == "FILE" else a for a in argv]
        env = _cli_env()
        env.pop("PYTHONUNBUFFERED", None)
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "schemex.cli", *argv], env=env,
                                  stdout=write, stderr=subprocess.PIPE, text=True, timeout=60)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (EXIT_PARSE, "ERROR: [Errno 32] Broken pipe\n")

    def test_no_stdout_at_all(self, scheme_file):
        # started with descriptor 1 closed, Python sets sys.stdout to None and print is a no-op
        proc = subprocess.run(
            [sys.executable, "-m", "schemex.cli", "detect", scheme_file("hamming", (3, 2))],
            env=_cli_env(), stderr=subprocess.PIPE, text=True, timeout=60,
            preexec_fn=lambda: os.close(1))
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")


class TestExitCodes:
    def test_route_disagreement(self, monkeypatch, capsys, scheme_file):
        path = scheme_file("cycle", (6,))

        def disagree(_scheme):
            raise RouteDisagreement("routes disagree: tridiagonal=yes, nstar=no")

        monkeypatch.setattr(cli, "analyze", disagree)
        assert main(["detect", path]) == EXIT_DISAGREE
        out = capsys.readouterr().out
        assert out == "ROUTE DISAGREEMENT: routes disagree: tridiagonal=yes, nstar=no\n"

    @pytest.mark.parametrize("exc", [
        EigenSplitFailure("eigenvector with vanishing identity coordinate"),
        MultipleL("columns [1, 2] all satisfy kappa_i = -Q_i(l)"),
        NumericalBreakdown("||q_3||^2 = 5.000e-19 collapsed during Gram-Schmidt"),
    ])
    def test_analysis_failure(self, monkeypatch, capsys, scheme_file, exc):
        path = scheme_file("cycle", (6,))

        def fail(_scheme):
            raise exc

        monkeypatch.setattr(cli, "analyze", fail)
        assert main(["detect", path]) == EXIT_DISAGREE
        assert capsys.readouterr() == (f"ANALYSIS FAILURE: {type(exc).__name__}: {exc}\n", "")

    def test_graph_spectrum_failure(self, monkeypatch, capsys, edge_file):
        path = edge_file("petersen", 10, _petersen_edges())
        exact = np.linalg.eigvalsh

        def bent(a):
            w = exact(a)
            w[-1] += 0.01
            return w

        monkeypatch.setattr(np.linalg, "eigvalsh", bent)
        assert main(["graph", path]) == EXIT_DISAGREE
        assert capsys.readouterr() == (
            "ANALYSIS FAILURE: SpectrumSanityFailure: sum m theta^2 = 30.0601 but n k = 30\n", "")

    def test_a_drg_with_a_miscounted_spectrum(self, monkeypatch, capsys, edge_file):
        # Petersen's distance partition validates, so its 4 eigenvalues here are a
        # miscount, not evidence against distance-regularity
        path = edge_file("petersen", 10, _petersen_edges())
        wrong = Spectrum(theta=[3.0, 1.0, -1.0, -2.0], m=[1.0, 4.0, 1.0, 4.0], n=10)
        monkeypatch.setattr(graph_tools, "graph_spectrum", lambda g: wrong)
        assert main(["graph", path]) == EXIT_DISAGREE
        assert capsys.readouterr() == (
            "ANALYSIS FAILURE: SpectrumSanityFailure: the distance partition validates, so "
            "diameter 2 needs 3 distinct eigenvalues, but 4 were found\n", "")

    def test_distinct(self):
        codes = [EXIT_OK, EXIT_PARSE, EXIT_INVALID, EXIT_NO,
                 EXIT_PRECONDITION, EXIT_DISAGREE]
        assert codes == [0, 1, 2, 3, 4, 5]
