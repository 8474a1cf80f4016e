from __future__ import annotations

import itertools
import json

import networkx as nx
import numpy as np
import pytest

from schemex import cli
from schemex.cli import (
    EXIT_DISAGREE,
    EXIT_INVALID,
    EXIT_NO,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    main,
)
from schemex.families import FAMILIES, FamilySpec, generate


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


def _petersen_edges():
    s = generate(FamilySpec("petersen"))
    A = s.adjacency(1)
    return [(u, v) for u in range(10) for v in range(u + 1, 10) if A[u, v]]


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
            "krein_min", "routes", "consensus", "residuals", "tol",
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
        assert d["krein_min"] >= -1e-8 * 8
        assert np.allclose(d["P"], d["Q"])  # binary Hamming is self-dual

    def test_json_bytes_are_stable(self, scheme_file, tmp_path):
        src = scheme_file("johnson", (6, 2))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["detect", src, "--json", str(a)]) == EXIT_OK
        assert main(["detect", src, "--json", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()


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
        rc = main(["graph", path, "--json", str(tmp_path / "missing" / "g.json")])
        assert rc == EXIT_PARSE
        assert "drg=true" in self._assert_one_error(capsys)  # stdout comes first

    def test_gen_output(self, tmp_path, capsys):
        rc = main(["gen", "cycle", "5", "-o", str(tmp_path / "missing" / "x")])
        assert rc == EXIT_PARSE
        assert self._assert_one_error(capsys) == ""


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


class TestExitCodes:
    def test_distinct(self):
        codes = [EXIT_OK, EXIT_PARSE, EXIT_INVALID, EXIT_NO,
                 EXIT_PRECONDITION, EXIT_DISAGREE]
        assert codes == [0, 1, 2, 3, 4, 5]
