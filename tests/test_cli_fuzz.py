"""Property tests: schemex answers every input with a documented exit code, never a traceback."""

from __future__ import annotations

import io
import json

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schemex.cli import (
    EXIT_INVALID,
    EXIT_NO,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    _STATUS_EXIT,
    main,
    write_scheme_file,
)
from schemex.families import FamilySpec, generate

from nxn_reference import reorder_relations

EXIT_CODES = range(6)  # cli module docstring: 0 ok/yes ... 5 route disagreement

FUZZ = settings(max_examples=25, deadline=None)


def _scheme_text(family, params=()):
    buf = io.StringIO()
    write_scheme_file(generate(FamilySpec(family, params)), buf)
    return buf.getvalue()


SCHEME_TEXTS = [
    _scheme_text("cycle", (5,)),
    _scheme_text("hamming", (2, 2)),
    _scheme_text("petersen"),
    _scheme_text("disjoint_cliques", (2, 2)),
]

_tokens = st.one_of(
    st.integers(-3, 12).map(str),
    st.integers(2**63 - 2, 10**25).map(str),  # past int64
    st.integers(-(10**25), -(2**63) + 1).map(str),
    st.integers(10**6, 10**12).map(str),  # a huge n or d in the header
    st.text(max_size=4),
)


@st.composite
def garbled_scheme_bytes(draw):
    """A small scheme file with tokens replaced, inserted or deleted, then cut short."""
    tokens = draw(st.sampled_from(SCHEME_TEXTS)).split()
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(tokens)))
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        if op == "insert" or pos == len(tokens):
            tokens.insert(pos, draw(_tokens))
        elif op == "replace":
            tokens[pos] = draw(_tokens)
        else:
            del tokens[pos]
    data = " ".join(tokens).encode("utf-8") + draw(st.sampled_from([b"", b"\n", b"\xff\xfe"]))
    return data[: draw(st.integers(0, len(data)))] if draw(st.booleans()) else data


@st.composite
def symmetric_relation_files(draw):
    """'n d' and an n x n symmetric matrix with zero diagonal and entries in 0..d, n <= 8."""
    n = draw(st.integers(2, 8))
    d = draw(st.integers(1, 4))
    upper = draw(st.lists(st.integers(0, d), min_size=n * (n - 1) // 2,
                          max_size=n * (n - 1) // 2))
    rel = np.zeros((n, n), dtype=np.int64)
    rel[np.triu_indices(n, 1)] = upper
    rel += rel.T
    rows = [" ".join(map(str, row)) for row in rel.tolist()]
    return "\n".join([f"{n} {d}", *rows]) + "\n"


@st.composite
def edge_files(draw):
    """'n m' and m edges over n <= 6 vertices, out-of-range ends and wrong counts included."""
    n = draw(st.integers(0, 6))
    edges = draw(st.lists(st.tuples(st.integers(-1, n), st.integers(-1, n)), max_size=12))
    m = len(edges) + draw(st.sampled_from([0, 0, 0, 1, -1]))
    return "\n".join([f"{n} {m}", *(f"{u} {v}" for u, v in edges)]) + "\n"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _main(argv):
    rc = main(argv)
    assert rc in EXIT_CODES, (argv, rc)
    return rc


@FUZZ
@given(data=garbled_scheme_bytes())
@example(data=b"2 1\n0 1\n1 99999999999999999999999\n")  # past int64 in the body
@example(data=b"2 99999999999999999999999\n0 1\n1 0\n")  # past int64 as d
@example(data=b"2 1000000000000\n0 1\n1 0\n")  # d fits int64, a length-d array would not fit memory
def test_garbled_scheme_files(workdir, data):
    path = workdir / "garbled.scheme"
    path.write_bytes(data)
    for command in ("validate", "detect"):
        _main([command, str(path)])


@FUZZ
@given(text=symmetric_relation_files())
@example(text="4 1\n0 1 0 1\n1 0 1 0\n0 1 0 1\n1 0 1 0\n")  # relation 0 off the diagonal
def test_random_symmetric_relation_matrices(workdir, text):
    path = workdir / "random.scheme"
    path.write_text(text, encoding="utf-8")
    assert _main(["validate", str(path)]) in (EXIT_OK, EXIT_INVALID)
    _main(["detect", str(path)])


@FUZZ
@given(data=st.data())
def test_relabelled_corpus(workdir, scheme_corpus, corpus_analyses, data):
    """Relabellings fix 0; those that also fix 1 keep the status and map the ordering."""
    name, s, expected = data.draw(st.sampled_from(scheme_corpus))
    head = (0, 1) if data.draw(st.booleans()) else (0,)
    perm = head + tuple(data.draw(st.permutations(range(len(head), s.d + 1))))
    path, report = workdir / "relabelled.scheme", workdir / "relabelled.json"
    with open(path, "w", encoding="utf-8") as fh:
        write_scheme_file(reorder_relations(s, perm), fh)
    rc = _main(["detect", str(path), "--json", str(report)])
    if perm[1] != 1:  # a different relation 1 is a different question
        return
    consensus = json.loads(report.read_text(encoding="utf-8"))["consensus"]
    assert consensus["status"] == expected and rc == _STATUS_EXIT[expected], (name, perm)
    ordering = corpus_analyses[name].report.ordering
    want = [perm[x] for x in ordering] if ordering is not None else None
    assert consensus["ordering"] == want, (name, perm)


@FUZZ
@given(text=edge_files())
@example(text="3 1\n0 99999999999999999999999\n")  # an edge token past int64
@example(text="3 1\n0 x\n")  # a non-integer edge token
def test_small_edge_lists(workdir, text):
    path = workdir / "small.edges"
    path.write_text(text, encoding="utf-8")
    rc = _main(["graph", str(path)])
    try:
        values = [int(tok) for tok in text.split()]
    except ValueError:
        values = None
    if values is None or any(abs(v) >= 2**63 for v in values[2:]):
        assert rc == EXIT_PARSE


# networkx's atlas: every graph on 1..7 vertices (index 0, the null graph, is left out)
ATLAS = nx.graph_atlas_g()[1:]


def _connected_regular(g):
    return g.number_of_nodes() >= 2 and nx.is_connected(g) and nx.is_regular(g)


def _atlas_exits(workdir, graphs):
    """Run ``schemex graph`` on each atlas graph: the regular connected ones exit 0 exactly
    when networkx finds them distance-regular (3 otherwise), every other one exits 4."""
    path = workdir / "atlas.edges"
    for g in graphs:
        edges = [f"{u} {v}" for u, v in g.edges]
        path.write_text("\n".join([f"{g.number_of_nodes()} {len(edges)}", *edges]) + "\n",
                        encoding="utf-8")
        rc = _main(["graph", str(path)])
        if _connected_regular(g):
            assert rc == (EXIT_OK if nx.is_distance_regular(g) else EXIT_NO), g.name
        else:
            assert rc == EXIT_PRECONDITION, g.name


def test_atlas_sample(workdir, capsys):
    regular = [g for g in ATLAS if _connected_regular(g)]
    assert len(regular) == 15
    _atlas_exits(workdir, regular + [g for g in ATLAS if not _connected_regular(g)][::10])
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.slow
def test_whole_atlas(workdir, capsys):
    assert len(ATLAS) == 1252
    _atlas_exits(workdir, ATLAS)
    assert "Traceback" not in capsys.readouterr().err
