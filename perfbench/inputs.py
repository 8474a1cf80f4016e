"""Benchmark inputs: the benchmark's own scheme and graph generators.

Nothing here calls into schemex, so building the inputs costs no validation
and enters no metric.  Every scheme is generated with its classes in distance
order, so a metric scheme's expected ordering is (0, 1, ..., d) before the
seeded relabelling.

The seed sets a random point relabelling and, for schemes, a random
relabelling of classes 2..d that fixes 0 and 1.  Neither changes the verdict
or the amount of work; the expected ordering becomes the image of (0..d)
under the class relabelling.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from pathlib import Path

import numpy as np

YES = "yes"
NO = "no"
PRECONDITION_FAILED = "precondition-failed"

# CLI exit codes (schemex README)
EXIT_OK = 0
EXIT_NO = 3
EXIT_PRECONDITION = 4
STATUS_EXIT = {YES: EXIT_OK, NO: EXIT_NO, PRECONDITION_FAILED: EXIT_PRECONDITION}

# The random regular graph is fixed; the run seed only relabels its points, so
# the amount of work never depends on the seed.
RANDOM_GRAPH_SEED = 20111020


@dataclass(eq=False)
class Case:
    """One input and what the program must answer for it.

    Scheme cases carry ``rel`` (relabelled) and expect ``status``, ``ordering``
    and ``l``; graph cases carry ``edge_array`` and expect ``drg``, ``k`` and
    ``diameter``.  ``d`` is the class count of a scheme and the diameter of a
    graph; ``edges`` counts relation-1 pairs of a scheme.
    """

    name: str
    kind: str  # "scheme" or "graph"
    n: int
    d: int
    edges: int
    exit: int
    status: str | None = None
    ordering: tuple | None = None
    l: int | None = None
    drg: bool | None = None
    k: int | None = None
    rel: np.ndarray | None = None
    edge_array: np.ndarray | None = None
    path: Path | None = None  # the input file a CLI attempt reads
    rm: object = None  # the schemex RelationMatrix a library attempt reads

    def sizes(self) -> str:
        return f"n={self.n} d={self.d} edges={self.edges}"


# --- scheme generators, classes in distance order ---------------------------

def _hamming(n, q):
    pts = np.array(list(product(range(q), repeat=n)), dtype=np.int16)
    return (pts[:, None, :] != pts[None, :, :]).sum(axis=2), n


def _johnson_membership(v, k):
    subsets = list(combinations(range(v), k))
    memb = np.zeros((len(subsets), v), dtype=np.int64)
    for row, sub in enumerate(subsets):
        memb[row, list(sub)] = 1
    return memb


def _johnson(v, k):
    memb = _johnson_membership(v, k)
    return k - memb @ memb.T, k


def _cycle(n):
    i = np.arange(n)
    diff = (i[:, None] - i[None, :]) % n
    return np.minimum(diff, n - diff), n // 2


def _complete(n):
    return 1 - np.eye(n, dtype=np.int64), 1


def _petersen():
    # johnson(5,2) with "disjoint" as relation 1: the Petersen graph
    memb = _johnson_membership(5, 2)
    shared = memb @ memb.T
    return np.where(shared == 2, 0, 1 + shared), 2


def _cyclotomic13():
    lut = np.zeros(13, dtype=np.int64)
    for cls, members in {1: (1, 5, 8, 12), 2: (2, 3, 10, 11), 3: (4, 6, 7, 9)}.items():
        lut[list(members)] = cls
    i = np.arange(13)
    return lut[(i[None, :] - i[:, None]) % 13], 3


def _disjoint_cliques(c, m):
    block = np.arange(c * m) // m
    rel = np.where(block[:, None] == block[None, :], 1, 2)
    np.fill_diagonal(rel, 0)
    return rel, 2


def _cube_antipodal_first():
    # the 3-cube with the antipodal matching promoted to relation 1
    rel, d = _hamming(3, 2)
    return np.array([0, 3, 2, 1])[rel], d


# (name, generator, expected status): the 29 entries of schemex.families.corpus()
CORPUS = (
    [(f"cycle({n})", lambda n=n: _cycle(n), YES) for n in range(5, 13)]
    + [(f"hamming({n},{q})", lambda n=n, q=q: _hamming(n, q), YES)
       for n, q in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)]]
    + [(f"johnson({v},2)", lambda v=v: _johnson(v, 2), YES) for v in range(4, 9)]
    + [("johnson(7,3)", lambda: _johnson(7, 3), YES)]
    + [(f"complete({n})", lambda n=n: _complete(n), YES) for n in range(2, 7)]
    + [("petersen", _petersen, YES),
       ("cyclotomic13", _cyclotomic13, NO),
       ("disjoint_cliques(3,3)", lambda: _disjoint_cliques(3, 3), PRECONDITION_FAILED),
       ("hamming(3,2)+A1=antipodal", _cube_antipodal_first, PRECONDITION_FAILED)]
)

# the parts of the size ladder that current code finishes, plus cycle(100),
# which shows the d >= 22 predistance breakdown
LADDER = (
    ("hamming(6,3)", lambda: _hamming(6, 3)),
    ("johnson(12,4)", lambda: _johnson(12, 4)),
    ("cycle(44)", lambda: _cycle(44)),
    ("cycle(100)", lambda: _cycle(100)),
)


def scheme_case(name, rel, d, status, rng) -> Case:
    n = rel.shape[0]
    pts = rng.permutation(n)
    cls = np.concatenate([[0, 1], 2 + rng.permutation(d - 1)])
    out = cls[rel[np.ix_(pts, pts)]].astype(np.int64)
    ordering = tuple(int(c) for c in cls) if status == YES else None
    return Case(
        name=name, kind="scheme", n=n, d=d, edges=int((out == 1).sum()) // 2,
        exit=STATUS_EXIT[status], status=status, ordering=ordering,
        l=ordering[-1] if ordering else None, rel=out,
    )


def corpus_cases(seed: int) -> list:
    return [scheme_case(name, *gen(), status, np.random.default_rng([seed, idx]))
            for idx, (name, gen, status) in enumerate(CORPUS)]


def ladder_cases(seed: int) -> list:
    return [scheme_case(name, *gen(), YES, np.random.default_rng([seed, idx]))
            for idx, (name, gen) in enumerate(LADDER)]


# --- graphs -----------------------------------------------------------------

def _rook(a, b):
    row, col = np.divmod(np.arange(a * b), b)
    adj = (row[:, None] == row[None, :]) ^ (col[:, None] == col[None, :])
    return np.argwhere(np.triu(adj, 1))


def _random_regular(n, k, seed):
    """Pairing model: pair the remaining stubs at random, keep the legal pairs, repeat."""
    rng = np.random.default_rng(seed)
    while True:
        edges = set()
        stubs = np.repeat(np.arange(n), k)
        while stubs.size:
            rng.shuffle(stubs)
            left = []
            for u, v in stubs.reshape(-1, 2):
                e = (min(u, v), max(u, v))
                if u == v or e in edges:
                    left += [u, v]
                else:
                    edges.add(e)
            if len(left) == stubs.size:
                break  # stuck: start over
            stubs = np.array(left, dtype=np.int64)
        if not stubs.size:
            return np.array(sorted(edges), dtype=np.int64)


def _diameter(n, edge_array):
    """Diameter by boolean frontier expansion; raises if the graph is disconnected."""
    A = np.zeros((n, n), dtype=np.float32)
    A[edge_array[:, 0], edge_array[:, 1]] = 1
    A[edge_array[:, 1], edge_array[:, 0]] = 1
    reached = np.eye(n, dtype=bool)
    frontier = reached.astype(np.float32)
    steps = 0
    while not reached.all():
        nxt = (frontier @ A > 0) & ~reached
        if not nxt.any():
            raise ValueError("generated graph is disconnected")
        reached |= nxt
        frontier = nxt.astype(np.float32)
        steps += 1
    return steps


GRAPHS = (
    ("johnson(12,4)-graph", lambda: np.argwhere(np.triu(_johnson(12, 4)[0] == 1)), True),
    ("8-cube", lambda: np.argwhere(np.triu(_hamming(8, 2)[0] == 1)), True),
    ("rook(20x25)", lambda: _rook(20, 25), False),
    ("random-12-regular(729)", lambda: _random_regular(729, 12, RANDOM_GRAPH_SEED), False),
)


def graph_cases(seed: int) -> list:
    cases = []
    for idx, (name, gen, drg) in enumerate(GRAPHS):
        edge_array = gen()
        n = int(edge_array.max()) + 1
        pts = np.random.default_rng([seed, idx]).permutation(n)
        edge_array = pts[edge_array]
        degrees = np.bincount(edge_array.ravel(), minlength=n)
        cases.append(Case(
            name=name, kind="graph", n=n, d=_diameter(n, edge_array),
            edges=len(edge_array), exit=EXIT_OK if drg else EXIT_NO,
            drg=drg, k=int(degrees[0]), edge_array=edge_array,
        ))
    return cases


def cli_cases(seed: int) -> list:
    return ladder_cases(seed) + graph_cases(seed)


WORKLOADS = {"corpus": corpus_cases, "cli": cli_cases}


def write_input(case: Case, path: Path) -> None:
    """Write the scheme or edge-list file that the CLI reads."""
    if case.kind == "scheme":
        lines = [f"{case.n} {case.d}"] + [" ".join(map(str, row)) for row in case.rel.tolist()]
    else:
        lines = [f"{case.n} {case.edges}"] + [f"{u} {v}" for u, v in case.edge_array.tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    case.path = path
