"""The whole-array forms of spectral_data, the Krein slab q^k_{1j} and the integer walks
against their loop references in nxn_reference, bit for bit, and kappa against its
scalar product loop within 1e-12.

The inputs are the corpus under three class relabellings (classes 2..d
permuted, 0 and 1 fixed) and eight ladder schemes: 95 analyses.  They include
the tied corpus entries, where the eigenspace refinement runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from schemex import corpus
from schemex.detect import (
    BASE_TOL,
    PerronNotSeparated,
    krein_parameters,
    nstar_sets,
)
from schemex.families import FamilySpec, generate
from schemex.scheme_core import greedy_chain
from schemex.spectral import spectral_data

from nxn_reference import (
    dense,
    generates_algebra_loop,
    greedy_chain_loop,
    kappa_scalar,
    krein_slabs_loop,
    nstar_sets_loop,
    reorder_relations,
    spectral_data_loop,
)

LADDER = [("hamming", (6, 3)), ("johnson", (12, 4)), ("cycle", (44,)), ("cycle", (45,)),
          ("cycle", (100,)), ("cycle", (200,)), ("hamming", (4, 4)), ("johnson", (9, 3))]


@pytest.fixture(scope="module")
def inputs():
    """(name, scheme, spectral data) for the 95 inputs."""
    out = []
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        for name, s, _status in corpus():
            perm = [0, 1, *(2 + rng.permutation(s.d - 1))] if s.d > 1 else [0, 1]
            out.append((f"{name}@{seed}", reorder_relations(s, perm)))
    out += [(f"{fam}{par}", generate(FamilySpec(fam, par))) for fam, par in LADDER]
    return [(name, s, spectral_data(s)) for name, s in out]


def test_the_inputs_reach_refinement(inputs):
    assert len(inputs) == 95
    assert sum(sd.tie is not None for _n, _s, sd in inputs) == 6


def test_spectral_data_matches_the_row_loop(inputs):
    for name, s, sd in inputs:
        ref = spectral_data_loop(s)
        for field in ("P", "Q", "theta", "multiplicities"):
            assert getattr(sd, field).tobytes() == getattr(ref, field).tobytes(), (name, field)
        assert sd.tie == ref.tie, name
        assert sd.pq_residual == ref.pq_residual, name
        assert sd.multiplicity_residual == ref.multiplicity_residual, name
        assert (sd.spectrum is None) == (ref.spectrum is None), name


def test_krein_q1_matches_slab_1_of_the_loop(inputs):
    for name, s, sd in inputs:
        slabs = krein_slabs_loop(s, sd)
        next(slabs)
        assert krein_parameters(s, sd).tobytes() == next(slabs).tobytes(), name


def test_walks_on_lists_match_the_flatnonzero_loops(inputs):
    for name, s, sd in inputs:
        p, d = dense(s), s.d
        for i in range(1, d + 1):
            chain, _witness = greedy_chain(p[:, i, :] > 0, i)
            assert (chain is not None) == generates_algebra_loop(p, i), (name, i)
        support = p[:, 1, :] > 0
        assert greedy_chain(support, 1) == greedy_chain_loop(support, d), name
        q1 = krein_parameters(s, sd) > BASE_TOL * max(1.0, s.n)
        assert greedy_chain(q1, 1) == greedy_chain_loop(q1, d), name
        try:
            ref = nstar_sets_loop(s, sd)
        except PerronNotSeparated as e:
            with pytest.raises(PerronNotSeparated) as got:
                nstar_sets(s, sd)
            assert str(got.value) == str(e), name
        else:
            assert nstar_sets(s, sd) == ref, name


def test_kappa_matches_the_scalar_loop(inputs):
    # kappa comes from sums of log gaps, so it differs from the product loop in rounding
    checked = 0
    for name, s, sd in inputs:
        if sd.spectrum is not None:
            ref = np.array([1.0] + [kappa_scalar(sd.theta, i) for i in range(1, s.d + 1)])
            assert (np.abs(sd.spectrum.kappa - ref) <= 1e-12 * np.abs(ref)).all(), name
            checked += 1
    assert checked == 89
