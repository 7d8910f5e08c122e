"""Block row 0 of the heat-chain exponential against a 30-digit mpmath.expm.

The block builder never forms its generator; these cases form it at 30
digits and exponentiate it with mpmath, then compare the blocks a caller
reads.  The far block of a long chain is many orders below the near ones,
so its relative error is the one that shows whether the kernel keeps each
block's own accuracy.  Sizes are kept small (generators up to 33 x 33)
so that the whole file runs in a few seconds.
"""

import numpy as np
import pytest

from skmslab import kernels
from skmslab.cochain import _graph_normalize
from skmslab.dynamics import superderivation
from skmslab.graded import as_matrix
from skmslab.kernels import Spectrum
from skmslab.perturbation import PerturbedContext
from skmslab.workbench import ModelSpec
from skmslab.workbench.models import build_model, build_perturbed_model

mpmath = pytest.importorskip("mpmath")

DIGITS = 30
GATE = 1e-13
# a RandomGraded model of dimension 3, so chains of degree 10 stay small
SMALL_SPEC = ModelSpec(kind="RandomGraded", p=2, q=1, seed=1, scale=0.6,
                       perturbation={"seed": 11, "scale": 0.3})


def _reference_row(evals, ys, scale):
    # block row 0 of the exponential of the generator with scale * evals
    # on its diagonal blocks and ys on the superdiagonal, at DIGITS
    # digits: (blocks, d, d)
    d, nblocks = len(evals), len(ys) + 1
    size = nblocks * d
    with mpmath.workdps(DIGITS):
        gen = mpmath.zeros(size, size)
        for b in range(nblocks):
            for i in range(d):
                gen[b * d + i, b * d + i] = mpmath.mpc(scale) * mpmath.mpf(evals[i])
        for j, block in enumerate(ys):
            for a in range(d):
                for c in range(d):
                    gen[j * d + a, (j + 1) * d + c] = mpmath.mpc(complex(block[a, c]))
        top = mpmath.expm(gen)
        row = np.array([[complex(top[a, c]) for c in range(size)] for a in range(d)])
    return row.reshape(d, nblocks, d).swapaxes(0, 1)


def _relative_errors(spectrum, ys, scale, read):
    # the relative error of each read block of the builder's top row
    run = kernels._edge(0, 1, ys, np.arange(len(ys))[None])
    got = kernels._heat_chain_blocks(spectrum, [run], "reference", scale=scale)[0]
    want = _reference_row(spectrum.evals, ys, scale)
    return [np.max(np.abs(got[j] - want[j])) / np.max(np.abs(want[j])) for j in read]


def _chain_insertions(sys, xs):
    # delta(x_1), .., delta(x_n) in the eigenbasis, as tau_n reads them
    return sys.spectrum.to_eigenbasis(np.stack([superderivation(sys, x) for x in xs]))


def test_chain_of_degree_8():
    sys = build_model(SMALL_SPEC)[0]
    rng = np.random.default_rng(3)
    xs = [as_matrix(sys.random_element(rng, parity="even")) for _ in range(8)]
    errors = _relative_errors(sys.spectrum, _chain_insertions(sys, xs), -1.0, [8])
    assert max(errors) < GATE, errors


def test_graph_normalized_chain_of_degree_10():
    # graph normalization leaves the far block about 1e-12 of the near
    # one; dense Pade scaling and squaring loses it (relative error 5e-9)
    sys = build_model(SMALL_SPEC)[0]
    rng = np.random.default_rng(5)
    xs = _graph_normalize(sys, sys.random_elements(rng, 10, parity="even"))
    errors = _relative_errors(sys.spectrum, _chain_insertions(sys, xs), -1.0, [10])
    assert max(errors) < GATE, errors


def test_dyson_series_at_t_one():
    # the terms of gamma^r_1(1): c = i on the diagonal, c a_r on the edges
    sys, pert = build_perturbed_model(SMALL_SPEC, 0)
    ctx = PerturbedContext(sys, pert, 0.7)
    c, order = 1j, 6
    y = c * sys.spectrum.to_eigenbasis(ctx.a_r)
    errors = _relative_errors(sys.spectrum, np.stack([y] * order), c, range(order + 1))
    assert max(errors) < GATE, errors


def test_stiff_chain():
    # eigenvalue spread 40 and edges of 2-norm 5: several substeps, and a
    # diagonal far from its mean
    rng = np.random.default_rng(7)
    d, n = 4, 3
    evals = np.linspace(0.0, 40.0, d)
    ys = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    ys *= 5.0 / np.linalg.norm(ys, 2, axis=(1, 2))[:, None, None]
    errors = _relative_errors(Spectrum(evals, np.eye(d)), ys, -1.0, range(n + 1))
    assert max(errors) < GATE, errors
