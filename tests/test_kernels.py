"""Tests for divided differences, chain integrals, and simplex quadrature.

Frozen expected values were produced by an independent high-precision
oracle (recursive divided differences and simplex quadrature at 50 digits)
and are pinned here as literals.
"""

import itertools
import math
import os
import pathlib
import re
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skmslab import kernels
from skmslab.errors import ChainBudgetExceeded, DimensionMismatch
from skmslab.graded import GradingOperator
from skmslab.kernels import (
    SimplexQuadratureRule,
    Spectrum,
    chain_integral,
    gauss_legendre_01,
    heat_chain_integrand,
    simplex_quadrature,
)

from divided_difference import exp_divided_difference

# (nodes, value) pairs pinned against the high-precision oracle
EDD_CASES = [
    ((0.0, 1.0), 0.6321205588285576784),
    ((1.0, 1.0, 1.0), 0.1839397205857211608),
    ((0.3, 1.7, 0.3, 2.4), 0.055768167053092611661),
    ((2.0,), 0.13533528323661269189),
    ((0.0, 0.5, 1.5), 0.26902545400701970541),
    ((4.0, 0.25, 1.0, 3.0), 0.026366585110534761874),
    ((0.9, 1.4, 0.2, 3.1, 0.6, 2.2), 0.0021966718790832206667),
    ((1.0, 1.0 + 1e-9, 1.0 - 1e-9, 1.0 + 2e-9), 0.06131324016458173804552),
]


def test_edd_frozen_values():
    for nodes, want in EDD_CASES:
        got = exp_divided_difference(nodes)
        assert got == pytest.approx(want, rel=1e-12), nodes


def test_edd_single_node_and_request_object():
    assert exp_divided_difference((0.7,)) == pytest.approx(math.exp(-0.7), rel=1e-15)


def test_edd_request_validation():
    with pytest.raises(ValueError, match="nonempty 1-d"):
        exp_divided_difference(())
    with pytest.raises(ValueError, match="finite"):
        exp_divided_difference((0.0, float("nan")))
    with pytest.raises(ValueError, match="nonempty 1-d"):
        exp_divided_difference(((0.0, 1.0), (2.0, 3.0)))


def test_edd_two_point_closed_form():
    a, b = 0.4, 1.9
    want = (math.exp(-a) - math.exp(-b)) / (b - a)
    assert exp_divided_difference((a, b)) == pytest.approx(want, rel=1e-14)


def test_edd_recurrence():
    # edd(m0..mn) = (edd(m0..m_{n-1}) - edd(m1..mn)) / (mn - m0)
    nodes = (0.2, 1.1, 0.7, 2.5)
    left = exp_divided_difference(nodes[:-1])
    right = exp_divided_difference(nodes[1:])
    want = (left - right) / (nodes[-1] - nodes[0])
    assert exp_divided_difference(nodes) == pytest.approx(want, rel=1e-12)


def test_edd_continuity_at_cluster_threshold():
    # the clustered and Opitz paths must agree where they hand over
    base = (0.5, 1.3)
    for eps in (1e-5, 1e-6, 1e-7):
        lo = exp_divided_difference((base[0], base[0] + eps, base[1]))
        hi = exp_divided_difference((base[0], base[0] + 2 * eps, base[1]))
        assert lo == pytest.approx(hi, rel=1e-4)
    confluent = exp_divided_difference((0.5, 0.5, 1.3))
    near = exp_divided_difference((0.5, 0.5 + 1e-10, 1.3))
    assert near == pytest.approx(confluent, rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 4))
def test_edd_permutation_invariance(seed, n):
    rng = np.random.default_rng(seed)
    nodes = rng.random(n + 1) * 3.0
    base = exp_divided_difference(tuple(nodes))
    perm = rng.permutation(n + 1)
    assert exp_divided_difference(tuple(nodes[perm])) == pytest.approx(base, rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), shift=st.floats(-1.0, 1.0))
def test_edd_node_shift(seed, shift):
    rng = np.random.default_rng(seed)
    nodes = rng.random(3) * 2.0
    base = exp_divided_difference(tuple(nodes))
    shifted = exp_divided_difference(tuple(nodes + shift))
    assert shifted == pytest.approx(math.exp(-shift) * base, rel=1e-10)


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_sorts_and_deduplicates():
    evals = np.array([1.5, 0.0, 1.5 + 1e-12, 0.7])
    spec = Spectrum(evals, np.eye(4)[:, [2, 0, 1, 3]])
    np.testing.assert_allclose(spec.evals, [0.0, 0.7, 1.5, 1.5 + 1e-12])


def test_spectrum_eigenbasis_roundtrip():
    rng = np.random.default_rng(5)
    h = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h = (h + h.conj().T) / 2
    evals, vecs = np.linalg.eigh(h)
    spec = Spectrum(evals, vecs)
    x = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    np.testing.assert_allclose(spec.from_eigenbasis(spec.to_eigenbasis(x)), x, atol=1e-12)


def test_spectrum_shape_validation():
    with pytest.raises(DimensionMismatch):
        Spectrum(np.zeros(3), np.eye(2))


# ---------------------------------------------------------------------------
# chain integral


def chain_fixture():
    spec = Spectrum(np.array([0.0, 0.5, 1.5]), np.eye(3))
    g = np.diag([1.0, -1.0, 1.0]).astype(complex)
    x0 = np.array([[1, 2j, 1 - 1j], [0, 2, 1j], [1 + 1j, 0, -1]], dtype=complex)
    x1 = np.array([[1j, 1, 2], [1, 0, -1j], [2j, 1 + 1j, 1]], dtype=complex)
    x2 = np.array([[2, 0, 1], [1j, 1, 0], [0, -2j, 1 + 1j]], dtype=complex)
    return spec, g, [x0, x1, x2]


def test_chain_integral_frozen_fixture():
    spec, g, xs = chain_fixture()
    got = chain_integral(spec, xs, g)
    want = 1.64771858870095980397 + 5.333968862044063139505j
    assert abs(got - want) < 1e-12


def test_chain_integral_degree_zero():
    spec, g, xs = chain_fixture()
    got = chain_integral(spec, [xs[0]], g)
    want = np.trace(g @ xs[0] @ np.diag(np.exp(-spec.evals)))
    assert abs(got - want) < 1e-13
    # identity insertion gives the graded heat trace
    got1 = chain_integral(spec, [np.eye(3)], g)
    want1 = np.sum(np.diag(g) * np.exp(-spec.evals))
    assert abs(got1 - want1) < 1e-14


def test_chain_integral_zero_generator():
    # H = 0 collapses the kernel to the simplex volume 1/n!; d = 10, n = 8
    # is a 90 x 90 exponential, well inside the default budget
    for d, n in ((4, 3), (10, 8)):
        rng = np.random.default_rng(8)
        spec = Spectrum(np.zeros(d), np.eye(d))
        g = np.diag([1.0] * (d // 2) + [-1.0] * (d - d // 2)).astype(complex)
        xs = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
              for _ in range(n + 1)]
        got = chain_integral(spec, xs, g)
        want = np.trace(g @ np.linalg.multi_dot(xs)) / math.factorial(n)
        assert abs(got - want) < 1e-12 * max(1.0, abs(want)), (d, n)


def _run(row, col, ys):
    # the builder's edge for a (K, L, d, d) stack of insertions, each its
    # own pool entry
    k, count = ys.shape[:2]
    return kernels._edge(row, col, ys, np.arange(k * count).reshape(k, count))


def test_mixed_stack_gives_each_slice_its_bits_alone(monkeypatch):
    # slices whose Taylor degree m, substep count s and stopping term all
    # differ, a zero slice (no spread, no insertions), against a stacked
    # spectrum: every slice gets exactly the blocks it gets alone
    d, n = 4, 3
    spreads = [0.5, 3.0, 40.0, 0.0, 8.0]
    norms = [0.1, 1.0, 5.0, 0.0, 2.0]
    rng = np.random.default_rng(41)
    evals = np.array([np.sort(rng.uniform(0.0, w, d)) for w in spreads])
    spec = Spectrum(evals, np.stack([np.eye(d)] * len(spreads)))
    ys = rng.standard_normal((len(spreads), n, d, d)) + 1j * rng.standard_normal(
        (len(spreads), n, d, d))
    ys *= (np.array(norms) / np.linalg.norm(ys, 2, axis=(2, 3)).max(axis=1))[:, None, None, None]
    steps = []
    taylor_step = kernels._taylor_step

    def recorded(total, diag, runs, s, caps, stopped, fresh):
        live = ~stopped
        steps.append((int(live.sum()), sorted(set(caps[live].tolist()))))
        return taylor_step(total, diag, runs, s, caps, stopped, fresh)

    monkeypatch.setattr(kernels, "_taylor_step", recorded)
    whole = kernels._heat_chain_blocks(spec, [_run(0, 1, ys)], "mixed")
    # the first substep runs every slice under several term caps; later
    # ones only the slices that need more substeps
    assert steps[0][0] == len(spreads) and len(steps[0][1]) > 2
    assert len(steps) > 1 and steps[-1][0] < len(spreads)
    assert np.all(whole[3, 1:] == 0) and np.all(whole[3, 0] == np.eye(d))
    for k in range(len(spreads)):
        alone = kernels._heat_chain_blocks(Spectrum(evals[k], np.eye(d)),
                                           [_run(0, 1, ys[k:k + 1])], "alone")
        assert np.array_equal(alone, whole[k:k + 1]), k


def _reference_taylor_step(total, diag, runs, s, caps, stopped, fresh):
    # the reference step on the builder's position-major state (positions,
    # levels, K, d, d), whose runs hold R(y) as (count, K, 2d, 2d): total
    # is copied to the (K, blocks, d, d) layout the step was written for,
    # and R(y) taken in the (K, count, 2d, 2d) order of _edge; the step
    # runs unchanged and its sums are written back
    k, d = total.shape[2], total.shape[-1]
    blocks = total.reshape(-1, k, d, d).swapaxes(0, 1).copy()
    _reference_taylor_body(blocks, diag, [(row, col, y.swapaxes(0, 1), None)
                                          for row, col, y in runs], s, caps, stopped, fresh)
    total[...] = blocks.swapaxes(0, 1).reshape(total.shape)


def _reference_taylor_body(total, diag, runs, s, caps, stopped, fresh):
    # the row action's Taylor substep as it was before the per-term work
    # was cut: products copied back into the term, a complex 1/(s j), and
    # max|total| read on every term from block nblocks - 1 on; every block
    # is multiplied on every term, so whether the substep starts from
    # [I, 0, .., 0] (fresh) is not read.  Each product is the float view
    # of the source blocks by the run's real blocks R(y), read back as
    # complex, as the builder forms it
    nblocks, most = total.shape[1], int(caps.max())
    term = total.copy()
    columns = diag.astype(complex)[:, None, None, :]
    inverse = 1.0 / s[:, None, None, None].astype(complex)
    masked, last = stopped.any(), None
    for j in range(1, most + 1):
        prods = [(term[:, row:row + y.shape[1]].view(float) @ y).view(complex)
                 for row, _, y, _ in runs]
        term *= columns
        for (_, col, y, _), prod in zip(runs, prods):
            cols = slice(col, col + y.shape[1])
            prod += term[:, cols]
            term[:, cols] = prod
        del prods, prod
        term *= inverse / j
        if masked:
            np.add(total, term, out=total, where=~stopped[:, None, None, None])
        else:
            total += term
        if j + 1 < nblocks:
            continue
        size = np.abs(term).max(axis=(2, 3))
        if last is not None:
            small = last + size <= 2.0 ** -53 * np.abs(total).max(axis=(2, 3))
            done = small.all(axis=1) | (j >= caps)
            if done.any():
                stopped = stopped | done
                if stopped.all():
                    return
                masked = True
        last = size


def _assert_builder_matches_reference(monkeypatch, spec, edges, scale=-1.0):
    got = kernels._heat_chain_blocks(spec, edges, "builder", scale=scale)
    with monkeypatch.context() as patched:
        patched.setattr(kernels, "_taylor_step", _reference_taylor_step)
        want = kernels._heat_chain_blocks(spec, edges, "reference", scale=scale)
    assert np.array_equal(got, want)
    return got


def _random_stack(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _random_spectrum(rng, d, count=None):
    lead = () if count is None else (count,)
    evals = np.sort(rng.uniform(0.0, 2.0, lead + (d,)), axis=-1)
    basis = np.linalg.qr(_random_stack(rng, lead + (d, d)))[0]
    return Spectrum(evals, basis)


def _pool_of_stacks(spectrum, stacks):
    # K tuples given as n + 1 (K, d, d) stacks, as a pool and a table: on
    # one spectrum the stacks one after the other with an (n + 1, K) table;
    # on a stack of K spectra the (K, n + 1, d, d) pool, pool k holding
    # tuple k, with the identity table
    if spectrum.evals.ndim > 1:
        return np.stack(stacks, axis=1), np.arange(len(stacks))[:, None]
    return np.concatenate(stacks), np.arange(len(stacks) * len(stacks[0])).reshape(len(stacks), -1)


@pytest.mark.parametrize("d", [3, 5, 8, 10])
def test_taylor_step_keeps_the_bits_of_the_reference_on_every_run_layout(
        monkeypatch, d):
    rng = np.random.default_rng(600 + d)
    # a chain run: K = 3 tuples of degree 4 against one spectrum
    spec = _random_spectrum(rng, d)
    ys = _random_stack(rng, (3, 4, d, d)) / d
    _assert_builder_matches_reference(monkeypatch, spec, [_run(0, 1, ys)])
    # three runs on one level, the alternating chain's layout before its
    # level axis, q one pool entry gathered along its run: on a stacked
    # spectrum (one q per slice) and on one spectrum (one q for all)
    m = 2
    ys = _random_stack(rng, (3, m, d, d)) / d
    for spectrum in (_random_spectrum(rng, d, count=3), spec):
        q = spectrum.to_eigenbasis(_random_stack(rng, (d, d)) / d).reshape(-1, d, d)
        qe = kernels._edge(0, m + 1, q, np.broadcast_to(np.arange(3)[:, None] % len(q),
                                                        (3, m + 1)))
        edges = [qe, _run(0, 1, -ys), _run(m + 1, m + 2, ys)]
        _assert_builder_matches_reference(monkeypatch, spectrum, edges)
    # the Dyson run: one matrix c a on every block of the superdiagonal,
    # with c H on the diagonal blocks, at t = 0.3 and at the imaginary t = i
    a = _random_stack(rng, (d, d))
    a = (a + a.conj().T) / (2.0 * d)
    for c in (0.3j, -1.0):
        run = kernels._edge(0, 1, c * a, np.zeros((1, 6), dtype=int))
        _assert_builder_matches_reference(monkeypatch, spec, [run], scale=c)


@pytest.mark.parametrize("d, n", [(d, n) for n in (3, 8) for d in (3, 5, 8, 10)],
                         ids=["3", "5", "8", "10", "3-n8", "5-n8", "8-n8", "10-n8"])
def test_taylor_step_keeps_the_bits_of_the_reference_on_a_mixed_stack(
        monkeypatch, d, n):
    # the slices of test_mixed_stack_gives_each_slice_its_bits_alone, with
    # its zero slice and its stiff one (spread 40), at several d; and the
    # same at degree 8, nine blocks, the highest entireness degree: the
    # first substep skips the sources it has not reached, the later
    # substeps of the stiff slices must not
    spreads = [0.5, 3.0, 40.0, 0.0, 8.0]
    norms = [0.1, 1.0, 5.0, 0.0, 2.0]
    rng = np.random.default_rng(41)
    evals = np.array([np.sort(rng.uniform(0.0, w, d)) for w in spreads])
    spec = Spectrum(evals, np.stack([np.eye(d)] * len(spreads)))
    ys = _random_stack(rng, (len(spreads), n, d, d))
    ys *= (np.array(norms) / np.linalg.norm(ys, 2, axis=(2, 3)).max(axis=1))[:, None, None, None]
    got = _assert_builder_matches_reference(monkeypatch, spec, [_run(0, 1, ys)])
    assert np.all(got[3, 1:] == 0) and np.all(got[3, 0] == np.eye(d))


@pytest.mark.parametrize("d", [3, 5, 10])
@pytest.mark.parametrize("case", ["last_zero", "first_dominates", "dyson_beside_stiff"])
def test_taylor_step_keeps_the_bits_of_the_reference_where_the_last_block_misleads(
        monkeypatch, case, d):
    # the step reads every block's size only once the last block's term is
    # near 2^-53 of its sum, and none before the term on which block 0 can
    # first stop.  A zero last insertion, in all three tuples or in two,
    # keeps the last block at 0, so it passes on every term; a first
    # insertion 30 times the others lets the last block settle while the
    # near ones still move; a Dyson run at t = i (c = -1) and at t = 0.3
    # (c = 0.3i) against a stacked spectrum, one slice stiff (spread 40),
    # starts its later substeps from a block 0 other than I.  Terms past
    # the stop are below the sums' rounding, so the bits alone may miss a
    # late stop: a stop by the test reads every block's term twice and its
    # sum once, which a stop at the cap does not
    rng = np.random.default_rng(800 + d)
    reads, sizes = [], kernels._block_sizes
    monkeypatch.setattr(kernels, "_block_sizes", lambda blocks: reads.append(1) or sizes(blocks))
    runs = []
    if case == "dyson_beside_stiff":
        evals = np.sort(rng.uniform(0.0, 1.0, (2, d)), axis=-1) * np.array([[2.0], [40.0]])
        a = _random_stack(rng, (d, d))
        a = (a + a.conj().T) / (2.0 * d)
        for c in (-1.0, 0.3j):
            runs.append((Spectrum(evals, np.stack([np.eye(d)] * 2)),
                         kernels._edge(0, 1, c * a, np.zeros((2, 5), dtype=int)), c))
    for spectrum, zeros in ((_random_spectrum(rng, d), 3), (_random_spectrum(rng, d, count=3), 2)):
        ys = _random_stack(rng, (3, 5, d, d)) / d
        if case == "last_zero":
            ys[:zeros, -1] = 0.0
        elif case == "first_dominates":
            ys[:, 0] *= 30.0
        else:
            break
        runs.append((spectrum, _run(0, 1, ys), -1.0))
    for spectrum, run, scale in runs:
        del reads[:]
        got = _assert_builder_matches_reference(monkeypatch, spectrum, [run], scale=scale)
        assert len(reads) >= 3
        assert (case == "last_zero") == np.all(got[:2, -1] == 0)


def test_stop_floor_is_at_most_the_term_before_block_0_can_stop():
    # block 0 takes no edge, so its terms follow term_j = term_{j-1} diag /
    # (s j) from its diagonal head; a slice can stop on term j only if
    # block 0 passes the stop test there, which needs term j - 1 within
    # 2^-53 of its sum.  The floor must not pass that term (or the cap),
    # and should meet it on most slices: heat and Dyson diagonals, spreads
    # over three decades, 1-3 substeps, caps 12-44
    rng = np.random.default_rng(17)
    tight = total = 0
    for trial in range(40):
        k, d = 5, int(rng.integers(2, 11))
        diag = rng.uniform(-8.0, 8.0, (k, d)) * rng.choice([1.0, 0.1, 0.02], (k, 1))
        if trial % 2:
            diag = 1j * diag - 0.3 * diag.mean()
        s, caps = rng.integers(1, 4, k), rng.integers(12, 45, k)
        head = np.exp(rng.uniform(-3.0, 1.0, (k, d))).astype(complex)
        floor = kernels._stop_floor(head[:, :, None] * np.eye(d), diag, s, caps)
        term, sums, stop = head, head, caps.copy()
        last = np.abs(term).max(axis=1)
        for j in range(1, caps.max() + 1):
            term = term * (diag / s[:, None]) / j
            sums = sums + term
            size = np.abs(term).max(axis=1)
            stop = np.where((last + size <= 2.0 ** -53 * np.abs(sums).max(axis=1)) & (j < stop),
                            j, stop)
            last = size
        want = np.where(stop == caps, caps, stop - 1)
        assert np.all(floor <= want), (trial, floor, want)
        tight, total = tight + np.sum(floor == want), total + k
    assert tight >= 0.75 * total, (tight, total)


def _step_term():
    # the Taylor term j of the _taylor_step frame that called the caller,
    # directly or through _block_sizes or a comprehension; None when no
    # _taylor_step did, or before its first term
    frame = sys._getframe(2)
    for _ in range(2):
        if frame.f_code is kernels._taylor_step.__code__:
            return frame.f_locals.get("j")
        frame = frame.f_back
    return None


def test_no_size_is_read_before_the_floor_term(monkeypatch):
    # a stop on term j needs block 0's term j - 1 within 2^-53 of its sum,
    # which _stop_floor's term is the first that can be, so no size of a
    # term before it is read, and the first read is on that term or on
    # term blocks - 1: chains and alternating chains of degree 1-5 at d =
    # 10, one substep each, whose floor (18) is past their 2-12 blocks
    rng = np.random.default_rng(19)
    events, floor, absolute = [], kernels._stop_floor, np.abs

    def floors(*args):
        events.append(("floor", floor(*args)))
        return events[-1][1]

    def spy(x, *args, **kwargs):
        j = _step_term()
        if j is not None:
            events.append(("read", j))
        return absolute(x, *args, **kwargs)

    monkeypatch.setattr(kernels, "_stop_floor", floors)
    monkeypatch.setattr(np, "abs", spy)
    spectrum, d, tight = _random_spectrum(rng, 10), 10, 0
    for n in (1, 3, 5):
        xs = _random_stack(rng, (n + 1, 4, d, d)) / d
        for q in (None, _random_stack(rng, (d, d)) / d):
            del events[:]
            chain_integral(spectrum, np.concatenate(xs), None, q,
                           np.arange(4 * (n + 1)).reshape(n + 1, 4))
            assert [kind for kind, _ in events].count("floor") == 1
            low = events[0][1].min()
            reads = [j for kind, j in events if kind == "read"]
            blocks = (n + 1) * (1 if q is None else 2)
            assert reads and reads[0] == max(blocks - 1, low), (n, reads[0], low)
            tight += low > blocks - 1
    assert tight == 6


def test_every_builder_product_is_a_float64_gemm(monkeypatch):
    # chains, alternating chains (two levels) and a Dyson series: every
    # product of a Taylor term is np.matmul of the term's float view by
    # the real blocks R(y), not a complex GEMM
    from skmslab.perturbation import PerturbedContext, dyson_gamma_one_info
    from skmslab.workbench import ModelSpec
    from skmslab.workbench.models import build_perturbed_model

    operands, matmul = [], np.matmul

    def spy(a, b, *args, **kwargs):
        if _step_term() is not None:
            operands.append((a.dtype, b.dtype))
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    rng = np.random.default_rng(23)
    spectrum = _random_spectrum(rng, 5)
    xs = _random_stack(rng, (3, 5, 5)) / 5
    chain_integral(spectrum, xs, None)
    chain_integral(spectrum, xs, None, _random_stack(rng, (5, 5)) / 5)
    sys_, pert = build_perturbed_model(
        ModelSpec(kind="RandomGraded", p=3, q=2, seed=1, scale=0.6,
                  perturbation={"seed": 11, "scale": 0.3}), 0)
    dyson_gamma_one_info(PerturbedContext(sys_, pert, 0.7), 1.0, order=4)
    assert len(operands) > 20
    assert set(operands) == {(np.dtype(float), np.dtype(float))}


def test_the_builder_state_is_position_major_and_every_product_lands_contiguously(
        monkeypatch):
    # the state _taylor_step receives is one C-contiguous (positions,
    # levels, K, d, d) array, on one level and on two, and every product
    # of its plan is added into a destination contiguous over (K, d, 2d),
    # its last three axes: a run's (count, levels, K, d, 2d), a level
    # edge's (count, K, d, 2d), never a view strided across the slices
    states, plans = [], []
    step, reached = kernels._taylor_step, kernels._reached

    def recorded_step(total, *args):
        states.append((total.shape, total.flags.c_contiguous))
        return step(total, *args)

    def recorded_plan(plan, reach):
        plans.append(plan)
        return reached(plan, reach)

    monkeypatch.setattr(kernels, "_taylor_step", recorded_step)
    monkeypatch.setattr(kernels, "_reached", recorded_plan)
    rng = np.random.default_rng(29)
    d, n, count = 4, 3, 3
    spectrum = _random_spectrum(rng, d)
    xs = _random_stack(rng, ((n + 1) * count, d, d)) / d
    index = np.arange((n + 1) * count).reshape(n + 1, count)
    for q, levels in ((None, 1), (_random_stack(rng, (d, d)) / d, 2)):
        del states[:], plans[:]
        chain_integral(spectrum, xs, None, q, index)
        assert states and set(states) == {((n + 1, levels, count, d, d), True)}
        assert plans and all(len(plan) == levels for plan in plans)
        for plan in plans:
            for _, _, _, dest, _ in plan:
                inner = dest[(0,) * (dest.ndim - 3)]
                assert inner.shape == (count, d, 2 * d) and inner.flags.c_contiguous


@pytest.mark.parametrize("d", [1, 2, 5, 10])
def test_real_block_products_match_the_complex_product(d):
    # A.view(float) @ R(y), read as complex, is A @ y up to rounding: each
    # real and imaginary part is a sum of 2d real products, so the two
    # differ by at most 2 (2d) u (|A| |y|) elementwise; R(-y) = -R(y) and
    # R(0) = 0 exactly; the column sums of |y| are np.abs(y).sum(axis=-2)
    rng = np.random.default_rng(900 + d)
    for scale in (1.0, 1e-150, 1e150):
        pool = _random_stack(rng, (4, d, d)) * scale
        a = _random_stack(rng, (3, 4, 2 * d, d))
        index = np.array([[0, 1, 2, 3], [3, 3, 0, 1], [2, 0, 2, 1]])
        _, _, real, sums = kernels._edge(0, 1, pool, index)
        assert real.shape == (3, 4, 2 * d, 2 * d) and real.dtype == np.float64
        got = (a.view(float) @ real).view(complex)
        ys = pool[index]
        bound = 4 * d * 2.0 ** -53 * (np.abs(a) @ np.abs(ys))
        assert np.all(np.abs(got.real - (a @ ys).real) <= bound)
        assert np.all(np.abs(got.imag - (a @ ys).imag) <= bound)
        assert np.array_equal(sums, np.abs(ys).sum(axis=-2))
        assert np.array_equal(kernels._edge(0, 1, -pool, index)[2], -real)
    zero = kernels._edge(0, 1, np.zeros((1, d, d), dtype=complex), np.zeros((2, 3), dtype=int))
    assert zero[2].shape == (2, 3, 2 * d, 2 * d) and np.all(zero[2] == 0)
    assert np.all(zero[3] == 0)


@pytest.mark.parametrize("d", [3, 5, 8, 10])
@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_two_level_alternating_chain_keeps_the_bits_of_the_flat_runs(
        monkeypatch, d, m):
    # the two-level chain of chain_integral with q, level 0 signed
    # (-1)^k, against the one-level layout it replaced: 2(m+1) blocks in a
    # row, -y_k on block (k-1, k) as the real block R(-y_k) = -R(y_k),
    # +y_k on block (m+k, m+1+k) and q on block (k, m+1+k), through the
    # reference step; K = 3 tuples on one spectrum, and on a stack of
    # three whose spreads (2, 20, 80) take different substep counts, as a
    # (3, m + 1, d, d) pool, tuple k for spectrum k
    rng = np.random.default_rng(700 + 10 * d + m)
    built = []
    build = kernels._heat_chain_blocks

    def recorded(spectrum, edges, what, scale=-1.0):
        built.append((edges, build(spectrum, edges, what, scale=scale)))
        return built[-1][1]

    one = _random_spectrum(rng, d)
    stiff = _random_spectrum(rng, d, count=3)
    stiff = Spectrum(stiff.evals * np.array([1.0, 10.0, 40.0])[:, None], stiff.vecs)
    for spectrum in (one, stiff):
        xs = list(_random_stack(rng, (m + 1, 3, d, d)) / d)
        q = _random_stack(rng, (d, d)) / d
        pool, index = _pool_of_stacks(spectrum, xs)
        with monkeypatch.context() as patched:
            patched.setattr(kernels, "_heat_chain_blocks", recorded)
            value = chain_integral(spectrum, pool, None, q, index).reshape(-1)
        edges, got = built.pop()
        assert [edge[:2] for edge in edges] == [(0, 0), (0, 1)]
        _, _, ys, sums = edges[1]
        qe = spectrum.to_eigenbasis(q).reshape(-1, d, d)
        qe = kernels._edge(0, m + 1, qe, np.broadcast_to(np.arange(3)[:, None] % len(qe),
                                                         (3, m + 1)))
        flat = [qe, (0, 1, -ys, sums), (m + 1, m + 2, ys, sums)]
        with monkeypatch.context() as patched:
            patched.setattr(kernels, "_taylor_step", _reference_taylor_step)
            want = kernels._heat_chain_blocks(spectrum, flat, "flat")
        twisted = want[:, :m + 1].copy()
        twisted[:, 1::2] = -twisted[:, 1::2]
        assert np.array_equal(got[:, 0::2], twisted)
        assert np.array_equal(got[:, 1::2], want[:, m + 1:])
        y0 = spectrum.to_eigenbasis(np.array(xs[0]))
        assert np.array_equal(value, kernels._contract(y0, want[:, 2 * m + 1]))


@pytest.mark.parametrize("seed", range(12))
def test_every_prefix_of_the_block_row_is_its_own_chain(seed):
    # column k of _chain_prefixes against chain_integral on the prefix
    # (x_0, .., x_k) alone, on fuzzed d, n, K, spectral spread, insertion
    # sizes and one or a stack of spectra, tuple k for spectrum k: (m, s)
    # are chosen from every position, so a prefix moves at rounding level
    # only (4e-15 seen)
    rng = np.random.default_rng(900 + seed)
    d, n, k = int(rng.choice([2, 3, 5, 8])), int(rng.integers(1, 13)), int(rng.integers(1, 5))
    lead = (k,) if seed % 2 else ()
    evals = np.sort(rng.uniform(0.0, float(rng.choice([0.5, 2.0, 10.0, 40.0])),
                                lead + (d,)), axis=-1)
    spectrum = Spectrum(evals, np.linalg.qr(_random_stack(rng, lead + (d, d)))[0])
    xs = list(_random_stack(rng, (n + 1, k, d, d))
              * rng.uniform(0.05, 3.0, (n + 1, k, 1, 1)) / d)
    g = np.diag(rng.choice([-1.0, 1.0], d)).astype(complex)
    pool, index = _pool_of_stacks(spectrum, xs)
    got = kernels._chain_prefixes(spectrum, pool, g, index)
    assert got.shape == (k, n + 1)
    for top in range(n + 1):
        want = chain_integral(spectrum, pool, g, index=index[:top + 1]).reshape(-1)
        assert np.all(np.abs(got[:, top] - want) <= 1e-13 * np.abs(want)), top


@pytest.mark.parametrize("lead", [(), (3,)], ids=["one_spectrum", "stack"])
def test_a_one_row_table_gives_the_prefix_of_chain_integral(lead):
    # degree 0 has no edges: the one column is chain_integral's n = 0
    # contraction Tr(Gamma x_0 e^{-H}), bit for bit, every tuple at every
    # spectrum; the block row raised IndexError on it
    rng = np.random.default_rng(77)
    d, count = 4, 5
    evals = np.sort(rng.uniform(0.0, 3.0, lead + (d,)), axis=-1)
    spectrum = Spectrum(evals, np.linalg.qr(_random_stack(rng, lead + (d, d)))[0])
    pool = _random_stack(rng, (count + 2, d, d))
    index = rng.integers(0, count + 2, (1, count))
    g = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
    got = kernels._chain_prefixes(spectrum, pool, g, index)
    want = chain_integral(spectrum, pool, g, index=index).reshape(-1)
    assert got.shape == (len(want), 1) and len(want) == count * int(np.prod(lead))
    assert np.array_equal(got[:, 0], want)


def test_chain_integral_none_grading_is_plain_trace():
    spec, g, xs = chain_fixture()
    got = chain_integral(spec, xs, None)
    want = chain_integral(spec, xs, np.eye(3))
    assert abs(got - want) < 1e-13


def test_chain_integral_matches_quadrature():
    rng = np.random.default_rng(3)
    lam = np.sort(rng.random(4) * 2)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    spec = Spectrum(lam, q)
    g = q @ np.diag([1.0, 1.0, -1.0, -1.0]) @ q.conj().T
    xs = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
          for _ in range(3)]
    exact = chain_integral(spec, xs, g)
    integrand = heat_chain_integrand(spec, xs, g)
    rule = SimplexQuadratureRule("gauss", 12)
    approx, err = simplex_quadrature(integrand, 2, rule)
    assert abs(exact - approx) < max(10 * err, 1e-9)


def test_chain_integral_matches_monte_carlo():
    rng = np.random.default_rng(9)
    lam = np.sort(rng.random(3))
    spec = Spectrum(lam, np.eye(3))
    g = np.diag([1.0, -1.0, 1.0]).astype(complex)
    xs = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
          for _ in range(4)]
    exact = chain_integral(spec, xs, g)
    integrand = heat_chain_integrand(spec, xs, g)
    rule = SimplexQuadratureRule("mc", 60000, seed=1)
    approx, stderr = simplex_quadrature(integrand, 3, rule)
    assert abs(exact - approx) < 4 * stderr


def test_chain_integral_confluent_spectrum():
    # repeated eigenvalues exercise the clustered weight path
    rng = np.random.default_rng(10)
    spec = Spectrum(np.array([0.0, 0.0, 1.0]), np.eye(3))
    g = np.diag([1.0, -1.0, 1.0]).astype(complex)
    xs = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
          for _ in range(3)]
    exact = chain_integral(spec, xs, g)
    integrand = heat_chain_integrand(spec, xs, g)
    approx, err = simplex_quadrature(
        integrand, 2, SimplexQuadratureRule("gauss", 12))
    assert abs(exact - approx) < max(10 * err, 1e-9)


ORACLE_SPECTRA = {
    "distinct": (0.0, 0.5, 1.5),
    "confluent": (0.0, 0.0, 1.0),
    "wide": (0.0, 3.0, 30.0),
}


def chain_by_index_sum(spec, xs, g):
    # Tr(G x_0 e^{-s_1 H} x_1 ... x_n e^{-(1-s_n) H}) integrated over the
    # simplex, expanded over eigenbasis index chains i_0 -> i_1 -> ... -> i_0;
    # each chain is weighted by the divided difference at its eigenvalues
    ys = [spec.to_eigenbasis(g @ xs[0])] + [spec.to_eigenbasis(x) for x in xs[1:]]
    n = len(xs) - 1
    total = 0.0 + 0.0j
    for chain in itertools.product(range(spec.dim), repeat=n + 1):
        amp = 1.0 + 0.0j
        for k in range(n + 1):
            amp *= ys[k][chain[k], chain[(k + 1) % (n + 1)]]
        total += amp * exp_divided_difference(spec.evals[list(chain)])
    return total


@pytest.mark.parametrize("kind", sorted(ORACLE_SPECTRA))
@pytest.mark.parametrize("n", range(1, 7))
def test_chain_integral_matches_divided_difference_sum(kind, n):
    rng = np.random.default_rng(np.random.SeedSequence((n, 0xB1)))
    basis, _ = np.linalg.qr(rng.standard_normal((3, 3))
                            + 1j * rng.standard_normal((3, 3)))
    spec = Spectrum(np.array(ORACLE_SPECTRA[kind]), basis)
    g = basis @ np.diag([1.0, -1.0, 1.0]) @ basis.conj().T
    xs = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
          for _ in range(n + 1)]
    want = chain_by_index_sum(spec, xs, g)
    got = chain_integral(spec, xs, g)
    assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("q", [None, np.diag([0.0, 1.0, 0.0])], ids=["chain", "q"])
def test_chain_integral_pool_form_equals_the_tuple_form(q):
    # tuples as tables into one pool, an entry read by several slots and
    # by slot 0 too: each value has the bits of its tuple alone, against
    # one spectrum and against a stack of two, pool k for spectrum k
    spec, g, xs = chain_fixture()
    rng = np.random.default_rng(np.random.SeedSequence(0x9F))
    pool = np.array(xs + [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))])
    index = [[0, 3, 1, 3], [1, 3, 3, 0], [2, 0, 3, 3]]
    got = chain_integral(spec, pool, g, q, index)
    assert got.shape == (4,)
    for t, value in enumerate(got):
        assert value == chain_integral(spec, [pool[i] for i in np.array(index)[:, t]], g, q=q)
    two = Spectrum(np.array([[0.0, 0.5, 1.5], [0.2, 0.4, 2.0]]), np.array([np.eye(3)] * 2))
    pools = np.array([pool, 2.0 * pool])
    got = chain_integral(two, pools, g, q, index)
    assert got.shape == (2, 4)
    for k in range(2):
        one = Spectrum(two.evals[k], two.vecs[k])
        assert list(got[k]) == list(chain_integral(one, pools[k], g, q, index))
    for bad in ([[0, 4]], [[-1]], [[0.0]], [0, 1]):
        with pytest.raises(DimensionMismatch, match="index must be"):
            chain_integral(spec, pool, g, q, bad)
    with pytest.raises(DimensionMismatch, match="do not match 2 spectra"):
        chain_integral(two, np.array([pool] * 3), g, q, index)


def test_chain_integral_refuses_stacks_without_a_table():
    # n + 1 (K, d, d) stacks, the stack form before the kernel took only a
    # pool, are refused by their shapes, also with K = n + 1 spectra, where
    # the stacks as one array would read as a (K, M, d, d) pool
    spec, g, xs = chain_fixture()
    three = Spectrum(np.array([spec.evals] * 3), np.array([spec.vecs] * 3))
    for spectrum, k in ((spec, 2), (three, 3)):
        stacks = [np.stack([x] * k) for x in xs]
        with pytest.raises(DimensionMismatch, match=re.escape(
                "one tuple takes (d, d) matrices of one shape, got [(%d, 3, 3), (%d, 3, 3), "
                "(%d, 3, 3)]" % (k, k, k))):
            chain_integral(spectrum, stacks, g)
    with pytest.raises(DimensionMismatch, match=re.escape("insertions of shape (3, 2, 3, 3)")):
        chain_integral(spec, np.array([np.stack([x] * 2) for x in xs]), g)


def test_chain_integral_errors(monkeypatch):
    spec, g, xs = chain_fixture()
    with pytest.raises(ValueError):
        chain_integral(spec, [], g)
    with pytest.raises(DimensionMismatch):
        chain_integral(spec, [np.eye(4)], g)
    monkeypatch.setenv("SKMS_CHAIN_BUDGET", "2.0")
    with pytest.raises(ChainBudgetExceeded):
        chain_integral(spec, xs, g)


@pytest.mark.parametrize("q", [None, np.diag([0.0, 1.0, 0.0])], ids=["chain", "q"])
@pytest.mark.parametrize("slot", [0, 2])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_chain_integral_refuses_an_insertion_that_is_not_finite(bad, slot, q):
    # a NaN norm priced the exponential at NaN, which passed the budget
    # guard, and the run ended in "cannot convert float NaN to integer"
    spec, g, xs = chain_fixture()
    xs = [x.copy() for x in xs]
    xs[slot][1, 2] = bad
    what = "chain with d=3, n=2" if q is None else "alternating chain with d=3, m=2"
    with pytest.raises(ValueError, match="%s has an insertion that is not finite" % what):
        chain_integral(spec, xs, g, q=q)


def test_chain_budget_env_override(monkeypatch):
    spec, g, xs = chain_fixture()
    monkeypatch.setenv("SKMS_CHAIN_BUDGET", "2.0")
    with pytest.raises(ChainBudgetExceeded):
        chain_integral(spec, xs, g)
    monkeypatch.delenv("SKMS_CHAIN_BUDGET")
    chain_integral(spec, xs, g)


@pytest.mark.parametrize("raw", ["nan", "NaN", "abc", ""])
def test_chain_budget_env_rejects_non_numbers(monkeypatch, raw):
    # cost > nan is never true, so a NaN budget would switch the guard off
    spec, g, xs = chain_fixture()
    monkeypatch.setenv("SKMS_CHAIN_BUDGET", raw)
    message = "SKMS_CHAIN_BUDGET must be a number, got %r" % raw
    with pytest.raises(ValueError, match=re.escape(message)):
        chain_integral(spec, xs, g)


def test_chain_budget_prices_the_substeps(monkeypatch):
    # each exponential costs s (blocks d)^3 for s substeps: a spread of 60
    # takes 5 substeps of order 50, 5 * 9^3 = 3645
    rng = np.random.default_rng(np.random.SeedSequence(0x5B))
    basis, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    xs = [1e-3 * rng.standard_normal((3, 3)) for _ in range(3)]
    spec = Spectrum(np.array([0.0, 1.0, 60.0]), basis)
    monkeypatch.setenv("SKMS_CHAIN_BUDGET", "3644")
    with pytest.raises(ChainBudgetExceeded, match=re.escape(
            "chain with d=3, n=2 needs a 9x9 block exponential of cost 5 substeps * 9^3 "
            "= 3.64e+03, over budget 3644")):
        chain_integral(spec, xs, None)
    monkeypatch.setenv("SKMS_CHAIN_BUDGET", "3645")
    chain_integral(spec, xs, None)
    # at a spread of 1e9 the builder planned some 7e7 substeps of a
    # 9-square exponential priced at 9^3 alone, and started on them
    stiff = Spectrum(np.array([0.0, 1.0, 1e9]), basis)
    monkeypatch.delenv("SKMS_CHAIN_BUDGET")
    start = time.perf_counter()
    with pytest.raises(ChainBudgetExceeded, match=r"^chain with d=3, n=2 needs a 9x9 block "
                       r"exponential of cost \d{8} substeps \* 9\^3 = [0-9.e+]+, over budget"):
        chain_integral(stiff, xs, None)
    assert time.perf_counter() - start < 1.0



def dense_chain_trace(spec, xs, g, points):
    # Tr(G x_0 V e^{-g_0 L} V* x_1 ... x_n V e^{-g_n L} V*) at each of a
    # (B, n) batch of points, with gaps g_k = s_{k+1} - s_k, s_0 = 0 and
    # s_{n+1} = 1, by dense (B, d, d) products in the original basis
    gaps = np.diff(points, axis=1, prepend=0.0, append=1.0)
    prod = np.eye(spec.dim) if g is None else g
    for x, gap in zip(xs, gaps.T):
        heat = (spec.vecs * np.exp(-gap[:, None, None] * spec.evals)) @ spec.vecs.conj().T
        prod = prod @ x @ heat
    return np.trace(prod, axis1=1, axis2=2)


@pytest.mark.parametrize("n", range(8))
def test_heat_chain_integrand_matches_dense_pointwise(n):
    # three sizes, with and without Gamma, so that a transposed index in
    # the integrand's rotated layout cannot hide behind one shape; n >= 3
    # runs middle insertions before the closing one
    for d, graded in itertools.product((3, 5, 8), (True, False)):
        rng = np.random.default_rng(np.random.SeedSequence((n, d, 0x1E)))
        basis, _ = np.linalg.qr(rng.standard_normal((d, d))
                                + 1j * rng.standard_normal((d, d)))
        spec = Spectrum(np.sort(rng.random(d) * 3.0), basis)
        signs = np.where(np.arange(d) < d - d // 2, 1.0, -1.0)
        g = basis @ np.diag(signs) @ basis.conj().T if graded else None
        xs = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
              for _ in range(n + 1)]
        scale = np.prod([np.linalg.norm(x, 2) for x in xs])
        integrand = heat_chain_integrand(spec, xs, g)
        # one full internal block plus a remainder, then a single 1-d point
        block = kernels._INTEGRAND_BLOCK_BYTES // (16 * d * d)
        points = np.sort(rng.random((block + 37, n)), axis=1)
        got = integrand(points)
        assert got.shape == (points.shape[0],)
        want = dense_chain_trace(spec, xs, g, points)
        assert np.max(np.abs(got - want)) <= 1e-12 * scale, (d, graded)
        # each chunk is transposed, so the memory layout must not matter
        wide = np.zeros((2 * len(points), n + 1))
        wide[::2, 1:] = points
        for same in (np.asfortranarray(points), wide[::2, 1:]):
            assert np.array_equal(integrand(same), got), (d, graded)
        single = integrand(points[-1])
        assert single.shape == (1,)
        assert abs(single[0] - want[-1]) <= 1e-12 * scale, (d, graded)
        with pytest.raises(ValueError, match="dimension %d" % n):
            integrand(np.zeros((3, n + 1)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_heat_chain_integrand_matches_dense_on_the_simplex_boundary(n):
    # s_1 = 0, s_n = 1 and tied s_k = s_{k+1} give zero gaps, so the ring
    # route (n <= 2) and the state route (n = 3) each meet a unit heat
    # factor, on a spectrum with a repeated eigenvalue and a zero one
    d = 5
    rng = np.random.default_rng(np.random.SeedSequence((n, 0xED6E)))
    basis, _ = np.linalg.qr(rng.standard_normal((d, d))
                            + 1j * rng.standard_normal((d, d)))
    spec = Spectrum(np.array([0.0, 0.8, 0.8, 0.8, 2.5]), basis)
    g = basis @ np.diag([1.0, 1.0, -1.0, 1.0, -1.0]) @ basis.conj().T
    xs = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
          for _ in range(n + 1)]
    scale = np.prod([np.linalg.norm(x, 2) for x in xs])
    inside = np.sort(rng.random((4, n)), axis=1)
    first, last = inside.copy(), inside.copy()
    first[:, 0], last[:, -1] = 0.0, 1.0
    ties = []
    for k in range(n - 1):
        tie = inside.copy()
        tie[:, k + 1] = tie[:, k]
        ties.append(tie)
    # the n + 1 vertices of the simplex, where every gap but one is zero
    vertices = (np.arange(n)[None, :] >= np.arange(n + 1)[::-1, None]).astype(float)
    points = np.concatenate([first, last, *ties, vertices])
    assert np.all(np.diff(points, axis=1) >= 0.0)
    got = heat_chain_integrand(spec, xs, g)(points)
    want = dense_chain_trace(spec, xs, g, points)
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


_MC_SCRIPT = """
import numpy as np
from skmslab.kernels import (SimplexQuadratureRule, Spectrum,
                             heat_chain_integrand, simplex_quadrature)


def integrand(seed, signs, n):
    rng = np.random.default_rng(seed)
    d = len(signs)
    basis, _ = np.linalg.qr(rng.standard_normal((d, d))
                            + 1j * rng.standard_normal((d, d)))
    spec = Spectrum(np.sort(rng.random(d) * 3.0), basis)
    g = basis @ np.diag(signs) @ basis.conj().T
    xs = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
          for _ in range(n + 1)]
    return heat_chain_integrand(spec, xs, g)


rule = SimplexQuadratureRule("mc", 20000, seed=3)
for seed, signs in ((5, [1.0] * 3 + [-1.0] * 2), (8, [1.0] * 5 + [-1.0] * 3)):
    for n in (1, 2, 3):
        print(repr(simplex_quadrature(integrand(seed, signs, n), n, rule)))
"""


def test_monte_carlo_bytes_do_not_depend_on_the_blas_thread_count():
    # 20000 points at n = 1, 2 (the ring route) and 3 (the state route): at
    # d = 5 OpenBLAS keeps the state route's GEMMs on one thread, at d = 8
    # it splits them across two (CPU time above wall time) and may split
    # the ring's (16, 64)(64, B), so the d = 8 instances run threaded
    src = str(pathlib.Path(kernels.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = [subprocess.run([sys.executable, "-c", _MC_SCRIPT],
                           env=dict(os.environ, PYTHONPATH=path,
                                    OPENBLAS_NUM_THREADS=t, OMP_NUM_THREADS=t),
                           check=True, capture_output=True, timeout=600).stdout
            for t in ("1", "2")]
    assert outs[0].startswith(b"(") and outs[0].count(b"\n") == 6
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# simplex quadrature


def test_quadrature_volume():
    const = lambda p: np.ones(np.atleast_2d(p).shape[0])
    for n in (1, 2, 3):
        val, err = simplex_quadrature(
            const, n, SimplexQuadratureRule("gauss", 6))
        assert val == pytest.approx(1.0 / math.factorial(n), rel=1e-12)
    val, stderr = simplex_quadrature(
        const, 3, SimplexQuadratureRule("mc", 5000))
    assert val == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert stderr < 1e-12  # constant integrand has no variance


def test_quadrature_returns_a_python_complex_on_every_path():
    # the n = 0, Gauss and Monte-Carlo paths alike: Monte Carlo returned
    # an np.complex128, whose repr differs under numpy 2
    f = lambda p: np.atleast_2d(p)[:, 0] * (1.0 + 2.0j)
    paths = [simplex_quadrature(lambda p: 3.0 + 1.0j, 0, SimplexQuadratureRule("gauss", 4)),
             simplex_quadrature(f, 2, SimplexQuadratureRule("gauss", 6)),
             simplex_quadrature(f, 2, SimplexQuadratureRule("mc", 1000, seed=2))]
    for value, err in paths:
        assert type(value) is complex and type(err) is float
    assert repr(paths[2][0]).startswith("(")
    # the same bits as the mean the estimate is taken from
    assert paths[2] == _monte_carlo_by_sort(f, 2, 1000, 2)


def test_quadrature_polynomial_exactness():
    # int over 0 <= s1 <= s2 <= 1 of s1 s2 = 1/8
    f = lambda p: np.atleast_2d(p)[:, 0] * np.atleast_2d(p)[:, 1]
    val, _ = simplex_quadrature(f, 2, SimplexQuadratureRule("gauss", 6))
    assert val == pytest.approx(1.0 / 8.0, rel=1e-12)


def test_quadrature_degree_zero_and_guards():
    val, err = simplex_quadrature(lambda p: 7.0, 0, SimplexQuadratureRule("gauss", 4))
    assert val == 7.0 and err == 0.0
    with pytest.raises(ValueError):
        simplex_quadrature(lambda p: 1.0, 7, SimplexQuadratureRule("gauss", 4))
    # 2.5 ended in numpy and True integrated at degree 1 under Gauss
    for rule in (SimplexQuadratureRule("gauss", 4), SimplexQuadratureRule("mc", 10)):
        for bad in (-1, 2.5, True):
            with pytest.raises(ValueError, match="^degree must be"):
                simplex_quadrature(lambda p: 1.0, bad, rule)
    with pytest.raises(ValueError):
        SimplexQuadratureRule("gauss", 0)
    with pytest.raises(ValueError, match="at least 2"):
        SimplexQuadratureRule("gauss", 1)  # its error estimate would read 0
    with pytest.raises(ValueError):
        SimplexQuadratureRule("trapezoid", 4)
    # 2.5 samples drew 2 and True drew 1; seed -1 ended in numpy at first use
    for bad in (2.5, True, "4"):
        with pytest.raises(ValueError, match="^order_or_samples must be an integer, got"):
            SimplexQuadratureRule("mc", bad)
    for bad in (0, -3):
        with pytest.raises(ValueError, match="^order_or_samples must be at least 1, got"):
            SimplexQuadratureRule("mc", bad)
    for bad in (1.0, False, "0", None):
        with pytest.raises(ValueError, match="^seed must be an integer, got"):
            SimplexQuadratureRule("mc", 10, seed=bad)
    with pytest.raises(ValueError, match="^seed must be at least 0, got -1"):
        SimplexQuadratureRule("mc", 10, seed=-1)
    rule = SimplexQuadratureRule("mc", np.int64(10), seed=np.uint32(3))
    assert rule.order_or_samples == 10 and rule.seed == 3


def test_gauss_rule_is_priced_before_it_is_built(monkeypatch):
    # order^n points plus the order^2 node matrix of leggauss, against the
    # chain budget: gauss:100000 at degree 3 asked leggauss for a 74.5 GiB
    # matrix; an overpriced rule is refused before leggauss runs
    def built(order):
        raise AssertionError("leggauss ran before the rule was priced")

    ones = lambda p: np.ones(len(p))
    with monkeypatch.context() as patched:
        patched.setattr(np.polynomial.legendre, "leggauss", built)
        with pytest.raises(ChainBudgetExceeded, match=re.escape(
                "a Gauss rule of order 100000 at degree 3 needs 100000^3 points "
                "plus a 100000^2 node matrix = 1e+15, over budget 1e+08")):
            simplex_quadrature(ones, 3, SimplexQuadratureRule("gauss", 100000))
        # order 11 at degree 2 costs 11^2 + 11^2 = 242
        patched.setenv("SKMS_CHAIN_BUDGET", "241")
        with pytest.raises(ChainBudgetExceeded, match="= 242, over budget 241"):
            simplex_quadrature(ones, 2, SimplexQuadratureRule("gauss", 11))
    monkeypatch.setenv("SKMS_CHAIN_BUDGET", "242")
    val, _ = simplex_quadrature(ones, 2, SimplexQuadratureRule("gauss", 11))
    assert val == pytest.approx(0.5, rel=1e-14)


@pytest.mark.parametrize("n", range(1, 11))
def test_sampler_network_has_the_bits_of_np_sort(n):
    rng = np.random.default_rng(100 + n)
    for take in (1, 7, 1001):
        u = rng.random((take, n))
        got = kernels._sorted_rows(u)
        assert got.shape == (take, n) and got.T.flags.c_contiguous
        assert got.tobytes() == np.sort(u, axis=1).tobytes()
    # ties and the ends of [0, 1) stay put too
    u = rng.integers(0, 3, size=(9, n)) / 2.0
    assert kernels._sorted_rows(u).tobytes() == np.sort(u, axis=1).tobytes()


def _monte_carlo_by_sort(integrand, n, samples, seed):
    # the Monte-Carlo estimate with each batch of draws put in order by
    # np.sort, in the arithmetic of simplex_quadrature
    rng = np.random.default_rng(seed)
    count, acc, acc_sq = 0, 0.0 + 0.0j, 0.0
    while count < samples:
        take = min(200_000, samples - count)
        pts = np.sort(rng.random((take, n)), axis=1)
        vals = np.asarray(integrand(pts), dtype=complex).reshape(-1)
        acc += vals.sum()
        acc_sq += float(np.sum(np.abs(vals) ** 2))
        count += take
    mean = acc / count
    var = max(0.0, (acc_sq / count - abs(mean) ** 2) * count / (count - 1))
    return mean / math.factorial(n), math.sqrt(var / count) / math.factorial(n)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_monte_carlo_equals_the_np_sort_sampler(n):
    # two batches, 2e5 points and 3; value and standard error bit for bit
    rng = np.random.default_rng(40 + n)
    lam = np.sort(rng.random(3))
    spec = Spectrum(lam, np.linalg.qr(rng.standard_normal((3, 3)))[0])
    xs = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
          for _ in range(n + 1)]
    integrand = heat_chain_integrand(spec, xs, np.diag([1.0, -1.0, 1.0]))
    rule = SimplexQuadratureRule("mc", 200_003, seed=n)
    got = simplex_quadrature(integrand, n, rule)
    assert got == _monte_carlo_by_sort(integrand, n, 200_003, n)


def test_monte_carlo_is_seeded():
    f = lambda p: np.atleast_2d(p)[:, 0] ** 2
    a = simplex_quadrature(f, 2, SimplexQuadratureRule("mc", 4000, seed=7))
    b = simplex_quadrature(f, 2, SimplexQuadratureRule("mc", 4000, seed=7))
    assert a == b


# ---------------------------------------------------------------------------
# Gauss-Legendre rule on [0, 1]


def test_gauss_legendre_01_normalization():
    u, w = gauss_legendre_01(8)
    # built once per order and shared read-only
    assert gauss_legendre_01(8)[0] is u and gauss_legendre_01(8)[1] is w
    assert not u.flags.writeable and not w.flags.writeable
    assert np.all((u > 0) & (u < 1))
    assert np.sum(w) == pytest.approx(1.0, rel=1e-14)
    # exact for monomials up to degree 2 * order - 1 over [0, 1]
    u, w = gauss_legendre_01(10)
    for k in range(19):
        assert np.dot(w, u ** k) == pytest.approx(1.0 / (k + 1), rel=1e-13)
