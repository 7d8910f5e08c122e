"""One PerturbedContext for a vector of couplings, against one per coupling.

A context of K couplings carries a leading (K,) axis on its per-coupling
data, and the dynamics and cochain functions evaluate every coupling in
one stack.  Here each slice is compared with the context built for that
coupling alone, and the r-grid checks are held to their call counts.
"""

import tracemalloc

import numpy as np
import pytest

import skmslab.perturbation as perturbation_module
from skmslab.dynamics import heisenberg_flow, skms_eval, superderivation
from skmslab.errors import ParityViolation
from skmslab.graded import as_matrix
from skmslab.cochain import boundary, jlo_cochain, tau_eval
from skmslab.kernels import chain_integral
from skmslab.perturbation import (OddPerturbation, PerturbedContext,
                                  endpoint_transgression_check, homotopy_check,
                                  tau_r_eval, transgression_cochain)
from skmslab.workbench import ModelSpec
from skmslab.workbench.models import build_model, build_perturbed_model
from skmslab.workbench.suites import SuiteConfig, _cocycle_checks

REFERENCE_SPECS = (
    ModelSpec(kind="RandomGraded", p=3, q=2, seed=1, scale=0.6,
              perturbation={"seed": 11, "scale": 0.3}),
    ModelSpec(kind="RectangularBlock", p=3, q=2, seed=1, scale=1.0),
)
COUPLINGS = (0.0, 0.25, 0.5, 0.9, 1.0)
RELATIVE = 1e-13


def assert_slices_match(stacked, singles, what):
    # slice k of the stacked value against the value of coupling k alone,
    # relative to the largest of the single values
    singles = np.array(singles)
    assert np.shape(stacked) == singles.shape, what
    scale = max(1.0e-300, float(np.max(np.abs(singles))))
    worst = float(np.max(np.abs(np.asarray(stacked) - singles)))
    assert worst <= RELATIVE * scale, (what, worst, scale)


def _tuples(sys, rng, count, size):
    # size (count, d, d) stacks: count even tuples of size elements
    return list(sys.random_elements(rng, count * size, parity="even").reshape(
        count, size, sys.dim, sys.dim).swapaxes(0, 1))


@pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=lambda s: s.kind)
def test_vector_context_matches_one_context_per_coupling(spec):
    sys, pert = build_perturbed_model(spec, 0)
    ctx = PerturbedContext(sys, pert, COUPLINGS)
    singles = [PerturbedContext(sys, pert, r) for r in COUPLINGS]
    k, d = len(COUPLINGS), sys.dim
    assert ctx.supercharge.shape == ctx.a_r.shape == ctx.hamiltonian.shape == (k, d, d)
    assert ctx.spectrum.evals.shape == (k, d) and ctx.spectrum.vecs.shape == (k, d, d)
    assert ctx.witten_index_r.shape == ctx.a_norm.shape == (k,)
    assert_slices_match(ctx.witten_index_r, [c.witten_index_r for c in singles],
                        "witten_index_r")

    rng = np.random.default_rng(np.random.SeedSequence((7, len(spec.kind))))
    x = sys.random_elements(rng, k)
    for name, fn in (("heisenberg_flow", lambda c, y: heisenberg_flow(c, y, 0.7)),
                     ("skms_eval", skms_eval), ("superderivation", superderivation)):
        assert_slices_match(fn(ctx, x), [fn(c, y) for c, y in zip(singles, x)], name)
        # one matrix goes to every coupling
        assert_slices_match(fn(ctx, x[0]), [fn(c, x[0]) for c in singles], name)

    # T = 4 tuples against every coupling: (K, T) values
    for n, make in ((2, jlo_cochain), (1, transgression_cochain),
                    (3, transgression_cochain),
                    (2, lambda c: boundary(transgression_cochain(c)))):
        stacks = _tuples(sys, rng, 4, n + 1)
        values = make(ctx)(n, stacks)
        assert values.shape == (k, 4)
        name = make(ctx).name
        assert_slices_match(values, [make(c)(n, stacks) for c in singles], name)
        one = [s[0] for s in stacks]
        assert_slices_match(make(ctx)(n, one), [make(c)(n, one) for c in singles], name)
    # the plain chain against e^{-sH_r}, over Z, with no parity constraint
    one = [s[0] for s in _tuples(sys, rng, 1, 3)]
    assert_slices_match(chain_integral(ctx.spectrum, one, ctx.grading) / sys.witten_index,
                        [chain_integral(c.spectrum, one, c.grading) / sys.witten_index
                         for c in singles], "chain over Z")


def test_vector_context_zero_values_keep_the_coupling_axis():
    sys, pert = build_perturbed_model(REFERENCE_SPECS[0], 0)
    ctx = PerturbedContext(sys, pert, COUPLINGS)
    rng = np.random.default_rng(8)
    stacks = _tuples(sys, rng, 3, 3)
    stacks[1][1] = 2.0 * np.eye(sys.dim)
    values = tau_r_eval(ctx, 2, stacks)
    assert values.shape == (len(COUPLINGS), 3) and not values[:, 1].any()
    assert values[:, [0, 2]].all()
    assert tau_r_eval(ctx, 1, [s[0] for s in stacks[:2]]).shape == (len(COUPLINGS),)
    g = transgression_cochain(ctx)
    assert g(2, [s[0] for s in stacks]).shape == (len(COUPLINGS),)


def test_the_other_parity_gives_one_zero_per_tuple_and_coupling():
    # tau at odd degree and G at even degree read 0 without evaluation:
    # T zeros for T stacked tuples, K x T on a K-coupling context.  tau_eval
    # gave one scalar 0 for all T tuples, and checked no parity there
    sys, pert = build_perturbed_model(REFERENCE_SPECS[0], 0)
    ctx = PerturbedContext(sys, pert, COUPLINGS)
    k = len(COUPLINGS)
    rng = np.random.default_rng(10)
    for make, on, n, shape in ((jlo_cochain, sys, 1, (4,)), (jlo_cochain, ctx, 3, (k, 4)),
                               (transgression_cochain, ctx.at(2), 2, (4,)),
                               (transgression_cochain, ctx, 0, (k, 4)),
                               (transgression_cochain, ctx, 2, (k, 4))):
        stacks = _tuples(sys, rng, 4, n + 1)
        values = [make(on)(n, stacks)]
        if make is jlo_cochain:
            values.append(tau_eval(on, n, stacks))
            if on is ctx:
                values.append(tau_r_eval(on, n, stacks))
        for got in values:
            assert got.shape == shape and got.dtype == complex and not got.any()
    odd = sys.random_elements(rng, 1, parity="odd")
    with pytest.raises(ParityViolation, match="slot 1 is not even"):
        tau_eval(sys, 1, [stacks[0][:1], odd])


def test_scalar_coupling_keeps_matrix_attributes():
    sys, pert = build_perturbed_model(REFERENCE_SPECS[1], 0)
    ctx = PerturbedContext(sys, pert, 0.5)
    d = sys.dim
    assert ctx.supercharge.shape == ctx.a_r.shape == ctx.hamiltonian.shape == (d, d)
    assert ctx.spectrum.evals.shape == (d,) and ctx.spectrum.vecs.shape == (d, d)
    assert ctx._weight.shape == (d, d)
    assert all(isinstance(v, float) for v in (ctx.r, ctx.a_norm, ctx.witten_index_r))
    xs = list(sys.random_elements(np.random.default_rng(9), 3, parity="even"))
    assert isinstance(tau_r_eval(ctx, 2, xs), complex)
    assert isinstance(transgression_cochain(ctx)(1, xs[:2]), complex)
    with pytest.raises(ValueError, match="1-d sequence"):
        PerturbedContext(sys, pert, [[0.1, 0.2]])


def test_at_selects_couplings_without_a_new_context():
    sys, pert = build_perturbed_model(REFERENCE_SPECS[0], 0)
    ctx = PerturbedContext(sys, pert, COUPLINGS)
    one = ctx.at(2)
    assert one.r == COUPLINGS[2] and one.supercharge.shape == (sys.dim, sys.dim)
    assert isinstance(one.witten_index_r, float) and isinstance(one.a_norm, float)
    assert np.array_equal(one.spectrum.vecs, ctx.spectrum.vecs[2])
    ends = ctx.at([0, len(COUPLINGS) - 1])
    assert list(ends.r) == [0.0, 1.0] and ends.spectrum.evals.shape == (2, sys.dim)
    with pytest.raises(TypeError, match="vector context"):
        one.at(0)


def test_a_norm_is_taken_on_first_read_and_indexed_by_at():
    # an SVD per coupling that only the Dyson series read: no context pays
    # for it before it is read, and at() indexes the vector it cached
    sys, pert = build_perturbed_model(REFERENCE_SPECS[0], 0)
    ctx = PerturbedContext(sys, pert, COUPLINGS)
    assert "a_norm" not in ctx.__dict__
    assert "a_norm" not in ctx.at(2).__dict__ and "a_norm" not in ctx.__dict__
    norms = ctx.a_norm
    assert norms.shape == (len(COUPLINGS),) and ctx.a_norm is norms
    one = PerturbedContext(sys, pert, COUPLINGS[2])
    assert ctx.at(2).__dict__["a_norm"] == one.a_norm == norms[2]
    assert np.array_equal(ctx.at([1, 2]).__dict__["a_norm"], norms[1:3])


def test_bad_a_r_names_its_coupling(monkeypatch):
    # delta(x) = Q0 x + gamma(x) Q0 makes delta(Q) antiselfadjoint, so a_r
    # fails its guard at every coupling but r = 0
    sys, pert = build_perturbed_model(REFERENCE_SPECS[0], 0)

    def wrong_delta(system, x):
        xm = as_matrix(x)
        return system.supercharge @ xm + system.gamma(xm) @ system.supercharge

    monkeypatch.setattr(perturbation_module, "superderivation", wrong_delta)
    with pytest.raises(ParityViolation,
                       match=r"a_r must be selfadjoint at coupling 2 \(r = 0\.7\)"):
        PerturbedContext(sys, pert, [0.0, 0.0, 0.7, 1.0])
    with pytest.raises(ParityViolation, match="a_r must be selfadjoint$"):
        PerturbedContext(sys, pert, 0.7)


# ---------------------------------------------------------------------------
# call counts and memory of the r-grid checks


def _homotopy_model():
    # the homotopy benchmark model: RectangularBlock 5+3, seed 4, with an
    # odd perturbation of norm 0.4 and one even tuple drawn from a seed
    sys = build_model(ModelSpec(kind="RectangularBlock", p=5, q=3, seed=4, scale=1.0))[0]
    rng = np.random.default_rng(np.random.SeedSequence((1, 0x48)))
    m = rng.standard_normal((sys.dim, sys.dim)) + 1j * rng.standard_normal((sys.dim, sys.dim))
    m = (m - sys.grading.conjugate(m)) / 2
    m = (m + m.conj().T) / 2
    m *= 0.4 / np.linalg.norm(m, 2)
    pert = OddPerturbation(m, sys.grading)
    xs = list(sys.random_elements(rng, 3, parity="even"))
    return sys, pert, xs


def test_homotopy_checks_stay_stacked(monkeypatch, builder_calls):
    sys, pert, xs = _homotopy_model()
    contexts = []
    init = PerturbedContext.__init__

    def counted(self, *args, **kwargs):
        contexts.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PerturbedContext, "__init__", counted)
    rows = homotopy_check(sys, pert, 2, xs, r=0.5, hs=(1e-2, 5e-3, 2.5e-3))
    rows += endpoint_transgression_check(sys, pert, 2, xs, nodes=11, tol=1e-6)
    assert all(row.passed for row in rows)
    # r with the +/- h ladder, and the eleven Gauss-Legendre nodes with the
    # ends r = 0 and r = 1
    assert len(contexts) <= 2
    assert len(builder_calls) <= 6
    # at r: 3 B and 3 b terms; the ladder: 6 chains; the nodes: 11 x 6
    # boundary terms and tau at the two ends
    assert builder_calls.exponentials == 80


def test_cocycle_boundary_n5_memory_stays_under_the_cap():
    spec = REFERENCE_SPECS[0]
    sys = build_perturbed_model(spec, 0)[0]
    checks = {name: fn for name, _, _, fn in _cocycle_checks(sys, SuiteConfig())}
    run = checks["cocycle.boundary_n5"]
    run()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 7.7 MB with the cap on the generators alone
    assert peak < 3e6, peak
