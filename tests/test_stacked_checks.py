"""Stacked evaluation against plain per-sample loops, and its call counts.

Every check that draws its samples as one stack and evaluates them as
stacks has a per-sample reference here: the loop body the check had
before it was stacked, evaluated one sample (one tuple) at a time
through the single-tuple entry points.  The stacked check must give the
same measurements, bit for bit.
"""

import numpy as np
import pytest
import scipy.linalg

from skmslab.cochain import (boundary, connes_B, hochschild_b, jlo_cochain,
                             lemma34_check)
from skmslab.dynamics import (heisenberg_flow, kms_two_point, skms_eval,
                              superderivation, verify_skms_axioms)
from skmslab.errors import ParityViolation
from skmslab.graded import as_matrix, spectral_norms
from skmslab.kernels import (SimplexQuadratureRule, chain_integral,
                             heat_chain_integrand, simplex_quadrature)
from skmslab.perturbation import (PerturbedContext, error_term,
                                  f_identities_check, gamma_cocycle_oracle,
                                  gamma_flow_oracle, lemma43_check,
                                  lemma44_check, lipschitz_check,
                                  skms_check_perturbed)
from skmslab.report import DOCUMENTED, Measurement
from skmslab.workbench import ModelSpec, run_suite
from skmslab.workbench.models import build_perturbed_model
from skmslab.workbench.suites import (SuiteConfig, _cocycle_checks,
                                     _dyson_fidelity, gate)

REFERENCE_SPECS = (
    ModelSpec(kind="RandomGraded", p=3, q=2, seed=1, scale=0.6,
              perturbation={"seed": 11, "scale": 0.3}),
    ModelSpec(kind="RectangularBlock", p=3, q=2, seed=1, scale=1.0),
)
SEEDS = (0, 3)
# block-builder calls of run_suite(RandomGraded spec, "All"): 404 before
# the checks were stacked, 54 before the coupling grids became stacks, the
# alpha Dyson series served its three elements at once and the entireness
# samples of a degree became one stack, 24 before the Dyson row shared its
# series per (t, order), 22 before the degeneracy rows evaluated their four
# tuples with a scalar slot (one exponential each), which a test for scalar
# slots had read as 0, 26 before the entireness rows read every degree off
# one block row (one call for its 32 samples, not one per degree), 23
# before transgression.degeneracy and .unit_boundary left All (two calls
# of one exponential); and the exponentials they hold (987 before the
# alpha series were shared, 983 before the Dyson row shared them, 981
# before the endpoint row went from 11 Simpson to 8 Gauss-Legendre nodes,
# 963 before the degeneracy rows evaluated, 967 before the entireness rows
# took one row, 871 before the two rows left)
ALL_SUITE_BUILDER_CALLS = 21
ALL_SUITE_EXPONENTIALS = 869


def _draw(sys, rng, parity=None):
    return as_matrix(sys.random_element(rng, parity=parity))


def _rows(names):
    return [Measurement(*fields) for fields in names]


# ---------------------------------------------------------------------------
# per-sample references


def looped_axioms(sys, samples=50, seed=0, ts=(0.0, 0.7)):
    # a system, or a context whose sample i is read alone at coupling
    # i mod K, through its one-coupling context: each row is the max of
    # one-coupling runs on each coupling's own samples
    couplings = np.size(sys.r) if np.ndim(getattr(sys, "r", 0.0)) else 0
    ones = [sys.at(k) for k in range(couplings)] or [sys]
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x51)))
    inv_a, bound, deriv, weak, adh = [], [], [], [], []
    for i in range(samples):
        one = ones[i % len(ones)]
        x, y, w = (sys.grading.random_elements(rng, 1)[0] for _ in range(3))
        for t in ts:
            inv_a.append(np.abs(skms_eval(one, heisenberg_flow(one, x, t))
                                - skms_eval(one, x)))
            lhs = kms_two_point(one, x, y, t + 1j)
            rhs = skms_eval(one, heisenberg_flow(one, y, t) @ one.grading.conjugate(x))
            bound.append(np.abs(lhs - rhs))
        deriv.append(np.abs(skms_eval(one, superderivation(one, x))))
        h = one.hamiltonian
        dd = superderivation(one, superderivation(one, y))
        comm = h @ y - y @ h
        adh.append(float(spectral_norms(dd - comm)))
        weak.append(np.abs(skms_eval(one, x @ dd @ w) - skms_eval(one, x @ comm @ w)))
    norm_phi = max(float(np.sum(np.exp(-one.spectrum.evals)) / abs(one.witten_index))
                   for one in ones)
    # numpy's abs, as the check takes it on the couplings' values
    unit_res = max(np.abs(skms_eval(one, np.eye(one.dim)) - 1.0) for one in ones)
    reports = _rows([
        ("skms.alpha_invariance", "S1", samples * len(ts), float(max(inv_a))),
        ("skms.kms_boundary", "S2", samples * len(ts), float(max(bound))),
        ("skms.normalization", "S3", len(ones), unit_res),
        ("skms.delta_invariance", "S4", samples, float(max(deriv))),
        ("skms.delta_squared_ad_h", "S5", samples, float(max(adh))),
        ("skms.weak_supersymmetry", "S5", samples, float(max(weak))),
    ])
    reports.append(Measurement("skms.functional_norm", "norm", len(ones), norm_phi))
    return reports


def looped_lemma43(ctx, samples=50, ts=(0.3, 1.0), seed=0):
    sys = ctx.system
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x43)))
    gcomp, gstar, acomp, gprod = [], [], [], []
    for _ in range(samples):
        x = _draw(sys, rng)
        y = _draw(sys, rng)
        for t in ts:
            s = 0.5 * t
            g_t = gamma_cocycle_oracle(ctx, t)
            lhs = gamma_flow_oracle(ctx, x, t)
            inner = gamma_flow_oracle(ctx, x, t - s)
            rhs = gamma_cocycle_oracle(ctx, s) @ heisenberg_flow(sys, inner, s)
            gcomp.append(spectral_norms(lhs - rhs))

            lhs2 = g_t.conj().T
            rhs2 = heisenberg_flow(sys, gamma_cocycle_oracle(ctx, -t), t)
            unit = np.eye(ctx.dim)
            gstar.append(max(
                spectral_norms(lhs2 - rhs2),
                spectral_norms(g_t @ g_t.conj().T - unit),
                spectral_norms(g_t.conj().T @ g_t - unit)))

            lhs3 = heisenberg_flow(ctx, x, t)
            rhs3 = g_t @ heisenberg_flow(sys, x, t) @ g_t.conj().T
            acomp.append(spectral_norms(lhs3 - rhs3))

            lhs4 = heisenberg_flow(ctx, x, t) @ gamma_flow_oracle(ctx, y, t)
            rhs4 = gamma_flow_oracle(ctx, x @ y, t)
            gprod.append(spectral_norms(lhs4 - rhs4))
    count = samples * len(ts)
    return _rows([
        ("gamma_r.composition", "L43.1", count, float(max(gcomp))),
        ("gamma_r.adjoint_unitarity", "L43.2", count, float(max(gstar))),
        ("alpha_r.conjugation", "L43.3", count, float(max(acomp))),
        ("gamma_r.multiplicativity", "L43.4", count, float(max(gprod))),
    ])


def looped_lemma44(sys, n=2, samples=20, seed=0):
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x44)))
    conj_res, refl_res = [], []
    for _ in range(samples):
        xs = [_draw(sys, rng) for _ in range(n + 1)]
        ims = np.sort(rng.random(n))
        res = rng.uniform(-1.0, 1.0, n)
        zs = [complex(a, b) for a, b in zip(res, ims)]

        prod = np.eye(sys.dim, dtype=complex)
        for z, x in zip(zs, xs[1:]):
            prod = prod @ as_matrix(heisenberg_flow(sys, x, z))
        lhs = skms_eval(sys, prod @ as_matrix(heisenberg_flow(sys, xs[0], 1j)))
        prod_g = np.eye(sys.dim, dtype=complex)
        for z, x in zip(zs, xs[1:]):
            prod_g = prod_g @ as_matrix(heisenberg_flow(sys, sys.gamma(x), z))
        rhs = skms_eval(sys, as_matrix(xs[0]) @ prod_g)
        conj_res.append(np.abs(lhs - rhs))

        rev = np.eye(sys.dim, dtype=complex)
        for z, x in zip(reversed(zs), reversed(xs[1:])):
            rev = rev @ as_matrix(heisenberg_flow(sys, x, np.conj(z)))
        lhs2 = np.conj(skms_eval(sys, rev))
        fwd = np.eye(sys.dim, dtype=complex)
        for z, x in zip(zs, xs[1:]):
            fwd = fwd @ as_matrix(heisenberg_flow(sys, x.conj().T, z))
        rhs2 = skms_eval(sys, fwd)
        refl_res.append(abs(lhs2 - rhs2))
    return _rows([
        ("flow.cyclic_conjugation", "analcont", samples, float(max(conj_res))),
        ("flow.reflection", "analcont", samples, float(max(refl_res))),
    ])


def looped_skms_perturbed(ctx, samples=25, ts=(0.0, 0.3, 1.0), seed=0):
    sys = ctx.system
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x45)))
    bound, err_t = [], []
    gamma_i = gamma_cocycle_oracle(ctx, 1j)
    for _ in range(samples):
        x = _draw(sys, rng)
        y = _draw(sys, rng)
        w = _draw(sys, rng)
        for t in ts:
            moved = heisenberg_flow(ctx, y, t + 1j)
            lhs = skms_eval(sys, x @ moved @ gamma_i)
            rhs = skms_eval(sys, heisenberg_flow(ctx, y, t)
                            @ as_matrix(sys.gamma(x)) @ gamma_i)
            bound.append(np.abs(lhs - rhs))
            err_t.append(np.abs(skms_eval(sys, w @ error_term(ctx, t))))
    e0_norm = float(spectral_norms(error_term(ctx, 0.0)))
    count = samples * len(ts)
    return _rows([
        ("skms_r.kms_boundary", "Fxz", count, float(max(bound))),
        ("skms_r.error_term", "lem2", count, float(max(err_t))),
        ("skms_r.error_term_at_zero", "lem2", 1, e0_norm),
    ])


def looped_f_identities(ctx, n=3, samples=10, seed=0):
    sys = ctx.system
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x46)))
    rot, inner, last, unit_ins, cyc = [], [], [], [], []
    unit = np.eye(ctx.dim, dtype=complex)
    h = ctx.hamiltonian

    def f(args):
        # F^r: the chain against e^{-sH_r}, over the unperturbed Z in
        # numpy's complex division, as the check divides its stacks
        return np.divide(chain_integral(ctx.spectrum, args, ctx.grading), ctx.witten_index)

    for _ in range(samples):
        xs = [_draw(sys, rng) for _ in range(n + 1)]
        gxs = [as_matrix(sys.gamma(x)) for x in xs]

        rot.append(np.abs(f(xs) - f([gxs[n]] + xs[:n])))

        for k in range(1, n):
            mod = list(xs)
            mod[k] = h @ xs[k] - xs[k] @ h
            rhs2 = (f(xs[:k - 1] + [xs[k - 1] @ xs[k]] + xs[k + 1:])
                    - f(xs[:k] + [xs[k] @ xs[k + 1]] + xs[k + 2:]))
            inner.append(np.abs(f(mod) - rhs2))

        mod = list(xs)
        mod[n] = h @ xs[n] - xs[n] @ h
        rhs3 = f(xs[:n - 1] + [xs[n - 1] @ xs[n]]) - f([gxs[n] @ xs[0]] + xs[1:n])
        last.append(np.abs(f(mod) - rhs3))

        total = 0.0 + 0.0j
        for j in range(n + 1):
            total += f([unit] + xs[j:] + gxs[:j])
        unit_ins.append(np.abs(total - f(xs)))

        total2 = 0.0 + 0.0j
        for j in range(n + 1):
            total2 += f(gxs[:j] + [superderivation(ctx, xs[j])] + xs[j + 1:])
        cyc.append(np.abs(total2))
    return _rows([
        ("F.rotation", "F1", samples, max(rot)),
        ("F.heat_commutator_inner", "F2", samples * max(0, n - 1),
         max(inner, default=0.0)),
        ("F.heat_commutator_last", "F4", samples, max(last)),
        ("F.unit_insertion", "F5", samples, max(unit_ins)),
        ("F.derivation_cycle", "F6", samples, max(cyc)),
    ])


def looped_lemma34(sys, n=2, samples=6, order=8, seed=0):
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x34)))
    z = sys.witten_index
    rot, slot = [], []
    for _ in range(samples):
        xs = [as_matrix(sys.random_element(rng)) for _ in range(n + 1)]
        # numpy's complex division and abs, as the check takes them on its stack
        lhs = np.divide(chain_integral(sys.spectrum, xs, sys.grading), z)
        twisted = [as_matrix(sys.gamma(xs[n]))] + xs[:n]
        rhs = np.divide(chain_integral(sys.spectrum, twisted, sys.grading), z)
        rot.append(np.abs(lhs - rhs))

        ys = [as_matrix(sys.random_element(rng)) for _ in range(n + 2)]
        h = sys.hamiltonian
        for j in range(1, n + 1):
            dys = list(ys)
            dys[j] = ys[j] @ h - h @ ys[j]
            f = heat_chain_integrand(sys.spectrum, dys, sys.grading)
            val, _ = simplex_quadrature(
                f, n + 1, SimplexQuadratureRule("gauss", order))
            lhs_j = val / z
            merged = [ys[:j] + [ys[j] @ ys[j + 1]] + ys[j + 2:],
                      ys[:j - 1] + [ys[j - 1] @ ys[j]] + ys[j + 1:]]
            rhs_j = (chain_integral(sys.spectrum, merged[0], sys.grading)
                     - chain_integral(sys.spectrum, merged[1], sys.grading)) / z
            slot.append(abs(lhs_j - rhs_j))
    return _rows([
        ("chain.rotation", "rotation", samples, max(rot)),
        ("chain.slot_derivative", "cocycle1+cocycle2", samples * n, max(slot)),
    ])


def looped_cocycle_rows(sys, config):
    dtau = boundary(jlo_cochain(sys))
    rows = []
    for n in range(1, config.max_degree + 1, 2):
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0x0B, n)))
        worst = 0.0
        for _ in range(25):
            xs = [_draw(sys, rng, "even") for _ in range(n + 1)]
            worst = max(worst, np.abs(dtau(n, xs)))
        rows.append(Measurement("cocycle.boundary_n%d" % n, "boundary", 25, worst))
    return rows


# ---------------------------------------------------------------------------
# stacked == looped on the reference specs


def _model(spec, seed):
    sys, pert = build_perturbed_model(spec, seed)
    return sys, PerturbedContext(sys, pert, 0.5)


# each sampled check with its samples set to a value
SAMPLED_CHECKS = {
    "verify_skms_axioms": lambda sys, ctx, v: verify_skms_axioms(sys, samples=v),
    "lemma34_check": lambda sys, ctx, v: lemma34_check(sys, samples=v),
    "lemma43_check": lambda sys, ctx, v: lemma43_check(ctx, samples=v),
    "lemma44_check": lambda sys, ctx, v: lemma44_check(sys, samples=v),
    "skms_check_perturbed": lambda sys, ctx, v: skms_check_perturbed(ctx, samples=v),
    "f_identities_check": lambda sys, ctx, v: f_identities_check(ctx, samples=v),
    "lipschitz_check": lambda sys, ctx, v: lipschitz_check(sys, ctx.perturbation, samples=v),
}


@pytest.mark.parametrize("samples", [0, -1, 2.5, True])
@pytest.mark.parametrize("check", list(SAMPLED_CHECKS))
def test_checks_refuse_samples_that_are_not_an_integer_above_zero(check, samples):
    # samples = 0 gave verify_skms_axioms rows of residual 0 over no sample,
    # which passed, and the other checks numpy errors
    sys, ctx = _model(REFERENCE_SPECS[0], 0)
    with pytest.raises(ValueError, match=r"^samples must be .*, got %r$" % (samples,)):
        SAMPLED_CHECKS[check](sys, ctx, samples)


@pytest.mark.parametrize("n", [-1, 2.5, True])
def test_lemma44_refuses_a_degree_that_is_not_an_integer_from_zero(n):
    # n = -1 ended in numpy's negative dimensions; n = 0 flows no slot
    sys, _ = _model(REFERENCE_SPECS[0], 0)
    with pytest.raises(ValueError, match=r"^n must be .*, got %r$" % (n,)):
        lemma44_check(sys, n=n)
    assert lemma44_check(sys, n=0, samples=3)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=lambda s: s.kind)
def test_stacked_checks_equal_their_loops(spec, seed):
    # the arguments the suites pass
    sys, ctx = _model(spec, seed)
    pairs = [
        (verify_skms_axioms(sys, samples=50, seed=seed),
         looped_axioms(sys, samples=50, seed=seed)),
        (lemma43_check(ctx, samples=20, seed=seed),
         looped_lemma43(ctx, samples=20, seed=seed)),
        (lemma44_check(sys, n=2, samples=15, seed=seed),
         looped_lemma44(sys, n=2, samples=15, seed=seed)),
        (skms_check_perturbed(ctx, samples=15, seed=seed),
         looped_skms_perturbed(ctx, samples=15, seed=seed)),
        (f_identities_check(ctx, n=3, samples=10, seed=seed),
         looped_f_identities(ctx, n=3, samples=10, seed=seed)),
        (lemma34_check(sys, n=2, samples=6, seed=seed),
         looped_lemma34(sys, n=2, samples=6, order=8, seed=seed)),
    ]
    for stacked, looped in pairs:
        assert stacked == looped
    config = SuiteConfig(seed=seed)
    rows = [row for name, _, _, fn in _cocycle_checks(sys, config)
            if name.startswith("cocycle.boundary_") for row in fn()]
    assert rows == looped_cocycle_rows(sys, config)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=lambda s: s.kind)
def test_axioms_on_a_coupling_vector_are_the_max_of_one_coupling_runs(spec, seed):
    # the Axioms suite's reading: on r = (0, 1/2) sample i is read at
    # coupling i mod 2, and each row is the max of one-coupling runs on each
    # coupling's own samples, bit for bit
    sys, ctx = _model(spec, seed)
    both = PerturbedContext(sys, ctx.perturbation, (0.0, 0.5))
    assert (verify_skms_axioms(both, samples=50, seed=seed)
            == looped_axioms(both, samples=50, seed=seed))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=lambda s: s.kind)
def test_axioms_at_r_zero_read_the_system_to_rounding(spec, seed):
    # the same draw on the same H: the system clips its eigenvalues at 0
    # and the context does not, so the residuals may round apart
    sys, ctx = _model(spec, seed)
    at_zero = PerturbedContext(sys, ctx.perturbation, 0.0)
    plain = verify_skms_axioms(sys, samples=50, seed=seed)
    perturbed = verify_skms_axioms(at_zero, samples=50, seed=seed)
    assert [m[:3] for m in perturbed] == [m[:3] for m in plain]
    for a, b in zip(perturbed, plain):
        assert abs(a.max_residual - b.max_residual) <= 4e-16 * max(1.0, b.max_residual), a


def test_axioms_refuse_fewer_samples_than_couplings():
    # a coupling that reads no sample would gate none of its residuals
    sys, ctx = _model(REFERENCE_SPECS[0], 0)
    three = PerturbedContext(sys, ctx.perturbation, (0.0, 0.5, 0.7))
    with pytest.raises(ValueError, match=r"^samples must be at least 3, got 2$"):
        verify_skms_axioms(three, samples=2)
    assert len(verify_skms_axioms(three, samples=3)) == 7


def test_f_identities_at_degree_one_equal_their_loop():
    # n = 1 has no inner commutator row and a degree-0 chain group
    sys, ctx = _model(REFERENCE_SPECS[0], 0)
    assert (f_identities_check(ctx, n=1, samples=4, seed=2)
            == looped_f_identities(ctx, n=1, samples=4, seed=2))


# ---------------------------------------------------------------------------
# draws and cochains on stacks


@pytest.mark.parametrize("parity", [None, "even", "odd"])
def test_random_elements_equal_sequential_draws(parity):
    sys, _ = _model(REFERENCE_SPECS[0], 0)
    stack = sys.grading.random_elements(np.random.default_rng(41), 40, parity=parity)
    rng = np.random.default_rng(41)
    one_by_one = [as_matrix(sys.random_element(rng, parity=parity)) for _ in range(40)]
    assert stack.shape == (40, sys.dim, sys.dim)
    assert np.array_equal(stack, np.array(one_by_one))


@pytest.mark.parametrize("make", ["tau", "boundary"])
def test_cochain_on_a_stack_equals_single_calls(make):
    sys, _ = _model(REFERENCE_SPECS[0], 0)
    rng = np.random.default_rng(42)
    tau = jlo_cochain(sys)
    cochain, n = (tau, 2) if make == "tau" else (boundary(tau), 3)
    tuples = [list(sys.grading.random_elements(rng, n + 1, parity="even")) for _ in range(7)]
    tuples[3][2] = 2.5 * np.eye(sys.dim, dtype=complex)
    stacks = [np.stack(slot) for slot in zip(*tuples)]
    singles = [cochain(n, xs) for xs in tuples]
    values = cochain(n, stacks)
    assert values.shape == (7,) and list(values) == singles
    if make == "tau":
        # delta(2.5 * 1) = 0: the chain takes an insertion of zeros
        assert singles[3] == 0.0
    else:
        # every B term puts 2.5 * 1 in a slot >= 1, so B is 0 exactly; the
        # b terms that hold it alone in a slot >= 1 are 0 too, and b is the
        # difference of the two left, tau(x0, x1, x2 x3) - tau(x0, x1 x2,
        # x3), equal chains with 2.5 on another insertion, which agree only
        # to rounding: 0.2-2.4 u (|a| + |b|) with c = 0.3, 2.5, 2.7 or 3.0
        # in place of 2.5, with complex or real products.  16 u leaves a
        # sixfold margin, and a wrong sign or term moves b by O(|a|)
        x0, x1, x2, x3 = tuples[3]
        assert connes_B(tau, n, tuples[3]) == 0.0
        a, b = tau(2, [x0, x1, x2 @ x3]), tau(2, [x0, x1 @ x2, x3])
        assert singles[3] == hochschild_b(tau, n, tuples[3]) == a - b
        assert abs(a - b) <= 16 * 2.0 ** -53 * (abs(a) + abs(b))

    tuples[5][1] = as_matrix(sys.random_element(rng, parity="odd"))
    with pytest.raises(ParityViolation, match="slot 1 is not even$"):
        cochain(n, tuples[5])
    with pytest.raises(ParityViolation, match="slot 1 is not even in tuple 5"):
        cochain(n, [np.stack(slot) for slot in zip(*tuples)])


def test_cochain_names_the_first_tuple_with_an_odd_slot():
    sys, _ = _model(REFERENCE_SPECS[0], 0)
    rng = np.random.default_rng(43)
    tuples = [list(sys.grading.random_elements(rng, 3, parity="even")) for _ in range(4)]
    tuples[2][2] = as_matrix(sys.random_element(rng, parity="odd"))
    tuples[3][0] = as_matrix(sys.random_element(rng, parity="odd"))
    with pytest.raises(ParityViolation, match="slot 2 is not even in tuple 2"):
        jlo_cochain(sys)(2, [np.stack(slot) for slot in zip(*tuples)])


# ---------------------------------------------------------------------------
# exponential calls


def test_cocycle_rows_make_one_or_two_exponential_calls(builder_calls):
    # one call of the block builder per degree: the 25 tuples' B terms,
    # then their b terms (none to evaluate at n = 1, degree 0)
    spec = REFERENCE_SPECS[0]
    sys, _ = _model(spec, 0)
    checks = {name: fn for name, _, _, fn in _cocycle_checks(sys, SuiteConfig())}
    d = sys.dim
    for n, want in ((1, [(50, 3 * d)]), (3, [(100, 5 * d), (100, 3 * d)]),
                    (5, [(150, 7 * d), (150, 5 * d)])):
        del builder_calls[:]
        checks["cocycle.boundary_n%d" % n]()
        assert builder_calls == want, n


def test_f_identities_make_one_exponential_call_per_degree(builder_calls):
    _, ctx = _model(REFERENCE_SPECS[0], 0)
    f_identities_check(ctx, n=3, samples=10)
    # per sample: 6 chains at degree 2, 9 at degree 3, 4 at degree 4
    d = ctx.dim
    assert sorted(builder_calls) == sorted([(60, 3 * d), (90, 4 * d), (40, 5 * d)])


def test_lemma34_makes_one_exponential_call(builder_calls):
    sys, _ = _model(REFERENCE_SPECS[0], 0)
    lemma34_check(sys, n=2, samples=6)
    # per sample: the tuple, its rotation and the n + 1 = 3 merged tuples
    assert builder_calls == [(30, 3 * sys.dim)]


def test_all_suite_exponential_calls_stay_stacked(builder_calls):
    run_suite(REFERENCE_SPECS[0], "All")
    assert len(builder_calls) == ALL_SUITE_BUILDER_CALLS
    assert builder_calls.exponentials == ALL_SUITE_EXPONENTIALS


def test_dyson_row_builds_each_series_once(builder_calls):
    # alpha at t = 0.3 and 1.0 (orders 6 and 8 at d = 5), then gamma at
    # t = 0.3 and 1.0 from the same series, and gamma at t = i
    spec = REFERENCE_SPECS[0]
    sys, pert = build_perturbed_model(spec, 0)
    (_, _, _, run), = _dyson_fidelity(PerturbedContext(sys, pert, 0.7), SuiteConfig())
    rows = gate(run(), 0.0)
    d = sys.dim
    assert builder_calls == [(1, 7 * d), (1, 9 * d), (1, 9 * d)]
    assert all(r.passed for r in rows)


def test_all_suite_never_calls_dense_expm(monkeypatch):
    # the block builder computes only the top row it needs; the dense
    # exponential stays with exp_divided_difference, a test oracle
    names = [[r.identity_name for r in run_suite(spec, "All")]
             for spec in REFERENCE_SPECS]

    def refused(*args, **kwargs):
        raise AssertionError("scipy.linalg.expm called")

    monkeypatch.setattr(scipy.linalg, "expm", refused)
    for spec, want in zip(REFERENCE_SPECS, names):
        rows = run_suite(spec, "All")
        assert [r.identity_name for r in rows] == want
        assert all(r.passed for r in rows if r.tolerance != DOCUMENTED), spec.kind
