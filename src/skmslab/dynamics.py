"""Graded quantum dynamical system at finite matrix dimension.

The supercharge Q0 (odd, selfadjoint) generates the superderivation
delta(x) = Q0 x - gamma(x) Q0 and the Hamiltonian H = Q0^2.  The flow is
alpha_z(x) = e^{izH} x e^{-izH}, evaluated in the cached eigenbasis of H,
and the functional is the super-Gibbs normalization

    phi(x) = Tr(Gamma e^{-H} x) / Tr(Gamma e^{-H}).

The denominator is the Witten index; systems with vanishing index are
rejected at construction.

The functions below take either a GradedSystem or a PerturbedContext,
which carries the same attributes for Q0 + rQ: a context at r = 0 is the
unperturbed system, and at r > 0 the same code gives delta_r, alpha^r
and phi^r (normalized by the unperturbed index).  A context of K
couplings carries (K, d, d) stacks and a stacked spectrum; slice k of a
(K, d, d) argument is then taken at coupling k, and one matrix at each.
"""

import warnings

import numpy as np

from .errors import (ConditioningWarning, DimensionMismatch, StripViolation,
                     ZeroWittenIndex, check_integer)
from .graded import (GradingOperator, Parity, _require_selfadjoint, as_matrices, as_matrix,
                     frobenius_norms, spectral_norms)
from .kernels import Spectrum
from .report import Measurement

STRIP_TOL = 1e-12
CONDITIONING_LIMIT = 50.0
WITTEN_FLOOR = 1e-8


def _super_gibbs(grading, spectrum):
    # (Z, Gamma e^{-H}): the Witten index and the weight phi contracts
    # against; for a stack of spectra, the (K,) indices and (K, d, d) weights
    gamma_eig = spectrum.to_eigenbasis(grading.matrix)
    heat = np.exp(-spectrum.evals)
    # index of a selfadjoint pair is real; discard rounding in Im
    z = np.sum(np.diagonal(gamma_eig, axis1=-2, axis2=-1) * heat, axis=-1).real
    k = grading.matrix @ spectrum.from_diagonal(heat)
    k.setflags(write=False)
    return (float(z) if np.ndim(z) == 0 else z), k


def _odd_selfadjoint(m, grading, noun):
    """m made exactly selfadjoint and read-only, once found odd selfadjoint."""
    _require_selfadjoint(m, noun, grading, sign=-1)
    m = (m + m.conj().T) / 2
    m.setflags(write=False)
    return m


class GradedSystem:
    """Grading, supercharge, Hamiltonian and cached spectral data.

    Immutable after construction.  Raises DimensionMismatch unless Q0 has
    the grading's size, ParityViolation unless Q0 is odd selfadjoint and H
    even (graded._require_selfadjoint), ValueError naming the overflow if
    ||Q0||_F >= 2^511, before H = Q0^2 is formed, and ZeroWittenIndex if
    |Tr(Gamma e^{-H})| < WITTEN_FLOOR.
    """

    def __init__(self, grading, supercharge):
        if not isinstance(grading, GradingOperator):
            grading = GradingOperator(grading)
        self.grading = grading
        q0 = as_matrix(supercharge)
        if q0.shape[0] != grading.dim:
            raise DimensionMismatch("supercharge dimension does not match grading")
        self.supercharge = q0 = _odd_selfadjoint(q0, grading, "supercharge")
        # no entry or partial sum of Q0 Q0 exceeds ||Q0||_F^2, which 2^1022 bounds
        norm = frobenius_norms(q0)
        if norm >= 2.0 ** 511:
            raise ValueError("supercharge too large: H = Q0^2 would overflow, ||Q0||_F = "
                             "%.3g is not below 2^511" % norm)
        h = q0 @ q0
        h.setflags(write=False)
        self.hamiltonian = h
        _require_selfadjoint(h, "Hamiltonian", grading)
        evals, vecs = np.linalg.eigh(h)
        if evals.min() < -1e-12 * max(1.0, norm) ** 2:
            raise ValueError("Hamiltonian has a significantly negative eigenvalue")
        self.spectrum = Spectrum(np.clip(evals, 0.0, None), vecs)
        self.witten_index, self._weight = _super_gibbs(grading, self.spectrum)
        if abs(self.witten_index) < WITTEN_FLOOR:
            raise ZeroWittenIndex(
                "|Tr(Gamma e^{-H})| = %.3e below floor %.1e"
                % (abs(self.witten_index), WITTEN_FLOOR))

    @property
    def dim(self):
        return self.grading.dim

    def unit(self):
        return np.eye(self.dim, dtype=complex)

    def gamma(self, x):
        return self.grading.conjugate(x)

    def random_elements(self, rng, count, parity=None):
        """(count, d, d) stack of seeded Gaussian elements from one draw.

        The draw is one rng.standard_normal((count, 2, d, d)), the real and
        imaginary parts of each element in turn, so slice k is bit for bit
        the k-th of count sequential random_element calls.  The parity
        projection and the normalization to 2-norm 1 (a zero slice stays
        0) act on the whole stack.
        """
        d = self.dim
        draw = rng.standard_normal((count, 2, d, d))
        m = draw[:, 0] + 1j * draw[:, 1]
        if parity is not None:
            parity = Parity(parity)
        if parity is Parity.EVEN:
            m = (m + self.grading.conjugate(m)) / 2
        elif parity is Parity.ODD:
            m = (m - self.grading.conjugate(m)) / 2
        nrm = spectral_norms(m)
        return m / np.where(nrm > 0, nrm, 1.0)[:, None, None]

    def random_element(self, rng, parity=None):
        """Seeded Gaussian (d, d) complex ndarray of 2-norm 1, optionally
        of one parity.

        Slice 0 of a random_elements stack of one.
        """
        return self.random_elements(rng, 1, parity)[0]


def _draw_tuples(sys, rng, count, size, parity=None):
    # size stacks of count elements each, slot by slot: count tuples of
    # size elements, drawn in turn by one random_elements call.  count is
    # the samples of the check that draws, an integer >= 1 (ValueError)
    check_integer("samples", count, 1)
    d = sys.dim
    return list(sys.random_elements(rng, count * size, parity).reshape(
        count, size, d, d).swapaxes(0, 1))


def heisenberg_flow(sys, x, z):
    """alpha_z(x) = e^{izH} x e^{-izH} in the eigenbasis of H.

    Real z is the isometric Heisenberg evolution; z = i s realizes the
    imaginary-time continuation exactly.  Warns when the eigenvalue spread
    times |Im z| exceeds 50 (entries scale like e^{Im z (lam_i - lam_j)}).
    x may be a (K, d, d) stack, flowed slice by slice, and z then one time
    or K times, one per slice; slice k gets the bits of its own call.  On
    a context of K couplings, slice k flows by coupling k, and one matrix
    x by each of them.  x is converted and checked against the dimension
    of sys at every z, zero included.
    """
    x = as_matrices(x)
    spec = sys.spectrum
    if x.shape[-1] != spec.dim:
        raise DimensionMismatch("element dimension %d does not match system "
                                "dimension %d" % (x.shape[-1], spec.dim))
    if np.ndim(z) == 0:
        z = complex(z)
        if z == 0:
            # exact identity at zero time (no eigenbasis round trip)
            return x
    else:
        z = np.asarray(z, dtype=complex)[:, None]
    spread = float(np.max(spec.evals[..., -1] - spec.evals[..., 0]))
    worst = float(np.max(np.abs(np.imag(z))))
    if spread * worst > CONDITIONING_LIMIT:
        warnings.warn(
            "imaginary-time flow with eigenvalue spread %.3g at Im z = %.3g"
            % (spread, worst), ConditioningWarning, stacklevel=2)
    return _conjugation(spec, x, z, spec)


def _conjugation(left, x, z, right):
    # e^{izA} x e^{-izB} in the eigenbases of spectra left (A) and right (B), z one
    # time or (K, 1) times: the one conjugation, of heisenberg_flow and the oracles
    phase = np.exp(1j * z * left.evals)
    inverse = 1.0 / (phase if right is left else np.exp(1j * z * right.evals))
    return left.vecs @ (phase[..., :, None] * (left._vecs_h @ x @ right.vecs)
                        * inverse[..., None, :]) @ right._vecs_h


def superderivation(sys, x):
    """delta(x) = Q0 x - gamma(x) Q0.

    For a context the supercharge is Q0 + rQ, which gives
    delta_r(x) = delta(x) + r (Q x - gamma(x) Q).
    """
    return _superderivation_stack(sys, as_matrices(x))


def _superderivation_stack(sys, xs):
    """delta on each slice of a (K, d, d) stack, or on one matrix.

    superderivation is this function on one matrix; the matmuls broadcast
    over the stack, so slice k equals superderivation(sys, xs[k]) bit for
    bit.  On a context of K couplings an (M, 1, d, d) stack gives (M, K,
    d, d): every matrix under every coupling's delta_r.
    """
    g = sys.grading.matrix
    return sys.supercharge @ xs - (g @ xs @ g) @ sys.supercharge


def skms_eval(sys, x):
    """phi(x) = Tr(Gamma e^{-H} x) / Z.

    For a context this is phi^r(x) = Tr(Gamma e^{-H_r} x) / Z, with Z the
    unperturbed index.  On a (K, d, d) stack it returns the K values.
    """
    vals = np.trace(sys._weight @ as_matrices(x), axis1=-2, axis2=-1) / sys.witten_index
    return vals if np.ndim(vals) else complex(vals)


def require_strip(z, tol=STRIP_TOL):
    z = complex(z)
    if z.imag < -tol or z.imag > 1.0 + tol:
        raise StripViolation("Im z = %.6g outside the closed strip [0, 1]" % z.imag)
    return z


def kms_two_point(sys, x, y, z):
    """F_{x,y}(z) = phi(x alpha_z(y)) on the closed strip 0 <= Im z <= 1.

    At Im z = 1 this equals phi(alpha_{Re z}(y) gamma(x)).  On (K, d, d)
    stacks x and y it returns the K values.
    """
    z = require_strip(z)
    return skms_eval(sys, as_matrices(x) @ heisenberg_flow(sys, y, z))


def _functional_residuals(sys, x, y, w, ts):
    """(samples, max residual) by identity, for the axioms phi^r shares with phi.

    sys is a GradedSystem or a one-coupling PerturbedContext; x, y, w are
    (K, d, d) stacks and ts the flow times.  verify_skms_axioms and
    perturbation.skms_check_perturbed add their own KMS-boundary forms.
    """
    k = len(x)
    phi_x = skms_eval(sys, x)
    alpha = [np.abs(skms_eval(sys, heisenberg_flow(sys, x, t)) - phi_x) for t in ts]
    dd = superderivation(sys, superderivation(sys, y))
    comm = sys.hamiltonian @ y - y @ sys.hamiltonian
    per_sample = {
        "hermiticity": np.abs(skms_eval(sys, x.conj().swapaxes(1, 2)) - np.conj(phi_x)),
        "gamma_invariance": np.abs(skms_eval(sys, sys.grading.conjugate(x)) - phi_x),
        "delta_invariance": np.abs(skms_eval(sys, superderivation(sys, x))),
        "delta_squared_ad_h": spectral_norms(dd - comm),
        "weak_supersymmetry": np.abs(skms_eval(sys, x @ dd @ w)
                                     - skms_eval(sys, x @ comm @ w)),
    }
    out = {name: (k, float(np.max(res))) for name, res in per_sample.items()}
    out["alpha_invariance"] = (k * len(ts), float(np.max(alpha)))
    out["normalization"] = (1, abs(skms_eval(sys, np.eye(sys.dim)) - 1.0))
    return out


def verify_skms_axioms(sys, samples=50, seed=0):
    """Check the functional axioms on seeded random elements, at t = 0 and 0.7.

    The samples are drawn as one stack and every identity is evaluated on
    the whole stack by stacked matmuls and traces.

    Returns one Measurement per identity: hermitianity, flow and
    grading invariance, the KMS boundary relation, normalization,
    derivation invariance, and weak supersymmetry in both forms
    (_functional_residuals gives all but the KMS boundary).  A final
    measurement is the finite functional norm Tr(e^{-H})/|Z| (a bound that
    has no finite-dimensional obstruction, which the workbench documents
    rather than tests).
    """
    ts = (0.0, 0.7)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x51)))
    x, y, w = _draw_tuples(sys, rng, samples, 3)
    res = _functional_residuals(sys, x, y, w, ts)
    gx = sys.gamma(x)
    bound = [np.abs(kms_two_point(sys, x, y, t + 1j)
                    - skms_eval(sys, heisenberg_flow(sys, y, t) @ gx))
             for t in ts]
    res["kms_boundary"] = (samples * len(ts), float(np.max(bound)))
    rows = [("hermiticity", "S0"), ("alpha_invariance", "S1"),
            ("gamma_invariance", "S1"), ("kms_boundary", "S2"),
            ("normalization", "S3"), ("delta_invariance", "S4"),
            ("delta_squared_ad_h", "S5"), ("weak_supersymmetry", "S5")]
    # the functional norm is finite, at most d / WITTEN_FLOOR
    norm_phi = float(np.sum(np.exp(-sys.spectrum.evals)) / abs(sys.witten_index))
    return ([Measurement("skms." + name, anchor, *res[name]) for name, anchor in rows]
            + [Measurement("skms.functional_norm", "norm", 1, norm_phi)])
