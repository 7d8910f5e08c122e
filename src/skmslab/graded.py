"""Z2-graded matrix algebra.

The grading is Ad(Gamma) for a selfadjoint unitary Gamma != 1.  Elements
are plain complex ndarrays: one (d, d) matrix, or a (K, d, d) stack of
them.  They split into an even part commuting with Gamma and an odd part
anticommuting with it.  The graded commutator agrees with the commutator
unless both arguments are odd, where it is the anticommutator; on mixed
elements it is the bilinear extension.
"""

import enum

import numpy as np

from .errors import DimensionMismatch, ParityViolation

# relative tolerances of _require_selfadjoint and of the parity tests
GRADING_TOL = 1e-12
PARITY_TOL = 1e-10


class Parity(enum.Enum):
    EVEN = "even"
    ODD = "odd"
    MIXED = "mixed"


def as_matrix(x):
    """Return x as a square complex ndarray."""
    m = np.asarray(x, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch("expected a square matrix, got shape %s" % (m.shape,))
    return m


def as_matrices(x):
    """Return x as a square complex ndarray, or a (K, d, d) stack of them."""
    m = np.asarray(x, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(
            "expected a square matrix or a stack of them, got shape %s" % (m.shape,))
    return m


# the lambda_max(m^H m) taken as they come: outside this range the Gram's
# products may have overflowed, or lost relative accuracy under the normal
# range, or the slice is 0, and the Gram is formed again from the slice
# scaled by a power of two
_GRAM_RANGE = (2.0 ** -900, 2.0 ** 1000)


def spectral_norms(m):
    """The largest singular value of a matrix or of each slice of a stack:
    sqrt(lambda_max(m^H m)), from one stacked product and one stacked
    eigvalsh, to O(u) relative (Golub & Van Loan, Matrix Computations,
    4th ed., ch. 8).

    A finite slice whose Gram would overflow or underflow is first scaled
    by a power of two, which leaves every other slice's bits as they are; a
    slice that is not finite gives NaN, with no warning.  Slice k of a
    stack gets the bits it gets alone."""
    stack = m.reshape((-1,) + m.shape[-2:])
    with np.errstate(over="ignore", invalid="ignore"):
        gram = stack.conj().swapaxes(-1, -2) @ stack
    try:
        top = np.linalg.eigvalsh(gram)[:, -1]
    except np.linalg.LinAlgError:  # a NaN in some Gram
        top = np.full(len(stack), np.nan)
    lo, hi = _GRAM_RANGE
    # False on a NaN
    if lo <= top.min(initial=lo) and top.max(initial=hi) <= hi:
        norms = np.sqrt(top)
    else:
        norms = _norms_off_the_common_path(stack, gram)
    return norms.reshape(m.shape[:-2])[()]


def _norms_off_the_common_path(stack, gram):
    # spectral_norms where some Gram is not finite or leaves _GRAM_RANGE:
    # the Grams of the other slices keep their bits
    finite = np.isfinite(stack).all(axis=(-2, -1))
    # a Gram that overflowed reads 0 here, and is formed again
    gram[~np.isfinite(gram).all(axis=(-2, -1))] = 0.0
    top = np.linalg.eigvalsh(gram)[:, -1]
    lo, hi = _GRAM_RANGE
    redo = finite & ~((top >= lo) & (top <= hi))
    # 2^e is above the largest |entry| of each slice redone
    e = np.frexp(np.abs(stack[redo]).max(axis=(-2, -1)))[1]
    part = stack[redo] * np.ldexp(1.0, -e)[:, None, None]
    top[redo] = np.linalg.eigvalsh(part.conj().swapaxes(-1, -2) @ part)[:, -1]
    norms = np.sqrt(np.maximum(top, 0.0))
    with np.errstate(over="ignore"):
        norms[redo] = np.ldexp(norms[redo], e)
    norms[~finite] = np.nan
    return norms


def frobenius_norms(m):
    """Frobenius norm over the last two axes, the norm of the tolerance tests.

    Where the squares of a finite m overflow, each slice is first scaled by
    a power of two, which keeps the bits of every norm that does not."""
    flat = m.reshape(m.shape[:-2] + (m.shape[-2] * m.shape[-1],))
    with np.errstate(over="ignore", invalid="ignore"):
        sq = (flat * flat.conj()).real.sum(axis=-1)
    if not np.isinf(sq).any() or not np.isfinite(flat).all():
        return np.sqrt(sq)
    # 2^e is above the largest |entry| of each slice
    e = np.frexp(np.abs(flat).max(axis=-1))[1]
    flat = flat * np.ldexp(1.0, -e)[..., None]
    return np.ldexp(np.sqrt((flat * flat.conj()).real.sum(axis=-1)), e)


def _require_selfadjoint(m, noun, grading=None, sign=1, r=None):
    """The one test of Gamma, Q0, Q, H and a_r: ParityViolation "<noun> must
    be <property>" unless m, or each slice of a (K, d, d) stack at the
    couplings r (naming the first that fails), is finite, then selfadjoint
    and, with a grading, even (sign 1) or odd (sign -1), to GRADING_TOL
    relative to max(1, ||m||_F).  Finite comes before any arithmetic."""
    def refuse(what, k):
        where = " at coupling %d (r = %r)" % (k, float(r[k])) if m.ndim == 3 else ""
        raise ParityViolation("%s must be %s%s" % (noun, what, where))

    if not np.isfinite(m).all():
        refuse("finite", np.isfinite(m).all(axis=(-2, -1)).ravel().tolist().index(False))
    parts = [m, m - m.conj().swapaxes(-1, -2)]
    if grading is not None:
        gm = grading.conjugate(m)
        parts.append(gm - m if sign == 1 else gm + m)
    # the norms of m, m - m* and its wrong-parity part, one call
    norms = frobenius_norms(np.array(parts))
    over = (norms[1:] > GRADING_TOL * np.maximum(1.0, norms[0])).ravel().tolist()
    if True in over:
        i, count = over.index(True), len(over) // (len(parts) - 1)
        refuse(("selfadjoint", "even" if sign == 1 else "odd")[i // count], i % count)


def _parity_of(even, odd):
    return Parity.EVEN if even else Parity.ODD if odd else Parity.MIXED


class GradingOperator:
    """Selfadjoint unitary involution defining the grading.

    Validates Gamma = Gamma* (_require_selfadjoint), Gamma^2 = 1 and
    Gamma != 1 at construction, to GRADING_TOL; the matrix is read-only.
    """

    def __init__(self, matrix):
        m = np.array(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch("grading operator must be square, got shape %s" % (m.shape,))
        d = m.shape[0]
        _require_selfadjoint(m, "grading operator")
        if frobenius_norms(m @ m - np.eye(d)) > GRADING_TOL * d:
            raise ValueError("grading operator is not an involution")
        if frobenius_norms(m - np.eye(d)) <= GRADING_TOL * d:
            raise ValueError("grading operator equals the identity; grading is trivial")
        m.setflags(write=False)
        self.matrix = m
        self.dim = d

    def _elements(self, x):
        m = as_matrices(x)
        if m.shape[-1] != self.dim:
            raise DimensionMismatch(
                "element dimension %d does not match grading dimension %d"
                % (m.shape[-1], self.dim))
        return m

    def conjugate(self, x):
        """gamma(x) = Gamma x Gamma, on a matrix or on each slice of a stack."""
        return self.matrix @ self._elements(x) @ self.matrix

    def random_elements(self, rng, count, parity=None):
        """(count, d, d) stack of seeded Gaussian elements, the package's one draw.

        One rng.standard_normal((count, 2, d, d)), real and imaginary parts
        in turn, so slice k is bit for bit the k-th of count draws of one;
        the parity projection and the 2-norm 1 (a zero slice stays 0) act
        on the whole stack."""
        d = self.dim
        draw = rng.standard_normal((count, 2, d, d))
        m = draw[:, 0] + 1j * draw[:, 1]
        if parity is not None:
            parity = Parity(parity)
        if parity is Parity.EVEN:
            m = (m + self.conjugate(m)) / 2
        elif parity is Parity.ODD:
            m = (m - self.conjugate(m)) / 2
        nrm = spectral_norms(m)
        return m / np.where(nrm > 0, nrm, 1.0)[:, None, None]

    def classify(self, x):
        """Parity of x; for a (K, d, d) stack, the list of slice parities.

        x is even (odd) when x - gamma(x) (x + gamma(x)) is within
        PARITY_TOL of 0, relative to max(1, |x|).  Even wins where both
        tests pass, which only the zero matrix does.
        """
        m = self._elements(x)
        g = self.matrix @ m @ self.matrix
        norms = frobenius_norms(np.array([m, m - g, m + g]))
        even, odd = (norms[1:] <= PARITY_TOL * np.maximum(1.0, norms[0])).tolist()
        if m.ndim == 2:
            return _parity_of(even, odd)
        return [_parity_of(e, o) for e, o in zip(even, odd)]


def parity_split(x, grading):
    """Split x into (even, odd) parts; even + odd reconstructs x."""
    m = as_matrix(x)
    g = grading.conjugate(m)
    return (m + g) / 2, (m - g) / 2


def graded_commutator(x, y, grading):
    """[x, y] = xy - (-1)^{|x||y|} yx on homogeneous parts, extended bilinearly.

    Equivalent closed form: xy - y_even x - y_odd gamma(x).
    """
    xm = as_matrix(x)
    ym = as_matrix(y)
    if xm.shape != ym.shape:
        raise DimensionMismatch("graded commutator operands differ in shape")
    y_even, y_odd = parity_split(ym, grading)
    return xm @ ym - y_even @ xm - y_odd @ grading.conjugate(xm)


def supertrace(x, grading):
    """Tr(Gamma x); vanishes on odd elements."""
    return complex(np.trace(grading.matrix @ as_matrix(x)))
