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

from .errors import DimensionMismatch

# relative tolerances of the grading operator's checks and of the parity tests
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


def frobenius_norms(m):
    """Frobenius norm over the last two axes, for the tolerance tests."""
    flat = m.reshape(m.shape[:-2] + (-1,))
    return np.sqrt((flat * flat.conj()).real.sum(axis=-1))


def _parity_of(even, odd):
    return Parity.EVEN if even else Parity.ODD if odd else Parity.MIXED


class GradingOperator:
    """Selfadjoint unitary involution defining the grading.

    Validates Gamma = Gamma*, Gamma^2 = 1 and Gamma != 1 at construction,
    to GRADING_TOL; the stored matrix is read-only.
    """

    def __init__(self, matrix):
        m = np.array(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch("grading operator must be square, got shape %s" % (m.shape,))
        d = m.shape[0]
        if np.linalg.norm(m - m.conj().T) > GRADING_TOL * max(1.0, np.linalg.norm(m)):
            raise ValueError("grading operator is not selfadjoint")
        if np.linalg.norm(m @ m - np.eye(d)) > GRADING_TOL * d:
            raise ValueError("grading operator is not an involution")
        if np.linalg.norm(m - np.eye(d)) <= GRADING_TOL * d:
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
