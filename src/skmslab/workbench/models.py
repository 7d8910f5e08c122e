"""Model specifications, JSON interchange and construction.

A RectangularBlock model fixes the grading diag(I_p, -I_q) and a
supercharge assembled from an explicit or seeded q x p block M, so the
supertrace of the heat kernel is p - q on the nose (McKean-Singer); p = q
is refused because that index is zero.  RandomGraded is a spec alias for
the same construction, kept so that existing spec files, their digests and
`skms model gen --kind RandomGraded` still work.
"""

import hashlib
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from ..dynamics import GradedSystem
from ..errors import DimensionMismatch, ZeroWittenIndex, check_integer
from ..graded import GradingOperator, spectral_norms
from ..perturbation import OddPerturbation

MODEL_SCHEMA = "skms-model/1"
KINDS = ("RectangularBlock", "RandomGraded")


def matrix_to_json(m):
    """Row-major nested lists with complex entries as [re, im] pairs."""
    m = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def matrix_from_json(rows, field=None):
    """The complex matrix of rows of [re, im] pairs.

    DimensionMismatch for a payload of another shape, and ValueError
    naming the first entry that is NaN or infinite, which json.loads
    accepts and which would end deep in numpy.  The spec field the rows
    come from, if given, prefixes each message.
    """
    where = field + ": " if field else ""
    try:
        arr = np.asarray(rows, dtype=float)
    except ValueError as exc:
        raise DimensionMismatch("%smalformed matrix payload: %s" % (where, exc)) from None
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise DimensionMismatch(
            "%smatrix payload must be rows of [re, im] pairs, got shape %s"
            % (where, arr.shape))
    bad = ~np.isfinite(arr)
    if bad.any():
        i, j, part = np.argwhere(bad)[0]
        raise ValueError("%smatrix entry (%d, %d) must be finite, got %r in its %s part"
                         % (where, i, j, float(arr[i, j, part]), ("real", "imaginary")[part]))
    return arr[..., 0] + 1j * arr[..., 1]


def check_scale(field, value, positive):
    """float(value) when it is a finite real number, > 0 (positive) or >= 0.

    ValueError naming the field otherwise: NaN or inf would end deep in
    numpy, in an eigensolver that does not converge, and a bool or
    a string would load as a number ("scale": true as 1.0) that the spec
    keeps in its own form.
    """
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    x = float(value) if real else math.nan
    if not (x > 0.0 if positive else x >= 0.0) or x == math.inf:
        raise ValueError("%s must be a finite number %s 0, got %r"
                         % (field, ">" if positive else ">=", value))
    return x


@dataclass(frozen=True)
class ModelSpec:
    """Declarative model description; the unit of reproducibility."""

    kind: str
    p: int
    q: int
    seed: int = 0
    m: tuple = None          # explicit block, JSON pair form
    scale: float = None      # target operator norm of the supercharge
    perturbation: dict = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError("kind must be one of %s" % (KINDS,))
        check_integer("p", self.p)
        check_integer("q", self.q)
        check_integer("seed", self.seed, 0)
        if self.p < 1 or self.q < 1:
            raise ValueError("block sizes must be positive")
        if self.scale is not None:
            check_scale("scale", self.scale, positive=True)
        pert = self.perturbation or {}
        # _build_perturbation reads entries alone, or seed and scale: any
        # other key, or seed or scale beside entries, would be ignored and
        # yet enter the digest
        unknown = set(pert) - {"entries", "seed", "scale"}
        if unknown:
            raise ValueError("unknown perturbation fields: %s" % sorted(unknown))
        if "entries" in pert and ("seed" in pert or "scale" in pert):
            raise ValueError("perturbation entries take no seed or scale")
        if "seed" in pert:
            check_integer("perturbation seed", pert["seed"], 0)
        if "scale" in pert:
            check_scale("perturbation scale", pert["scale"], positive=False)

    def to_dict(self):
        out = {"schema": MODEL_SCHEMA, "kind": self.kind,
               "p": self.p, "q": self.q, "seed": self.seed}
        if self.m is not None:
            out["m"] = [[list(pair) for pair in row] for row in self.m]
        if self.scale is not None:
            out["scale"] = self.scale
        if self.perturbation is not None:
            out["perturbation"] = dict(self.perturbation)
        return out

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise ValueError("a model spec is a JSON object, got %s"
                             % type(data).__name__)
        if data.get("schema") != MODEL_SCHEMA:
            raise ValueError("expected schema %r, got %r"
                             % (MODEL_SCHEMA, data.get("schema")))
        known = {"schema", "kind", "p", "q", "seed", "m", "scale", "perturbation"}
        unknown = set(data) - known
        if unknown:
            raise ValueError("unknown model fields: %s" % sorted(unknown))
        missing = {"kind", "p", "q"} - set(data)
        if missing:
            raise ValueError("missing model fields: %s" % sorted(missing))
        m = data.get("m")
        if m is not None:
            m = tuple(tuple(tuple(pair) for pair in row) for row in m)
        pert = data.get("perturbation")
        if pert is not None:
            pert = dict(pert)
        return cls(kind=data["kind"], p=data["p"], q=data["q"],
                   seed=data.get("seed", 0), m=m,
                   scale=data.get("scale"), perturbation=pert)

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))


def model_digest(spec):
    """First 16 hex chars of the sha256 of the canonical spec JSON."""
    canon = json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _block_supercharge(p, q, m):
    if m.shape != (q, p):
        raise DimensionMismatch("block must be %d x %d, got %s"
                                % (q, p, m.shape))
    d = p + q
    q0 = np.zeros((d, d), dtype=complex)
    q0[:p, p:] = m.conj().T
    q0[p:, :p] = m
    return q0


def _rescale(q0, scale):
    if scale is None:
        return q0
    nrm = spectral_norms(q0)
    if nrm == 0:
        raise ZeroWittenIndex("zero supercharge cannot be rescaled")
    return q0 * (float(scale) / nrm)


def _draw_block(rng, p, q):
    return rng.standard_normal((q, p)) + 1j * rng.standard_normal((q, p))


def _build_perturbation(pert, grading, p, q):
    if pert is None:
        return None
    if "entries" in pert:
        mat = matrix_from_json(pert["entries"], "perturbation.entries")
        return OddPerturbation(mat, grading)
    if "seed" not in pert:
        raise ValueError("perturbation needs 'entries' or 'seed'")
    rng = np.random.default_rng(np.random.SeedSequence((int(pert["seed"]), 0x50)))
    q0 = _block_supercharge(p, q, _draw_block(rng, p, q))
    q0 = _rescale(q0, float(pert.get("scale", 1.0)))
    return OddPerturbation(q0, grading)


def build_perturbed_model(spec, seed):
    """(GradedSystem, OddPerturbation) from a spec.

    A spec without a perturbation gets a deterministic stand-in of scale
    0.3 drawn from seed.
    """
    system, pert = build_model(spec)
    if pert is None:
        stand_in = {"seed": (seed ^ 0x5F) & 0xFFFFFFFF, "scale": 0.3}
        pert = _build_perturbation(stand_in, system.grading, spec.p, spec.q)
    return system, pert


def build_model(spec):
    """Construct (GradedSystem, OddPerturbation or None) from a spec."""
    p, q = spec.p, spec.q
    grading = GradingOperator(np.diag([1.0] * p + [-1.0] * q))
    if p == q:
        raise ZeroWittenIndex("square block has index zero")
    if spec.m is not None:
        m = matrix_from_json(spec.m, "m")
    else:
        m = _draw_block(np.random.default_rng(spec.seed), p, q)
    system = GradedSystem(grading, _rescale(_block_supercharge(p, q, m),
                                            spec.scale))
    return system, _build_perturbation(spec.perturbation, grading, p, q)
