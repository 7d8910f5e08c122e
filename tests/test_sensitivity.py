"""Sensitivity ladder of the chain family: each row goes red at its decade.

cochain.chain_integral, the one binding through which every chain of the
cochain layer and of the perturbed checks is evaluated, is patched so a
chain of degree n reads (1 + eps n) times its value.  The decades are the
first of 1e-12 .. 1e-4 at which each row fails, at seed 0 on the two
reference specs of `verify All`; no other gated row of these suites fails
by 1e-4.  A row that is green at its decade has lost sensitivity.
Nothing is asserted below a decade, so a check that gets sharper passes.
"""

import pytest

import skmslab.cochain as cochain
from skmslab.workbench import ModelSpec, run_suite

SPECS = (
    ModelSpec(kind="RandomGraded", p=3, q=2, seed=1, scale=0.6,
              perturbation={"seed": 11, "scale": 0.3}),
    ModelSpec(kind="RectangularBlock", p=3, q=2, seed=1, scale=1.0),
)
SUITES = ("Cocycle", "Lemma34", "Perturbation", "Homotopy")
# row: its decade on each of SPECS, in order
DECADES = {
    "F.unit_insertion": (1e-8, 1e-8),
    "F.heat_commutator_inner": (1e-7, 1e-8),
    "F.heat_commutator_last": (1e-7, 1e-8),
    "cocycle.boundary_n1": (1e-7, 1e-7),
    "cocycle.boundary_n3": (1e-6, 1e-6),
    "chain.slot_derivative": (1e-6, 1e-6),
    "transgression.derivative_order": (1e-6, 1e-6),
    "cocycle.boundary_n5": (1e-4, 1e-5),
    "transgression.endpoint": (1e-4, 1e-4),
}
CASES = sorted({(k, decades[k]) for decades in DECADES.values()
                for k in range(len(SPECS))})


@pytest.mark.parametrize("k, eps", CASES,
                         ids=["%s-%g" % (SPECS[k].kind, eps) for k, eps in CASES])
def test_chain_rows_are_red_at_their_decade(monkeypatch, k, eps):
    chain = cochain.chain_integral

    def skewed(spectrum, pool, grading, q=None, index=None):
        return chain(spectrum, pool, grading, q, index) * (1.0 + eps * (len(index) - 1))

    monkeypatch.setattr(cochain, "chain_integral", skewed)
    rows = {r.identity_name: r for suite in SUITES for r in run_suite(SPECS[k], suite)}
    pinned = [name for name, decades in DECADES.items() if decades[k] == eps]
    assert pinned
    assert [name for name in pinned if rows[name].passed] == []
