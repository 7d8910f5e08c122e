"""Tests for model specs, report serialization, suites, and the CLI."""

import dataclasses
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import skmslab
from skmslab.errors import DimensionMismatch, ParityViolation, ZeroWittenIndex
from skmslab.errors import ChainBudgetExceeded, ConditioningWarning
from skmslab.kernels import SimplexQuadratureRule
from skmslab.report import DOCUMENTED, Measurement, VerificationReport, make_report
from skmslab.workbench import ModelSpec, build_model, model_digest, run_suite
from skmslab.workbench.cli import main
from skmslab.workbench.models import (build_perturbed_model, matrix_from_json,
                                      matrix_to_json)
from skmslab.workbench.reports import (
    CSV_COLUMNS,
    emit_report,
    report_row,
    to_csv_text,
    to_json_text,
)
from skmslab.workbench.suites import SuiteConfig, _run_one, gate

BLOCK_SPEC = ModelSpec(kind="RectangularBlock", p=3, q=2, seed=1)


# ---------------------------------------------------------------------------
# model specs


def test_matrix_json_round_trip():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    np.testing.assert_allclose(matrix_from_json(matrix_to_json(m)), m)
    with pytest.raises(DimensionMismatch):
        matrix_from_json([[1.0, 2.0], [3.0, 4.0]])  # bare floats, no pairs
    with pytest.raises(DimensionMismatch):
        matrix_from_json([[[1.0, 0.0], [2.0]]])


def test_model_spec_round_trip():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    spec = ModelSpec(
        kind="RectangularBlock", p=3, q=2, seed=4,
        m=tuple(tuple(tuple(pair) for pair in row) for row in matrix_to_json(m)),
        scale=0.8, perturbation={"seed": 9, "scale": 0.3})
    again = ModelSpec.from_json(spec.to_json())
    assert again == spec
    assert model_digest(again) == model_digest(spec)


def test_model_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        ModelSpec(kind="Diagonal", p=2, q=1)
    with pytest.raises(ValueError, match="positive"):
        ModelSpec(kind="RectangularBlock", p=0, q=1)
    # a zero perturbation is a valid, trivial one
    ModelSpec(kind="RectangularBlock", p=2, q=1, perturbation={"seed": 1, "scale": 0.0})
    with pytest.raises(ValueError, match="schema"):
        ModelSpec.from_dict({"kind": "RectangularBlock", "p": 2, "q": 1})
    with pytest.raises(ValueError, match="unknown"):
        ModelSpec.from_dict({"schema": "skms-model/1", "kind": "RectangularBlock",
                             "p": 2, "q": 1, "extra": True})
    # a misspelt key loaded with scale 1.0, and entries ignored a seed and a
    # scale beside them; both entered the digest
    with pytest.raises(ValueError, match=re.escape("unknown perturbation fields: ['scael']")):
        ModelSpec(kind="RectangularBlock", p=2, q=1, perturbation={"seed": 3, "scael": 0.5})
    entries = matrix_to_json(np.zeros((3, 3)))
    for extra in ({"seed": 1}, {"scale": 0.5}):
        with pytest.raises(ValueError, match="entries take no seed or scale"):
            ModelSpec(kind="RectangularBlock", p=2, q=1,
                      perturbation=dict(extra, entries=entries))


@pytest.mark.parametrize("fields, name", [
    ({"scale": float("nan")}, "scale"),
    ({"scale": float("inf")}, "scale"),
    ({"scale": -float("inf")}, "scale"),
    ({"scale": 0.0}, "scale"),
    ({"scale": -0.5}, "scale"),
    ({"scale": "abc"}, "scale"),
    ({"perturbation": {"seed": 1, "scale": float("nan")}}, "perturbation scale"),
    ({"perturbation": {"seed": 1, "scale": float("inf")}}, "perturbation scale"),
    ({"perturbation": {"seed": 1, "scale": -float("inf")}}, "perturbation scale"),
    ({"perturbation": {"seed": 1, "scale": -0.1}}, "perturbation scale"),
    # "scale": true loaded as 1.0 under another digest than "scale": 1,
    # and "scale": "0.6" loaded and kept the string
    ({"scale": True}, "scale"),
    ({"scale": "0.6"}, "scale"),
    ({"perturbation": {"seed": 1, "scale": True}}, "perturbation scale"),
    ({"perturbation": {"seed": 1, "scale": "0.3"}}, "perturbation scale"),
])
def test_model_spec_refuses_a_bad_scale(fields, name):
    # NaN and inf ended in a LinAlgError from eigh or svd, after
    # RuntimeWarnings, and a negative scale was silently accepted
    with pytest.raises(ValueError, match="^%s must be a finite number" % name):
        ModelSpec(kind="RectangularBlock", p=3, q=2, **fields)
    # a spec file is refused the same way
    data = dict(ModelSpec(kind="RectangularBlock", p=3, q=2).to_dict(), **fields)
    with pytest.raises(ValueError, match="^%s must be a finite number" % name):
        ModelSpec.from_json(json.dumps(data))


@pytest.mark.parametrize("fields, name", [
    ({"p": 3.9}, "p"),
    ({"p": True}, "p"),
    ({"q": 2.0}, "q"),
    ({"q": "2"}, "q"),
    ({"seed": 1.5}, "seed"),
    ({"seed": False}, "seed"),
    ({"seed": -1}, "seed"),
    ({"perturbation": {"seed": 1.5, "scale": 0.3}}, "perturbation seed"),
    ({"perturbation": {"seed": True}}, "perturbation seed"),
    ({"perturbation": {"seed": -1, "scale": 0.3}}, "perturbation seed"),
])
def test_model_spec_refuses_a_bad_integer(fields, name):
    # int() truncated "p": 3.9 to p = 3 and "seed": 1.5 to seed 1 and read
    # "p": true as p = 1; a negative seed ended in numpy's message
    data = dict(ModelSpec(kind="RectangularBlock", p=3, q=2).to_dict(), **fields)
    with pytest.raises(ValueError, match="^%s must be " % name):
        ModelSpec.from_json(json.dumps(data))
    with pytest.raises(ValueError, match="^%s must be " % name):
        ModelSpec(**dict(dict(kind="RectangularBlock", p=3, q=2), **fields))


def test_model_digest_is_canonical():
    a = ModelSpec(kind="RectangularBlock", p=3, q=2, seed=1)
    b = ModelSpec(kind="RectangularBlock", p=3, q=2, seed=2)
    assert len(model_digest(a)) == 16
    assert model_digest(a) != model_digest(b)
    assert int(model_digest(a), 16) >= 0  # hex


def test_build_rectangular_block():
    sys_, pert = build_model(BLOCK_SPEC)
    assert pert is None
    assert sys_.dim == 5
    assert sys_.witten_index == pytest.approx(1.0, abs=1e-10)
    # explicit block is honored verbatim
    m = np.array([[1.0, 0.0, 2.0], [0.0, 1.5, 0.0]]) + 0j
    spec = ModelSpec(kind="RectangularBlock", p=3, q=2,
                     m=tuple(tuple(tuple(p_) for p_ in row)
                             for row in matrix_to_json(m)))
    sys2, _ = build_model(spec)
    np.testing.assert_allclose(sys2.supercharge[3:, :3], m, atol=1e-15)
    # scale pins the supercharge norm
    spec3 = ModelSpec(kind="RectangularBlock", p=3, q=2, seed=5, scale=0.6)
    sys3, _ = build_model(spec3)
    assert np.linalg.norm(sys3.supercharge, 2) == pytest.approx(0.6, rel=1e-12)
    with pytest.raises(ZeroWittenIndex):
        build_model(ModelSpec(kind="RectangularBlock", p=2, q=2))


def test_build_random_graded():
    spec = ModelSpec(kind="RandomGraded", p=3, q=2, seed=1, scale=0.6)
    sys_, _ = build_model(spec)
    assert abs(sys_.witten_index) >= 1e-8
    sys_b, _ = build_model(spec)
    np.testing.assert_array_equal(sys_.supercharge, sys_b.supercharge)


@pytest.mark.parametrize("p, q, seed", [(3, 2, 1), (6, 4, 3), (2, 5, 9),
                                        (3, 2, 7), (3, 3, 1)])
@pytest.mark.parametrize("scale", [None, 0.6])
def test_random_graded_is_rectangular_block(p, q, seed, scale):
    specs = [ModelSpec(kind=kind, p=p, q=q, seed=seed, scale=scale)
             for kind in ("RectangularBlock", "RandomGraded")]
    if p == q:
        for spec in specs:
            with pytest.raises(ZeroWittenIndex):
                build_model(spec)
        return
    block, alias = (build_model(spec)[0] for spec in specs)
    np.testing.assert_array_equal(block.supercharge, alias.supercharge)
    assert alias.witten_index == pytest.approx(p - q, abs=1e-10)


def test_build_perturbation_paths():
    spec = ModelSpec(kind="RectangularBlock", p=3, q=2, seed=1,
                     perturbation={"seed": 3, "scale": 0.4})
    sys_, pert = build_model(spec)
    assert pert is not None
    assert np.linalg.norm(pert.matrix, 2) == pytest.approx(0.4, rel=1e-12)
    again = build_model(spec)[1]
    np.testing.assert_array_equal(pert.matrix, again.matrix)

    odd = np.zeros((5, 5), dtype=complex)
    odd[0, 3] = 1.0 - 2j
    odd[3, 0] = 1.0 + 2j
    spec_e = ModelSpec(kind="RectangularBlock", p=3, q=2, seed=1,
                       perturbation={"entries": matrix_to_json(odd)})
    pert_e = build_model(spec_e)[1]
    np.testing.assert_allclose(pert_e.matrix, odd, atol=1e-15)

    with pytest.raises(ParityViolation):
        build_model(ModelSpec(
            kind="RectangularBlock", p=3, q=2, seed=1,
            perturbation={"entries": matrix_to_json(np.eye(5))}))
    with pytest.raises(ValueError, match="'entries' or 'seed'"):
        build_model(ModelSpec(kind="RectangularBlock", p=3, q=2, seed=1,
                              perturbation={"scale": 0.5}))

    # a spec's own perturbation wins; without one a seeded stand-in is drawn
    np.testing.assert_array_equal(build_perturbed_model(spec, 7)[1].matrix,
                                  pert.matrix)
    bare = ModelSpec(kind="RectangularBlock", p=3, q=2, seed=1)
    stand_in = build_perturbed_model(bare, 7)[1]
    assert np.linalg.norm(stand_in.matrix, 2) == pytest.approx(0.3, rel=1e-12)
    np.testing.assert_array_equal(build_perturbed_model(bare, 7)[1].matrix,
                                  stand_in.matrix)
    assert not np.array_equal(build_perturbed_model(bare, 8)[1].matrix,
                              stand_in.matrix)


# ---------------------------------------------------------------------------
# report serialization


def sample_reports():
    rows = [make_report("a.first", "S0", 10, 1e-12, 1e-10),
            make_report("b.second", "main", 5, 2.0, 1e-10)]
    return [dataclasses.replace(r, seed=3, model_digest="d1") for r in rows]


def test_report_row_order_matches_csv_columns():
    row = report_row(sample_reports()[0])
    assert tuple(row.keys()) == CSV_COLUMNS


def test_json_text_schema_and_round_trip():
    text = to_json_text(sample_reports())
    assert text.endswith("\n")
    doc = json.loads(text)
    assert doc["schema"] == "skms-report/1"
    assert [r["identity_name"] for r in doc["reports"]] == ["a.first", "b.second"]
    assert doc["reports"][0]["passed"] is True
    assert doc["reports"][1]["passed"] is False


def test_csv_text_layout():
    lines = to_csv_text(sample_reports()).splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    first = lines[1].split(",")
    assert first[0] == "a.first"
    assert first[5] == "true"
    assert lines[2].split(",")[5] == "false"
    # floats use round-trip repr
    assert first[3] == repr(1e-12)


def test_emit_report_writes_and_validates():
    text = emit_report(sample_reports(), format="csv")
    assert text == to_csv_text(sample_reports())
    with pytest.raises(ValueError):
        emit_report(sample_reports(), format="xml")


def test_emit_report_deterministic_bytes():
    a = emit_report(sample_reports(), format="json")
    b = emit_report(sample_reports(), format="json")
    assert a.encode() == b.encode()


# ---------------------------------------------------------------------------
# suites


def test_parse_quadrature():
    # the text of tau eval --quadrature
    parse = SimplexQuadratureRule.parse
    assert parse("gauss:8") == SimplexQuadratureRule("gauss", 8)
    assert parse("mc:20000") == SimplexQuadratureRule("mc", 20000)
    with pytest.raises(ValueError):
        parse("simpson:4")
    with pytest.raises(ValueError):
        parse("gauss")
    with pytest.raises(ValueError, match="at least 2"):
        parse("gauss:1")
    for bad in ("gauss:x", "mc:0", "mc:-5"):
        with pytest.raises(ValueError, match="positive count"):
            parse(bad)


# the rows of run_suite(spec, "All") on both reference specs, in order:
# (identity, anchor, samples, tolerance).  A refactor that drops, renames,
# reorders or re-gates a row fails here; residual bits are not pinned,
# since they depend on the BLAS build
ALL_ROWS = (
    ("skms.hermiticity", "S0", 50, 1e-10),
    ("skms.alpha_invariance", "S1", 100, 1e-10),
    ("skms.gamma_invariance", "S1", 50, 1e-10),
    ("skms.kms_boundary", "S2", 100, 1e-10),
    ("skms.normalization", "S3", 1, 1e-10),
    ("skms.delta_invariance", "S4", 50, 1e-10),
    ("skms.delta_squared_ad_h", "S5", 50, 1e-10),
    ("skms.weak_supersymmetry", "S5", 50, 1e-10),
    ("skms.functional_norm", "norm", 1, DOCUMENTED),
    ("phi.normalization", "S3", 1, 1e-12),
    ("tau.normalization", "main", 1, 1e-12),
    ("tau.degeneracy", "main", 2, 0.0),
    ("cocycle.boundary_n1", "boundary", 25, 1e-8),
    ("cocycle.boundary_n3", "boundary", 25, 1e-8),
    ("cocycle.boundary_n5", "boundary", 25, 1e-8),
    ("chain.rotation", "rotation", 6, 1e-8),
    ("chain.slot_derivative", "cocycle1+cocycle2", 12, 1e-8),
    ("gamma_r.composition", "L43.1", 40, 1e-10),
    ("gamma_r.adjoint_unitarity", "L43.2", 40, 1e-10),
    ("alpha_r.conjugation", "L43.3", 40, 1e-10),
    ("gamma_r.multiplicativity", "L43.4", 40, 1e-10),
    ("flow.cyclic_conjugation", "analcont", 15, 1e-10),
    ("flow.reflection", "analcont", 15, 1e-10),
    ("skms_r.hermiticity", "S0", 15, 1e-10),
    ("skms_r.alpha_invariance", "S1", 45, 1e-10),
    ("skms_r.gamma_invariance", "S1", 15, 1e-10),
    ("skms_r.kms_boundary", "Fxz", 45, 1e-10),
    ("skms_r.normalization", "phi-r1", 1, 1e-10),
    ("skms_r.delta_invariance", "S4", 15, 1e-10),
    ("skms_r.delta_squared_ad_h", "S5", 15, 1e-10),
    ("skms_r.weak_supersymmetry", "S5", 15, 1e-10),
    ("skms_r.error_term", "lem2", 45, 1e-10),
    ("skms_r.error_term_at_zero", "lem2", 1, 0.0),
    ("F.rotation", "F1", 10, 1e-10),
    ("F.heat_commutator_inner", "F2", 20, 1e-10),
    ("F.heat_commutator_last", "F4", 10, 1e-10),
    ("F.unit_insertion", "F5", 10, 1e-10),
    ("F.derivation_cycle", "F6", 10, 1e-10),
    ("dyson.alpha_fidelity", "dyson", 6, 0.0),
    ("dyson.gamma_fidelity", "dyson", 3, 0.0),
    ("witten.invariance", "phi-r1", 11, 1e-10),
    ("phi_r.normalization", "phi-r1", 11, 1e-10),
    ("alpha_r.lipschitz_in_r", "lipschitz", 50, 0.0),
    ("transgression.derivative", "main", 3, DOCUMENTED),
    ("transgression.derivative_order", "main", 3, 0.0),
    ("transgression.endpoint", "main", 8, 1e-6),
    ("transgression.degeneracy", "main", 1, 0.0),
    ("transgression.unit_boundary", "phi-r1", 1, 0.0),
    ("entireness.indicator_n2", "norm", 32, DOCUMENTED),
    ("entireness.indicator_n4", "norm", 32, DOCUMENTED),
    ("entireness.indicator_n6", "norm", 32, DOCUMENTED),
    ("entireness.indicator_n8", "norm", 32, DOCUMENTED),
    ("entireness.indicator_n10", "norm", 32, DOCUMENTED),
    ("entireness.indicator_n12", "norm", 32, DOCUMENTED),
    ("entireness.monotone", "norm", 192, DOCUMENTED),
    ("entireness.jlo_bound", "norm", 192, 0.0),
)


@pytest.mark.parametrize("spec", [
    ModelSpec(kind="RandomGraded", p=3, q=2, seed=1, scale=0.6,
              perturbation={"seed": 11, "scale": 0.3}),
    ModelSpec(kind="RectangularBlock", p=3, q=2, seed=1, scale=1.0)],
    ids=lambda s: s.kind)
def test_all_suite_rows_are_pinned(spec):
    assert len(ALL_ROWS) == 56
    digest = model_digest(spec)
    # run_suite stamps every row with its seed and the spec digest; every
    # row passes at both seeds
    for seed in (0, 3):
        rows = run_suite(spec, "All", SuiteConfig(seed=seed))
        assert [(r.identity_name, r.paper_anchor, r.samples, r.tolerance)
                for r in rows] == list(ALL_ROWS)
        assert [r.identity_name for r in rows if not r.passed] == []
        assert all(r.seed == seed and r.model_digest == digest
                   and r.wall_ms == 0.0 for r in rows)


@pytest.mark.parametrize("spec", [
    ModelSpec(kind="RandomGraded", p=3, q=2, seed=1, scale=0.6,
              perturbation={"seed": 11, "scale": 0.3}),
    ModelSpec(kind="RectangularBlock", p=3, q=2, seed=1, scale=1.0)],
    ids=lambda s: s.kind)
def test_every_gated_row_is_green_on_seeds_0_to_7(spec):
    # a gate must hold for every draw, not for the default seed alone
    red = {seed: [r.identity_name for r in run_suite(spec, "All", SuiteConfig(seed=seed))
                  if r.tolerance != DOCUMENTED and not r.passed]
           for seed in range(8)}
    assert red == {seed: [] for seed in range(8)}


def test_axioms_suite_passes():
    rows = run_suite(BLOCK_SPEC, "Axioms")
    assert all(r.passed for r in rows)
    digest = model_digest(BLOCK_SPEC)
    assert all(r.model_digest == digest for r in rows)


def test_suite_name_is_case_insensitive_and_validated():
    a = run_suite(BLOCK_SPEC, "axioms")
    b = run_suite(BLOCK_SPEC, "Axioms")
    assert a == b
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite(BLOCK_SPEC, "everything")


def test_cocycle_suite_passes():
    rows = run_suite(BLOCK_SPEC, "Cocycle", SuiteConfig(max_degree=3))
    names = [r.identity_name for r in rows]
    assert "tau.normalization" in names
    assert "tau.degeneracy" in names
    assert "cocycle.boundary_n1" in names and "cocycle.boundary_n3" in names
    assert all(r.passed for r in rows), [(r.identity_name, r.max_residual)
                                         for r in rows if not r.passed]


def test_budget_exhaustion_reported_not_fatal(monkeypatch):
    monkeypatch.setenv("SKMS_CHAIN_BUDGET", "20")
    for seed in (0, 3):
        rows = run_suite(BLOCK_SPEC, "Cocycle", SuiteConfig(max_degree=3, seed=seed))
        sentinels = [r for r in rows if r.max_residual == DOCUMENTED]
        assert sentinels, "expected budget-limited rows"
        assert all(not r.passed for r in sentinels)
        # a refused row names its model and seed like every other row
        assert {(r.seed, r.model_digest) for r in rows} == {
            (seed, model_digest(BLOCK_SPEC))}


def test_unreachable_dyson_truncation_is_one_refused_row():
    # at perturbation scale 3 no series order <= 40 reaches 1e-10 at t = 1:
    # TruncationUnreachable ended verify Perturbation and All in a traceback
    base = ModelSpec(kind="RandomGraded", p=3, q=2, seed=1, scale=0.6,
                     perturbation={"seed": 11, "scale": 0.3})
    strong = dataclasses.replace(base, perturbation={"seed": 11, "scale": 3.0})
    want = [r.identity_name for r in run_suite(base, "Perturbation")]
    want.remove("dyson.gamma_fidelity")
    rows = run_suite(strong, "Perturbation")
    assert [r.identity_name for r in rows] == want
    assert [(r.identity_name, r.samples, r.max_residual, r.tolerance)
            for r in rows if not r.passed] == [("dyson.alpha_fidelity", 0, DOCUMENTED, 0.0)]
    assert {(r.seed, r.model_digest) for r in rows} == {(0, model_digest(strong))}


def test_budget_refusal_fails_documented_row():
    # residual DOCUMENTED <= tolerance DOCUMENTED must not read as a pass
    def refuse():
        raise ChainBudgetExceeded("refused")

    rows = _run_one(("doc.row", "norm", DOCUMENTED, refuse), SuiteConfig(), "")
    assert [(r.identity_name, r.max_residual, r.passed) for r in rows] == [
        ("doc.row", DOCUMENTED, False)]


def strict_json(text):
    # json.loads that refuses NaN and the infinities, which are not JSON
    def refuse(constant):
        raise ValueError("not strict JSON: %s" % constant)
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("tol", [0.0, 1e-10, DOCUMENTED])
def test_gate_writes_a_residual_that_is_not_finite_as_a_failing_documented_row(tol):
    # a NaN residual was written as "max_residual": NaN, and -inf passed
    measured = [Measurement("x.nan", "a", 3, math.nan),
                Measurement("x.inf", "a", 3, math.inf),
                Measurement("x.minus_inf", "a", 3, -math.inf)]
    rows = gate(measured, tol)
    assert [(r.max_residual, r.tolerance, r.passed) for r in rows] == [
        (DOCUMENTED, tol, False)] * 3
    assert [r["max_residual"] for r in strict_json(to_json_text(rows))["reports"]] == [
        DOCUMENTED] * 3


def test_json_text_refuses_a_float_that_is_not_finite():
    row = VerificationReport("x.nan", "a", 1, math.nan, 0.0, False)
    with pytest.raises(ValueError, match="not JSON compliant"):
        to_json_text([row])


def test_strong_perturbation_writes_strict_json():
    # at perturbation scale 1e5 the imaginary-time flow overflows and
    # skms_r.kms_boundary read NaN, which the report wrote as NaN
    strong = ModelSpec(kind="RandomGraded", p=3, q=2, seed=1, scale=0.6,
                       perturbation={"seed": 11, "scale": 1e5})
    with pytest.warns(ConditioningWarning), \
            pytest.warns(RuntimeWarning, match="divide by zero|invalid value"):
        rows = run_suite(strong, "All")
    doc = strict_json(to_json_text(rows))
    kms, = [r for r in doc["reports"] if r["identity_name"] == "skms_r.kms_boundary"]
    assert (kms["max_residual"], kms["passed"]) == (DOCUMENTED, False)


def test_timing_flag_populates_wall_ms():
    rows = run_suite(BLOCK_SPEC, "Axioms", SuiteConfig(timing=True))
    assert all(r.wall_ms > 0.0 for r in rows)
    rows_plain = run_suite(BLOCK_SPEC, "Axioms")
    assert all(r.wall_ms == 0.0 for r in rows_plain)


def test_suite_bytes_are_reproducible():
    a = emit_report(run_suite(BLOCK_SPEC, "Perturbation"), format="csv")
    b = emit_report(run_suite(BLOCK_SPEC, "Perturbation"), format="csv")
    assert a.encode() == b.encode()


_ALL_REPORT_SCRIPT = """
import sys
from skmslab.workbench import ModelSpec, run_suite
from skmslab.workbench.reports import emit_report
spec = ModelSpec(kind="RandomGraded", p=3, q=2, seed=1, scale=0.6,
                 perturbation={"seed": 11, "scale": 0.3})
with open(sys.argv[1], "w") as out:
    out.write(emit_report(run_suite(spec, "All"), format="json"))
"""


def _all_report(tmp_path, name, **env):
    # the RandomGraded reference spec's All report, from a fresh interpreter
    src = str(pathlib.Path(skmslab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = tmp_path / ("%s.json" % name)
    subprocess.run([sys.executable, "-c", _ALL_REPORT_SCRIPT, str(out)],
                   env=dict(os.environ, PYTHONPATH=path, **env), check=True,
                   timeout=600)
    return out.read_bytes()


def test_report_bytes_match_across_processes(tmp_path):
    # the in-process determinism check shares one hash seed and one import
    # order between its two runs; fresh interpreters with different hash
    # seeds do not
    reports = [_all_report(tmp_path, "all_%s" % seed, OPENBLAS_NUM_THREADS="1",
                           PYTHONHASHSEED=seed) for seed in ("1", "2")]
    assert json.loads(reports[0])
    assert reports[0] == reports[1]


def test_report_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # each chain product is one small real GEMM per block position, which
    # BLAS runs on one thread whatever its thread count
    reports = [_all_report(tmp_path, "threads_%s" % n, OPENBLAS_NUM_THREADS=n,
                           OMP_NUM_THREADS=n) for n in ("1", "2")]
    assert json.loads(reports[0])
    assert reports[0] == reports[1]


@pytest.mark.parametrize("spec, command", [
    (ModelSpec(kind="RectangularBlock", p=6, q=4, seed=3, scale=1.2), ["verify", "Cocycle"]),
    (ModelSpec(kind="RectangularBlock", p=5, q=3, seed=4, scale=1.0), ["homotopy", "check"]),
], ids=["cocycle_d10", "homotopy_d8"])
def test_cli_bytes_do_not_depend_on_the_blas_thread_count_at_the_largest_blocks(
        tmp_path, spec, command):
    # the builder's largest real GEMMs: (2d, 2d) blocks at d = 10 under
    # (B + b)tau, and two levels of d = 8 rows, (16, 16) by (16, 16), under
    # the transgression checks; the perfbench models of cocycle_d10 and
    # homotopy_d8, each command in a fresh interpreter
    src = str(pathlib.Path(skmslab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    model = write_spec(tmp_path, spec)
    outs = []
    for n in ("1", "2"):
        out = tmp_path / ("threads_%s.json" % n)
        subprocess.run([sys.executable, "-m", "skmslab.workbench.cli"] + command
                       + ["--model", model, "--out", str(out)],
                       env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=n,
                                OMP_NUM_THREADS=n), check=True, timeout=600)
        outs.append(out.read_bytes())
    assert json.loads(outs[0])["reports"]
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# command line


def write_spec(tmp_path, spec=BLOCK_SPEC):
    path = tmp_path / "model.json"
    path.write_text(spec.to_json())
    return str(path)


def test_cli_model_gen_and_validate(tmp_path, capsys):
    out = tmp_path / "gen.json"
    rc = main(["model", "gen", "--p", "3", "--q", "2", "--seed", "1",
               "--out", str(out)])
    assert rc == 0
    spec = ModelSpec.from_json(out.read_text())
    assert spec.p == 3 and spec.q == 2

    rc = main(["model", "validate", str(out)])
    assert rc == 0
    info = json.loads(capsys.readouterr().out)
    assert info["digest"] == model_digest(spec)
    assert info["dim"] == 5
    assert info["has_perturbation"] is False


def test_cli_model_gen_with_perturbation(tmp_path, capsys):
    out = tmp_path / "gen.json"
    rc = main(["model", "gen", "--p", "3", "--q", "2", "--perturb-seed", "4",
               "--perturb-scale", "0.3", "--out", str(out)])
    assert rc == 0
    rc = main(["model", "validate", str(out)])
    info = json.loads(capsys.readouterr().out)
    assert info["has_perturbation"] is True


@pytest.mark.parametrize("argv, option", [
    (["--scale", "nan"], "--scale"),
    (["--scale", "inf"], "--scale"),
    (["--scale", "0"], "--scale"),
    (["--scale", "-1"], "--scale"),
    (["--scale", "abc"], "--scale"),
    (["--perturb-scale", "nan"], "--perturb-scale"),
    (["--perturb-scale=-inf"], "--perturb-scale"),
    (["--perturb-scale=-0.1"], "--perturb-scale"),
])
def test_cli_model_gen_bad_scale_is_a_usage_error(capsys, argv, option):
    with pytest.raises(SystemExit) as exc:
        main(["model", "gen", "--p", "3", "--q", "2"] + argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument " + option in err and "Traceback" not in err


def test_cli_verify_exit_codes(tmp_path, capsys, monkeypatch):
    model = write_spec(tmp_path)
    out = tmp_path / "rep.csv"
    rc = main(["verify", "Axioms", "--model", model, "--format", "csv",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert all(line.split(",")[5] == "true" for line in lines[1:])
    capsys.readouterr()

    # an unnormalized draw keeps the JLO bound, which holds for every
    # tuple; the same suite with its one 65x65 exponential refused by the
    # chain budget must report that honestly and exit nonzero
    model = write_spec(
        tmp_path, ModelSpec(kind="RectangularBlock", p=3, q=2, seed=7))
    assert main(["verify", "Entireness", "--model", model]) == 0
    capsys.readouterr()
    monkeypatch.setenv("SKMS_CHAIN_BUDGET", str(65.0 ** 3 - 1.0))
    rc = main(["verify", "Entireness", "--model", model])
    assert rc == 1
    doc = json.loads(capsys.readouterr().out)
    failed = [r for r in doc["reports"] if not r["passed"]]
    assert [r["identity_name"] for r in failed] == ["entireness.jlo_bound"]


def test_cli_verify_stdout_default(tmp_path, capsys):
    model = write_spec(tmp_path)
    rc = main(["verify", "Lemma34", "--model", model])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "skms-report/1"
    assert {r["identity_name"] for r in doc["reports"]} == {
        "chain.rotation", "chain.slot_derivative"}


def test_cli_tau_eval_dual_route(tmp_path, capsys):
    model = write_spec(tmp_path)
    rc = main(["tau", "eval", "--model", model, "--degree", "2",
               "--tuples", "2", "--quadrature", "mc:4000"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "skms-tau/1"
    assert len(doc["evaluations"]) == 2
    for entry in doc["evaluations"]:
        val = complex(*entry["value"])
        est = complex(*entry["estimate"])
        assert abs(val - est) <= 5 * entry["quadrature_error"]


@pytest.mark.parametrize("argv", [
    ["tau", "eval", "--quadrature", "gauss:1"],
    ["tau", "eval", "--quadrature", "simpson:4"],
    ["tau", "eval", "--quadrature", "gauss:x"],
])
def test_cli_bad_quadrature_is_a_usage_error(tmp_path, capsys, argv):
    model = write_spec(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--model", model])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --quadrature" in err and "Traceback" not in err


@pytest.mark.parametrize("order", ["41", "-1", "-3", "x"])
def test_cli_bad_series_order_is_a_usage_error(tmp_path, capsys, order):
    # verify took --series-order in 0..40 and refused these values; the
    # Dyson rows now always adapt their order, and verify takes no order
    model = write_spec(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "Perturbation", "--model", model,
              "--series-order=" + order])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --series-order=" + order in err
    assert "Traceback" not in err


def test_cli_tau_eval_gauss_past_its_degree_cap_is_a_usage_error(
        tmp_path, capsys, monkeypatch):
    # --degree 8 --quadrature gauss:4 ended in the ValueError traceback of
    # simplex_quadrature, after the model was built and the chain evaluated
    from skmslab.workbench import cli

    def started(*args):
        raise AssertionError("work started before the degree was checked")
    monkeypatch.setattr(cli, "tau_eval", started)
    monkeypatch.setattr(cli, "_load_model", started)
    with pytest.raises(SystemExit) as exc:
        main(["tau", "eval", "--model", write_spec(tmp_path), "--degree", "8",
              "--quadrature", "gauss:4"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --quadrature: the Gauss rule takes degree n <= 6" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, cost", [
    (["tau", "eval", "--degree", "2", "--quadrature", "gauss:3000000000"],
     "order 3000000000 at degree 2 needs 3000000000^2 points"),
    (["tau", "eval", "--degree", "4", "--quadrature", "gauss:100000"],
     "order 100000 at degree 4 needs 100000^4 points"),
])
def test_cli_gauss_rule_over_the_budget_is_a_usage_error(
        tmp_path, capsys, monkeypatch, argv, cost):
    # an unpriced rule ended in a MemoryError traceback from leggauss (exit
    # 1); the rule is priced at --degree before the model loads
    from skmslab.workbench import cli

    def started(*args):
        raise AssertionError("work started before the rule was priced")
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", started)
    monkeypatch.setattr(cli, "_load_model", started)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--model", write_spec(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --quadrature: a Gauss rule of " + cost in err
    assert "over budget 1e+08" in err and "Traceback" not in err


def test_cli_perturb_sweep_grid_over_the_budget_is_a_usage_error(
        tmp_path, capsys, monkeypatch):
    # --grid 100000000 asked for a 37.3 GiB (K, d, d) stack and ended in a
    # traceback (exit 1); the grid's context is priced before it is built
    from skmslab import perturbation

    def built(*args):
        raise AssertionError("the context was built before it was priced")
    monkeypatch.setattr(perturbation, "PerturbedContext", built)
    with pytest.raises(SystemExit) as exc:
        main(["perturb", "sweep", "--model", write_spec(tmp_path),
              "--grid", "100000000"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert ("argument --grid: a coupling grid of 100000000 at d=5 needs 100000000 "
            "eigendecompositions of cost 100000000 * 5^3 = 1.25e+10, over budget "
            "1e+08") in err
    assert "Traceback" not in err


def test_cli_homotopy_check_past_the_chain_budget_is_a_usage_error(tmp_path, capsys):
    # an uncaught ChainBudgetExceeded traceback (exit 1) before; tau eval
    # reports the same refusal per entry and verify as a failing row
    with pytest.raises(SystemExit) as exc:
        main(["homotopy", "check", "--model", write_spec(tmp_path), "--degree", "60"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert ("argument --degree: alternating chain with d=5, m=61 needs a 620x620 "
            "block exponential of cost 620^3 = 2.38e+08, over budget 1e+08") in err
    assert "Traceback" not in err


def test_cli_tau_eval_monte_carlo_past_the_gauss_cap(tmp_path, capsys):
    rc = main(["tau", "eval", "--model", write_spec(tmp_path), "--degree", "8",
               "--quadrature", "mc:200"])
    assert rc == 0
    entry = json.loads(capsys.readouterr().out)["evaluations"][0]
    assert entry["degree"] == 8 and "estimate" in entry and "value" in entry


def test_cli_tau_eval_odd_degree(tmp_path, capsys):
    model = write_spec(tmp_path)
    rc = main(["tau", "eval", "--model", model, "--degree", "1",
               "--quadrature", "gauss:6"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    entry = doc["evaluations"][0]
    assert entry["value"] == [0.0, 0.0]
    assert "estimate" not in entry  # quadrature route is even-degree only


def test_cli_homotopy_check(tmp_path, capsys):
    model = write_spec(tmp_path)
    rc = main(["homotopy", "check", "--model", model, "--degree", "2",
               "--seed", "2"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    names = [r["identity_name"] for r in doc["reports"]]
    assert names == [
        "transgression.derivative",
        "transgression.derivative_order",
        "transgression.endpoint",
    ]
    assert {(r["seed"], r["model_digest"]) for r in doc["reports"]} == {
        (2, model_digest(BLOCK_SPEC))}


def test_cli_perturb_sweep(tmp_path, capsys):
    model = write_spec(tmp_path)
    rc = main(["perturb", "sweep", "--model", model, "--grid", "5",
               "--seed", "2"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    names = [r["identity_name"] for r in doc["reports"]]
    assert "witten.invariance" in names
    assert "alpha_r.lipschitz_in_r" in names
    assert any(n.endswith("@r=0.5") for n in names)
    assert all(r["passed"] for r in doc["reports"])
    assert {(r["seed"], r["model_digest"]) for r in doc["reports"]} == {
        (2, model_digest(BLOCK_SPEC))}


def test_cli_perturb_sweep_gates_the_skms_rows_at_tol(tmp_path, capsys):
    # the sKMS rows at each coupling hold to rounding, as in verify, so
    # --tol gates them with no floor; they used to read max(tol, 1e-9)
    model = write_spec(tmp_path)
    rc = main(["perturb", "sweep", "--model", model, "--grid", "2",
               "--tol", "1e-12"])
    assert rc == 0
    rows = {r["identity_name"]: r for r in json.loads(capsys.readouterr().out)["reports"]}
    for r_value in ("0.0", "0.5", "1.0"):
        row = rows["skms_r.hermiticity@r=" + r_value]
        assert row["tolerance"] == 1e-12 and row["passed"], row
        assert rows["skms_r.kms_boundary@r=" + r_value]["tolerance"] == 1e-12


@pytest.mark.parametrize("degree", ["0", "-1", "x"])
@pytest.mark.parametrize("suite", ["All", "Cocycle"])
def test_cli_max_degree_below_one_is_a_usage_error(tmp_path, capsys, suite, degree):
    # 0 used to end in a traceback from F_r_eval (All) or in a Cocycle
    # report with no boundary row that passed; -1 in a traceback
    model = write_spec(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["verify", suite, "--model", model, "--max-degree=" + degree])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --max-degree" in err and "Traceback" not in err


@pytest.mark.parametrize("degree", [0, -1])
def test_run_suite_refuses_max_degree_below_one(degree):
    with pytest.raises(ValueError, match="max_degree must be at least 1"):
        run_suite(BLOCK_SPEC, "Cocycle", SuiteConfig(max_degree=degree))


@pytest.mark.parametrize("fields, message", [
    (dict(seed=-1), "seed must be at least 0, got -1"),
    (dict(seed=1.5), "seed must be an integer, got 1.5"),
    (dict(max_degree=2.0), "max_degree must be an integer, got 2.0"),
    (dict(tol_exact=float("nan")), "tol_exact must be a finite number >= 0, got nan"),
    (dict(tol_exact=-1.0), "tol_exact must be a finite number >= 0, got -1.0"),
    (dict(timing="no"), "timing must be a bool, got 'no'"),
])
def test_run_suite_checks_its_integers_before_any_model(monkeypatch, fields, message):
    # seed -1 ended in numpy's "expected non-negative integer", seed 1.5 in
    # a TypeError from ^, and max_degree 2.0 in range() in the Cocycle suite;
    # tol_exact nan wrote "tolerance": NaN, -1 failed rows of residual 0, and
    # timing "no" stamped wall times
    from skmslab.workbench import suites

    def built(*args):
        raise AssertionError("a model was built before the config was checked")
    monkeypatch.setattr(suites, "build_perturbed_model", built)
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        run_suite(BLOCK_SPEC, "All", SuiteConfig(**fields))


def test_run_suite_max_degree_one_checks_degree_one():
    rows = run_suite(BLOCK_SPEC, "Cocycle", SuiteConfig(max_degree=1))
    assert [r.identity_name for r in rows if r.identity_name.startswith(
        "cocycle.")] == ["cocycle.boundary_n1"]


@pytest.mark.parametrize("grid", ["1", "0", "-3", "x"])
def test_cli_perturb_sweep_grid_below_two_is_a_usage_error(tmp_path, capsys, grid):
    # 0 used to pass with samples 0, -3 to end in a traceback, and 1 to
    # check r = 0 alone
    model = write_spec(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["perturb", "sweep", "--model", model, "--grid=" + grid])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --grid" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, option", [
    (["tau", "eval", "--degree=-1"], "--degree"),
    (["tau", "eval", "--degree=x"], "--degree"),
    (["tau", "eval", "--tuples=-1"], "--tuples"),
    (["homotopy", "check", "--degree=-1"], "--degree"),
    (["homotopy", "check", "--steps=0,1e-3"], "--steps"),
    (["homotopy", "check", "--steps=-1e-3"], "--steps"),
    (["homotopy", "check", "--steps=abc"], "--steps"),
    (["homotopy", "check", "--steps=1e-3,"], "--steps"),
    (["homotopy", "check", "--steps=nan"], "--steps"),
    (["homotopy", "check", "--r", "2"], "--r"),
    (["homotopy", "check", "--r", "-0.1"], "--r"),
    (["homotopy", "check", "--r", "nan"], "--r"),
    (["homotopy", "check", "--steps", "0.9,0.1"], "--steps"),
    (["homotopy", "check", "--steps", "1e-3"], "--steps"),
])
def test_cli_bad_degree_tuples_or_steps_is_a_usage_error(tmp_path, capsys,
                                                          argv, option):
    # a negative degree used to end in an IndexError (homotopy check) or in
    # values for a degree that does not exist (tau eval); a zero step in a
    # division by zero and a non-number in a ValueError traceback; an r
    # outside [0, 1], or a step that takes r +/- h out of it, in a ValueError
    # traceback, and r = nan in a LinAlgError from eigh; a single step
    # always read derivative_order red (exit 1), as no order can be measured
    model = write_spec(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--model", model])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument " + option in err and "Traceback" not in err


@pytest.mark.parametrize("argv, option", [
    (["model", "gen", "--p", "3", "--q", "2", "--seed", "-1"], "--seed"),
    (["model", "gen", "--p", "3", "--q", "2", "--perturb-seed", "-1"],
     "--perturb-seed"),
    (["verify", "All", "--seed", "-1"], "--seed"),
    (["tau", "eval", "--seed", "-1"], "--seed"),
    (["perturb", "sweep", "--seed", "-1"], "--seed"),
    (["homotopy", "check", "--seed", "-1"], "--seed"),
])
def test_cli_negative_seed_is_a_usage_error(tmp_path, capsys, argv, option):
    # each ended in numpy's "expected non-negative integer": a traceback
    # with exit 1, or for model gen a message that named no option
    if argv[0] != "model":
        argv = argv + ["--model", write_spec(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument " + option in err and "Traceback" not in err


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1"])
@pytest.mark.parametrize("command", [["verify", "All"], ["perturb", "sweep"],
                                     ["homotopy", "check"]])
def test_cli_tol_outside_finite_nonnegative_is_a_usage_error(tmp_path, capsys,
                                                              command, tol):
    # --tol nan wrote "tolerance": NaN, which is not strict JSON, and turned
    # every row red; inf passed every gated row; -1 failed rows at residual 0
    with pytest.raises(SystemExit) as exc:
        main(command + ["--tol=" + tol, "--model", write_spec(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --tol: tol must be a finite number >= 0" in err
    assert "Traceback" not in err


# a spec file that cannot be loaded, by cause: its name and its text
UNLOADABLE_SPECS = {
    "missing file": None,
    "bad JSON": "{\"schema\": ",
    "unknown kind": json.dumps(dict(BLOCK_SPEC.to_dict(), kind="Diagonal")),
    "NaN scale": json.dumps(dict(BLOCK_SPEC.to_dict(), scale=float("nan"))),
    "bool scale": json.dumps(dict(BLOCK_SPEC.to_dict(), scale=True)),
    "string perturbation scale": json.dumps(dict(
        BLOCK_SPEC.to_dict(), perturbation={"seed": 1, "scale": "0.3"})),
    "not an object": "[1, 2]",
    "missing field": json.dumps({"schema": "skms-model/1", "p": 3, "q": 2}),
    "null size": json.dumps(dict(BLOCK_SPEC.to_dict(), p=None)),
    "unknown perturbation key": json.dumps(dict(
        BLOCK_SPEC.to_dict(), perturbation={"seed": 3, "scael": 0.5})),
    "perturbation entries with a seed": json.dumps(dict(
        BLOCK_SPEC.to_dict(), perturbation={
            "seed": 1, "entries": matrix_to_json(np.zeros((5, 5)))})),
}


@pytest.mark.parametrize("argv", [
    ["model", "validate"], ["verify", "All", "--model"], ["tau", "eval", "--model"],
    ["perturb", "sweep", "--model"], ["homotopy", "check", "--model"]])
@pytest.mark.parametrize("cause", sorted(UNLOADABLE_SPECS))
def test_cli_unloadable_spec_is_a_usage_error(tmp_path, capsys, argv, cause):
    # each of these ended in a traceback (FileNotFoundError, JSONDecodeError,
    # ValueError from ModelSpec, AttributeError, KeyError, TypeError)
    path = tmp_path / "model.json"
    if UNLOADABLE_SPECS[cause] is not None:
        path.write_text(UNLOADABLE_SPECS[cause])
    with pytest.raises(SystemExit) as exc:
        main(argv + [str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "cannot load model " + str(path) in err and "Traceback" not in err


def _entries_with(i, j, part, value):
    # the JSON pairs of a 3 x 3 zero matrix, with one part of entry (i, j) set
    entries = matrix_to_json(np.zeros((3, 3)))
    entries[i][j][part] = value
    return entries


# spec entries that are not finite, which json.loads reads from NaN and
# Infinity, by cause: the spec's dict and the refusal.  On a 2+1 block,
# NaN in m ended in "Eigenvalues did not converge", or with a scale in
# "SVD did not converge"; NaN in the perturbation loaded, and verify then
# ended in a LinAlgError traceback
SMALL_SPEC = dict(ModelSpec(kind="RectangularBlock", p=2, q=1).to_dict())
NONFINITE_SPECS = {
    "NaN in m": (dict(SMALL_SPEC, m=[[[math.nan, 0.0], [1.0, 0.0]]]),
                 "m: matrix entry (0, 0) must be finite, got nan in its real part"),
    "NaN in m with a scale": (dict(SMALL_SPEC, m=[[[math.nan, 0.0], [1.0, 0.0]]], scale=1.0),
                              "m: matrix entry (0, 0) must be finite, got nan in its real part"),
    "infinity in m": (dict(SMALL_SPEC, m=[[[1.0, 0.0], [1.0, -math.inf]]]),
                      "m: matrix entry (0, 1) must be finite, got -inf in its imaginary part"),
    "NaN in the perturbation": (
        dict(SMALL_SPEC, perturbation={"entries": _entries_with(1, 2, 1, math.nan)}),
        "perturbation.entries: matrix entry (1, 2) must be finite, got nan in its imaginary "
        "part"),
}


@pytest.mark.parametrize("argv", [
    ["model", "validate"], ["verify", "Perturbation", "--model"], ["tau", "eval", "--model"],
    ["perturb", "sweep", "--model"], ["homotopy", "check", "--model"]])
@pytest.mark.parametrize("cause", sorted(NONFINITE_SPECS))
def test_cli_spec_entry_that_is_not_finite_is_a_usage_error(tmp_path, capsys, argv, cause):
    spec, refusal = NONFINITE_SPECS[cause]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(spec))
    with pytest.raises(SystemExit) as exc:
        main(argv + [str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "cannot load model %s: %s" % (path, refusal) in err and "Traceback" not in err


# a spec that loads but whose model cannot be built, by cause: its dict.
# Each ended in a traceback from build_model (ZeroWittenIndex,
# DimensionMismatch), outside the handler of the load errors
UNBUILDABLE_SPECS = {
    "p = q": dict(BLOCK_SPEC.to_dict(), p=2, q=2),
    "block of the wrong shape": dict(BLOCK_SPEC.to_dict(), m=[[[1.0, 0.0]]]),
    "perturbation of the wrong size": dict(
        BLOCK_SPEC.to_dict(),
        perturbation={"entries": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]}),
}


@pytest.mark.parametrize("argv", [
    ["model", "validate"], ["verify", "All", "--model"], ["tau", "eval", "--model"],
    ["perturb", "sweep", "--model"], ["homotopy", "check", "--model"]])
@pytest.mark.parametrize("cause", sorted(UNBUILDABLE_SPECS))
def test_cli_unbuildable_spec_is_a_usage_error(tmp_path, capsys, argv, cause):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(UNBUILDABLE_SPECS[cause]))
    with pytest.raises(SystemExit) as exc:
        main(argv + [str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "cannot load model " + str(path) in err and "Traceback" not in err


@pytest.mark.parametrize("p, q, cause", [("2", "2", "index zero"),
                                         ("0", "2", "must be positive")])
def test_cli_model_gen_unbuildable_spec_is_a_usage_error(tmp_path, capsys, p, q, cause):
    out = tmp_path / "gen.json"
    with pytest.raises(SystemExit) as exc:
        main(["model", "gen", "--p", p, "--q", q, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "cannot build model: " in err and cause in err and "Traceback" not in err
    assert not out.exists()


# every option that _add_common used to give all six subcommands, where
# the subcommand accepted it and then ignored it
IGNORED_OPTIONS = {
    ("model", "gen"): ("--tol=1", "--max-degree=2", "--series-order=2",
                       "--quadrature=gauss:4", "--format=csv", "--jobs=2",
                       "--timing"),
    ("model", "validate"): ("--tol=1", "--max-degree=2", "--series-order=2",
                            "--quadrature=gauss:4", "--seed=1", "--out=x",
                            "--format=csv", "--jobs=2", "--timing"),
    ("tau", "eval"): ("--tol=1", "--max-degree=2", "--series-order=2",
                      "--format=csv", "--jobs=2", "--timing"),
    ("perturb", "sweep"): ("--max-degree=2", "--series-order=2",
                           "--quadrature=gauss:4", "--jobs=2", "--timing"),
    ("homotopy", "check"): ("--max-degree=2", "--series-order=2",
                            "--quadrature=gauss:4", "--jobs=2", "--timing"),
    # options that verify took until chain.slot_derivative got one rule and
    # the Dyson rows one adaptive order, and until the checks ran serially
    ("verify", "All"): ("--quadrature=gauss:4", "--series-order=2", "--jobs=2"),
}


@pytest.mark.parametrize("command, option", [
    (command, option) for command, options in IGNORED_OPTIONS.items()
    for option in options])
def test_cli_subcommand_refuses_options_it_does_not_read(tmp_path, capsys,
                                                         command, option):
    # tau eval --format csv used to write JSON, model validate --out F to
    # write nothing to F
    model = write_spec(tmp_path)
    where = [model] if command[1] == "validate" else ["--model", model]
    if command[1] == "gen":
        where = ["--p", "3", "--q", "2"]
    with pytest.raises(SystemExit) as exc:
        main(list(command) + where + [option])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: " + option in err
    assert "Traceback" not in err


def test_cli_tau_eval_zero_tuples_evaluates_nothing(tmp_path, capsys):
    model = write_spec(tmp_path)
    rc = main(["tau", "eval", "--model", model, "--tuples", "0"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["evaluations"] == []


def test_cli_perturb_sweep_grid_two_checks_both_ends(tmp_path, capsys):
    model = write_spec(tmp_path)
    rc = main(["perturb", "sweep", "--model", model, "--grid", "2"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    rows = {r["identity_name"]: r for r in doc["reports"]}
    assert rows["witten.invariance"]["samples"] == 2
