"""Tests for the package's public surface."""

import argparse
import collections
import dataclasses
import inspect
import os
import pathlib
import re
import subprocess
import sys

import pytest

import skmslab
from skmslab import cochain, dynamics, graded, kernels, perturbation, report
from skmslab.report import make_report
from skmslab.workbench import ModelSpec, SuiteConfig, suites
from skmslab.workbench.cli import build_parser
from skmslab.workbench.models import build_perturbed_model


def test_every_exported_name_resolves():
    missing = [name for name in skmslab.__all__ if not hasattr(skmslab, name)]
    assert missing == []


def test_exported_names_are_unique():
    counts = collections.Counter(skmslab.__all__)
    assert [name for name, n in counts.items() if n > 1] == []


def _parameters(obj):
    try:
        return inspect.signature(obj).parameters
    except (TypeError, ValueError):
        return {}


def test_library_rows_are_stamped_by_the_workbench_alone():
    # a check returns unstamped rows: only the workbench knows the model
    # digest, and make_report takes no seed, digest or wall time
    stamping = ["%s.%s" % (module.__name__, name)
                for module in (cochain, dynamics, kernels, perturbation)
                for name, obj in vars(module).items()
                if callable(obj) and not name.startswith("_")
                and "model_digest" in _parameters(obj)]
    assert stamping == []
    assert len(_parameters(make_report)) == 5


def test_checks_return_measurements_and_take_no_tolerance():
    # the workbench alone turns measurements into rows with a tolerance and
    # a verdict; homotopy_check and endpoint_transgression_check still
    # gate their own rows
    sys_, pert = build_perturbed_model(
        ModelSpec(kind="RectangularBlock", p=2, q=1, seed=1, scale=1.0), 0)
    ctx = perturbation.PerturbedContext(sys_, pert, 0.5)
    calls = {
        dynamics.verify_skms_axioms: ((sys_,), dict(samples=3)),
        cochain.lemma34_check: ((sys_,), dict(samples=2)),
        cochain.entireness_diagnostic: ((sys_,), dict(samples=2)),
        perturbation.lemma43_check: ((ctx,), dict(samples=3)),
        perturbation.lemma44_check: ((sys_,), dict(samples=3)),
        perturbation.skms_check_perturbed: ((ctx,), dict(samples=3)),
        perturbation.f_identities_check: ((ctx,), dict(n=2, samples=2)),
        perturbation.witten_invariance_check: ((sys_, pert), dict(grid=3)),
        perturbation.lipschitz_check: ((sys_, pert), dict(samples=3)),
    }
    assert [check.__name__ for check in calls if "tol" in _parameters(check)] == []
    for check, (args, kwargs) in calls.items():
        measured = check(*args, **kwargs)
        assert measured, check.__name__
        assert all(type(m) is report.Measurement for m in measured), check.__name__


_SCIPY_SCRIPT = """
import sys
import skmslab
import skmslab.workbench.cli
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_the_package_and_its_cli_load_no_scipy():
    # the package needs numpy alone, scipy is a test oracle; an import of it
    # also moves the benchmark's probe-scaled timings by about 4%, which
    # would read as a speed change of the code.  A fresh interpreter,
    # since the test session has scipy loaded
    src = str(pathlib.Path(skmslab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _SCIPY_SCRIPT],
                         env=dict(os.environ, PYTHONPATH=path), check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "[]"


def test_suite_knobs_are_pinned():
    # a new SuiteConfig or SimplexQuadratureRule field or verify option
    # edits this test and the README's table of options in the same change
    assert [f.name for f in dataclasses.fields(SuiteConfig)] == [
        "tol_exact", "max_degree", "seed", "jobs", "timing"]
    assert [f.name for f in dataclasses.fields(kernels.SimplexQuadratureRule)] == [
        "kind", "order_or_samples", "seed", "vectorized"]
    # jobs and vectorized take the one value perfbench/workloads.py passes
    with pytest.raises(ValueError, match="^jobs must be 1, the value perfbench/workloads.py"):
        SuiteConfig(jobs=2)
    with pytest.raises(ValueError,
                       match="^vectorized must be True, the value perfbench/workloads.py"):
        kernels.SimplexQuadratureRule("mc", 10, vectorized=False)
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = [o for a in sub.choices["verify"]._actions for o in a.option_strings
               if o not in ("-h", "--help", "--model")]
    assert options == ["--tol", "--max-degree", "--seed", "--out", "--format",
                       "--timing"]
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    row = next(line for line in readme.read_text().splitlines()
               if line.startswith("| `verify` |"))
    assert row.split("|")[2].strip() == ", ".join("`%s`" % o for o in options)


def test_the_integrand_route_is_a_function_of_the_degree_alone():
    # heat_chain_integrand picks its route, ring or state, from n: a route
    # option, keyword or setting would edit this test
    assert list(_parameters(kernels.heat_chain_integrand)) == ["spectrum", "xs", "grading"]


def test_every_constant_the_readme_validators_paragraph_names_resolves():
    # the paragraph names its tolerances as `module.NAME`; a constant that
    # is gone, as SUPERCHARGE_TOL went into graded.GRADING_TOL, fails here
    # rather than stay documented
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = readme.index("The tolerances of the validators are module constants")
    paragraph = readme[start:readme.index("\n\n", start)]
    names = re.findall(r"`(\w+)\.([A-Z][A-Z0-9_]*)`", paragraph)
    modules = {m.__name__.rsplit(".", 1)[1]: m
               for m in (cochain, dynamics, graded, kernels, perturbation, suites)}
    assert ("graded", "GRADING_TOL") in names and len(names) >= 6
    assert [n for n in names if not hasattr(modules.get(n[0]), n[1])] == []


def test_each_matrix_primitive_has_one_owner():
    # the 2-norm is graded.spectral_norms, the one eigvalsh of the package
    # (the top Gram eigenvalue; the package takes no SVD), and the Frobenius
    # norm graded.frobenius_norms: no other module may take a numpy norm or
    # eigvalsh of its own
    src = pathlib.Path(skmslab.__file__).resolve().parent
    spelled = collections.defaultdict(list)
    for path in sorted(src.rglob("*.py")):
        for call in re.findall(r"linalg\.(?:norm|svd|eigvalsh)\b|from numpy\.linalg import",
                               path.read_text()):
            spelled[call].append(path.relative_to(src).as_posix())
    assert [(call, f) for call, files in spelled.items() for f in files
            if f != "graded.py"] == []
    assert spelled["linalg.svd"] == []
    assert set(spelled["linalg.eigvalsh"]) == {"graded.py"}
    # the gamma^r oracles conjugate in two eigenbases, with no dense
    # exponential and no binding of heisenberg_flow
    assert "from_diagonal" not in pathlib.Path(perturbation.__file__).read_text()


def test_the_gamma_r_oracles_read_no_flow_binding(monkeypatch):
    sys_, pert = build_perturbed_model(
        ModelSpec(kind="RectangularBlock", p=2, q=1, seed=1, scale=1.0), 0)
    ctx = perturbation.PerturbedContext(sys_, pert, 0.5)
    want = perturbation.gamma_flow_oracle(ctx, sys_.unit(), 0.3)

    def refused(*args, **kwargs):
        raise AssertionError("an oracle read a flow binding")
    for module in (dynamics, perturbation, suites):
        monkeypatch.setattr(module, "heisenberg_flow", refused)
    monkeypatch.setattr(kernels.Spectrum, "from_diagonal", refused)
    assert (perturbation.gamma_cocycle_oracle(ctx, 0.3) == want).all()
