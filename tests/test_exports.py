"""Tests for the package's public surface."""

import argparse
import collections
import dataclasses
import inspect
import os
import pathlib
import subprocess
import sys

import pytest

import skmslab
from skmslab import cochain, dynamics, kernels, perturbation, report
from skmslab.report import make_report
from skmslab.workbench import ModelSpec, SuiteConfig
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
