"""Tests for the package's public surface."""

import collections
import inspect
import os
import pathlib
import subprocess
import sys

import skmslab
from skmslab import cochain, dynamics, kernels, perturbation, report
from skmslab.report import make_report
from skmslab.workbench import ModelSpec
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
