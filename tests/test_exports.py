"""Tests for the package's public surface."""

import collections
import inspect
import os
import pathlib
import subprocess
import sys

import skmslab
from skmslab import cochain, dynamics, kernels, perturbation
from skmslab.report import make_report


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
