"""Tests for the package's public surface."""

import collections
import os
import pathlib
import subprocess
import sys

import skmslab


def test_every_exported_name_resolves():
    missing = [name for name in skmslab.__all__ if not hasattr(skmslab, name)]
    assert missing == []


def test_exported_names_are_unique():
    counts = collections.Counter(skmslab.__all__)
    assert [name for name, n in counts.items() if n > 1] == []


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
