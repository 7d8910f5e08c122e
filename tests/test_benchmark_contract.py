"""The benchmark's calls into skmslab, run once each in tier 1.

perfbench/workloads.py calls the package the way the benchmark times it:
`run_suite` with a JSON report, `boundary(jlo_cochain(...))` on one
tuple, the one-tuple `kernels.chain_integral` beside the Monte-Carlo
integrand, and the two transgression checks.  Each workload here draws
its inputs at seed 7, runs its op on the first input and checks the
result, and every gate the check returns must hold, so a change that
breaks one of those calls fails here before the benchmark runs.  The
file is read, not imported, so nothing is written under perfbench/.
Each gate list is deterministic: the Monte-Carlo workload gates only its
spot comparison at fixed points, not its 3-sigma statistic.
"""

import types
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _workloads():
    module = types.ModuleType("benchmark_workloads")
    module.__file__ = str(WORKLOADS_PY)
    exec(compile(WORKLOADS_PY.read_text(), str(WORKLOADS_PY), "exec"), module.__dict__)
    return module.WORKLOADS


WORKLOADS = _workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_and_checks_its_first_input(name):
    workload = WORKLOADS[name]
    first = workload.setup(7)[0]
    check = workload.check(first, workload.run_op(first))
    assert check.gates
    assert [(res, tol) for res, tol in check.gates if not res <= tol] == []
