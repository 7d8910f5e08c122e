"""The benchmark's calls into skmslab, run once each in tier 1.

perfbench/workloads.py calls the package the way the benchmark times it:
`run_suite` with a JSON report, `boundary(jlo_cochain(...))` on one
tuple, the one-tuple `kernels.chain_integral` beside the Monte-Carlo
integrand, and the two transgression checks.  Each workload here draws
its inputs at seed 7, runs its op on the first input and checks the
result, and every gate the check returns must hold, so a change that
breaks one of those calls fails here before the benchmark runs.  The
Monte-Carlo workload also runs its inputs 0-2, one per integrand route.
The file is read, not imported, so nothing is written under perfbench/.
Each gate list is deterministic: the Monte-Carlo workload gates only its
spot comparison at fixed points, not its 3-sigma statistic.  The chain
workload's inputs also bound the term sizes its block builder reads.
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


def test_monte_carlo_workload_checks_every_integrand_route():
    # mc_oracle's inputs 0-2 are degrees 1, 2 and 3: the ring route with
    # one and two heat factors and the state route, each held to the
    # workload's own spot gate
    workload = WORKLOADS["mc_oracle"]
    inputs = workload.setup(7)[:3]
    assert [inp[3] for inp in inputs] == [1, 2, 3]
    for inp in inputs:
        check = workload.check(inp, workload.run_op(inp))
        assert check.gates
        assert [(res, tol) for res, tol in check.gates if not res <= tol] == []


def test_cocycle_builder_calls_read_every_block_size_on_few_terms(monkeypatch):
    # each block-exponential call of the cocycle_d10 inputs forms every
    # block's max|term| or max|sum| at most 10 times: a chain there needs
    # about 17 Taylor terms whatever its 3-7 blocks, and no slice can stop
    # before the floor block 0 sets (20-22 reads per call when every term
    # from the block count on was read)
    from skmslab import kernels

    reads, sizes, build = [], kernels._block_sizes, kernels._heat_chain_blocks

    def counted_sizes(blocks):
        reads[-1] += 1
        return sizes(blocks)

    def counted_build(*args, **kwargs):
        reads.append(0)
        return build(*args, **kwargs)

    monkeypatch.setattr(kernels, "_block_sizes", counted_sizes)
    monkeypatch.setattr(kernels, "_heat_chain_blocks", counted_build)
    workload = WORKLOADS["cocycle_d10"]
    for inp in workload.setup(7):
        workload.run_op(inp)
    assert len(reads) == 20 and 3 <= min(reads) and max(reads) <= 10, reads
