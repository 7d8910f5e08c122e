"""Shared fixtures: a recorder of the block-exponential builder's calls."""

import pytest

import skmslab.kernels as kernels_module
import skmslab.perturbation as perturbation_module


class BuilderCalls(list):
    """One (exponentials, size) record per call of the block builder.

    A call hands `exponentials` generators of size x size to
    scipy.linalg.expm, in as many slices as the byte cap asks for.
    """

    @property
    def exponentials(self):
        return sum(count for count, _ in self)


@pytest.fixture
def builder_calls(monkeypatch):
    """Record every call of kernels._heat_chain_blocks while the test runs.

    Wraps the builder in kernels (chains and alternating chains) and the
    binding the perturbation module imported (the Dyson series).
    """
    calls = BuilderCalls()
    build = kernels_module._heat_chain_blocks

    def recorded(spectrum, edges, what, budget=None, scale=-1.0):
        size = (1 + max(col for _, col, _ in edges)) * spectrum.dim
        calls.append((len(edges[0][2]), size))
        return build(spectrum, edges, what, budget=budget, scale=scale)

    monkeypatch.setattr(kernels_module, "_heat_chain_blocks", recorded)
    monkeypatch.setattr(perturbation_module, "_heat_chain_blocks", recorded)
    return calls
