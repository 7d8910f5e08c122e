"""Shared fixtures: a recorder of the block-exponential builder's calls."""

import pytest

import skmslab.kernels as kernels_module
import skmslab.perturbation as perturbation_module


class BuilderCalls(list):
    """One (exponentials, size) record per call of the block builder.

    A call computes block row 0 of `exponentials` generators of size x
    size, which it never forms.
    """

    @property
    def exponentials(self):
        return sum(count for count, _ in self)


@pytest.fixture
def builder_calls(monkeypatch):
    """Record every call of kernels._heat_chain_blocks while the test runs.

    Wraps the builder in kernels (chains and alternating chains) and the
    binding the perturbation module imported (the Dyson series).  A call
    refused by the chain budget is not recorded.
    """
    calls = BuilderCalls()
    build = kernels_module._heat_chain_blocks

    def recorded(spectrum, edges, what, budget=None, scale=-1.0):
        blocks = build(spectrum, edges, what, budget=budget, scale=scale)
        calls.append((blocks.shape[0], blocks.shape[1] * spectrum.dim))
        return blocks

    monkeypatch.setattr(kernels_module, "_heat_chain_blocks", recorded)
    monkeypatch.setattr(perturbation_module, "_heat_chain_blocks", recorded)
    return calls
