"""Shared fixtures: small-grid stacks that keep PDN solves fast."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config.stackups import PadAllocation, ProcessorSpec, StackConfig, few_tsv
from repro.pdn.regular3d import RegularPDN3D
from repro.pdn.stacked3d import StackedPDN3D

#: Grid resolution used throughout the test suite (speed over detail).
TEST_GRID = 8


def factor_entries(spec) -> int:
    """Factor entries of one spec's pristine, default-backend factorisation."""
    assembled = spec.build().assembled()
    assembled.factorize()
    return assembled.factorization.factor_entries


@pytest.fixture(scope="session")
def processor() -> ProcessorSpec:
    return ProcessorSpec()


@pytest.fixture(scope="session")
def small_stack(processor) -> StackConfig:
    """A 2-layer few-TSV stack at the test grid resolution."""
    return StackConfig(
        n_layers=2,
        processor=processor,
        tsv_topology=few_tsv(),
        pads=PadAllocation(power_fraction=0.25),
        grid_nodes=TEST_GRID,
    )


@pytest.fixture(scope="session")
def stack_4l(processor) -> StackConfig:
    """A 4-layer few-TSV stack at the test grid resolution."""
    return StackConfig(
        n_layers=4,
        processor=processor,
        tsv_topology=few_tsv(),
        pads=PadAllocation(power_fraction=0.25),
        grid_nodes=TEST_GRID,
    )


@pytest.fixture(scope="session")
def regular_pdn(small_stack) -> RegularPDN3D:
    return RegularPDN3D(small_stack)


@pytest.fixture(scope="session")
def stacked_pdn(small_stack) -> StackedPDN3D:
    return StackedPDN3D(small_stack, converters_per_core=4)


@pytest.fixture(scope="session")
def regular_result(regular_pdn):
    return regular_pdn.solve()


@pytest.fixture(scope="session")
def stacked_result(stacked_pdn):
    return stacked_pdn.solve()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
