"""Shared fixtures: the paper's scenarios and small synthetic workloads."""

from __future__ import annotations

import pytest

from repro.core.validator import GroupedValidator
from repro.validation.tree import ValidationTree
from repro.workloads.config import WorkloadConfig
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.scenarios import (
    example1,
    example1_log,
    figure2_pool,
    figure2_usages,
)


@pytest.fixture
def scenario():
    """The paper's Example 1 (pool + two usage licenses)."""
    return example1()


@pytest.fixture
def table2_log():
    """The issuance log of Table 2."""
    return example1_log()


@pytest.fixture
def fig2_pool():
    """The 2-D numeric realization of Figure 2."""
    return figure2_pool()


@pytest.fixture
def fig2_usages():
    """Figure 2's usage licenses (one inside L_D^4, one inside nothing)."""
    return figure2_usages()


@pytest.fixture
def example1_validator(scenario):
    """A grouped validator over the Example 1 pool."""
    return GroupedValidator.from_pool(scenario.pool)


@pytest.fixture
def small_workload():
    """A small deterministic synthetic workload (N=8, 200 records)."""
    config = WorkloadConfig(n_licenses=8, seed=7, n_records=200)
    return WorkloadGenerator(config).generate()


@pytest.fixture
def medium_workload():
    """A medium synthetic workload (N=12, 600 records)."""
    config = WorkloadConfig(n_licenses=12, seed=11, n_records=600)
    return WorkloadGenerator(config).generate()


@pytest.fixture
def tree_walks(monkeypatch):
    """Record every ``ValidationTree.subset_sum`` call (one per equation
    a headroom query walks)."""
    calls = []
    original = ValidationTree.subset_sum

    def counting(tree, mask):
        calls.append(mask)
        return original(tree, mask)

    monkeypatch.setattr(ValidationTree, "subset_sum", counting)
    return calls
