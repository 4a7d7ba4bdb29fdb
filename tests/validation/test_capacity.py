"""Unit tests for headroom (remaining-capacity) queries."""

import pytest

from repro.errors import ValidationError
from repro.validation.capacity import headroom, superset_count
from repro.validation.flow import FlowFeasibilityOracle
from repro.validation.tree import ValidationTree
from repro.workloads.scenarios import example1_log

EXAMPLE1_AGGREGATES = [2000, 1000, 3000, 4000, 2000]


@pytest.fixture
def table2_tree():
    return ValidationTree.from_log(example1_log())


class TestHeadroom:
    def test_empty_tree_full_capacity(self):
        tree = ValidationTree()
        assert headroom(tree, [100], 0b1) == 100

    def test_singleton_after_issuance(self):
        tree = ValidationTree()
        tree.insert_set((1,), 30)
        assert headroom(tree, [100], 0b1) == 70

    def test_flexible_set_aggregates_capacity(self):
        # A {1,2} issuance is only bound by the union equation.
        tree = ValidationTree()
        assert headroom(tree, [100, 50], 0b11) == 150

    def test_binding_superset(self):
        # {2} issuance is bound by A_2 alone at first...
        tree = ValidationTree()
        assert headroom(tree, [100, 50], 0b10) == 50
        # ...but once {1,2} records exist, the union equation can bind:
        tree.insert_set((1, 2), 120)
        # C<{2}> = 0, A_2 = 50 -> slack 50; C<{1,2}> = 120, A = 150 -> 30.
        assert headroom(tree, [100, 50], 0b10) == 30

    def test_floors_at_zero_when_overissued(self):
        tree = ValidationTree()
        tree.insert_set((1,), 120)
        assert headroom(tree, [100], 0b1) == 0

    def test_example1_lu2_scenario(self, table2_tree):
        # After Table 2, how much more can a {2}-only license carry?
        # C<{2}> = 400, A_2 = 1000 -> 600; C<{1,2}> = 1240, A = 3000 -> 1760;
        # supersets via 3,4,5 looser. Answer: 600.
        assert headroom(table2_tree, EXAMPLE1_AGGREGATES, 0b00010) == 600

    def test_universe_restriction_equivalent(self, table2_tree):
        # Restricting to the group universe (Theorem 2) gives the same
        # answer as the full enumeration.
        full = headroom(table2_tree, EXAMPLE1_AGGREGATES, 0b00010)
        grouped = headroom(
            table2_tree, EXAMPLE1_AGGREGATES, 0b00010, universe_mask=0b01011
        )
        assert full == grouped

    def test_cost_follows_universe_not_array(self):
        # Only the supersets inside the universe are paid for, so a
        # 64-license array with a 3-license universe answers at once
        # (a 2^64-entry RHS table cannot even be allocated).
        tree = ValidationTree()
        assert headroom(tree, [10] * 64, 0b1, universe_mask=0b111) == 10
        tree.insert_set((1, 2), 15)
        assert headroom(tree, [10] * 64, 0b1, universe_mask=0b111) == 5

    def test_agrees_with_flow_oracle(self, table2_tree):
        counts = example1_log().counts_by_mask()
        oracle = FlowFeasibilityOracle(EXAMPLE1_AGGREGATES)
        for target in (0b00010, 0b00011, 0b01011, 0b10000, 0b10100):
            assert headroom(
                table2_tree, EXAMPLE1_AGGREGATES, target
            ) == oracle.remaining_capacity(counts, target)


class TestValidationErrors:
    def test_zero_target_rejected(self):
        with pytest.raises(ValidationError):
            headroom(ValidationTree(), [10], 0)

    def test_target_outside_universe_rejected(self):
        with pytest.raises(ValidationError):
            headroom(ValidationTree(), [10, 10], 0b01, universe_mask=0b10)

    def test_target_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            headroom(ValidationTree(), [10], 0b10)


class TestSupersetCount:
    def test_counts(self):
        assert superset_count(0b001, 0b111) == 4
        assert superset_count(0b111, 0b111) == 1
        assert superset_count(0b001, 0b001) == 1
