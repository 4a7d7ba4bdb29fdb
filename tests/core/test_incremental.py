"""Unit tests for the incremental (dirty-group) validator."""

import pytest

from repro.errors import GroupingError, ValidationError
from repro.core import incremental as incremental_module
from repro.core.grouping import GroupStructure
from repro.core.incremental import GroupSlice, IncrementalValidator
from repro.core.validator import GroupedValidator
from repro.validation.capacity import headroom as tree_headroom
from repro.validation.tree import ValidationTree
from repro.workloads.config import WorkloadConfig
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.scenarios import example1, example1_log


@pytest.fixture
def incremental():
    return IncrementalValidator.from_pool(example1().pool)


class TestBasics:
    def test_structure_matches_batch(self, incremental):
        assert incremental.structure.groups == (
            frozenset({1, 2, 4}),
            frozenset({3, 5}),
        )

    def test_empty_is_valid(self, incremental):
        report = incremental.validate()
        assert report.is_valid
        # First call evaluates every group once: 7 + 3 equations.
        assert report.equations_checked == 10

    def test_replay_matches_batch_validator(self, incremental):
        log = example1_log()
        incremental.replay(log)
        incremental_report = incremental.validate()
        batch = GroupedValidator.from_pool(example1().pool).validate(log)
        assert incremental_report.is_valid == batch.is_valid
        assert set(incremental_report.violations) == set(batch.violations)

    def test_records_inserted_counter(self, incremental):
        incremental.replay(example1_log())
        assert incremental.records_inserted == 6


class TestDirtyTracking:
    def test_clean_validate_is_free(self, incremental):
        incremental.replay(example1_log())
        incremental.validate()
        again = incremental.validate()
        assert again.equations_checked == 0
        assert again.is_valid

    def test_only_touched_group_revalidated(self, incremental):
        incremental.replay(example1_log())
        incremental.validate()
        # Group 2 = {3, 5} has 2 licenses -> 3 equations.
        group_id = incremental.record({3, 5}, 10)
        assert group_id == 1
        assert incremental.dirty_groups == (1,)
        report = incremental.validate()
        assert report.equations_checked == 3

    def test_group1_touch_costs_seven(self, incremental):
        incremental.validate()
        incremental.record({1, 2}, 5)
        assert incremental.dirty_groups == (0,)
        assert incremental.validate().equations_checked == 7

    def test_cached_violations_survive(self, incremental):
        incremental.record({5}, 99999)  # violate group 2
        first = incremental.validate()
        assert not first.is_valid
        # Touch group 1 only; group 2's violation must still be reported.
        incremental.record({1}, 1)
        second = incremental.validate()
        assert not second.is_valid
        assert frozenset({5}) in second.violated_sets
        assert second.equations_checked == 7  # only group 1 re-checked


class TestErrors:
    def test_cross_group_record_rejected(self, incremental):
        with pytest.raises(GroupingError):
            incremental.record({1, 3}, 5)

    def test_localize_reports_every_foreign_index(self, incremental):
        """The error names ALL out-of-group indexes, not just the first
        one the lookup tripped over (message pinned)."""
        gslice = incremental.slices()[0]  # group 1 = {1, 2, 4}
        with pytest.raises(GroupingError) as excinfo:
            gslice.localize([5, 1, 3, 2])
        assert str(excinfo.value) == (
            "licenses [3, 5] are not in group 1 ([1, 2, 4])"
        )

    def test_empty_set_rejected(self, incremental):
        with pytest.raises(ValidationError):
            incremental.record(set(), 5)

    def test_mismatched_construction(self):
        pool = example1().pool
        with pytest.raises(ValidationError):
            IncrementalValidator(pool.boxes(), [1, 2])
        with pytest.raises(ValidationError):
            IncrementalValidator([], [])


class TestHeadroomMemo:
    """The tree path answers a match set once between inserts."""

    STRUCTURE = GroupStructure((frozenset({1, 2, 4}), frozenset({3, 5})), 5)
    AGGREGATES = [100, 50, 60, 50, 25]

    def make_slice(self):
        return GroupSlice(self.STRUCTURE, self.AGGREGATES, 0)

    def test_repeated_query_walks_no_tree(self, tree_walks):
        gslice = self.make_slice()
        assert gslice.headroom([1, 2]) == 150
        assert len(tree_walks) == 2  # {1, 2} and {1, 2, 4}
        tree_walks.clear()
        assert gslice.headroom([2, 1]) == 150
        assert gslice.headroom_batch([[1, 2], (2, 1)]) == [150, 150]
        assert tree_walks == []

    def test_insert_invalidates(self, tree_walks):
        gslice = self.make_slice()
        assert gslice.headroom([1, 2]) == 150
        gslice.insert([1, 2], 140)
        tree_walks.clear()
        assert gslice.headroom([1, 2]) == 10
        assert len(tree_walks) == 2

    def test_memo_is_bounded_and_exact(self, tree_walks, monkeypatch):
        monkeypatch.setattr(incremental_module, "HEADROOM_MEMO_LIMIT", 3)
        structure = GroupStructure((frozenset({1, 2, 3, 4}),), 4)
        aggregates = [40, 25, 60, 10]
        gslice = GroupSlice(structure, aggregates, 0)
        tree = ValidationTree()
        for members, count in (((1, 2), 30), ((3,), 45), ((2, 4), 20)):
            gslice.insert(members, count)
            tree.insert_set(members, count)
        sets = {
            mask: [index for index in range(1, 5) if mask >> (index - 1) & 1]
            for mask in range(1, 16)
        }
        for _round in range(2):
            for mask, members in sets.items():
                expected = tree_headroom(tree, aggregates, mask)
                assert gslice.headroom(members) == expected
                assert len(gslice._memo) <= 3
        assert len(gslice._memo) == 3
        # Oldest entries go first: the last set is still answered from
        # the memo, the first one walks the tree again.
        tree_walks.clear()
        gslice.headroom(sets[15])
        assert tree_walks == []
        gslice.headroom(sets[1])
        assert tree_walks

    def test_dense_path_keeps_no_memo(self):
        gslice = GroupSlice(self.STRUCTURE, self.AGGREGATES, 0, kernel="dense")
        assert gslice.headroom([1, 2]) == 150
        assert gslice.headroom_batch([[1, 2]]) == [150]
        assert gslice._memo == {}


class TestKernelSeam:
    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValidationError):
            IncrementalValidator.from_pool(example1().pool, kernel="gpu")

    def test_dense_slices_report_engine(self):
        validator = IncrementalValidator.from_pool(
            example1().pool, kernel="dense"
        )
        assert all(
            gslice.kernel_name == "dense" and not gslice.kernel_fallback
            for gslice in validator.slices()
        )

    def test_cap_zero_falls_back_to_tree(self):
        validator = IncrementalValidator.from_pool(
            example1().pool, kernel="dense", kernel_cap=0
        )
        assert all(
            gslice.kernel_name == "tree" and gslice.kernel_fallback
            for gslice in validator.slices()
        )
        # The downgraded validator still validates normally.
        validator.replay(example1_log())
        assert validator.validate().is_valid

    def test_version_counter_tracks_inserts(self):
        validator = IncrementalValidator.from_pool(
            example1().pool, kernel="dense"
        )
        gslice = validator.slices()[0]
        assert gslice.version == 0
        gslice.insert([1, 2], 3)
        gslice.insert([4], 1)
        assert gslice.version == 2

    def test_dense_revalidate_spans_report_kernel_work(self):
        from repro.obs.instrument import TracingInstrumentation
        from repro.obs.trace import Tracer

        validator = IncrementalValidator.from_pool(
            example1().pool, kernel="dense"
        )
        validator.record({1, 2}, 5)
        tracer = Tracer()
        instrumentation = TracingInstrumentation(tracer)
        validator.validate(instrumentation)
        spans = [r for r in tracer.records() if r.name == "revalidate"]
        assert len(spans) == 2  # both groups ran their first validation
        touched = spans[0] if spans[0].attrs["group_id"] == 0 else spans[1]
        assert touched.attrs["kernel"] == "dense"
        # {1, 2} in group {1, 2, 4}: cone 2^(3-2) = 2 masks rewritten.
        assert touched.attrs["masks_touched"] == 2
        assert instrumentation.counters()["kernel_masks_touched"] == 2
        # A clean second pass is a cache hit and resets nothing new.
        validator.validate(instrumentation)
        assert instrumentation.counters()["revalidation_cache_hits"] == 2

    def test_dense_matches_tree_on_workloads(self):
        workload = WorkloadGenerator(
            WorkloadConfig(
                n_licenses=12, seed=5, n_records=150,
                aggregate_range=(200, 900),
            )
        ).generate()
        dense = IncrementalValidator.from_pool(workload.pool, kernel="dense")
        tree = IncrementalValidator.from_pool(workload.pool, kernel="tree")
        dense.replay(workload.log)
        tree.replay(workload.log)
        dense_report = dense.validate()
        tree_report = tree.validate()
        assert dense_report.is_valid == tree_report.is_valid
        assert set(dense_report.violations) == set(tree_report.violations)


class TestAgainstBatchOnWorkloads:
    @pytest.mark.parametrize("seed", range(4))
    def test_streamed_equals_batch(self, seed):
        workload = WorkloadGenerator(
            WorkloadConfig(
                n_licenses=10,
                seed=seed,
                n_records=200,
                aggregate_range=(500, 2000),
            )
        ).generate()
        incremental = IncrementalValidator.from_pool(workload.pool)
        batch = GroupedValidator.from_pool(workload.pool)
        for record in workload.log:
            incremental.append(record)
        assert set(incremental.validate().violations) == set(
            batch.validate(workload.log).violations
        )

    def test_interleaved_validate_consistent(self):
        workload = WorkloadGenerator(
            WorkloadConfig(n_licenses=8, seed=9, n_records=120)
        ).generate()
        incremental = IncrementalValidator.from_pool(workload.pool)
        batch = GroupedValidator.from_pool(workload.pool)
        from repro.logstore.log import ValidationLog

        replayed = ValidationLog()
        for position, record in enumerate(workload.log):
            incremental.append(record)
            replayed.append(record)
            if position % 30 == 0:
                assert (
                    incremental.validate().is_valid
                    == batch.validate(replayed).is_valid
                )
