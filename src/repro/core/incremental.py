"""Incremental offline validation with per-group dirty tracking.

An extension built on Theorem 2: because validation decomposes over the
disconnected groups, a new log record only perturbs the equations of *its
own group*.  A validation authority that revalidates periodically can
therefore keep one remapped tree per group, insert records incrementally,
and on each validation pass re-run Algorithm 2 only for the groups that
received records since the previous pass -- ``Σ_{dirty k} (2^{N_k} - 1)``
equations instead of even the grouped total.

The cached verdicts of clean groups stay valid because their trees and
aggregates are untouched.  Results always equal a from-scratch
:class:`repro.core.validator.GroupedValidator` run (tested).

:class:`GroupSlice` is the reusable unit of this design: one group's
remapped tree, validator, and dirty flag behind insert / headroom /
revalidate operations.  :class:`IncrementalValidator` composes one slice
per group; the serving layer (:mod:`repro.service`) hands each shard the
slices of its assigned groups so independent groups validate concurrently
without sharing any mutable state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import GroupingError, ValidationError
from repro.core.grouping import GroupStructure, form_groups
from repro.core.kernel import (
    KERNEL_DENSE,
    KERNEL_NAMES,
    KERNEL_TREE,
    DenseHeadroomKernel,
)
from repro.core.overlap import OverlapGraph
from repro.core.remap import globalize_mask, position_array, remapped_aggregates
from repro.geometry.box import Box
from repro.licenses.pool import LicensePool
from repro.logstore.log import ValidationLog
from repro.logstore.record import LogRecord
from repro.validation.capacity import headroom as _headroom
from repro.validation.limits import DEFAULT_KERNEL_CAP
from repro.validation.report import ValidationReport, Violation, make_report
from repro.validation.tree import ValidationTree
from repro.validation.tree_validator import TreeValidator

if TYPE_CHECKING:  # pragma: no cover - import for annotations only
    from repro.obs.instrument import Instrumentation

__all__ = ["GroupSlice", "IncrementalValidator", "active_kernel"]

#: Most headroom answers one tree-path slice memoizes between inserts.
#: Without a bound, varied rejected traffic on a large group would add
#: one entry per distinct set, up to ``2^{N_k} - 1``.
HEADROOM_MEMO_LIMIT = 4096


def active_kernel(kernel: str, size: int, kernel_cap: int) -> str:
    """Return the engine a group of ``size`` licenses runs when ``kernel``
    is requested: dense iff ``kernel == "dense"`` and ``size <=
    kernel_cap``, else the tree walk.  Unknown names raise
    :class:`~repro.errors.ValidationError`."""
    if kernel not in KERNEL_NAMES:
        raise ValidationError(
            f"unknown kernel {kernel!r}; choose from {', '.join(KERNEL_NAMES)}"
        )
    if kernel == KERNEL_DENSE and size <= kernel_cap:
        return KERNEL_DENSE
    return KERNEL_TREE


class GroupSlice:
    """One group's equation state: remapped tree + validator + dirty flag.

    All public methods speak *global* license indexes; the slice owns the
    global->local remapping (Algorithm 5) internally.  A slice never
    touches state outside its group, so distinct slices can be mutated
    from different threads or processes without synchronization
    (Theorem 2: their equation systems are disjoint).

    ``kernel`` selects the equation-state engine behind the slice:

    * ``"tree"`` (default) -- the validation tree of [10] with
      enumerated headroom queries and Algorithm 2 revalidation;
    * ``"dense"`` -- the resident-table
      :class:`repro.core.kernel.DenseHeadroomKernel` (O(1) admission
      lookups, delta revalidation), *when* ``N_k <= kernel_cap``.
      Larger groups fall back to the tree walk -- dense tables cost
      ``3 * 8 * 2^{N_k}`` bytes -- and :attr:`kernel_fallback` reports
      the downgrade so the serving layer can count it.

    Verdicts, headroom values, and violation masks are identical for
    both engines (property-tested); only the cost model differs.

    The tree path memoizes headroom per local mask: between two inserts
    a repeated match set costs one dict lookup instead of
    ``2^{N_k - |S|}`` tree walks.  Every :meth:`insert` (and so every
    journal preload) clears the memo, and it holds at most
    :data:`HEADROOM_MEMO_LIMIT` entries, dropping the oldest when full.
    The dense path never uses it.

    Examples
    --------
    >>> from repro.core.grouping import GroupStructure
    >>> s = GroupStructure((frozenset({1, 2, 4}), frozenset({3, 5})), 5)
    >>> gslice = GroupSlice(s, [100, 50, 60, 50, 25], 0)
    >>> gslice.headroom([1, 2])
    150
    >>> gslice.insert([1, 2], 140)
    >>> gslice.headroom([1, 2])
    10
    >>> report, checked = gslice.revalidate()
    >>> report.is_valid, checked
    (True, 7)
    >>> gslice.revalidate()[1]      # clean slice: cached verdict, no work
    0
    """

    def __init__(
        self,
        structure: GroupStructure,
        aggregates: Sequence[int],
        group_id: int,
        kernel: str = KERNEL_TREE,
        kernel_cap: int = DEFAULT_KERNEL_CAP,
    ):
        self.group_id = group_id
        self._structure = structure
        self._position: Dict[int, int] = position_array(structure, group_id)
        self._local_aggregates = remapped_aggregates(aggregates, structure, group_id)
        self._universe = (1 << len(self._local_aggregates)) - 1
        self._requested_kernel = kernel
        self._kernel: Optional[DenseHeadroomKernel] = None
        self._validator: Optional[TreeValidator] = None
        self._tree: Optional[ValidationTree] = None
        self._memo: Dict[int, int] = {}
        if active_kernel(kernel, self.size, kernel_cap) == KERNEL_DENSE:
            self._kernel = DenseHeadroomKernel(
                self._local_aggregates, max_n=kernel_cap
            )
        else:
            self._validator = TreeValidator(self._local_aggregates)
            self._tree = ValidationTree()
        self._dirty = False
        self._cached: Optional[ValidationReport] = None
        self._records = 0
        self._version = 0
        self._touched_since_reval = 0

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Return ``N_k``, the number of licenses in this group."""
        return len(self._local_aggregates)

    @property
    def dirty(self) -> bool:
        """Return whether inserts arrived since the last revalidation."""
        return self._dirty

    @property
    def records_inserted(self) -> int:
        """Return how many records this slice has absorbed."""
        return self._records

    @property
    def kernel_name(self) -> str:
        """Return the *active* engine: ``"dense"`` or ``"tree"``."""
        return KERNEL_DENSE if self._kernel is not None else KERNEL_TREE

    @property
    def kernel_fallback(self) -> bool:
        """Return whether the dense kernel was requested but the group
        exceeded the cap, downgrading this slice to the tree walk."""
        return (
            self._requested_kernel == KERNEL_DENSE and self._kernel is None
        )

    @property
    def version(self) -> int:
        """Return the mutation counter (bumped by every insert).

        Lets batch admission reuse a vectorized headroom prefetch for as
        long as the slice is untouched, re-querying only after an
        interleaved insert -- verdicts stay byte-identical to strictly
        sequential processing.
        """
        return self._version

    @property
    def masks_touched(self) -> int:
        """Return dense-table masks rewritten since the last
        revalidation (0 on the tree path) -- the per-update work the
        revalidate span attributes report."""
        return self._touched_since_reval

    def localize(self, members: Iterable[int]) -> Tuple[int, ...]:
        """Translate global license indexes to this group's local indexes.

        Raises
        ------
        GroupingError
            If any index lies outside the group (a cross-group set, which
            instance matching can never produce -- Corollary 1.1).  The
            message lists *every* out-of-group index, not just the first
            one the lookup tripped over.
        """
        try:
            return tuple(sorted(self._position[index] for index in members))
        except KeyError:
            missing = sorted(
                {index for index in members if index not in self._position}
            )
            raise GroupingError(
                f"licenses {missing} are not in group {self.group_id + 1} "
                f"({sorted(self._structure.groups[self.group_id])})"
            ) from None

    def _local_mask(self, local: Sequence[int]) -> int:
        """Return the local bitmask of already-localized indexes."""
        mask = 0
        for index in local:
            mask |= 1 << (index - 1)
        return mask

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def insert(self, members: Iterable[int], count: int) -> None:
        """Insert one record (global indexes); marks the slice dirty."""
        local = self.localize(members)
        if self._kernel is not None:
            if not local:
                raise ValidationError("cannot insert an empty license set")
            touched = self._kernel.insert(self._local_mask(local), count)
            self._touched_since_reval += touched
        else:
            assert self._tree is not None
            self._tree.insert_set(local, count)
            self._memo.clear()
        self._dirty = True
        self._cached = None
        self._records += 1
        self._version += 1

    def headroom(self, members: Iterable[int]) -> int:
        """Return the largest count issuable against ``members`` now.

        On the dense kernel this is a single ``H``-table lookup (O(1));
        on the tree path the superset enumeration runs over this group's
        local universe -- ``O(2^(N_k - |S|))`` equations, the
        group-restricted query of Theorem 2 -- once per set between
        inserts: the answer is memoized per local mask until the next
        :meth:`insert`, keeping at most :data:`HEADROOM_MEMO_LIMIT`
        entries (oldest dropped first).  Both return the same value.
        """
        local = self.localize(members)
        mask = self._local_mask(local)
        if self._kernel is not None:
            return self._kernel.headroom(mask)
        memo = self._memo
        slack = memo.get(mask)
        if slack is None:
            assert self._tree is not None
            slack = _headroom(self._tree, self._local_aggregates, mask)
            if len(memo) >= HEADROOM_MEMO_LIMIT:
                del memo[next(iter(memo))]
            memo[mask] = slack
        return slack

    def headroom_batch(
        self, members_batch: Sequence[Iterable[int]]
    ) -> List[int]:
        """Return :meth:`headroom` for many sets against the *current*
        state, positionally.

        On the dense kernel the whole batch is answered by one
        vectorized ``H`` gather; the tree path degrades to a per-set
        loop through the headroom memo.  Callers interleaving inserts
        must invalidate against :attr:`version` to preserve sequential
        semantics.
        """
        if self._kernel is not None:
            masks = [
                self._local_mask(self.localize(members))
                for members in members_batch
            ]
            return self._kernel.headroom_many(masks)
        return [self.headroom(members) for members in members_batch]

    def revalidate(
        self, instrumentation: Optional["Instrumentation"] = None
    ) -> Tuple[ValidationReport, int]:
        """Run Algorithm 2 over this group if dirty; else reuse the cache.

        Returns ``(report, equations_checked_now)`` where the counter is 0
        on a cache hit.  Violation masks are *local*; use
        :meth:`globalize_violation` to translate them.

        ``instrumentation`` (optional
        :class:`repro.obs.instrument.Instrumentation`) gets one
        ``revalidate`` span per actual validation run, attributed with
        ``group_id``/``equations_checked``/``dirty``/``kernel`` (plus
        ``masks_touched`` on the dense path -- the kernel's real
        incremental work since the last pass, so the Eq.-3 efficiency
        telemetry stays truthful), and a ``revalidation_cache_hits``
        counter for skipped clean passes.
        """
        if self._dirty or self._cached is None:
            if instrumentation is None:
                self._cached = self._run_validation()
            else:
                touched_before = self._touched_since_reval
                with instrumentation.span(
                    "revalidate",
                    group_id=self.group_id,
                    dirty=True,
                    kernel=self.kernel_name,
                ) as span:
                    self._cached = self._run_validation()
                    span.set_attr(
                        "equations_checked", self._cached.equations_checked
                    )
                    if self._kernel is not None:
                        span.set_attr("masks_touched", touched_before)
                instrumentation.count(
                    "equations_checked", self._cached.equations_checked
                )
                if self._kernel is not None:
                    instrumentation.count(
                        "kernel_masks_touched", touched_before
                    )
            self._dirty = False
            self._touched_since_reval = 0
            return self._cached, self._cached.equations_checked
        if instrumentation is not None:
            instrumentation.count("revalidation_cache_hits")
        return self._cached, 0

    def _run_validation(self) -> ValidationReport:
        """Run the active engine's full-group check and report it.

        Tree path: Algorithm 2 over every ``2^{N_k} - 1`` equation.
        Dense path: an ``N_k``-probe feasibility check against the
        resident ``H`` table, with the exact offending masks recovered
        from the ``A - C`` plane only when the probe fails.  Violations
        (masks, LHS, RHS) are identical either way; only
        ``equations_checked`` differs, reporting each engine's real
        work.
        """
        if self._kernel is not None:
            violations, examined = self._kernel.validate()
            return make_report(self._kernel.engine_name, examined, violations)
        assert self._validator is not None and self._tree is not None
        return self._validator.validate(self._tree)

    def globalize_violation(self, violation: Violation) -> Violation:
        """Translate a local-mask violation into global license indexes."""
        mask = globalize_mask(self._structure, self.group_id, violation.mask)
        return Violation(mask, violation.lhs, violation.rhs)


class IncrementalValidator:
    """Grouped validation with incremental inserts and dirty revalidation.

    Examples
    --------
    >>> from repro.workloads.scenarios import example1
    >>> validator = IncrementalValidator.from_pool(example1().pool)
    >>> validator.record({1, 2}, 800)   # returns the touched group id
    0
    >>> validator.validate().is_valid
    True
    >>> validator.validate().equations_checked   # nothing dirty anymore
    0
    """

    engine_name = "incremental-grouped"

    def __init__(
        self,
        boxes: Sequence[Box],
        aggregates: Sequence[int],
        kernel: str = KERNEL_TREE,
        kernel_cap: int = DEFAULT_KERNEL_CAP,
    ):
        if len(boxes) != len(aggregates):
            raise ValidationError(
                f"{len(boxes)} boxes but {len(aggregates)} aggregates"
            )
        if not boxes:
            raise ValidationError("need at least one redistribution license")
        self._aggregates = list(aggregates)
        self._structure: GroupStructure = form_groups(
            OverlapGraph.from_boxes(boxes)
        )
        self._slices: List[GroupSlice] = [
            GroupSlice(
                self._structure,
                self._aggregates,
                k,
                kernel=kernel,
                kernel_cap=kernel_cap,
            )
            for k in range(self._structure.count)
        ]
        self._records = 0

    @classmethod
    def from_pool(
        cls,
        pool: LicensePool,
        kernel: str = KERNEL_TREE,
        kernel_cap: int = DEFAULT_KERNEL_CAP,
    ) -> "IncrementalValidator":
        """Build from a license pool (``kernel`` selects each slice's
        equation engine -- see :class:`GroupSlice`)."""
        return cls(
            pool.boxes(),
            pool.aggregate_array(),
            kernel=kernel,
            kernel_cap=kernel_cap,
        )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def structure(self) -> GroupStructure:
        """Return the (static) group partition."""
        return self._structure

    @property
    def records_inserted(self) -> int:
        """Return how many log records have been inserted."""
        return self._records

    @property
    def dirty_groups(self) -> Tuple[int, ...]:
        """Return the 0-based ids of groups awaiting revalidation."""
        return tuple(
            k for k, gslice in enumerate(self._slices) if gslice.dirty
        )

    def slices(self) -> Tuple[GroupSlice, ...]:
        """Return the per-group slices (shared, mutable -- callers taking
        a slice take responsibility for serializing access to it)."""
        return tuple(self._slices)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def record(self, license_set: Iterable[int], count: int) -> int:
        """Insert one issuance; return the 0-based group id it landed in.

        Raises
        ------
        GroupingError
            If the set spans two groups (impossible for sets produced by
            instance matching -- Corollary 1.1 -- so it flags corrupt
            logs).
        """
        members = sorted(set(license_set))
        if not members:
            raise ValidationError("license set must be non-empty")
        group_ids = {self._structure.group_of(index) for index in members}
        if len(group_ids) != 1:
            raise GroupingError(
                f"set {members} spans groups {sorted(g + 1 for g in group_ids)}; "
                f"instance matching can never produce a cross-group set"
            )
        group_id = group_ids.pop()
        self._slices[group_id].insert(members, count)
        self._records += 1
        return group_id

    def append(self, record: LogRecord) -> int:
        """Insert a :class:`LogRecord`."""
        return self.record(record.license_set, record.count)

    def replay(self, log: ValidationLog) -> None:
        """Insert every record of an existing log."""
        for record in log:
            self.append(record)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(
        self, instrumentation: Optional["Instrumentation"] = None
    ) -> ValidationReport:
        """Revalidate dirty groups, reuse cached verdicts for clean ones.

        The returned report's ``equations_checked`` counts only the
        equations evaluated by *this* call -- the incremental cost.
        Violations cover all groups (cached and fresh), translated to
        global license indexes.  ``instrumentation`` is forwarded to each
        slice's :meth:`GroupSlice.revalidate`.
        """
        checked_now = 0
        violations: List[Violation] = []
        for gslice in self._slices:
            report, checked = gslice.revalidate(instrumentation)
            checked_now += checked
            violations.extend(
                gslice.globalize_violation(violation)
                for violation in report.violations
            )
        return make_report(self.engine_name, checked_now, violations)

    def is_valid(self) -> bool:
        """Validate (incrementally) and return the verdict."""
        return self.validate().is_valid
