"""Dense incremental headroom kernel: O(1) admission, delta revalidation.

The serving hot path asks two questions per admitted request:

* *headroom* -- ``min_{S ⊇ T} (A⟨S⟩ - C⟨S⟩)`` for the matched set ``T``
  (how many more counts the set can absorb), and
* *revalidation* -- "does every equation of this group still hold?"
  after the batch's inserts.

The validation-tree path answers both by enumeration: one tree-walk
subset sum per superset for headroom (``2^{N_k - |T|}`` walks) and a
full Algorithm 2 sweep (``2^{N_k} - 1`` walks) per dirty revalidation.
This module trades memory for that time.  Per group it keeps two dense
NumPy int64 tables over the group's local universe, indexed by mask:

``C[mask]``
    The subset-sums ``C⟨mask⟩`` -- the LHS of every validation equation,
    i.e. the log's counts already pushed through the zeta transform
    (:mod:`repro.validation.zeta` computes the same table in bulk).
``H[mask]``
    The superset-minimum of the slack plane:
    ``H[mask] = min_{S ⊇ mask} (A⟨S⟩ - C⟨S⟩)``.

With ``H`` resident, admission headroom is **one array lookup** and
group validity is ``N_k`` singleton lookups (the singleton cones cover
every non-empty mask).  Violation extraction -- needed only when a
check fails -- recovers the exact offending masks from the ``A - C``
plane (``C > A`` positions), byte-identical to the tree sweep.

Incremental updates stay cheap because counts only ever grow, so slack
only ever shrinks.  When a record with local mask ``T`` and ``count``
lands, both tables change by one formula each:

1. ``C[S] += count`` for every ``S ⊇ T`` -- an add over the
   ``2^{N_k - |T|}`` masks of ``T``'s superset cone.
2. ``H[m] = min(H[m], H[m | T] - count)`` for every mask ``m``, with the
   right-hand ``H`` read before the update.  ``m``'s cone splits into
   the part outside ``T``'s cone, whose equations did not change and
   are already folded into the old ``H[m]``, and the part inside it,
   ``m | T``'s cone, where every equation tightened by exactly
   ``count``.  Inside the cone ``m | T = m``, so the formula reduces to
   ``H[m] -= count``.

Both run on strided views of the table reshaped to ``(2,) * N_k``: axis
``N_k - 1 - b`` holds bit ``b``, so keeping only the 1-half of every
axis of a bit of ``T`` selects the cone without an index vector, and
broadcasting that cone back over the whole table realizes ``m | T``.
Step 1 touches ``O(2^{N_k - |T|})`` masks; step 2 is one vectorized
minimum over the ``2^{N_k}`` masks (word ops at memory-bandwidth speed)
that allocates only a transient copy of the cone.  The tree walk this
replaces pays a pointer-chasing tree traversal *per superset equation*,
so the kernel wins by orders of magnitude on paper-scale groups -- see
``benchmarks/bench_kernel.py``.

The tables are plain heap arrays with one owner: the process that
serves the group (Theorem 2 gives no other group a reason to read
them).  A resident worker builds its groups' tables from the aggregates
and replays their preloads, exactly as it rebuilds a validation tree.

Memory is the limit: three resident int64 tables (``C``, ``H``, and the
static RHS ``A``) cost ``3 * 8 * 2^{N_k}`` bytes, so construction
refuses universes beyond a cap (default
:data:`repro.validation.limits.DEFAULT_KERNEL_CAP`, ~24 MiB/group);
:class:`repro.core.incremental.GroupSlice` falls back to the tree walk
above it.  REP007 note: this module is an allowlisted enumeration
primitive -- the full-lattice sweeps live *here* so the serving layers
above never re-grow a ``2^N`` loop.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np
from numpy.typing import NDArray

from repro.errors import ValidationError
from repro.validation.limits import (
    DEFAULT_KERNEL_CAP,
    DENSE_TABLE_MAX_N,
    dense_table_bytes,
)
from repro.validation.report import Violation
from repro.validation.zeta import subset_sums_dense

__all__ = [
    "DenseHeadroomKernel",
    "KERNEL_DENSE",
    "KERNEL_NAMES",
    "KERNEL_TREE",
]

#: Strategy name for the existing validation-tree walk (the default).
KERNEL_TREE = "tree"
#: Strategy name for the dense table kernel of this module.
KERNEL_DENSE = "dense"
#: Recognized ``kernel=`` strategy names, in preference order.
KERNEL_NAMES = (KERNEL_TREE, KERNEL_DENSE)

_I64 = np.int64


class DenseHeadroomKernel:
    """Resident subset-sum / superset-min tables for one group.

    All masks are *local*: bit ``j - 1`` encodes the group's local
    license ``j`` (the caller owns the global->local remapping, exactly
    as with the validation-tree path).

    Examples
    --------
    >>> kernel = DenseHeadroomKernel([100, 50, 60])
    >>> kernel.headroom(0b011)          # min slack over {1,2}'s cone
    150
    >>> kernel.insert(0b011, 140)       # returns cone masks touched
    2
    >>> kernel.headroom(0b011)
    10
    >>> kernel.is_valid()
    True
    >>> kernel.insert(0b100, 70)        # overshoot license 3 (A = 60)
    4
    >>> kernel.is_valid()
    False
    >>> [(v.mask, v.lhs, v.rhs) for v in kernel.violations()]
    [(4, 70, 60)]
    """

    engine_name = "dense-kernel"

    def __init__(
        self,
        aggregates: Sequence[int],
        max_n: int = DEFAULT_KERNEL_CAP,
    ):
        if not aggregates:
            raise ValidationError("aggregate array must be non-empty")
        if any(a < 0 for a in aggregates):
            raise ValidationError(
                f"aggregates must be non-negative: {list(aggregates)!r}"
            )
        n = len(aggregates)
        cap = min(max_n, DENSE_TABLE_MAX_N)
        if n > cap:
            raise ValidationError(
                f"N={n} exceeds the dense-kernel cap max_n={cap} "
                f"({dense_table_bytes(n, tables=3)} bytes of resident "
                f"tables needed); use the validation-tree walk instead"
            )
        self._n = n
        self._size = 1 << n
        self._universe = self._size - 1
        #: RHS plane ``A⟨mask⟩`` (static): dense subset sums over the
        #: singleton aggregates, shared arithmetic with the zeta engine.
        self._rhs: NDArray[np.int64] = subset_sums_dense(
            {1 << j: int(aggregates[j]) for j in range(n)}, n
        )
        #: LHS plane ``C⟨mask⟩`` (subset sums of the log, current).
        self._counts: NDArray[np.int64] = np.zeros(self._size, dtype=_I64)
        #: Headroom plane ``H[mask] = min_{S ⊇ mask} (A⟨S⟩ - C⟨S⟩)``.
        self._head: NDArray[np.int64] = self._rhs.copy()
        self._superset_min_inplace(self._head)
        self._records = 0
        self._masks_touched_total = 0
        self._last_update_touched = 0

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Return the local universe size ``N_k``."""
        return self._n

    @property
    def records_inserted(self) -> int:
        """Return how many records this kernel has absorbed."""
        return self._records

    @property
    def masks_touched_total(self) -> int:
        """Return the cumulative count of cone entries updated by
        :meth:`insert` -- the kernel's actual incremental work, the
        quantity the per-update span attributes report."""
        return self._masks_touched_total

    @property
    def last_update_touched(self) -> int:
        """Return the cone size (``2^{N_k - |T|}``) of the last insert."""
        return self._last_update_touched

    @property
    def table_bytes(self) -> int:
        """Return the resident size of the three dense tables."""
        return dense_table_bytes(self._n, tables=3)

    def lhs(self, mask: int) -> int:
        """Return the current subset-sum ``C⟨mask⟩`` (equation LHS)."""
        self._check_mask(mask)
        return int(self._counts[mask])

    def rhs(self, mask: int) -> int:
        """Return the aggregate sum ``A⟨mask⟩`` (equation RHS)."""
        self._check_mask(mask)
        return int(self._rhs[mask])

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert(self, mask: int, count: int) -> int:
        """Fold one record (local ``mask``, ``count``) into the tables.

        Returns the number of cone masks touched (``2^{N_k - |T|}``),
        which observability layers attribute to the update span.  ``C``
        grows over the superset cone of ``mask``; ``H`` takes
        ``min(H[m], H[m | mask] - count)`` at every mask, which is
        ``H[m] - count`` inside the cone (see the module docstring for
        the exactness argument).
        """
        self._check_mask(mask)
        if count < 0:
            raise ValidationError(f"count must be non-negative, got {count}")
        n = self._n
        lattice = (2,) * n
        cone = tuple(
            slice(1, 2) if mask >> (n - 1 - axis) & 1 else slice(None)
            for axis in range(n)
        )
        self._counts.reshape(lattice)[cone] += count
        head = self._head.reshape(lattice)
        np.minimum(head, head[cone] - count, out=head)
        touched = 1 << (n - mask.bit_count())
        self._records += 1
        self._masks_touched_total += touched
        self._last_update_touched = touched
        return touched

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def headroom(self, mask: int) -> int:
        """Return the largest extra count issuable against ``mask`` --
        ``min_{S ⊇ mask} (A⟨S⟩ - C⟨S⟩)`` floored at 0 -- as a single
        ``H`` lookup."""
        self._check_mask(mask)
        slack = int(self._head[mask])
        return slack if slack > 0 else 0

    def headroom_many(self, masks: Sequence[int]) -> List[int]:
        """Vectorized :meth:`headroom` for a whole admission batch.

        One fancy-indexed gather replaces per-request Python dispatch;
        the returned list matches ``masks`` positionally.
        """
        if not masks:
            return []
        index = np.asarray(masks, dtype=_I64)
        if index.min() < 1 or index.max() > self._universe:
            raise ValidationError(
                f"mask batch {list(masks)!r} outside universe N={self._n}"
            )
        return [int(v) for v in np.maximum(self._head[index], 0)]

    def min_slack(self) -> int:
        """Return ``min`` slack over every non-empty mask.

        The ``N_k`` singleton cones cover all non-empty masks, so this
        is ``min_j H[1 << j]`` -- the whole-group feasibility probe.
        """
        singletons = self._head[[1 << j for j in range(self._n)]]
        return int(singletons.min())

    def is_valid(self) -> bool:
        """Return whether every validation equation currently holds."""
        return self.min_slack() >= 0

    def violations(self) -> List[Violation]:
        """Return every violated equation, sorted by mask.

        Extraction sweeps the dense ``A - C`` plane -- the only
        full-lattice read on this path, and it runs *only* after a
        failed :meth:`is_valid` probe.
        """
        bad = np.nonzero(self._counts > self._rhs)[0]
        return [
            Violation(int(m), int(self._counts[m]), int(self._rhs[m]))
            for m in bad
            if m  # mask 0 is the empty set: C⟨∅⟩ = 0 ≤ 0 always
        ]

    def validate(self) -> Tuple[List[Violation], int]:
        """Return ``(violations, equations_examined)``.

        The probe costs ``N_k`` singleton lookups; only a failed probe
        pays the ``2^{N_k} - 1``-mask extraction sweep.  The second
        element reports the *actual* comparisons made so the monitor's
        Equation-3 efficiency indicator reflects real work rather than
        the tree path's as-if sweep.
        """
        if self.is_valid():
            return [], self._n
        return self.violations(), self._n + self._universe

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_mask(self, mask: int) -> None:
        if mask == 0 or mask & ~self._universe:
            raise ValidationError(
                f"mask {mask:#b} out of range for N={self._n}"
            )

    def _superset_min_inplace(self, table: NDArray[np.int64]) -> None:
        """Fold ``table`` into its superset-minimum transform:
        ``table[mask] = min_{S ⊇ mask} table_in[S]`` -- the min-analogue
        of the zeta transform's per-bit plane sweep."""
        for bit in range(self._n):
            shaped = table.reshape(1 << (self._n - bit - 1), 2, 1 << bit)
            np.minimum(shaped[:, 0, :], shaped[:, 1, :], out=shaped[:, 0, :])

    def check_invariants(self) -> None:
        """Recompute both tables from scratch and compare (debug oracle).

        Sweeps the full lattice, so it lives behind the REP007
        allowlist with the rest of this module; tests call it after
        adversarial insert interleavings.

        Raises
        ------
        ValidationError
            If either resident table drifted from its definition.
        """
        slack = self._rhs - self._counts
        expected = slack.copy()
        self._superset_min_inplace(expected)
        drift = np.nonzero(expected != self._head)[0]
        if drift.size:
            mask = int(drift[0])
            raise ValidationError(
                f"dense kernel H-table drift at mask {mask:#b}: "
                f"stored {int(self._head[mask])}, "
                f"recomputed {int(expected[mask])}"
            )
        for mask in range(1, 1 << self._n):
            low = mask & -mask
            rest = mask ^ low
            if int(self._rhs[mask]) != int(self._rhs[rest]) + int(
                self._rhs[low]
            ):
                raise ValidationError(
                    f"dense kernel RHS table drift at mask {mask:#b}"
                )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"DenseHeadroomKernel(n={self._n}, records={self._records}, "
            f"bytes={self.table_bytes})"
        )
