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

import os
from itertools import count as _monotonic_count
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

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
    "KernelPlane",
    "KernelPlaneAllocator",
]

#: Strategy name for the existing validation-tree walk (the default).
KERNEL_TREE = "tree"
#: Strategy name for the dense table kernel of this module.
KERNEL_DENSE = "dense"
#: Recognized ``kernel=`` strategy names, in preference order.
KERNEL_NAMES = (KERNEL_TREE, KERNEL_DENSE)

_I64 = np.int64

#: Process-unique suffix source for shared-memory plane names (a plain
#: monotonic counter -- no ambient entropy; uniqueness across processes
#: comes from the creator's pid baked into the name).
_PLANE_SEQUENCE = _monotonic_count()


class KernelPlane:
    """One named dense ``int64`` plane: heap- or shared-memory-backed.

    The resident-worker executor (:mod:`repro.service.resident`) needs
    the dense kernel's ``C``/``H`` tables visible from two processes at
    once: the worker that owns the shard *writes* them, while the
    coordinator serves admin/monitor reads (kernel occupancy, future
    snapshots) zero-copy -- without round-tripping the worker.  A plane
    wraps either a plain heap array (``shared=False``, the default used
    everywhere workers are off) or a ``multiprocessing.shared_memory``
    segment exposed as the same ndarray view, so
    :class:`DenseHeadroomKernel` is oblivious to the backing.

    Lifecycle discipline (see DESIGN.md "Serving architecture"): the
    *creator* (the coordinator) both closes and unlinks; *attachers*
    (workers) only close.  Cross-process reads of a live plane may
    observe a torn batch mid-update -- fine for monitoring, never used
    for admission decisions (those happen in the owning worker only).
    """

    def __init__(
        self,
        array: NDArray[np.int64],
        *,
        name: Optional[str] = None,
        segment: Optional[shared_memory.SharedMemory] = None,
        owner: bool = False,
    ):
        self.ndarray = array
        self.name = name
        self._segment = segment
        self._owner = owner
        self._closed = False

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def heap(cls, length: int) -> "KernelPlane":
        """Allocate a plain in-process plane (the no-workers fallback)."""
        return cls(np.zeros(length, dtype=_I64))

    @classmethod
    def create(cls, name: str, length: int) -> "KernelPlane":
        """Create (and own) a shared-memory plane, zero-filled."""
        segment = shared_memory.SharedMemory(
            name=name, create=True, size=length * 8
        )
        array = np.ndarray((length,), dtype=_I64, buffer=segment.buf)
        array[:] = 0
        return cls(array, name=name, segment=segment, owner=True)

    @classmethod
    def attach(cls, name: str, length: int) -> "KernelPlane":
        """Attach to an existing shared plane by name (worker side)."""
        segment = shared_memory.SharedMemory(name=name)
        array = np.ndarray((length,), dtype=_I64, buffer=segment.buf)
        return cls(array, name=name, segment=segment, owner=False)

    # ------------------------------------------------------------------
    # Accessors / lifecycle
    # ------------------------------------------------------------------
    @property
    def shared(self) -> bool:
        """Return whether this plane lives in shared memory."""
        return self._segment is not None

    @property
    def length(self) -> int:
        """Return the number of int64 slots."""
        return int(self.ndarray.shape[0])

    def close(self) -> None:
        """Drop this process's mapping (idempotent).  The creator also
        unlinks the segment so the name disappears system-wide."""
        if self._closed or self._segment is None:
            self._closed = True
            return
        self._closed = True
        # The ndarray view borrows the segment's buffer; drop it first
        # so SharedMemory.close() does not complain about exports.
        self.ndarray = np.array((), dtype=_I64)
        self._segment.close()
        if self._owner:
            try:
                self._segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segment = None

    def __repr__(self) -> str:  # pragma: no cover - trivial
        backing = f"shm:{self.name}" if self.shared else "heap"
        return f"KernelPlane({backing}, length={self.length})"


class KernelPlaneAllocator:
    """Allocate named ``C``/``H`` plane pairs for a service's dense groups.

    The coordinator owns one allocator per resident-backed service: it
    creates uniquely named shared segments (``repro-<pid>-<seq>-g<id>-c``
    etc.), hands the ndarray views into the coordinator's own
    :class:`DenseHeadroomKernel` instances, publishes the names through
    :class:`repro.service.shard.ShardSpec` so workers can attach, and
    unlinks everything on :meth:`close`.  With ``shared=False`` it
    degrades to plain heap planes -- the zero-cost path used when no
    worker processes exist.
    """

    def __init__(self, shared: bool = True):
        self._shared = shared
        self._prefix = f"repro-{os.getpid()}-{next(_PLANE_SEQUENCE)}"
        self._pairs: Dict[int, Tuple[KernelPlane, KernelPlane]] = {}
        self._closed = False

    @property
    def shared(self) -> bool:
        """Return whether pairs are backed by shared memory."""
        return self._shared

    def pair_for(
        self, group_id: int, length: int
    ) -> Tuple[KernelPlane, KernelPlane]:
        """Create (once) and return the ``(C, H)`` planes for a group."""
        if self._closed:
            raise ValidationError("plane allocator is closed")
        existing = self._pairs.get(group_id)
        if existing is not None:
            return existing
        if self._shared:
            pair = (
                KernelPlane.create(f"{self._prefix}-g{group_id}-c", length),
                KernelPlane.create(f"{self._prefix}-g{group_id}-h", length),
            )
        else:
            pair = (KernelPlane.heap(length), KernelPlane.heap(length))
        self._pairs[group_id] = pair
        return pair

    def names(self) -> Dict[int, Tuple[str, str]]:
        """Return ``{group_id: (C_name, H_name)}`` for shared pairs
        (empty when heap-backed -- nothing to attach to)."""
        return {
            group_id: (c.name, h.name)
            for group_id, (c, h) in sorted(self._pairs.items())
            if c.name is not None and h.name is not None
        }

    def close(self) -> None:
        """Close and (as creator) unlink every allocated plane."""
        if self._closed:
            return
        self._closed = True
        for c_plane, h_plane in self._pairs.values():
            c_plane.close()
            h_plane.close()


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
        planes: Optional[Tuple[KernelPlane, KernelPlane]] = None,
        adopt: bool = False,
    ):
        if not aggregates:
            raise ValidationError("aggregate array must be non-empty")
        if any(a < 0 for a in aggregates):
            raise ValidationError(
                f"aggregates must be non-negative: {list(aggregates)!r}"
            )
        if adopt and planes is None:
            raise ValidationError(
                "adopt=True requires externally allocated planes"
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
        #: Always heap-local -- it never mutates, so every process can
        #: rebuild it identically from the aggregates alone.
        self._rhs: NDArray[np.int64] = subset_sums_dense(
            {1 << j: int(aggregates[j]) for j in range(n)}, n
        )
        self._counts: NDArray[np.int64]
        self._head: NDArray[np.int64]
        if planes is not None:
            c_plane, h_plane = planes
            if c_plane.length != self._size or h_plane.length != self._size:
                raise ValidationError(
                    f"plane length {c_plane.length}/{h_plane.length} does "
                    f"not match dense table size {self._size} (N={n})"
                )
            #: LHS plane ``C⟨mask⟩`` and headroom plane ``H`` live in the
            #: caller-allocated planes (possibly shared memory).  With
            #: ``adopt=True`` the current contents ARE the live state --
            #: the attach side of a resident worker whose coordinator
            #: already replayed the preload log into the tables.
            self._counts = c_plane.ndarray
            self._head = h_plane.ndarray
            if not adopt:
                self._counts[:] = 0
                self._head[:] = self._rhs
                self._superset_min_inplace(self._head)
        else:
            #: LHS plane ``C⟨mask⟩`` (subset sums of the log, current).
            self._counts = np.zeros(self._size, dtype=_I64)
            #: Headroom plane ``H[mask] = min_{S ⊇ mask} (A⟨S⟩ - C⟨S⟩)``.
            self._head = self._rhs.copy()
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

    def occupancy(self) -> Dict[str, int]:
        """Return live occupancy read straight off the planes.

        ``min_slack`` is ``H[∅]`` (the global equation-slack minimum)
        and ``total_count`` is ``C⟨universe⟩`` (every admitted count).
        On shared planes this is the coordinator's zero-copy monitor
        read: values may be torn mid-batch (monitoring only, never an
        admission input -- see the class docstring of
        :class:`KernelPlane`).
        """
        return {
            "n": self._n,
            "min_slack": int(self._head[0]),
            "total_count": int(self._counts[self._universe]),
            "table_bytes": self.table_bytes,
        }

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
