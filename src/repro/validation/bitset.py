"""Bitmask helpers shared by every validation engine.

The paper's Algorithm 2 walks an integer counter ``i`` from 1 to
``2^N - 1``; the positions of the 1-bits of ``i`` name the redistribution
licenses of the equation's set (bit ``j-1`` <-> license ``L_D^j``).  All of
our engines use the same encoding, and these helpers keep the bit-twiddling
in one place.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

__all__ = [
    "aggregate_sums",
    "indexes_of",
    "iter_masks",
    "iter_submasks",
    "iter_supersets",
    "mask_from_indexes",
    "popcount",
]


def popcount(mask: int) -> int:
    """Return the number of set bits (the paper's ``licNumber``)."""
    return mask.bit_count()


def indexes_of(mask: int) -> Tuple[int, ...]:
    """Return the 1-based license indexes encoded by ``mask``, ascending.

    >>> indexes_of(0b1011)
    (1, 2, 4)
    """
    out: List[int] = []
    index = 1
    while mask:
        if mask & 1:
            out.append(index)
        mask >>= 1
        index += 1
    return tuple(out)


def mask_from_indexes(indexes: "Sequence[int] | frozenset") -> int:
    """Inverse of :func:`indexes_of`.

    >>> mask_from_indexes((1, 2, 4))
    11
    """
    mask = 0
    for index in indexes:
        mask |= 1 << (index - 1)
    return mask


def iter_masks(n: int) -> Iterator[int]:
    """Yield every non-empty subset mask of ``{1..n}``: the paper's
    equation counter ``i = 1 .. 2^n - 1``."""
    yield from range(1, 1 << n)


def iter_submasks(mask: int) -> Iterator[int]:
    """Yield every non-empty submask of ``mask`` (the sets summed on the
    LHS of Equation 1).

    Uses the standard ``sub = (sub - 1) & mask`` enumeration, which visits
    each of the ``2^m - 1`` non-empty submasks exactly once.

    >>> sorted(iter_submasks(0b101))
    [1, 4, 5]
    """
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


def iter_supersets(mask: int, universe: int) -> Iterator[int]:
    """Yield every superset of ``mask`` contained in ``universe``.

    Used by headroom queries: issuing more counts against set ``S`` only
    tightens equations for supersets of ``S``.  The free bits
    ``universe & ~mask`` are added as a binary counter, so the yielded
    masks ascend (headroom derives each RHS from the previous one).

    >>> list(iter_supersets(0b001, 0b111))
    [1, 3, 5, 7]
    """
    free = universe & ~mask
    sub = 0
    while True:
        yield mask | sub
        if sub == free:
            return
        # Enumerate submasks of `free` in increasing order.
        sub = (sub - free) & free


def aggregate_sums(aggregates: Sequence[int]) -> List[int]:
    """Return ``A[mask]`` for every mask: the RHS of every validation
    equation, computed by the standard subset-sum DP in O(2^N).

    ``aggregates[j-1]`` is license ``j``'s aggregate constraint (the
    paper's array ``A``); the result's entry at ``mask`` is
    ``sum(aggregates[j-1] for j in indexes_of(mask))``.

    >>> aggregate_sums([5, 7])
    [0, 5, 7, 12]
    """
    n = len(aggregates)
    sums = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low_bit = mask & -mask
        sums[mask] = sums[mask ^ low_bit] + aggregates[low_bit.bit_length() - 1]
    return sums
