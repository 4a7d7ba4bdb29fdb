"""Seeded license pools and request streams for the serving benchmark.

The benchmark generates its own inputs so the program under test only
ever receives a pool and a stream.  Every overlap group is built to an
exact size: the licenses of group ``k`` live in their own slab of axis
``c1`` (slabs never overlap) and all contain the slab's central core
(so they pairwise overlap).  The paper's cost model is per group
(Eq. 3: ``sum_k (2^{N_k} - 1)`` equations), so fixing ``N_k`` fixes the
work per request across seeds.

Requests are shrunken copies of a random license: each matches its
parent and every other license of the group that happens to contain it,
which gives the varied multi-license sets ``S`` that headroom and
revalidation depend on.  On the ``tree`` kernel a headroom query costs
``2^(N_k - |S|)`` equations, so a hot catalog fixes how many offers of
each set size it holds: otherwise a seed that drew a few more
single-license offers would be a different workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple

from repro import (
    ConstraintSchema,
    DimensionSpec,
    LicenseFactory,
    LicensePool,
    UsageLicense,
    ValidationLog,
)

AXES = ("c1", "c2", "c3")
#: Every license spans ``[lo, hi]`` with ``lo <= CORE[0]`` and
#: ``hi >= CORE[1]`` on each axis, so all licenses of a group overlap.
CORE = (0.4, 0.6)
#: Width of one group's slab on ``c1``, gap included.
SLAB = 10.0


@dataclass(frozen=True)
class Fixture:
    """One workload's inputs: the pool, the request stream and, for a
    service that restarts with earlier issuances, its journal."""

    pool: LicensePool
    stream: Tuple[UsageLicense, ...]
    journal: Optional[ValidationLog] = None


def _extent(rng: random.Random, low: float, high: float, fraction) -> Tuple[float, float]:
    """A random sub-interval of ``[low, high]`` covering ``fraction`` of it."""
    span = high - low
    length = span * rng.uniform(*fraction)
    start = low + rng.uniform(0.0, span - length)
    left = min(max(round(start, 6), low), high)
    return left, min(max(round(start + length, 6), left), high)


def build_pool(
    rng: random.Random, groups: int, group_size: int, aggregates: Tuple[int, int]
) -> Tuple[LicensePool, LicenseFactory]:
    """``groups * group_size`` licenses in ``groups`` overlap groups."""
    schema = ConstraintSchema([DimensionSpec.numeric(axis) for axis in AXES])
    factory = LicenseFactory(schema, content_id="K", permission="play")
    pool = LicensePool()
    # Interleave group membership across pool indexes, as real pools
    # are not sorted by group.
    members = [group for group in range(groups) for _ in range(group_size)]
    rng.shuffle(members)
    for serial, group in enumerate(members, start=1):
        constraints = {}
        for axis in AXES:
            low = round(rng.uniform(0.0, CORE[0]), 6)
            high = round(rng.uniform(CORE[1], 1.0), 6)
            offset = group * SLAB if axis == "c1" else 0.0
            constraints[axis] = (offset + low, offset + high)
        pool.add(
            factory.redistribution(
                f"LD{serial}", aggregate=rng.randint(*aggregates), **constraints
            )
        )
    return pool, factory


def _shrunken(rng: random.Random, parent) -> Dict[str, Tuple[float, float]]:
    """Constraints of a request box inside ``parent``."""
    return {
        axis: _extent(rng, extent.low, extent.high, (0.05, 0.4))
        for axis, extent in zip(AXES, parent.box.extents)
    }


def _offer_of_size(
    rng: random.Random, schema, licenses, size: int
) -> Tuple[dict, FrozenSet[int]]:
    """A request box that exactly ``size`` of ``licenses`` (``(index,
    license)`` pairs) contain, with the indexes of those licenses."""
    for _attempt in range(100_000):
        constraints = _shrunken(rng, rng.choice(licenses)[1])
        box = schema.box(**constraints)
        members = frozenset(index for index, lic in licenses if lic.box.contains(box))
        if len(members) == size:
            return constraints, members
    raise ValueError(f"no offer matching {size} license(s) found")


def _journal(
    rng: random.Random, pool: LicensePool, sets, counts, records: int
) -> ValidationLog:
    """Earlier issuances that filled the pool: each is charged whole to
    the least-used license of its set, so the journal is feasible by
    construction (a routing exists) without asking the program."""
    remaining = {index: lic.aggregate for index, lic in pool.enumerate()}
    journal = ValidationLog()
    for serial in range(1, records + 1):
        members = rng.choice(sets)
        count = rng.randint(*counts)
        fullest = max(members, key=lambda index: (remaining[index], -index))
        if remaining[fullest] >= count:
            remaining[fullest] -= count
            journal.record(members, count, f"LH{serial}")
    return journal


def unique_fixture(
    seed: int,
    *,
    groups: int,
    group_size: int,
    requests: int,
    aggregates: Tuple[int, int],
    counts: Tuple[int, int] = (1, 10),
) -> Fixture:
    """Every request has its own geometry, so every match lookup misses."""
    rng = random.Random(seed)
    pool, factory = build_pool(rng, groups, group_size, aggregates)
    stream = tuple(
        factory.usage(
            f"LU{serial}",
            count=rng.randint(*counts),
            **_shrunken(rng, pool[rng.randint(1, len(pool))]),
        )
        for serial in range(1, requests + 1)
    )
    return Fixture(pool, stream)


def hot_fixture(
    seed: int,
    *,
    groups: int,
    group_size: int,
    requests: int,
    offers_per_size: int,
    history: int,
    aggregates: Tuple[int, int],
    counts: Tuple[int, int] = (1, 10),
) -> Fixture:
    """Many users buying a few standard offers from a distributor whose
    journal already holds ``history`` such purchases: every group has
    ``offers_per_size`` offers of each match-set size ``1..group_size``,
    and the stream requests each offer equally often, in shuffled order,
    with fresh ids and counts."""
    rng = random.Random(seed)
    pool, factory = build_pool(rng, groups, group_size, aggregates)
    by_group: Dict[int, list] = {}
    for index, group in group_of_licenses(pool).items():
        by_group.setdefault(group, []).append((index, pool[index]))
    catalog = [
        _offer_of_size(rng, factory.schema, by_group[group], size)
        for group in range(groups)
        for size in range(1, group_size + 1)
        for _copy in range(offers_per_size)
    ]
    journal = _journal(rng, pool, [members for _c, members in catalog], counts, history)
    picks = [position % len(catalog) for position in range(requests)]
    rng.shuffle(picks)
    stream = tuple(
        factory.usage(f"LU{serial}", count=rng.randint(*counts), **catalog[pick][0])
        for serial, pick in enumerate(picks, start=1)
    )
    return Fixture(pool, stream, journal)


def group_of_licenses(pool: LicensePool) -> dict:
    """Map each 1-based license index to the group whose slab holds it."""
    return {
        index: int(lic.box.extents[0].low // SLAB) for index, lic in pool.enumerate()
    }
