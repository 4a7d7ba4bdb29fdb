"""Journal replay checked against the max-flow oracle.

A warm service, started with a cold service's accepted log as its
``initial_log``, serves the rest of the stream under every executor and
kernel, with a queue small enough that overload forces early drains.
:class:`~repro.validation.flow.FlowFeasibilityOracle`, which shares no
code with either kernel, then checks every verdict: the journal plus the
accepts is feasible, and every ``capacity``/``equation`` rejection is
necessary -- the journal plus the earlier accepts plus the rejected
request is infeasible.  The oracle is the executable reference model of
the sequential accept-iff-feasible rule (the algebraic-specification
approach to DRM of arXiv 1108.1482).
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.logstore.log import ValidationLog
from repro.service import ServiceConfig, ValidationService
from repro.validation.flow import FlowFeasibilityOracle
from repro.workloads.config import WorkloadConfig
from repro.workloads.generator import WorkloadGenerator

CONFIGS = [
    (executor, kernel)
    for executor in ("serial", "resident")
    for kernel in ("tree", "dense")
]


def add(counts, members, count):
    """Return ``counts`` with ``count`` more on the mask of ``members``."""
    mask = sum(1 << (index - 1) for index in members)
    return {**counts, mask: counts.get(mask, 0) + count}


def oracle_problems(oracle, journal_counts, outcomes):
    """Every verdict the oracle disagrees with, as text."""
    counts, problems, rejections = journal_counts, [], 0
    for outcome in outcomes:
        if not outcome.license_set:
            continue  # an instance rejection reaches no equation
        trial = add(counts, outcome.license_set, outcome.count)
        if outcome.accepted:
            counts = trial
        elif outcome.rejection_reason in ("capacity", "equation"):
            rejections += 1
            if oracle.feasible(trial):
                problems.append(f"{outcome.usage_id} rejected, yet it fits")
    # Dropping records keeps a log feasible, so the whole accepted log
    # being feasible covers every prefix of it.
    if not oracle.feasible(counts):
        problems.append("journal plus accepts is infeasible")
    return problems, rejections


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_warm_verdicts_match_the_flow_oracle(seed):
    generator = WorkloadGenerator(
        WorkloadConfig(
            n_licenses=12,
            seed=seed,
            n_records=0,
            target_groups=3,
            aggregate_range=(40, 120),
        )
    )
    pool = generator.generate_pool()
    stream = list(generator.issue_stream(pool, 160, skew=0.6))
    head, tail = stream[:60], stream[60:]
    with ValidationService(pool, ServiceConfig(shards=2)) as cold:
        cold.process(head)
        journal = ValidationLog()
        for record in cold.log:
            journal.record(record.license_set, record.count, record.issued_id)
    oracle = FlowFeasibilityOracle(pool.aggregate_array())
    journal_counts = {}
    for record in journal:
        journal_counts = add(journal_counts, record.license_set, record.count)
    assert oracle.feasible(journal_counts)
    checked = {}
    for executor, kernel in CONFIGS:
        config = ServiceConfig(
            shards=2, queue_capacity=4, executor=executor, kernel=kernel
        )
        with ValidationService(pool, config, initial_log=journal) as warm:
            outcomes = warm.process(tail)
        signature = tuple(
            (o.license_set, o.count, o.accepted, o.rejection_reason)
            for o in outcomes
        )
        if signature not in checked:
            checked[signature] = oracle_problems(oracle, journal_counts, outcomes)
        problems, rejections = checked[signature]
        assert problems == [], (executor, kernel, problems[:3])
        assert rejections, "the tail never ran out of headroom"
    # One verdict stream for every executor and kernel.
    assert len(checked) == 1
