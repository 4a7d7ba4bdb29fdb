"""Executor-parity property suite: two backends, one verdict stream.

Hypothesis drives randomized shard counts, batch sizes, queue
capacities, and kernel configurations through both executor backends
-- serial and resident -- asserting that the verdict stream is
**byte-identical** and that ``equations_checked`` is equal across
backends (the audit does the same incremental work no matter where the
shards run).  A dedicated case drives a mid-stream
``ServiceOverloadedError`` burst (tiny queues + forced drains) through
both.

Resident examples are expensive (worker spawn per service), so the
randomized sweeps keep example counts small and workloads compact.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.service import ServiceConfig, ValidationService
from repro.workloads.config import WorkloadConfig
from repro.workloads.generator import WorkloadGenerator

#: Workload cache: Hypothesis re-runs examples, pools are deterministic
#: in their config, and generation dominates example cost.
_WORKLOADS = {}


def workload_for(seed, n_licenses, target_groups, stream_len, skew):
    key = (seed, n_licenses, target_groups, stream_len, skew)
    if key not in _WORKLOADS:
        generator = WorkloadGenerator(
            WorkloadConfig(
                n_licenses=n_licenses,
                seed=seed,
                n_records=0,
                target_groups=target_groups,
                aggregate_range=(100, 500),
            )
        )
        pool = generator.generate_pool()
        stream = tuple(generator.issue_stream(pool, stream_len, skew=skew))
        _WORKLOADS[key] = (pool, stream)
    return _WORKLOADS[key]


def serve(pool, stream, **config_kwargs):
    """Serve the stream; return (verdict bytes, equations_checked)."""
    with ValidationService(pool, ServiceConfig(**config_kwargs)) as service:
        outcomes = service.process(stream)
        verdicts = "".join(
            "A" if o.accepted else (o.rejection_reason or "?")[0]
            for o in outcomes
        ).encode("ascii")
        equations = service.metrics.counter("equations_checked_total").value()
    return verdicts, equations


service_configs = st.fixed_dictionaries(
    {
        "shards": st.integers(1, 6),
        "batch_size": st.sampled_from([1, 4, 32]),
        "queue_capacity": st.sampled_from([4, 64, 1024]),
        "kernel": st.sampled_from(["tree", "dense"]),
        "kernel_cap": st.sampled_from([3, 20]),
    }
)

workload_params = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 7),
        "n_licenses": st.sampled_from([6, 12, 18]),
        "target_groups": st.integers(2, 5),
        "stream_len": st.sampled_from([40, 120]),
        "skew": st.sampled_from([0.0, 0.8]),
    }
)


class TestAllBackendParity:
    """Both backends: verdicts byte-identical, equations equal."""

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(config=service_configs, params=workload_params)
    def test_verdicts_and_equations_identical(self, config, params):
        pool, stream = workload_for(**params)
        assert serve(pool, stream, executor="resident", **config) == serve(
            pool, stream, executor="serial", **config
        )

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        params=workload_params,
        kernel=st.sampled_from(["tree", "dense"]),
    )
    def test_overload_burst_mid_stream(self, params, kernel):
        """A queue_capacity small enough to overflow mid-stream forces
        ServiceOverloadedError-driven early drains; the verdict stream
        must still be identical across backends (overload never drops a
        request in process(), it only reorders *drains*)."""
        pool, stream = workload_for(**params)
        config = dict(
            shards=2, batch_size=4, queue_capacity=2, kernel=kernel
        )
        assert serve(pool, stream, executor="resident", **config) == serve(
            pool, stream, executor="serial", **config
        )
