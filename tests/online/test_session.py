"""Unit tests for online issuance sessions."""

import pytest

from repro.errors import ValidationError
from repro.core.validator import GroupedValidator
from repro.licenses.pool import LicensePool
from repro.online.session import IssuanceSession
from repro.online.strategies import FirstFit, GreedyMaxRemaining, LastFit
from repro.workloads.config import WorkloadConfig
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.scenarios import example1, figure2_pool, figure2_usages


@pytest.fixture
def scenario():
    return example1()


class TestExample1Pathology:
    """Section 2.1: random/naive selection strands capacity; the
    equation-based policy does not."""

    def test_last_fit_rejects_lu2(self, scenario):
        session = IssuanceSession(scenario.pool, LastFit())
        first = session.issue(scenario.usages[0])
        second = session.issue(scenario.usages[1])
        assert first.accepted and first.charged_to == 2
        assert not second.accepted
        assert second.rejection_reason == "capacity"

    def test_first_fit_accepts_both(self, scenario):
        # The paper's "better solution": L_U^1 via L_D^1, L_U^2 via L_D^2.
        session = IssuanceSession(scenario.pool, FirstFit())
        outcomes = [session.issue(usage) for usage in scenario.usages]
        assert [outcome.accepted for outcome in outcomes] == [True, True]
        assert outcomes[0].charged_to == 1
        assert outcomes[1].charged_to == 2

    def test_equation_policy_accepts_both(self, scenario):
        session = IssuanceSession(scenario.pool, "equation")
        outcomes = [session.issue(usage) for usage in scenario.usages]
        assert [outcome.accepted for outcome in outcomes] == [True, True]

    def test_greedy_accepts_both(self, scenario):
        session = IssuanceSession(scenario.pool, GreedyMaxRemaining())
        outcomes = [session.issue(usage) for usage in scenario.usages]
        assert [outcome.accepted for outcome in outcomes] == [True, True]


class TestInstanceRejection:
    def test_unmatched_usage_rejected(self):
        pool = figure2_pool()
        usages = figure2_usages()
        session = IssuanceSession(pool, "equation")
        inside_ld4 = session.issue(usages[0])
        inside_nothing = session.issue(usages[1])
        assert inside_ld4.accepted
        assert inside_ld4.license_set == (4,)
        assert not inside_nothing.accepted
        assert inside_nothing.rejection_reason == "instance"


class TestSessionState:
    def test_log_only_records_accepted(self, scenario):
        session = IssuanceSession(scenario.pool, LastFit())
        for usage in scenario.usages:
            session.issue(usage)
        assert len(session.log) == 1  # L_U^2 was rejected
        assert session.accepted_counts == 800

    def test_outcomes_in_order(self, scenario):
        session = IssuanceSession(scenario.pool, FirstFit())
        for usage in scenario.usages:
            session.issue(usage)
        assert [outcome.usage_id for outcome in session.outcomes] == ["LU1", "LU2"]

    def test_remaining_in_strategy_mode(self, scenario):
        session = IssuanceSession(scenario.pool, FirstFit())
        session.issue(scenario.usages[0])
        assert session.remaining[1] == 1200
        assert session.remaining[2] == 1000

    def test_remaining_unavailable_in_equation_mode(self, scenario):
        session = IssuanceSession(scenario.pool, "equation")
        with pytest.raises(ValidationError):
            session.remaining

    def test_policy_name(self, scenario):
        assert IssuanceSession(scenario.pool, FirstFit()).policy_name == "first-fit"
        assert IssuanceSession(scenario.pool, "equation").policy_name == "equation"

    def test_empty_pool_rejected(self):
        with pytest.raises(ValidationError):
            IssuanceSession(LicensePool(), "equation")

    def test_unknown_policy_string_rejected(self, scenario):
        with pytest.raises(ValidationError):
            IssuanceSession(scenario.pool, "magic")


class TestEquationPolicyExactness:
    def test_accepted_log_always_validates(self):
        # Stream usage licenses through the equation policy: the accepted
        # log must pass offline grouped validation at every point (the
        # policy never lets the log go infeasible).  Aggregates are
        # small, so rejections occur.  The 64-license pool of sixteen
        # 4-license groups checks that a query pays for its own group
        # only, never for a table over the whole pool.
        configs = (
            WorkloadConfig(
                n_licenses=6, seed=2, n_records=0, aggregate_range=(200, 400)
            ),
            WorkloadConfig(
                n_licenses=64,
                seed=2,
                n_records=0,
                target_groups=16,
                aggregate_range=(40, 100),
            ),
        )
        for config in configs:
            generator = WorkloadGenerator(config)
            pool = generator.generate_pool()
            session = IssuanceSession(pool, "equation")
            validator = GroupedValidator.from_pool(pool)
            rejections = 0
            stream = generator.issue_stream(pool, 200)
            for issued, usage in enumerate(stream, start=1):
                outcome = session.issue(usage)
                rejections += not outcome.accepted
                if issued % 25 == 0:
                    assert validator.validate(session.log).is_valid
            assert validator.validate(session.log).is_valid
            # With tight aggregates the stream must eventually hit
            # capacity.
            assert rejections > 0

    def test_equation_policy_never_rejects_what_fits(self, scenario):
        # Fill L_D^2 exactly to its limit through flexible sets.
        session = IssuanceSession(scenario.pool, "equation")
        factory_usage = scenario.usages[0]
        outcome = session.issue(factory_usage)  # 800 via {1,2}
        assert outcome.accepted
        # 400 more against {2} fits because the 800 can route to L_D^1.
        outcome2 = session.issue(scenario.usages[1])
        assert outcome2.accepted
