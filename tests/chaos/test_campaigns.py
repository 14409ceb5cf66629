"""End-to-end chaos campaigns: determinism, presets, hand-built plans.

These run real (small) campaigns — a full quick campaign costs about a
second of wall clock — so the acceptance criteria of the chaos engine
are checked for real: corruption detected, repair converging, failover
consistent, and byte-identical reports for identical seeds.
"""

import pytest

from repro.chaos import (ChaosEngine, FaultPlan, LinkPartition,
                         WireCorruption, build_chaos_environment,
                         build_plan, run_campaign)
from repro.chaos.plan import PRESETS


def detections(report):
    return sum(value for key, value in report.counters.items()
               if "detected" in key)


class TestQuickCampaign:
    @pytest.fixture(scope="class")
    def report(self):
        return run_campaign(seed=7, preset="quick")

    def test_passes_end_to_end(self, report):
        assert report.passed
        assert report.violations == []
        assert report.converged
        assert report.final_entry_lag == 0

    def test_failover_still_consistent_after_the_storm(self, report):
        assert report.failover_checked
        assert report.failover_consistent
        assert report.lost_committed_orders == 0

    def test_corruption_was_injected_and_caught(self, report):
        # quick always includes wire + journal corruption faults
        assert report.counters["corrupted_payloads_injected"] >= 1
        assert detections(report) >= 1
        assert report.counters["repair_resyncs_total"] >= 1

    def test_business_made_progress_through_the_storm(self, report):
        assert report.orders_completed > 0

    def test_render_is_presentable(self, report):
        text = report.render()
        assert "chaos campaign 'quick' seed=7: PASS" in text
        assert "fault timeline" in text
        assert "digest:" in text


class TestCoalescingCampaign:
    """The quick storm with transfer-side coalescing enabled.

    Coalescing interacts with exactly the machinery chaos stresses —
    partial batches, quarantined entries, resync — so the full quick
    campaign (corruption, partition, failover verification) must hold
    with ``coalesce_overwrites=True`` just as it does without.
    """

    @pytest.fixture(scope="class")
    def report(self):
        return run_campaign(
            seed=7, preset="quick",
            adc_overrides=dict(coalesce_overwrites=True))

    def test_passes_end_to_end(self, report):
        assert report.passed
        assert report.violations == []
        assert report.converged
        assert report.final_entry_lag == 0

    def test_failover_still_consistent(self, report):
        assert report.failover_checked
        assert report.failover_consistent
        assert report.lost_committed_orders == 0

    def test_corruption_still_detected(self, report):
        assert report.counters["corrupted_payloads_injected"] >= 1
        assert detections(report) >= 1


class TestPipelinedCampaign:
    """The quick storm with the transfer window open.

    Pipelining keeps several batches in flight across exactly the
    faults chaos throws at the wire — partitions under in-flight
    shipments, corrupted entries mid-window, journal squeezes — so the
    full quick campaign must hold with ``transfer_window=4`` just as
    it does stop-and-wait, and stay seed-deterministic.
    """

    @pytest.fixture(scope="class")
    def report(self):
        return run_campaign(
            seed=7, preset="quick",
            adc_overrides=dict(transfer_window=4))

    def test_passes_end_to_end(self, report):
        assert report.passed
        assert report.violations == []
        assert report.converged
        assert report.final_entry_lag == 0

    def test_failover_still_consistent(self, report):
        assert report.failover_checked
        assert report.failover_consistent
        assert report.lost_committed_orders == 0

    def test_corruption_still_detected(self, report):
        assert report.counters["corrupted_payloads_injected"] >= 1
        assert detections(report) >= 1

    def test_windowed_run_is_deterministic(self, report):
        again = run_campaign(seed=7, preset="quick",
                             adc_overrides=dict(transfer_window=4))
        assert again.digest == report.digest
        assert again.timeline == report.timeline
        assert again.counters == report.counters


class TestRestoreConcurrencyCampaign:
    """The quick storm with windowed parallel restore.

    Restore windows sit under exactly the machinery chaos stresses —
    quarantined entries mid-window, partitions between windows,
    targeted repair resync — so the full quick campaign must hold with
    ``restore_concurrency=4`` just as it does serially and stay
    seed-deterministic.
    """

    @pytest.fixture(scope="class")
    def report(self):
        return run_campaign(
            seed=7, preset="quick",
            adc_overrides=dict(restore_concurrency=4))

    def test_passes_end_to_end(self, report):
        assert report.passed
        assert report.violations == []
        assert report.converged
        assert report.final_entry_lag == 0

    def test_failover_still_consistent(self, report):
        assert report.failover_checked
        assert report.failover_consistent
        assert report.lost_committed_orders == 0

    def test_corruption_still_detected(self, report):
        assert report.counters["corrupted_payloads_injected"] >= 1
        assert detections(report) >= 1

    def test_run_is_deterministic(self, report):
        again = run_campaign(seed=7, preset="quick",
                             adc_overrides=dict(restore_concurrency=4))
        assert again.digest == report.digest
        assert again.timeline == report.timeline
        assert again.counters == report.counters


class TestDeterminism:
    def test_same_seed_same_digest(self):
        first = run_campaign(seed=21, preset="quick",
                             verify_failover=False)
        second = run_campaign(seed=21, preset="quick",
                              verify_failover=False)
        assert first.passed and second.passed
        assert first.digest == second.digest
        assert first.timeline == second.timeline
        assert first.counters == second.counters

    def test_same_seed_same_plan(self):
        plans = []
        for _ in range(2):
            env = build_chaos_environment(seed=42)
            plans.append(build_plan(env.sim, PRESETS["quick"]))
        assert plans[0].describe() == plans[1].describe()

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign preset"):
            run_campaign(seed=7, preset="hurricane")


class TestHandWrittenPlan:
    def test_engine_runs_an_explicit_schedule(self):
        env = build_chaos_environment(seed=9)
        plan = FaultPlan(
            name="handmade", fault_window=0.6, converge_timeout=3.0,
            faults=(WireCorruption(0.05, 0.2, probability=1.0),
                    LinkPartition(0.30, 0.10)))
        engine = ChaosEngine(env, plan)
        report = engine.run(verify_failover=False)
        assert report.passed
        kinds = [(event.kind, event.action) for event in report.timeline]
        assert ("wire-corruption", "inject") in kinds
        assert ("wire-corruption", "heal") in kinds
        assert ("link-partition", "inject") in kinds
        assert ("link-partition", "heal") in kinds
        assert report.counters[
            "integrity_corruptions_detected_total[wire]"] >= 1
