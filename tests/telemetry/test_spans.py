"""Span tracing tests: unit-level tracer behaviour and the end-to-end
causal integrity of the replication write path.

The acceptance property for the telemetry subsystem lives here: every
``restore-apply`` span at the backup site is causally linked to the
host-write (or initial-copy/resync) span that produced the data, and
the consistency group's apply order can be read off the spans alone.
"""

import pytest

from repro.simulation import Simulator
from repro.telemetry import (Tracer, chrome_trace, replication_lag_report,
                             stage_breakdown)
from tests.storage.conftest import build_two_site, fast_adc, run


class TestTracerUnit:
    def _tracer(self):
        clock = {"now": 0.0}
        return clock, Tracer(clock=lambda: clock["now"])

    def test_parent_child_linkage(self):
        clock, tracer = self._tracer()
        root = tracer.start("root")
        child = tracer.start("child", parent=root)
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert tracer.children(root) == [child]
        assert list(tracer.roots()) == [root]

    def test_raw_context_linkage(self):
        """The form that rides inside a JournalEntry across the hop."""
        clock, tracer = self._tracer()
        origin = tracer.start("host-write")
        remote = tracer.start("restore-apply", trace_id=origin.trace_id,
                              parent_id=origin.span_id)
        assert remote.trace_id == origin.trace_id
        assert tracer.by_id(remote.parent_id) is origin

    def test_finish_records_duration_and_attrs(self):
        clock, tracer = self._tracer()
        span = tracer.start("op", volume=3)
        clock["now"] = 0.25
        tracer.finish(span, status="ok", applied=True)
        assert span.duration == pytest.approx(0.25)
        assert span.attrs == {"volume": 3, "applied": True}
        with pytest.raises(ValueError):
            tracer.finish(span)

    def test_ring_cap_evicts_oldest(self):
        clock = {"now": 0.0}
        tracer = Tracer(clock=lambda: clock["now"], max_spans=3)
        spans = [tracer.start(f"s{i}") for i in range(5)]
        assert len(tracer) == 3
        assert tracer.dropped == 2
        # oldest-first: the survivors are the newest three, in order
        assert list(tracer.spans) == spans[2:]
        for evicted in spans[:2]:
            assert tracer.by_id(evicted.span_id) is None
        for kept in spans[2:]:
            assert tracer.by_id(kept.span_id) is kept
        # the ring keeps evicting oldest-first past the cap
        later = [tracer.start(f"t{i}") for i in range(2)]
        assert tracer.dropped == 4
        assert list(tracer.spans) == spans[4:] + later
        assert tracer.by_id(spans[3].span_id) is None
        assert tracer.by_id(later[1].span_id) is later[1]

    def test_deterministic_ids(self):
        _clock, tracer = self._tracer()
        first = tracer.start("a")
        second = tracer.start("b")
        assert (first.trace_id, first.span_id) == ("t0001", "s000001")
        assert (second.trace_id, second.span_id) == ("t0002", "s000002")


class TestStageBreakdownWeighting:
    """Batch spans carrying a ``writes`` attribute weigh in as that
    many units, so breakdown counts line up with write counters."""

    def _tracer(self):
        clock = {"now": 0.0}
        return clock, Tracer(clock=lambda: clock["now"])

    def _finish_at(self, clock, tracer, span, end):
        clock["now"] = end
        tracer.finish(span)

    def test_writes_attr_weights_count_and_mean(self):
        clock, tracer = self._tracer()
        # a 10-write batch taking 10ms and a 1-write batch taking 1ms
        big = tracer.start("host-write-batch", writes=10)
        self._finish_at(clock, tracer, big, 0.010)
        clock["now"] = 0.010
        small = tracer.start("host-write-batch", writes=1)
        self._finish_at(clock, tracer, small, 0.011)
        stats = {s.name: s for s in stage_breakdown(tracer)}
        batch = stats["host-write-batch"]
        assert batch.count == 11  # writes, not batches
        # the mean a *write* experienced: (10*10ms + 1*1ms) / 11
        assert batch.mean == pytest.approx(0.101 / 11)
        assert batch.maximum == pytest.approx(0.010)

    def test_spans_without_writes_attr_count_once(self):
        clock, tracer = self._tracer()
        span = tracer.start("transfer-batch", entries=50)
        self._finish_at(clock, tracer, span, 0.002)
        stats = {s.name: s for s in stage_breakdown(tracer)}
        assert stats["transfer-batch"].count == 1

    def test_non_positive_or_non_int_writes_ignored(self):
        clock, tracer = self._tracer()
        for bogus in (0, -3, "many", 2.5):
            span = tracer.start("host-write-batch", writes=bogus)
            self._finish_at(clock, tracer, span, clock["now"] + 0.001)
        assert {s.name: s for s in stage_breakdown(tracer)}[
            "host-write-batch"].count == 4


class TestChromeTrace:
    def _tracer(self):
        clock = {"now": 0.0}
        return clock, Tracer(clock=lambda: clock["now"])

    def test_exports_complete_events_in_microseconds(self):
        clock, tracer = self._tracer()
        root = tracer.start("host-write", volume=3)
        clock["now"] = 0.002
        child = tracer.start("restore-apply", parent=root)
        clock["now"] = 0.005
        tracer.finish(child, status="ok")
        tracer.finish(root)
        unfinished = tracer.start("dangling")
        document = chrome_trace(tracer)
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        assert len(events) == 2  # the unfinished span is excluded
        assert unfinished.name not in [e["name"] for e in events]
        by_name = {event["name"]: event for event in events}
        write = by_name["host-write"]
        assert write["ph"] == "X"
        assert write["ts"] == pytest.approx(0.0)
        assert write["dur"] == pytest.approx(5000.0)
        assert write["tid"] == root.trace_id
        assert write["args"]["volume"] == 3
        apply_event = by_name["restore-apply"]
        assert apply_event["ts"] == pytest.approx(2000.0)
        assert apply_event["args"]["parent_id"] == root.span_id

    def test_document_is_json_serialisable(self):
        import json
        clock, tracer = self._tracer()
        tracer.finish(tracer.start("op", flag=True))
        encoded = json.dumps(chrome_trace(tracer), sort_keys=True)
        assert json.loads(encoded)["traceEvents"][0]["name"] == "op"


def _build_cg(sim, volumes=2, blocks=64):
    """Two-site system with one consistency group over ``volumes`` pairs.

    Volumes are empty at pairing time, so every journal entry — and
    therefore every restore-apply span — originates from a host write.
    """
    site = build_two_site(sim, adc=fast_adc())
    main_jnl = site.main.create_journal(site.main_pool_id, 10_000)
    backup_jnl = site.backup.create_journal(site.backup_pool_id, 10_000)
    site.main.create_journal_group("cg", main_jnl.journal_id, site.backup,
                                   backup_jnl.journal_id, site.link)
    pairs = []
    for index in range(volumes):
        pvol = site.main.create_volume(site.main_pool_id, blocks)
        svol = site.backup.create_volume(site.backup_pool_id, blocks)
        site.main.create_async_pair(f"pair-{index}", "cg", pvol.volume_id,
                                    site.backup, svol.volume_id)
        pairs.append((pvol, svol))
    return site, pairs


class TestWritePathCausality:
    """The tentpole acceptance test: RPO and CG ordering from spans alone."""

    def _run_interleaved_writes(self, sim, site, pairs, writes=30):
        def writer(sim):
            for i in range(writes):
                pvol, _svol = pairs[i % len(pairs)]
                yield from site.main.host_write(pvol.volume_id, i % 16,
                                                b"w%d" % i)

        run(sim, writer(sim))
        sim.run(until=sim.now + 1.0)  # converge transfer + restore

    def test_every_restore_apply_links_to_a_host_write(self):
        sim = Simulator(seed=21)
        site, pairs = _build_cg(sim)
        self._run_interleaved_writes(sim, site, pairs)
        tracer = sim.telemetry.tracer
        applies = [s for s in tracer.named("restore-apply") if s.finished]
        writes = {s.span_id: s for s in tracer.named("host-write")}
        assert applies, "no restore-apply spans were recorded"
        for span in applies:
            assert span.parent_id is not None, \
                f"restore-apply {span.span_id} has no causal parent"
            parent = tracer.by_id(span.parent_id)
            assert parent is not None
            assert parent.name == "host-write"
            assert parent.trace_id == span.trace_id
            assert parent.span_id in writes
            # the apply happened after the host ack, on the backup array
            assert span.start >= parent.end
            assert span.attrs["applied"] is True

    def test_cg_apply_order_matches_host_ack_order(self):
        """Reading only spans, the consistency group applies updates in
        exactly the order the main site acknowledged them."""
        sim = Simulator(seed=22)
        site, pairs = _build_cg(sim)
        self._run_interleaved_writes(sim, site, pairs, writes=40)
        tracer = sim.telemetry.tracer
        applies = [s for s in tracer.named("restore-apply")
                   if s.finished and s.attrs.get("applied")]
        assert len(applies) == 40
        ack_seqs = []
        for span in applies:  # tracer stores spans in creation order
            parent = tracer.by_id(span.parent_id)
            ack_seqs.append(parent.attrs["ack_seq"])
        assert ack_seqs == sorted(ack_seqs)
        assert len(set(ack_seqs)) == len(ack_seqs)

    def test_replication_lag_report_bounds_rpo(self):
        sim = Simulator(seed=23)
        site, pairs = _build_cg(sim)
        self._run_interleaved_writes(sim, site, pairs)
        report = replication_lag_report(sim.telemetry.tracer)
        assert report.unapplied == 0  # everything converged
        assert report.applied == 30
        assert 0.0 < report.worst_lag < 1.0
        assert report.mean_lag <= report.worst_lag

    def test_transfer_batch_spans_account_for_all_entries(self):
        sim = Simulator(seed=24)
        site, pairs = _build_cg(sim)
        self._run_interleaved_writes(sim, site, pairs)
        tracer = sim.telemetry.tracer
        batches = [s for s in tracer.named("transfer-batch")
                   if s.finished and s.status == "ok"]
        assert batches
        assert sum(s.attrs["entries"] for s in batches) == 30
        breakdown = {s.name: s for s in stage_breakdown(tracer)}
        assert breakdown["transfer-batch"].count == len(batches)
        # every batch pays at least the link latency
        assert breakdown["transfer-batch"].mean >= site.link.latency

    def test_initial_copy_entries_parent_to_initial_copy_span(self):
        """Pre-existing data keeps the causal invariant total: its
        restore-applies parent to the initial-copy span, not a write."""
        sim = Simulator(seed=25)
        site = build_two_site(sim, adc=fast_adc())
        pvol = site.main.create_volume(site.main_pool_id, 64)
        for block in range(5):
            run(sim, site.main.host_write(pvol.volume_id, block, b"pre"))
        svol = site.backup.create_volume(site.backup_pool_id, 64)
        main_jnl = site.main.create_journal(site.main_pool_id, 1000)
        backup_jnl = site.backup.create_journal(site.backup_pool_id, 1000)
        site.main.create_journal_group("jg", main_jnl.journal_id,
                                       site.backup, backup_jnl.journal_id,
                                       site.link)
        site.main.create_async_pair("pair", "jg", pvol.volume_id,
                                    site.backup, svol.volume_id)
        sim.run(until=sim.now + 1.0)
        tracer = sim.telemetry.tracer
        copies = tracer.named("initial-copy")
        assert len(copies) == 1
        applies = [s for s in tracer.named("restore-apply") if s.finished]
        assert len(applies) == 5
        for span in applies:
            assert span.trace_id == copies[0].trace_id
            assert tracer.by_id(span.parent_id) is copies[0]
