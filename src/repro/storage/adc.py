"""Asynchronous data copy: journal groups (the ADC of §III-A1).

A :class:`JournalGroup` is one shared journal pipeline between a main
array and a backup array:

* the **append** side runs inside the host-write path: after the local
  block write, the update is appended to the main journal volume and the
  write is acknowledged — the host never waits for the network;
* the **transfer** process wakes periodically (with jitter, so distinct
  groups drift apart exactly like independent links in a real system),
  ships a batch of entries over the inter-site link, and ingests them
  into the backup journal volume; with ``transfer_window > 1`` it
  *pipelines* — several fixed-size batches of ``transfer_batch`` entries
  ride the link concurrently (FIFO on the shared-bandwidth wire) while
  receive-side ingest stays strictly in sequence order;
* the **restore** process applies ingested entries to the secondary
  volumes *in sequence order*, in windows of up to ``restore_concurrency``
  entries that each commit at one instant, pausing at window boundaries
  while the restore gate is closed (snapshot-group quiesce).

A **consistency group** is nothing more than several pairs sharing one
journal group: one sequence counter ⇒ the backup cut is a prefix of the
main site's ack order across every member volume.  "ADC without a
consistency group" — the configuration the paper warns collapses backup
data — is modelled by giving each pair its own journal group, whose
transfer loops drift independently.

Failure handling mirrors a real array: journal overflow or a persistently
down link suspends the pairs (``PSUE``); writes then continue *without
protection* and are tracked as dirty blocks so a later ``resync`` can
re-establish the mirror.

**End-to-end integrity**: every journal entry carries a CRC32 computed at
append time, verified at *transfer-receive* (before ingest into the
backup journal) and again at *restore-apply* (before the media write).
A failed check quarantines the entry — the corrupted payload never
touches a secondary volume — marks its block dirty, suspends the pairs
(``PSUE``), and, when ``AdcConfig.auto_repair`` is on, drives an
automated **targeted resync** that re-journals only the affected dirty
ranges once the link is healthy.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import (TYPE_CHECKING, Callable, Deque, Dict, Generator, List,
                    Optional, Tuple)

from repro.errors import ReplicationError
from repro.simulation.network import LinkDownError, NetworkLink
from repro.simulation.resources import Gate
from zlib import crc32 as _crc32

from repro.storage.journal import (JournalEntry, JournalFullError,
                                   JournalVolume)
from repro.storage.reduction import (DISABLED_REDUCTION, EncodedPayload,
                                     ReductionConfig, WireReducer)
from repro.storage.replication import PairState, ReplicationPair
from repro.telemetry.spans import Span

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulation.kernel import Simulator
    from repro.storage.volume import Volume

#: journal appends land in array cache; far cheaper than media writes
JOURNAL_APPEND_LATENCY = 0.00005
#: minimum spacing between lag-gauge samples while the transfer loop is
#: idle (journal empty), so long idle soaks don't accumulate one
#: redundant sample per wake-up
IDLE_LAG_SAMPLE_INTERVAL = 0.05
#: wake-up period of the auto-repair loop
REPAIR_DELAY = 0.02
#: auto-repair wake-ups before giving up (operator takes over);
#: :meth:`JournalGroup.ensure_repair` re-arms the loop
REPAIR_MAX_ATTEMPTS = 200


@dataclass(frozen=True)
class AdcConfig:
    """Tuning knobs of the asynchronous copy pipeline.

    ``transfer_interval``/``restore_interval`` are the wake-up periods of
    the two background loops; ``interval_jitter`` desynchronises loops of
    different journal groups (the physical cause of backup-data collapse
    without a consistency group).  E7 sweeps ``transfer_interval``; E8
    sweeps the number of pairs per group.
    """

    transfer_interval: float = 0.005
    transfer_batch: int = 512
    #: transfer batches kept in flight concurrently.  1 is the classic
    #: stop-and-wait loop (sleep, ship a batch, wait out the full link
    #: RTT, repeat); >1 pipelines: batches N+1.. serialise behind batch
    #: N on the link's FIFO wire, hiding the propagation latency, while
    #: receive-side ingest stays strictly in sequence order.
    transfer_window: int = 1
    restore_interval: float = 0.002
    restore_batch: int = 512
    interval_jitter: float = 0.5
    #: restore applies per window.  1 = strictly serial (every instant
    #: is a prefix of the journal order); >1 takes up to this many
    #: entries as one window, coalesces same-(volume, block) conflicts
    #: last-writer-wins, overlaps the media writes and commits the
    #: whole window at one instant — the prefix property then holds at
    #: window boundaries, which is where quiesce/snapshot operations
    #: synchronise anyway.  Real arrays restore with internal
    #: parallelism like this; E8 sweeps the knob.
    restore_concurrency: int = 1
    #: verify entry CRC32s at transfer-receive and restore-apply.
    #: Disabling reproduces the silent-corruption baseline the chaos
    #: campaigns contrast against.
    verify_integrity: bool = True
    #: collapse same-(volume, block) superseded overwrites within one
    #: transfer batch: only the last writer of each address crosses the
    #: wire.  CG sequence semantics are preserved — the survivor is by
    #: construction the newest write of its address and the batch tail
    #: always survives, so the restored cut still advances to the
    #: window's high sequence.  Off by default (ship-everything is the
    #: paper's §III-A1 baseline); E7 quantifies the wire-byte saving.
    coalesce_overwrites: bool = False
    #: after an integrity quarantine, automatically resync the affected
    #: dirty ranges once the link is healthy (self-healing repair)
    auto_repair: bool = True
    #: wire data reduction (fingerprint dedup + inline compression) for
    #: the transfer path; off by default — the wire then carries every
    #: payload byte verbatim, exactly as before
    reduction: ReductionConfig = DISABLED_REDUCTION

    def __post_init__(self) -> None:
        if self.transfer_interval <= 0 or self.restore_interval <= 0:
            raise ValueError("intervals must be > 0")
        if self.transfer_batch < 1 or self.restore_batch < 1:
            raise ValueError("batch sizes must be >= 1")
        if self.transfer_window < 1:
            raise ValueError("transfer_window must be >= 1")
        if self.restore_concurrency < 1:
            raise ValueError("restore_concurrency must be >= 1")
        if not 0 <= self.interval_jitter < 1:
            raise ValueError("interval_jitter must be in [0, 1)")
        if not isinstance(self.reduction, ReductionConfig):
            raise ValueError("reduction must be a ReductionConfig")


@dataclass
class _Shipment:
    """One in-flight batch of the transfer loop.

    ``batch`` is the peeked journal window, ``ship`` the coalesced
    subset actually crossing the wire, ``survivor`` the coalesce map
    (None when coalescing is off).  ``proc`` is the shipment's own
    process, or None when it ships inline.  A link failure mid-flight
    lands in ``error`` instead of propagating, so the loop can join
    shipments head-first and keep the receive side in sequence order.
    """

    batch: List[JournalEntry]
    ship: List[JournalEntry]
    survivor: Optional[Dict[Tuple[int, int], int]]
    payload_bytes: int
    #: per-entry wire encodings when reduction is on (None = verbatim);
    #: nothing is cache-committed until the shipment is received, so a
    #: discarded shipment's encodings roll back for free
    encodings: Optional[List[EncodedPayload]] = None
    span: Optional[Span] = None
    proc: object = None
    error: Optional[BaseException] = None


class JournalGroup:
    """One ADC pipeline: shared journal, transfer loop, restore loop."""

    def __init__(self, sim: "Simulator", group_id: str,
                 main_journal: JournalVolume,
                 backup_journal: JournalVolume,
                 link: NetworkLink,
                 config: Optional[AdcConfig] = None) -> None:
        self.sim = sim
        self.group_id = group_id
        self.main_journal = main_journal
        self.backup_journal = backup_journal
        self.link = link
        self.config = config or AdcConfig()
        self.pairs: Dict[str, ReplicationPair] = {}
        self._pairs_by_pvol: Dict[int, ReplicationPair] = {}
        self._svol_by_pvol: Dict[int, "Volume"] = {}
        #: highest sequence ingested into the backup journal
        self.transferred_sequence = -1
        #: highest sequence applied to secondary volumes
        self.restored_sequence = -1
        #: pauses the restore loop at entry boundaries (snapshot quiesce)
        self.restore_gate = Gate(sim, open_=True,
                                 name=f"jg-{group_id}.restore-gate")
        self.suspended = False
        self.suspend_reason = ""
        #: True while the restore loop is mid-apply (snapshot quiesce
        #: waits for this to clear after closing the gate)
        self.applying = False
        self._running = False
        self._transfer_enabled = True
        self._transfer_proc = None
        self._restore_proc = None
        self._repair_proc = None
        #: entries whose CRC32 failed; never applied, kept for forensics
        self.quarantine: List[JournalEntry] = []
        #: fault-injection hook: transforms each entry as it crosses the
        #: wire (chaos wire-corruption faults install one); None = clean
        self._wire_injector: Optional[
            Callable[[JournalEntry], JournalEntry]] = None
        #: simulated time of the last lag-gauge sample (bounds the idle
        #: sampling cadence of the transfer loop)
        self._lag_sampled_at = float("-inf")
        #: wire data-reduction engine (no-op object when disabled);
        #: shared by the transfer loop and the resync traffic riding it
        self.reducer = WireReducer(sim, self.config.reduction,
                                   group=group_id)
        # -- observability ---------------------------------------------------
        # instruments live in the simulation's metrics registry, keyed
        # by group; the attributes below are the same objects the
        # registry renders, so legacy call sites keep working
        registry = sim.telemetry.registry
        self.tracer = sim.telemetry.tracer
        self.recorder = sim.telemetry.recorder
        self.lag_entries = registry.gauge(
            "repro_journal_lag_entries",
            help="Journal entry lag sampled by the transfer loop",
            unit="entries", group=group_id)
        self.lag_seconds = registry.gauge(
            "repro_journal_lag_seconds",
            help="Age of the oldest unshipped main-journal entry",
            unit="seconds", group=group_id)
        self.peak_entries_gauge = registry.gauge(
            "repro_journal_main_peak_entries",
            help="Peak occupancy of the main journal",
            unit="entries", group=group_id)
        self.transferred_count = registry.counter(
            "repro_journal_transferred_entries_total",
            help="Entries shipped main -> backup journal", group=group_id)
        self.restored_count = registry.counter(
            "repro_journal_restored_entries_total",
            help="Entries applied to secondary volumes", group=group_id)
        self.suspensions = registry.counter(
            "repro_journal_suspensions_total",
            help="Group suspensions (journal full, link down)",
            group=group_id)
        self.transfer_batches = registry.counter(
            "repro_journal_transfer_batches_total",
            help="Batches shipped over the inter-site link",
            group=group_id)
        self.transfer_bytes = registry.counter(
            "repro_journal_transfer_bytes_total",
            help="Logical (pre-reduction) bytes shipped over the "
                 "inter-site link", unit="bytes", group=group_id)
        self.coalesced_count = registry.counter(
            "repro_transfer_coalesced_total",
            help="Superseded overwrites collapsed before crossing the "
                 "wire (coalesce_overwrites)", group=group_id)
        self.corruptions_wire = registry.counter(
            "repro_integrity_corruptions_detected_total",
            help="Entry CRC32 failures caught before reaching the backup",
            where="wire", source=group_id)
        self.corruptions_journal = registry.counter(
            "repro_integrity_corruptions_detected_total",
            help="Entry CRC32 failures caught before reaching the backup",
            where="journal", source=group_id)
        self.repair_resyncs = registry.counter(
            "repro_repair_resyncs_total",
            help="Automated targeted resyncs driven by integrity repair",
            group=group_id)
        self.copy_skipped = registry.counter(
            "repro_copy_skipped_blocks_total",
            help="Resync blocks whose (version, crc32) negotiation "
                 "proved the secondary current — they never crossed "
                 "the wire", group=group_id)

    # -- pair management ------------------------------------------------------

    def add_pair(self, pair: ReplicationPair) -> None:
        """Attach a pair and enqueue its initial copy through the journal.

        The initial copy is journaled like ordinary updates (sequence
        numbers assigned now), so concurrent host writes interleave
        correctly with it and the S-VOL converges in order.  The pair
        reports ``COPY`` until the restore pipeline passes the watermark.
        """
        if pair.pair_id in self.pairs:
            raise ReplicationError(
                f"group {self.group_id}: duplicate pair {pair.pair_id}")
        if pair.pvol.volume_id in self._pairs_by_pvol:
            raise ReplicationError(
                f"group {self.group_id}: volume {pair.pvol.volume_id} "
                "already paired")
        self.pairs[pair.pair_id] = pair
        self._pairs_by_pvol[pair.pvol.volume_id] = pair
        self._svol_by_pvol[pair.pvol.volume_id] = pair.svol
        pair.observer = self._observe_pair
        watermark = -1
        blocks = sorted(pair.pvol.block_map().items())
        # pre-existing blocks ride the journal under an initial-copy
        # span, so their restore applies have a causal parent too
        copy_span = None
        if blocks:
            copy_span = self.tracer.start(
                "initial-copy", group=self.group_id, pair=pair.pair_id,
                volume=pair.pvol.volume_id, blocks=len(blocks))
        for block, value in blocks:
            entry = self._append_entry(
                pair.pvol.volume_id, block, value.payload, value.version,
                trace_id=copy_span.trace_id if copy_span else None,
                span_id=copy_span.span_id if copy_span else None,
                checksum=value.checksum)
            if entry is not None:
                watermark = entry.sequence
        if copy_span is not None:
            self.tracer.finish(copy_span, watermark=watermark)
        pair.copy_watermark = watermark
        if watermark < 0:
            pair.initial_copy_done = True

    def remove_pair(self, pair_id: str) -> ReplicationPair:
        """Detach a pair (pair deletion); returns it."""
        pair = self.pairs.pop(pair_id, None)
        if pair is None:
            raise ReplicationError(
                f"group {self.group_id}: unknown pair {pair_id}")
        del self._pairs_by_pvol[pair.pvol.volume_id]
        del self._svol_by_pvol[pair.pvol.volume_id]
        return pair

    # -- host-write side -------------------------------------------------------

    def journal_append(self, volume_id: int, block: int, payload: bytes,
                       version: int, span: Optional[Span] = None,
                       checksum: Optional[int] = None,
                       ) -> Generator[object, object, bool]:
        """Append one host write to the main journal (host-write path).

        Returns True when the write is protected (journaled), False when
        the group is suspended and the write was only marked dirty.  The
        small journal-append latency is the *entire* replication cost the
        host pays — this is the paper's "no system slowdown" mechanism.

        ``span`` is the originating host-write span; the entry carries
        its trace context to the backup site so the restore apply can
        close the causal chain.  ``checksum`` reuses the payload CRC32
        the host-write path already computed.  The one-write case of
        :meth:`journal_append_many`.
        """
        protected = yield from self.journal_append_many(
            [(volume_id, block, payload, version, checksum)], span=span)
        return protected == 1

    def journal_append_many(
            self, writes: List[tuple], span: Optional[Span] = None,
            ) -> Generator[object, object, int]:
        """Append a batch of host writes under **one** journal-append
        latency and one span (the host-write path).

        ``writes`` is a sequence of ``(volume_id, block, payload,
        version, checksum)`` in ack order.  Entries are appended in
        input order with per-write suspension semantics identical to
        serial :meth:`journal_append` calls: a journal-full on write *k*
        suspends the group and writes *k*.. are only marked dirty.
        Returns the number of protected (journaled) writes.
        """
        tracer = self.tracer
        append_span = None
        if tracer.enabled:
            append_span = tracer.start(
                "journal-append", parent=span, group=self.group_id,
                writes=len(writes))
        yield self.sim.timeout(JOURNAL_APPEND_LATENCY)
        trace_id, span_id = self._trace_context(span, append_span)
        protected = 0
        append_entry = self._append_entry
        for volume_id, block, payload, version, checksum in writes:
            entry = append_entry(volume_id, block, payload, version,
                                 trace_id=trace_id, span_id=span_id,
                                 checksum=checksum)
            if entry is not None:
                protected += 1
        if append_span is not None:
            tracer.finish(
                append_span,
                status="ok" if protected == len(writes) else "unprotected",
                protected=protected)
        return protected

    @staticmethod
    def _trace_context(span: Optional[Span], append_span: Optional[Span],
                       ) -> Tuple[Optional[str], Optional[str]]:
        """The trace context a journal entry carries across the site hop:
        the originating span's when it has one, else the append span's."""
        if span is not None and span.trace_id is not None:
            return span.trace_id, span.span_id
        if append_span is not None:
            return append_span.trace_id, append_span.span_id
        return None, None

    def _append_entry(self, volume_id: int, block: int, payload: bytes,
                      version: int, trace_id: Optional[str] = None,
                      span_id: Optional[str] = None,
                      checksum: Optional[int] = None,
                      ) -> Optional[JournalEntry]:
        pair = self._pairs_by_pvol.get(volume_id)
        if self.suspended:
            if pair is not None:
                pair.mark_dirty(volume_id, block)
            return None
        try:
            return self.main_journal.append(
                volume_id, block, payload, version, self.sim.now,
                trace_id=trace_id, span_id=span_id, checksum=checksum)
        except JournalFullError:
            self._suspend(PairState.PSUE, "main journal full")
            if pair is not None:
                pair.mark_dirty(volume_id, block)
            return None

    # -- suspension / resync -------------------------------------------------

    def _observe_pair(self, pair: ReplicationPair, event: str) -> None:
        """Pair lifecycle hook: feed transitions to the flight recorder."""
        self.recorder.record(
            "pair", pair.pair_id, group=self.group_id, event=event,
            state=pair.state.value, reason=pair.suspend_reason)

    def _suspend(self, state: PairState, reason: str) -> None:
        if self.suspended:
            return
        self.suspended = True
        self.suspend_reason = reason
        self.suspensions.increment()
        self.recorder.record("suspension", self.group_id,
                             state=state.value, reason=reason)
        for pair in self.pairs.values():
            pair.suspend(state, reason)

    def split(self) -> None:
        """Operator-initiated suspension (PSUS): stop propagating."""
        self._suspend(PairState.PSUS, "split by operator")

    # -- integrity quarantine / self-healing repair ---------------------------

    def install_wire_injector(self, injector: Optional[
            Callable[[JournalEntry], JournalEntry]]) -> None:
        """Install (or clear, with None) the wire fault-injection hook.

        The injector sees every entry between link transfer and backup
        ingest; chaos wire-corruption faults use it to flip payload bits
        without touching the checksum.
        """
        self._wire_injector = injector

    def _quarantine_entry(self, entry: JournalEntry, where: str) -> None:
        """Handle a CRC32 failure: quarantine, mark dirty, suspend, heal.

        The corrupted payload is never applied; the affected block is
        marked dirty on its pair so the repair resync re-journals *only
        the damaged range* from the primary's intact copy.
        """
        self.quarantine.append(entry)
        counter = self.corruptions_wire if where == "wire" \
            else self.corruptions_journal
        counter.increment()
        self.recorder.record(
            "quarantine", self.group_id, where=where,
            sequence=entry.sequence, volume=entry.volume_id,
            block=entry.block)
        pair = self._pairs_by_pvol.get(entry.volume_id)
        if pair is not None:
            pair.mark_dirty(entry.volume_id, entry.block)
        # a quarantine voids the reduction caches: in-flight encodings
        # behind this batch are discarded and the sender can no longer
        # assume the receiver's fingerprint state
        self.reducer.invalidate()
        self._suspend(
            PairState.PSUE,
            f"integrity: corrupt entry seq={entry.sequence} "
            f"vol={entry.volume_id} block={entry.block} ({where})")
        self.ensure_repair()

    def ensure_repair(self) -> None:
        """Arm the auto-repair loop if suspended and not already armed.

        Called automatically on quarantine; chaos/operator code calls it
        again after healing a long outage if the loop gave up.
        """
        if not self.config.auto_repair or not self.suspended:
            return
        if self._repair_proc is not None and self._repair_proc.alive:
            return
        self._repair_proc = self.sim.spawn(
            self._auto_repair(), name=f"jg-{self.group_id}.repair")

    def _auto_repair(self) -> Generator[object, object, None]:
        """Self-healing loop: resync the dirty delta once the link is up.

        Wakes every :data:`REPAIR_DELAY` until the resync sticks (the
        pairs leave PSUE) or :data:`REPAIR_MAX_ATTEMPTS` wake-ups pass — a resync
        can be re-suspended by a refilled journal, so one attempt is not
        always enough.
        """
        attempts = 0
        while self.suspended and attempts < REPAIR_MAX_ATTEMPTS:
            attempts += 1
            yield self.sim.timeout(REPAIR_DELAY)
            if not self.suspended:
                return
            if not self.link.is_up:
                continue  # wait out the partition, then repair
            self.repair_resyncs.increment()
            yield from self.resync()

    def resync(self) -> Generator[object, object, None]:
        """Re-establish the mirror after a suspension.

        Re-journals every dirty block's *current* content; once the
        backlog restores, the pairs return to PAIR.  Process generator —
        completes when the dirty delta has been journaled (not yet
        restored).
        """
        if not self.suspended:
            return
        if not self.link.is_up:
            raise ReplicationError(
                f"group {self.group_id}: cannot resync while link is down")
        self.suspended = False
        self.suspend_reason = ""
        resync_span = self.tracer.start("resync", group=self.group_id)
        self.recorder.record("resync", self.group_id, event="started")
        rejournaled = 0

        def finish(status: str) -> None:
            self.tracer.finish(resync_span, status=status,
                               rejournaled=rejournaled)
            self.recorder.record("resync", self.group_id, event="completed",
                                 status=status, rejournaled=rejournaled)

        try:
            for pair in self.pairs.values():
                pending = sorted(pair.take_dirty())
                for index, (volume_id, block) in enumerate(pending):
                    value = pair.pvol.peek(block)
                    if value is None:
                        continue
                    if pair.secondary_current(block, value.version):
                        # delta negotiation: the secondary already
                        # holds this content at the same (or newer)
                        # version, so it never re-crosses the wire
                        self.copy_skipped.increment()
                        continue
                    yield self.sim.timeout(JOURNAL_APPEND_LATENCY)
                    entry = self._append_entry(
                        volume_id, block, value.payload, value.version,
                        trace_id=resync_span.trace_id,
                        span_id=resync_span.span_id,
                        checksum=value.checksum)
                    if entry is None:
                        # suspended again (journal refilled or a fresh
                        # quarantine): the current block was re-marked
                        # dirty by _append_entry, but the rest of the
                        # consumed set must survive for the next attempt
                        for remaining in pending[index + 1:]:
                            pair.mark_dirty(*remaining)
                        finish("suspended")
                        return
                    rejournaled += 1
                pair.clear_suspension()
        except BaseException:
            finish("error")
            raise
        finish("ok")

    # -- background pipeline ------------------------------------------------

    def start(self) -> None:
        """Spawn the transfer and restore processes (idempotent)."""
        if self._running:
            return
        self._running = True
        if self._transfer_proc is None or not self._transfer_proc.alive:
            self._transfer_proc = self.sim.spawn(
                self._transfer_loop(), name=f"jg-{self.group_id}.transfer")
        if self._restore_proc is None or not self._restore_proc.alive:
            self._restore_proc = self.sim.spawn(
                self._restore_loop(), name=f"jg-{self.group_id}.restore")

    def stop(self) -> None:
        """Stop both loops at their next wake-up."""
        self._running = False

    def stop_transfer(self) -> None:
        """Stop only the transfer side (main-site disaster): the restore
        loop keeps draining what already reached the backup journal."""
        self._transfer_enabled = False

    def restart(self) -> None:
        """Restart dead pipelines after an array crash/repair.

        Re-enables the transfer side and re-spawns whichever background
        loops have exited; running loops are left alone.  Chaos
        array-crash faults use this to model crash *and restart*.
        """
        # fingerprint caches do not survive an array restart
        self.reducer.invalidate()
        self._transfer_enabled = True
        self._running = False
        self.start()

    def _jittered(self, base: float, stream: str) -> float:
        if self.config.interval_jitter == 0:
            return base
        return self.sim.rng.jitter(
            f"jg.{self.group_id}.{stream}", base, self.config.interval_jitter)

    @staticmethod
    def _coalesce_batch(batch: List[JournalEntry],
                        ) -> Tuple[List[JournalEntry],
                                   Dict[Tuple[int, int], int]]:
        """Last-writer-wins within one batch: superseded same-address
        entries never cross the wire.

        Returns ``(ship, survivor)``: the entries to ship and a map of
        each ``(volume_id, block)`` address to the sequence of its
        newest entry in the batch.  The survivor is by construction the
        newest write of its address, so trimming a superseded entry is
        safe exactly when its survivor has been consumed; the batch
        tail always survives, so the restored cut still advances to
        the window's high sequence.
        """
        survivor: Dict[Tuple[int, int], int] = {}
        for entry in batch:
            survivor[(entry.volume_id, entry.block)] = entry.sequence
        ship = [entry for entry in batch
                if survivor[(entry.volume_id, entry.block)]
                == entry.sequence]
        return ship, survivor

    def _encode_ship(self, ship: List[JournalEntry],
                     ) -> Tuple[Optional[List[EncodedPayload]], int]:
        """Encode one outgoing batch against the reduction caches.

        Returns ``(encodings, wire_bytes)`` — or ``(None, logical)``
        when reduction is off, leaving the verbatim wire path
        untouched.  Encoding commits nothing to the caches (commit
        happens at receive), so a shipment discarded in flight leaves
        no speculative state to roll back.
        """
        reducer = self.reducer
        if not reducer.enabled:
            # inlined entry.size_bytes: the property call per entry
            # shows up on the drain hot path
            return None, sum(len(entry.payload) + 64 for entry in ship)
        pending = reducer.begin_batch()
        encodings = [
            reducer.encode(entry.payload, pending,
                           overhead=entry.size_bytes - len(entry.payload))
            for entry in ship]
        return encodings, sum(e.wire_bytes for e in encodings)

    def _receive_batch(self, shipment: _Shipment) -> str:
        """Receive-side ingest of one transferred shipment.

        Verifies each entry's CRC32 (quarantining on mismatch), ingests
        into the backup journal, trims the delivered prefix off the
        main journal, and bumps the transfer counters, all at one
        simulated instant (no yields).  Returns the batch status:
        ``"ok"``, ``"integrity"`` or ``"backup-full"``.

        With ``encodings`` (reduction on) each entry is first
        reconstructed from its wire form — compressed payloads actually
        decompress, references actually resolve from the receiver cache
        — so a bad resolution or decode genuinely fails the CRC32 check
        and quarantines like any other wire corruption.
        """
        batch, ship, survivor = shipment.batch, shipment.ship, \
            shipment.survivor
        encodings, batch_span = shipment.encodings, shipment.span
        injector = self._wire_injector
        verify = self.config.verify_integrity
        if ship and survivor is None and encodings is None \
                and injector is None:
            # clean fast path: no coalescing, no reduction, no wire
            # fault hook.  Verify the whole batch up front and bulk-
            # ingest it in one call; a CRC mismatch or capacity
            # overflow falls through to the per-entry loop below,
            # whose prefix/quarantine semantics stay authoritative.
            clean = True
            if verify:
                for entry in ship:
                    checksum = entry.checksum
                    if checksum is not None and \
                            _crc32(entry.payload) & 0xFFFFFFFF != checksum:
                        clean = False
                        break
            if clean:
                try:
                    self.backup_journal.ingest_batch(ship)
                except JournalFullError:
                    pass
                else:
                    last = ship[-1].sequence
                    self.main_journal.pop_through(last)
                    self.transferred_sequence = max(
                        self.transferred_sequence, last)
                    self.transferred_count.increment(len(ship))
                    self.transfer_bytes.increment(shipment.payload_bytes)
                    self.transfer_batches.increment()
                    if batch_span is not None:
                        self.tracer.finish(batch_span, status="ok")
                    return "ok"
        # the consumed set only matters for the coalesced trim walk;
        # without a survivor map (coalescing off) ``batch is ship`` and
        # the delivered prefix is just the last consumed sequence, so
        # the clean path skips the per-entry set entirely
        consumed = set() if survivor is not None else None
        last_ingested = -1
        quarantined_at = -1
        delivered_count = 0
        delivered_bytes = 0
        status = "ok"
        backup_ingest = self.backup_journal.ingest
        reducer = self.reducer
        for index, entry in enumerate(ship):
            if encodings is not None:
                received = reducer.receive(encodings[index], entry.payload,
                                           entry.checksum)
                if received is not entry.payload:
                    entry = replace(entry, payload=received)
            wired = injector(entry) if injector is not None else entry
            if verify and not wired.verify_checksum():
                # corruption picked up on the wire: quarantine the
                # entry at the receive side — it must never be
                # ingested — and suspend for a targeted repair
                if consumed is not None:
                    consumed.add(entry.sequence)
                quarantined_at = entry.sequence
                self._quarantine_entry(wired, where="wire")
                status = "integrity"
                break
            try:
                backup_ingest(wired)
            except JournalFullError:
                self._suspend(PairState.PSUE, "backup journal full")
                status = "backup-full"
                break
            if consumed is not None:
                consumed.add(entry.sequence)
            last_ingested = entry.sequence
            delivered_count += 1
            delivered_bytes += len(entry.payload) + 64
        if encodings is not None:
            # book the whole shipment's post-reduction wire bytes (the
            # full batch crossed the link even if ingest stopped early)
            # plus any reference-fallback retransmits receive() priced in
            reducer.account("transfer", encodings)
        # trim the longest batch prefix in which every entry was
        # consumed directly or superseded by a consumed survivor;
        # the rest stays journaled and re-ships after the
        # suspension heals
        if consumed is None:
            # batch is ship: the consumed prefix ends at the last
            # ingested entry — or at the quarantined one, which was
            # consumed too (it must never re-ship)
            delivered = max(last_ingested, quarantined_at)
        else:
            delivered = -1
            for entry in batch:
                if survivor[(entry.volume_id, entry.block)] not in consumed:
                    break
                delivered = entry.sequence
        if delivered >= 0:
            self.main_journal.pop_through(delivered)
        if delivered_count:
            self.transferred_sequence = max(self.transferred_sequence,
                                            last_ingested)
            self.transferred_count.increment(delivered_count)
            self.transfer_bytes.increment(delivered_bytes)
        if status == "ok":
            self.transfer_batches.increment()
        if batch_span is not None:
            self.tracer.finish(batch_span, status=status)
        return status

    def _ship(self, shipment: _Shipment,
              ) -> Generator[object, object, None]:
        """One shipment's wire transfer (inline or its own process).

        A link failure mid-flight is captured on the shipment instead
        of propagating, so the transfer loop can join shipments
        head-first and decide what the failure voids.
        """
        try:
            yield from self.link.transfer(shipment.payload_bytes)
        except LinkDownError as exc:
            shipment.error = exc

    def _launch_shipment(self, batch: List[JournalEntry],
                         spawn: bool) -> _Shipment:
        """Coalesce, trace and launch one batch onto the wire — in its
        own process with ``spawn``, else for the caller to ship inline."""
        if self.config.coalesce_overwrites and len(batch) > 1:
            ship, survivor = self._coalesce_batch(batch)
            if len(ship) < len(batch):
                self.coalesced_count.increment(len(batch) - len(ship))
        else:
            ship, survivor = batch, None
        encodings, payload_bytes = self._encode_ship(ship)
        span = None
        tracer = self.tracer
        if tracer.enabled:
            span = tracer.start(
                "transfer-batch", group=self.group_id,
                entries=len(ship), bytes=payload_bytes,
                coalesced=len(batch) - len(ship),
                first_sequence=ship[0].sequence,
                last_sequence=ship[-1].sequence)
        shipment = _Shipment(
            batch=batch, ship=ship, survivor=survivor,
            payload_bytes=payload_bytes, encodings=encodings, span=span)
        if spawn:
            shipment.proc = self.sim.spawn(
                self._ship(shipment),
                name=f"jg-{self.group_id}.ship-{batch[0].sequence}")
        return shipment

    def _transfer_loop(self) -> Generator[object, object, None]:
        """The wire path: up to ``transfer_window`` batches in flight.

        The loop sleeps ``transfer_interval`` only while nothing is in
        flight.  A batch launched into an empty pipeline ships inline;
        batches 2..W behind it run as their own processes, serialising
        FIFO on the link's shared-bandwidth queue and hiding the
        propagation latency.  ``transfer_window=1`` is thus the classic
        stop-and-wait loop: sleep, ship one batch, wait out its link
        delay, repeat.  Shipments are joined head-first, so ingest stays
        in sequence order.  Entries are trimmed from the main journal
        only when received, so on any failure (link down under the
        head, quarantine, backup-journal overflow) the in-flight
        shipments behind it are simply discarded and re-ship once the
        pipeline is healthy — wasted bandwidth, like a real retransmit.
        """
        config = self.config
        inflight: Deque[_Shipment] = deque()
        covered = 0  # journal entries held by in-flight shipments
        while self._running:
            if inflight:
                if not self._transfer_enabled:
                    return
                launch = not self.suspended and self.link.is_up
            else:
                yield self.sim.timeout(
                    self._jittered(config.transfer_interval, "transfer"))
                if not self._running or not self._transfer_enabled:
                    return
                if self.suspended or not self.link.is_up:
                    if not self.link.is_up:
                        # even an idle link-down voids the caches: the
                        # sender cannot prove the receiver survived it
                        self.reducer.invalidate()
                    continue
                if not len(self.main_journal):
                    # idle: keep the lag gauges fresh at a bounded
                    # cadence (no redundant sample per idle wake-up)
                    if self.sim.now - self._lag_sampled_at \
                            >= IDLE_LAG_SAMPLE_INTERVAL:
                        self._sample_lag()
                    continue
                launch = True
            while launch and len(inflight) < config.transfer_window and \
                    len(self.main_journal) > covered:
                batch = self.main_journal.peek_batch(
                    config.transfer_batch, offset=covered)
                if not batch:
                    break
                inflight.append(self._launch_shipment(
                    batch, spawn=bool(inflight)))
                covered += len(batch)
            head = inflight.popleft()
            if head.proc is None:
                yield from self._ship(head)
            else:
                yield head.proc  # join: fires when the batch lands
            covered -= len(head.batch)
            if head.error is not None:
                if head.span is not None:
                    self.tracer.finish(head.span, status="link-down")
                # the head died on the wire: its encodings (and those
                # of everything queued behind it) were never committed
                self.reducer.discard()
                self.reducer.invalidate()
                status = "link-down"
            else:
                status = self._receive_batch(head)
            if status != "ok":
                # the pipeline behind a failed head is void: nothing
                # was trimmed, so those entries re-ship in order — and
                # nothing was cache-committed (commit happens at
                # receive), so discarding the encodings is the whole
                # rollback
                self.reducer.discard(len(inflight))
                for shipment in inflight:
                    if shipment.span is not None:
                        self.tracer.finish(shipment.span,
                                           status="discarded")
                inflight.clear()
                covered = 0
            if status != "link-down":
                self._sample_lag()

    def _restore_loop(self) -> Generator[object, object, None]:
        config = self.config
        gate = self.restore_gate
        while self._running:
            yield self.sim.timeout(
                self._jittered(config.restore_interval, "restore"))
            if not self._running:
                return
            applied = 0
            while applied < config.restore_batch:
                if not self._running:
                    return
                if not gate.is_open:
                    yield gate.wait()
                window = self.backup_journal.peek_batch(
                    min(config.restore_concurrency,
                        config.restore_batch - applied))
                if not window:
                    break
                self.applying = True
                try:
                    yield from self._apply_window(window)
                    self.backup_journal.pop_through(window[-1].sequence)
                    self.restored_sequence = window[-1].sequence
                finally:
                    self.applying = False
                self.restored_count.increment(len(window))
                self._update_copy_states()
                applied += len(window)

    def _verify_at_apply(self) -> bool:
        """Whether restore-apply must re-verify entry checksums.

        Integrity is normally checked **once at receive** (before ingest
        into the backup journal); re-hashing every payload at apply time
        would double the CRC cost of the whole pipeline for nothing.
        The receive-side check stops covering an entry only when some
        fault path can mutate it *after* ingest — a wire injector is
        installed, or a journal-corruption fault has fired on either
        journal volume — and only then does the apply side verify again,
        preserving the zero-silent-corruption invariant.
        """
        return self.config.verify_integrity and (
            self._wire_injector is not None
            or self.main_journal.mutations > 0
            or self.backup_journal.mutations > 0)

    def _apply_window(self, window: List[JournalEntry],
                      ) -> Generator[object, object, None]:
        """Apply one restore window and commit it at a single instant.

        One pass in sequence order makes the per-entry decisions of a
        one-by-one apply — integrity quarantine, pair-deleted skip,
        stale-version skip — and coalesces same-(volume, block)
        conflicts last-writer-wins.
        The surviving media writes overlap, so the window waits once,
        for the *max* of their apply costs (copy-on-write preservation
        plus the write), then installs everything at that instant:
        every observable image (snapshot-group creation, failover
        promote, invariant checks) is a window-boundary cut of the
        journal order.
        """
        tracer = self.tracer
        tracing = tracer.enabled
        verify = self._verify_at_apply()
        svols = self._svol_by_pvol
        surviving: Dict[Tuple[int, int], tuple] = {}
        for entry in window:
            # the restore-apply span parents to the *originating* span
            # that journaled the entry (host-write / initial-copy /
            # resync) — the context travelled inside the entry across
            # the site hop
            span = None
            if tracing:
                span = tracer.start(
                    "restore-apply", trace_id=entry.trace_id,
                    parent_id=entry.span_id, group=self.group_id,
                    volume=entry.volume_id, block=entry.block,
                    sequence=entry.sequence, version=entry.version)
            if verify and not entry.verify_checksum():
                # corruption inside the journal volume (torn/bit-rotted
                # write): quarantine before the media write — the
                # payload never reaches the secondary volume
                self._quarantine_entry(entry, where="journal")
                if span is not None:
                    tracer.finish(span, status="integrity", applied=False,
                                  reason="checksum mismatch")
                continue
            svol = svols.get(entry.volume_id)
            if svol is None:
                # pair deleted while entries were in flight
                if span is not None:
                    tracer.finish(span, status="skipped", applied=False,
                                  reason="pair deleted")
                continue
            address = (entry.volume_id, entry.block)
            pending = surviving.get(address)
            current = pending[1] if pending is not None \
                else svol.peek(entry.block)
            if current is not None and current.version >= entry.version:
                # already applied, by the media or earlier in this window
                if span is not None:
                    tracer.finish(span, status="skipped", applied=False,
                                  reason="stale version")
                continue
            if pending is not None:
                del surviving[address]
                if pending[2] is not None:
                    tracer.finish(pending[2], status="coalesced",
                                  applied=False,
                                  reason="superseded in window")
            surviving[address] = (svol, entry, span)
        installs = surviving.values()
        delay = max((svol.apply_delay(entry.block)
                     for svol, entry, _span in installs), default=0.0)
        if delay > 0:
            yield self.sim.timeout(delay)
        for svol, entry, span in installs:
            svol.install_block(entry.block, entry.payload, entry.version,
                               checksum=entry.checksum)
            if span is not None:
                tracer.finish(span, applied=True)

    def _update_copy_states(self) -> None:
        for pair in self.pairs.values():
            if not pair.initial_copy_done and \
                    self.restored_sequence >= pair.copy_watermark:
                pair.initial_copy_done = True

    def _sample_lag(self) -> None:
        now = self.sim.now
        self._lag_sampled_at = now
        self.lag_entries.sample(now, self.entry_lag)
        oldest = self.main_journal.oldest_entry()
        self.lag_seconds.sample(
            now, now - oldest.created_at if oldest is not None else 0.0)
        self.peak_entries_gauge.sample(
            now, self.main_journal.peak_entries)

    # -- failover support ----------------------------------------------------

    @property
    def entry_lag(self) -> int:
        """Journaled-but-not-restored entries (main + backup journals)."""
        return len(self.main_journal) + len(self.backup_journal)

    def drain(self) -> Generator[object, object, int]:
        """Failover drain: apply everything already at the backup site.

        Entries still in the *main* journal are lost with the main site;
        entries in the backup journal are applied in order.  Returns the
        number of entries applied.  The restore loop must be stopped (or
        the group suspended) before draining; an in-flight apply is
        waited out so the drain never races it.
        """
        while self.applying:
            yield self.sim.timeout(0.0001)
        drain_span = self.tracer.start("journal-drain", group=self.group_id)
        applied = 0
        for entry in self.backup_journal.snapshot_entries():
            yield from self._apply_window([entry])
            self.backup_journal.pop_through(entry.sequence)
            self.restored_sequence = entry.sequence
            self.restored_count.increment()
            applied += 1
        self._update_copy_states()
        self.tracer.finish(drain_span, applied=applied)
        return applied

    def quiesce_restore(self) -> None:
        """Close the restore gate (snapshot-group preparation)."""
        self.restore_gate.close()

    def resume_restore(self) -> None:
        """Reopen the restore gate."""
        self.restore_gate.open()

    def __repr__(self) -> str:
        return (f"<JournalGroup {self.group_id!r} pairs={len(self.pairs)} "
                f"restored={self.restored_sequence} lag={self.entry_lag} "
                f"{'SUSPENDED ' + self.suspend_reason if self.suspended else 'ok'}>")
