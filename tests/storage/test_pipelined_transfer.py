"""Pipelined inter-site transfer: window and batch-size equivalence.

The contract under test: opening the transfer window
(``AdcConfig.transfer_window > 1``) and resizing the transfer batch
(``AdcConfig.transfer_batch``) may only change *when* entries cross the
wire — never the converged backup image, the ingest order (backup
journals reject out-of-order sequences, so any violation raises
mid-run), or the quarantine/repair semantics.  Window 1 is the
degenerate case of the one transfer loop and must behave exactly like
stop-and-wait.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation import NetworkLink, Simulator
from repro.storage import AdcConfig, ArrayConfig, StorageArray
from repro.storage.adc import JournalGroup
from repro.storage.journal import JournalEntry
from tests.storage.conftest import fast_adc

#: windows the equivalence properties sweep: stop-and-wait, barely
#: pipelined, deeply pipelined
WINDOWS = (1, 2, 8)
#: transfer batch sizes the properties draw from: one entry per batch,
#: a few batches per plan, the whole plan in one batch
batch_size = st.sampled_from((1, 8, 64))

write_plan = st.lists(
    st.tuples(st.integers(0, 15),                 # block
              st.integers(0, 30)),                # payload tag
    min_size=4, max_size=60)


def build_windowed_pair(seed, window, blocks=64, batch=8,
                        bandwidth=2_000_000, **overrides):
    """One ADC pair over a bandwidth-bound link with a small transfer
    batch, so several batches queue up and the window actually opens."""
    sim = Simulator(seed=seed)
    adc = fast_adc(transfer_window=window, transfer_batch=batch,
                   transfer_interval=0.004, restore_interval=0.001,
                   **overrides)
    config = ArrayConfig(adc=adc)
    main = StorageArray(sim, serial="M", config=config)
    backup = StorageArray(sim, serial="B", config=config)
    main_pool = main.create_pool(100_000)
    backup_pool = backup.create_pool(100_000)
    link = NetworkLink(sim, latency=0.002,
                       bandwidth_bytes_per_s=bandwidth, name="plink")
    pvol = main.create_volume(main_pool.pool_id, blocks)
    svol = backup.create_volume(backup_pool.pool_id, blocks)
    main_jnl = main.create_journal(main_pool.pool_id, 10_000)
    backup_jnl = backup.create_journal(backup_pool.pool_id, 10_000)
    group = main.create_journal_group("jg-w", main_jnl.journal_id,
                                      backup, backup_jnl.journal_id,
                                      link)
    main.create_async_pair("pw-0", "jg-w", pvol.volume_id, backup,
                           svol.volume_id)
    return sim, main, group, link, pvol, svol


def drain(sim, group, deadline=60.0):
    """Run until the pipeline fully applied everything to the S-VOLs.

    Convergence needs more than ``entry_lag == 0``: a quarantine trims
    the corrupted entry off the journal (lag 0) while its block is
    still dirty and awaiting the next auto-repair round, so settle
    until the suspension cleared and every dirty set is empty too.
    """
    def settled():
        return (group.entry_lag == 0 and not group.suspended
                and all(not pair.dirty_blocks
                        for pair in group.pairs.values()))

    limit = sim.now + deadline
    while not settled() and sim.now < limit:
        sim.run(until=sim.now + 0.05)
    assert settled(), "pipeline failed to drain"


def image_of(volume):
    return {block: (value.payload, value.version)
            for block, value in volume.block_map().items()}


def run_plan(window, plan, seed=17, fault=None, **overrides):
    """Apply ``plan`` through one pair at ``window``; returns the
    converged (backup image, primary image, group)."""
    sim, main, group, link, pvol, svol = build_windowed_pair(
        seed, window, **overrides)

    def writer():
        for block, tag in plan:
            yield from main.host_write(pvol.volume_id, block,
                                       b"w%d" % tag)

    proc = sim.spawn(writer())
    if fault is not None:
        fault(sim, group, link)
    sim.run_until_complete(proc)
    drain(sim, group)
    return image_of(svol), image_of(pvol), group


class TestWindowEquivalence:
    @given(plan=write_plan, batch=batch_size)
    @settings(max_examples=20, deadline=None)
    def test_any_window_converges_to_the_same_image(self, plan, batch):
        """Pipelined == stop-and-wait for any clean write stream and
        batch size: the backup image, its versions, and the entry count
        all match."""
        baseline = None
        for window in WINDOWS:
            backup_image, primary_image, group = run_plan(
                window, plan, batch=batch)
            assert backup_image == primary_image
            shipped = group.transferred_count.value
            if baseline is None:
                baseline = (backup_image, shipped)
            else:
                assert backup_image == baseline[0], f"window={window}"
                assert shipped == baseline[1], f"window={window}"

    @given(plan=write_plan, batch=batch_size,
           fail_at=st.floats(0.001, 0.05), outage=st.floats(0.01, 0.1))
    @settings(max_examples=15, deadline=None)
    def test_link_flap_mid_window_converges_identically(
            self, plan, batch, fail_at, outage):
        """A partition that kills several in-flight shipments must
        discard and re-ship without reordering: every window converges
        to the primary's image."""
        def flap(sim, group, link):
            def chaos():
                yield sim.timeout(fail_at)
                link.fail()
                yield sim.timeout(outage)
                link.restore()
            sim.spawn(chaos())

        baseline = None
        for window in WINDOWS:
            backup_image, primary_image, _group = run_plan(
                window, plan, fault=flap, batch=batch)
            assert backup_image == primary_image
            if baseline is None:
                baseline = backup_image
            else:
                assert backup_image == baseline, f"window={window}"

    @given(plan=write_plan, batch=batch_size)
    @settings(max_examples=15, deadline=None)
    def test_wire_corruption_mid_window_heals_identically(self, plan,
                                                          batch):
        """Deterministic wire corruption (by sequence, so every window
        corrupts the same entries): quarantine + auto-repair must
        converge every window to the primary's image, and no corrupted
        payload may ever reach a secondary volume."""
        def corrupt(sim, group, link):
            def injector(entry):
                if entry.sequence % 5 == 3:
                    payload = entry.payload or b"\x00"
                    return JournalEntry(
                        entry.sequence, entry.volume_id, entry.block,
                        payload[:-1] + bytes([payload[-1] ^ 0x40]),
                        entry.version, entry.created_at,
                        checksum=entry.checksum)
                return entry
            group.install_wire_injector(injector)

        baseline = None
        for window in WINDOWS:
            backup_image, primary_image, group = run_plan(
                window, plan, fault=corrupt, batch=batch)
            assert backup_image == primary_image
            if len(plan) >= 4:  # sequences 1.. carry at least one hit
                assert group.corruptions_wire.value >= 1
            if baseline is None:
                baseline = backup_image
            else:
                assert backup_image == baseline, f"window={window}"


class TestOneTransferLoop:
    """Window 1 is the degenerate case of the one transfer loop: the
    head of an empty pipeline ships inline, so stop-and-wait never
    spawns a shipment process — while wider windows still pipeline."""

    def backlog_pair(self, window, entries=64):
        """Pair with a pre-filled backlog of ``entries // 8`` batches
        on the bandwidth-bound link; spawned process names recorded."""
        sim, main, group, link, pvol, svol = build_windowed_pair(
            41, window)
        group.stop()
        sim.run_until_complete(sim.spawn(main.host_write_many(
            [(pvol.volume_id, index % 64, b"p%d" % index)
             for index in range(entries)])))
        spawned = []
        spawn = sim.spawn

        def recording_spawn(generator, name=""):
            spawned.append(name)
            return spawn(generator, name=name)

        sim.spawn = recording_spawn
        group.restart()
        drain(sim, group)
        assert image_of(svol) == image_of(pvol)
        return spawned, link

    def test_window_one_never_spawns_a_shipment(self):
        spawned, _link = self.backlog_pair(window=1)
        assert not [name for name in spawned if ".ship-" in name]

    def test_window_four_keeps_four_batches_on_the_wire(self):
        spawned, link = self.backlog_pair(window=4)
        assert [name for name in spawned if ".ship-" in name]
        assert link.peak_queue_depth == 4


class TestCoalesceHelper:
    def entry(self, sequence, block, payload=b"x", volume=7):
        return JournalEntry(sequence, volume, block, payload,
                            sequence, 0.0)

    def test_last_writer_wins_per_address(self):
        batch = [self.entry(1, 0, b"old"), self.entry(2, 1),
                 self.entry(3, 0, b"new")]
        ship, survivor = JournalGroup._coalesce_batch(batch)
        assert [e.sequence for e in ship] == [2, 3]
        assert survivor == {(7, 1): 2, (7, 0): 3}

    def test_distinct_addresses_all_survive(self):
        batch = [self.entry(i, i) for i in range(1, 5)]
        ship, survivor = JournalGroup._coalesce_batch(batch)
        assert ship == batch
        assert survivor == {(7, i): i for i in range(1, 5)}

    def test_batch_tail_always_survives(self):
        batch = [self.entry(i, 3) for i in range(1, 6)]
        ship, _survivor = JournalGroup._coalesce_batch(batch)
        assert [e.sequence for e in ship] == [5]


class TestConfigValidation:
    def test_window_must_be_positive(self):
        with pytest.raises(ValueError, match="transfer_window"):
            AdcConfig(transfer_window=0)
