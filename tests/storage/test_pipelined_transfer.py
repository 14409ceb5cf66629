"""Pipelined inter-site transfer: window equivalence, adaptive batch.

The contract under test: opening the transfer window
(``AdcConfig.transfer_window > 1``) and turning on adaptive batch
sizing may only change *when* entries cross the wire — never the
converged backup image, the ingest order (backup journals reject
out-of-order sequences, so any violation raises mid-run), or the
quarantine/repair semantics.  Window 1 is the degenerate case of the one
transfer loop and must behave exactly like stop-and-wait.
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
    @given(plan=write_plan)
    @settings(max_examples=20, deadline=None)
    def test_any_window_converges_to_the_same_image(self, plan):
        """Pipelined == stop-and-wait for any clean write stream: the
        backup image, its versions, and the entry count all match."""
        baseline = None
        for window in WINDOWS:
            backup_image, primary_image, group = run_plan(window, plan)
            assert backup_image == primary_image
            shipped = group.transferred_count.value
            if baseline is None:
                baseline = (backup_image, shipped)
            else:
                assert backup_image == baseline[0], f"window={window}"
                assert shipped == baseline[1], f"window={window}"

    @given(plan=write_plan, fail_at=st.floats(0.001, 0.05),
           outage=st.floats(0.01, 0.1))
    @settings(max_examples=15, deadline=None)
    def test_link_flap_mid_window_converges_identically(
            self, plan, fail_at, outage):
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
                window, plan, fault=flap)
            assert backup_image == primary_image
            if baseline is None:
                baseline = backup_image
            else:
                assert backup_image == baseline, f"window={window}"

    @given(plan=write_plan)
    @settings(max_examples=15, deadline=None)
    def test_wire_corruption_mid_window_heals_identically(self, plan):
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
                window, plan, fault=corrupt)
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


class TestAdaptiveBatch:
    def adaptive_pair(self, window, entries=1500):
        """Pair with adaptive sizing and a pre-filled backlog."""
        sim, main, group, link, pvol, svol = build_windowed_pair(
            31, window, blocks=512, batch=64, bandwidth=50_000_000,
            adaptive_batch=True, transfer_batch_min=64,
            transfer_batch_max=512, transfer_batch_step=64,
            batch_target_time=0.05)
        group.stop()

        def writer():
            for first in range(0, entries, 128):
                count = min(128, entries - first)
                yield from main.host_write_many(
                    [(pvol.volume_id, (first + i) % 512, b"a")
                     for i in range(count)])

        sim.run_until_complete(sim.spawn(writer()))
        group.restart()
        return sim, group, link

    @pytest.mark.parametrize("window", [1, 4])
    def test_backlog_grows_the_batch(self, window):
        sim, group, _link = self.adaptive_pair(window)
        assert group._batch_size == 64
        drain(sim, group)
        assert group._batch_size > 64
        assert group.batch_size_gauge.points[-1][1] == group._batch_size

    def test_link_failure_halves_down_to_the_floor(self):
        sim, group, link = self.adaptive_pair(4)

        def flap():
            yield sim.timeout(0.005)
            link.fail()
            yield sim.timeout(2.0)
            link.restore()

        sim.spawn(flap())
        drain(sim, group)
        floor_hit = min(value for _t, value
                        in group.batch_size_gauge.points)
        assert floor_hit == 64  # repeated failures halve to the min

    @pytest.mark.parametrize("window", [1, 4])
    def test_size_stays_within_bounds(self, window):
        sim, group, _link = self.adaptive_pair(window)
        drain(sim, group)
        sizes = [value for _t, value in group.batch_size_gauge.points]
        assert sizes, "adaptive sizing never sampled the gauge"
        assert all(64 <= size <= 512 for size in sizes)

    def test_static_sizing_never_samples_the_gauge(self):
        _sim, _main, group, _link, _pvol, _svol = build_windowed_pair(
            33, window=2)
        assert group.batch_size_gauge.points == []


class TestConfigValidation:
    def test_window_must_be_positive(self):
        with pytest.raises(ValueError, match="transfer_window"):
            AdcConfig(transfer_window=0)

    def test_batch_bounds_must_be_ordered(self):
        with pytest.raises(ValueError, match="transfer_batch_max"):
            AdcConfig(transfer_batch_min=256, transfer_batch_max=64)

    def test_batch_min_and_step_must_be_positive(self):
        with pytest.raises(ValueError, match="transfer_batch_min"):
            AdcConfig(transfer_batch_min=0)
        with pytest.raises(ValueError, match="transfer_batch_step"):
            AdcConfig(transfer_batch_step=0)

    def test_target_time_must_be_positive(self):
        with pytest.raises(ValueError, match="batch_target_time"):
            AdcConfig(batch_target_time=0.0)

    def test_adaptive_clamps_the_initial_batch(self):
        sim, _main, group, _link, _pvol, _svol = build_windowed_pair(
            35, window=1, batch=8, adaptive_batch=True,
            transfer_batch_min=16, transfer_batch_max=32)
        assert group._batch_size == 16
