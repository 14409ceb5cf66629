"""Windowed parallel restore: equivalence properties.

The contract under test: widening the restore window
(``AdcConfig.restore_concurrency > 1``) may only change *when* the media
waits overlap — never the converged backup image, the RPO accounting
(``restored_count`` / ``restored_sequence``), or any quiesced snapshot
view.  Because every window commits at one instant, each quiesced
snapshot is a window-boundary consistency cut: its image must equal
replaying the journaled write stream up to the snapshot's
``group_sequence`` with last-writer-wins per block.  Concurrency 1 is
the strictly serial applier.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation import NetworkLink, Simulator
from repro.storage import ArrayConfig, StorageArray
from tests.storage.conftest import fast_adc

#: restore batch of the pipeline under test
RESTORE_BATCH = 16

#: restore concurrencies the equivalence properties sweep: serial,
#: barely parallel, deeply parallel, and whole-batch windows
CONCURRENCY = (1, 2, 8, RESTORE_BATCH)

write_plan = st.lists(
    st.tuples(st.integers(0, 1),                  # volume index
              st.integers(0, 15),                 # block
              st.integers(0, 30)),                # payload tag
    min_size=4, max_size=60)

cut_times = st.lists(st.floats(0.004, 0.08), min_size=0, max_size=3,
                     unique=True)


def build_pair(seed, concurrency, volumes=2, blocks=64):
    """Two async pairs in one journal group over a bandwidth-bound link
    with small transfer/restore batches, so restore runs in several
    windows and mid-stream cuts land between them."""
    sim = Simulator(seed=seed)
    adc = fast_adc(restore_concurrency=concurrency, transfer_batch=8,
                   restore_batch=RESTORE_BATCH, transfer_interval=0.004,
                   restore_interval=0.001)
    config = ArrayConfig(adc=adc)
    main = StorageArray(sim, serial="M", config=config)
    backup = StorageArray(sim, serial="B", config=config)
    main_pool = main.create_pool(100_000)
    backup_pool = backup.create_pool(100_000)
    link = NetworkLink(sim, latency=0.002,
                       bandwidth_bytes_per_s=2_000_000, name="llink")
    main_jnl = main.create_journal(main_pool.pool_id, 10_000)
    backup_jnl = backup.create_journal(backup_pool.pool_id, 10_000)
    group = main.create_journal_group("jg-l", main_jnl.journal_id,
                                      backup, backup_jnl.journal_id,
                                      link)
    pvols, svols = [], []
    for index in range(volumes):
        pvol = main.create_volume(main_pool.pool_id, blocks)
        svol = backup.create_volume(backup_pool.pool_id, blocks)
        main.create_async_pair(f"pl-{index}", "jg-l", pvol.volume_id,
                               backup, svol.volume_id)
        pvols.append(pvol)
        svols.append(svol)
    return sim, main, backup, group, link, pvols, svols


def drain(sim, group, deadline=60.0):
    """Run until the pipeline fully applied everything to the S-VOLs."""
    def settled():
        return (group.entry_lag == 0 and not group.suspended
                and all(not pair.dirty_blocks
                        for pair in group.pairs.values()))

    limit = sim.now + deadline
    while not settled() and sim.now < limit:
        sim.run(until=sim.now + 0.05)
    assert settled(), "restore pipeline failed to drain"


def image_of(volume):
    return {block: (value.payload, value.version)
            for block, value in volume.block_map().items()}


def oracle_views(plan, volume_ids, cut_sequence):
    """Expected (image, frozen versions) per volume id of the write
    stream's prefix with journal sequence <= ``cut_sequence``.

    The writer issues plan writes serially through one journal group,
    so journal sequence == write index and the i-th write to a volume
    installs version i (per-volume monotone counter)."""
    images = {vid: {} for vid in volume_ids}
    versions = {vid: {} for vid in volume_ids}
    counters = {vid: 0 for vid in volume_ids}
    for sequence, (vidx, block, tag) in enumerate(plan):
        vid = volume_ids[vidx]
        counters[vid] += 1
        if sequence <= cut_sequence:
            images[vid][block] = b"w%d" % tag
            versions[vid][block] = counters[vid]
    return images, versions


def run_plan(concurrency, plan, cuts=(), seed=17, fault=None):
    """Apply ``plan`` through a two-pair group at ``concurrency``; returns
    the converged backup/primary images, the group, and one
    ``(group_sequence, {svol_id: (image, frozen_versions)})`` record
    per mid-stream quiesced snapshot cut."""
    sim, main, backup, group, link, pvols, svols = build_pair(
        seed, concurrency)
    svol_ids = [svol.volume_id for svol in svols]

    def writer():
        for vidx, block, tag in plan:
            yield from main.host_write(pvols[vidx].volume_id, block,
                                       b"w%d" % tag)

    snapshot_groups = []

    def cutter():
        last = 0.0
        for index, at in enumerate(sorted(cuts)):
            yield sim.timeout(at - last)
            last = at
            snapshot_group = yield from backup.create_snapshot_group(
                f"cut-{index}", svol_ids)
            snapshot_groups.append(snapshot_group)

    proc = sim.spawn(writer())
    cut_proc = sim.spawn(cutter())
    if fault is not None:
        fault(sim, group, link)
    sim.run_until_complete(proc)
    drain(sim, group)
    sim.run_until_complete(cut_proc)
    cut_views = []
    for snapshot_group in snapshot_groups:
        members = snapshot_group.by_base_volume()
        sequences = {snap.group_sequence for snap in members.values()}
        assert len(sequences) == 1, "cut is not a single sequence point"
        cut_views.append((sequences.pop(), {
            vid: (dict(snap.image_blocks()),
                  dict(snap.frozen_version_map()))
            for vid, snap in members.items()}))
    backup_images = {svol.volume_id: image_of(svol) for svol in svols}
    primary_images = [image_of(pvol) for pvol in pvols]
    return backup_images, primary_images, group, cut_views, svol_ids


def check_cuts(plan, svol_ids, cut_views):
    """Every quiesced cut equals the prefix-replay oracle."""
    for cut_sequence, views in cut_views:
        images, versions = oracle_views(plan, svol_ids, cut_sequence)
        for vid, (image, frozen) in views.items():
            assert image == images[vid], f"cut@{cut_sequence} image"
            assert frozen == versions[vid], f"cut@{cut_sequence} versions"


class TestRestoreConcurrencyEquivalence:
    """The properties sweep ``restore_concurrency`` — the number of
    entries one restore window applies concurrently — over
    :data:`CONCURRENCY`."""

    @given(plan=write_plan, cuts=cut_times)
    @settings(max_examples=20, deadline=None)
    def test_any_concurrency_converges_to_the_same_image(self, plan,
                                                         cuts):
        """Windowed == serial for any clean write stream: the backup
        images, the RPO accounting, and every mid-stream quiesced
        snapshot cut all match the serial applier."""
        baseline = None
        for concurrency in CONCURRENCY:
            backup_images, primary_images, group, cut_views, svol_ids = \
                run_plan(concurrency, plan, cuts=cuts)
            for svol_id, pvol_image in zip(svol_ids, primary_images):
                assert backup_images[svol_id] == pvol_image
            check_cuts(plan, svol_ids, cut_views)
            accounting = (group.restored_count.value,
                          group.restored_sequence,
                          group.transferred_count.value)
            if baseline is None:
                baseline = (backup_images, accounting)
            else:
                label = f"concurrency={concurrency}"
                assert backup_images == baseline[0], label
                assert accounting == baseline[1], label

    @given(plan=write_plan, cuts=cut_times,
           fail_at=st.floats(0.001, 0.05), outage=st.floats(0.01, 0.1))
    @settings(max_examples=15, deadline=None)
    def test_link_flap_mid_window_converges_identically(
            self, plan, cuts, fail_at, outage):
        """A partition that kills in-flight shipments mid-window must
        discard and re-ship without reordering: every concurrency
        converges to the primary's image with identical accounting,
        and every cut taken during the storm is still a clean prefix."""
        def flap(sim, group, link):
            def chaos():
                yield sim.timeout(fail_at)
                link.fail()
                yield sim.timeout(outage)
                link.restore()
            sim.spawn(chaos())

        baseline = None
        for concurrency in CONCURRENCY:
            backup_images, primary_images, group, cut_views, svol_ids = \
                run_plan(concurrency, plan, cuts=cuts, fault=flap)
            for svol_id, pvol_image in zip(svol_ids, primary_images):
                assert backup_images[svol_id] == pvol_image
            check_cuts(plan, svol_ids, cut_views)
            accounting = (group.restored_count.value,
                          group.restored_sequence)
            if baseline is None:
                baseline = (backup_images, accounting)
            else:
                label = f"concurrency={concurrency}"
                assert backup_images == baseline[0], label
                assert accounting == baseline[1], label
