"""The three benchmark workloads, one simulated round each.

Each ``*_round(seed, profiler)`` builds a fresh system from its seed,
times set-up and the run phase on the wall clock, and then checks the
outputs outside the timed region.  A round returns a :class:`Round`:

* ``setup_s`` / ``run_s`` — wall seconds; the run phase goes from the
  first business operation until the backup has applied every write;
* the raw simulated-time samples (order and write-ack latencies, RPO
  samples) and ``sim`` — other figures that must repeat exactly for a
  seed, such as the chaos digest;
* ``work`` — work counts read from the program after the run
  (deterministic for a seed);
* ``problems`` — failed correctness checks (empty when the round is
  correct).

When a :class:`~e2ebench.layers.LayerProfiler` is passed it is
installed for set-up and the run phase only; the checks run unwrapped.

Why each workload exists, and which layers it loads or leaves idle, is
recorded in ``e2ebench/NOTES.md``.
"""

from __future__ import annotations

import contextlib
import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Sequence, Tuple

from repro.apps import WorkloadConfig, run_order_workload
from repro.apps.analytics import DatabaseImage, recover_business_images
from repro.apps.ecommerce import decode_business_state
from repro.apps.minidb.device import ViewBlockDevice
from repro.apps.workload import PayloadProfile
from repro.bench.setups import (MODE_ADC_CG, build_business_system,
                                business_journal_groups, experiment_config)
from repro.chaos import engine as chaos_engine
from repro.chaos.plan import PRESETS, build_plan
from repro.recovery import checker
from repro.simulation.kernel import Simulator
from repro.simulation.network import NetworkLink
from repro.storage.array import StorageArray

#: simulated seconds of closed-loop business load on ``order_e1``
ORDER_DURATION = 6.0
#: simulated clients of ``order_e1`` (the E1 cell)
ORDER_CLIENTS = 4
#: one-way inter-site latency of ``order_e1`` and ``replicate_snap``
LINK_LATENCY = 0.005
#: simulated period of the RPO sampler
RPO_PERIOD = 0.005
#: simulated step of the drain loops (lag checked between steps)
DRAIN_STEP = 0.01
#: a drain gives up this many load durations (simulated) after the end
#: of load and reports the round failed; the default restore path needs
#: about 0.8 (e2ebench/NOTES.md)
DRAIN_LIMIT = 10

#: ``replicate_snap`` replays the shape of ``order_e1``'s host-write
#: stream, measured at seed 100 (e2ebench/NOTES.md; the benchmark's
#: tests re-measure it): this many host writes per simulated second,
#: for as long as ``order_e1`` loads
SNAP_WRITE_RATE = 4416.0
SNAP_DURATION = ORDER_DURATION
#: the host-write calls one committed order makes: ``(volume, writes)``
#: — every write is the next sequential WAL append of its volume
SNAP_ORDER_CALLS: Tuple[Tuple[str, int], ...] = (
    ("sales-wal", 1), ("sales-wal", 1), ("sales-wal", 1), ("sales-wal", 1),
    ("stock-wal", 1), ("stock-wal", 1), ("stock-wal", 2))
#: the E1 business's consistency group: ``(volume, blocks)``; the data
#: volumes take no writes (no checkpointer runs by default)
SNAP_VOLUMES: Tuple[Tuple[str, int], ...] = (
    ("sales-wal", 40_000), ("sales-data", 64),
    ("stock-wal", 40_000), ("stock-data", 64))
#: mean size of ``order_e1``'s WAL record payloads (99..177 bytes)
SNAP_PAYLOAD_BYTES = 130
#: backup-site analytics as in E5 (``run_e5_analytics``): one snapshot
#: group per 1 sim-s window, held while its analytics run (0.67 sim-s
#: for E5's three runs at seed 500); restore writes landing meanwhile
#: pay copy-on-write
SNAP_ANALYTICS_PERIOD = 1.0
SNAP_ANALYTICS_HOLD = 0.67

CHAOS_PRESET = "soak"
#: soak campaigns per ``chaos_soak`` run: one seed's fault plan decides
#: most of its figures, so a run pools several plans
CHAOS_CAMPAIGNS = 5
#: offset between the seeds of one run's campaigns
CHAOS_SEED_STRIDE = 1_000_000


def sub_seeds(workload: str, seed: int) -> List[int]:
    """The simulator seeds one benchmark run uses (the first is
    ``seed`` itself)."""
    if workload == "chaos_soak":
        return [seed + index * CHAOS_SEED_STRIDE
                for index in range(CHAOS_CAMPAIGNS)]
    return [seed]


@dataclass
class Round:
    """Everything one workload round measured and checked."""

    seed: int
    setup_s: float
    run_s: float
    #: committed orders (business workloads) or host-write calls
    orders: int
    #: host writes acked and applied at the backup
    writes: int
    attempted: int
    failed: int
    #: raw simulated-time samples, in seconds
    order_latencies: List[float] = field(default_factory=list)
    ack_latencies: List[float] = field(default_factory=list)
    rpo_samples: List[float] = field(default_factory=list)
    sim: Dict[str, object] = field(default_factory=dict)
    work: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    #: per-layer self seconds and counts (traced rounds only)
    layer_seconds: Dict[str, float] = field(default_factory=dict)
    layer_counts: Dict[str, int] = field(default_factory=dict)

    def deterministic(self) -> Dict[str, object]:
        """Everything a round of this seed must repeat exactly."""
        figures: Dict[str, object] = dict(self.sim)
        figures.update(self.work)
        figures.update(
            orders=self.orders, writes=self.writes,
            attempted=self.attempted, failed=self.failed,
            order_latencies=tuple(self.order_latencies),
            ack_latencies=tuple(self.ack_latencies),
            rpo_samples=tuple(self.rpo_samples))
        return figures


class OwnProcesses:
    """Spawns the benchmark's own simulation processes and counts the
    kernel queue entries they schedule, so the program's work counts can
    leave them out.

    A spawn schedules one queue entry and a yielded ``sleep`` one more;
    the benchmark's processes yield only sleeps (and ``yield from``
    program calls, whose entries are the program's work).
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.spawns = 0
        self.events = 0

    def spawn(self, generator, name: str):
        self.spawns += 1
        self.events += 1
        return self.sim.spawn(generator, name=name)

    def sleep(self, delay: float):
        self.events += 1
        return self.sim.sleep(delay)


class RpoSampler:
    """Samples the age of the oldest journaled-but-unapplied write.

    A simulation process of the benchmark's own: every ``RPO_PERIOD``
    simulated seconds it reads the oldest entry of each group's backup
    and main journals (an entry leaves the backup journal only once it
    is applied to the secondary volume).  It only reads state, so the
    program's behaviour is unchanged.
    """

    def __init__(self, own: OwnProcesses, groups: Sequence[object]) -> None:
        self.samples: List[float] = []
        self._running = True
        own.spawn(self._loop(own, list(groups)), name="bench-rpo-sampler")

    def _loop(self, own: OwnProcesses, groups: List[object]):
        sim = own.sim
        while self._running:
            oldest = None
            for group in groups:
                for journal in (group.backup_journal, group.main_journal):
                    entry = journal.oldest_entry()
                    if entry is not None and (
                            oldest is None or entry.created_at < oldest):
                        oldest = entry.created_at
            self.samples.append(0.0 if oldest is None else sim.now - oldest)
            yield own.sleep(RPO_PERIOD)

    def stop(self) -> None:
        """End sampling at the sampler's next wake-up."""
        self._running = False


@contextlib.contextmanager
def _traced(profiler):
    """Install ``profiler`` (if any) for the block only."""
    if profiler is None:
        yield
        return
    profiler.install()
    try:
        yield
    finally:
        profiler.uninstall()


def _drain(sim: Simulator, done: Callable[[], bool], load: float) -> bool:
    """Step the simulator until ``done()``; False when ``DRAIN_LIMIT``
    times the ``load`` duration passes first (simulated time)."""
    deadline = sim.now + DRAIN_LIMIT * load
    while not done():
        if sim.now >= deadline:
            return False
        sim.run(until=min(sim.now + DRAIN_STEP, deadline))
    return True


def _lag_problem(groups: Sequence[object], load: float) -> str:
    lag = sum(group.entry_lag for group in groups)
    return (f"not drained {DRAIN_LIMIT * load:g} sim-s after the load: "
            f"entry lag {lag}")


def _work_counts(sim: Simulator, groups: Sequence[object],
                 own: OwnProcesses,
                 clusters: Sequence[object] = ()) -> Dict[str, float]:
    """Work counts the program exposes, read after the run; the
    benchmark's own processes are left out."""
    peak = 0
    for group in groups:
        peak = max(peak, group.main_journal.peak_entries,
                   group.backup_journal.peak_entries)
    return {
        # the kernel's sequence counter numbers every queue entry
        "events": next(sim._sequence) - own.events,
        "bench_spawns": own.spawns,
        "journal_peak_entries": peak,
        "controller_reconciles": sum(
            controller.reconcile_count for cluster in clusters
            for controller in cluster.manager.controllers),
    }


def _pair_map(groups: Sequence[object]) -> Dict[int, object]:
    """Primary volume id -> secondary volume, over every pair."""
    return {pair.pvol.volume_id: pair.svol
            for group in groups for pair in group.pairs.values()}


# ---------------------------------------------------------------------------
# order_e1 — the E1 adc-cg cell
# ---------------------------------------------------------------------------


def order_e1_round(seed: int, profiler=None) -> Round:
    """Closed loop of 4 simulated clients for 6 sim-s, then a drain."""
    with _traced(profiler):
        started = perf_counter()
        experiment = build_business_system(seed=seed, mode=MODE_ADC_CG,
                                           link_latency=LINK_LATENCY)
        setup_s = perf_counter() - started
        sim = experiment.sim
        main = experiment.system.main.array
        groups = business_journal_groups(experiment)
        writes_before = main.host_writes.value
        acks_before = len(main.write_latency.samples)
        run_started = perf_counter()
        own = OwnProcesses(sim)
        sampler = RpoSampler(own, groups)
        outcome = run_order_workload(
            sim, experiment.business.app,
            WorkloadConfig(client_count=ORDER_CLIENTS,
                           duration=ORDER_DURATION))
        drained = _drain(
            sim, lambda: not any(group.entry_lag for group in groups),
            ORDER_DURATION)
        sampler.stop()
        run_s = perf_counter() - run_started
    latencies = [result.latency for result in outcome.results
                 if result.accepted]
    acks = main.write_latency.samples[acks_before:]
    writes = main.host_writes.value - writes_before
    round_ = Round(
        seed=seed, setup_s=setup_s, run_s=run_s, orders=len(latencies),
        writes=writes, attempted=len(outcome.results),
        failed=outcome.rejected, order_latencies=latencies,
        ack_latencies=list(acks), rpo_samples=sampler.samples)
    round_.work = _work_counts(sim, groups, own, (
        experiment.system.main.cluster, experiment.system.backup.cluster))
    if not drained:
        round_.problems.append(_lag_problem(groups, ORDER_DURATION))
    round_.problems += check_order_e1(experiment, groups)
    return round_


def check_order_e1(experiment, groups: Sequence[object]) -> List[str]:
    """The drained backup image is a complete prefix cut, and the
    business recovered from it is consistent and holds every committed
    order."""
    sim = experiment.sim
    pair_map = _pair_map(groups)
    problems = []
    cut = checker.check_storage_cut(
        experiment.system.main.array.history,
        checker.image_versions_from_volumes(pair_map))
    if not cut.consistent:
        problems.append(f"backup image is not a prefix cut: {cut}")
    if cut.missing_count:
        problems.append(f"{cut.missing_count} acked writes missing from "
                        "the drained backup image")
    business = experiment.business
    secondary = {pvc: pair_map[volume_id]
                 for pvc, volume_id in business.volume_ids.items()}

    def image(db: str) -> DatabaseImage:
        return DatabaseImage(
            wal_device=ViewBlockDevice(secondary[f"{db}-wal"]),
            data_device=ViewBlockDevice(secondary[f"{db}-data"]),
            bucket_count=business.config.bucket_count)

    sales, stock = sim.run_until_complete(sim.spawn(
        recover_business_images(sim, image("sales"), image("stock")),
        name="bench-recover"))
    state = decode_business_state(sales.state, stock.state)
    report = checker.check_business_invariants(
        state, list(business.app.catalog.values()))
    if not report.consistent:
        problems.append(f"recovered business image: {report}")
    committed = set(business.app.coordinator.committed_gtids)
    if set(state.orders) != committed:
        problems.append(
            f"recovered {len(state.orders)} orders, the primary committed "
            f"{len(committed)}")
    return problems


# ---------------------------------------------------------------------------
# replicate_snap — bare arrays, open-loop writes, analytics snapshots
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SnapInputs:
    """The seeded open-loop schedule of ``replicate_snap``.

    ``arrivals`` holds ``(due_sim_time, writes)`` in time order, one
    host-write call each; each write is ``(volume_index, block,
    payload)`` with ``volume_index`` into ``SNAP_VOLUMES``.
    """

    seed: int
    arrivals: Tuple[Tuple[float, Tuple[Tuple[int, int, bytes], ...]], ...]

    @property
    def write_count(self) -> int:
        return sum(len(writes) for _due, writes in self.arrivals)


def make_snap_inputs(seed: int) -> SnapInputs:
    """Build the address plan and payloads of one seed.

    Arrivals are Poisson host-write calls at ``SNAP_WRITE_RATE`` writes
    per simulated second.  Each call is drawn uniformly from the calls
    of one order (``SNAP_ORDER_CALLS``), so the call shapes keep an
    order's proportions; each write is the next sequential block of its
    WAL volume, as on ``order_e1``.  Payloads are distinct and
    compressible (:class:`~repro.apps.workload.PayloadProfile`).
    """
    rng = random.Random(seed * 1_000_003 + 17)
    profile = PayloadProfile(kind="compressible",
                             size_bytes=SNAP_PAYLOAD_BYTES, seed=seed)
    volume_of = {name: index
                 for index, (name, _blocks) in enumerate(SNAP_VOLUMES)}
    writes_per_call = (sum(count for _name, count in SNAP_ORDER_CALLS)
                       / len(SNAP_ORDER_CALLS))
    call_rate = SNAP_WRITE_RATE / writes_per_call
    cursor = [0] * len(SNAP_VOLUMES)
    arrivals = []
    due = rng.expovariate(call_rate)
    index = 0
    while due < SNAP_DURATION:
        name, count = rng.choice(SNAP_ORDER_CALLS)
        volume = volume_of[name]
        writes = []
        for _ in range(count):
            writes.append((volume, cursor[volume], profile.payload(index)))
            cursor[volume] += 1
            index += 1
        arrivals.append((due, tuple(writes)))
        due += rng.expovariate(call_rate)
    return SnapInputs(seed=seed, arrivals=tuple(arrivals))


def replicate_snap_round(inputs: SnapInputs, profiler=None) -> Round:
    """Feed the schedule through ``host_write_many`` while backup-site
    analytics cut, read and drop snapshot groups; then drain."""
    seed = inputs.seed
    with _traced(profiler):
        started = perf_counter()
        sim = Simulator(seed=seed)
        array_config = experiment_config().array
        main = StorageArray(sim, serial="BENCH-MAIN", config=array_config)
        backup = StorageArray(sim, serial="BENCH-BKUP", config=array_config)
        main_pool = main.create_pool(2_000_000)
        backup_pool = backup.create_pool(2_000_000)
        link = NetworkLink(sim, latency=LINK_LATENCY, name="bench-link")
        main_journal = main.create_journal(main_pool.pool_id)
        backup_journal = backup.create_journal(backup_pool.pool_id)
        group = main.create_journal_group(
            "bench", main_journal.journal_id, backup,
            backup_journal.journal_id, link)
        pvol_ids, svol_ids = [], []
        for name, blocks in SNAP_VOLUMES:
            pvol = main.create_volume(main_pool.pool_id, blocks, name=name)
            svol = backup.create_volume(backup_pool.pool_id, blocks,
                                        name=f"{name}-backup")
            main.create_async_pair(f"bench-{name}", "bench",
                                   pvol.volume_id, backup, svol.volume_id)
            pvol_ids.append(pvol.volume_id)
            svol_ids.append(svol.volume_id)
        setup_s = perf_counter() - started

        run_started = perf_counter()
        own = OwnProcesses(sim)
        ack_latencies: List[float] = []
        call_latencies: List[float] = []
        acked = [0]
        errors: List[str] = []
        cuts: List[Dict[int, Dict[int, int]]] = []
        draining = [False]
        pvol_of_svol = dict(zip(svol_ids, pvol_ids))

        def issue(due, writes):
            try:
                records = yield from main.host_write_many(writes)
            except Exception as exc:  # noqa: BLE001 - a failed check
                errors.append(f"host_write_many failed: {exc!r}")
                return
            latency = sim.now - due
            call_latencies.append(latency)
            ack_latencies.extend([latency] * len(records))
            acked[0] += len(records)

        def dispatcher():
            for due, writes in inputs.arrivals:
                if due > sim.now:
                    yield own.sleep(due - sim.now)
                own.spawn(issue(due, [(pvol_ids[volume], block, payload)
                                      for volume, block, payload in writes]),
                          name="bench-writer")

        def analytics():
            generation = 0
            while not draining[0]:
                yield own.sleep(SNAP_ANALYTICS_PERIOD)
                generation += 1
                group_id = f"bench-analytics-{generation}"
                snapshots = yield from backup.create_snapshot_group(
                    group_id, svol_ids)
                cut = {}
                for snapshot in snapshots.snapshots:
                    snapshot.image_blocks()
                    cut[pvol_of_svol[snapshot.base.volume_id]] = \
                        snapshot.frozen_version_map()
                cuts.append(cut)
                yield own.sleep(SNAP_ANALYTICS_HOLD)
                for snapshot in snapshots.snapshots:
                    snapshot.image_blocks()
                backup.delete_snapshot_group(group_id)

        sampler = RpoSampler(own, [group])
        feeder = own.spawn(dispatcher(), name="bench-dispatcher")
        analyst = own.spawn(analytics(), name="bench-analytics")
        sim.run_until_complete(feeder)
        drained = _drain(
            sim, lambda: bool(errors) or (
                acked[0] == inputs.write_count and not group.entry_lag),
            SNAP_DURATION)
        draining[0] = True
        try:
            sim.run_until_complete(analyst,
                                   timeout=DRAIN_LIMIT * SNAP_DURATION)
        except Exception as exc:  # noqa: BLE001 - a failed check
            errors.append(f"analytics failed: {exc!r}")
        sampler.stop()
        run_s = perf_counter() - run_started

    attempted = inputs.write_count
    round_ = Round(seed=seed, setup_s=setup_s, run_s=run_s,
                   orders=len(call_latencies), writes=acked[0],
                   attempted=attempted, failed=attempted - acked[0],
                   order_latencies=call_latencies,
                   ack_latencies=ack_latencies,
                   rpo_samples=sampler.samples)
    round_.sim = {"snapshot_groups": len(cuts)}
    round_.work = _work_counts(sim, [group], own)
    round_.problems = list(errors)
    if not drained:
        round_.problems.append(
            f"{_lag_problem([group], SNAP_DURATION)}, "
            f"{attempted - acked[0]} writes unacked")
    round_.problems += check_replicate_snap(main, group, cuts)
    return round_


def check_replicate_snap(main: StorageArray, group,
                         cuts: Sequence[Dict[int, Dict[int, int]]],
                         ) -> List[str]:
    """Every analytics cut is a prefix of the ack order, and each
    drained secondary equals its primary block for block."""
    problems = []
    if not cuts:
        problems.append("no analytics snapshot group was taken")
    for number, cut in enumerate(cuts, 1):
        report = checker.check_storage_cut(main.history, cut)
        if not report.consistent:
            problems.append(f"snapshot group {number} is not a prefix cut:"
                            f" {report}")
    for pair in group.pairs.values():
        primary = {block: (value.version, value.payload)
                   for block, value in pair.pvol.block_map().items()}
        secondary = {block: (value.version, value.payload)
                     for block, value in pair.svol.block_map().items()}
        if primary != secondary:
            differing = sum(1 for block in primary.keys() | secondary.keys()
                            if primary.get(block) != secondary.get(block))
            problems.append(f"{pair.svol.name} differs from "
                            f"{pair.pvol.name} in {differing} blocks")
    return problems


# ---------------------------------------------------------------------------
# chaos_soak — one soak campaign with failover verification
# ---------------------------------------------------------------------------


def chaos_soak_round(seed: int, profiler=None) -> Round:
    """``run_campaign(seed, preset="soak", verify_failover=True)``, with
    environment build timed as set-up and the campaign as the run."""
    workloads: List[object] = []

    class RecordedWorkload(chaos_engine.ChaosWorkload):
        """The engine keeps its workload local; this subclass only
        remembers the instance so its order latencies can be read."""

        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            workloads.append(self)

    with _traced(profiler):
        started = perf_counter()
        env = chaos_engine.build_chaos_environment(seed)
        setup_s = perf_counter() - started
        sim = env.sim
        main = env.system.main.array
        writes_before = main.host_writes.value
        acks_before = len(main.write_latency.samples)
        committed_before = len(env.business.app.coordinator.committed_gtids)
        run_started = perf_counter()
        plan = build_plan(sim, PRESETS[CHAOS_PRESET])
        own = OwnProcesses(sim)
        sampler = RpoSampler(own, [env.group])
        original = chaos_engine.ChaosWorkload
        chaos_engine.ChaosWorkload = RecordedWorkload
        try:
            report = chaos_engine.ChaosEngine(env, plan).run(
                verify_failover=True)
        finally:
            chaos_engine.ChaosWorkload = original
        sampler.stop()
        run_s = perf_counter() - run_started
    latencies = [latency for workload in workloads
                 for _end, latency, _exempt in workload.completions]
    acks = main.write_latency.samples[acks_before:]
    writes = main.host_writes.value - writes_before
    committed = len(env.business.app.coordinator.committed_gtids) \
        - committed_before
    lost = max(report.lost_committed_orders, 0)
    round_ = Round(seed=seed, setup_s=setup_s, run_s=run_s,
                   orders=committed, writes=writes,
                   attempted=report.orders_completed, failed=lost,
                   order_latencies=latencies, ack_latencies=list(acks),
                   rpo_samples=sampler.samples)
    rto = sim.telemetry.registry.get("repro_failover_rto_seconds",
                                     namespace=env.business.namespace)
    round_.sim = {"digest": report.digest,
                  "retried_attempts": report.failed_attempts}
    round_.work = _work_counts(sim, [env.group], own, (
        env.system.main.cluster, env.system.backup.cluster))
    round_.work["failover_rto_sim_s"] = rto.value if rto is not None else 0.0
    round_.work["faults_injected"] = report.counters.get(
        "chaos_faults_total", 0)
    if not report.passed:
        round_.problems.append(
            "chaos campaign failed: " + "; ".join(report.violation_lines
                                                  or ["not converged"]))
    if len(workloads) != 1:
        round_.problems.append(
            f"expected one chaos workload, saw {len(workloads)}")
    return round_
