"""The benchmark's own tests: repeatability, seeding, checks, catalog.

Run from the repository root with ``python3 -m pytest -q e2ebench/tests``.
The workloads are shortened here so the suite stays fast; the shapes
and checks are the benchmark's own.
"""

import collections
import json
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

from e2ebench import layers, metrics, run, workloads
from repro.storage.array import StorageArray
from repro.storage.history import WriteHistory

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]+\Z")


@pytest.fixture
def short(monkeypatch):
    """Shrink the simulated run lengths (not the shapes)."""
    monkeypatch.setattr(workloads, "ORDER_DURATION", 0.4)
    monkeypatch.setattr(workloads, "SNAP_DURATION", 0.6)
    monkeypatch.setattr(workloads, "SNAP_ANALYTICS_PERIOD", 0.1)
    monkeypatch.setattr(workloads, "SNAP_ANALYTICS_HOLD", 0.05)


def _traced_round(inputs):
    profiler = layers.LayerProfiler()
    round_ = workloads.replicate_snap_round(inputs, profiler)
    round_.layer_seconds, round_.layer_counts = profiler.report()
    return round_


def _run(capsys, *args):
    status = run.main(list(args))
    lines = capsys.readouterr().out.strip().splitlines()
    return status, lines, json.loads(lines[-1])


# -- repeatability -----------------------------------------------------------


def test_same_seed_repeats_simulated_figures_and_layer_counts(short):
    inputs = workloads.make_snap_inputs(5)
    first, second = _traced_round(inputs), _traced_round(inputs)
    assert first.problems == [] and second.problems == []
    assert first.deterministic() == second.deterministic()
    assert first.layer_counts == second.layer_counts
    assert first.layer_counts["storage.restore.installs"] > 0
    assert metrics.simulated([first], 1, 0) == \
        metrics.simulated([second], 1, 0)
    assert metrics.repeat_problems([first, second]) == []


def test_order_e1_repeats_and_passes_its_checks(short):
    first = workloads.order_e1_round(7)
    second = workloads.order_e1_round(7)
    assert first.problems == []
    assert first.orders > 0 and first.writes > first.orders
    assert first.deterministic() == second.deterministic()


def test_repeat_check_flags_a_differing_round(short):
    first = workloads.order_e1_round(7)
    second = workloads.order_e1_round(7)
    second.order_latencies.append(1.0)
    assert metrics.repeat_problems([first, second])


# -- seeding -----------------------------------------------------------------


def test_different_seed_changes_the_input_stream(short):
    one, two = workloads.make_snap_inputs(1), workloads.make_snap_inputs(2)
    assert one.arrivals != two.arrivals
    assert one.arrivals == workloads.make_snap_inputs(1).arrivals
    assert workloads.sub_seeds("chaos_soak", 1) != \
        workloads.sub_seeds("chaos_soak", 2)
    assert workloads.order_e1_round(1).order_latencies != \
        workloads.order_e1_round(2).order_latencies


def test_snap_inputs_have_the_documented_shape():
    inputs = workloads.make_snap_inputs(3)
    rate = inputs.write_count / workloads.SNAP_DURATION
    assert 0.95 * workloads.SNAP_WRITE_RATE < rate \
        < 1.05 * workloads.SNAP_WRITE_RATE
    payloads = [payload for _due, writes in inputs.arrivals
                for _volume, _block, payload in writes]
    assert len(set(payloads)) == len(payloads)
    dues = [due for due, _writes in inputs.arrivals]
    assert dues == sorted(dues)
    names = [name for name, _blocks in workloads.SNAP_VOLUMES]
    shapes = collections.Counter(
        (names[writes[0][0]], len(writes)) for _due, writes in inputs.arrivals)
    expected = collections.Counter(workloads.SNAP_ORDER_CALLS)
    per_order = len(inputs.arrivals) / len(workloads.SNAP_ORDER_CALLS)
    for shape, count in expected.items():
        assert abs(shapes[shape] / per_order - count) < 0.1 * count, shape
    blocks = collections.defaultdict(list)
    for _due, writes in inputs.arrivals:
        for volume, block, _payload in writes:
            blocks[names[volume]].append(block)
    assert sorted(blocks) == ["sales-wal", "stock-wal"]
    for sequence in blocks.values():
        assert sequence == list(range(len(sequence)))


def test_snap_shape_matches_the_measured_order_e1_stream(short, monkeypatch):
    """``replicate_snap``'s constants are ``order_e1``'s host-write
    stream: re-measure that stream and compare."""
    calls = []
    recording = [False]
    built = []
    real_one = StorageArray.host_write
    real_many = StorageArray.host_write_many
    real_build = workloads.build_business_system
    real_load = workloads.run_order_workload

    def host_write(array, volume_id, block, payload, tag=None):
        if recording[0]:
            calls.append([(volume_id, block, len(payload))])
        return real_one(array, volume_id, block, payload, tag)

    def host_write_many(array, writes, tag=None):
        if recording[0]:
            calls.append([(w[0], w[1], len(w[2])) for w in writes])
        return real_many(array, writes, tag)

    def build(*args, **kwargs):
        built.append(real_build(*args, **kwargs))
        return built[-1]

    def load(*args, **kwargs):
        recording[0] = True
        try:
            return real_load(*args, **kwargs)
        finally:
            recording[0] = False

    monkeypatch.setattr(StorageArray, "host_write", host_write)
    monkeypatch.setattr(StorageArray, "host_write_many", host_write_many)
    monkeypatch.setattr(workloads, "build_business_system", build)
    monkeypatch.setattr(workloads, "run_order_workload", load)
    round_ = workloads.order_e1_round(100)
    experiment = built[0]
    main = experiment.system.main.array
    name_of = {volume_id: name for name, volume_id
               in experiment.business.volume_ids.items()}
    assert {name: main.get_volume(volume_id).capacity_blocks
            for name, volume_id in experiment.business.volume_ids.items()} \
        == dict(workloads.SNAP_VOLUMES)

    writes = [write for call in calls for write in call]
    rate = len(writes) / workloads.ORDER_DURATION
    assert 0.95 * workloads.SNAP_WRITE_RATE < rate \
        < 1.05 * workloads.SNAP_WRITE_RATE
    sizes = [size for _volume, _block, size in writes]
    assert abs(sum(sizes) / len(sizes) - workloads.SNAP_PAYLOAD_BYTES) \
        < 0.1 * workloads.SNAP_PAYLOAD_BYTES
    shapes = collections.Counter(
        (name_of[call[0][0]], len(call)) for call in calls)
    for shape, count in collections.Counter(
            workloads.SNAP_ORDER_CALLS).items():
        # orders still in flight at the end add a few calls
        assert 0 <= shapes.pop(shape) - count * round_.orders \
            <= count * workloads.ORDER_CLIENTS, shape
    assert shapes == {}
    blocks = collections.defaultdict(list)
    for volume, block, _size in writes:
        blocks[name_of[volume]].append(block)
    for sequence in blocks.values():
        assert sequence == list(range(sequence[0],
                                      sequence[0] + len(sequence)))


# -- correctness checks -------------------------------------------------------


def _history():
    history = WriteHistory()
    history.append(0.1, 1, 0, 1)
    history.append(0.2, 2, 0, 1)
    history.append(0.3, 1, 1, 2)
    return history


def test_synthetic_inconsistent_image_is_reported():
    main = SimpleNamespace(history=_history())
    group = SimpleNamespace(pairs={})
    prefix = {1: {0: 1}, 2: {0: 1}}
    assert workloads.check_replicate_snap(main, group, [prefix]) == []
    # ack seq 1 is present although the earlier ack seq 0 is absent
    collapsed = {1: {}, 2: {0: 1}}
    problems = workloads.check_replicate_snap(main, group, [collapsed])
    assert problems and "not a prefix cut" in problems[0]


def test_secondary_that_differs_from_its_primary_is_reported():
    def volume(name, blocks):
        return SimpleNamespace(name=name, block_map=lambda: {
            block: SimpleNamespace(version=version, payload=payload)
            for block, (version, payload) in blocks.items()})

    pair = SimpleNamespace(pvol=volume("p", {0: (1, b"a"), 1: (2, b"b")}),
                           svol=volume("s", {0: (1, b"a")}))
    main = SimpleNamespace(history=WriteHistory())
    group = SimpleNamespace(pairs={"p": pair})
    problems = workloads.check_replicate_snap(main, group, [{}])
    assert problems == ["s differs from p in 1 blocks"]


def test_failed_check_counts_every_operation_failed(short, monkeypatch,
                                                    capsys):
    real = workloads.check_replicate_snap

    def with_collapsed_cut(main: StorageArray, group, cuts):
        records = main.history.records
        first = records[0]
        last = next(record for record in reversed(records)
                    if (record.volume_id, record.block)
                    != (first.volume_id, first.block))
        collapsed = {volume_id: {} for volume_id in cuts[0]}
        collapsed[last.volume_id][last.block] = last.version
        return real(main, group, list(cuts) + [collapsed])

    monkeypatch.setattr(workloads, "check_replicate_snap",
                        with_collapsed_cut)
    status, lines, result = _run(capsys, "--workload", "replicate_snap",
                                 "--seed", "4", "--seconds", "0")
    assert status == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert any("CHECK FAILED" in line for line in lines)


# -- drains and failed writes -------------------------------------------------


def test_stalled_order_e1_drain_is_a_failed_check(short, monkeypatch,
                                                  capsys):
    # the drain may not outlast a sliver of the load: the backlog stalls it
    monkeypatch.setattr(workloads, "DRAIN_LIMIT", 0.01)
    status, lines, result = _run(capsys, "--workload", "order_e1",
                                 "--seed", "3", "--seconds", "0")
    assert status == 1 and result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert any("CHECK FAILED" in line and "not drained" in line
               for line in lines)


def test_stalled_replicate_snap_drain_is_a_failed_check(short, monkeypatch):
    monkeypatch.setattr(workloads, "DRAIN_LIMIT", 0.01)
    round_ = workloads.replicate_snap_round(workloads.make_snap_inputs(3))
    assert any("not drained" in problem for problem in round_.problems)


def test_failing_host_write_is_a_failed_check(short, monkeypatch):
    real = StorageArray.host_write_many
    calls = [0]

    def flaky(array, writes, tag=None):
        calls[0] += 1
        if calls[0] == 10:
            raise RuntimeError("injected")
        return (yield from real(array, writes, tag))

    monkeypatch.setattr(StorageArray, "host_write_many", flaky)
    round_ = workloads.replicate_snap_round(workloads.make_snap_inputs(3))
    assert round_.failed > 0
    assert any("host_write_many failed" in problem
               for problem in round_.problems)


def test_own_processes_account_for_every_queue_entry_they_make():
    """The program's event count leaves out exactly the benchmark's own
    spawns and sleeps."""
    sim = workloads.Simulator(seed=1)
    own = workloads.OwnProcesses(sim)
    sampler = workloads.RpoSampler(own, [])

    def pacer():
        for _ in range(7):
            yield own.sleep(0.003)

    own.spawn(pacer(), name="bench-pacer")
    sim.run(until=0.1)
    sampler.stop()
    sim.run(until=0.2)
    assert own.spawns == 2 and own.events > 20
    assert workloads._work_counts(sim, [], own)["events"] == 0


# -- metric catalog and output ------------------------------------------------


def test_metric_names_match_the_pattern_and_carry_units():
    catalog = metrics.END_TO_END + metrics.PER_LAYER
    names = [name for name, _unit, _better in catalog]
    assert len(names) == len(set(names))
    for name, unit, better in catalog:
        assert NAME.match(name) and len(name) <= 64, name
        assert UNIT.match(unit) and len(unit) <= 16, (name, unit)
        assert better in ("higher", "lower")
    for name, unit in metrics.SIMULATED:
        assert NAME.match(name) and UNIT.match(unit)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])


def test_end_to_end_run_prints_every_metric_with_its_unit(short, capsys):
    status, lines, result = _run(capsys, "--workload", "replicate_snap",
                                 "--seed", "2", "--seconds", "0")
    assert status == 0 and result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [
        name for name, _unit, _better in metrics.END_TO_END]
    for name, unit, _better in metrics.END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert any(line.split()[:1] == [name] for line in lines)
    for name, unit in metrics.SIMULATED:
        assert any(line.split()[:1] == [name] and line.endswith(unit)
                   for line in lines)


def test_traced_replicate_snap_reads_zero_in_apps(short, capsys):
    status, _lines, result = _run(capsys, "--workload", "replicate_snap",
                                  "--seed", "2", "--seconds", "0",
                                  "--trace", "1")
    values = {name: entry["value"]
              for name, entry in result["metrics"].items()}
    assert status == 0
    assert list(values) == [name for name, _u, _b in metrics.PER_LAYER]
    assert all(value == 0 for name, value in values.items()
               if name.startswith("apps."))
    assert values["storage.snapshot.read.self_s"] > 0
    assert values["storage.snapshot.preimages_per_write"] > 0
    assert values["bench.trace_overhead"] > 1


def test_traced_order_e1_reads_zero_in_snapshots(short, capsys):
    status, _lines, result = _run(capsys, "--workload", "order_e1",
                                  "--seed", "2", "--seconds", "0",
                                  "--trace", "1")
    values = {name: entry["value"]
              for name, entry in result["metrics"].items()}
    assert status == 0
    assert all(value == 0 for name, value in values.items()
               if name.startswith("storage.snapshot."))
    for layer in ("simulation", "storage", "apps", "telemetry", "platform",
                  "csi", "operator"):
        assert values[f"{layer}.self_s"] > 0, layer


def test_profiler_uninstall_restores_every_original():
    from repro.simulation.process import Process
    from repro.storage import journal
    from repro.storage.volume import Volume
    before = (Process._step, Volume.install_block, journal.payload_checksum,
              StorageArray.host_write)
    profiler = layers.LayerProfiler()
    profiler.install()
    assert StorageArray.host_write is not before[3]
    profiler.uninstall()
    assert (Process._step, Volume.install_block, journal.payload_checksum,
            StorageArray.host_write) == before


def test_missing_program_source_exits_without_a_result(tmp_path):
    import shutil
    import subprocess
    import sys
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "e2ebench", tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "order_e1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
