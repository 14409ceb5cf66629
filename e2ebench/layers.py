"""Per-layer self time and work counts for the traced benchmark run.

:class:`LayerProfiler` wraps public entry points of the nine layers
(the packages under ``src/repro/``) from outside the program: it swaps
class attributes and module globals for timing wrappers while
installed and puts the originals back on :meth:`LayerProfiler.uninstall`.
The program's source is untouched.

Every wrapped call is a *frame*.  Frames nest on one stack, and a
frame's self time is its duration minus the time its wrapped children
covered.  Generator entry points (simulation processes) are timed per
resume step, so time a process spends suspended in the kernel is never
charged to it.  Each kernel resume of a process is a frame too, charged
to the layer whose module defined the process generator, so unwrapped
background loops (the transfer and restore loops, controller workers)
still land in their own layer.

All records stay in memory; :meth:`LayerProfiler.report` hands them to
the caller once the traced round is over.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: the program's packages under ``src/repro/`` that count as layers
LAYERS = ("simulation", "storage", "apps", "telemetry", "platform", "csi",
          "operator", "recovery", "chaos")

#: (module, attribute path, frame key, count keys).  A frame key's
#: first component is its layer; each call adds one to every count key.
_TARGETS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("repro.simulation.kernel", "Simulator.run", "simulation.kernel", ()),
    ("repro.simulation.kernel", "Simulator.run_until_complete",
     "simulation.kernel", ()),
    ("repro.simulation.kernel", "Simulator.spawn", "simulation.spawn",
     ("simulation.spawns",)),
    ("repro.storage.array", "StorageArray.host_write",
     "storage.host_write", ()),
    ("repro.storage.array", "StorageArray.host_write_many",
     "storage.host_write", ()),
    ("repro.storage.adc", "JournalGroup.journal_append",
     "storage.journal_append", ()),
    ("repro.storage.adc", "JournalGroup.journal_append_many",
     "storage.journal_append", ()),
    ("repro.storage.journal", "JournalVolume.ingest",
     "storage.journal.ingest", ()),
    ("repro.storage.journal", "JournalVolume.ingest_batch",
     "storage.journal.ingest", ()),
    ("repro.storage.journal", "payload_checksum", "storage.crc32",
     ("storage.crc32",)),
    ("repro.storage.array", "StorageArray.create_snapshot_group",
     "storage.snapshot.create", ()),
    ("repro.storage.array", "StorageArray.delete_snapshot_group",
     "storage.snapshot.create", ()),
    ("repro.storage.snapshot", "Snapshot.image_blocks",
     "storage.snapshot.read", ()),
    ("repro.storage.snapshot", "Snapshot.frozen_version_map",
     "storage.snapshot.read", ()),
    ("repro.storage.snapshot", "Snapshot.save_preimage",
     "storage.snapshot.preimage", ("storage.snapshot.preimages",)),
    ("repro.storage.adc", "JournalGroup.resync", "storage.resync",
     ("storage.resync.calls",)),
    ("repro.storage.sdc", "SyncMirror.resync", "storage.resync",
     ("storage.resync.calls",)),
    ("repro.apps.ecommerce", "EcommerceApp.place_order",
     "apps.place_order", ()),
    ("repro.apps.ecommerce", "EcommerceApp.place_basket_order",
     "apps.place_order", ()),
    ("repro.apps.minidb.engine", "MiniDB.commit", "apps.minidb.commit", ()),
    ("repro.apps.minidb.engine", "MiniDB.prepare", "apps.minidb.commit",
     ()),
    ("repro.apps.minidb.engine", "MiniDB.commit_prepared",
     "apps.minidb.commit", ()),
    ("repro.apps.minidb.wal", "WalWriter.append", "apps.wal.append", ()),
    ("repro.apps.minidb.wal", "WalWriter.append_many", "apps.wal.append",
     ()),
    ("repro.apps.minidb.device", "ArrayBlockDevice.write_block",
     "apps.device", ("apps.device.writes",)),
    ("repro.apps.minidb.device", "ArrayBlockDevice.write_blocks",
     "apps.device", ("apps.device.writes",)),
    ("repro.apps.minidb.device", "ViewBlockDevice.write_block",
     "apps.device", ("apps.device.writes",)),
    ("repro.apps.minidb.device", "MemoryBlockDevice.write_block",
     "apps.device", ("apps.device.writes",)),
    ("repro.telemetry.spans", "Tracer.start", "telemetry.tracer",
     ("telemetry.spans",)),
    ("repro.telemetry.spans", "Tracer.finish", "telemetry.tracer", ()),
    ("repro.telemetry.spans", "Tracer.event", "telemetry.tracer", ()),
    ("repro.telemetry.metrics", "LatencyRecorder.record",
     "telemetry.metrics", ("telemetry.metric_updates",)),
    ("repro.telemetry.metrics", "LatencyRecorder.observe",
     "telemetry.metrics", ("telemetry.metric_updates",)),
    ("repro.telemetry.metrics", "Counter.increment", "telemetry.metrics",
     ("telemetry.metric_updates",)),
    ("repro.telemetry.metrics", "Gauge.sample", "telemetry.metrics",
     ("telemetry.metric_updates",)),
    ("repro.telemetry.metrics", "Histogram.observe", "telemetry.metrics",
     ("telemetry.metric_updates",)),
    ("repro.platform.apiserver", "ApiServer.create", "platform.api",
     ("platform.api.calls",)),
    ("repro.platform.apiserver", "ApiServer.get", "platform.api",
     ("platform.api.calls",)),
    ("repro.platform.apiserver", "ApiServer.try_get", "platform.api",
     ("platform.api.calls",)),
    ("repro.platform.apiserver", "ApiServer.list", "platform.api",
     ("platform.api.calls",)),
    ("repro.platform.apiserver", "ApiServer.update", "platform.api",
     ("platform.api.calls",)),
    ("repro.platform.apiserver", "ApiServer.delete", "platform.api",
     ("platform.api.calls",)),
    ("repro.platform.controller", "Controller.enqueue_after",
     "platform.controller", ("platform.requeues",)),
    ("repro.platform.gc", "NamespaceGcReconciler.reconcile",
     "platform.reconcile", ()),
    ("repro.platform.scheduler", "PodSchedulerReconciler.reconcile",
     "platform.reconcile", ()),
    ("repro.csi.driver", "HspcDriver.create_volume", "csi.rpc",
     ("csi.rpc.calls",)),
    ("repro.csi.driver", "HspcDriver.delete_volume", "csi.rpc",
     ("csi.rpc.calls",)),
    ("repro.csi.driver", "HspcDriver.create_snapshot", "csi.rpc",
     ("csi.rpc.calls",)),
    ("repro.csi.driver", "HspcDriver.delete_snapshot", "csi.rpc",
     ("csi.rpc.calls",)),
    ("repro.csi.driver", "HspcDriver.create_snapshot_group", "csi.rpc",
     ("csi.rpc.calls",)),
    ("repro.csi.replication_plugin", "ReplicationReconciler.reconcile",
     "csi.replication.reconcile", ()),
    ("repro.csi.replication_plugin",
     "VolumeReplicationReconciler.reconcile", "csi.replication.reconcile",
     ()),
    ("repro.csi.storage_plugin", "ProvisionerReconciler.reconcile",
     "csi.reconcile", ()),
    ("repro.csi.storage_plugin", "SnapshotReconciler.reconcile",
     "csi.reconcile", ()),
    ("repro.csi.storage_plugin", "GroupSnapshotReconciler.reconcile",
     "csi.reconcile", ()),
    ("repro.operator.nso", "NamespaceOperatorReconciler.reconcile",
     "operator.reconcile", ("operator.reconcile.calls",)),
    ("repro.recovery.failover", "FailoverManager.execute",
     "recovery.failover", ()),
    ("repro.recovery.checker", "check_storage_cut", "recovery.checker", ()),
    ("repro.recovery.checker", "check_business_invariants",
     "recovery.checker", ()),
    ("repro.chaos.engine", "ChaosEngine.run", "chaos.engine", ()),
    ("repro.chaos.invariants", "InvariantMonitor.final_checks",
     "chaos.invariants", ()),
    ("repro.chaos.invariants", "InvariantMonitor._watch",
     "chaos.invariants", ()),
)


def _layer_of_file(filename: str) -> Optional[str]:
    """The layer whose package holds ``filename`` (None outside them)."""
    parts = filename.replace("\\", "/").split("/")
    for index in range(len(parts) - 2, -1, -1):
        if parts[index] == "repro":
            layer = parts[index + 1]
            return layer if layer in LAYERS else None
    return None


class LayerProfiler:
    """In-memory per-layer frame timer over the program's entry points."""

    def __init__(self) -> None:
        #: open frames: the child time covered so far in each
        self._stack: List[float] = []
        #: frame key -> accumulated self seconds
        self.self_s: Dict[str, float] = defaultdict(float)
        #: count key -> calls (or bytes, for the byte counters)
        self.counts: Dict[str, int] = defaultdict(int)
        self._patches: List[Tuple[object, str, object]] = []
        self._code_layers: Dict[object, Optional[str]] = {}

    # -- frames --------------------------------------------------------------

    def _frame(self, key: Optional[str], fn: Callable, args, kwargs):
        stack = self._stack
        stack.append(0.0)
        started = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - started
            child = stack.pop()
            if key is not None:
                self.self_s[key] += elapsed - child
            if stack:
                stack[-1] += elapsed

    def _timed_steps(self, key: str, generator):
        """Re-yield ``generator``, timing each resume step as a frame."""
        stack = self._stack
        self_s = self.self_s
        send = generator.send
        value = None
        error: Optional[BaseException] = None
        while True:
            stack.append(0.0)
            started = perf_counter()
            try:
                if error is None:
                    item = send(value)
                else:
                    item = generator.throw(error)
            except StopIteration as stop:
                self._close_step(key, started)
                return stop.value
            except BaseException:
                self._close_step(key, started)
                raise
            elapsed = perf_counter() - started
            self_s[key] += elapsed - stack.pop()
            if stack:
                stack[-1] += elapsed
            error = None
            try:
                value = yield item
            except GeneratorExit:
                generator.close()
                raise
            except BaseException as exc:  # delivered into the process
                error = exc
                value = None

    def _close_step(self, key: str, started: float) -> None:
        elapsed = perf_counter() - started
        stack = self._stack
        self.self_s[key] += elapsed - stack.pop()
        if stack:
            stack[-1] += elapsed

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn: Callable, key: str,
              count_keys: Tuple[str, ...]) -> Callable:
        counts = self.counts
        frame = self._frame
        if inspect.isgeneratorfunction(fn):
            timed = self._timed_steps

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                for count_key in count_keys:
                    counts[count_key] += 1
                return timed(key, fn(*args, **kwargs))
            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for count_key in count_keys:
                counts[count_key] += 1
            return frame(key, fn, args, kwargs)
        return wrapper

    def _wrap_transfer(self, fn: Callable) -> Callable:
        """``NetworkLink.transfer``: count transfers and payload bytes."""
        counts = self.counts
        timed = self._timed_steps

        @functools.wraps(fn)
        def transfer(link, payload_bytes, *args, **kwargs):
            counts["simulation.network.transfers"] += 1
            counts["simulation.network.bytes"] += int(payload_bytes)
            return timed("simulation.network",
                         fn(link, payload_bytes, *args, **kwargs))
        return transfer

    def _wrap_install(self, fn: Callable, svol_role) -> Callable:
        """``Volume.install_block``: restore installs (secondary volumes)
        are their own frame key; primary installs are host-path work."""
        counts = self.counts
        frame = self._frame

        @functools.wraps(fn)
        def install_block(volume, *args, **kwargs):
            if volume.role is svol_role:
                counts["storage.restore.installs"] += 1
                return frame("storage.restore.install", fn,
                             (volume,) + args, kwargs)
            return frame("storage.volume.install", fn, (volume,) + args,
                         kwargs)
        return install_block

    def _wrap_to_bytes(self, fn: Callable) -> Callable:
        """``WalRecord.to_bytes``: count encoded WAL bytes."""
        counts = self.counts

        @functools.wraps(fn)
        def to_bytes(record):
            encoded = fn(record)
            counts["apps.wal.bytes"] += len(encoded)
            return encoded
        return to_bytes

    def _wrap_step(self, fn: Callable) -> Callable:
        """``Process._step``: one kernel resume, charged to the layer of
        the module that defined the process generator."""
        layers = self._code_layers
        frame = self._frame

        @functools.wraps(fn)
        def step(process, fired):
            code = getattr(process._generator, "gi_code", None)
            try:
                layer = layers[code]
            except KeyError:
                layer = layers[code] = (
                    _layer_of_file(code.co_filename)
                    if code is not None else None)
            return frame(layer, fn, (process, fired), {})
        return step

    # -- install / uninstall -------------------------------------------------

    def _patch(self, owner: object, name: str, replacement: object) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def _patch_function(self, module_name: str, name: str,
                        replacement: Callable) -> None:
        """Rebind a module function in every loaded module that imported
        it by name (``from x import f`` copies the reference)."""
        original = getattr(importlib.import_module(module_name), name)
        for module in list(sys.modules.values()):
            module_dict = getattr(module, "__dict__", None)
            if module_dict is not None and \
                    module_dict.get(name) is original:
                self._patch(module, name, replacement)

    def install(self) -> None:
        """Swap every target for its timing wrapper."""
        if self._patches:
            raise RuntimeError("profiler already installed")
        for module_name, path, key, count_keys in _TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, attribute = path.split(".")
                owner = getattr(module, class_name)
                self._patch(owner, attribute,
                            self._wrap(owner.__dict__[attribute], key,
                                       count_keys))
            else:
                self._patch_function(
                    module_name, path,
                    self._wrap(getattr(module, path), key, count_keys))
        from repro.apps.minidb.wal import WalRecord
        from repro.simulation.network import NetworkLink
        from repro.simulation.process import Process
        from repro.storage.volume import Volume, VolumeRole
        self._patch(NetworkLink, "transfer",
                    self._wrap_transfer(NetworkLink.__dict__["transfer"]))
        self._patch(Volume, "install_block",
                    self._wrap_install(Volume.__dict__["install_block"],
                                       VolumeRole.SVOL))
        self._patch(WalRecord, "to_bytes",
                    self._wrap_to_bytes(WalRecord.__dict__["to_bytes"]))
        self._patch(Process, "_step",
                    self._wrap_step(Process.__dict__["_step"]))

    def uninstall(self) -> None:
        """Put every original back (newest patch first)."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- results -------------------------------------------------------------

    def layer_self_s(self) -> Dict[str, float]:
        """Self seconds per layer (sum over the layer's frame keys)."""
        totals = {layer: 0.0 for layer in LAYERS}
        for key, seconds in self.self_s.items():
            layer = key.split(".", 1)[0]
            if layer in totals:
                totals[layer] += seconds
        return totals

    def report(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """``(self seconds by key and layer, counts)``, copied."""
        seconds = dict(self.self_s)
        seconds.update(self.layer_self_s())
        return seconds, dict(self.counts)
