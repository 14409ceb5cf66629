"""Metric catalog and the reduction of rounds to reported figures.

The names, units and directions of the reported metrics are read from
``BENCHMARK.json``; this module computes each value.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from e2ebench.workloads import Round

_BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

#: (name, unit, better) of the end-to-end metrics, printed on every
#: workload with tracing off and gated against the parent commit
END_TO_END: Tuple[Tuple[str, str, str], ...] = tuple(
    (m["name"], m["unit"], m["better"]) for m in _BENCHMARK["end_to_end"])

#: (name, unit, better) of the per-layer metrics of the traced run
PER_LAYER: Tuple[Tuple[str, str, str], ...] = tuple(
    (m["name"], m["unit"], m["better"]) for m in _BENCHMARK["per_layer"])

#: (name, unit) of the simulated-time figures: deterministic for a seed,
#: so they are printed and checked for exact repetition, not gated on
#: noise (see e2ebench/NOTES.md)
SIMULATED: Tuple[Tuple[str, str], ...] = (
    ("order_p50_sim_ms", "ms"),
    ("order_p99_sim_ms", "ms"),
    ("write_ack_p99_sim_ms", "ms"),
    ("rpo_p99_sim_ms", "ms"),
    ("failed_op_ratio", "ratio"),
)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(fraction * len(ordered) - 1e-9)
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def by_seed(rounds: Sequence[Round]) -> Dict[int, List[Round]]:
    """Rounds grouped by seed, in first-seen order."""
    groups: Dict[int, List[Round]] = {}
    for round_ in rounds:
        groups.setdefault(round_.seed, []).append(round_)
    return groups


def end_to_end(rounds: Sequence[Round]) -> Dict[str, float]:
    """Wall-clock figures over the rounds of every seed.

    Each seed counts once, whatever its number of rounds: its run time
    is the median over its rounds, and the rates divide the seeds'
    summed work by their summed median run times.
    """
    groups = by_seed(rounds).values()
    run_s = sum(statistics.median(r.run_s for r in group)
                for group in groups)
    return {
        "setup_s": statistics.median(r.setup_s for r in rounds),
        "orders_per_s": sum(group[0].orders for group in groups) / run_s,
        "replicated_writes_per_s":
            sum(group[0].writes for group in groups) / run_s,
        "peak_rss_mb": peak_rss_mb(),
    }


def simulated(rounds: Sequence[Round], attempted: int,
              failed: int) -> Dict[str, float]:
    """Simulated-time percentiles over the pooled samples of one round
    per seed (every round of a seed repeats them exactly)."""
    firsts = [group[0] for group in by_seed(rounds).values()]

    def pooled(name: str) -> List[float]:
        return [value for r in firsts for value in getattr(r, name)]

    return {
        "order_p50_sim_ms": percentile(pooled("order_latencies"), 0.5) * 1e3,
        "order_p99_sim_ms": percentile(pooled("order_latencies"),
                                       0.99) * 1e3,
        "write_ack_p99_sim_ms": percentile(pooled("ack_latencies"),
                                           0.99) * 1e3,
        "rpo_p99_sim_ms": percentile(pooled("rpo_samples"), 0.99) * 1e3,
        "failed_op_ratio": _ratio(failed, attempted),
    }


def per_layer(traced: Sequence[Round], untraced: Sequence[Round],
              per_op_is_write: bool) -> Dict[str, float]:
    """Per-layer self seconds (medians over traced rounds), work counts
    normalised per op or per write, and the tracing overhead.

    ``per_op_is_write`` selects the ``_per_op`` base: replicated writes
    on the storage-only workload, committed orders elsewhere.  All
    rounds are of one seed.
    """
    first = traced[0]
    counts = first.layer_counts
    work = first.work
    writes = first.writes
    ops = writes if per_op_is_write else first.orders

    def self_s(key: str) -> float:
        return statistics.median(r.layer_seconds.get(key, 0.0)
                                 for r in traced)

    def wall(rounds: Sequence[Round]) -> float:
        return statistics.median(r.setup_s + r.run_s for r in rounds)

    # every ``<frame key or layer>.self_s`` of the catalog
    values: Dict[str, float] = {
        name: self_s(name[:-len(".self_s")])
        for name, _unit, _better in PER_LAYER if name.endswith(".self_s")}
    values.update({
        "simulation.events_per_op": _ratio(work["events"], ops),
        "simulation.spawns_per_op": _ratio(
            counts.get("simulation.spawns", 0) - work["bench_spawns"], ops),
        "simulation.network.bytes_per_write": _ratio(
            counts.get("simulation.network.bytes", 0), writes),
        "simulation.network.transfers": counts.get(
            "simulation.network.transfers", 0),
        "storage.restore.installs_per_write": _ratio(
            counts.get("storage.restore.installs", 0), writes),
        "storage.journal.peak_entries": work["journal_peak_entries"],
        "storage.restore.rpo_p99_sim_ms":
            percentile(first.rpo_samples, 0.99) * 1e3,
        "storage.crc32_per_write": _ratio(
            counts.get("storage.crc32", 0), writes),
        "storage.snapshot.preimages_per_write": _ratio(
            counts.get("storage.snapshot.preimages", 0), writes),
        "storage.resync.calls": counts.get("storage.resync.calls", 0),
        "apps.wal.bytes_per_op": _ratio(counts.get("apps.wal.bytes", 0), ops),
        "apps.device.writes_per_op": _ratio(
            counts.get("apps.device.writes", 0), ops),
        "telemetry.spans_per_op": _ratio(
            counts.get("telemetry.spans", 0), ops),
        "telemetry.metric_updates_per_op": _ratio(
            counts.get("telemetry.metric_updates", 0), ops),
        "platform.api.calls": counts.get("platform.api.calls", 0),
        "platform.reconciles": work["controller_reconciles"],
        "platform.requeue_ratio": _ratio(
            counts.get("platform.requeues", 0),
            work["controller_reconciles"]),
        "csi.rpc.calls": counts.get("csi.rpc.calls", 0),
        "operator.reconcile.calls": counts.get(
            "operator.reconcile.calls", 0),
        "recovery.failover.rto_sim_s": work.get("failover_rto_sim_s", 0.0),
        "chaos.faults_injected": work.get("faults_injected", 0),
        "bench.trace_overhead": wall(traced) / wall(untraced),
    })
    return values


def units(catalog: Sequence[Tuple[str, str, str]]) -> Dict[str, str]:
    """name -> unit of one catalog."""
    return {name: unit for name, unit, _better in catalog}


def repeat_problems(rounds: Sequence[Round]) -> List[str]:
    """Problems for rounds that do not repeat the first round of their
    seed exactly (same seed, same inputs: the figures must match)."""
    problems = []
    for seed, group in by_seed(rounds).items():
        first = group[0].deterministic()
        for other in group[1:]:
            figures = other.deterministic()
            if figures != first:
                keys = sorted(key for key in first.keys() | figures.keys()
                              if first.get(key) != figures.get(key))
                problems.append(f"seed {seed}: a repeated round differs on "
                                f"{', '.join(keys)}")
    traced = [r for r in rounds if r.layer_seconds]
    for seed, group in by_seed(traced).items():
        for other in group[1:]:
            if other.layer_counts != group[0].layer_counts:
                problems.append(f"seed {seed}: a repeated traced round "
                                "differs in its per-layer counts")
    return problems
