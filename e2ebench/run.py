"""End-to-end replicated-write benchmark.

Run from the repository root::

    python3 e2ebench/run.py --workload order_e1 --seed 1 --seconds 20 \\
        --trace 0

Workloads: ``order_e1``, ``replicate_snap`` and ``chaos_soak`` (see
``e2ebench/NOTES.md``).  The benchmark repeats whole rounds of the
workload until ``--seconds`` of measuring have passed, and checks every
round's outputs.  A round is one simulation built from one seed; a run
uses ``--seed`` alone, or several seeds derived from it on
``chaos_soak``, and always repeats its first seed so every run checks
that a round reproduces exactly.

* ``--trace 0`` reports the end-to-end metrics, wall-clock figures
  reduced per seed (median over that seed's rounds).
* ``--trace 1`` alternates untraced and traced rounds of ``--seed`` and
  reports the per-layer metrics of the traced rounds plus
  ``bench.trace_overhead``.

The simulated-time figures (order and write-ack latency, RPO and the
failed-operation ratio) are printed on every run.  Each metric is
printed as ``name value unit``; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit status is 0 when
every check passed, 1 when one failed, and 2 when the program's source
is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path
from time import perf_counter
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("order_e1", "replicate_snap", "chaos_soak")


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="End-to-end replicated-write benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="wall seconds of measuring (at least one "
                             "round always runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("e2ebench: the program's source (src/repro) is missing; run "
              "from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from e2ebench import metrics
    from e2ebench.layers import LayerProfiler
    from e2ebench import workloads

    seeds = workloads.sub_seeds(args.workload, args.seed)
    if args.trace:
        seeds = seeds[:1]
    if args.workload == "replicate_snap":
        # the schedules and payloads are built before anything is timed
        inputs = {seed: workloads.make_snap_inputs(seed) for seed in seeds}

        def one_round(seed, profiler):
            return workloads.replicate_snap_round(inputs[seed], profiler)
    else:
        one_round = (workloads.order_e1_round
                     if args.workload == "order_e1"
                     else workloads.chaos_soak_round)

    untraced, traced = [], []
    deadline = perf_counter() + args.seconds
    while True:
        gc.collect()
        if args.trace and len(traced) < len(untraced):
            profiler = LayerProfiler()
            round_ = one_round(seeds[0], profiler)
            round_.layer_seconds, round_.layer_counts = profiler.report()
            traced.append(round_)
        else:
            untraced.append(one_round(seeds[len(untraced) % len(seeds)],
                                      None))
        if perf_counter() < deadline:
            continue
        if args.trace and len(traced) == len(untraced):
            break
        # every seed once, and the first one again for the repeat check
        if not args.trace and len(untraced) > len(seeds):
            break

    rounds = untraced + traced
    problems = [f"seed {round_.seed}: {problem}" for round_ in rounds
                for problem in round_.problems]
    problems += metrics.repeat_problems(rounds)
    attempted = sum(round_.attempted for round_ in rounds)
    failed = attempted if problems else sum(r.failed for r in rounds)

    if args.trace:
        catalog = metrics.PER_LAYER
        values = metrics.per_layer(
            traced, untraced,
            per_op_is_write=args.workload == "replicate_snap")
    else:
        catalog = metrics.END_TO_END
        values = metrics.end_to_end(untraced)
    units = metrics.units(catalog)

    firsts = [group[0] for group in metrics.by_seed(untraced).values()]
    print(f"e2ebench {args.workload} seeds={seeds} "
          f"rounds={len(untraced)} traced_rounds={len(traced)}")
    print(f"  samples: orders={sum(len(r.order_latencies) for r in firsts)}"
          f" write_acks={sum(len(r.ack_latencies) for r in firsts)}"
          f" rpo={sum(len(r.rpo_samples) for r in firsts)}"
          f" (failed ops {failed} of {attempted} attempted)")
    figures = metrics.simulated(untraced, attempted, failed)
    for name, unit in metrics.SIMULATED:
        print(f"  {name} {figures[name]:.6g} {unit}")
    for name, _unit, _better in catalog:
        print(f"  {name} {values[name]:.6g} {units[name]}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name, _unit, _better in catalog},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
