"""Catalog drift: every registered metric is documented.

``docs/observability.md`` is the metric catalog.  A metric registered
in code but missing from it is invisible to an operator reading the
docs, so the test builds the richest default-configuration world — the
chaos environment (protected business, ADC consistency group, platform
controllers) plus one SDC mirror — and asserts that each name in its
registry appears, in backticks, in the catalog.
"""

import pathlib
import re

from repro.chaos import build_chaos_environment

CATALOG = pathlib.Path(__file__).resolve().parents[2] / "docs" \
    / "observability.md"


def documented_names():
    return set(re.findall(r"`(repro_\w+)`", CATALOG.read_text()))


def test_every_registered_metric_is_documented():
    env = build_chaos_environment(seed=3)
    array = env.system.main.array
    array.create_sync_mirror("catalog-sm", env.system.replication_link)
    registered = env.sim.telemetry.registry.names()
    missing = sorted(set(registered) - documented_names())
    assert missing == [], f"undocumented metrics: {missing}"
