"""Telemetry overhead: the always-on side must be nearly free.

`repro.obs` counters and sampled histograms live on the harness's hot
launch path, so this benchmark pins the cost: warm launch throughput
with telemetry enabled must stay within ``MAX_OVERHEAD`` (5%) of
disabled, and a campaign pipeline run must produce **bit-identical**
vulnerability sets and cache-stats footers either way — telemetry can
never change results, only record them.  Numbers land in
``.bench_build/BENCH_obs.json`` via the canonical `tools/bench_json.py`
writer; `make bench-record` commits them.
"""

import sys
import time
from pathlib import Path

import pytest

from conftest import emit

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

from bench_json import write_payload  # noqa: E402

from repro.inject.harness import InjectionHarness  # noqa: E402
from repro.obs import set_enabled  # noqa: E402
from repro.pipeline import CampaignPipeline  # noqa: E402
from repro.systems import get_system  # noqa: E402

# Git-ignored: a test run never rewrites the committed BENCH_obs.json;
# `make bench-record` copies this file over it.
OUTPUT = REPO_ROOT / ".bench_build" / "BENCH_obs.json"

SYSTEM = "vsftpd"
PASSES = 150
TRIALS = 3
MAX_OVERHEAD = 0.05


def _launch_pass(harness, system) -> int:
    """One startup launch plus every functional test (the warm
    steady state the launch engine optimises for)."""
    harness.launch(system.default_config)
    for test in system.tests:
        harness.launch(system.default_config, test.requests)
    return 1 + len(system.tests)


def _throughput(harness, system) -> float:
    started = time.perf_counter()
    launches = sum(_launch_pass(harness, system) for _ in range(PASSES))
    return launches / (time.perf_counter() - started)


@pytest.fixture(scope="module")
def warm_harness():
    system = get_system(SYSTEM)
    harness = InjectionHarness(system)
    _launch_pass(harness, system)  # learn the boot boundary
    return harness, system


def test_enabled_warm_launch_throughput_within_budget(warm_harness):
    """Alternate enabled/disabled trials on one warm harness and keep
    each mode's best rate — noise only ever slows a trial down, so
    best-of-N isolates the telemetry cost from scheduler jitter."""
    harness, system = warm_harness
    enabled_best = 0.0
    disabled_best = 0.0
    for _ in range(TRIALS):
        enabled_best = max(enabled_best, _throughput(harness, system))
        previous = set_enabled(False)
        try:
            disabled_best = max(disabled_best, _throughput(harness, system))
        finally:
            set_enabled(previous)
    overhead = (disabled_best - enabled_best) / disabled_best
    emit(
        f"obs overhead: enabled {enabled_best:.0f} launches/s vs "
        f"disabled {disabled_best:.0f} launches/s -> "
        f"{overhead * 100:+.1f}% (budget {MAX_OVERHEAD * 100:.0f}%)"
    )
    assert enabled_best > 0 and disabled_best > 0
    assert overhead <= MAX_OVERHEAD

    OUTPUT.parent.mkdir(exist_ok=True)
    write_payload(
        OUTPUT,
        {
            "generated_unix": int(time.time()),
            "workload": {
                "system": SYSTEM,
                "passes": PASSES,
                "trials": TRIALS,
                "launches_per_pass": 1 + len(system.tests),
            },
            "enabled_launches_per_s": round(enabled_best, 2),
            "disabled_launches_per_s": round(disabled_best, 2),
            "overhead_fraction": round(overhead, 4),
            "max_overhead_fraction": MAX_OVERHEAD,
        },
    )
    emit(f"wrote {OUTPUT}")


def test_telemetry_never_changes_pipeline_results():
    """Verdicts and the cache-stats footer are bit-identical with
    telemetry on and off; only the recording differs."""
    enabled_report = CampaignPipeline(systems=[SYSTEM]).run()
    previous = set_enabled(False)
    try:
        disabled_report = CampaignPipeline(systems=[SYSTEM]).run()
    finally:
        set_enabled(previous)
    assert (
        disabled_report.vulnerability_sets()
        == enabled_report.vulnerability_sets()
    )
    assert disabled_report.cache_stats == enabled_report.cache_stats
