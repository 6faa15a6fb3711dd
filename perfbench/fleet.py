"""The `fleet` workload: config-fleet validation on process workers.

Each call is `run_fleet` over all 8 systems on a fresh seeded corpus,
with `executor="process"`, `max_workers=nproc` and a 20-config
interpreter agreement sample, against caches whose checkers were
compiled during set-up.  Corpus generation and `validate_config`
(`repro.checker`) do most of the work, together with the process
executor (`repro.pipeline.executor`); the launch engine runs only in
the agreement tail and `repro.serve` not at all.
"""

from __future__ import annotations

import gc
import time

from perfbench.checks import check_fleet, fleet_tallies, serial_tallies
from perfbench.common import (
    SETUP_REPEATS,
    Measurement,
    children_cpu_s,
    children_peak_rss_mb,
    host_ticks,
    median,
    nproc,
    own_cpu_s,
    own_peak_rss_mb,
    percentile,
    steal_frac,
    unstolen,
)
from perfbench.inputs import Corpus, fleet_seed, system_order
from perfbench.spans import instrumented

# Configs per system in one fleet call (24,000 in all).
FLEET_SIZE = 3000
AGREEMENT_SAMPLE = 20


def compile_checkers(order: list[str], caches) -> float:
    """Infer and compile every system's checker into `caches`."""
    from repro.checker import compile as checker_compile
    from repro.systems.registry import get_system

    begun = time.perf_counter()
    for name in order:
        checker_compile.checker_for_system(get_system(name), caches=caches)
    return time.perf_counter() - begun


def call_caches(compiled):
    """Caches for one fleet call: the checkers (and inference) compiled
    during set-up, with empty launch and snapshot caches, so every call
    starts from the same parent state whatever ran before it."""
    from repro.pipeline.cache import PipelineCaches

    return PipelineCaches(
        inference=compiled.inference, checkers=compiled.checkers
    )


def fleet_call(order: list[str], corpus_seed: int, caches):
    from repro.checker.fleet import run_fleet

    return run_fleet(
        systems=order,
        size=FLEET_SIZE,
        seed=corpus_seed,
        executor="process",
        max_workers=nproc(),
        caches=caches,
        agreement_sample=AGREEMENT_SAMPLE,
    )


class FleetBench:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.order = system_order(seed)
        self.caches = None
        # (corpus seed, tallies, false positives, failed shards) per call
        self.calls: list[tuple[int, dict, int, int]] = []

    def setup(self) -> tuple[float, float]:
        """(unstolen CPU seconds, wall seconds) of checker compilation
        on fresh caches, each the median of `SETUP_REPEATS` set-ups."""
        from repro.pipeline.cache import PipelineCaches

        cpus, walls = [], []
        for _ in range(SETUP_REPEATS):
            self.caches = PipelineCaches()
            gc.collect()
            cpu, ticks = own_cpu_s(), host_ticks()
            walls.append(compile_checkers(self.order, self.caches))
            cpus.append(unstolen(own_cpu_s() - cpu, ticks, host_ticks()))
        return median(cpus), median(walls)

    def measure(self, seconds: float, tracer, phase: int = 0) -> Measurement:
        """Fleet calls until `seconds` have passed; throughput and the
        latency percentiles are over the calls."""
        out = Measurement()
        expected = FLEET_SIZE * len(self.order)
        rates: list[float] = []
        walls: list[float] = []
        cpu_rates: list[float] = []
        ticks = host_ticks()
        deadline = time.perf_counter() + seconds
        while True:
            corpus_seed = fleet_seed(self.seed, len(self.calls))
            caches = call_caches(self.caches)
            gc.collect()
            cpu, unit_ticks = own_cpu_s() + children_cpu_s(), host_ticks()
            begun = time.perf_counter()
            try:
                with instrumented(tracer):
                    report = fleet_call(self.order, corpus_seed, caches)
            except Exception as exc:  # a crashed call fails its configs
                out.tally.fail("config", type(exc).__name__, expected)
                walls.append(seconds)
                self.calls.append((corpus_seed, {}, 0, 0))
            else:
                wall = time.perf_counter() - begun
                done = report.total_configs
                out.units += 1
                out.tally.ok("config", done)
                if done < expected:
                    out.tally.fail("config", "failed-shard", expected - done)
                out.tally.ok("agreement", report.agreement.sampled)
                rates.append(done / wall)
                walls.append(wall)
                busy = own_cpu_s() + children_cpu_s() - cpu
                cpu_rates.append(
                    done / unstolen(busy, unit_ticks, host_ticks())
                )
                self.calls.append(
                    (
                        corpus_seed,
                        fleet_tallies(report),
                        report.scores().false_positives,
                        len(report.failed_shards),
                    )
                )
            if time.perf_counter() >= deadline:
                break
        out.steal_frac = steal_frac(ticks, host_ticks())
        out.throughput = median(rates) if rates else 0.0
        out.cpu_rate = median(cpu_rates) if cpu_rates else 0.0
        out.p50_ms = median(walls) * 1000.0
        out.p99_ms = percentile(walls, 99) * 1000.0
        out.peak_rss_mb = max(own_peak_rss_mb(), children_peak_rss_mb())
        return out

    def verify(self) -> list[str]:
        """Every call: tallies for every system (a crashed call has
        none), no false positives, no failed shards.  The first and last
        calls: tallies equal a serial in-process pass over the same
        corpus on freshly compiled checkers."""
        corpus = Corpus()
        last = len(self.calls) - 1
        problems = []
        for number, (corpus_seed, tallies, fps, failed) in enumerate(
            self.calls
        ):
            reference = (
                serial_tallies(corpus, self.order, corpus_seed, FLEET_SIZE)
                if number in (0, last)
                else None
            )
            problems.extend(
                f"call {number}: {p}"
                for p in check_fleet(
                    tallies, self.order, reference, fps, failed
                )
            )
        return problems

    def close(self) -> None:
        pass
