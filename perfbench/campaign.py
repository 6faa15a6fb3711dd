"""The `campaign` workload: cold Table 5 sweeps.

Each sweep is a `CampaignPipeline` over all 8 systems on the serial
executor, with fresh `PipelineCaches` and the default launch engine, in
the seed's system order; `nproc` workers sweep side by side.
Inference (`repro.core`), generation (`repro.inject`) and the launch
engine (`repro.runtime`) do almost all of the work; `repro.checker` and
`repro.serve` do none.
"""

from __future__ import annotations

import gc
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from perfbench.checks import check_campaign
from perfbench.common import (
    SETUP_REPEATS,
    Measurement,
    children_peak_rss_mb,
    host_ticks,
    median,
    nproc,
    own_cpu_s,
    own_peak_rss_mb,
    steal_frac,
    unstolen,
)
from perfbench.inputs import system_order
from perfbench.spans import NullTracer, Tracer, instrumented

# Program set-up takes about a quarter of a second, and such short
# intervals spread by +-20% on a shared machine, so it is repeated
# three times as often as the other workloads' set-ups.
PROGRAM_SETUP_REPEATS = 3 * SETUP_REPEATS


def prepare_programs(order: list[str], tracer) -> float:
    """Build every system's program from source and make one probe
    launch each, which lowers the default engine's launch plan.
    Returns the seconds it took."""
    from repro.inject.harness import InjectionHarness
    from repro.systems.registry import get_system

    begun = time.perf_counter()
    for name in order:
        system = get_system(name)
        system.invalidate_memos()
        with tracer.span("lang.program", name):
            system.program()
        with tracer.span("runtime.plan", name):
            InjectionHarness(system).launch(system.default_config)
    return time.perf_counter() - begun


def sweep(order: list[str], engine: str | None = None, caches=None):
    """One cold sweep on the serial executor (fresh caches unless the
    caller passes empty ones it wants to read afterwards)."""
    from repro.pipeline import CampaignPipeline
    from repro.pipeline.cache import PipelineCaches

    return CampaignPipeline(
        executor="serial",
        caches=caches if caches is not None else PipelineCaches(),
        engine=engine,
    ).run(names=order)


@dataclass
class SweepResult:
    """One sweep in a worker, as the worker sends it home."""

    misconfigs: int = 0
    campaigns: int = 0
    failed_shards: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0  # unstolen
    vulnerabilities: dict = field(default_factory=dict)
    error: str = ""  # exception type of a crashed sweep


def _sweep_until(order, deadline: float, traced: bool) -> list[SweepResult]:
    """Worker body: serial sweeps until `deadline` (a `perf_counter`
    value, which is machine-wide on Linux).  Traced sweeps record
    their spans in the worker, where only their cost matters."""
    tracer = Tracer() if traced else NullTracer()
    results = []
    while True:
        gc.collect()
        cpu, ticks = own_cpu_s(), host_ticks()
        begun = time.perf_counter()
        try:
            with instrumented(tracer):
                report = sweep(order)
        except Exception as exc:  # a crashed sweep fails its campaigns
            results.append(SweepResult(error=type(exc).__name__))
        else:
            results.append(
                SweepResult(
                    misconfigs=report.total_misconfigurations(),
                    campaigns=len(report.runs),
                    failed_shards=len(report.failed_shards),
                    wall_s=time.perf_counter() - begun,
                    cpu_s=unstolen(own_cpu_s() - cpu, ticks, host_ticks()),
                    vulnerabilities=report.vulnerability_sets(),
                )
            )
        if time.perf_counter() >= deadline:
            return results


class CampaignBench:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.order = system_order(seed)
        self.sweeps: list[dict] = []

    def setup(self) -> tuple[float, float]:
        """(unstolen CPU seconds, wall seconds) of program set-up, each
        the median of `PROGRAM_SETUP_REPEATS` set-ups."""
        cpus, walls = [], []
        for _ in range(PROGRAM_SETUP_REPEATS):
            gc.collect()
            cpu, ticks = own_cpu_s(), host_ticks()
            walls.append(prepare_programs(self.order, NullTracer()))
            cpus.append(unstolen(own_cpu_s() - cpu, ticks, host_ticks()))
        return median(cpus), median(walls)

    def measure(self, seconds: float, tracer, phase: int = 0) -> Measurement:
        """Sweeps until `seconds` have passed, in `nproc` forked workers
        that each run serial sweeps one after another.  A sweep takes
        about 6 s, and on a shared machine one 6 s stretch can run 15%
        faster or slower than the next, so the figures are medians over
        every sweep of the phase; a second worker doubles the sweeps
        behind them.  The executor under test stays the serial one.  A
        crashed sweep is recorded with no vulnerabilities, so `verify`
        fails the run."""
        out = Measurement()
        deadline = time.perf_counter() + seconds
        ticks = host_ticks()
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(nproc(), mp_context=context) as pool:
            futures = [
                pool.submit(_sweep_until, self.order, deadline, tracer.enabled)
                for _ in range(nproc())
            ]
            results = []
            for future in futures:
                try:
                    results.extend(future.result())
                except Exception as exc:  # a dead worker fails a sweep
                    results.append(SweepResult(error=type(exc).__name__))
        out.steal_frac = steal_frac(ticks, host_ticks())
        rates, cpu_rates = [], []
        for result in results:
            if result.error:
                out.tally.fail("campaign", result.error, len(self.order))
                self.sweeps.append({})
                continue
            out.units += 1
            out.tally.ok("campaign", result.campaigns)
            if result.failed_shards:  # quarantined campaigns
                out.tally.fail(
                    "campaign", "failed-shard", result.failed_shards
                )
            rates.append(result.misconfigs / result.wall_s)
            cpu_rates.append(result.misconfigs / result.cpu_s)
            self.sweeps.append(result.vulnerabilities)
        if rates:
            out.throughput = median(rates) * len(futures)
            out.cpu_rate = median(cpu_rates)
        out.peak_rss_mb = max(own_peak_rss_mb(), children_peak_rss_mb())
        return out

    def verify(self) -> list[str]:
        if not self.sweeps:
            return ["no sweep completed"]
        reference = sweep(self.order, engine="tree").vulnerability_sets()
        return check_campaign(self.sweeps, reference)

    def close(self) -> None:
        pass
