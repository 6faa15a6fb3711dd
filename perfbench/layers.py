"""The traced run's per-layer replay.

The replay drives the seed's inputs through every layer's public calls
and derives each per-layer metric from the spans recorded around them:

* campaign layers: program build and probe launch per system, then one
  cold sweep with every campaign, inference, generation, batch and
  launch call wrapped;
* fleet layers: checker compile (inference already cached), the corpus
  and in-process `validate_config` per system, then one `run_fleet`
  call on process workers;
* serve layers: `ValidationService.start`, then one request stream
  replayed three ways - `validate_config` in-process, the service's
  `check` in-process, and over the socket - so each layer's self time
  is the difference between neighbouring replays.

See README.md for the end-to-end metric each of these should move.
"""

from __future__ import annotations

import asyncio
import itertools
import time

from perfbench.campaign import prepare_programs, sweep
from perfbench.common import median, nproc, percentile
from perfbench.fleet import FLEET_SIZE, fleet_call
from perfbench.inputs import (
    Corpus,
    fleet_seed,
    serve_ops,
    system_names,
    system_order,
)
from perfbench.serve import ServerProcess, connect, read_after
from perfbench.spans import fold, instrumented

# Checks in the serve replay's request stream.
SERVE_REPLAY_CHECKS = 1000

SYSTEMS = tuple(system_names())

# (name, unit, better, the end-to-end metric and workload it should move)
LAYER_METRICS = [
    ("lang.program_s", "s", "lower", "setup_s on campaign"),
    ("runtime.plan_s", "s", "lower", "setup_s on campaign"),
    ("core.infer_s", "s", "lower",
     "work_per_cpu_s on campaign; setup_s on fleet and serve"),
    ("core.constraints", "count", "higher", "work_per_cpu_s on campaign"),
    ("inject.generate_s", "s", "lower", "work_per_cpu_s on campaign"),
    ("inject.misconfigs", "count", "higher", "work_per_cpu_s on campaign"),
    ("runtime.launches", "count", "lower", "work_per_cpu_s on campaign"),
    ("runtime.launch_s", "s", "lower", "work_per_cpu_s on campaign"),
    ("runtime.launch_p50_us", "us", "lower", "work_per_cpu_s on campaign"),
    ("runtime.launch_p99_us", "us", "lower", "work_per_cpu_s on campaign"),
    ("inject.classify_s", "s", "lower", "work_per_cpu_s on campaign"),
    ("pipeline.launch_hit_ratio", "frac", "higher",
     "work_per_cpu_s on campaign"),
    ("runtime.resume_ratio", "frac", "higher", "work_per_cpu_s on campaign"),
    *[
        (f"campaign_s.{name}", "s", "lower",
         "work_per_cpu_s on campaign")
        for name in SYSTEMS
    ],
    ("checker.compile_s", "s", "lower", "setup_s on fleet and serve"),
    ("checker.corpus_us", "us", "lower", "work_per_cpu_s on fleet"),
    ("checker.validate_us", "us", "lower",
     "work_per_cpu_s on fleet and serve; check_p50_ms on serve"),
    *[
        (f"checker.validate_us.{name}", "us", "lower",
         "work_per_cpu_s on fleet and serve")
        for name in SYSTEMS
    ],
    ("pipeline.executor_overhead_s", "s", "lower",
     "work_per_cpu_s on fleet"),
    ("fleet.agreement_s", "s", "lower", "work_per_cpu_s on fleet"),
    ("serve.warmup_s", "s", "lower", "setup_s on serve"),
    ("serve.service_us", "us", "lower",
     "work_per_cpu_s and check_p50_ms on serve"),
    ("serve.wire_us", "us", "lower",
     "work_per_cpu_s and check_p50_ms on serve"),
    ("serve.read_us", "us", "lower", "read_p50_ms on serve"),
    ("obs.trace_overhead_frac", "frac", "lower",
     "none: traced against untraced wall-clock throughput, per workload"),
]


def campaign_layers(order, tracer) -> tuple[dict, object]:
    """Campaign-layer metrics, plus the sweep's (now warm) inference
    cache."""
    from repro.pipeline.cache import PipelineCaches

    mark = len(tracer.spans)
    prepare_programs(order, tracer)
    caches = PipelineCaches()
    with instrumented(tracer):
        report = sweep(order, caches=caches)
    spans = tracer.spans[mark:]
    table = fold(spans)
    launches = [s.duration for s in spans if s.name == "runtime.launch"]
    stats = report.cache_stats
    hits, misses = stats["launches"]["hits"], stats["launches"]["misses"]
    boots = stats["snapshots"]["boots"]
    resumes = stats["snapshots"]["resumes"]
    metrics = {
        "lang.program_s": table["lang.program"].total_s,
        "runtime.plan_s": table["runtime.plan"].total_s,
        "core.infer_s": table["core.infer"].total_s,
        "core.constraints": sum(
            len(run.report.spex_report.constraints) for run in report.runs
        ),
        "inject.generate_s": table["inject.generate"].total_s,
        "inject.misconfigs": report.total_misconfigurations(),
        "runtime.launches": len(launches),
        "runtime.launch_s": sum(launches),
        "runtime.launch_p50_us": percentile(launches, 50) * 1e6,
        "runtime.launch_p99_us": percentile(launches, 99) * 1e6,
        "inject.classify_s": table["inject.test_batch"].self_s,
        "pipeline.launch_hit_ratio": hits / (hits + misses),
        "runtime.resume_ratio": resumes / (boots + resumes),
    }
    for span in spans:
        if span.name == "campaign.run":
            metrics[f"campaign_s.{span.label}"] = span.duration
    return metrics, caches.inference


def fleet_layers(seed, order, tracer, inference) -> tuple[dict, Corpus]:
    """`inference` is the campaign replay's inference cache, so the
    compile spans time checker compilation alone."""
    from repro.checker.validate import validate_config
    from repro.pipeline.cache import PipelineCaches

    mark = len(tracer.spans)
    caches = PipelineCaches(inference=inference)
    with instrumented(tracer):
        corpus = Corpus(caches=caches)
    corpus_seed = fleet_seed(seed, 0)
    corpus_s = validate_s = 0.0
    metrics = {}
    for name in order:
        begun = time.perf_counter()
        with tracer.span("checker.corpus", name):
            configs = list(corpus.configs(name, corpus_seed, FLEET_SIZE))
        generated = time.perf_counter()
        checker = corpus.systems[name].checker
        with tracer.span("checker.validate", name):
            for config in configs:
                validate_config(checker, config.text)
        validated = time.perf_counter()
        corpus_s += generated - begun
        validate_s += validated - generated
        metrics[f"checker.validate_us.{name}"] = (
            (validated - generated) / FLEET_SIZE * 1e6
        )
    with instrumented(tracer):
        report = fleet_call(order, corpus_seed, caches)
    table = fold(tracer.spans[mark:])
    total = FLEET_SIZE * len(order)
    metrics.update(
        {
            "checker.compile_s": table["checker.compile"].self_s,
            "checker.corpus_us": corpus_s / total * 1e6,
            "checker.validate_us": validate_s / total * 1e6,
            "pipeline.executor_overhead_s": report.wall_time
            - (corpus_s + validate_s) / nproc(),
            "fleet.agreement_s": table["fleet.agreement"].total_s,
        }
    )
    return metrics, corpus


async def _serve_replay(seed, corpus, tracer) -> dict:
    from repro.checker.validate import validate_config
    from repro.serve import DEFAULT_PAGE_SIZE, CheckRequest, ValidationService

    ops = list(itertools.islice(serve_ops(seed, 0), SERVE_REPLAY_CHECKS))
    texts = [corpus.config(op.system, seed, op.index).text for op in ops]

    validate_s = 0.0
    for op, text in zip(ops, texts):
        checker = corpus.systems[op.system].checker
        begun = time.perf_counter()
        with tracer.span("serve.replay.validate", op.system):
            validate_config(checker, text)
        validate_s += time.perf_counter() - begun

    service = ValidationService()
    begun = time.perf_counter()
    with tracer.span("serve.warmup"):
        await service.start()
    warmup_s = time.perf_counter() - begun
    service_s = 0.0
    try:
        for op, text in zip(ops, texts):
            request = CheckRequest(
                op.system,
                text,
                config_id=op.config_id,
                page_size=op.page_size or DEFAULT_PAGE_SIZE,
            )
            begun = time.perf_counter()
            with tracer.span("serve.replay.service", op.system):
                await service.check(request)
            service_s += time.perf_counter() - begun
    finally:
        await service.close()

    wire_s = 0.0
    reads: list[float] = []
    server = ServerProcess()
    try:
        client = await connect(server)
        try:
            for op, text in zip(ops, texts):
                begun = time.perf_counter()
                with tracer.span("serve.replay.wire", op.system):
                    response = await client.check(
                        op.system,
                        text,
                        config_id=op.config_id,
                        page_size=op.page_size,
                    )
                wire_s += time.perf_counter() - begun
                if op.read:
                    begun = time.perf_counter()
                    with tracer.span("serve.replay.read", op.system):
                        await read_after(client, op, response)
                    reads.append(time.perf_counter() - begun)
        finally:
            await client.close()
    finally:
        server.stop()
    n = len(ops)
    return {
        "serve.warmup_s": warmup_s,
        "serve.service_us": (service_s - validate_s) / n * 1e6,
        "serve.wire_us": (wire_s - service_s) / n * 1e6,
        "serve.read_us": median(reads) * 1e6,
    }


def replay(seed: int, tracer) -> dict[str, float]:
    """Every per-layer metric except `obs.trace_overhead_frac`."""
    order = system_order(seed)
    metrics, inference = campaign_layers(order, tracer)
    fleet_metrics, corpus = fleet_layers(seed, order, tracer, inference)
    metrics.update(fleet_metrics)
    metrics.update(asyncio.run(_serve_replay(seed, corpus, tracer)))
    return metrics
