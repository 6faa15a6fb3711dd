"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload campaign|fleet|serve \
        --seed N --seconds S --trace 0|1

Run from the repository root.  With ``--trace 0`` the workload is set
up, measured for S seconds and its outputs are checked; the last line
of standard output is a JSON object with the end-to-end metrics.  With
``--trace 1`` the workload is measured for S/2 seconds untraced and
S/2 traced (the difference is `obs.trace_overhead_frac`), then the
seed's inputs are replayed through every layer and the last line holds
the per-layer metrics.  Lines before the last name every metric with
its unit, the failure accounting and the machine fingerprint.  The exit
status is 1 when a correctness check fails and 2 on bad usage or a
missing program.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _pin_hash_seed() -> None:
    """Constraint inference iterates hash-seeded containers, so re-run
    this script under PYTHONHASHSEED=0 to keep the program's work the
    same from run to run (the pool workers inherit the setting)."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        argv = [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]]
        os.execve(sys.executable, argv, env)


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument(
        "--workload", required=True, choices=["campaign", "fleet", "serve"]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    options = parser.parse_args(argv)
    if options.seconds <= 0:
        parser.error("--seconds must be positive")
    return options


def end_to_end(setup_cpu_s: float, m) -> dict:
    """The metrics BENCHMARK.json lists under `end_to_end`."""
    return {
        "setup_s": (setup_cpu_s, "s"),
        "work_per_cpu_s": (m.cpu_rate, "1/s"),
        "peak_rss_mb": (m.peak_rss_mb, "MB"),
    }


def named(workload: str, setup: tuple[float, float], m) -> dict:
    """The run under each workload's own metric names, wall-clock
    figures included."""
    work = {"campaign": "misconfigs", "fleet": "configs", "serve": "checks"}
    out = {
        "setup_s": (setup[0], "s"),
        "setup_wall_s": (setup[1], "s"),
        f"{work[workload]}_per_s": (m.throughput, "1/s"),
        f"{work[workload]}_per_cpu_s": (m.cpu_rate, "1/s"),
    }
    if workload == "fleet":
        out["fleet_call_p50_ms"] = (m.p50_ms, "ms")
        out["fleet_call_p99_ms"] = (m.p99_ms, "ms")
    elif workload == "serve":
        out["check_p50_ms"] = (m.p50_ms, "ms")
        out["check_p99_ms"] = (m.p99_ms, "ms")
        if m.read_p50_ms is not None:
            out["read_p50_ms"] = (m.read_p50_ms, "ms")
    out["failed_frac"] = (m.tally.failed_frac(), "frac")
    out["steal_frac"] = (m.steal_frac, "frac")
    out["peak_rss_mb"] = (m.peak_rss_mb, "MB")
    return out


def _traced_metrics(options, tracer, untraced, traced) -> dict:
    """Replay the seed through every layer, print the per-layer metrics
    and the self-time table, and store the spans."""
    from perfbench.common import OUT_DIR
    from perfbench.layers import LAYER_METRICS, replay
    from perfbench.spans import fold, format_table

    metrics = replay(options.seed, tracer)
    metrics["obs.trace_overhead_frac"] = (
        1.0 - traced.throughput / untraced.throughput
    )
    print(
        f"{options.workload} untraced_per_s {untraced.throughput:.6g} 1/s "
        f"traced_per_s {traced.throughput:.6g} 1/s"
    )
    shown = {}
    for name, unit, _, moves in LAYER_METRICS:
        shown[name] = (metrics[name], unit)
        print(f"layer {name} {metrics[name]:.6g} {unit} (moves {moves})")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT_DIR / f"trace-{options.workload}-seed{options.seed}.json")
    for line in format_table(fold(tracer.spans)):
        print(f"# {line}")
    return shown


def main(argv=None) -> int:
    options = _parse(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"perfbench: no program sources under {ROOT / 'src'}",
            file=sys.stderr,
        )
        return 2
    _pin_hash_seed()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.campaign import CampaignBench
    from perfbench.common import OUT_DIR, Tally, fingerprint
    from perfbench.fleet import FleetBench
    from perfbench.serve import ServeBench
    from perfbench.spans import NullTracer, Tracer

    benches = {"campaign": CampaignBench, "fleet": FleetBench, "serve": ServeBench}
    bench = benches[options.workload](options.seed)
    record: dict = {
        "workload": options.workload,
        "seed": options.seed,
        "seconds": options.seconds,
        "trace": options.trace,
        "fingerprint": fingerprint(),
    }
    tracer = Tracer()
    try:
        setup = bench.setup()
        if options.trace:
            half = options.seconds / 2
            untraced = bench.measure(half, NullTracer(), phase=0)
            traced = bench.measure(half, tracer, phase=1)
            measurements = [untraced, traced]
        else:
            measurements = [bench.measure(options.seconds, NullTracer())]
        problems = bench.verify()
    finally:
        bench.close()

    tally = Tally()
    for m in measurements:
        tally.absorb(m.tally)
    if not all(m.units for m in measurements):
        problems.append("a timed phase completed no unit of work")

    shown: dict = {}
    if problems:
        for problem in problems:
            print(f"CHECK FAILED: {problem}")
    elif options.trace:
        shown = _traced_metrics(options, tracer, *measurements)
    else:
        shown = end_to_end(setup[0], measurements[0])
        record["named"] = {}
        for name, (value, unit) in named(
            options.workload, setup, measurements[0]
        ).items():
            record["named"][name] = value
            print(f"{options.workload} {name} {value:.6g} {unit}")

    record["failures"] = tally.summary_dict()
    record["problems"] = problems
    record["metrics"] = {k: v for k, (v, _) in shown.items()}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (
        OUT_DIR
        / f"result-{options.workload}-seed{options.seed}-trace{options.trace}.json"
    ).write_text(json.dumps(record, indent=2), encoding="utf-8")
    print(f"# fingerprint {json.dumps(record['fingerprint'])}")
    print(f"# failures {json.dumps(record['failures'])}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": tally.total_attempted,
                "failed": tally.total_failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in shown.items()
                },
            }
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
