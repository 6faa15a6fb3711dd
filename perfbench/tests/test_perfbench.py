"""Tests of the benchmark itself: seeded inputs, the metric names in
BENCHMARK.json, the span fold, the correctness checks (each must fail
on a corrupted output) and the refusal to run without the program."""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import checks, fleet  # noqa: E402
from perfbench.common import Measurement, windowed  # noqa: E402
from perfbench.inputs import Corpus, input_digest, serve_ops  # noqa: E402
from perfbench.layers import LAYER_METRICS  # noqa: E402
from perfbench.run import end_to_end  # noqa: E402
from perfbench.serve import read_after, record_check  # noqa: E402
from perfbench.spans import Span, fold  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def corpus():
    return Corpus()


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- inputs -------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["campaign", "fleet", "serve"])
def test_input_stream_digest_depends_only_on_the_seed(corpus, workload):
    first = input_digest(workload, 7, corpus)
    assert input_digest(workload, 7, corpus) == first
    assert input_digest(workload, 8, corpus) != first


def test_serve_texts_are_distinct_and_revisions_count_up(corpus):
    ops = list(itertools.islice(serve_ops(3, 0), 200))
    texts = {corpus.config(op.system, 3, op.index).text for op in ops}
    assert len(texts) == len(ops)
    last: dict[str, int] = {}
    for op in ops:
        assert op.revision == last.get(op.config_id, 0) + 1
        last[op.config_id] = op.revision


# -- metric names -------------------------------------------------------------


def test_benchmark_json_names_are_valid(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60
    names = []
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
        names.append(metric["name"])
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names))
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_reported_metrics_match_benchmark_json(spec):
    reported = {
        name: unit
        for name, (_, unit) in end_to_end(1.0, Measurement()).items()
    }
    assert reported == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert [(n, u, b) for n, u, b, _ in LAYER_METRICS] == [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ]
    assert [w["name"] for w in spec["workloads"]] == [
        "campaign", "fleet", "serve"
    ]


# -- spans --------------------------------------------------------------------


def test_fold_subtracts_child_time_from_self_time():
    spans = [
        Span(2, 1, "runtime.launch", 1.0, 3.0),
        Span(3, 1, "runtime.launch", 4.0, 5.0),
        Span(1, None, "inject.test_batch", 0.0, 10.0),
    ]
    table = fold(spans)
    assert table["inject.test_batch"].self_s == pytest.approx(7.0)
    assert table["runtime.launch"].calls == 2
    assert table["runtime.launch"].self_s == pytest.approx(3.0)


def test_windowed_takes_medians_over_full_windows():
    # Two full windows of 4 and 2 requests, then a partial one dropped.
    events = [(0.1, 0.001), (0.2, 0.001), (0.3, 0.001), (0.4, 0.009),
              (1.5, 0.002), (1.6, 0.004), (2.1, 5.0)]
    rate, p50, p99, windows = windowed(events, 0.0, 1.0)
    assert windows == 2
    assert rate == pytest.approx(3.0)
    assert p50 == pytest.approx((1.0 + 2.0) / 2)
    assert p99 == pytest.approx((9.0 + 4.0) / 2)


# -- correctness checks fail on corrupted outputs ------------------------------


def test_campaign_check_rejects_changed_vulnerabilities():
    reference = {"mysql": frozenset({"a", "b"}), "squid": frozenset({"c"})}
    assert checks.check_campaign([dict(reference)], reference) == []
    dropped = dict(reference, mysql=frozenset({"a"}))
    assert checks.check_campaign([reference, dropped], reference)
    missing = {"mysql": reference["mysql"]}
    assert checks.check_campaign([missing], reference)
    # How `CampaignBench.measure` records a crashed sweep.
    assert checks.check_campaign([reference, {}], reference)


def test_fleet_check_rejects_corrupted_tallies(corpus):
    systems = ["nginx", "mysql"]
    reference = checks.serial_tallies(corpus, systems, 5, 40)
    assert checks.check_fleet(reference, systems, reference, 0, 0) == []
    assert checks.check_fleet(reference, systems, None, 0, 0) == []
    flipped = json.loads(json.dumps(reference))
    flipped["mysql"]["flagged"] += 1
    assert checks.check_fleet(flipped, systems, reference, 0, 0)
    assert checks.check_fleet(reference, systems, reference, 1, 0)
    assert checks.check_fleet(reference, systems, reference, 0, 1)


def test_fleet_check_rejects_a_crashed_or_partial_call(corpus):
    systems = ["nginx", "mysql"]
    reference = checks.serial_tallies(corpus, systems, 5, 40)
    # A crashed call is recorded with no tallies; a call that is not
    # compared with a serial pass must still fail on it.
    assert checks.check_fleet({}, systems, None, 0, 0)
    partial = {"nginx": reference["nginx"]}
    assert checks.check_fleet(partial, systems, None, 0, 0)


def test_fleet_verify_fails_on_a_crashed_middle_call(corpus, monkeypatch):
    monkeypatch.setattr(fleet, "FLEET_SIZE", 4)
    bench = fleet.FleetBench(5)
    good = [
        (seed, checks.serial_tallies(corpus, bench.order, seed, 4), 0, 0)
        for seed in (101, 102, 103)
    ]
    bench.calls = list(good)
    assert bench.verify() == []
    bench.calls[1] = (102, {}, 0, 0)  # how `measure` records a crash
    assert bench.verify()


def _served(corpus, seed, n):
    """Check and read records from an in-process service, exactly as
    the serve workload records them off the wire."""
    from repro.serve import DEFAULT_PAGE_SIZE, ValidationService

    class InProcessClient:
        def __init__(self, service):
            self.service = service

        async def page(self, cursor, limit=None):
            return self.service.page(cursor, limit)

        async def history(self, system, config_id):
            return self.service.history(system, config_id)

    async def run():
        service = ValidationService(caches=corpus.caches)
        await service.start()
        client = InProcessClient(service)
        records, reads = [], []
        try:
            for op in itertools.islice(serve_ops(seed, 0), n):
                text = corpus.config(op.system, seed, op.index).text
                response = await service.check_config(
                    op.system,
                    text,
                    config_id=op.config_id,
                    page_size=op.page_size or DEFAULT_PAGE_SIZE,
                )
                records.append(record_check(op, response))
                if op.read:
                    reads.append(await read_after(client, op, response))
        finally:
            await service.close()
        return records, reads

    return asyncio.run(run())


def test_serve_check_rejects_corrupted_responses(corpus):
    records, reads = _served(corpus, 11, 400)
    assert {r.kind for r in reads} == {"page", "history"}
    assert checks.check_serve([records], reads, corpus, 11) == []

    def corrupted(position, **changes):
        out = list(records)
        out[position] = dataclasses.replace(out[position], **changes)
        return [out]

    first = records[0]
    assert checks.check_serve(
        corrupted(0, flagged=not first.flagged), reads, corpus, 11
    )
    assert checks.check_serve(
        corrupted(0, errors=first.errors + 1), reads, corpus, 11
    )
    assert checks.check_serve(
        corrupted(0, page_digest="0" * 20), reads, corpus, 11
    )
    assert checks.check_serve(
        corrupted(1, revision=records[1].revision + 1), reads, corpus, 11
    )
    for kind in ("page", "history"):
        read = next(r for r in reads if r.kind == kind)
        bad_read = dataclasses.replace(read, answer="bogus")
        assert checks.check_serve([records], [bad_read], corpus, 11)


# -- refusing to run without the program --------------------------------------


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", "tests"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode != 0
    assert result.stdout.strip() == ""
