"""Correctness checks: every workload's outputs against a reference
computed another way.  Each check returns a list of problems; an empty
list means the outputs are correct.

* campaign: per-system vulnerability sets equal those of a sweep on the
  tree-walking reference engine, never the engine under test;
* fleet: no false positives, no failed shards, and per-system tallies
  equal a serial in-process `validate_config` pass over the same corpus;
* serve: every response's verdict, counts and diagnostics digest equal
  an in-process `validate_config` on the same text, revisions rise by
  one per config_id, and every read returns what the service stored.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from perfbench.inputs import PAGE_SIZE


def diagnostics_digest(items) -> str:
    """Digest of diagnostics in wire form (`Diagnostic.summary_dict`)."""
    return hashlib.sha256(
        json.dumps(list(items), sort_keys=True).encode("utf-8")
    ).hexdigest()[:20]


# -- campaign -----------------------------------------------------------------


def check_campaign(sweeps: list[dict], reference: dict) -> list[str]:
    """`sweeps` and `reference` map system -> frozenset of
    `Vulnerability`."""
    problems = []
    for number, sets in enumerate(sweeps):
        if set(sets) != set(reference):
            problems.append(
                f"sweep {number}: systems {sorted(sets)} != reference "
                f"{sorted(reference)}"
            )
            continue
        for name in sorted(reference):
            if sets[name] != reference[name]:
                problems.append(
                    f"sweep {number}: {name} vulnerabilities differ from "
                    f"the tree engine ({len(sets[name])} vs "
                    f"{len(reference[name])})"
                )
    return problems


# -- fleet --------------------------------------------------------------------


def fleet_tallies(report) -> dict[str, dict]:
    """Per-system tallies of a `FleetReport`."""
    return {
        result.name: {
            "corpus_size": result.corpus_size,
            "planted": result.planted,
            "flagged": result.flagged,
            "errors": result.errors,
            "warnings": result.warnings,
            "by_kind": dict(sorted(result.by_kind.items())),
        }
        for result in report.results
    }


def serial_tallies(corpus, names, seed: int, size: int) -> dict[str, dict]:
    """The same tallies from a serial in-process pass."""
    from repro.checker.validate import validate_config

    out = {}
    for name in names:
        checker = corpus.systems[name].checker
        tally = {
            "corpus_size": 0,
            "planted": 0,
            "flagged": 0,
            "errors": 0,
            "warnings": 0,
            "by_kind": {},
        }
        for config in corpus.configs(name, seed, size):
            report = validate_config(checker, config.text)
            tally["corpus_size"] += 1
            tally["planted"] += config.is_mistaken
            tally["flagged"] += report.flagged
            tally["errors"] += len(report.errors())
            tally["warnings"] += len(report.warnings())
            for kind in report.kinds_flagged():
                tally["by_kind"][kind] = tally["by_kind"].get(kind, 0) + 1
        tally["by_kind"] = dict(sorted(tally["by_kind"].items()))
        out[name] = tally
    return out


def check_fleet(
    tallies: dict,
    systems: list[str],
    reference: dict | None,
    false_positives: int,
    failed_shards: int,
) -> list[str]:
    """One fleet call: tallies for every one of `systems` (a crashed
    call has none), no false positives, no failed shards, and - when
    `reference` is given - tallies equal to it."""
    problems = []
    if false_positives:
        problems.append(f"{false_positives} false positive(s)")
    if failed_shards:
        problems.append(f"{failed_shards} failed shard(s)")
    if set(tallies) != set(systems):
        problems.append(
            f"tallies for systems {sorted(tallies)}, expected "
            f"{sorted(systems)}"
        )
        return problems
    for name in sorted(reference or {}):
        if tallies[name] != reference[name]:
            problems.append(
                f"{name}: tallies {tallies[name]} != serial pass "
                f"{reference[name]}"
            )
    return problems


# -- serve --------------------------------------------------------------------


@dataclass(frozen=True)
class CheckRecord:
    """What one served check answered."""

    system: str
    config_id: str
    index: int
    revision: int
    flagged: bool
    errors: int
    warnings: int
    total: int
    page_size: int  # the page size the check was answered with
    page_digest: str


@dataclass(frozen=True)
class ReadRecord:
    """What one read answered.  `revision` is the revision of the
    check the read followed; `answer` is the page's diagnostics digest
    for `page` (starting at `offset`), and "<revision>:<deltas>" for
    `history`."""

    kind: str  # "page" | "history"
    system: str
    config_id: str
    index: int
    revision: int
    offset: int
    answer: str


def expected_check(checker, text: str) -> tuple:
    from repro.checker.validate import validate_config

    report = validate_config(checker, text)
    items = [d.summary_dict() for d in report.diagnostics]
    return report.flagged, len(report.errors()), len(report.warnings()), items


def check_serve(
    checks: list[list[CheckRecord]],
    reads: list[ReadRecord],
    corpus,
    seed: int,
) -> list[str]:
    """`checks` holds each connection's records in submission order."""
    problems: list[str] = []
    paged = {(r.system, r.index) for r in reads if r.kind == "page"}
    expected_items: dict[tuple[str, int], list] = {}
    for records in checks:
        last_revision: dict[str, int] = {}
        for record in records:
            text = corpus.config(record.system, seed, record.index).text
            flagged, errors, warnings, items = expected_check(
                corpus.systems[record.system].checker, text
            )
            if (record.system, record.index) in paged:
                expected_items[(record.system, record.index)] = items
            want = (
                flagged,
                errors,
                warnings,
                len(items),
                diagnostics_digest(items[:record.page_size]),
            )
            got = (
                record.flagged,
                record.errors,
                record.warnings,
                record.total,
                record.page_digest,
            )
            if got != want:
                problems.append(
                    f"{record.config_id} rev {record.revision}: served "
                    f"{got} != in-process {want}"
                )
            previous = last_revision.get(record.config_id, 0)
            if record.revision != previous + 1:
                problems.append(
                    f"{record.config_id}: revision {record.revision} "
                    f"after {previous}"
                )
            last_revision[record.config_id] = record.revision
    for read in reads:
        if read.kind == "page":
            items = expected_items.get((read.system, read.index))
            if items is None:
                problems.append(f"page read of unchecked {read.config_id}")
                continue
            want = diagnostics_digest(
                items[read.offset:read.offset + PAGE_SIZE]
            )
            if read.answer != want:
                problems.append(
                    f"{read.config_id}: page at {read.offset} differs"
                )
        elif read.answer != f"{read.revision}:{read.revision - 1}":
            problems.append(
                f"{read.config_id}: history after revision "
                f"{read.revision} answered {read.answer}"
            )
    return problems
