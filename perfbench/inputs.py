"""Seeded inputs for every workload.

Everything a workload feeds the program is a pure function of the
`--seed` argument: the campaign's system order, the fleet's corpus
seeds, and the serve authors' submissions.  `input_digest` hashes a
workload's input stream, so a test can pin that one seed always gives
the same inputs and another seed different ones.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass

# Share of serve checks followed by a read, half of them `page` and
# half `history`.  An assumption: no measured traffic stands behind it,
# and `cli submit`, the repository's only real caller, never reads.
READ_SHARE = 0.25
# Page size of a check that a `page` read follows, and of that read.
# Corpus configs carry 0-2 diagnostics, so a page of one leaves a
# second page whenever there are two.  Every other check omits
# page_size, as `cli submit` does, and gets the server's default.
PAGE_SIZE = 1
# Submissions per serve author: every one after the first is a new
# revision of the author's config, so the service computes a delta.
# `cli submit` keys history by file name, so resubmitting a file makes
# revisions; how many per author is an assumption, not a measurement.
REVISIONS = (2, 6)
# Corpus indices of one serve connection start at connection *
# INDEX_STRIDE, so no two submissions of a run share a text.
INDEX_STRIDE = 1_000_000


def system_names() -> list[str]:
    from repro.systems.registry import system_names as names

    return names()


def system_order(seed: int) -> list[str]:
    """All systems in a seed-determined order."""
    names = system_names()
    random.Random(f"perfbench|order|{seed}").shuffle(names)
    return names


def fleet_seed(seed: int, call: int) -> int:
    """Corpus seed of the `call`-th fleet run of a benchmark run: each
    call validates a different corpus, so no cache can answer a later
    call from an earlier one."""
    return random.Random(f"perfbench|fleet|{seed}|{call}").randrange(2**31)


@dataclass
class SystemCorpus:
    """What generating and checking one system's configs needs."""

    system: object
    checker: object
    pool: dict
    template: object
    mix: dict


class Corpus:
    """Per-system corpus generators and compiled checkers, built in
    this process (the reference side of every correctness check)."""

    def __init__(self, caches=None) -> None:
        from repro.checker.compile import checker_for_system
        from repro.checker.corpus import corpus_pool, mistake_mix
        from repro.pipeline.cache import PipelineCaches
        from repro.systems.registry import get_system

        self.caches = caches if caches is not None else PipelineCaches()
        self.systems: dict[str, SystemCorpus] = {}
        for name in system_names():
            system = get_system(name)
            checker = checker_for_system(system, caches=self.caches)
            spex_report = self.caches.inference.peek(
                self.caches.inference.key_for(system)
            )
            self.systems[name] = SystemCorpus(
                system=system,
                checker=checker,
                pool=corpus_pool(spex_report, system),
                template=system.template_ar(),
                mix=mistake_mix(name),
            )

    def config(self, name: str, seed: int, index: int):
        from repro.checker.corpus import generate_config

        entry = self.systems[name]
        return generate_config(
            name, entry.pool, entry.template, entry.mix, seed, index
        )

    def configs(self, name: str, seed: int, size: int):
        from repro.checker.corpus import iter_corpus

        entry = self.systems[name]
        return iter_corpus(
            entry.system,
            entry.pool,
            size,
            seed=seed,
            mix=entry.mix,
            template=entry.template,
        )


@dataclass(frozen=True)
class ServeOp:
    """One submission of one serve author."""

    system: str
    config_id: str
    index: int  # corpus index; the text is `Corpus.config(system, seed, index)`
    revision: int  # the revision the service must assign
    read: str  # the read that follows the check: "", "page" or "history"

    @property
    def page_size(self) -> int | None:
        """The check's page_size; None omits it, as `cli submit` does."""
        return PAGE_SIZE if self.read == "page" else None


def serve_ops(seed: int, connection: int):
    """Endless submissions of one serve connection.  The connection
    plays authors one after another; each author keeps one config_id
    and submits `REVISIONS` corpus-drawn texts under it."""
    names = system_names()
    index = connection * INDEX_STRIDE
    author = 0
    while True:
        rng = random.Random(f"perfbench|serve|{seed}|{connection}|{author}")
        system = rng.choice(names)
        config_id = f"author-{connection}-{author}"
        for revision in range(1, rng.randint(*REVISIONS) + 1):
            read = ""
            if rng.random() < READ_SHARE:
                read = rng.choice(("page", "history"))
            yield ServeOp(
                system=system,
                config_id=config_id,
                index=index,
                revision=revision,
                read=read,
            )
            index += 1
        author += 1


def input_digest(workload: str, seed: int, corpus: Corpus, n: int = 40) -> str:
    """Digest of the first inputs a workload sends for `seed`."""
    digest = hashlib.sha256()

    def feed(*parts) -> None:
        for part in parts:
            digest.update(str(part).encode("utf-8"))
            digest.update(b"\x00")

    if workload == "campaign":
        feed(*system_order(seed))
    elif workload == "fleet":
        feed(*system_order(seed))
        for call in range(3):
            corpus_seed = fleet_seed(seed, call)
            feed(corpus_seed)
            for name in system_order(seed):
                for config in corpus.configs(name, corpus_seed, n // 8 + 1):
                    feed(config.text)
    elif workload == "serve":
        for op in itertools.islice(serve_ops(seed, 0), n):
            feed(op, corpus.config(op.system, seed, op.index).text)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return digest.hexdigest()
