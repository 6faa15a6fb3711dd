"""Concurrency hardening: the service under parallel clients.

The headline invariant (the PR's acceptance bar): diagnostics served
by `repro.serve` under >=8 concurrent clients are **bit-identical** to
cold serial `check` runs, for every registered system.  This reuses
the executor-parity pattern of the pipeline/launch tiers: the
concurrent path must be an optimization, never a semantic fork.
"""

import asyncio
import json

from repro.serve import ServeClient
from repro.serve.service import INLINE_LIMIT
from repro.systems.registry import iter_systems

from serveutil import BAD_MYSQL, cold_reference, probe_configs, run

N_CLIENTS = 8


class TestServiceVsColdCliParity:
    def test_eight_clients_all_systems_bit_identical(self, server):
        """Acceptance: 8 concurrent socket clients x 7 systems, every
        response identical to an independent cold check."""
        probes = {
            system.name: probe_configs(system)
            for system in iter_systems(None)
        }

        async def one_client(client_index: int):
            client = await ServeClient.connect(server.host, server.port)
            try:
                results = {}
                for name, configs in probes.items():
                    for i, text in enumerate(configs):
                        response, items = await client.check_all(
                            name, text, page_size=25
                        )
                        results[(name, i)] = (
                            response.flagged,
                            response.errors,
                            response.warnings,
                            json.dumps(items, sort_keys=True),
                        )
                return results
            finally:
                await client.close()

        async def main():
            return await asyncio.gather(
                *(one_client(i) for i in range(N_CLIENTS))
            )

        all_results = run(main())
        assert len(all_results) == N_CLIENTS

        references = {}
        for name, configs in probes.items():
            for i, text in enumerate(configs):
                report = cold_reference(name, text)
                references[(name, i)] = (
                    report.flagged,
                    len(report.errors()),
                    len(report.warnings()),
                    json.dumps(
                        [d.summary_dict() for d in report.diagnostics],
                        sort_keys=True,
                    ),
                )

        for client_results in all_results:
            assert client_results == references

    def test_probe_set_is_not_trivial(self):
        """The parity claim is only as strong as the probe corpus:
        at least one probe per system must actually flag."""
        flagged = 0
        for system in iter_systems(None):
            for text in probe_configs(system):
                if cold_reference(system.name, text).flagged:
                    flagged += 1
                    break
        assert flagged >= 5  # most systems' mangled templates trip


class TestInProcessConcurrency:
    def test_gathered_checks_match_serial(self, make_service):
        configs = [
            BAD_MYSQL,
            "ft_min_word_len = 5\n",
            "port = 70000\n",
            "",
        ] * 8  # 32 interleaved submissions

        async def main():
            service = make_service(systems=["mysql"])
            await service.start()
            try:
                serial = []
                for text in configs:
                    response = await service.check_config(
                        "mysql", text, page_size=100
                    )
                    serial.append(list(response.page.items))
                concurrent = await asyncio.gather(
                    *(
                        service.check_config("mysql", text, page_size=100)
                        for text in configs
                    )
                )
                return serial, [list(r.page.items) for r in concurrent]
            finally:
                await service.close()

        serial, concurrent = run(main())
        assert serial == concurrent

    def test_concurrent_same_identity_revisions_are_a_permutation(
        self, make_service
    ):
        submissions = 16

        def text(i: int) -> str:
            # Every third text is over the inline limit, so pooled and
            # inline validations interleave under one identity.
            line = f"ft_min_word_len = {5 + i % 3}\n"
            if i % 3:
                return line
            return line * (INLINE_LIMIT // len(line) + 1)

        async def main():
            service = make_service(systems=["mysql"])
            await service.start()
            try:
                responses = await asyncio.gather(
                    *(
                        service.check_config(
                            "mysql", text(i), config_id="shared"
                        )
                        for i in range(submissions)
                    )
                )
                history = service.history("mysql", "shared")
                return responses, history
            finally:
                await service.close()

        responses, history = run(main())
        # Arrival order is nondeterministic, but revisions must be a
        # permutation of 1..N: no duplicates, no gaps, no lost updates.
        assert sorted(r.revision for r in responses) == list(
            range(1, submissions + 1)
        )
        assert history.revision == submissions
        assert all(
            d.previous_revision == d.revision - 1 for d in history.deltas
        )

    def test_concurrent_distinct_identities_stay_independent(
        self, make_service
    ):
        async def main():
            service = make_service(systems=["mysql"])
            await service.start()
            try:
                await asyncio.gather(
                    *(
                        service.check_config(
                            "mysql",
                            BAD_MYSQL,
                            config_id=f"user-{i % 4}",
                        )
                        for i in range(12)
                    )
                )
                return service.status(), [
                    service.history("mysql", f"user-{i}").revision
                    for i in range(4)
                ]
            finally:
                await service.close()

        status, revisions = run(main())
        assert status.configs_tracked == 4
        assert revisions == [3, 3, 3, 3]

    def test_counters_consistent_under_load(self, make_service):
        async def main():
            service = make_service(systems=["mysql"])
            await service.start()
            try:
                await asyncio.gather(
                    *(
                        service.check_config("mysql", f"x{i} = 1\n")
                        for i in range(20)
                    )
                )
                return service.status()
            finally:
                await service.close()

        status = run(main())
        assert status.checks_served == 20
        assert status.results_retained == 20  # all texts distinct


class TestMetricsOpConcurrency:
    def test_eight_clients_interleaving_checks_and_metrics(
        self, make_service
    ):
        """The metrics op under churn: 8 clients each submit 4 checks
        interleaved with metrics reads.  Every metrics response must be
        internally consistent (histogram totals match their buckets)
        and the final snapshot must account for every request exactly
        once."""
        checks_per_client = 4

        async def main():
            service = make_service(systems=["mysql"])
            await service.start()
            try:
                async def one_client(index):
                    seen = []
                    for i in range(checks_per_client):
                        await service.check_config(
                            "mysql", f"client{index}_{i} = 1\n"
                        )
                        seen.append(service.metrics())
                    return seen

                interleaved = await asyncio.gather(
                    *(one_client(i) for i in range(N_CLIENTS))
                )
                return interleaved, service.metrics(limit=100)
            finally:
                await service.close()

        interleaved, final = run(main())
        for responses in interleaved:
            for metrics in responses:
                hist = metrics.histograms.get("serve.check_seconds")
                if hist is not None:
                    assert sum(hist["counts"]) == hist["count"]
                assert metrics.counters.get("serve.requests", 0) >= 1
        total = N_CLIENTS * checks_per_client
        assert final.checks_served == total
        assert final.counters["serve.requests"] == total
        assert final.histograms["serve.check_seconds"]["count"] == total
        assert final.warmup_by_system == {
            "mysql": final.warmup_by_system["mysql"]
        }

    def test_metrics_over_the_wire_respects_limit(self, server):
        """Socket-level metrics op: a limit of 1 bounds every family
        and reports the truncation."""
        async def main():
            client = await ServeClient.connect(server.host, server.port)
            try:
                await client.check("mysql", BAD_MYSQL)
                return await client.metrics(limit=1)
            finally:
                await client.close()

        metrics = run(main())
        assert len(metrics.counters) <= 1
        assert len(metrics.gauges) <= 1
        assert len(metrics.histograms) <= 1
        assert metrics.truncated is True
