"""Where a served check runs: inline on the event loop up to
`INLINE_LIMIT` characters, on the `repro-serve` pool above it.

A wrapped `validate_config` records the thread each validation ran
on.  Neither route may change a verdict; revision order across mixed
routes is pinned in `test_concurrency.py`.
"""

import asyncio
import threading

import pytest
from serveutil import BAD_MYSQL, cold_reference, run

import repro.serve.service as service_module
from repro.serve import BackgroundServer, ServeClient
from repro.serve.service import INLINE_LIMIT
from repro.systems.registry import get_system

# Repeated settings pad a config past the limit without changing what
# kind of work validation does.
OVERSIZED = BAD_MYSQL * (INLINE_LIMIT // len(BAD_MYSQL) + 1)


@pytest.fixture
def validator_threads(monkeypatch):
    """Wrap the service's validator; returns the list of
    (thread name, config length) it appends to per call."""
    calls: list[tuple[str, int]] = []
    real = service_module.validate_config

    def recording(checker, config_text):
        calls.append((threading.current_thread().name, len(config_text)))
        return real(checker, config_text)

    monkeypatch.setattr(service_module, "validate_config", recording)
    return calls


def _pooled(name: str) -> bool:
    return name.startswith("repro-serve")


class TestInlineRoute:
    def test_corpus_sized_check_runs_on_the_loop_thread(
        self, make_service, validator_threads
    ):
        text = get_system("mysql").default_config + "ft_min_word_len = 99\n"
        assert len(text) <= INLINE_LIMIT

        async def scenario():
            service = make_service(systems=["mysql"])
            await service.start()
            try:
                response = await service.check_config("mysql", text)
                return threading.current_thread().name, response
            finally:
                await service.close()

        loop_thread, response = run(scenario())
        assert validator_threads == [(loop_thread, len(text))]
        assert response.errors == len(cold_reference("mysql", text).errors())

    def test_limit_is_inclusive(self, make_service, validator_threads):
        at_limit = "#" * (INLINE_LIMIT - 1) + "\n"
        over_limit = at_limit + "\n"

        async def scenario():
            service = make_service(systems=["mysql"])
            await service.start()
            try:
                await service.check_config("mysql", at_limit)
                await service.check_config("mysql", over_limit)
            finally:
                await service.close()

        run(scenario())
        (inline, _), (pooled, _) = validator_threads
        assert not _pooled(inline)
        assert _pooled(pooled)


class TestPooledRoute:
    def test_oversized_check_leaves_the_loop_free(
        self, warm_caches, monkeypatch
    ):
        """A blocked oversized check holds a pool thread, not the loop:
        a ping on a second connection is answered meanwhile, and the
        check's verdict is the cold one once it is released."""
        entered = threading.Event()
        release = threading.Event()
        threads: list[str] = []
        real = service_module.validate_config

        def blocking(checker, config_text):
            if len(config_text) > INLINE_LIMIT:
                threads.append(threading.current_thread().name)
                entered.set()
                assert release.wait(timeout=30)
            return real(checker, config_text)

        monkeypatch.setattr(service_module, "validate_config", blocking)
        with BackgroundServer(systems=["mysql"], caches=warm_caches) as h:

            async def scenario():
                slow = await ServeClient.connect(
                    h.host, h.port, read_timeout=30
                )
                fast = await ServeClient.connect(
                    h.host, h.port, read_timeout=5
                )
                try:
                    pending = asyncio.ensure_future(
                        slow.check("mysql", OVERSIZED)
                    )
                    while not entered.is_set():
                        await asyncio.sleep(0.01)
                    pong = await fast.ping()
                    answered_while_blocked = not pending.done()
                    release.set()
                    return pong, answered_while_blocked, await pending
                finally:
                    release.set()
                    await slow.close()
                    await fast.close()

            pong, answered_while_blocked, response = asyncio.run(scenario())
        assert pong and answered_while_blocked
        assert len(threads) == 1 and _pooled(threads[0])
        cold = cold_reference("mysql", OVERSIZED)
        assert response.errors == len(cold.errors())
        assert response.warnings == len(cold.warnings())
        assert response.page.total == len(cold.diagnostics)
