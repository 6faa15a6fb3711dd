"""`ServeClient` timeout behaviour: a stalled server (or an
unreachable one) surfaces as a typed `ServeError("deadline")`, never
as an indefinite hang or a bare `asyncio.TimeoutError`."""

import asyncio
import time

import pytest
from serveutil import run

from repro.serve import ServeClient, ServeError
from repro.serve.client import submit_config


async def _silent_server():
    """A listener that reads requests and never answers."""

    async def handler(reader, writer):
        try:
            while await reader.readline():
                pass  # swallow every request, reply to none
        except ConnectionResetError:
            pass
        finally:
            writer.close()

    server = await asyncio.start_server(handler, host="127.0.0.1", port=0)
    return server, server.sockets[0].getsockname()[1]


class TestReadTimeout:
    def test_stalled_server_maps_to_typed_deadline(self):
        async def scenario():
            server, port = await _silent_server()
            try:
                client = await ServeClient.connect(
                    "127.0.0.1", port, read_timeout=0.1
                )
                try:
                    with pytest.raises(ServeError) as excinfo:
                        await client.ping()
                    return excinfo.value
                finally:
                    await client.close()
            finally:
                server.close()
                await server.wait_closed()

        error = run(scenario())
        assert error.code == "deadline"
        assert "read" in error.message and "timeout" in error.message

    def test_one_deadline_per_op_and_no_helper_tasks(self):
        """`read_timeout` bounds the whole op with one scope on the
        caller's task: exactly one typed error, after about
        `read_timeout`, and no Task created to enforce it."""
        read_timeout = 0.3

        async def scenario():
            server, port = await _silent_server()
            try:
                client = await ServeClient.connect(
                    "127.0.0.1", port, read_timeout=read_timeout
                )
                loop = asyncio.get_running_loop()
                created = []

                def counting_factory(loop, coro, **kwargs):
                    created.append(coro)
                    return asyncio.Task(coro, loop=loop, **kwargs)

                loop.set_task_factory(counting_factory)
                begun = time.perf_counter()
                try:
                    with pytest.raises(ServeError) as excinfo:
                        await client.ping()
                    return excinfo.value, time.perf_counter() - begun, created
                finally:
                    loop.set_task_factory(None)
                    await client.close()
            finally:
                server.close()
                await server.wait_closed()

        error, elapsed, created = run(scenario())
        assert error.code == "deadline"
        assert read_timeout <= elapsed < 3 * read_timeout
        assert created == []

    def test_deadline_spans_send_and_reply(self):
        """A slow send eats into the same budget as the reply: the op
        ends at `read_timeout`, not at send time plus `read_timeout`."""
        read_timeout = 0.6
        send_seconds = 0.4

        class _SlowWriter:
            def write(self, data):
                pass

            async def drain(self):
                await asyncio.sleep(send_seconds)

        class _SilentReader:
            async def readline(self):
                await asyncio.sleep(3600)

        async def scenario():
            client = ServeClient(
                _SilentReader(), _SlowWriter(), read_timeout=read_timeout
            )
            begun = time.perf_counter()
            with pytest.raises(ServeError) as excinfo:
                await client.ping()
            return excinfo.value, time.perf_counter() - begun

        error, elapsed = run(scenario())
        assert error.code == "deadline"
        assert read_timeout <= elapsed < read_timeout + send_seconds / 2

    def test_no_timeout_by_default(self):
        client = ServeClient(reader=None, writer=None)
        assert client.read_timeout is None


class TestConnectTimeout:
    def test_hung_connect_maps_to_typed_deadline(self, monkeypatch):
        # A black-holed address never completes the TCP handshake;
        # simulate that deterministically instead of depending on the
        # host's routing table.
        async def never_connects(*args, **kwargs):
            await asyncio.sleep(3600)

        monkeypatch.setattr(asyncio, "open_connection", never_connects)

        async def scenario():
            with pytest.raises(ServeError) as excinfo:
                await ServeClient.connect(
                    "203.0.113.1", 9, connect_timeout=0.05
                )
            return excinfo.value

        error = run(scenario())
        assert error.code == "deadline"
        assert "connect timeout" in error.message

    def test_submit_config_passes_timeouts_through(self, monkeypatch):
        # The sync one-shot must honour the same knobs: a dead server
        # becomes a typed error, not a hang.
        async def never_connects(*args, **kwargs):
            await asyncio.sleep(3600)

        monkeypatch.setattr(asyncio, "open_connection", never_connects)
        with pytest.raises(ServeError) as excinfo:
            submit_config(
                "203.0.113.1",
                9,
                "mysql",
                "port = 1\n",
                connect_timeout=0.05,
            )
        assert excinfo.value.code == "deadline"
