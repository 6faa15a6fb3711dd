"""The `serve` workload: config authors against the always-on service.

The `serve` CLI runs in its own process and serves all 8 systems.  This
process keeps `nproc` connections in a closed loop: each connection
plays config authors who submit seeded corpus-drawn configs under their
own `config_id` and wait for every verdict before sending the next, as
`submit` and CI callers do.  Every text is distinct (the corpus marker
line), so no memo can answer a check, and every check after an
author's first computes a history delta.  A fixed share of checks is
followed by a read: `page` on the returned cursor, or `history`.

The NDJSON wire (`repro.serve.server`, `repro.serve.client`) and the
service bookkeeping (`repro.serve.service`) do most of the work here
and none anywhere else; validation is the same as on `fleet`.
"""

from __future__ import annotations

import asyncio
import ctypes
import ctypes.util
import json
import os
import select
import signal
import socket
import subprocess
import sys
import time

from perfbench.checks import (
    CheckRecord,
    ReadRecord,
    check_serve,
    diagnostics_digest,
)
from perfbench.common import (
    OUT_DIR,
    ROOT,
    SETUP_REPEATS,
    SRC,
    Measurement,
    median,
    host_ticks,
    nproc,
    pid_cpu_s,
    pid_peak_rss_mb,
    steal_frac,
    unstolen,
    windowed,
)
from perfbench.inputs import PAGE_SIZE, Corpus, serve_ops

PR_SET_PDEATHSIG = 1  # <linux/prctl.h>
READY_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 20.0
# A wait longer than this on one call is a failure, not a slow answer.
CALL_TIMEOUT_S = 30.0
# Length of the windows the serve figures are medians over.
WINDOW_S = 1.0
# The server's memory grows with every tracked config, so its peak is
# read after a fixed number of checks, not after however many a run's
# length and the machine's speed allowed.
RSS_AFTER_CHECKS = 4000


def _die_with_parent() -> None:
    """Runs in the child before exec: ask Linux to send it SIGTERM if
    the benchmark dies, so a killed run leaves no server behind."""
    libc = ctypes.CDLL(ctypes.util.find_library("c"), use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    libc.prctl(PR_SET_PDEATHSIG, signal.SIGTERM)


class ServerProcess:
    """The `serve` CLI in a child process, from spawn to stop."""

    def __init__(self) -> None:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.host, self.port = "127.0.0.1", None
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self._stderr = open(OUT_DIR / "serve-stderr.log", "ab")
        ticks = host_ticks()
        begun = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.reporting.cli", "serve",
             "--port", "0", "--json"],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            preexec_fn=_die_with_parent,
        )
        try:
            line = self._ready_line()
            self.ready_s = time.perf_counter() - begun
            self.ready_cpu_s = unstolen(
                pid_cpu_s(self.proc.pid), ticks, host_ticks()
            )
            ready = json.loads(line)
            self.host, self.port = ready["host"], ready["port"]
        except BaseException:
            self.stop()
            raise

    def _ready_line(self) -> bytes:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError("serve process did not become ready")
            readable, _, _ = select.select([self.proc.stdout], [], [], remaining)
            if readable:
                line = self.proc.stdout.readline()
                if not line:
                    raise RuntimeError(
                        "serve process exited before its ready line; see "
                        f"{OUT_DIR / 'serve-stderr.log'}"
                    )
                return line

    def peak_rss_mb(self) -> float:
        return pid_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """Ask for a clean shutdown; terminate, then kill, on timeout.
        Always waits for the process to end."""
        if self.proc.poll() is None and self.port is not None:
            try:
                self._shutdown()
            except OSError:
                pass
        try:
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()

    def _shutdown(self) -> None:
        """The wire's `shutdown` op over a plain socket, so stopping
        works inside and outside an event loop."""
        with socket.create_connection(
            (self.host, self.port), timeout=STOP_TIMEOUT_S
        ) as sock:
            sock.sendall(b'{"op": "shutdown"}\n')
            sock.makefile("rb").readline()


async def connect(server: ServerProcess):
    from repro.serve import ServeClient

    return await ServeClient.connect(
        server.host,
        server.port,
        connect_timeout=CALL_TIMEOUT_S,
        read_timeout=CALL_TIMEOUT_S,
    )


def record_check(op, response) -> CheckRecord:
    from repro.serve import DEFAULT_PAGE_SIZE

    return CheckRecord(
        system=response.system,
        config_id=response.config_id,
        index=op.index,
        revision=response.revision,
        flagged=response.flagged,
        errors=response.errors,
        warnings=response.warnings,
        total=response.page.total,
        page_size=op.page_size or DEFAULT_PAGE_SIZE,
        page_digest=diagnostics_digest(response.page.items),
    )


async def read_after(client, op, response) -> ReadRecord:
    """The read that follows a check: for a `page` read, the next page
    when the verdict has one; otherwise the config's history."""
    if op.read == "page" and response.page.cursor is not None:
        page = await client.page(response.page.cursor, PAGE_SIZE)
        return ReadRecord(
            "page", op.system, op.config_id, op.index, op.revision,
            PAGE_SIZE, diagnostics_digest(page.items),
        )
    history = await client.history(op.system, op.config_id)
    return ReadRecord(
        "history", op.system, op.config_id, op.index, op.revision, 0,
        f"{history.revision}:{len(history.deltas)}",
    )


class ServeBench:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.corpus: Corpus | None = None
        self.server: ServerProcess | None = None
        self.checks: list[list[CheckRecord]] = []
        self.reads: list[ReadRecord] = []
        # CPU seconds this process spent on the benchmark's own work
        # (texts, records) during the current phase.
        self._bookkeeping_s = 0.0

    def setup(self) -> tuple[float, float]:
        """(unstolen CPU seconds, wall seconds) from spawning the server
        to its ready line, each the median of `SETUP_REPEATS` spawns; the last
        server stays up for the measurement."""
        # The client's own checkers (texts and references) come first,
        # so they never compete with the server's warm-up.
        self.corpus = Corpus()
        cpus, walls = [], []
        for repeat in range(SETUP_REPEATS):
            self.server = ServerProcess()
            cpus.append(self.server.ready_cpu_s)
            walls.append(self.server.ready_s)
            if repeat < SETUP_REPEATS - 1:
                self.server.stop()
        return median(cpus), median(walls)

    def measure(self, seconds: float, tracer, phase: int = 0) -> Measurement:
        """Wall-clock checks per second and check latency are medians
        over one-second windows of the phase (`windowed`); work per
        CPU-second is the phase's checks over the CPU time of both ends
        of the wire: the server process, and this process less the time
        it spends building texts and records (`_bookkeeping_s`)."""
        out = Measurement()
        connections = nproc()
        # Each phase plays its own authors, so revisions start at 1.
        ids = [phase * connections + c for c in range(connections)]
        events: list[tuple[float, float]] = []
        reads: list[float] = []
        ticks = host_ticks()
        cpu = pid_cpu_s(self.server.proc.pid)
        client_cpu = time.process_time()
        self._bookkeeping_s = 0.0
        begun = time.perf_counter()
        deadline = begun + seconds
        results = asyncio.run(
            self._drive(ids, deadline, tracer, out, events, reads, seconds)
        )
        server_cpu = pid_cpu_s(self.server.proc.pid) - cpu
        client_cpu = time.process_time() - client_cpu - self._bookkeeping_s
        after = host_ticks()
        out.steal_frac = steal_frac(ticks, after)
        out.cpu_rate = sum(len(r) for r in results) / unstolen(
            server_cpu + client_cpu, ticks, after
        )
        self.checks.extend(results)
        out.throughput, out.p50_ms, out.p99_ms, out.units = windowed(
            events, begun, WINDOW_S
        )
        if reads:
            out.read_p50_ms = median(reads) * 1000.0
        if not out.peak_rss_mb:  # fewer than RSS_AFTER_CHECKS checks
            out.peak_rss_mb = self.server.peak_rss_mb()
        return out

    async def _drive(self, ids, deadline, tracer, out, events, reads, seconds):
        return await asyncio.gather(
            *(
                self._connection(
                    c, deadline, tracer, out, events, reads, seconds
                )
                for c in ids
            )
        )

    async def _connection(
        self, connection, deadline, tracer, out, events, reads, seconds
    ):
        from repro.serve import ServeError

        records: list[CheckRecord] = []
        client = await connect(self.server)
        ops = serve_ops(self.seed, connection)
        try:
            while time.perf_counter() < deadline:
                mark = time.process_time()
                op = next(ops)
                text = self.corpus.config(op.system, self.seed, op.index).text
                self._bookkeeping_s += time.process_time() - mark
                begun = time.perf_counter()
                try:
                    with tracer.span("serve.check", op.system):
                        response = await client.check(
                            op.system,
                            text,
                            config_id=op.config_id,
                            page_size=op.page_size,
                        )
                except ServeError as exc:
                    out.tally.fail("check", f"ServeError:{exc.code}")
                    events.append((time.perf_counter(), seconds))
                    continue
                except OSError as exc:
                    out.tally.fail("check", type(exc).__name__)
                    events.append((time.perf_counter(), seconds))
                    break
                ended = time.perf_counter()
                events.append((ended, ended - begun))
                out.tally.ok("check")
                if len(events) == RSS_AFTER_CHECKS:
                    out.peak_rss_mb = self.server.peak_rss_mb()
                mark = time.process_time()
                records.append(record_check(op, response))
                self._bookkeeping_s += time.process_time() - mark
                if not op.read:
                    continue
                begun = time.perf_counter()
                try:
                    with tracer.span("serve.read", op.system):
                        read = await read_after(client, op, response)
                except ServeError as exc:
                    out.tally.fail("read", f"ServeError:{exc.code}")
                    reads.append(seconds)
                    continue
                except OSError as exc:
                    out.tally.fail("read", type(exc).__name__)
                    reads.append(seconds)
                    break
                reads.append(time.perf_counter() - begun)
                out.tally.ok("read")
                self.reads.append(read)
        finally:
            await client.close()
        return records

    def verify(self) -> list[str]:
        if not any(self.checks):
            return ["no check completed"]
        return check_serve(self.checks, self.reads, self.corpus, self.seed)

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
