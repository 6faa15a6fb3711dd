"""Stopping a server with connections still open is silent.

Asyncio logs a handler task that ends cancelled as an "Exception in
callback ... CancelledError" traceback on stderr, so the shutdown runs
in a fresh interpreter and its whole stderr must be empty.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = textwrap.dedent(
    """
    import socket

    from repro.serve import BackgroundServer

    handle = BackgroundServer(systems=["vsftpd"]).start()
    address = (handle.host, handle.port)
    # An idle connection that has been served once ...
    served = socket.create_connection(address)
    served.sendall(b'{"op": "ping"}\\n')
    assert b'"pong": true' in served.makefile("rb").readline()
    # ... one that never sent a byte, and one stuck mid-line.
    silent = socket.create_connection(address)
    partial = socket.create_connection(address)
    partial.sendall(b'{"op": "pi')
    handle.stop()
    for sock in (served, silent, partial):
        sock.settimeout(10)
        try:  # the server closed its end ...
            assert sock.recv(1) == b""
        except ConnectionResetError:
            pass  # ... with bytes it had not read yet
        sock.close()
    print("stopped")
    """
)


def test_stop_with_open_connections_writes_nothing_to_stderr():
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout == "stopped\n"
    assert completed.stderr == ""
