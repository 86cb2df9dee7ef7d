"""A ``repro serve`` child process and a plain NDJSON connection to it."""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

from harness import ROOT, pinned_environment

#: Scratch directory (inside the checkout) for the server's socket and log.
RUN_DIR = ROOT / ".perfbench_run"


class Connection:
    """One blocking NDJSON connection; never retries on its own.

    A transport error or timeout closes it and propagates, so the caller
    counts the request as failed; the next request reconnects.
    """

    def __init__(self, path: str, timeout_s: float = 30.0):
        self._path = path
        self._timeout_s = timeout_s
        self._socket: Optional[socket.socket] = None
        self._file = None

    def _connect(self) -> None:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self._timeout_s)
        try:
            sock.connect(self._path)
        except OSError:
            sock.close()
            raise
        self._socket = sock
        self._file = sock.makefile("rwb")

    def exchange(self, line: bytes) -> bytes:
        if self._file is None:
            self._connect()
        try:
            self._file.write(line)
            self._file.flush()
            reply = self._file.readline()
        except OSError:
            self.close()
            raise
        if not reply:
            self.close()
            raise ConnectionError("server closed the connection")
        return reply

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._socket is not None:
            self._socket.close()
            self._socket = None


class ServerProcess:
    """``python -m repro.cli serve --socket … --shards N`` as a child."""

    def __init__(self, shards: int = 2):
        RUN_DIR.mkdir(exist_ok=True)
        name = f"serve-{os.getpid()}.sock"
        self._socket_file = RUN_DIR / name
        if self._socket_file.exists():
            self._socket_file.unlink()
        # A relative path keeps the socket address short whatever the
        # checkout's absolute path is (Unix socket paths are limited).
        self.path = os.path.relpath(self._socket_file)
        self._log = open(RUN_DIR / f"serve-{os.getpid()}.log", "wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--socket", name,
             "--shards", str(shards)],
            cwd=RUN_DIR, env=pinned_environment(),
            stdin=subprocess.DEVNULL, stdout=self._log, stderr=self._log)

    @property
    def pid(self) -> int:
        return self.process.pid

    def wait_ready(self, timeout_s: float = 60.0) -> None:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited with code {self.process.returncode}")
            if self._socket_file.exists():
                probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                try:
                    probe.connect(self.path)
                    return
                except OSError:
                    pass
                finally:
                    probe.close()
            time.sleep(0.005)
        raise RuntimeError("repro serve did not start listening in time")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=15)
        self._log.close()
        if self._socket_file.exists():
            self._socket_file.unlink()
        Path(self._log.name).unlink(missing_ok=True)
        try:
            RUN_DIR.rmdir()
        except OSError:
            pass
