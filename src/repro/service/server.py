"""The asyncio NDJSON front end over a :class:`ShardedSolverPool`.

One JSON request per line in, one envelope per line out, over TCP or a
Unix socket.  Requests on one connection are answered in order (the
handler awaits each answer before reading the next line); concurrency
comes from serving many connections, each of which may be pinned to a
different shard by its tenant's fingerprints.

Thread shards compute; the event loop answers from memory.  A warm
``contain``/``chase``/``rewrite`` is answered by its shard's in-memory
caches on the loop's own thread, and its envelope is returned without
a thread hop or a loop wake-up; only a record those caches cannot
answer waits on a shard thread (see :mod:`repro.service.pool`).

Backpressure is two-layered:

* **global admission control** — at most ``max_pending`` requests may
  be in flight across all connections; request ``max_pending + 1``
  is answered immediately with an ``overloaded`` envelope instead of
  queueing without bound;
* **bounded shard inboxes** — the pool rejects submissions to a full
  shard, which likewise surfaces as an ``overloaded`` envelope.

A client that sees ``overloaded`` should back off and retry; nothing
was executed.
"""

from __future__ import annotations

import asyncio
import functools
import json
import threading
from typing import Any, Awaitable, Callable, Dict, Optional, Tuple

from repro.exceptions import ReproError
from repro.obs import ensure_default_probe
from repro.obs.clock import Stopwatch
from repro.obs.tracing import get_tracer, new_trace_id
from repro.service.pool import ShardedSolverPool
from repro.service.protocol import (
    STREAM_LIMIT,
    ProtocolError,
    ServiceOverloaded,
    decode_line,
    encode_envelope,
    failure_envelope,
    op_spec,
    success_envelope,
    validate_record,
)


async def serve_connection(answer: Callable[[str], Awaitable[Dict[str, Any]]],
                           reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
    """Answer one NDJSON connection, line by line, in order.

    The line discipline every front end (service or fleet coordinator)
    shares: ``answer`` turns one decoded line into an envelope, and any
    exception it raises becomes an error envelope here, so every request
    line gets exactly one response line.
    """
    try:
        while True:
            line = await reader.readline()
            if not line:
                break
            try:
                envelope = await answer(_decode(line))
            except Exception as error:
                # A replace-decode is fine for *peeking the id*, which
                # usually sits before any bad bytes, so the client can
                # correlate the rejection with its request.
                envelope = failure_envelope(
                    _peek_id(line.decode("utf-8", errors="replace")), error)
            writer.write(encode_envelope(envelope))
            await writer.drain()
    except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
        pass
    except asyncio.CancelledError:
        # Shutdown cancelled us mid-read; end quietly — a handler
        # that finishes "cancelled" makes asyncio's stream callback
        # log a spurious traceback while the loop is closing.
        pass
    finally:
        # No wait_closed(): every response was drained already, and
        # awaiting the close handshake inside a cancelled task would
        # re-raise immediately anyway.
        writer.close()


class SolverService:
    """A long-lived NDJSON solver server speaking the service protocol.

    ``unix_path`` selects a Unix socket; otherwise ``host:port`` TCP
    (``port=0`` binds an ephemeral port, reported by :attr:`address`).
    ``max_pending=None`` disables global admission control (the shard
    inboxes still bound the queue).
    """

    def __init__(self, pool: ShardedSolverPool, host: str = "127.0.0.1",
                 port: int = 0, unix_path: Optional[str] = None,
                 max_pending: Optional[int] = None,
                 slow_op_threshold: Optional[float] = None):
        if max_pending is not None and max_pending < 0:
            # Fail at startup: a negative admission limit is always a
            # misconfiguration.  (0 is legal and sheds every data-plane
            # request — the tests use it to simulate a saturated service.)
            raise ReproError(
                f"max_pending must be non-negative (or None to disable "
                f"admission control), got {max_pending}")
        if slow_op_threshold is not None and slow_op_threshold <= 0:
            raise ReproError(
                f"slow_op_threshold must be positive (or None to disable "
                f"the slow-op log), got {slow_op_threshold}")
        self._pool = pool
        self._host = host
        self._port = port
        self._unix_path = unix_path
        self._max_pending = max_pending
        self._in_flight = 0
        self._server: Optional[asyncio.AbstractServer] = None
        # Running a server is opting into observability: install the
        # default metrics probe (never displacing a custom one) and arm
        # the slow-op log if asked.  Both are process-wide by design —
        # the ``obs.*`` ops answer for the process, not one server.
        ensure_default_probe()
        if slow_op_threshold is not None:
            get_tracer().slow_log.threshold_s = slow_op_threshold

    @property
    def pool(self) -> ShardedSolverPool:
        return self._pool

    @property
    def address(self) -> Tuple[str, Any]:
        """``("unix", path)`` or ``("tcp", (host, port))`` once started."""
        if self._unix_path is not None:
            return ("unix", self._unix_path)
        if self._server is not None and self._server.sockets:
            return ("tcp", self._server.sockets[0].getsockname()[:2])
        return ("tcp", (self._host, self._port))

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        handler = functools.partial(serve_connection, self._answer)
        if self._unix_path is not None:
            self._server = await asyncio.start_unix_server(
                handler, path=self._unix_path, limit=STREAM_LIMIT)
        else:
            self._server = await asyncio.start_server(
                handler, host=self._host, port=self._port, limit=STREAM_LIMIT)

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    # -- answering one request ------------------------------------------------

    async def _answer(self, line: str) -> Dict[str, Any]:
        record = decode_line(line)
        spec = op_spec(record)
        if (spec is not None and spec.traced
                and record.get("trace_context") is None
                and get_tracer().enabled):
            # An untraced data-plane request still gets a server-minted
            # trace, so obs.trace / the slow-op log cover all traffic.
            # It is minted before validation: a validated record is
            # never changed.
            record["trace_context"] = {"id": new_trace_id()}
        record = validate_record(record)
        if (spec.sheddable and self._max_pending is not None
                and self._in_flight >= self._max_pending):
            raise ServiceOverloaded(
                f"service has {self._in_flight} requests in flight "
                f"(limit {self._max_pending}); retry later")
        if spec.answered_by == "fanout":
            return await self._service_stats(record)
        self._in_flight += 1
        try:
            future = self._pool.submit(record)
            if future.done():  # answered from memory or at the pool front
                return future.result()
            # A shard thread/process resolves the future; wrap_future
            # bridges it into this loop.
            return await asyncio.wrap_future(future)
        finally:
            self._in_flight -= 1

    async def _service_stats(self, record: Dict[str, Any]) -> Dict[str, Any]:
        """Every shard's cache picture plus the pool's routing counters."""
        watch = Stopwatch()
        pool = self._pool
        futures = [shard.submit({"op": record["op"]}) for shard in pool.shards]
        envelopes = [await asyncio.wrap_future(future) for future in futures]
        return success_envelope(record, {
            "pool": pool.counters(),
            "shards": [pool.shard_snapshot(shard, envelope)
                       for shard, envelope in zip(pool.shards, envelopes)],
        }, watch.elapsed_s)

    # -- synchronous embedding ----------------------------------------------

    def run_in_thread(self) -> "ServiceThread":
        """Start the server on a daemon thread; returns a stoppable handle.

        For tests, examples, and embedding the service next to other
        work — the caller's thread stays free while the loop serves.
        """
        return ServiceThread(self)


def _decode(line: bytes) -> str:
    try:
        return line.decode("utf-8")
    except UnicodeDecodeError as error:
        # Decoding with errors="replace" would silently mangle tenant
        # schema/deps text and route the request as if it were valid.
        raise ProtocolError(
            "protocol", f"request line is not valid UTF-8: {error}") from error


def _peek_id(line: str) -> Optional[Any]:
    """Best-effort extraction of ``id`` from a line that failed validation."""
    try:
        record = json.loads(line)
        if isinstance(record, dict):
            return record.get("id")
    except (json.JSONDecodeError, ValueError):
        pass
    return None


class ServiceThread:
    """A :class:`SolverService` running on its own event-loop thread."""

    def __init__(self, service: SolverService):
        self._service = service
        self._loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._thread = threading.Thread(target=self._main, name="repro-service",
                                        daemon=True)
        self._thread.start()
        self._started.wait(timeout=30)

    def _main(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_until_complete(self._service.start())
        self._started.set()
        self._loop.run_forever()
        self._loop.run_until_complete(self._service.stop())
        # Connection handlers blocked in readline() when the loop stopped
        # must be cancelled, or closing the loop destroys pending tasks.
        pending = asyncio.all_tasks(self._loop)
        for task in pending:
            task.cancel()
        if pending:
            self._loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True))
        self._loop.close()

    @property
    def service(self) -> SolverService:
        return self._service

    @property
    def address(self) -> Tuple[str, Any]:
        return self._service.address

    def stop(self) -> None:
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=30)

    def __enter__(self) -> "ServiceThread":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
