"""Fleet workers: the shard server loop and its two transports.

One code path serves both deployment shapes:

* :class:`ShardServer` — the worker-side request handler: holds one
  warm :class:`~repro.serve.engine.InferenceEngine` (plus its own
  :class:`~repro.serve.rescheduler.FormatRescheduler`) per attached
  model, records into a per-worker :class:`~repro.serve.metrics.
  ServeMetrics`, and answers plain-tuple messages.
* :class:`ProcessShard` — the real thing: a child process running
  :func:`fleet_worker_main` over a duplex pipe.  Every message and
  reply is pickled through ``send_bytes``/``recv_bytes`` so the
  client can *count the bytes that cross the process boundary* —
  the measurement behind the zero-copy acceptance test (per-request
  traffic is O(batch), never O(nnz), because matrices travel once
  via :mod:`repro.serve.shm` handles).
* :class:`LocalShard` — the same server called in-process, still
  through the pickle round-trip so byte accounting and message
  semantics are identical.  Used by tests and single-process runs.

Both transports split a call in two: ``post(msg)`` sends and returns
a token, ``collect(token)`` waits for that reply (a local shard
answers at post).  Between the two the door is free to post to other
shards, so several workers compute at once; ``request(msg)`` is
``collect(post(msg))``.  A worker answers in post order.

The wire protocol is deliberately dumb — tuples with a verb first:

=================  ===================================================
``attach``          ``(key, ModelHandle, fmt0 | None, rcfg | None)``
``predict``         ``(key, req_ids, vectors, started, finished,
                    queued[, ctx])``
``predict_one``     ``(key, req_id, vector, arrived, finished[, ctx])``
``snapshot``        worker metrics state + per-model formats
``trace_on``        enable the worker's tracer + flight recorder
``trace_collect``   ship the span ring, drop count and audit records
                    back (plus a clock reading for offset estimation)
``flight_dump``     write the worker's flight-recorder ring to disk
``shutdown``        goodbye (worker closes attachments and exits)
=================  ===================================================

``ctx`` is an optional :class:`~repro.obs.trace.TraceContext` — the
front door's open request span — that the worker stamps onto its own
spans so :func:`~repro.obs.collect.merge_fleet_trace` can re-parent
them across the process boundary.  Its absence (older callers, or
tracing off) costs nothing.

Timestamps ride in from the front door (virtual or monotonic — the
door owns the clock), so worker metrics merge into an exact fleet
view regardless of which clock the simulation ran on.
"""

from __future__ import annotations

import os
import pickle
import traceback
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.analysis.race import make_lock, track_shared
from repro.obs.audit import audit_log
from repro.obs.flight import flight_recorder, install_signal_dump
from repro.obs.trace import (
    CTX_PARENT_LANE,
    CTX_PARENT_SPAN,
    CTX_TRACE_ID,
    TraceContext,
    get_tracer,
)
from repro.perf.counters import OpCounter
from repro.serve.engine import InferenceEngine
from repro.serve.metrics import ServeMetrics
from repro.serve.rescheduler import FormatRescheduler
from repro.serve.shm import Attachment, ModelHandle, attach_model

#: Message verbs on the request hot path; everything else is control
#: plane (attach / snapshot / shutdown) and may be arbitrarily large
#: exactly once.
HOT_VERBS = ("predict", "predict_one")


class FleetWorkerError(RuntimeError):
    """A worker-side exception or a dead worker, raised at the door."""


class ShardServer:
    """Worker-side state: engines, reschedulers, metrics, attachments.

    ``remote=True`` marks a server running in its *own* process (via
    :func:`fleet_worker_main`): it owns that process's global tracer
    and audit log, so ``trace_on`` flips them and ``trace_collect``
    ships them home.  A local (in-door-process) server shares the
    door's globals — the door reads them directly, and collecting
    from the shard would double-count, so local collect is empty.
    """

    def __init__(
        self,
        worker_id: int,
        *,
        unregister: bool = False,
        remote: bool = False,
    ) -> None:
        self.worker_id = worker_id
        self.remote = remote
        # The process tracer, shared with the engine and rescheduler
        # instrumentation, so every layer's spans land in one ring
        # with one id space and correct contextvar nesting.
        self.tracer = get_tracer()
        self.metrics = ServeMetrics(counter=OpCounter())
        self.engines: Dict[str, InferenceEngine] = {}
        self.reschedulers: Dict[str, Optional[FormatRescheduler]] = {}
        self._attachments: List[Attachment] = []
        self._unregister = unregister
        self._closed = False

    # -- message handling ------------------------------------------------
    def handle(self, msg: Tuple[Any, ...]) -> Tuple[Any, ...]:
        verb = msg[0]
        if verb == "predict":
            return self._predict(*msg[1:])
        if verb == "predict_one":
            return self._predict_one(*msg[1:])
        if verb == "attach":
            return self._attach(*msg[1:])
        if verb == "snapshot":
            return self._snapshot()
        if verb == "trace_on":
            return self._trace_on()
        if verb == "trace_collect":
            return self._trace_collect()
        if verb == "flight_dump":
            return self._flight_dump(*msg[1:])
        if verb == "shutdown":
            return ("ok", "shutdown", self.worker_id)
        raise ValueError(f"unknown fleet message verb {verb!r}")

    def _attach(
        self,
        key: str,
        handle: ModelHandle,
        fmt0: Optional[str],
        rcfg: Optional[Dict[str, Any]],
    ) -> Tuple[Any, ...]:
        if key in self.engines:
            raise ValueError(
                f"worker {self.worker_id} already serves {key!r}"
            )
        att = Attachment(unregister=self._unregister)
        model = attach_model(handle, att)
        self._attachments.append(att)
        # All engines on one worker report into the worker's counter,
        # so one snapshot message captures the whole worker.
        engine = InferenceEngine(model, counter=self.metrics.counter)
        resched = (
            FormatRescheduler(**rcfg) if rcfg is not None else None
        )
        start_fmt = fmt0
        if start_fmt is None and resched is not None:
            start_fmt = resched.initial_format(model.matrix)
        if start_fmt is not None:
            engine.convert_to(start_fmt)
        self.engines[key] = engine
        self.reschedulers[key] = resched
        return ("ok", "attach", key, engine.format)

    def _predict(
        self,
        key: str,
        req_ids: List[int],
        vectors: List[Any],
        started_at: float,
        finished_at: float,
        queued_at: List[float],
        ctx: Optional[TraceContext] = None,
    ) -> Tuple[Any, ...]:
        tracer = self.tracer
        with tracer.span("fleet.worker.predict") as sp:
            if tracer.enabled:
                sp.set("worker", self.worker_id)
                sp.set("model", key)
                sp.set("k", len(vectors))
                if ctx is not None:
                    sp.set(CTX_TRACE_ID, ctx.trace_id)
                    sp.set(CTX_PARENT_SPAN, ctx.span_id)
                    sp.set(CTX_PARENT_LANE, ctx.lane)
            engine = self.engines[key]
            labels, dec = engine.predict_with_decisions(vectors)
            self.metrics.record_batch(
                len(vectors), started_at, finished_at,
                queued_at=list(queued_at),
            )
            event = None
            resched = self.reschedulers.get(key)
            if resched is not None:
                event = resched.after_batch(
                    len(vectors), engine.model.matrix
                )
                if event is not None:
                    engine.convert_to(event.to_fmt)
                    self.metrics.record_reschedule()
            return (
                "ok", "predict", key, list(req_ids), labels, dec,
                engine.format, event,
            )

    def _predict_one(
        self,
        key: str,
        req_id: int,
        vector: Any,
        arrived_at: float,
        finished_at: float,
        ctx: Optional[TraceContext] = None,
    ) -> Tuple[Any, ...]:
        tracer = self.tracer
        with tracer.span("fleet.worker.predict_one") as sp:
            if tracer.enabled:
                sp.set("worker", self.worker_id)
                sp.set("model", key)
                if ctx is not None:
                    sp.set(CTX_TRACE_ID, ctx.trace_id)
                    sp.set(CTX_PARENT_SPAN, ctx.span_id)
                    sp.set(CTX_PARENT_LANE, ctx.lane)
            engine = self.engines[key]
            label, dec = engine.predict_one_with_decision(vector)
            self.metrics.record_single(arrived_at, finished_at)
            self.metrics.record_degraded()
            return (
                "ok", "predict_one", key, req_id, label, dec,
                engine.format,
            )

    def _snapshot(self) -> Tuple[Any, ...]:
        formats = {
            key: engine.format for key, engine in self.engines.items()
        }
        return (
            "ok", "snapshot", self.worker_id, self.metrics.state(),
            formats,
        )

    # -- observability control plane -------------------------------------
    def _trace_on(self) -> Tuple[Any, ...]:
        if self.remote:
            # A remote worker owns its process's tracer and flight
            # recorder; a local shard shares the door's, which the
            # door flips itself.
            self.tracer.enable()
            flight_recorder().enable()
        return ("ok", "trace_on", self.worker_id, self.tracer.enabled)

    def _trace_collect(self) -> Tuple[Any, ...]:
        spans: List[Dict[str, Any]] = []
        audit: List[Dict[str, Any]] = []
        dropped = 0
        if self.remote:
            spans = [s.as_dict() for s in self.tracer.spans()]
            audit = [r.as_dict() for r in audit_log().records()]
            dropped = self.tracer.dropped
        return (
            "ok", "trace_collect", self.worker_id, os.getpid(),
            self.tracer.now(), spans, dropped, audit,
        )

    def _flight_dump(
        self, reason: str = "request", path: Optional[str] = None
    ) -> Tuple[Any, ...]:
        out = flight_recorder().dump(path, reason=reason)
        return ("ok", "flight_dump", self.worker_id, str(out))

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for att in self._attachments:
            att.close()


def _error_reply(exc: Exception) -> Tuple[str, str, str]:
    return ("err", f"{type(exc).__name__}: {exc}", traceback.format_exc())


def fleet_worker_main(
    conn, worker_id: int, unregister: bool = False
) -> None:
    """Child-process entry: serve messages until shutdown or EOF.

    Any per-message exception is shipped back as an ``("err", ...)``
    reply instead of killing the worker; EOF on the pipe (the parent
    died or closed us) exits cleanly, closing shm attachments.  An
    exception that *does* escape the loop (a broken reply pipe, a
    corrupted message) dumps the worker's flight recorder before the
    process dies, so the post-mortem has the recent history.
    """
    server = ShardServer(worker_id, unregister=unregister, remote=True)
    install_signal_dump()  # SIGUSR1 -> flight dump, best effort
    fr = flight_recorder()
    try:
        while True:
            try:
                raw = conn.recv_bytes()
            except (EOFError, OSError):
                break
            msg = pickle.loads(raw)
            try:
                reply = server.handle(msg)
            except Exception as exc:
                if fr.enabled:
                    fr.record(
                        "worker_error",
                        worker=worker_id,
                        verb=str(msg[0]),
                        error=f"{type(exc).__name__}: {exc}",
                    )
                reply = _error_reply(exc)
            conn.send_bytes(
                pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL)
            )
            if msg[0] == "shutdown":
                break
    except BaseException:  # pragma: no cover - crash path
        if fr.enabled:
            fr.record("worker_crash", worker=worker_id)
            fr.dump(reason="worker_crash")
        raise
    finally:
        server.close()
        conn.close()


class _TransportStats:
    """Byte/message accounting split into hot path vs control plane."""

    FIELDS = (
        "hot_messages", "hot_requests", "hot_bytes_sent",
        "hot_bytes_received", "control_messages", "control_bytes_sent",
        "control_bytes_received",
    )

    def __init__(self) -> None:
        for f in self.FIELDS:
            setattr(self, f, 0)

    def account(
        self, verb: str, n_requests: int, sent: int, received: int
    ) -> None:
        if verb in HOT_VERBS:
            self.hot_messages += 1
            self.hot_requests += n_requests
            self.hot_bytes_sent += sent
            self.hot_bytes_received += received
        else:
            self.control_messages += 1
            self.control_bytes_sent += sent
            self.control_bytes_received += received

    def as_dict(self) -> Dict[str, int]:
        return {f: getattr(self, f) for f in self.FIELDS}


def _request_ids(msg: Tuple[Any, ...]) -> List[int]:
    if msg[0] == "predict":
        return list(msg[2])
    if msg[0] == "predict_one":
        return [msg[2]]
    return []


class _Shard:
    """The door's end of one shard: post now, collect the reply later.

    :meth:`post` sends one message and returns a token;
    :meth:`collect` returns the reply to that token.  A shard answers
    in post order, so collecting a later token first reads the earlier
    replies and keeps them for their own collectors — no caller ever
    reads another message's reply.  :meth:`request` is
    ``collect(post(msg))``.  The pending queue and the byte accounting
    live under one lock, the lockset the ``REPRO_RACE`` sanitizer
    checks when several door threads share a shard.

    Subclasses supply the channel: ``_send(payload)`` and ``_recv()``.
    A channel that fails (the worker died) fails every later call with
    the same :class:`FleetWorkerError`, naming what was in flight.
    """

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self._stats = _TransportStats()
        self._lock = make_lock(f"serve.shard{worker_id}")
        # Posted, unanswered messages: (token, verb, request ids, bytes).
        self._pending: Deque[Tuple[int, str, List[int], int]] = deque()
        self._replies: Dict[int, bytes] = {}  # read ahead of collect
        self._next_token = 0
        self._dead: Optional[str] = None
        track_shared(
            self,
            ("_stats", "_pending", "_replies", "_next_token", "_dead"),
        )

    def post(self, msg: Tuple[Any, ...]) -> int:
        payload = pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL)
        with self._lock:
            if self._dead is not None:
                raise FleetWorkerError(self._dead)
            token = self._next_token
            self._next_token += 1
            self._pending.append(
                (token, msg[0], _request_ids(msg), len(payload))
            )
            try:
                self._send(payload)
            except OSError as exc:
                raise self._died() from exc
        return token

    def collect(self, token: int) -> Tuple[Any, ...]:
        with self._lock:
            while token not in self._replies:
                if self._dead is not None:
                    raise FleetWorkerError(self._dead)
                head, verb, ids, sent = self._pending[0]
                try:
                    raw = self._recv()
                except (EOFError, OSError) as exc:
                    raise self._died() from exc
                self._pending.popleft()
                self._stats.account(verb, len(ids), sent, len(raw))
                self._replies[head] = raw
            raw = self._replies.pop(token)
        reply = pickle.loads(raw)
        if reply[0] == "err":
            raise FleetWorkerError(
                f"worker {self.worker_id}: {reply[1]}\n{reply[2]}"
            )
        return reply

    def request(self, msg: Tuple[Any, ...]) -> Tuple[Any, ...]:
        return self.collect(self.post(msg))

    def _died(self) -> FleetWorkerError:
        """Mark the channel dead (caller holds the lock)."""
        verbs = sorted({verb for _, verb, _, _ in self._pending})
        lost = [rid for _, _, ids, _ in self._pending for rid in ids]
        self._pending.clear()
        self._dead = (
            f"worker {self.worker_id} died with {'/'.join(verbs)} in "
            f"flight; request ids {lost}"
        )
        return FleetWorkerError(self._dead)

    def transport_stats(self) -> Dict[str, int]:
        with self._lock:
            return self._stats.as_dict()


class ProcessShard(_Shard):
    """Front-door handle to one worker process over a duplex pipe.

    :meth:`post` returns once the message is written, so the door can
    post to another shard while this worker computes.  The fleet keeps
    at most one batch in flight per shard: a worker blocked writing a
    reply larger than the pipe buffer is then never waiting on a door
    that is blocked writing to it.
    """

    kind = "process"

    def __init__(self, worker_id: int, ctx) -> None:
        super().__init__(worker_id)
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        # A spawned worker owns a private resource tracker that must
        # forget attached segments (see repro.serve.shm); a forked one
        # shares ours and must not touch its bookkeeping.
        unregister = ctx.get_start_method() == "spawn"
        self._conn = parent_conn
        self.process = ctx.Process(
            target=fleet_worker_main,
            args=(child_conn, worker_id, unregister),
            daemon=True,
            name=f"repro-fleet-worker-{worker_id}",
        )
        self.process.start()
        child_conn.close()

    def _send(self, payload: bytes) -> None:
        self._conn.send_bytes(payload)

    def _recv(self) -> bytes:
        return self._conn.recv_bytes()

    def alive(self) -> bool:
        return self.process.is_alive()

    def kill(self) -> None:
        """SIGKILL the worker (crash-hygiene tests only)."""
        self.process.kill()
        self.process.join(timeout=10.0)

    def close(self) -> None:
        if self.process.is_alive():
            try:
                # Replies still in flight are read and set aside; the
                # shutdown reply is the one for this token.
                self.request(("shutdown",))
            except FleetWorkerError:
                pass
        self._conn.close()
        self.process.join(timeout=10.0)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.kill()
            self.process.join(timeout=10.0)


class LocalShard(_Shard):
    """The same server, same wire format, no process.

    Messages still round-trip through pickle so the byte accounting
    (and anything unpicklable sneaking onto the hot path) behaves
    exactly as it would across a real process boundary.  :meth:`post`
    answers eagerly; the pickled reply waits for :meth:`collect`.
    """

    kind = "local"

    def __init__(self, worker_id: int) -> None:
        super().__init__(worker_id)
        self.server = ShardServer(worker_id)
        self._outbox: Deque[bytes] = deque()

    def _send(self, payload: bytes) -> None:
        try:
            reply = self.server.handle(pickle.loads(payload))
        except Exception as exc:
            reply = _error_reply(exc)
        self._outbox.append(
            pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL)
        )

    def _recv(self) -> bytes:
        return self._outbox.popleft()

    def alive(self) -> bool:
        return True

    def close(self) -> None:
        self.server.close()
