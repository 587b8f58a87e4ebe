"""In-memory span recording around calls into the program's layers.

The benchmark never edits the program: a traced run replaces a few
public functions and methods with wrappers that record a span (name,
start, end, parent, token) around the original call, then restores them.
Spans live in memory and are written out once, when the run ends.

A span's layer is the part of its name before the first dot (``sim``,
``schedulers``, ``jobs``, ``workloads``, ``service``, ``queue``,
``admission``, ``journal``, ``router``, ``shard``, ``client``).  A child
span inherits its parent's token, so every span under one submission
carries that submission's idempotency token.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from time import perf_counter


class SpanRecorder:
    """Collects spans from any thread; parents follow the call stack."""

    def __init__(self) -> None:
        #: finished spans: (id, parent, name, start, end, token, tag, attrs)
        self.spans: list[tuple] = []
        #: label stored on every span; the sim workloads set it to
        #: ``[pass, engine]`` before each timed call
        self.tag = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, *, token=None, attrs=None):
        """Replace ``owner.attr`` by a recording wrapper.

        ``token(args, kwargs)`` extracts the request token from the call;
        ``attrs(args, kwargs, result, before)`` returns extra data to keep
        with the span, where ``before`` is what ``attrs`` returned when
        called with ``result=None`` ahead of the call.  A call made
        directly inside a span of the same name (an override calling its
        base method) belongs to that span and records none of its own.
        Only attributes the owner defines itself may be wrapped, so that
        :meth:`restore` never leaves a subclass shadowing its base.
        """
        if isinstance(owner, type) and attr not in vars(owner):
            raise AttributeError(f"{owner.__name__} does not define {attr}")
        orig = getattr(owner, attr)
        rec = self

        def wrapper(*args, **kwargs):
            stack = rec._stack()
            if stack and stack[-1][2] == name:
                return orig(*args, **kwargs)
            sid = next(rec._ids)
            parent, parent_tok, _ = stack[-1] if stack else (None, None, None)
            tok = token(args, kwargs) if token is not None else None
            if tok is None:
                tok = parent_tok
            before = attrs(args, kwargs, None, None) if attrs else None
            stack.append((sid, tok, name))
            start = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            extra = attrs(args, kwargs, result, before) if attrs else None
            rec.spans.append(
                (sid, parent, name, start, end, tok, rec.tag, extra)
            )
            return result

        wrapper.__wrapped__ = orig
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span recorded at the call site."""
        stack = self._stack()
        sid = next(self._ids)
        parent, tok, _ = stack[-1] if stack else (None, None, None)
        stack.append((sid, tok, name))
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(
                (sid, parent, name, start, end, tok, self.tag, None)
            )

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load(path: str) -> list[tuple]:
    with open(path) as fh:
        return [tuple(json.loads(line)) for line in fh if line.strip()]


# ----------------------------------------------------------------------
# layer wiring
# ----------------------------------------------------------------------
def _rows(args, kwargs, result, before):
    return None if result is None else {"rows": len(args[1])}


def install_sim(rec: SpanRecorder) -> None:
    """Wrap the engine-side layers the sim workloads run through."""
    from repro.jobs.dag_job import DagJob
    from repro.jobs.phase_job import PhaseJob
    from repro.schedulers import krad, rad
    from repro.sim.engine import Simulator
    from repro.sim.fastengine import FastSimulator

    rec.wrap(krad.KRadBatch, "allocate_matrix", "schedulers.kernel",
             attrs=_rows)
    rec.wrap(krad.KRadBatch, "allocate", "schedulers.kernel", attrs=_rows)
    rec.wrap(krad.KRad, "allocate", "schedulers.kernel",
             attrs=lambda a, k, r, b: None if r is None else {
                 "rows": len(a[2])})
    rec.wrap(krad, "deq_allocate", "schedulers.deq")
    rec.wrap(rad, "deq_allocate", "schedulers.deq")
    rec.wrap(PhaseJob, "execute", "jobs.execute")
    rec.wrap(DagJob, "execute", "jobs.execute")
    rec.wrap(DagJob, "desire_vector", "jobs.desires")
    rec.wrap(Simulator, "run", "sim.run")
    for cls in (Simulator, FastSimulator):
        rec.wrap(cls, "inject_job", "sim.inject")
        rec.wrap(cls, "advance_until", "sim.advance")


def _payload_token(args, kwargs):
    item = args[2] if len(args) > 2 else kwargs.get("item")
    payload = item[0] if isinstance(item, tuple) else None
    return payload.get("token") if isinstance(payload, dict) else None


def _submit_token(args, kwargs):
    return kwargs.get("token")


def _journal_attrs(args, kwargs, result, before):
    journal = args[0]
    try:
        size = os.stat(journal.path).st_size
    except OSError:
        size = 0
    if result is None:
        return size
    return {"type": args[1], "bytes": size - before}


def _clock_attrs(args, kwargs, result, before):
    clock = args[0].clock
    return clock if result is None else {"steps": clock - before}


def install_server(rec: SpanRecorder) -> None:
    """Wrap the service-side layers inside a ``krad serve`` process."""
    from repro.service.admission import AdmissionController
    from repro.service.core import SchedulingService
    from repro.service.queue import FairSubmissionQueue
    from repro.service.router import RoutingTable
    from repro.service.shard import ShardedSchedulingService, ShardSupervisor
    from repro.sim.engine import Simulator
    from repro.sim.fastengine import FastSimulator
    from repro.sim.journal import Journal

    rec.wrap(FairSubmissionQueue, "push", "queue.push",
             token=_payload_token)
    rec.wrap(FairSubmissionQueue, "pop", "queue.pop",
             attrs=lambda a, k, r, b: None if r is None else {
                 "token": r[1][0].get("token")})
    rec.wrap(SchedulingService, "submit", "service.submit",
             token=_submit_token)
    rec.wrap(SchedulingService, "tick", "service.tick", attrs=_clock_attrs)
    rec.wrap(ShardedSchedulingService, "submit", "router.submit",
             token=_submit_token)
    rec.wrap(ShardedSchedulingService, "tick", "service.tick",
             attrs=_clock_attrs)
    rec.wrap(AdmissionController, "decide", "admission.decide")
    for cls in (Simulator, FastSimulator):
        rec.wrap(cls, "inject_job", "sim.inject")
        rec.wrap(cls, "advance_until", "sim.advance")
    rec.wrap(Journal, "append", "journal.append", attrs=_journal_attrs)
    rec.wrap(RoutingTable, "shard_for", "router.shard_for")
    rec.wrap(ShardSupervisor, "tick_all", "shard.tick_all")


def install_client(rec: SpanRecorder) -> None:
    """Wrap the client's one wire round trip."""
    from repro.service.client import ServiceClient

    rec.wrap(ServiceClient, "request", "client.request",
             token=lambda a, k: a[1].get("token"))
