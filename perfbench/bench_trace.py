"""Span tracing for the perfbench traced run.

The traced run wraps the public functions of each layer *from here*, so
nothing under ``src/`` changes.  A span is ``(id, name, start, end,
parent, rid, attrs)``: ``start``/``end`` are ``time.perf_counter()``
readings (CLOCK_MONOTONIC on Linux, shared by every process on the host,
so worker and parent spans sit on one time axis), ``parent`` is the id of
the enclosing span and ``rid`` the request the span belongs to.

Worker processes import this module by name: the pool pickles
:func:`traced_run_tile` / :func:`traced_sng_chunk` /
:func:`traced_op_chunk` by reference, and each of them installs the
worker-side hooks on first use, records the task's spans, and ships them
back attached to the task's own result (:class:`TracedTuple`,
:class:`TracedFloat` — a tuple/float to every caller, so stitching and
Monte-Carlo reductions are untouched).  The parent harvests them in a
done-callback of :meth:`repro.serve.pool.WorkerPool.submit`.

Spans stay in memory and are written once, at the end (:meth:`Tracer.dump`).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.apps import executor
from repro.core import accuracy
from repro.core.streambatch import StreamBatch
from repro.imsc.engine import InMemorySCEngine
from repro.imsc.stob import InMemoryStoB
from repro.reram.trng import ReRamTrng

now = time.perf_counter

# The originals, captured at import — before the parent patches the
# module attributes, and freshly in every spawned/forkserver worker.
_ORIG_RUN_TILE = executor._run_tile
_ORIG_SNG_CHUNK = accuracy._sng_mse_chunk
_ORIG_OP_CHUNK = accuracy._op_mse_chunk

#: Engine methods timed as one "op" each (the Table II rows plus the
#: MAJ/MUX primitives the filters compose).
ENGINE_OPS = ("multiply", "scaled_add", "approx_add", "abs_subtract",
              "minimum", "maximum", "divide", "divide_jk", "maj", "mux")
ENGINE_GENERATE = ("generate", "generate_correlated", "generate_pair")


class Recorder:
    """Per-process span store with a per-thread stack of open spans.

    Process-wide by necessity: worker-side hooks are reached through
    functions the pool pickles by reference, which cannot carry an
    object.  Only the traced run installs hooks that write to it.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: ``StreamBatch.flip_at`` calls so far (a count, not spans: the
        #: sparse fault path makes dozens per tile).
        self.flip_at = 0
        self._ids = itertools.count(1)
        self._tls = threading.local()

    # -- context: the open-span stack and the current request id -------
    def _stack(self) -> list:
        st = getattr(self._tls, "stack", None)
        if st is None:
            st = self._tls.stack = []
        return st

    @property
    def rid(self) -> Optional[str]:
        return getattr(self._tls, "rid", None)

    @rid.setter
    def rid(self, value: Optional[str]) -> None:
        self._tls.rid = value

    @property
    def dispatch_rid(self) -> Optional[str]:
        """The request whose tile this thread is about to submit."""
        return getattr(self._tls, "dispatch", None)

    @dispatch_rid.setter
    def dispatch_rid(self, value: Optional[str]) -> None:
        self._tls.dispatch = value

    def reset(self) -> None:
        """Drop every span and open frame (a worker starting a task)."""
        self.spans = []
        self._tls.stack = []

    # -- recording -------------------------------------------------------
    def new_id(self) -> int:
        return next(self._ids)

    def add(self, name: str, start: float, end: float,
            rid: Optional[str] = None, parent: Optional[int] = None,
            attrs: Optional[dict] = None, sid: Optional[int] = None) -> list:
        stack = self._stack()
        span = [sid if sid is not None else self.new_id(), name, start, end,
                parent if parent is not None else
                (stack[-1][0] if stack else None),
                rid if rid is not None else self.rid, attrs]
        self.spans.append(span)
        return span

    def open(self, name: str) -> tuple:
        """Push a frame; its span is recorded by :meth:`close`."""
        sid = self.new_id()
        self._stack().append((sid, name))
        return sid, name, now()

    def close(self, frame: tuple, attrs: Optional[dict] = None) -> list:
        sid, name, start = frame
        end = now()
        stack = self._stack()
        stack.pop()
        span = [sid, name, start, end, stack[-1][0] if stack else None,
                self.rid, attrs]
        self.spans.append(span)
        return span

    def call(self, name: str, fn: Callable, args, kwargs,
             attrs: Optional[dict] = None):
        """Run ``fn`` inside a span; a same-named enclosing span absorbs it."""
        stack = self._stack()
        if stack and stack[-1][1] == name:
            return fn(*args, **kwargs)
        frame = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(frame, attrs)


REC = Recorder()
_PARENT_PID: Optional[int] = None
_WORKER_HOOKS = False


def _wrap(owner: Any, attr: str, name: str) -> None:
    """Replace ``owner.attr`` by a wrapper recording a ``name`` span."""
    orig = getattr(owner, attr)

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        return REC.call(name, orig, args, kwargs)

    setattr(owner, attr, wrapper)


def _wrap_with_rid(owner: Any, attr: str, name: str,
                   rid_of: Callable) -> None:
    """Like :func:`_wrap`, tagging the span with ``rid_of(*args)``."""
    orig = getattr(owner, attr)

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        prev = REC.rid
        REC.rid = rid_of(*args)
        try:
            return REC.call(name, orig, args, kwargs)
        finally:
            REC.rid = prev

    setattr(owner, attr, wrapper)


def _kernel(kernel: str, orig: Callable) -> Callable:
    """Kernel wrapper; a faulty engine gets its own span name."""
    @functools.wraps(orig)
    def wrapper(engine, *args, **kwargs):
        faulty = getattr(engine, "fault_rates", None) is not None
        name = f"apps.kernel.{kernel}" + ("_faulty" if faulty else "")
        return REC.call(name, orig, (engine,) + args, kwargs)
    return wrapper


def _flip_at_counted(orig: Callable) -> Callable:
    @functools.wraps(orig)
    def flip_at(self, flat_sites):
        REC.flip_at += 1
        return orig(self, flat_sites)
    return flip_at


def _convert_counted(orig: Callable) -> Callable:
    @functools.wraps(orig)
    def convert(self, stream):
        start = now()
        out = orig(self, stream)
        REC.add("imsc.stob.convert", start, now(),
                attrs={"values": int(np.size(out))})
        return out
    return convert


def install_worker_hooks() -> None:
    """Wrap the layers a worker task runs through (idempotent)."""
    global _WORKER_HOOKS
    if _WORKER_HOOKS:
        return
    _WORKER_HOOKS = True
    from repro.serve import transport
    _wrap(transport, "fetch_tile", "serve.transport.fetch_tile")
    _wrap(InMemorySCEngine, "__init__", "imsc.engine.construct")
    for attr in ENGINE_GENERATE:
        _wrap(InMemorySCEngine, attr, "imsc.engine.generate")
    for attr in ENGINE_OPS:
        _wrap(InMemorySCEngine, attr, "imsc.engine.op")
    _wrap(InMemorySCEngine, "to_binary", "imsc.engine.to_binary")
    InMemoryStoB.convert = _convert_counted(InMemoryStoB.convert)
    StreamBatch.flip_at = _flip_at_counted(StreamBatch.flip_at)
    _wrap(ReRamTrng, "random_bits", "reram.trng.random_bits")
    for kernel, fn in list(executor.KERNELS.items()):
        executor.KERNELS[kernel] = _kernel(kernel, fn)


def _in_worker() -> bool:
    return os.getpid() != _PARENT_PID


def _run_task(name: str, fn: Callable, task, attrs: dict):
    """Run one pool task in a top-level span; in a worker, return its spans.

    The span's ``flip_at`` attribute counts the task's
    ``StreamBatch.flip_at`` calls.
    """
    install_worker_hooks()
    worker = _in_worker()
    if worker:
        REC.reset()
    flips = REC.flip_at
    attrs["flip_at"] = 0
    try:
        out = REC.call(name, fn, (task,), {}, attrs)
    finally:
        attrs["flip_at"] = REC.flip_at - flips
    return out, (REC.spans if worker else None)


class TracedTuple(tuple):
    """A tile result ``(image, ledger)`` carrying the worker's spans."""

    def __new__(cls, items, spans):
        obj = super().__new__(cls, items)
        obj.spans = spans
        return obj

    def __reduce__(self):
        return (TracedTuple, (tuple(self), self.spans))


class TracedFloat(float):
    """A Monte-Carlo chunk's squared-error sum carrying the worker's spans."""

    def __new__(cls, value, spans):
        obj = super().__new__(cls, value)
        obj.spans = spans
        return obj

    def __reduce__(self):
        return (TracedFloat, (float(self), self.spans))


def traced_run_tile(task):
    """:func:`repro.apps.executor._run_tile` inside a ``worker.tile`` span."""
    backend, kernel, _, _, engine_kwargs, _, _ = task
    attrs = {"kernel": kernel, "backend": backend,
             "faulty": engine_kwargs.get("fault_rates") is not None}
    out, spans = _run_task("worker.tile", _ORIG_RUN_TILE, task, attrs)
    return out if spans is None else TracedTuple(out, spans)


def traced_sng_chunk(task):
    out, spans = _run_task("worker.sng_chunk", _ORIG_SNG_CHUNK, task, {})
    return out if spans is None else TracedFloat(out, spans)


def traced_op_chunk(task):
    out, spans = _run_task("worker.op_chunk", _ORIG_OP_CHUNK, task, {})
    return out if spans is None else TracedFloat(out, spans)


TRACED_TASKS = {"traced_run_tile", "traced_sng_chunk", "traced_op_chunk"}


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
class Tracer:
    """Installs the parent-side wrappers and owns the harvested spans."""

    enabled = True

    def __init__(self) -> None:
        self.phase_name = "setup"
        self._plan_spans: Dict[int, list] = {}
        self._plan_rid: Dict[int, str] = {}

    # -- API the workloads call (NullTracer mirrors it) -------------------
    def set_rid(self, rid: Optional[str]) -> None:
        REC.rid = rid

    def phase(self, name: str) -> "_Phase":
        return _Phase(self, name)

    def add(self, name: str, start: float, end: float,
            rid: Optional[str] = None, attrs: Optional[dict] = None) -> None:
        REC.add(name, start, end, rid=rid, attrs=attrs)

    def spans(self) -> List[list]:
        return REC.spans

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        keys = ("id", "name", "start", "end", "parent", "rid", "attrs")
        with open(path, "w") as fh:
            for span in self._linked():
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def _linked(self) -> List[list]:
        """Spans with parent-side orphans parented to their request span."""
        req = {s[5]: s[0] for s in REC.spans if s[1] == "request"}
        for s in REC.spans:
            if s[4] is None and s[1] != "request" and s[5] in req:
                s[4] = req[s[5]]
        return REC.spans

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        global _PARENT_PID
        _PARENT_PID = os.getpid()
        install_worker_hooks()     # tiles the parent runs in-process
        from repro.analysis import experiments
        from repro.serve import client, pool, scheduler, service, transport

        executor._run_tile = traced_run_tile
        accuracy._sng_mse_chunk = traced_sng_chunk
        accuracy._op_mse_chunk = traced_op_chunk

        _wrap(client.ServingClient, "submit", "serve.client.submit")
        _wrap_with_rid(service, "decode_request", "serve.service.decode",
                       lambda raw: self._rid(raw.get("id")))
        _wrap_with_rid(service, "encode_response", "serve.service.encode",
                       lambda req_id, *a: self._rid(req_id))
        _wrap(transport.SceneStore, "publish", "serve.transport.publish")
        _wrap(experiments, "sng_mse", "core.accuracy.sng_mse")
        _wrap(experiments, "op_mse", "core.accuracy.op_mse")
        self._wrap_plan_and_stitch()
        self._wrap_take(scheduler.ServeRequest)
        self._wrap_pool_submit(pool.WorkerPool)

    def _rid(self, req_id) -> str:
        """Request ids are ``<phase>:<index>``; a scheduler numbers its
        requests in admission order, which is the order the workload
        submits them in."""
        return f"{self.phase_name}:{req_id}"

    def _wrap_plan_and_stitch(self) -> None:
        build, stitch = executor.build_tile_tasks, executor.stitch_tiles

        @functools.wraps(build)
        def build_tile_tasks(*args, **kwargs):
            frame = REC.open("apps.executor.plan")
            try:
                plan = build(*args, **kwargs)
            finally:
                span = REC.close(frame)
            span[6] = {"kernel": plan.kernel, "tiles": len(plan.tasks)}
            if span[5] is None:     # served: the scheduler names it later
                self._plan_spans[id(plan)] = span
            return plan

        @functools.wraps(stitch)
        def stitch_tiles(plan, results):
            rid = self._plan_rid.pop(id(plan), None)
            start = now()
            out = stitch(plan, results)
            REC.add("apps.executor.stitch", start, now(), rid=rid)
            return out

        executor.build_tile_tasks = build_tile_tasks
        executor.stitch_tiles = stitch_tiles

    def _wrap_take(self, cls) -> None:
        take = cls.take
        tracer = self

        @functools.wraps(take)
        def traced_take(self):
            idx, task = take(self)
            rid = tracer._rid(self.id)
            REC.dispatch_rid = rid
            if idx == 0:
                REC.add("serve.scheduler.queue_wait", self.t_admit, now(),
                        rid=rid)
                span = tracer._plan_spans.pop(id(self.plan), None)
                if span is not None:
                    span[5] = rid
                tracer._plan_rid[id(self.plan)] = rid
            return idx, task

        cls.take = traced_take

    def _wrap_pool_submit(self, cls) -> None:
        submit = cls.submit

        @functools.wraps(submit)
        def traced_submit(pool, fn, task):
            rid = REC.dispatch_rid or REC.rid
            REC.dispatch_rid = None
            fn_name = getattr(fn, "__name__", "")
            start = now()
            fut = submit(pool, fn, task)
            REC.add("serve.pool.submit", start, now(), rid=rid,
                    attrs={"fn": fn_name})
            if fn_name in TRACED_TASKS:
                rt_id = REC.new_id()
                fut.add_done_callback(functools.partial(
                    _harvest, start, rid, rt_id, pool.capacity))
            return fut

        cls.submit = traced_submit


def _harvest(start: float, rid: Optional[str], rt_id: int, capacity: int,
             fut) -> None:
    """Done-callback: record the round trip and adopt the worker's spans."""
    end = now()
    worker_s = None
    if not fut.cancelled() and fut.exception() is None:
        res = fut.result()
        spans = getattr(res, "spans", None)
        if spans:
            remap = {s[0]: REC.new_id() for s in spans}
            for s in spans:
                REC.spans.append([remap[s[0]], s[1], s[2], s[3],
                                  remap.get(s[4], rt_id), rid, s[6]])
            top = [s for s in spans if s[4] is None]
            worker_s = sum(s[3] - s[2] for s in top)
            res.spans = None
    REC.add("serve.pool.roundtrip", start, end, rid=rid, sid=rt_id,
            parent=None, attrs={"worker_s": worker_s,
                                "capacity": capacity})


class _Phase:
    def __init__(self, tracer, name: str) -> None:
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.prev = self.tracer.phase_name
        self.tracer.phase_name = self.name
        self.start = now()
        return self

    def __exit__(self, *exc) -> None:
        if self.tracer.enabled:
            REC.add("phase", self.start, now(), attrs={"phase": self.name})
        self.tracer.phase_name = self.prev


class NullTracer(Tracer):
    """The untraced run: the same API for the workloads, records nothing."""

    enabled = False

    def set_rid(self, rid: Optional[str]) -> None:
        pass

    def add(self, *args, **kwargs) -> None:
        pass

    def spans(self) -> List[list]:
        return []
