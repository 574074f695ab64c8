"""The three perfbench workloads: inputs from a seed, timed phases, checks.

Every workload reports every end-to-end metric (see ``run.py`` for what
each one means on each workload).  Inputs derive from the workload seed
alone; the program only ever sees the generated inputs.

* ``serve_mixed`` — loadgen's mixed trace (four kernel/backend/fault
  templates over 8 px and 16 px scenes, N=32, tile=4, eight request seeds
  cycled).  ~7 tiles per request at 0.5–7 ms each, so per-task pool IPC
  and the scheduler dominate; the scene cache is hit on almost every
  request.
* ``serve_bigscene`` — the same four templates at N=128, tile=32, on a
  unique seed-derived 64x64 scene per request: dispatch is a few percent
  of each 2–42 ms tile, and every request publishes a new scene (the scene
  store's write/evict/unlink path instead of its hit path).
* ``paper_tables`` — one fixed sweep of the paper-reproduction path
  (Table I, Table II at the paper's lengths with reduced sample counts, a
  small Table IV grid): few, large Monte-Carlo tasks, and the only
  workload that runs the accuracy harness, SNGs, RNGs, the ReRAM TRNG,
  the application pipeline and the binary-CIM baseline.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import os
import queue
import resource
import statistics
import threading
import time
from typing import Any, Dict, List, Optional

import numpy as np

import loadgen
from repro.analysis import experiments
from repro.apps.executor import run_tiled
from repro.apps.filters import (
    contrast_stretch_inputs,
    gamma_correct_inputs,
    mean_filter_inputs,
)
from repro.apps.images import natural_scene
from repro.config import RunConfig
from repro.core.backend import use_backend
from repro.serve import ServingClient
from repro.serve.service import serve_stdio

now = time.perf_counter

JOBS = 2
INPUTS = {"gamma_correct": gamma_correct_inputs,
          "mean_filter": mean_filter_inputs,
          "contrast_stretch": contrast_stretch_inputs}
def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def descendants() -> List[int]:
    """PIDs of this process's live descendants (pool workers are the
    forkserver's children, not ours)."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                # "pid (comm) state ppid ...": comm may hold spaces
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(entry))
    out, todo = [], [os.getpid()]
    while todo:
        kids = children.get(todo.pop(), [])
        out += kids
        todo += kids
    return out


def worker_hwm_mb() -> float:
    """Largest peak RSS (VmHWM) among the live descendants, in MB."""
    peak = 0.0
    for pid in descendants():
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]) / 1024.0)
        except OSError:
            continue
    return peak


def parent_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_times() -> List[int]:
    """The host's aggregate CPU time counters (``/proc/stat``)."""
    with open("/proc/stat") as fh:
        return [int(v) for v in fh.readline().split()[1:]]


def steal_share(before: List[int], after: List[int]) -> float:
    """Share of host CPU time the hypervisor gave to other guests."""
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def children_rss_mb() -> float:
    """Largest peak RSS among reaped child processes (fork pools)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# requests
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Request:
    template: dict
    seed: int
    key: Any            # reference-cache key: equal keys, equal outputs

    def send(self, client: ServingClient):
        t = self.template
        return client.submit(t["kernel"], t["inputs"], t["length"],
                             tile=t["tile"], seed=self.seed,
                             engine_kwargs=t["engine_kwargs"],
                             kernel_kwargs=t["kernel_kwargs"],
                             backend=t["backend"])

    def run_inproc(self):
        t = self.template
        with use_backend(t["backend"]):
            return run_tiled(t["kernel"], t["inputs"], t["length"],
                             tile=t["tile"], jobs=1, seed=self.seed,
                             engine_kwargs=t["engine_kwargs"],
                             kernel_kwargs=t["kernel_kwargs"])

    def json_line(self, req_id: int) -> str:
        t = self.template
        return json.dumps({
            "id": req_id, "kernel": t["kernel"],
            "inputs": {k: v.tolist() for k, v in t["inputs"].items()},
            "length": t["length"], "tile": t["tile"], "seed": self.seed,
            "engine_kwargs": {k: (dataclasses.asdict(v)
                                  if dataclasses.is_dataclass(v) else v)
                              for k, v in t["engine_kwargs"].items()},
            "kernel_kwargs": t["kernel_kwargs"],
            "backend": t["backend"]}) + "\n"


def seeded_templates(seed: int, small: int, big: int, length: int,
                     tile: int) -> List[dict]:
    """loadgen's four templates with their scenes drawn from ``seed``."""
    templates = loadgen.build_templates(small, big, length, tile)
    rng = np.random.default_rng([seed, 0])
    scenes = {"small": natural_scene(small, small, rng),
              "big": natural_scene(big, big, rng)}
    for t in templates:
        # loadgen names each template "<small|big>_<kernel>_<backend>"
        t["inputs"] = INPUTS[t["kernel"]](scenes[t["name"].split("_")[0]])
    return templates


class Outcome:
    """Counts attempted / failed (error or mismatch) requests and cells."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def check(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(what)


def same(image, ledger_energy, ledger_latency, ref) -> bool:
    ref_img, ref_ledger = ref
    return (np.array_equal(np.asarray(image, dtype=np.float64), ref_img)
            and ledger_energy == ref_ledger.energy_j
            and ledger_latency == ref_ledger.latency_s)


# ----------------------------------------------------------------------
# paced stdio front-end
# ----------------------------------------------------------------------
class PacedFeed(io.TextIOBase):
    """stdin for a long-running ``serve_stdio``, fed one segment at a time.

    ``readline`` blocks until the next queued line is due, so the server
    idles between segments and each segment is an open loop: line ``i`` of
    a segment is due at ``t0 + i / rate`` whether or not earlier requests
    have finished.
    """

    def __init__(self) -> None:
        self._queue: "queue.Queue" = queue.Queue()
        self.sent: Dict[int, float] = {}

    def push(self, lines: List[tuple], rate: float) -> Dict[int, float]:
        """Queue ``(id, line)`` pairs; returns each id's due time."""
        t0 = now()
        due = {}
        for i, (req_id, line) in enumerate(lines):
            due[req_id] = t0 + i / rate
            self._queue.put((req_id, line, due[req_id]))
        return due

    def close(self) -> None:
        self._queue.put(None)

    def readline(self) -> str:   # serve_stdio's reader thread
        item = self._queue.get()
        if item is None:
            return ""
        req_id, line, due = item
        delay = due - now()
        if delay > 0:
            time.sleep(delay)
        self.sent[req_id] = now()
        return line


class StampedWriter(io.TextIOBase):
    """stdout for ``serve_stdio``: each raw response line and its time.

    Parsing waits until the segment ends, so it never delays a response.
    """

    def __init__(self) -> None:
        self.lines: Dict[int, tuple] = {}
        self._cond = threading.Condition()

    def write(self, s: str) -> int:
        if s.strip():
            t = now()
            # ids are ints written first: {"id": <n>, ...}
            req_id = int(s[7:s.index(",")])
            with self._cond:
                self.lines[req_id] = (s, t)
                self._cond.notify_all()
        return len(s)

    def flush(self) -> None:
        pass

    def wait_for(self, ids, timeout: float) -> None:
        with self._cond:
            if not self._cond.wait_for(
                    lambda: all(i in self.lines for i in ids), timeout):
                raise TimeoutError("stdio responses missing")


class StdioServer:
    """``serve_stdio`` on a background thread, fed by a :class:`PacedFeed`."""

    def __init__(self) -> None:
        self.feed = PacedFeed()
        self.writer = StampedWriter()
        self.error: Optional[BaseException] = None
        self.next_id = 0
        self._thread = threading.Thread(target=self._serve,
                                        name="perfbench-stdio")
        self._thread.start()

    def _serve(self) -> None:
        try:
            serve_stdio(self.feed, self.writer, jobs=JOBS, transport="shm")
        except BaseException as exc:   # re-raised by close()
            self.error = exc

    def run(self, reqs: List[Request], rate: float) -> List[tuple]:
        """One paced segment; ``(id, request, due, sent, done, response)``."""
        ids = list(range(self.next_id, self.next_id + len(reqs)))
        self.next_id += len(reqs)
        due = self.feed.push([(i, r.json_line(i)) for i, r in zip(ids, reqs)],
                             rate)
        self.writer.wait_for(ids, timeout=120)
        out = []
        for i, req in zip(ids, reqs):
            raw, t = self.writer.lines.pop(i)
            out.append((i, req, due[i], self.feed.sent.pop(i), t,
                        json.loads(raw)))
        return out

    def close(self) -> None:
        self.feed.close()
        self._thread.join(timeout=120)
        if self.error is not None:
            raise self.error


# ----------------------------------------------------------------------
# serving workloads
# ----------------------------------------------------------------------
@dataclasses.dataclass
class ServeSpec:
    size_small: int
    size_big: int
    length: int
    tile: int
    burst: int            # requests per burst
    paced_rate: float     # req/s of the open-loop stdio segments
    paced: int            # requests per paced segment
    replay: int           # in-process requests per round (0: the checks)
    unique_scenes: bool   # a new scene per request (no cache hits)
    check_stride: int     # check every n-th response (1: all); coprime
                          # with the 4 templates, so each is checked alike


SERVE_SPECS = {
    "serve_mixed": ServeSpec(8, 16, 32, 4, burst=96,
                             paced_rate=12.0, paced=40, replay=48,
                             unique_scenes=False, check_stride=1),
    "serve_bigscene": ServeSpec(64, 64, 128, 32,
                                burst=24, paced_rate=4.0, paced=18,
                                replay=0, unique_scenes=True,
                                check_stride=3),
}
WARM = 4


class ServeWorkload:
    """Rounds of: a burst through ``ServingClient``, a paced segment
    through ``serve_stdio``, a second burst, and in-process
    ``run_tiled(jobs=1)``.

    Interleaving the phases spreads each one's samples over the whole
    run, so a slow spell of the host does not land on one phase only.
    Every response is checked (``serve_bigscene``: every
    ``check_stride``-th, against in-process references computed after
    the round, which are the round's floor measurement).
    """

    def __init__(self, spec: ServeSpec, seed: int) -> None:
        self.spec = spec
        self.seed = seed
        self.client = self.server = None

    # -- inputs ----------------------------------------------------------
    def requests(self, start: int, count: int) -> List[Request]:
        """Requests ``start .. start+count-1`` of the seed's stream."""
        s = self.spec
        out = []
        for i in range(start, start + count):
            if s.unique_scenes:
                t = dict(self.base[i % len(self.base)])
                scene = natural_scene(s.size_small, s.size_small,
                                      np.random.default_rng([self.seed, 1, i]))
                t["inputs"] = INPUTS[t["kernel"]](scene)
                seed = int(np.random.SeedSequence([self.seed, 2, i])
                           .generate_state(1)[0])
                out.append(Request(t, seed, ("unique", i)))
            else:
                tidx, j = self.trace[i % len(self.trace)]
                seed = self.req_seeds[j]
                out.append(Request(self.base[tidx], seed, (tidx, seed)))
        return out

    def setup(self) -> None:
        """Inputs, references, both front-ends booted and warmed."""
        s = self.spec
        self.base = seeded_templates(self.seed, s.size_small, s.size_big,
                                     s.length, s.tile)
        self.req_seeds = [int(v) for v in np.random.SeedSequence(
            [self.seed, 3]).generate_state(loadgen.SEED_CYCLE)]
        # build_trace yields (i % templates, i % SEED_CYCLE): one period
        # holds every distinct (template, seed) key once
        self.trace = loadgen.build_trace(
            math.lcm(len(self.base), loadgen.SEED_CYCLE), self.base)
        self.refs: Dict[Any, tuple] = {}
        if not s.unique_scenes:
            for req in self.requests(0, len(self.trace)):
                self.refs[req.key] = req.run_inproc()
        self.client = ServingClient(jobs=JOBS, transport="shm")
        warm = self.requests(0, WARM)
        for fut in [r.send(self.client) for r in warm]:
            fut.result(timeout=120)
        #: requests admitted so far: a scheduler numbers its requests in
        #: admission order, and span request ids follow it
        self.admitted = WARM
        self.server = StdioServer()
        self.server.run(warm, rate=1e3)
        self.next_request = WARM

    def close(self) -> None:
        try:
            if self.client is not None:
                self.client.close()
        finally:
            if self.server is not None:
                self.server.close()

    def _take(self, count: int) -> List[Request]:
        reqs = self.requests(self.next_request, count)
        self.next_request += count
        return reqs

    # -- phases ----------------------------------------------------------
    def _burst(self, tracer, out: Outcome, to_check: list) -> float:
        """One burst; returns its wall time (first submit to last done)."""
        reqs = self._take(self.spec.burst)
        records = []
        with tracer.phase("burst"):
            t0 = now()
            for req in reqs:
                rec = {"req": req, "rid": f"burst:{self.admitted}"}
                self.admitted += 1
                tracer.set_rid(rec["rid"])
                rec["t_submit"] = now()
                rec["future"] = req.send(self.client)
                rec["future"].add_done_callback(
                    lambda f, rec=rec: rec.__setitem__("t_done", now()))
                records.append(rec)
            tracer.set_rid(None)
            for rec in records:
                try:
                    rec["result"] = rec.pop("future").result(timeout=120)
                except Exception as exc:   # counted as failed
                    rec["error"] = repr(exc)
            wall = max(r.get("t_done", t0) for r in records) - t0
        for rec in records:
            tracer.add("request", rec["t_submit"], rec.get("t_done", now()),
                       rid=rec["rid"])
            if "error" in rec:
                out.check(f"{rec['rid']}: {rec['error']}", False)
                continue
            image, ledger = rec["result"]
            self.ledgers.append(ledger)
            to_check.append((rec["rid"], rec["req"], image,
                             ledger.energy_j, ledger.latency_s))
        return wall

    def _paced(self, tracer, out: Outcome, to_check: list) -> None:
        s = self.spec
        with tracer.phase("paced"):
            done = self.server.run(self._take(s.paced), s.paced_rate)
        self.paced_spans.append((done[0][2], max(d[4] for d in done)))
        for i, req, due, sent, t, resp in done:
            self.latency.setdefault(req.template["name"], []).append(t - due)
            rid = f"paced:{i}"
            self.lateness.append(sent - due)
            tracer.add("request", due, t, rid=rid,
                       attrs={"measured": True})
            if not resp.get("ok"):
                out.check(f"{rid}: {resp.get('error')}", False)
            else:
                to_check.append((rid, req, resp["output"],
                                 resp["energy_j"], resp["latency_s"]))

    def _floor(self, tracer, out: Outcome, to_check: list) -> float:
        """In-process requests; returns this round's requests per second
        and records each request's time under its template.

        serve_mixed replays its trace; serve_bigscene computes the
        references of this round's checked responses.
        """
        s = self.spec
        n, wall = 0, 0.0
        with tracer.phase("replay"):
            if s.unique_scenes:
                reqs = [c[1] for c in to_check[::s.check_stride]]
            else:
                reqs = self.requests(self.replayed, s.replay)
                self.replayed += s.replay
            for req in reqs:
                rid = f"replay:{self.n_floor}"
                self.n_floor += 1
                tracer.set_rid(rid)
                t0 = now()
                image, ledger = req.run_inproc()
                t1 = now()
                tracer.add("request", t0, t1, rid=rid)
                self.floor_times.setdefault(req.template["name"],
                                            []).append(t1 - t0)
                wall += t1 - t0
                n += 1
                if s.unique_scenes:
                    self.refs[req.key] = (image, ledger)
                else:
                    out.check(rid, same(image, ledger.energy_j,
                                        ledger.latency_s, self.refs[req.key]))
            tracer.set_rid(None)
        for k, (what, req, image, energy, latency) in enumerate(to_check):
            if k % s.check_stride:
                out.check(what, True)   # served fine; not compared
            else:
                out.check(what, same(image, energy, latency,
                                     self.refs.pop(req.key)
                                     if s.unique_scenes
                                     else self.refs[req.key]))
        return n / wall

    def measure(self, seconds: float, tracer) -> dict:
        s = self.spec
        out = Outcome()
        #: paced latencies by request template
        self.latency: Dict[str, List[float]] = {}
        self.lateness, self.paced_spans = [], []
        self.ledgers: list = []
        self.replayed = self.n_floor = 0
        #: in-process request times by request template
        self.floor_times: Dict[str, List[float]] = {}
        walls, floors = [], []
        t_start = now()
        # whole rounds only, and none that would overrun the run
        while len(floors) < 3 or \
                now() + (now() - t_start) / len(floors) < t_start + seconds:
            to_check: list = []
            walls.append(self._burst(tracer, out, to_check))
            self._paced(tracer, out, to_check)
            walls.append(self._burst(tracer, out, to_check))
            floors.append(self._floor(tracer, out, to_check))
        stats = self.client.stats()
        # both pools: ServingClient's and the stdio server's
        worker_rss = worker_hwm_mb()
        served = statistics.median(s.burst / w for w in walls)
        # requests/s of the four templates in equal parts, each at its
        # median in-process time over the whole run: a round holds only a
        # few requests of each template, so a median of round rates moves
        # with every slow spell of the host
        floor = len(self.floor_times) / sum(
            statistics.median(v) for v in self.floor_times.values())
        pooled = sum(self.latency.values(), [])
        lat = {q: percentile(pooled, q) * 1e3 for q in (50, 90, 99)}
        # The four templates' latencies form four separate clusters, and
        # the pooled median falls in the gap between the two fast and the
        # two slow ones, where it reads only the gap's edges.  The mean of
        # the templates' medians moves with every template instead.
        p50 = statistics.mean(percentile(v, 50)
                              for v in self.latency.values()) * 1e3
        n_paced = len(pooled)
        paced_time = sum(b - a for a, b in self.paced_spans)
        return {
            "outcome": out,
            "metrics": {
                "served_rps": served,
                "floor_rps": floor,
                "latency_p50_ms": p50,
                "latency_p90_ms": lat[90],
                "sweep_s": statistics.median(walls),
                "peak_rss_mb": parent_rss_mb() + worker_rss,
            },
            "detail": {
                "rounds": len(floors), "burst_size": s.burst,
                "burst_rps": [s.burst / w for w in walls],
                "floor_rps": floors,
                "template_floor_ms": {k: statistics.median(v) * 1e3
                                      for k, v in self.floor_times.items()},
                "paced_requests": n_paced,
                "offered_rps": s.paced_rate,
                "achieved_rps": n_paced / paced_time,
                "lateness_p99_ms": percentile(self.lateness, 99) * 1e3,
                "latency_ms": {f"p{q}": v for q, v in lat.items()},
                "template_p50_ms": {k: percentile(v, 50) * 1e3
                                    for k, v in self.latency.items()},
                "served_efficiency": served / floor,
                "parent_rss_mb": parent_rss_mb(),
                "worker_rss_mb": worker_rss,
                "energy_j_per_request": float(np.mean(
                    [lg.energy_j for lg in self.ledgers])),
                "latency_s_per_request": float(np.mean(
                    [lg.latency_s for lg in self.ledgers])),
                "scheduler": stats,
                "run_config": stats["config"],
            },
        }


# ----------------------------------------------------------------------
# paper tables
# ----------------------------------------------------------------------
#: The fixed sweep: every Table I row, Table II's 7 ops x 4 sources at the
#: paper's lengths (sample counts cut so a pass takes seconds), and a
#: small Table IV grid.  One chunk per cell: the tasks are few and large.
TABLE1 = dict(samples=2048)
TABLE2 = dict(samples=512)
TABLE4 = dict(lengths=(32, 64), runs=1, size=16, tile=8)
#: Stored references cover this many table seeds (``--write-refs``);
#: the workload seed modulo this picks one of them.
TABLE_SEEDS = 16


class LedgerTap:
    """Collects the ``EnergyLedger`` of every Table IV ``run_app`` call.
    Create one per process: it wraps that name in
    :mod:`repro.analysis.experiments`."""

    def __init__(self) -> None:
        self.ledgers: List[Any] = []
        run_app = experiments.run_app

        def tapped(*args, **kwargs):
            res = run_app(*args, **kwargs)
            self.ledgers.append(res.ledger)
            return res
        tapped.__wrapped__ = run_app
        experiments.run_app = tapped


def table_sweep(seed: int, jobs: int, tracer) -> tuple:
    """One pass; returns ``(cells, {table: seconds})``."""
    times = {}
    t0 = now()
    t1 = experiments.table1_sng_mse(seed=seed, jobs=jobs, **TABLE1)
    times["table1"] = now() - t0
    tracer.add("analysis.experiments.table1", t0, t0 + times["table1"])
    t0 = now()
    t2 = experiments.table2_ops_mse(seed=seed, jobs=jobs, **TABLE2)
    times["table2"] = now() - t0
    tracer.add("analysis.experiments.table2", t0, t0 + times["table2"])
    t0 = now()
    t4 = experiments.table4_quality(seed=seed, jobs=jobs, **TABLE4)
    times["table4"] = now() - t0
    tracer.add("analysis.experiments.table4", t0, t0 + times["table4"])
    cells = {}
    for row, by_n in t1.items():
        for n, v in by_n.items():
            cells[f"t1|{row}|{n}"] = v
    for op, by_src in t2.items():
        for src, by_n in by_src.items():
            for n, v in by_n.items():
                cells[f"t2|{op}|{src}|{n}"] = v
    for row, by_app in t4.items():
        for app, (ssim, psnr) in by_app.items():
            cells[f"t4|{row}|{app}|ssim"] = ssim
            cells[f"t4|{row}|{app}|psnr"] = psnr
    return cells, times


class TablesWorkload:
    """The table sweep, alternating harness-pool (``jobs=2``) and
    in-process (``jobs=1``) passes; every cell is checked against the
    stored reference of its table seed."""

    def __init__(self, seed: int, refs_path, tap: LedgerTap) -> None:
        self.seed = seed
        self.table_seed = seed % TABLE_SEEDS
        self.refs_path = refs_path
        self.tap = tap

    def setup(self) -> None:
        """Stored references, then a one-cell sweep that boots a pool."""
        with open(self.refs_path) as fh:
            self.refs = json.load(fh)[str(self.table_seed)]
        experiments.table1_sng_mse(lengths=(32,), segment_sizes=(8,),
                                   samples=256, seed=self.table_seed,
                                   jobs=JOBS)

    def close(self) -> None:
        pass

    def measure(self, seconds: float, tracer) -> dict:
        out = Outcome()
        pool_walls, inproc_walls = [], []
        per_table: Dict[str, List[float]] = {}
        t_start = now()
        self.tap.ledgers.clear()
        # whole pool/in-process pairs, and none that would overrun the run
        while not pool_walls or \
                now() + (now() - t_start) / len(pool_walls) < t_start + seconds:
            for jobs, walls in ((JOBS, pool_walls), (1, inproc_walls)):
                phase = "pool_sweep" if jobs > 1 else "inproc_sweep"
                t0 = now()
                with tracer.phase(phase):
                    cells, times = table_sweep(self.table_seed, jobs,
                                               tracer)
                walls.append(now() - t0)
                if jobs > 1:
                    for k, v in times.items():
                        per_table.setdefault(k, []).append(v)
                for key, ref in self.refs.items():
                    out.check(f"{phase} {key}", cells.get(key) == ref)
                if set(cells) != set(self.refs):
                    out.check(f"{phase} cell set", False)
        n_cells = len(self.refs)
        served = statistics.median(n_cells / w for w in pool_walls)
        floor = statistics.median(n_cells / w for w in inproc_walls)
        ledgers = self.tap.ledgers
        table_lat = sum(per_table.values(), [])
        return {
            "outcome": out,
            "metrics": {
                "served_rps": served,
                "floor_rps": floor,
                "latency_p50_ms": percentile(table_lat, 50) * 1e3,
                "latency_p90_ms": percentile(table_lat, 90) * 1e3,
                "sweep_s": statistics.median(pool_walls),
                "peak_rss_mb": parent_rss_mb() + children_rss_mb(),
            },
            "detail": {
                "table_seed": self.table_seed, "cells": n_cells,
                "pool_passes": len(pool_walls),
                "inproc_passes": len(inproc_walls),
                "served_efficiency": served / floor,
                "table_s": {k: statistics.median(v)
                            for k, v in per_table.items()},
                "parent_rss_mb": parent_rss_mb(),
                "worker_rss_mb": children_rss_mb(),
                "energy_j_per_request": float(np.mean(
                    [lg.energy_j for lg in ledgers])),
                "latency_s_per_request": float(np.mean(
                    [lg.latency_s for lg in ledgers])),
                "run_config": RunConfig.default().replace(
                    jobs=JOBS, tile=TABLE4["tile"]).to_dict(),
            },
        }


def write_table_refs(path) -> None:
    """Compute the in-process sweep for every table seed."""
    from bench_trace import NullTracer
    refs = {}
    for s in range(TABLE_SEEDS):
        refs[str(s)], _ = table_sweep(s, 1, NullTracer())
        print(f"table seed {s}: {len(refs[str(s)])} cells", flush=True)
    with open(path, "w") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")
