"""Per-layer metrics of the traced run, folded from its spans.

Every name here is listed under ``per_layer`` in ``BENCHMARK.json`` and
each one is reported on every workload; a layer the workload does not run
reads 0.  A ``*_ms`` metric is the mean duration of one call of that
layer's wrapped function.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

import numpy as np


#: Parent-side spans that account for a request's time (plus the stdio
#: front-end's decode/encode); what they leave uncovered is waiting the
#: trace does not explain, mostly round-robin turns between tiles.
COVERING = ("serve.service.decode", "apps.executor.plan",
            "serve.scheduler.queue_wait", "serve.pool.roundtrip",
            "apps.executor.stitch", "serve.service.encode")
KERNELS = ("gamma_correct", "mean_filter", "mean_filter_faulty",
           "contrast_stretch")
#: Tile time per serving template (loadgen's names minus the scene size).
TEMPLATES = {("gamma_correct", False): "gamma_packed",
             ("mean_filter", False): "mean_packed",
             ("contrast_stretch", False): "contrast_unpacked",
             ("mean_filter", True): "faulty_sparse"}


def _mean_ms(spans: List[list]) -> float:
    return float(np.mean([s[3] - s[2] for s in spans]) * 1e3) if spans else 0.0


def _union_within(intervals, lo: float, hi: float) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def uncovered_shares(spans: List[list]) -> List[float]:
    """Per paced request: share of its latency no covering span explains."""
    by_rid = defaultdict(list)
    for s in spans:
        if s[1] in COVERING and s[5]:
            by_rid[s[5]].append((s[2], s[3]))
    shares = []
    for s in spans:
        if (s[1] == "request" and s[5] and s[5].startswith("paced:")
                and (s[6] or {}).get("measured")):
            lo, hi = s[2], s[3]
            covered = _union_within(by_rid.get(s[5], ()), lo, hi)
            shares.append(1.0 - covered / (hi - lo))
    return shares


def compute(spans: List[list], traced: dict, untraced: dict,
            setup_traced: float, setup_untraced: float) -> Dict[str, float]:
    """Every per-layer metric of one traced pass, by name."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[1]].append(s)
    detail = traced["detail"]
    stats = detail.get("scheduler") or {}
    m: Dict[str, float] = {}

    m["serve.client.submit_ms"] = _mean_ms(by_name["serve.client.submit"])
    m["serve.service.decode_ms"] = _mean_ms(by_name["serve.service.decode"])
    m["serve.service.encode_ms"] = _mean_ms(by_name["serve.service.encode"])

    qw = stats.get("queue_wait_s") or {}
    m["serve.scheduler.queue_wait_p50_ms"] = (qw.get("p50") or 0.0) * 1e3
    m["serve.scheduler.queue_wait_p99_ms"] = (qw.get("p99") or 0.0) * 1e3
    tiles = stats.get("tiles") or {}
    m["serve.scheduler.tiles_dispatched"] = tiles.get("dispatched", 0)
    m["serve.scheduler.tiles_inflight_hwm"] = tiles.get("inflight_hwm", 0)

    rts = by_name["serve.pool.roundtrip"]
    m["serve.pool.submit_ms"] = _mean_ms(
        [s for s in by_name["serve.pool.submit"]
         if (s[6] or {}).get("fn", "").startswith("traced_")])
    m["serve.pool.roundtrip_ms"] = _mean_ms(rts)
    timed = [s for s in rts if s[6]["worker_s"] is not None]
    m["serve.pool.ipc_ms"] = (float(np.mean(
        [s[3] - s[2] - s[6]["worker_s"] for s in timed]) * 1e3)
        if timed else 0.0)
    m["serve.pool.tasks"] = len(rts)
    busy = wall = 0.0
    for ph in by_name["phase"]:
        if ph[6]["phase"] not in ("burst", "pool_sweep"):
            continue
        inside = [s for s in timed if ph[2] <= s[2] <= ph[3]]
        busy += sum(s[6]["worker_s"] for s in inside)
        if inside:
            wall += (ph[3] - ph[2]) * inside[0][6]["capacity"]
    m["serve.pool.worker_busy_ratio"] = busy / wall if wall else 0.0
    m["serve.pool.restarts"] = (stats.get("pool") or {}).get("restarts", 0)

    m["serve.transport.publish_ms"] = _mean_ms(
        by_name["serve.transport.publish"])
    m["serve.transport.fetch_tile_ms"] = _mean_ms(
        by_name["serve.transport.fetch_tile"])
    cache = stats.get("scene_cache") or {}
    m["serve.transport.bytes_shipped"] = cache.get("bytes_shipped", 0)
    m["serve.transport.hit_rate"] = cache.get("hit_rate") or 0.0

    plans = by_name["apps.executor.plan"]
    tile_spans = by_name["worker.tile"]
    m["apps.executor.plan_ms"] = _mean_ms(plans)
    m["apps.executor.tile_ms"] = _mean_ms(tile_spans)
    by_template = defaultdict(list)
    for s in tile_spans:
        by_template[TEMPLATES.get((s[6]["kernel"], s[6]["faulty"]))
                    ].append(s)
    for key in TEMPLATES.values():
        m[f"apps.executor.tile_ms.{key}"] = _mean_ms(by_template[key])
    m["apps.executor.stitch_ms"] = _mean_ms(by_name["apps.executor.stitch"])
    m["apps.executor.tiles_per_request"] = (
        float(np.mean([s[6]["tiles"] for s in plans])) if plans else 0.0)

    for k in KERNELS:
        m[f"apps.kernel.{k}_ms"] = _mean_ms(by_name[f"apps.kernel.{k}"])
    for part in ("construct", "generate", "op", "to_binary"):
        m[f"imsc.engine.{part}_ms"] = _mean_ms(by_name[f"imsc.engine.{part}"])

    faulty = [s[6]["flip_at"] for s in tile_spans if s[6]["faulty"]]
    m["core.streambatch.flip_at_calls_per_tile"] = (
        float(np.mean(faulty)) if faulty else 0.0)

    m["imsc.stob.convert_ms"] = _mean_ms(by_name["imsc.stob.convert"])
    m["imsc.stob.conversions"] = sum(s[6]["values"]
                                     for s in by_name["imsc.stob.convert"])
    m["core.accuracy.sng_mse_ms"] = _mean_ms(by_name["core.accuracy.sng_mse"])
    m["core.accuracy.op_mse_ms"] = _mean_ms(by_name["core.accuracy.op_mse"])
    m["reram.trng.random_bits_ms"] = _mean_ms(
        by_name["reram.trng.random_bits"])
    table_s = detail.get("table_s", {})
    for t in ("table1", "table2", "table4"):
        m[f"analysis.experiments.{t}_s"] = table_s.get(t, 0.0)

    m["sim.ledger.energy_j_per_request"] = detail["energy_j_per_request"]
    m["sim.ledger.latency_s_per_request"] = detail["latency_s_per_request"]

    m["paced.offered_rps"] = detail.get("offered_rps", 0.0)
    m["paced.achieved_rps"] = detail.get("achieved_rps", 0.0)
    m["paced.lateness_p99_ms"] = detail.get("lateness_p99_ms", 0.0)
    m["serve.efficiency"] = detail["served_efficiency"]

    shares = uncovered_shares(spans)
    m["trace.uncovered_share_p50"] = (
        float(np.percentile(shares, 50)) if shares else 0.0)
    m["trace.uncovered_share_p90"] = (
        float(np.percentile(shares, 90)) if shares else 0.0)

    base = dict(untraced["metrics"], setup_s=setup_untraced)
    with_trace = dict(traced["metrics"], setup_s=setup_traced)
    for name, value in base.items():
        m[f"trace.overhead.{name}"] = (with_trace[name] - value) / value

    m["host.steal_share"] = detail["steal_share"]
    m["host.parent_rss_mb"] = detail["parent_rss_mb"]
    m["host.worker_rss_mb"] = detail["worker_rss_mb"]
    return m
