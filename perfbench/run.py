"""perfbench — the repository benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_mixed --seed 0 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --write-refs   # regenerate table_refs.json

Workloads (inputs from ``--seed``; see ``workloads.py`` for why each one):
``serve_mixed``, ``serve_bigscene``, ``paper_tables``.  Every run checks
every output and prints, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
non-zero when any output is incorrect.

``serve_mixed`` is left out of ``BENCHMARK.json``: its small-task pool
traffic follows the host's scheduling noise, and on a 2-vCPU cloud guest
its figures drift by up to 30 % between runs minutes apart, with or without
CPU steal.  Run it by hand, in alternating parent/change pairs, to judge
dispatch changes.

End-to-end metrics (``--trace 0``), each reported on every workload:

=================  =====================================================
``setup_s``        median of at least three set-ups (more while they
                   add up to under a second): inputs, references, pool
                   boot and warmup (tables: stored references and a
                   one-cell pool sweep)
``served_rps``     burst requests/s through ``ServingClient`` (median
                   burst); tables: cells/s of a harness-pool pass
``floor_rps``      requests/s of in-process ``run_tiled(jobs=1)``: the
                   four request templates in equal parts, each at its
                   median time over the run; tables: cells/s of an
                   in-process pass
``latency_p50_ms`` open-loop paced segments through the ``serve_stdio``
``latency_p90_ms`` front-end (12 req/s mixed, 4 req/s big scenes), each
                   request timed from its due time; p90 over all the
                   run's paced requests, p50 the mean over the four
                   request templates of each one's median.  Tables: wall
                   time of one table (I, II or IV) on the harness pool.
                   (The serving runs' p99 is printed and recorded, not
                   gated: a few hundred paced requests make it an
                   extreme order statistic whose spread exceeds any
                   usable bound.)
``sweep_s``        wall time of the workload's fixed unit of work: one
                   burst (serve), one table sweep on the harness pool
``ok_ratio``       (attempted - failed - incorrect) / attempted
``peak_rss_mb``    peak RSS of the parent plus that of the largest worker
=================  =====================================================

The serving workloads measure in rounds — a burst, a paced segment, a
second burst, an in-process segment — so that every phase samples the
whole run.

``--trace 1`` runs the untraced pass and then a traced pass back to back,
prints the per-layer metrics (``perlayer.py``) including the tracing
overhead on every end-to-end metric, and writes the traced pass's spans
to ``perfbench/out/``.  Every run appends its record — host fingerprint,
resolved ``RunConfig``, seed, metrics — to ``perfbench/history.jsonl``.
"""

import argparse
import datetime
import json
import multiprocessing
import os
import pathlib
import platform
import statistics
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve_mixed", "serve_bigscene", "paper_tables")
SETUPS = 3
SETUP_SECONDS = 1.0
REFS = HERE / "table_refs.json"
#: CPU-steal share above which a run's timings are flagged as unreliable
STEAL_FLAG = 0.05


def run_pass(make, seconds: float, tracer) -> tuple:
    """Set up at least ``SETUPS`` times and for ``SETUP_SECONDS`` (the
    median is ``setup_s``), then measure on the last set-up."""
    from workloads import cpu_times, steal_share
    times = []
    while True:
        wl = make()
        t0 = time.perf_counter()
        try:
            with tracer.phase("setup"):
                wl.setup()
        except BaseException:
            wl.close()
            raise
        times.append(time.perf_counter() - t0)
        if len(times) >= SETUPS and sum(times) >= SETUP_SECONDS:
            break
        wl.close()
    cpu0 = cpu_times()
    try:
        res = wl.measure(seconds, tracer)
    finally:
        wl.close()
    res["detail"]["steal_share"] = steal_share(cpu0, cpu_times())
    out = res["outcome"]
    res["metrics"]["ok_ratio"] = (out.attempted - out.failed) / out.attempted
    return res, statistics.median(times)


def host_fingerprint() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}


def stop_helpers() -> None:
    """Stop and reap multiprocessing's forkserver and resource tracker.

    Both outlive every pool; without this they end only after this
    process has exited, unwaited.
    """
    from multiprocessing import forkserver, resource_tracker
    for helper in (forkserver._forkserver, resource_tracker._resource_tracker):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()
    for child in multiprocessing.active_children():
        child.join(timeout=10)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-refs", action="store_true",
                        help="recompute the stored Table I/II/IV cells of "
                             "every table seed and exit")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir() or \
            not (ROOT / "benchmarks" / "loadgen.py").is_file():
        print(f"perfbench: {ROOT} is not a repository checkout (needs "
              f"src/repro and benchmarks/loadgen.py)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "benchmarks")]
    if args.write_refs:
        import workloads
        workloads.write_table_refs(REFS)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    import bench_trace
    import perlayer
    import workloads
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)

    if args.workload == "paper_tables":
        tap = workloads.LedgerTap()

        def make():
            return workloads.TablesWorkload(args.seed, REFS, tap)
    else:
        def make():
            return workloads.ServeWorkload(
                workloads.SERVE_SPECS[args.workload], args.seed)

    try:
        res, setup_s = run_pass(make, args.seconds, bench_trace.NullTracer())
        if args.trace:
            tracer = bench_trace.Tracer()
            tracer.install()
            res_t, setup_t = run_pass(make, args.seconds, tracer)
            layers = perlayer.compute(tracer.spans(), res_t, res, setup_t,
                                      setup_s)
            (HERE / "out").mkdir(exist_ok=True)
            spans_path = HERE / "out" / f"spans-{args.workload}-{args.seed}.jsonl"
            tracer.dump(spans_path)
    finally:
        stop_helpers()

    metrics = dict(res["metrics"], setup_s=setup_s)
    outcome = res["outcome"]
    if args.trace:
        outcome.attempted += res_t["outcome"].attempted
        outcome.failed += res_t["outcome"].failed
        outcome.errors += res_t["outcome"].errors
        chosen = {m["name"]: (layers[m["name"]], m["unit"])
                  for m in spec["per_layer"]}
    else:
        chosen = {m["name"]: (metrics[m["name"]], m["unit"])
                  for m in spec["end_to_end"]}
    detail = res["detail"]
    record = {
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": host_fingerprint(),
        "run_config": detail.pop("run_config"),
        "metrics": metrics,
        "per_layer": layers if args.trace else None,
        "detail": {k: v for k, v in detail.items() if k != "scheduler"},
        "attempted": outcome.attempted, "failed": outcome.failed,
        "noisy_host": detail["steal_share"] > STEAL_FLAG,
    }
    with open(HERE / "history.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, value in metrics.items():
        print(f"{name:>16}: {value:.6g} {units[name]}")
    print(f"served efficiency: {detail['served_efficiency']:.3f} "
          f"(served {metrics['served_rps']:.2f} / floor "
          f"{metrics['floor_rps']:.2f} {units['served_rps']})")
    if "offered_rps" in detail:
        print(f"paced phase: offered {detail['offered_rps']:.2f} req/s, "
              f"achieved {detail['achieved_rps']:.2f} req/s, generator "
              f"lateness p99 {detail['lateness_p99_ms']:.3f} ms, latency "
              f"p99 {detail['latency_ms']['p99']:.3f} ms")
    print(f"host: {record['host']['nproc']} cpus, "
          f"{detail['steal_share']:.1%} of CPU time stolen by other guests "
          f"while measuring")
    if detail["steal_share"] > STEAL_FLAG:
        print(f"NOISY HOST: steal above {STEAL_FLAG:.0%}; this run's "
              f"timings are not comparable to a quiet run's")
    if args.trace:
        print(f"spans -> {spans_path.relative_to(ROOT)}")
    for err in outcome.errors:
        print(f"INCORRECT: {err}")
    correct = outcome.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in chosen.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
