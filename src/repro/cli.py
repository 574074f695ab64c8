"""Command-line entry point: regenerate any table or figure from a shell.

Usage::

    python -m repro table1 [--samples 10000]
    python -m repro table2 [--samples 10000]
    python -m repro table3
    python -m repro table4 [--runs 2] [--size 32]
    python -m repro fig4
    python -m repro fig5
    python -m repro imsng
    python -m repro all
    python -m repro serve [--jobs N]
    python -m repro <target> --preset oracle     # paper-faithful oracles

Presets
-------
Every run is described by one :class:`repro.config.RunConfig`;
``--preset`` picks the base and the individual flags below override it
field-by-field:

* ``--preset fast`` (the default): packed word backend, batched
  ``column`` S-to-B readout, ``sparse`` Binomial fault masks, ``shm``
  scene transport — the release defaults.  Statistically equivalent to
  the oracles and much faster.
* ``--preset oracle``: the paper-faithful reference — ``per-bit``
  S-to-B cell sampling and ``dense`` Bernoulli fault masks.
  Reproduces the historical pinned quality numbers bit-exactly for a
  given seed.

Flags
-----
``--backend {unpacked,packed}`` picks the bit-stream execution backend
(default: the ``REPRO_BACKEND`` environment variable, falling back to
``packed``; both backends produce bit-identical streams).  ``--jobs N``
fans work across N worker processes wherever the target shards: each
table's whole grid goes to one pool as one batch — the Monte-Carlo
chunks of ``table1``/``table2`` (factory harness) and one task per
application run of ``table4`` — and the printed values are independent
of N.  ``--tile T`` decomposes each ``table4`` scene into ``T x T``
tiles with deterministic per-tile seeds (see
:mod:`repro.apps.executor`), so it changes the SC streams; N does not.
``--cell-model`` and ``--fault-sampling`` override the preset's S-to-B
device model and fault-mask model for the SC application runs (see
:mod:`repro.imsc.stob` / :mod:`repro.imsc.engine`).

``serve`` starts the request-serving loop instead of printing a table: a
resident pool of ``--jobs`` worker processes behind a line-delimited JSON
protocol on stdin/stdout, scheduling concurrent tiled requests fair
round-robin with per-request output bit-identical to the batch
``run_tiled`` path (see :mod:`repro.serve`); the resolved config is its
serving default and is echoed by the ``stats`` request.

Prints ASCII renderings of the paper's tables/figures using the same
experiment runners the benchmark suite drives.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .analysis import experiments as ex
from .analysis.tables import render_table
from .config import RunConfig
from .core.backend import available_backends, set_backend

__all__ = ["main"]


def _print_table1(args, cfg: RunConfig) -> None:
    result = ex.table1_sng_mse(samples=args.samples, seed=cfg.seed,
                               jobs=cfg.jobs)
    lengths = ex.TABLE1_LENGTHS
    rows = [[label] + [row[n] for n in lengths]
            for label, row in result.items()]
    print(render_table(["RNG source"] + [f"N={n}" for n in lengths], rows,
                       title="Table I - MSE(%) of SBS generation",
                       precision=4))


def _print_table2(args, cfg: RunConfig) -> None:
    result = ex.table2_ops_mse(samples=args.samples, seed=cfg.seed,
                               jobs=cfg.jobs)
    lengths = ex.TABLE1_LENGTHS
    rows = []
    for op, sources in result.items():
        for src, series in sources.items():
            rows.append([op, src] + [series[n] for n in lengths])
    print(render_table(
        ["operation", "source"] + [f"N={n}" for n in lengths], rows,
        title="Table II - MSE(%) of SC operations", precision=4))


def _print_table3(args) -> None:
    result = ex.table3_hw_cost()
    rows = []
    for design, ops in result.items():
        for op, cost in ops.items():
            rows.append([design, op, cost["latency_ns"], cost["energy_nj"]])
    print(render_table(["design", "operation", "latency (ns)",
                        "energy (nJ)"], rows,
                       title="Table III - hardware cost (N = 256)"))


def _print_table4(args, cfg: RunConfig) -> None:
    result = ex.table4_quality(runs=args.runs, size=args.size, config=cfg)
    apps = ("compositing", "interpolation", "matting")
    rows = [[label] + [f"{v[a][0]:.1f}/{v[a][1]:.1f}" for a in apps]
            for label, v in result.items()]
    print(render_table(["design"] + list(apps), rows,
                       title="Table IV - SSIM(%)/PSNR(dB)"))
    drops = ex.quality_drop_summary(result)
    print(f"\naverage SSIM drop under faults: "
          f"SC {drops['sc_avg_ssim_drop_pct']:.1f}% vs binary CIM "
          f"{drops['bincim_avg_ssim_drop_pct']:.1f}%")


def _print_fig(which: str) -> None:
    result = ex.fig4_energy() if which == "fig4" else ex.fig5_throughput()
    metric = ("normalized energy savings" if which == "fig4"
              else "normalized throughput")
    lengths = ex.TABLE4_LENGTHS
    rows = []
    for app, designs in result.items():
        for design, series in designs.items():
            rows.append([app, design] + [series[n] for n in lengths])
    print(render_table(
        ["application", "design"] + [f"N={n}" for n in lengths], rows,
        title=f"{'Fig. 4' if which == 'fig4' else 'Fig. 5'} - {metric} "
              f"vs binary CIM", precision=2))


def _print_imsng(args) -> None:
    result = ex.imsng_variants()
    rows = [[k, v["latency_ns"], v["energy_nj"]] for k, v in result.items()]
    print(render_table(["variant", "latency (ns)", "energy (nJ)"], rows,
                       title="IMSNG conversion cost (Sec. IV-B)"))
    comp = ex.write_based_sng_comparison()
    rows = [[k, v["latency_ns"], v["energy_nj"], int(v["cell_writes"])]
            for k, v in comp.items()]
    print()
    print(render_table(["design", "latency (ns)", "energy (nJ)",
                        "cell writes"], rows,
                       title="Read-based vs write-based SBS generation"))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate tables/figures of 'All-in-Memory Stochastic "
                    "Computing using ReRAM' (DAC 2025).")
    parser.add_argument("target",
                        choices=["table1", "table2", "table3", "table4",
                                 "fig4", "fig5", "imsng", "all", "serve"])
    parser.add_argument("--preset", choices=list(RunConfig.PRESETS),
                        default="fast",
                        help="base run configuration: 'fast' (default — "
                             "packed + column S-to-B + sparse fault "
                             "masks, the release defaults) or 'oracle' "
                             "(per-bit/dense — reproduces the paper's "
                             "historical pinned numbers bit-exactly); "
                             "the flags below override it field-by-field")
    parser.add_argument("--samples", type=int, default=10_000,
                        help="Monte-Carlo samples for tables I/II")
    parser.add_argument("--runs", type=int, default=2,
                        help="application runs to average for table IV")
    parser.add_argument("--size", type=int, default=32,
                        help="scene edge length for table IV")
    parser.add_argument("--seed", type=int, default=None,
                        help="root seed (default: the preset's, 0)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes: shards the Monte-Carlo "
                             "chunks of table1/table2 and the application "
                             "runs of table4, and sizes the resident pool "
                             "of 'serve' (its default pool is 2); printed "
                             "values are independent of N")
    parser.add_argument("--tile", type=int, default=None,
                        help="tile edge length for the SC application "
                             "runs (table4); default: whole-image")
    parser.add_argument("--cell-model", choices=["per-bit", "column"],
                        default=None, dest="cell_model",
                        help="S-to-B device model for SC application runs "
                             "(table4), overriding the preset: 'per-bit' "
                             "samples every cell (the conformance "
                             "oracle), 'column' is the batched popcount "
                             "readout with cached per-column conductance "
                             "draws")
    parser.add_argument("--fault-sampling", choices=["dense", "sparse"],
                        default=None, dest="fault_sampling",
                        help="fault-mask sampling for faulty SC runs "
                             "(table4), overriding the preset: 'dense' is "
                             "the bit-exact per-site Bernoulli oracle, "
                             "'sparse' draws Binomial flip counts and "
                             "scatters the sites into the packed payload "
                             "(statistically conformant, much faster at "
                             "the paper's gate rates)")
    parser.add_argument("--fault-domain", choices=["word", "bit"],
                        default=None, dest="fault_domain",
                        help="fault-application domain for faulty SC runs "
                             "(table4), overriding the preset: 'word' "
                             "applies packed masks in the word domain "
                             "(default), 'bit' is the per-bit conformance "
                             "oracle (bit-identical per seed; requires "
                             "dense sampling, so combine it with "
                             "--fault-sampling dense)")
    parser.add_argument("--mp-context", choices=["fork", "forkserver",
                                                 "spawn"],
                        default=None, dest="mp_context",
                        help="multiprocessing start method for worker "
                             "pools (--jobs > 1 and 'serve'), overriding "
                             "the preset's pinned platform default; "
                             "results are start-method-invariant")
    parser.add_argument("--backend", choices=available_backends(),
                        default=None,
                        help="bit-stream execution backend (overrides the "
                             "preset and the REPRO_BACKEND environment "
                             "variable)")
    parser.add_argument("--transport", choices=["shm", "copy"],
                        default=None,
                        help="scene transport for 'serve', overriding the "
                             "preset: 'shm' ships each scene once through "
                             "the content-addressed shared-memory store "
                             "(tile tasks carry references; repeated "
                             "scenes are zero-byte cache hits), 'copy' "
                             "pickles tile slices per request; output is "
                             "bit-identical either way")
    args = parser.parse_args(argv)

    overrides = {key: value for key, value in
                 (("backend", args.backend), ("jobs", args.jobs),
                  ("tile", args.tile), ("cell_model", args.cell_model),
                  ("fault_sampling", args.fault_sampling),
                  ("fault_domain", args.fault_domain),
                  ("mp_context", args.mp_context),
                  ("transport", args.transport), ("seed", args.seed))
                 if value is not None}
    try:
        cfg = RunConfig.preset(args.preset, **overrides)
    except ValueError as exc:
        parser.error(str(exc))
    if cfg.jobs > 1 and args.target in ("table3", "fig4", "fig5", "imsng"):
        parser.error(f"--jobs does not apply to {args.target} (it shards "
                     "table1/table2/table4 and sizes the 'serve' pool)")
    if args.backend is not None:
        set_backend(args.backend)

    if args.target == "serve":
        from .serve import serve_stdio
        return serve_stdio(jobs=args.jobs, transport=args.transport,
                           config=cfg)
    if args.transport is not None:
        parser.error("--transport only applies to 'serve'")

    dispatch = {
        "table1": lambda: _print_table1(args, cfg),
        "table2": lambda: _print_table2(args, cfg),
        "table3": lambda: _print_table3(args),
        "table4": lambda: _print_table4(args, cfg),
        "fig4": lambda: _print_fig("fig4"),
        "fig5": lambda: _print_fig("fig5"),
        "imsng": lambda: _print_imsng(args),
    }
    if args.target == "all":
        for i, fn in enumerate(dispatch.values()):
            if i:
                print()
            fn()
    else:
        dispatch[args.target]()
    return 0


if __name__ == "__main__":   # pragma: no cover - exercised via __main__
    sys.exit(main())
