"""Experiment runners: one function per table/figure of the paper.

Every runner returns plain data (dicts keyed the way the paper's table is
laid out) so tests can assert on shapes and the benchmark harness can print
them.  Sample counts default to quick-but-stable values; pass larger ones to
approach the paper's 10^6-sample / 1000-run settings.

The Monte-Carlo and application tables (I, II, IV) each build the task list
of their whole grid and run it with one :func:`repro.apps.executor.pool_map`
call, so ``jobs`` workers share the grid instead of waiting on one cell at
a time; each cell is then reduced from its own tasks in task order, which
keeps every table independent of ``jobs``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..bincim.design import BINARY_OP_CYCLES
from ..cmos.design import CmosScDesign
from ..config import RunConfig
from ..core import accuracy
# Re-exported: callers (and the traced benchmark run) reach the two cell
# functions through this module.
from ..core.accuracy import op_mse as op_mse, sng_mse as sng_mse
from ..core.rng import Lfsr, SobolRng, SoftwareRng
from ..core.sng import ComparatorSng, SegmentSng
from ..energy.model import EnergyLedger
from ..energy.params import DEFAULT_RERAM_COSTS, ReRamStepCosts
from ..imsc.cost import imsng_conversion_cost, stob_cost
from ..apps.executor import pool_map
from ..apps.pipeline import run_app
from ..reram.trng import ReRamTrng

__all__ = [
    "TABLE1_LENGTHS",
    "TABLE4_LENGTHS",
    "SngFactory",
    "table1_sng_mse",
    "table2_ops_mse",
    "table3_hw_cost",
    "table4_quality",
    "quality_drop_summary",
    "write_based_sng_comparison",
    "reram_app_cost",
    "cmos_app_cost",
    "bincim_app_cost",
    "fig4_energy",
    "fig5_throughput",
    "imsng_variants",
]

TABLE1_LENGTHS = (32, 64, 128, 256, 512)
TABLE2_OPS = ("multiplication", "scaled_addition", "approx_addition",
              "abs_subtraction", "division", "minimum", "maximum")
TABLE4_LENGTHS = (32, 64, 128, 256)
APP_NAMES = ("compositing", "interpolation", "matting")


# ---------------------------------------------------------------------------
# Table I
# ---------------------------------------------------------------------------
class SngFactory:
    """Picklable per-chunk SNG factory for the sharded accuracy harness.

    The Table I/II runners hand :func:`~repro.core.accuracy.sng_mse` /
    :func:`~repro.core.accuracy.op_mse` a factory instead of a shared
    generator object, so their Monte-Carlo chunks carry deterministic
    ``SeedSequence``-derived state and can fan out over worker processes:
    the measured MSE is a pure function of ``(seed, chunk)`` and
    independent of ``jobs``.  All seed material (software generator state,
    LFSR register seeds, Sobol digital-shift scrambles) derives from the
    per-chunk child.
    """

    SOURCES = ("imsng", "software", "lfsr", "sobol")

    def __init__(self, source: str, segment_bits: int = 8):
        if source not in self.SOURCES:
            raise ValueError(f"unknown SNG source {source!r}")
        self.source = source
        self.segment_bits = segment_bits

    def __call__(self, seed_seq: np.random.SeedSequence):
        if self.source == "imsng":
            return SegmentSng(ReRamTrng(rng=np.random.default_rng(seed_seq)),
                              segment_bits=self.segment_bits)
        if self.source == "software":
            return ComparatorSng(SoftwareRng(8, seed=seed_seq))
        if self.source == "lfsr":
            # Uncorrelated operands come from a second register at a
            # different seed, the standard two-LFSR arrangement.
            base = int(seed_seq.generate_state(1)[0]) % 254
            return ComparatorSng(
                Lfsr(seed=base + 1),
                pair_source=Lfsr(seed=((base + 101) % 254) + 1))
        # Sobol: parallel dimensions for independent operands (Liu & Han);
        # a per-chunk digital-shift scramble decorrelates the repeated use
        # of the same dimensions across chunks.
        scramble = int(seed_seq.generate_state(1)[0])
        return ComparatorSng(
            SobolRng(8, dim=0, scramble_seed=scramble),
            pair_source=SobolRng(8, dim=1, scramble_seed=scramble + 1))


def table1_sng_mse(lengths: Sequence[int] = TABLE1_LENGTHS,
                   segment_sizes: Sequence[int] = (5, 6, 7, 8, 9),
                   samples: int = 20_000,
                   seed: int = 0, jobs: int = 1
                   ) -> Dict[str, Dict[int, float]]:
    """MSE(%) of SBS generation per RNG source and stream length (Table I).

    Rows: ``IMSNG M=5`` .. ``IMSNG M=9``, ``Software``, ``PRNG (LFSR)``,
    ``QRNG (Sobol)``.  Columns: stream lengths.  ``jobs`` fans the
    Monte-Carlo chunks of the whole grid over worker processes in one
    batch; every cell is chunk-deterministic, so the table is independent
    of ``jobs`` (the regression suite asserts ``jobs=1 == jobs=N``).
    """
    rows = [(f"IMSNG M={m}", SngFactory("imsng", segment_bits=m))
            for m in segment_sizes]
    rows += [(label, SngFactory(source))
             for label, source in (("Software", "software"),
                                   ("PRNG (LFSR)", "lfsr"),
                                   ("QRNG (Sobol)", "sobol"))]
    keys = [(label, n) for label, _ in rows for n in lengths]
    cells = [accuracy.mse_tasks((factory, n), samples, seed + n,
                                accuracy.SNG_CHUNK)
             for _, factory in rows for n in lengths]
    # Read through the module at call time, so a run-time swap of the
    # chunk worker (the traced benchmark run makes one) takes effect.
    mses = accuracy.mse_grid(accuracy._sng_mse_chunk, cells, samples, jobs)
    out: Dict[str, Dict[int, float]] = {}
    for (label, n), mse in zip(keys, mses):
        out.setdefault(label, {})[n] = mse
    return out


# ---------------------------------------------------------------------------
# Table II
# ---------------------------------------------------------------------------
def table2_ops_mse(lengths: Sequence[int] = TABLE1_LENGTHS,
                   ops: Sequence[str] = TABLE2_OPS,
                   sources: Sequence[str] = ("imsng", "software", "lfsr",
                                             "sobol"),
                   samples: int = 5_000,
                   seed: int = 0, jobs: int = 1
                   ) -> Dict[str, Dict[str, Dict[int, float]]]:
    """MSE(%) of SC arithmetic per RNG source (Table II, M = 8).

    Returns ``result[op][source][N]``.  ``jobs`` shards the Monte-Carlo
    chunks of the whole grid exactly as in :func:`table1_sng_mse`; the
    grid is independent of ``jobs``.
    """
    keys = [(op, source, n) for op in ops for source in sources
            for n in lengths]
    cells = [accuracy.mse_tasks((op, SngFactory(source), n), samples,
                                seed + n, accuracy.OP_CHUNK)
             for op, source, n in keys]
    mses = accuracy.mse_grid(accuracy._op_mse_chunk, cells, samples, jobs)
    out: Dict[str, Dict[str, Dict[int, float]]] = {}
    for (op, source, n), mse in zip(keys, mses):
        out.setdefault(op, {}).setdefault(source, {})[n] = mse
    return out


# ---------------------------------------------------------------------------
# Table III
# ---------------------------------------------------------------------------
def table3_hw_cost(length: int = 256) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Hardware cost rows (latency ns / energy nJ) for every design."""
    from ..imsc.cost import ReRamScDesign
    return {
        "CMOS (LFSR)": CmosScDesign("lfsr").table_rows(length),
        "CMOS (Sobol)": CmosScDesign("sobol").table_rows(length),
        "ReRAM (IMSNG-opt)": ReRamScDesign(mode="opt").table_rows(length),
    }


# ---------------------------------------------------------------------------
# Table IV
# ---------------------------------------------------------------------------
def table4_quality(lengths: Sequence[int] = TABLE4_LENGTHS,
                   runs: int = 3, size: int = 32,
                   seed: Optional[int] = None, jobs: Optional[int] = None,
                   tile: Optional[int] = None,
                   cell_model: Optional[str] = None,
                   fault_sampling: Optional[str] = None,
                   config: Optional[RunConfig] = None
                   ) -> Dict[str, Dict[str, Tuple[float, float]]]:
    """SSIM(%)/PSNR(dB) grid of Table IV.

    Returns ``result[row][app] = (ssim_pct, psnr_db)`` with rows
    ``Binary CIM [faulty|ideal]`` and ``SC N=<n> [faulty|ideal]``, averaged
    over ``runs`` scenes/fault samples.  ``config`` (default
    ``RunConfig.default()`` — the fast preset) supplies every axis left
    ``None``: ``jobs`` fans the grid's ``run_app`` calls (one task per
    row, app and run) over worker processes, ``tile`` splits each SC run
    into tiles (see :mod:`repro.apps.executor`); the table depends on
    ``tile`` but not on ``jobs``.  ``cell_model`` selects the
    S-to-B device model ('per-bit' oracle or the batched 'column'
    readout) and ``fault_sampling`` the fault-mask model for the faulty
    SC rows ('dense' bit-exact oracle or the statistically conformant
    'sparse' Binomial scatter); the binary/float backends always run
    whole-image.  ``config=RunConfig.oracle()`` reproduces the
    paper-faithful per-bit/dense grid.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    cfg = RunConfig.resolve(config)
    if seed is None:
        seed = cfg.seed
    # run_app re-resolves None/absent axes from the config; only the
    # explicitly overridden ones are forwarded as kwargs.  Each SC run is
    # one pool task that tiles in-process (jobs=1): tiled output does not
    # depend on ``jobs``, and whole-image runs fan out the same way.
    sc_kwargs = {k: v for k, v in
                 (("tile", tile), ("cell_model", cell_model),
                  ("fault_sampling", fault_sampling))
                 if v is not None}
    sc_kwargs["jobs"] = 1
    rows = [(f"Binary CIM [{tag}]", "bincim", 0, faulty)
            for faulty, tag in ((False, "ideal"), (True, "faulty"))]
    rows += [(f"SC N={n} [{tag}]", "sc", n, faulty) for n in lengths
             for faulty, tag in ((False, "ideal"), (True, "faulty"))]
    tasks = [(app, backend, length, faulty, size, seed + r, cfg,
              sc_kwargs if backend == "sc" else {})
             for _, backend, length, faulty in rows for app in APP_NAMES
             for r in range(runs)]
    scores = iter(pool_map(_table4_run, tasks, jobs, config=cfg))
    out: Dict[str, Dict[str, Tuple[float, float]]] = {}
    for label, *_ in rows:
        out[label] = {}
        for app in APP_NAMES:
            ssims, psnrs = zip(*(next(scores) for _ in range(runs)))
            out[label][app] = (float(np.mean(ssims)), float(np.mean(psnrs)))
    return out


def _table4_run(task) -> Tuple[float, float]:
    """One Table IV ``run_app`` call: a pool task of :func:`table4_quality`."""
    app, backend, length, faulty, size, seed, cfg, kwargs = task
    res = run_app(app, backend, length=length, faulty=faulty, size=size,
                  seed=seed, config=cfg, **kwargs)
    return res.ssim_pct, res.psnr_db


def quality_drop_summary(table4: Dict[str, Dict[str, Tuple[float, float]]]
                         ) -> Dict[str, float]:
    """Average SSIM drop (ideal -> faulty), the paper's 5% vs 47% claim."""
    def drop(prefixes: List[str]) -> float:
        drops = []
        for key_ideal in table4:
            if not key_ideal.endswith("[ideal]"):
                continue
            if not any(key_ideal.startswith(p) for p in prefixes):
                continue
            key_faulty = key_ideal.replace("[ideal]", "[faulty]")
            for app in table4[key_ideal]:
                drops.append(table4[key_ideal][app][0]
                             - table4[key_faulty][app][0])
        return float(np.mean(drops))

    return {
        "sc_avg_ssim_drop_pct": drop(["SC "]),
        "bincim_avg_ssim_drop_pct": drop(["Binary CIM"]),
    }


# ---------------------------------------------------------------------------
# Per-pixel flow costs for Figs. 4-5
# ---------------------------------------------------------------------------
# Stream-role counts per app: (conversions, single-step ops, mux ops,
# cordiv?, io_bytes for the CMOS design).
_APP_STRUCTURE = {
    # 3 conversions (F, B, alpha-oriented), 1 MAJ, S-to-B.
    "compositing": {"conversions": 3, "maj": 1, "mux": 0, "xor": 0,
                    "cordiv": False, "io_bytes": 4},
    # 4 neighbour + 2 select conversions per output pixel *before reuse*.
    # SBS rows persist in the ReRAM, so conversions amortise: each source
    # pixel serves ~4 output pixels (neighbour overlap at 2x up-scaling)
    # and the dx/dy select patterns repeat across the whole frame — the
    # reason the paper's ReRAM design wins bilinear at every stream length.
    # Effective conversions: 4/4 neighbours + ~0.5 select refresh.
    "interpolation": {"conversions": 1.5, "maj": 2, "mux": 1, "xor": 0,
                      "cordiv": False, "io_bytes": 5},
    # 3 conversions (I, B, F), 2 XOR, CORDIV, S-to-B.
    "matting": {"conversions": 3, "maj": 0, "mux": 0, "xor": 2,
                "cordiv": True, "io_bytes": 4},
}

_APP_BINARY_OPS = {
    "compositing": {"multiply": 2, "add": 1},
    # Three one-multiplier lerps: out = a + t*(b - a).
    "interpolation": {"sub": 3, "multiply": 3, "add": 3},
    "matting": {"sub": 2, "divide": 1},
}

_APP_CMOS_OPS = {
    # Per output pixel: one N-cycle pass of the fused SC datapath; modelled
    # as the dominant op's datapath plus extra SNG energy.
    "compositing": "scaled_addition",
    "interpolation": "scaled_addition",
    "matting": "division",
}


def reram_app_cost(app: str, length: int,
                   costs: ReRamStepCosts = DEFAULT_RERAM_COSTS
                   ) -> EnergyLedger:
    """Per-pixel cost of the in-memory SC design for one application.

    A row of ``row_width`` columns carries ``row_width / N`` pixels, so one
    conversion pass (78 ns, 3M senses) converts that many pixels at once;
    per-pixel figures divide accordingly.  Conversion passes for different
    operands pipeline across mats: the per-pixel critical path carries one
    pass, the ops, and the per-pixel ADC conversion.
    """
    s = _APP_STRUCTURE[app]
    w = costs.row_width
    pixels_per_pass = max(1, w // length)
    led = EnergyLedger()
    conv = imsng_conversion_cost(8, "opt", costs)
    # One pass on the critical path (pipelined), all passes' energy paid.
    led.record("imsng", conv.latency_s / pixels_per_pass,
               conv.energy_j * s["conversions"] / pixels_per_pass)
    n_ops = s["maj"] + s["xor"]
    if n_ops:
        led.record("sc_ops", costs.t_sense * n_ops / pixels_per_pass,
                   costs.sense_energy(w) * n_ops / pixels_per_pass)
    if s["mux"]:
        led.record("sc_mux", 3 * costs.t_sense * s["mux"] / pixels_per_pass,
                   3 * costs.sense_energy(w) * s["mux"] / pixels_per_pass)
    if s["cordiv"]:
        # Sequential over stream bits; all pixels in the row advance
        # together, so per-pixel latency divides by pixels_per_pass.
        led.record("cordiv", costs.t_div_bit * length / pixels_per_pass,
                   costs.e_div_bit * length)
    stob = stob_cost(1, costs, length)
    led.merge(stob)
    return led


def cmos_app_cost(app: str, length: int,
                  design: Optional[CmosScDesign] = None) -> EnergyLedger:
    """Per-pixel cost of the CMOS SC design including data movement."""
    d = design if design is not None else CmosScDesign("lfsr")
    s = _APP_STRUCTURE[app]
    op = _APP_CMOS_OPS[app]
    led = EnergyLedger()
    # One N-cycle pass of the fused datapath per output pixel.
    led.record(f"cmos_{app}", d.latency_ns(op, length) * 1e-9,
               d.energy_nj(op, length) * 1e-9)
    # Additional SNGs beyond the op datapath's own (rough structural scale).
    extra_sngs = max(0, s["conversions"] - 2)
    if extra_sngs:
        per_sng = (d._rng_comp.energy_pj + d._cmp.energy_pj)  # noqa: SLF001
        led.record("cmos_extra_sng", 0.0,
                   extra_sngs * per_sng * 1e-12 * length)
    led.record("transfer", d.transfer.latency(s["io_bytes"]),
               d.transfer.energy(s["io_bytes"]))
    return led


def bincim_app_cost(app: str,
                    costs: ReRamStepCosts = DEFAULT_RERAM_COSTS
                    ) -> EnergyLedger:
    """Per-pixel cost of the binary CIM baseline (row-parallel batch)."""
    from ..bincim.design import MAGIC_INIT_ENERGY_FACTOR
    ops = _APP_BINARY_OPS[app]
    w = costs.row_width
    led = EnergyLedger()
    for op, count in ops.items():
        cycles = BINARY_OP_CYCLES[op] * count
        # One gate sequence processes a whole row of pixels: per-pixel
        # latency divides by the row width; energy is per cell anyway
        # (plus the latency-hidden output-row initialisation writes).
        led.record(f"bin_{op}", costs.t_write * cycles / w,
                   costs.e_write_cell * cycles * MAGIC_INIT_ENERGY_FACTOR,
                   count=1)
    return led


# ---------------------------------------------------------------------------
# Figures 4 and 5
# ---------------------------------------------------------------------------
def fig4_energy(lengths: Sequence[int] = TABLE4_LENGTHS
                ) -> Dict[str, Dict[str, Dict[int, float]]]:
    """Normalized energy savings vs binary CIM (Fig. 4).

    ``result[app][design][N] = E_bincim / E_design`` (> 1 means the SC
    design saves energy over the binary CIM reference).
    """
    out: Dict[str, Dict[str, Dict[int, float]]] = {}
    for app in APP_NAMES:
        ref = bincim_app_cost(app).energy_j
        out[app] = {"CMOS SC": {}, "ReRAM SC": {}}
        for n in lengths:
            out[app]["CMOS SC"][n] = ref / cmos_app_cost(app, n).energy_j
            out[app]["ReRAM SC"][n] = ref / reram_app_cost(app, n).energy_j
    return out


# Mats operating concurrently on different row batches.  Both in-memory
# designs (ReRAM SC and binary CIM) scale with the memory's internal
# parallelism; the CMOS design has a fixed number of SC datapath units.
CIM_PARALLEL_MATS = 4


def fig5_throughput(lengths: Sequence[int] = TABLE4_LENGTHS,
                    cim_mats: int = CIM_PARALLEL_MATS
                    ) -> Dict[str, Dict[str, Dict[int, float]]]:
    """Normalized throughput vs binary CIM (Fig. 5).

    ``result[app][design][N] = T_design / T_bincim`` with T = pixels/s
    (inverse of per-pixel latency).  Both CIM designs get ``cim_mats``-way
    mat parallelism, which cancels in the ReRAM-vs-binary ratio but not for
    the CMOS design.
    """
    out: Dict[str, Dict[str, Dict[int, float]]] = {}
    for app in APP_NAMES:
        ref = cim_mats / bincim_app_cost(app).latency_s
        out[app] = {"CMOS SC": {}, "ReRAM SC": {}}
        for n in lengths:
            out[app]["CMOS SC"][n] = (1.0 / cmos_app_cost(app, n).latency_s) / ref
            out[app]["ReRAM SC"][n] = (cim_mats / reram_app_cost(app, n).latency_s) / ref
    return out


def summarize_figures(fig4: Dict, fig5: Dict) -> Dict[str, float]:
    """Geometric means backing the abstract's headline factors."""
    def gmean(vals: List[float]) -> float:
        return float(np.exp(np.mean(np.log(vals))))

    reram_e = [v for app in fig4.values() for v in app["ReRAM SC"].values()]
    cmos_e = [v for app in fig4.values() for v in app["CMOS SC"].values()]
    reram_t = [v for app in fig5.values() for v in app["ReRAM SC"].values()]
    cmos_t = [v for app in fig5.values() for v in app["CMOS SC"].values()]
    return {
        "reram_energy_savings_vs_bincim": gmean(reram_e),
        "reram_vs_cmos_energy": gmean(reram_e) / gmean(cmos_e),
        "reram_throughput_vs_bincim": gmean(reram_t),
        "reram_vs_cmos_throughput": gmean(reram_t) / gmean(cmos_t),
    }


# ---------------------------------------------------------------------------
# In-text ablation: IMSNG-naive vs IMSNG-opt
# ---------------------------------------------------------------------------
def imsng_variants(segment_bits: int = 8,
                   costs: ReRamStepCosts = DEFAULT_RERAM_COSTS
                   ) -> Dict[str, Dict[str, float]]:
    """Per-conversion latency/energy of the two IMSNG designs (Sec. IV-B)."""
    out = {}
    for mode in ("naive", "opt"):
        led = imsng_conversion_cost(segment_bits, mode, costs)
        out[f"IMSNG-{mode}"] = {"latency_ns": led.latency_ns,
                                "energy_nj": led.energy_nj}
    return out


def write_based_sng_comparison(length: int = 256, segment_bits: int = 8,
                               costs: ReRamStepCosts = DEFAULT_RERAM_COSTS
                               ) -> Dict[str, Dict[str, float]]:
    """IMSNG vs SCRIMP-style write-based SBS generation (Sec. II-C).

    Prior in-memory designs (SCRIMP et al.) generate every stream bit with
    the *probabilistic switching of a write pulse*: a RESET plus a
    50%-probability SET attempt per cell — "not only extremely slow but
    also affects write endurance".  IMSNG instead consumes cheap reads of
    resident TRNG rows plus the greater-than scan.

    Returns per-``length``-bit-stream figures: latency, energy, and cell
    writes (the endurance driver).
    """
    out: Dict[str, Dict[str, float]] = {}
    # IMSNG-opt: the greater-than scan itself, plus the M TRNG row fills
    # amortised over the conversions that reuse them (one random-row fill
    # serves a whole image's worth of conversions; 64 is conservative).
    amortize_over = 64
    led = imsng_conversion_cost(segment_bits, "opt", costs, width=length)
    fill_energy_nj = segment_bits * costs.write_energy(length) * 1e9
    out["IMSNG-opt (read-based)"] = {
        "latency_ns": led.latency_ns,
        "energy_nj": led.energy_nj + fill_energy_nj / amortize_over,
        # One result-row write per conversion + amortised random fills.
        "cell_writes": float(length * (1 + segment_bits / amortize_over)),
    }
    # Write-based: every stream bit costs RESET + probabilistic SET.  The
    # row writes in parallel, so latency is 2 write pulses; energy and
    # endurance scale with 2 pulses per cell.
    out["SCRIMP-style (write-based)"] = {
        "latency_ns": 2 * costs.t_write * 1e9,
        "energy_nj": 2 * costs.write_energy(length) * 1e9,
        "cell_writes": float(2 * length),
    }
    # The target probability still has to be shaped: write-based designs
    # need one probabilistic write round per operand bit (tuning pulse
    # amplitudes per bit plane), so a fair per-conversion figure multiplies
    # by the operand precision.
    per_conv = out["SCRIMP-style (write-based)"]
    out["SCRIMP-style (per 8-bit operand)"] = {
        k: v * segment_bits for k, v in per_conv.items()}
    return out
