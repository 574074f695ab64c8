"""Unit/integration tests for repro.analysis (tables, experiments, sweeps)."""

import numpy as np
import pytest

from repro.analysis.tables import dict_grid_to_rows, format_value, render_table
from repro.analysis.sweep import grid, run_sweep
from repro.analysis import experiments as ex


class TestTables:
    def test_format_value(self):
        assert format_value(None) == "-"
        assert format_value("x") == "x"
        assert format_value(3) == "3"
        assert format_value(0.125) == "0.125"
        assert "e" in format_value(1.2e-7)

    def test_render(self):
        out = render_table(["a", "b"], [[1, 2.5], ["x", None]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "2.500" in out and "-" in out

    def test_row_length_check(self):
        with pytest.raises(ValueError):
            render_table(["a"], [[1, 2]])

    def test_dict_grid(self):
        rows = dict_grid_to_rows({"r": {"x": 1, "y": 2}}, ["y", "x"])
        assert rows == [["r", 2, 1]]


class TestSweep:
    def test_grid(self):
        pts = grid(a=[1, 2], b=["x"])
        assert pts == [{"a": 1, "b": "x"}, {"a": 2, "b": "x"}]

    def test_run_sweep(self):
        recs = run_sweep(lambda a: a * 2, grid(a=[1, 2, 3]))
        assert [r["result"] for r in recs] == [2, 4, 6]


class TestTable1:
    def test_structure_and_orderings(self):
        t1 = ex.table1_sng_mse(lengths=(32, 128), segment_sizes=(8,),
                               samples=4_000, seed=0)
        assert set(t1) == {"IMSNG M=8", "Software", "PRNG (LFSR)",
                          "QRNG (Sobol)"}
        for row in t1.values():
            # MSE decreases with stream length for every source.
            assert row[128] < row[32]
        # QRNG is by far the best; LFSR the worst at short lengths.
        assert t1["QRNG (Sobol)"][32] < t1["Software"][32] / 5
        assert t1["PRNG (LFSR)"][32] > t1["Software"][32]
        # IMSNG tracks the software baseline within 2x.
        assert t1["IMSNG M=8"][32] < 2 * t1["Software"][32]

    def test_jobs_do_not_change_the_table(self):
        # The runner routes through the factory-sharded harness: every
        # cell is a pure function of (seed, chunk), so fanning the
        # Monte-Carlo chunks over workers cannot move the table.  Several
        # rows x lengths, each cell two chunks (> one 8192-sample chunk):
        # the one batch over the pool must slice every cell's chunk totals
        # back out exactly, as a single-cell harness call reduces them.
        kwargs = dict(lengths=(32, 64), segment_sizes=(8,), samples=8_300,
                      seed=3)
        t1 = ex.table1_sng_mse(jobs=1, **kwargs)
        assert ex.table1_sng_mse(jobs=3, **kwargs) == t1
        assert t1["PRNG (LFSR)"][64] == ex.sng_mse(
            ex.SngFactory("lfsr"), 64, 8_300, seed=3 + 64)


class TestTable2:
    def test_structure(self):
        t2 = ex.table2_ops_mse(lengths=(32,), ops=("multiplication",
                                                   "division"),
                               sources=("software", "sobol"),
                               samples=2_000, seed=1)
        assert set(t2) == {"multiplication", "division"}
        assert t2["multiplication"]["sobol"][32] < \
            t2["multiplication"]["software"][32]
        assert t2["division"]["software"][32] > \
            t2["multiplication"]["software"][32]

    def test_jobs_do_not_change_the_table(self):
        # Two ops x two sources x two lengths, each cell two chunks
        # (> one 4096-sample chunk); see TestTable1.
        kwargs = dict(lengths=(32, 64), ops=("multiplication", "minimum"),
                      sources=("software", "lfsr"), samples=4_200, seed=2)
        t2 = ex.table2_ops_mse(jobs=1, **kwargs)
        assert ex.table2_ops_mse(jobs=2, **kwargs) == t2
        assert t2["minimum"]["lfsr"][32] == ex.op_mse(
            "minimum", ex.SngFactory("lfsr"), 32, 4_200, seed=2 + 32)


class TestTable3:
    def test_all_designs_present(self):
        t3 = ex.table3_hw_cost()
        assert set(t3) == {"CMOS (LFSR)", "CMOS (Sobol)", "ReRAM (IMSNG-opt)"}
        for rows in t3.values():
            assert set(rows) == {"Multiplication", "Addition", "Subtraction",
                                 "Division"}

    def test_headline_relations(self):
        t3 = ex.table3_hw_cost()
        # ReRAM single-cycle ops beat the bit-serial CMOS latency.
        assert (t3["ReRAM (IMSNG-opt)"]["Multiplication"]["latency_ns"]
                < t3["CMOS (LFSR)"]["Multiplication"]["latency_ns"])
        # CORDIV division is the ReRAM design's latency outlier.
        assert (t3["ReRAM (IMSNG-opt)"]["Division"]["latency_ns"]
                > 100 * t3["ReRAM (IMSNG-opt)"]["Multiplication"]["latency_ns"])


class TestTable4:
    def test_grid_and_claims(self):
        t4 = ex.table4_quality(lengths=(32, 128), runs=1, size=24, seed=0)
        assert "Binary CIM [ideal]" in t4
        assert "SC N=32 [faulty]" in t4
        # Binary CIM ideal is near-perfect.
        assert t4["Binary CIM [ideal]"]["compositing"][0] > 99
        # SC quality rises with N (fault-free matting).
        assert (t4["SC N=128 [ideal]"]["matting"][1]
                > t4["SC N=32 [ideal]"]["matting"][1])
        drops = ex.quality_drop_summary(t4)
        # The headline: binary CIM collapses under faults, SC does not.
        assert drops["bincim_avg_ssim_drop_pct"] > \
            4 * drops["sc_avg_ssim_drop_pct"]

    @pytest.mark.parametrize("tile", [8, None])
    def test_jobs_do_not_change_the_table(self, tile):
        kwargs = dict(lengths=(32,), runs=2, size=16, seed=1, tile=tile)
        t4 = ex.table4_quality(jobs=1, **kwargs)
        assert ex.table4_quality(jobs=2, **kwargs) == t4
        # Each cell averages its own runs, as direct run_app calls do.
        for row, app, backend, shard in (
                ("SC N=32 [faulty]", "matting", "sc", dict(tile=tile)),
                ("Binary CIM [faulty]", "interpolation", "bincim", {})):
            runs = [ex.run_app(app, backend, length=32, faulty=True,
                               size=16, seed=1 + r, **shard)
                    for r in range(2)]
            assert t4[row][app] == (
                float(np.mean([r.ssim_pct for r in runs])),
                float(np.mean([r.psnr_db for r in runs])))

    def test_zero_runs_rejected(self):
        with pytest.raises(ValueError, match="runs"):
            ex.table4_quality(lengths=(32,), runs=0, size=8)


class TestOnePoolPerTable:
    @pytest.fixture
    def pools(self, monkeypatch):
        from repro.serve import pool

        made = []

        class CountingPool(pool.WorkerPool):
            def __init__(self, *args, **kwargs):
                made.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(pool, "WorkerPool", CountingPool)
        return made

    @pytest.mark.parametrize("run", [
        lambda: ex.table1_sng_mse(lengths=(32, 64), segment_sizes=(8,),
                                  samples=256, jobs=2),
        lambda: ex.table2_ops_mse(lengths=(32, 64),
                                  ops=("multiplication",),
                                  sources=("software", "lfsr"),
                                  samples=256, jobs=2),
        lambda: ex.table4_quality(lengths=(32,), runs=1, size=8, tile=4,
                                  jobs=2),
    ], ids=["table1", "table2", "table4"])
    def test_one_worker_pool_per_table_call(self, pools, run):
        run()
        assert len(pools) == 1


class TestFigures:
    def test_fig4_orderings(self):
        f4 = ex.fig4_energy()
        for app in ("compositing", "interpolation", "matting"):
            reram = f4[app]["ReRAM SC"]
            # ReRAM SC savings decrease monotonically with N.
            ns = sorted(reram)
            assert all(reram[a] > reram[b] for a, b in zip(ns, ns[1:]))
            # ReRAM beats CMOS at N = 32 and 64 (paper Sec. IV-B).
            for n in (32, 64):
                assert reram[n] > f4[app]["CMOS SC"][n]
        # Bilinear interpolation: ReRAM wins at every length.
        for n, v in f4["interpolation"]["ReRAM SC"].items():
            assert v > f4["interpolation"]["CMOS SC"][n]
        # At N = 256 compositing flips to CMOS (SBS write cost dominates).
        assert (f4["compositing"]["CMOS SC"][256]
                > f4["compositing"]["ReRAM SC"][256])

    def test_fig5_orderings(self):
        f5 = ex.fig5_throughput()
        # ReRAM SC throughput beats binary CIM for MAJ/MUX-based apps.
        for app in ("compositing", "interpolation"):
            for v in f5[app]["ReRAM SC"].values():
                assert v > 1.0
        # CORDIV's serial recurrence makes matting the slow case.
        assert f5["matting"]["ReRAM SC"][256] < 1.0

    def test_headline_factors(self):
        s = ex.summarize_figures(ex.fig4_energy(), ex.fig5_throughput())
        # Paper: 2.8x energy and 2.16x throughput vs binary CIM;
        # 1.15x energy and 1.39x throughput vs CMOS.  Shapes must hold
        # within a factor-2 band.
        assert 1.4 < s["reram_energy_savings_vs_bincim"] < 5.6
        assert 1.1 < s["reram_throughput_vs_bincim"] < 4.4
        assert 0.6 < s["reram_vs_cmos_energy"] < 2.3
        assert 0.7 < s["reram_vs_cmos_throughput"] < 2.8


class TestImsngVariants:
    def test_paper_numbers(self):
        v = ex.imsng_variants()
        assert v["IMSNG-naive"]["latency_ns"] == pytest.approx(395.4, rel=0.01)
        assert v["IMSNG-opt"]["latency_ns"] == pytest.approx(78.2, rel=0.01)
        assert v["IMSNG-naive"]["energy_nj"] == pytest.approx(10.23, rel=0.01)
        assert v["IMSNG-opt"]["energy_nj"] == pytest.approx(3.42, rel=0.02)
        # The optimisation is ~5x latency and ~3x energy.
        assert v["IMSNG-naive"]["latency_ns"] / \
            v["IMSNG-opt"]["latency_ns"] > 4.5
