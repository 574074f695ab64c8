"""Tests for the mapping layer, wear tracking and the CLI."""

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.energy.nvmain import MemorySystem
from repro.imsc.mapping import ScProgram, map_program
from repro.reram.array import CrossbarArray
from repro.reram.wear import RotatingRowAllocator, wear_report


class TestScProgram:
    def test_build_and_streams(self):
        p = (ScProgram(length=64)
             .convert("f").convert("b").convert("a")
             .op("maj3", "c", "f", "b", "a")
             .to_binary("c"))
        assert p.streams == ["a", "b", "c", "f"]
        assert len(p.statements) == 5

    def test_use_before_define(self):
        p = ScProgram()
        with pytest.raises(ValueError):
            p.op("and", "z", "x", "y")

    def test_double_define(self):
        p = ScProgram().convert("x")
        with pytest.raises(ValueError):
            p.convert("x")

    def test_bad_arity(self):
        p = ScProgram().convert("x").convert("y")
        with pytest.raises(ValueError):
            p.op("and", "z", "x")
        with pytest.raises(ValueError):
            p.op("warp", "z", "x", "y")

    def test_bad_length(self):
        with pytest.raises(ValueError):
            ScProgram(length=0)


class TestMapping:
    def _compositing_program(self):
        return (ScProgram(length=128)
                .convert("f").convert("b").convert("a")
                .op("maj3", "c", "f", "b", "a")
                .to_binary("c"))

    def test_rows_allocated(self):
        m = map_program(self._compositing_program(), n_banks=4)
        assert set(m.rows) == {"f", "b", "a", "c"}
        banks = {bank for bank, _ in m.rows.values()}
        assert 3 in banks                   # compute bank used
        assert any(b < 3 for b in banks)    # conversion banks used

    def test_trace_simulates(self):
        m = map_program(self._compositing_program(), n_banks=4)
        res = MemorySystem(4).simulate(m.trace)
        assert res.makespan_s > 0
        # Conversions pipeline: makespan well below the serial sum.
        serial = MemorySystem(2).simulate(
            map_program(self._compositing_program(), n_banks=2).trace)
        assert res.makespan_s < serial.makespan_s

    def test_division_program(self):
        p = (ScProgram(length=32)
             .convert("n").convert("d")
             .divide("q", "n", "d")
             .to_binary("q"))
        m = map_program(p, n_banks=3)
        div_steps = [t for t in m.trace if t.tag == "div"]
        assert len(div_steps) == 32

    def test_mux_three_steps(self):
        p = (ScProgram(length=16)
             .convert("a").convert("b").convert("s")
             .op("mux", "o", "s", "a", "b"))
        m = map_program(p, n_banks=3)
        mux_steps = [t for t in m.trace if t.tag == "mux"]
        assert len(mux_steps) == 3

    def test_row_exhaustion(self):
        p = ScProgram()
        for i in range(5):
            p.convert(f"s{i}")
        with pytest.raises(ValueError):
            map_program(p, n_banks=2, rows_per_mat=2)

    def test_min_banks(self):
        with pytest.raises(ValueError):
            map_program(ScProgram().convert("x"), n_banks=1)


class TestWear:
    def test_report_fields(self):
        arr = CrossbarArray(4, 16, rng=0)
        for i in range(20):
            arr.write_row(0, np.full(16, i % 2, dtype=np.uint8))
        rep = wear_report(arr, writes_per_conversion=1.0)
        assert rep.max_writes == 19
        assert rep.hottest_row == 0
        assert 0 < rep.endurance_fraction < 1
        assert rep.lifetime_conversions == arr.device.params.write_endurance

    def test_rotation_balances(self):
        alloc = RotatingRowAllocator(start_row=8, region_size=4)
        for _ in range(40):
            row = alloc.next_row()
            assert 8 <= row < 12
        assert alloc.imbalance() == pytest.approx(1.0)
        assert alloc.total_allocations == 40
        assert set(alloc.writes_per_row().values()) == {10}

    def test_region_validation(self):
        with pytest.raises(ValueError):
            RotatingRowAllocator(0, 0)


class TestCli:
    def test_table3(self, capsys):
        assert cli_main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "Table III" in out
        assert "ReRAM (IMSNG-opt)" in out

    def test_imsng(self, capsys):
        assert cli_main(["imsng"]) == 0
        out = capsys.readouterr().out
        assert "IMSNG-naive" in out and "SCRIMP" in out

    def test_fig4(self, capsys):
        assert cli_main(["fig4"]) == 0
        assert "Fig. 4" in capsys.readouterr().out

    def test_table1_quick(self, capsys):
        assert cli_main(["table1", "--samples", "500"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_table4_jobs_without_tile(self, capsys):
        # Whole-image runs fan out one run_app call per task, so --jobs
        # needs no --tile, and the printed table does not depend on it.
        args = ["table4", "--runs", "1", "--size", "8"]
        assert cli_main(args) == 0
        serial = capsys.readouterr().out
        assert cli_main(args + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_bad_target(self):
        with pytest.raises(SystemExit):
            cli_main(["table9"])
