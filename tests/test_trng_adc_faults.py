"""Unit tests for repro.reram.trng, adc, faults and controller."""

import numpy as np
import pytest

from repro.reram.adc import Adc, AdcParams
from repro.reram.array import CrossbarArray
from repro.reram.controller import ArrayController
from repro.reram.device import DeviceParams
from repro.reram.faults import (
    BitFlipInjector,
    DEFAULT_FAULT_RATES,
    GateFaultRates,
    derive_fault_rates,
)
from repro.reram.trng import (
    ReRamTrng,
    WriteTrng,
    bit_statistics,
    von_neumann_debias,
)


class TestTrng:
    def test_balance(self):
        bits = ReRamTrng(bias=0.0, autocorr=0.0, rng=0).random_bits(100_000)
        assert abs(bits.mean() - 0.5) < 0.01

    def test_bias_visible(self):
        bits = ReRamTrng(bias=0.05, autocorr=0.0, rng=0).random_bits(100_000)
        assert bits.mean() > 0.53

    def test_debias_removes_bias(self):
        t = ReRamTrng(bias=0.08, autocorr=0.0, debias=True, rng=0)
        bits = t.random_bits(50_000)
        assert bits.size == 50_000
        assert abs(bits.mean() - 0.5) < 0.01
        assert t.reads_issued > 2 * t.bits_generated

    def test_cost_per_bit(self):
        raw = ReRamTrng(bias=0.0, debias=False).cost_per_bit(2e-9, 1e-13)
        deb = ReRamTrng(bias=0.0, debias=True).cost_per_bit(2e-9, 1e-13)
        assert raw.latency_s == pytest.approx(2e-9)
        assert deb.latency_s == pytest.approx(8e-9)   # 4 reads/bit at p=0.5
        assert raw.cell_writes == 0.0

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            ReRamTrng(rng=0).random_bits(-1)

    @staticmethod
    def _loop_raw_bits(trng, count):
        """The per-copy reference loop the vectorised mixing must match."""
        bits = (trng._gen.random(count) < 0.5 + trng.bias).astype(np.uint8)
        rho = trng.autocorr
        if rho != 0.0 and count > 1:
            copy = trng._gen.random(count - 1) < abs(rho)
            for i in np.flatnonzero(copy):
                bits[i + 1] = bits[i] if rho > 0 else 1 - bits[i]
        return bits

    @pytest.mark.parametrize("rho", [0.01, -0.01, 0.5, -0.5, 1.0, -1.0])
    def test_raw_bits_match_loop_reference(self, rho):
        draw = np.random.default_rng(abs(int(rho * 100)) + (rho < 0))
        counts = [0, 1, 2] + [int(c) for c in draw.integers(3, 5000, 6)]
        for count in counts:
            bias = float(draw.uniform(-0.2, 0.2))
            seed = int(draw.integers(1 << 30))
            fast = ReRamTrng(bias=bias, autocorr=rho, rng=seed)
            ref = ReRamTrng(bias=bias, autocorr=rho, rng=seed)
            got = fast._raw_bits(count)
            want = self._loop_raw_bits(ref, count)
            assert got.dtype == np.uint8
            np.testing.assert_array_equal(got, want, err_msg=f"{count=}")
            # Same draws consumed: the two generators stay in step.
            assert fast._gen.random() == ref._gen.random()


class TestWriteTrng:
    def test_balance_at_v50(self):
        bits = WriteTrng(rng=0).random_bits(50_000)
        assert abs(bits.mean() - 0.5) < 0.02

    def test_voltage_skews(self):
        p = DeviceParams()
        hi = WriteTrng(p, voltage=p.v_set50 + 0.1, rng=0).random_bits(20_000)
        assert hi.mean() > 0.7

    def test_write_cost_dominates(self):
        c = WriteTrng().cost_per_bit(50e-9, 1e-12, 2e-9, 1e-13)
        assert c.cell_writes == 2.0
        assert c.latency_s == pytest.approx(102e-9)


class TestDebiasAndStats:
    def test_von_neumann_on_biased_input(self):
        gen = np.random.default_rng(0)
        raw = (gen.random(200_000) < 0.7).astype(np.uint8)
        out = von_neumann_debias(raw)
        assert abs(out.mean() - 0.5) < 0.02
        # Keep rate ~ 2 p (1-p) = 0.42 of pairs.
        assert out.size == pytest.approx(0.21 * raw.size, rel=0.1)

    def test_statistics_fields(self):
        bits = np.array([1, 0, 1, 0, 1, 0, 1, 0])
        s = bit_statistics(bits)
        assert s["ones_fraction"] == 0.5
        assert s["runs"] == 8
        assert s["lag1_autocorr"] < 0   # perfectly alternating

    def test_statistics_needs_bits(self):
        with pytest.raises(ValueError):
            bit_statistics(np.array([1]))


class TestAdc:
    def test_quantisation(self):
        adc = Adc(AdcParams(noise_sigma_lsb=0.0), full_scale=1.0, rng=0)
        assert int(adc.sample(0.5)) == 128
        assert int(adc.sample(1.0)) == 255
        assert int(adc.sample(0.0)) == 0

    def test_clipping(self):
        adc = Adc(AdcParams(noise_sigma_lsb=0.0), full_scale=1.0, rng=0)
        assert int(adc.sample(2.0)) == 255
        assert int(adc.sample(-0.5)) == 0

    def test_to_fraction(self):
        adc = Adc(AdcParams(noise_sigma_lsb=0.0), full_scale=2.0, rng=0)
        assert float(adc.to_fraction(1.0)) == pytest.approx(0.5, abs=1 / 255)

    def test_cost_accounting(self):
        adc = Adc(full_scale=1.0, rng=0)
        adc.sample(np.linspace(0, 1, 10))
        assert adc.conversions == 10
        assert adc.total_energy_j == pytest.approx(10 * adc.params.e_conversion_j)

    def test_bad_full_scale(self):
        with pytest.raises(ValueError):
            Adc(full_scale=0.0)


class TestFaultRates:
    def test_derivation_ordering(self):
        rates = derive_fault_rates(trials_per_case=2048, seed=0)
        # OR enjoys the widest margin; AND/XOR/MAJ share tight margins.
        assert rates.or2 <= rates.and2
        assert rates.and2 < 0.05

    def test_sigma_widening_increases_rates(self):
        lo = derive_fault_rates(DeviceParams(hrs_sigma=0.3),
                                trials_per_case=4096, seed=1)
        hi = derive_fault_rates(DeviceParams(hrs_sigma=0.8),
                                trials_per_case=4096, seed=1)
        assert hi.mean() > lo.mean()

    def test_for_gate_lookup(self):
        r = DEFAULT_FAULT_RATES
        assert r.for_gate("nand") == r.and2
        assert r.for_gate("xnor") == r.xor2
        with pytest.raises(ValueError):
            r.for_gate("mystery")

    def test_scaled_caps_at_one(self):
        r = GateFaultRates(0.5, 0.5, 0.5, 0.5).scaled(10)
        assert r.and2 == 1.0


class TestInjector:
    def test_zero_rate_identity(self):
        bits = np.random.default_rng(0).integers(0, 2, 1000).astype(np.uint8)
        out = BitFlipInjector(0.0, rng=1).inject(bits)
        assert np.array_equal(out, bits)

    def test_rate_respected(self):
        bits = np.zeros(200_000, dtype=np.uint8)
        out = BitFlipInjector(0.01, rng=2).inject(bits)
        assert out.mean() == pytest.approx(0.01, rel=0.2)

    def test_gate_rates_dispatch(self):
        inj = BitFlipInjector(GateFaultRates(1.0, 0.0, 0.0, 0.0), rng=3)
        ones = np.ones(100, dtype=np.uint8)
        assert BitFlipInjector(GateFaultRates(1.0, 0, 0, 0), rng=3).inject(
            ones, gate="and").sum() == 0
        assert inj.inject(ones, gate="or").sum() == 100

    def test_gate_required_with_rate_table(self):
        inj = BitFlipInjector(DEFAULT_FAULT_RATES, rng=0)
        with pytest.raises(ValueError):
            inj.inject(np.zeros(4, dtype=np.uint8))

    def test_word_injection_flips_significance(self):
        inj = BitFlipInjector(0.5, rng=4)
        words = np.zeros(10_000, dtype=np.int64)
        out = inj.inject_words(words, bits=8)
        assert out.max() > 128   # high-significance flips occur


class TestController:
    def test_region_allocation(self):
        arr = CrossbarArray(16, 32, rng=0)
        ctl = ArrayController(arr, {"a": 8, "rn": 4, "work": 2})
        assert ctl.row("rn", 0) == 8
        assert ctl.row("work", 1) == 13
        with pytest.raises(IndexError):
            ctl.row("work", 5)
        with pytest.raises(KeyError):
            ctl.region("nope")

    def test_region_overflow(self):
        arr = CrossbarArray(4, 8, rng=0)
        with pytest.raises(ValueError):
            ArrayController(arr, {"a": 3, "b": 3})

    def test_trace_and_counts(self):
        arr = CrossbarArray(4, 16, rng=0)
        ctl = ArrayController(arr, {"d": 4})
        ctl.write_row(0, np.ones(16, dtype=np.uint8))
        ctl.write_row(1, np.zeros(16, dtype=np.uint8))
        ctl.read_row(0)
        ctl.sl_op("and", [0, 1])
        ctl.latch_op()
        counts = ctl.counts()
        assert counts == {"write": 2, "read": 1, "sl": 1, "sl_and": 1,
                          "latch": 1}
        ctl.reset_trace()
        assert ctl.counts() == {}
