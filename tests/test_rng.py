"""Unit tests for repro.core.rng."""

import numpy as np
import pytest

from repro.core.rng import (
    CounterRng,
    Lfsr,
    PAPER_POLY_8,
    PRIMITIVE_POLY_8,
    SobolRng,
    SoftwareRng,
    lfsr_period,
)


class TestSoftwareRng:
    def test_range(self):
        r = SoftwareRng(8, seed=0)
        vals = r.integers(10_000)
        assert vals.min() >= 0 and vals.max() < 256

    def test_uniformity(self):
        r = SoftwareRng(8, seed=0)
        vals = r.integers(100_000)
        assert abs(vals.mean() - 127.5) < 1.0

    def test_reset_reproduces(self):
        r = SoftwareRng(8, seed=7)
        a = r.integers(32)
        r.reset()
        assert np.array_equal(r.integers(32), a)

    def test_uniforms_in_unit_interval(self):
        u = SoftwareRng(8, seed=0).uniforms(1000)
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_bits_bounds(self):
        with pytest.raises(ValueError):
            SoftwareRng(0)
        with pytest.raises(ValueError):
            SoftwareRng(33)


class TestLfsr:
    def test_default_is_maximal(self):
        assert Lfsr().is_maximal()
        assert Lfsr().period == 255

    def test_paper_polynomial_not_maximal(self):
        # x^8+x^5+x^3+1 factors as (x^5+1)(x^3+1): the paper's footnote
        # polynomial cannot be maximal-length.
        assert not Lfsr(PAPER_POLY_8).is_maximal()

    def test_period_function_agrees(self):
        assert lfsr_period(PRIMITIVE_POLY_8, 8) == 255

    def test_sequence_cycles(self):
        r = Lfsr(seed=1)
        first = r.integers(255)
        second = r.integers(255)
        assert np.array_equal(first, second)

    def test_never_emits_zero_state(self):
        vals = Lfsr(seed=1).integers(255)
        assert 0 not in vals

    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            Lfsr(seed=0)

    def test_visits_all_nonzero_states(self):
        vals = Lfsr(seed=42).integers(255)
        assert len(set(int(v) for v in vals)) == 255

    def test_reset(self):
        r = Lfsr(seed=3)
        a = r.integers(10)
        r.reset()
        assert np.array_equal(r.integers(10), a)


class TestSobol:
    def test_dim0_is_bit_reversal(self):
        r = SobolRng(8, dim=0)
        vals = r.integers(4)
        # First points of the base-2 radical inverse (Gray-code order
        # visits the same set: 0, 1/2, 3/4, 1/4).
        assert vals[1] == 128
        assert set(int(v) for v in vals) == {0, 128, 64, 192}

    def test_stratification_first_power_of_two(self):
        # The first 2^k Sobol points hit each of the 2^k equal bins once.
        r = SobolRng(8, dim=0)
        vals = r.integers(256)
        assert len(set(int(v) for v in vals)) == 256

    def test_higher_dims_stratify(self):
        for dim in range(1, 9):
            r = SobolRng(8, dim=dim)
            vals = r.integers(256)
            assert len(set(int(v) for v in vals)) == 256, f"dim {dim}"

    def test_unsupported_dim(self):
        with pytest.raises(ValueError):
            SobolRng(8, dim=99)

    def test_scramble_changes_sequence_not_stratification(self):
        plain = SobolRng(8, dim=0).integers(256)
        scram = SobolRng(8, dim=0, scramble_seed=5).integers(256)
        assert not np.array_equal(plain, scram)
        assert len(set(int(v) for v in scram)) == 256

    def test_reset(self):
        r = SobolRng(8)
        a = r.integers(16)
        r.reset()
        assert np.array_equal(r.integers(16), a)

    @pytest.mark.parametrize("dim", [0, 1, 4, 8])
    @pytest.mark.parametrize("scramble_seed", [None, 0, 12345])
    def test_table_matches_point_construction(self, dim, scramble_seed):
        r = SobolRng(8, dim=dim, scramble_seed=scramble_seed)
        # Several calls, crossing the 256-point period boundary.
        got = np.concatenate([r.integers(n) for n in (3, 250, 300, 1)])
        want = r._point(np.arange(got.size, dtype=np.int64) % 256)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)

    def test_wide_source_computes_points_on_demand(self):
        r = SobolRng(20, dim=1, scramble_seed=3)
        idx = np.arange(5, dtype=np.int64) + (1 << 20) - 2
        r._index = int(idx[0])
        np.testing.assert_array_equal(r.integers(5),
                                      r._point(idx % (1 << 20)))


class TestCounter:
    def test_ramp(self):
        assert list(CounterRng(4).integers(5)) == [0, 1, 2, 3, 4]

    def test_wraps(self):
        r = CounterRng(2, start=2)
        assert list(r.integers(4)) == [2, 3, 0, 1]

    def test_reset(self):
        r = CounterRng(4, start=7)
        r.integers(3)
        r.reset()
        assert r.integers(1)[0] == 7
