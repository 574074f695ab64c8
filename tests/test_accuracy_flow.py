"""Unit tests for repro.core.accuracy and repro.core.flow."""

import numpy as np
import pytest

from repro.core import ops
from repro.core.accuracy import OP_SPECS, op_mse, sng_mse
from repro.core.flow import ScFlow
from repro.core.rng import SobolRng, SoftwareRng
from repro.core.sng import ComparatorSng


class TestSngMse:
    def test_software_matches_binomial_variance(self):
        # E[(p_hat - p)^2] = p(1-p)/N; averaged over uniform p -> 1/(6N).
        sng = ComparatorSng(SoftwareRng(8, seed=0))
        for n in (32, 128):
            got = sng_mse(sng, n, samples=20_000, seed=1)
            expected = 100.0 / (6 * n)
            assert got == pytest.approx(expected, rel=0.15)

    def test_sobol_much_better_than_software(self):
        sw = sng_mse(ComparatorSng(SoftwareRng(8, seed=0)), 256, 5_000)
        qr = sng_mse(ComparatorSng(SobolRng(8)), 256, 5_000)
        assert qr < sw / 20

    def test_mse_decreases_with_length(self):
        sng = ComparatorSng(SoftwareRng(8, seed=0))
        m32 = sng_mse(sng, 32, 10_000, seed=2)
        m256 = sng_mse(sng, 256, 10_000, seed=2)
        assert m256 < m32 / 4


class TestOpMse:
    @pytest.mark.parametrize("op", list(OP_SPECS))
    def test_all_ops_finite_and_small(self, op):
        sng = ComparatorSng(SoftwareRng(8, seed=3))
        m = op_mse(op, sng, 64, samples=2_000, seed=4)
        assert 0.0 <= m < 5.0

    def test_division_worst(self):
        # Division has the highest MSE of the basic ops (Table II row order).
        sng = ComparatorSng(SoftwareRng(8, seed=5))
        div = op_mse("division", sng, 32, samples=3_000, seed=6)
        mul = op_mse("multiplication", sng, 32, samples=3_000, seed=6)
        assert div > mul

    def test_mux_and_maj_addition_agree(self):
        sng = ComparatorSng(SoftwareRng(8, seed=7))
        maj = op_mse("scaled_addition", sng, 64, samples=3_000, seed=8)
        mux = op_mse("scaled_addition_mux", sng, 64, samples=3_000, seed=8)
        assert maj == pytest.approx(mux, rel=0.5)


def _sng_factory(seed_seq):
    """Module-level (picklable) per-chunk SNG factory for sharded op_mse."""
    return ComparatorSng(
        SoftwareRng(8, seed=int(seed_seq.generate_state(1)[0])))


class TestOpMseSharded:
    def test_jobs_do_not_change_result(self):
        # Chunk determinism: per-chunk SeedSequence children make the MSE a
        # pure function of (seed, chunk), independent of the worker count.
        base = op_mse("multiplication", _sng_factory, 64, samples=2_000,
                      seed=9, chunk=512, jobs=1)
        fan = op_mse("multiplication", _sng_factory, 64, samples=2_000,
                     seed=9, chunk=512, jobs=3)
        assert fan == base

    def test_sharded_matches_expected_magnitude(self):
        m = op_mse("multiplication", _sng_factory, 64, samples=2_000,
                   seed=10, chunk=512, jobs=2)
        assert 0.0 < m < 5.0

    def test_uneven_tail_chunk_counted_once(self):
        # samples not divisible by chunk: the tail chunk is smaller, and
        # the normalisation must still be by the true sample count.
        a = op_mse("minimum", _sng_factory, 32, samples=1_000, seed=11,
                   chunk=384, jobs=1)
        b = op_mse("minimum", _sng_factory, 32, samples=1_000, seed=11,
                   chunk=384, jobs=2)
        assert a == b and 0.0 <= a < 5.0

    def test_shared_sng_rejects_jobs(self):
        sng = ComparatorSng(SoftwareRng(8, seed=0))
        with pytest.raises(ValueError, match="factory"):
            op_mse("multiplication", sng, 64, samples=100, jobs=2)

    def test_sharded_requires_spec_key(self):
        with pytest.raises(ValueError, match="OP_SPECS key"):
            op_mse(OP_SPECS["multiplication"], _sng_factory, 64,
                   samples=100, jobs=2)


class TestSngMseSharded:
    def test_jobs_do_not_change_result(self):
        # Same determinism contract as sharded op_mse: per-chunk
        # SeedSequence children make the MSE a pure function of
        # (seed, chunk), independent of the worker count.
        base = sng_mse(_sng_factory, 64, samples=2_000, seed=12, chunk=512,
                       jobs=1)
        fan = sng_mse(_sng_factory, 64, samples=2_000, seed=12, chunk=512,
                      jobs=3)
        assert fan == base

    def test_sharded_matches_expected_magnitude(self):
        # Binomial variance averaged over uniform p: 100 / (6 N).
        got = sng_mse(_sng_factory, 128, samples=10_000, seed=13,
                      chunk=2048, jobs=2)
        assert got == pytest.approx(100.0 / (6 * 128), rel=0.2)

    def test_uneven_tail_chunk_counted_once(self):
        a = sng_mse(_sng_factory, 32, samples=1_000, seed=14, chunk=384,
                    jobs=1)
        b = sng_mse(_sng_factory, 32, samples=1_000, seed=14, chunk=384,
                    jobs=2)
        assert a == b and 0.0 < a < 5.0

    def test_shared_sng_rejects_jobs(self):
        sng = ComparatorSng(SoftwareRng(8, seed=0))
        with pytest.raises(ValueError, match="factory"):
            sng_mse(sng, 64, samples=100, jobs=2)

    def test_engine_factory_shards_faulty_sweeps(self):
        # EngineFactory threads any engine axis (here: sparse fault
        # sampling) through the sharded Monte-Carlo harness.
        from repro.imsc.engine import EngineFactory
        from repro.reram.faults import DEFAULT_FAULT_RATES

        factory = EngineFactory(fault_rates=DEFAULT_FAULT_RATES,
                                fault_sampling="sparse", ideal_stob=True)
        base = sng_mse(factory, 64, samples=600, seed=15, chunk=256, jobs=1)
        fan = sng_mse(factory, 64, samples=600, seed=15, chunk=256, jobs=2)
        assert fan == base and 0.0 < base < 5.0


class TestMseGrid:
    def test_each_cell_reduces_its_own_chunks(self):
        # Three cells of three chunks (256, 256, 88) in one batch: every
        # cell must come back as the in-order sum of its own chunk totals.
        from repro.core.accuracy import _sng_mse_chunk, mse_grid, mse_tasks

        def cells():
            # Fresh tasks per use: a chunk spawns from its SeedSequence
            # child, which advances that child in-process.
            return [mse_tasks((_sng_factory, n), 600, seed, 256)
                    for n, seed in ((32, 1), (64, 2), (128, 3))]

        want = [sum(_sng_mse_chunk(t) for t in tasks) / 600 * 100.0
                for tasks in cells()]
        assert mse_grid(_sng_mse_chunk, cells(), 600, jobs=2) == want


class TestSampleCounts:
    @pytest.mark.parametrize("kwargs, name", [
        (dict(samples=0), "samples"), (dict(samples=-5), "samples"),
        (dict(samples=100, chunk=0), "chunk"),
        (dict(samples=100, chunk=-1), "chunk")])
    @pytest.mark.parametrize("sharded", [False, True])
    def test_bad_counts_rejected(self, kwargs, name, sharded):
        sng = (_sng_factory if sharded
               else ComparatorSng(SoftwareRng(8, seed=0)))
        with pytest.raises(ValueError, match=name):
            sng_mse(sng, 32, **kwargs)
        with pytest.raises(ValueError, match=name):
            op_mse("multiplication", sng, 32, **kwargs)


class TestScFlow:
    def test_multiplication_flow(self):
        flow = ScFlow(lambda s: ops.mul_and(s["a"], s["b"]),
                      sng=ComparatorSng(SoftwareRng(8, seed=0)))
        res = flow.run({"a": 0.5, "b": 0.5}, length=8192)
        assert float(res.value) == pytest.approx(0.25, abs=0.03)

    def test_correlated_group_subtraction(self):
        flow = ScFlow(lambda s: ops.sub_xor(s["x"], s["y"]),
                      correlated_groups=[("x", "y")],
                      sng=ComparatorSng(SoftwareRng(8, seed=1)))
        res = flow.run({"x": 0.8, "y": 0.3}, length=8192)
        assert float(res.value) == pytest.approx(0.5, abs=0.03)

    def test_duplicate_group_membership_rejected(self):
        with pytest.raises(ValueError):
            ScFlow(lambda s: s["a"], correlated_groups=[("a",), ("a", "b")])

    def test_keep_streams(self):
        flow = ScFlow(lambda s: s["a"])
        res = flow.run({"a": 0.5}, length=64, keep_streams=True)
        assert "a" in res.streams
        assert res.output_stream is not None

    def test_batch_inputs(self):
        flow = ScFlow(lambda s: ops.mul_and(s["a"], s["b"]))
        res = flow.run({"a": np.full(10, 0.6), "b": np.full(10, 0.5)},
                       length=4096)
        assert res.value.shape == (10,)
        assert np.allclose(res.value, 0.3, atol=0.05)
