"""ReRAM true random number generation.

Two physical entropy sources are modelled:

* :class:`ReRamTrng` — **read-noise TRNG** (Schnieders et al. 2024; Woo et
  al. 2019): a cell programmed near the sensing boundary is read repeatedly;
  read noise makes the comparator output flip randomly.  Reads are cheap and
  endurance-free, which is why the paper builds IMSNG on this source.  The
  raw bit-stream has a bias set by how precisely the cell sits on the
  boundary, plus a small lag-1 correlation from slow noise components; an
  optional von Neumann corrector trades throughput for unbiased output.

* :class:`WriteTrng` — **switching-stochasticity TRNG** (SCRIMP and prior
  work): pulse a cell at the 50%-switching voltage and read whether it
  flipped.  Each bit costs a RESET + SET-attempt + read, which is slow and
  wears the cell out — the cost model exposes exactly why the paper avoids
  it.

Both implement the :class:`repro.core.sng.BitSource` interface so they plug
straight into :class:`repro.core.sng.SegmentSng` and the in-memory IMSNG.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ..core.sng import BitSource
from .device import DEFAULT_DEVICE, DeviceParams

__all__ = ["ReRamTrng", "WriteTrng", "von_neumann_debias", "bit_statistics"]


def von_neumann_debias(bits: np.ndarray) -> np.ndarray:
    """Von Neumann corrector: map bit pairs 01 -> 0, 10 -> 1, drop 00/11.

    Removes bias exactly (for independent bits) at the cost of keeping only
    ``2 p (1 - p)`` of the input pairs.
    """
    arr = np.asarray(bits, dtype=np.uint8).ravel()
    if arr.size % 2:
        arr = arr[:-1]
    pairs = arr.reshape(-1, 2)
    keep = pairs[:, 0] != pairs[:, 1]
    return pairs[keep, 1].copy()


def bit_statistics(bits: np.ndarray) -> dict:
    """Simple randomness health checks: bias, lag-1 autocorrelation, runs.

    A lightweight stand-in for the NIST SP 800-22 frequency / runs tests,
    sufficient to characterise the modelled entropy sources.
    """
    arr = np.asarray(bits, dtype=np.float64).ravel()
    n = arr.size
    if n < 2:
        raise ValueError("need at least 2 bits")
    p1 = float(arr.mean())
    centred = arr - p1
    denom = float(np.sum(centred * centred))
    lag1 = float(np.sum(centred[:-1] * centred[1:]) / denom) if denom > 0 else 0.0
    runs = 1 + int(np.count_nonzero(np.diff(arr)))
    # Expected number of runs for an i.i.d. sequence with this bias.
    expected_runs = 1 + 2 * n * p1 * (1 - p1)
    return {
        "bias": p1 - 0.5,
        "ones_fraction": p1,
        "lag1_autocorr": lag1,
        "runs": runs,
        "runs_expected": expected_runs,
    }


@dataclass(frozen=True)
class TrngCost:
    """Per-bit generation cost of an entropy source."""

    latency_s: float
    energy_j: float
    cell_writes: float


class ReRamTrng(BitSource):
    """Read-noise TRNG harvesting one bit per (cheap) read.

    Parameters
    ----------
    params:
        Device parameters (read latency/energy are taken from the energy
        model at accounting time; here only statistical behaviour matters).
    bias:
        Residual probability offset of the raw source, ``P(1) = 0.5 + bias``.
        Reflects imperfect tuning of the cell onto the sensing boundary;
        a few permille is typical after calibration.
    autocorr:
        Lag-1 autocorrelation from slow (1/f) noise components.
    debias:
        Apply the von Neumann corrector (halves-to-quarters throughput,
        removes bias).
    """

    def __init__(self, params: DeviceParams = DEFAULT_DEVICE,
                 bias: float = 0.004, autocorr: float = 0.01,
                 debias: bool = False,
                 rng: Union[np.random.Generator, int, None] = None):
        self.params = params
        self.bias = bias
        self.autocorr = autocorr
        self.debias = debias
        self._gen = (rng if isinstance(rng, np.random.Generator)
                     else np.random.default_rng(rng))
        self.bits_generated = 0
        self.reads_issued = 0

    def _raw_bits(self, count: int) -> np.ndarray:
        p1 = 0.5 + self.bias
        bits = (self._gen.random(count) < p1).view(np.uint8)
        rho = self.autocorr
        if rho != 0.0 and count > 1:
            # First-order Markov mixing: with prob |rho|, bit j repeats bit
            # j - 1 (rho > 0) or its complement (rho < 0).  Applied left to
            # right, a run of overwritten positions all derive from the bit
            # just before the run (its anchor), flipped once per step when
            # rho < 0.
            j = np.flatnonzero(self._gen.random(count - 1) < abs(rho)) + 1
            if j.size:
                starts = np.ones(j.size, dtype=bool)
                starts[1:] = j[1:] != j[:-1] + 1
                anchor = (j[starts] - 1)[np.cumsum(starts) - 1]
                new = bits[anchor]
                if rho < 0:
                    new ^= ((j - anchor) & 1).astype(np.uint8)
                bits[j] = new
        return bits

    def random_bits(self, count: int) -> np.ndarray:
        if count < 0:
            raise ValueError("count must be >= 0")
        if not self.debias:
            self.reads_issued += count
            self.bits_generated += count
            return self._raw_bits(count)
        out = np.empty(0, dtype=np.uint8)
        while out.size < count:
            chunk = max(4 * (count - out.size), 64)
            raw = self._raw_bits(chunk)
            self.reads_issued += chunk
            out = np.concatenate([out, von_neumann_debias(raw)])
        self.bits_generated += count
        return out[:count]

    def cost_per_bit(self, t_read_s: float, e_read_j: float) -> TrngCost:
        """Average per-output-bit cost given per-read latency/energy."""
        if self.debias:
            # A pair of reads yields one bit with prob 2p(1-p).
            p = 0.5 + self.bias
            reads_per_bit = 2.0 / (2.0 * p * (1.0 - p))
        else:
            reads_per_bit = 1.0
        return TrngCost(latency_s=reads_per_bit * t_read_s,
                        energy_j=reads_per_bit * e_read_j,
                        cell_writes=0.0)


class WriteTrng(BitSource):
    """Switching-stochasticity TRNG: one bit per RESET + probabilistic SET.

    The entropy source of SCRIMP-style designs.  Every output bit consumes
    two write pulses (RESET to a known state, then a SET attempt at the
    50%-probability voltage) plus a read — slow, energy-hungry, and it wears
    out the cell, which is precisely the drawback the paper's IMSNG removes.
    """

    def __init__(self, params: DeviceParams = DEFAULT_DEVICE,
                 voltage: Optional[float] = None,
                 rng: Union[np.random.Generator, int, None] = None):
        self.params = params
        self.voltage = params.v_set50 if voltage is None else voltage
        self._gen = (rng if isinstance(rng, np.random.Generator)
                     else np.random.default_rng(rng))
        z = (self.voltage - params.v_set50) / params.v_set_slope
        self._p_switch = 1.0 / (1.0 + np.exp(-z))
        self.bits_generated = 0

    def random_bits(self, count: int) -> np.ndarray:
        if count < 0:
            raise ValueError("count must be >= 0")
        self.bits_generated += count
        return (self._gen.random(count) < self._p_switch).astype(np.uint8)

    def cost_per_bit(self, t_write_s: float, e_write_j: float,
                     t_read_s: float, e_read_j: float) -> TrngCost:
        """Two write pulses plus one verifying read per bit."""
        return TrngCost(
            latency_s=2.0 * t_write_s + t_read_s,
            energy_j=2.0 * e_write_j + e_read_j,
            cell_writes=2.0,
        )
