"""Random-number sources for stochastic number generation.

An SC bit-stream generator compares an n-bit binary operand against a fresh
n-bit random number each cycle.  The quality of those random numbers
dominates SC accuracy (Table I of the paper), so this module implements every
source the paper evaluates:

* :class:`SoftwareRng` — a high-quality uniform PRNG (the paper's
  "Software - MATLAB" baseline; we use numpy's PCG64, which is statistically
  equivalent for this purpose).
* :class:`Lfsr` — a Fibonacci linear-feedback shift register, the classic
  CMOS pseudo-RNG.  The paper's footnote names the polynomial
  ``x^8 + x^5 + x^3 + 1``; that polynomial factors as ``(x^5+1)(x^3+1)`` and
  is *not* primitive, so the library defaults to the primitive
  ``x^8 + x^4 + x^3 + x^2 + 1`` (period 255) and exposes
  :meth:`Lfsr.is_maximal` so callers can check any candidate.
* :class:`SobolRng` — a quasi-random (low-discrepancy) source.  Dimension 0
  is the van der Corput radical-inverse sequence in base 2 (the classic
  1-D Sobol sequence); higher dimensions use Joe–Kuo direction numbers.
* :class:`CounterRng` — a deterministic ramp, useful for unary streams and
  as a degenerate baseline.

All sources share the :class:`RandomSource` interface: they produce unsigned
integers of a configurable bit width, vectorised over numpy arrays.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

__all__ = [
    "RandomSource",
    "SoftwareRng",
    "Lfsr",
    "SobolRng",
    "P2lsgRng",
    "CounterRng",
    "PRIMITIVE_POLY_8",
    "PAPER_POLY_8",
    "lfsr_period",
]

# Polynomial given in the paper's Table I footnote: x^8 + x^5 + x^3 + 1.
# Encoded as a tap mask over bit positions 1..degree (bit i set => tap x^i).
PAPER_POLY_8 = (8, 5, 3)
# A genuinely primitive degree-8 polynomial: x^8 + x^4 + x^3 + x^2 + 1.
PRIMITIVE_POLY_8 = (8, 4, 3, 2)


class RandomSource:
    """Interface for n-bit random-number sources.

    Subclasses implement :meth:`integers`, returning unsigned integers in
    ``[0, 2**bits)``.  Sources are stateful: consecutive calls continue the
    underlying sequence, exactly like a hardware RNG free-running across
    stream bits.
    """

    def __init__(self, bits: int):
        if bits < 1 or bits > 32:
            raise ValueError("bits must be in [1, 32]")
        self.bits = bits

    @property
    def max_value(self) -> int:
        """Exclusive upper bound of generated values (``2**bits``)."""
        return 1 << self.bits

    def integers(self, count: int) -> np.ndarray:
        """Return the next ``count`` values as an int64 array."""
        raise NotImplementedError

    def uniforms(self, count: int) -> np.ndarray:
        """Return the next ``count`` values scaled to ``[0, 1)``."""
        return self.integers(count) / float(self.max_value)

    def reset(self) -> None:
        """Rewind the source to its initial state."""
        raise NotImplementedError


class SoftwareRng(RandomSource):
    """High-quality software PRNG (paper's MATLAB ``rand`` baseline)."""

    def __init__(self, bits: int = 8, seed: Optional[int] = None):
        super().__init__(bits)
        self._seed = seed
        self._gen = np.random.default_rng(seed)

    def integers(self, count: int) -> np.ndarray:
        return self._gen.integers(0, self.max_value, size=count, dtype=np.int64)

    def reset(self) -> None:
        self._gen = np.random.default_rng(self._seed)


def _taps_to_mask(taps: Sequence[int], degree: int) -> int:
    mask = 0
    for t in taps:
        if t < 1 or t > degree:
            raise ValueError(f"tap {t} outside [1, {degree}]")
        mask |= 1 << (t - 1)
    return mask


def lfsr_period(taps: Sequence[int], degree: int, seed: int = 1) -> int:
    """Brute-force the cycle length of an LFSR from ``seed``.

    A maximal-length register visits all ``2**degree - 1`` nonzero states.
    """
    mask = _taps_to_mask(taps, degree)
    state = seed & ((1 << degree) - 1)
    if state == 0:
        raise ValueError("LFSR seed must be nonzero")
    start = state
    period = 0
    limit = 1 << degree
    while True:
        fb = bin(state & mask).count("1") & 1
        state = ((state << 1) | fb) & ((1 << degree) - 1)
        period += 1
        if state == start or period > limit:
            break
    return period


class Lfsr(RandomSource):
    """Fibonacci LFSR producing ``degree``-bit pseudo-random integers.

    Each call shifts the register once per output value and emits the full
    register contents, mirroring the common SC-hardware arrangement where the
    LFSR state feeds the comparator directly.

    Parameters
    ----------
    taps:
        Exponents of the feedback polynomial (excluding the constant term),
        e.g. ``(8, 4, 3, 2)`` for ``x^8 + x^4 + x^3 + x^2 + 1``.
    degree:
        Register width in bits; defaults to ``max(taps)``.
    seed:
        Initial nonzero register state.
    """

    def __init__(
        self,
        taps: Sequence[int] = PRIMITIVE_POLY_8,
        degree: Optional[int] = None,
        seed: int = 0xACE1 & 0xFF,
    ):
        deg = degree if degree is not None else max(taps)
        super().__init__(deg)
        self.taps = tuple(sorted(taps, reverse=True))
        self._mask = _taps_to_mask(taps, deg)
        if seed == 0:
            raise ValueError("LFSR seed must be nonzero")
        self._seed = seed & (self.max_value - 1)
        if self._seed == 0:
            self._seed = 1
        # Precompute one full cycle; generation then tiles the cycle, which
        # is exactly what the free-running hardware register produces.
        self._cycle = self._compute_cycle()
        self._pos = 0

    def _compute_cycle(self) -> np.ndarray:
        states: List[int] = []
        state = self._seed
        limit = self.max_value
        for _ in range(limit):
            states.append(state)
            fb = bin(state & self._mask).count("1") & 1
            state = ((state << 1) | fb) & (self.max_value - 1)
            if state == self._seed:
                break
        return np.asarray(states, dtype=np.int64)

    @property
    def period(self) -> int:
        """Cycle length from the configured seed."""
        return int(self._cycle.size)

    def is_maximal(self) -> bool:
        """True when the register visits all ``2**degree - 1`` nonzero states."""
        return self.period == self.max_value - 1

    def integers(self, count: int) -> np.ndarray:
        idx = (self._pos + np.arange(count, dtype=np.int64)) % self.period
        self._pos = int((self._pos + count) % self.period)
        return self._cycle[idx]

    def reset(self) -> None:
        self._pos = 0


def _van_der_corput(indices: np.ndarray, bits: int) -> np.ndarray:
    """Radical-inverse (bit-reversal) of ``indices`` within ``bits`` bits."""
    idx = indices.astype(np.uint64) & np.uint64((1 << bits) - 1)
    out = np.zeros_like(idx)
    for b in range(bits):
        out = (out << np.uint64(1)) | ((idx >> np.uint64(b)) & np.uint64(1))
    return out.astype(np.int64)


# Joe-Kuo "new-joe-kuo-6" direction-number seeds for Sobol dimensions 1..8
# (dimension 0 is van der Corput and needs no table).  Each entry is
# (polynomial degree s, polynomial coefficient a, initial m values).
_JOE_KUO: Sequence = (
    (1, 0, (1,)),
    (2, 1, (1, 3)),
    (3, 1, (1, 3, 1)),
    (3, 2, (1, 1, 1)),
    (4, 1, (1, 1, 3, 3)),
    (4, 4, (1, 3, 5, 13)),
    (5, 2, (1, 1, 5, 5, 17)),
    (5, 4, (1, 1, 5, 5, 5)),
)


def _sobol_direction_numbers(dim: int, bits: int) -> np.ndarray:
    """Direction numbers ``v_k`` (as integers scaled to ``bits``) for ``dim``."""
    if dim == 0:
        return np.asarray([1 << (bits - 1 - k) for k in range(bits)], dtype=np.int64)
    if dim - 1 >= len(_JOE_KUO):
        raise ValueError(
            f"Sobol dimension {dim} unsupported (have {len(_JOE_KUO) + 1})"
        )
    s, a, m_init = _JOE_KUO[dim - 1]
    m = list(m_init)
    for k in range(s, bits):
        new = m[k - s] ^ (m[k - s] << s)
        for i in range(1, s):
            if (a >> (s - 1 - i)) & 1:
                new ^= m[k - i] << i
        m.append(new)
    v = [(m[k] << (bits - 1 - k)) for k in range(bits)]
    return np.asarray(v, dtype=np.int64)


#: Widest :class:`SobolRng` whose whole period is tabulated at construction.
_SOBOL_TABLE_BITS = 16


class SobolRng(RandomSource):
    """Quasi-random Sobol sequence source (paper's 8-bit QRNG).

    The Sobol sequence stratifies ``[0, 1)`` so that the first ``N`` points
    hit every length-``1/N`` interval exactly once when ``N`` is a power of
    two — that is why the QRNG column in Table I collapses to (almost pure)
    quantisation error.

    Parameters
    ----------
    bits:
        Output precision; 8 in the paper.
    dim:
        Sobol dimension (0 = van der Corput).  Independent operands should
        use distinct dimensions, mirroring parallel Sobol hardware.
    scramble_seed:
        Optional digital-shift scrambling (XOR with a fixed random word),
        used to decorrelate repeated use of the same dimension.
    """

    def __init__(self, bits: int = 8, dim: int = 0, scramble_seed: Optional[int] = None):
        super().__init__(bits)
        self.dim = dim
        self._v = _sobol_direction_numbers(dim, bits)
        self._index = 0
        if scramble_seed is None:
            self._shift = 0
        else:
            self._shift = int(
                np.random.default_rng(scramble_seed).integers(0, self.max_value)
            )
        # One period of the sequence, so integers() is a gather.  Wider
        # sources (up to 32 bits) would need gigabytes; they compute their
        # points on demand.
        self._table = (self._point(np.arange(self.max_value, dtype=np.int64))
                       if bits <= _SOBOL_TABLE_BITS else None)

    def _point(self, indices: np.ndarray) -> np.ndarray:
        # Gray-code construction: x_i = XOR of direction numbers at set bits
        # of gray(i).
        gray = indices ^ (indices >> 1)
        out = np.zeros_like(indices)
        for k in range(self.bits):
            bit_set = (gray >> k) & 1
            out = out ^ (bit_set * self._v[k])
        return (out ^ self._shift).astype(np.int64)

    def integers(self, count: int) -> np.ndarray:
        idx = self._index + np.arange(count, dtype=np.int64)
        self._index += count
        # Sequence repeats with period 2**bits; wrap indices like hardware
        # counters do.
        idx %= self.max_value
        return self._point(idx) if self._table is None else self._table[idx]

    def reset(self) -> None:
        self._index = 0


class P2lsgRng(RandomSource):
    """Powers-of-2 low-discrepancy sequence generator (P2LSG).

    A hardware-cheap quasi-random source (Moghadam et al., ASP-DAC'24 — the
    paper's reference [27]): instead of Sobol direction-number logic, the
    output is the bit-reversed counter XOR-ed with a per-instance constant
    offset, giving a van-der-Corput-class low-discrepancy sequence from a
    counter and wires only.

    Distinct ``offset`` values play the role of Sobol dimensions for
    independent operands.
    """

    def __init__(self, bits: int = 8, offset: int = 0):
        super().__init__(bits)
        self.offset = offset & (self.max_value - 1)
        self._index = 0

    def integers(self, count: int) -> np.ndarray:
        idx = (self._index + np.arange(count, dtype=np.int64)) % self.max_value
        self._index = int((self._index + count) % self.max_value)
        return _van_der_corput(idx, self.bits) ^ self.offset

    def reset(self) -> None:
        self._index = 0


class CounterRng(RandomSource):
    """Deterministic ramp 0, 1, 2, ... (mod 2**bits).

    Comparing against a ramp yields *unary* (thermometer-like) streams:
    deterministic, maximally correlated encodings used by unary-coding
    accelerators and handy as a worst-case correlation baseline.
    """

    def __init__(self, bits: int = 8, start: int = 0):
        super().__init__(bits)
        self._start = start % self.max_value
        self._pos = self._start

    def integers(self, count: int) -> np.ndarray:
        vals = (self._pos + np.arange(count, dtype=np.int64)) % self.max_value
        self._pos = int((self._pos + count) % self.max_value)
        return vals

    def reset(self) -> None:
        self._pos = self._start
