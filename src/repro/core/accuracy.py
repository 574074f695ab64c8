"""Monte-Carlo accuracy harness for SNGs and SC operations.

Reproduces the methodology behind Tables I and II of the paper: draw operand
values from a uniform distribution, run the SC flow at a given stream length,
and report the mean squared error (in percent, i.e. ``MSE x 100``) between
the recovered and the exact result.

The harness is chunked so that million-sample sweeps at N = 512 stay within
a modest memory budget.

Sharded execution (``jobs``)
----------------------------
:func:`op_mse` and :func:`sng_mse` can fan their Monte-Carlo chunks over
the tile executor's process pool (:func:`repro.apps.executor.pool_map`).
Because the classic path threads one stateful generator through the chunks
sequentially, the sharded path instead gives every chunk a deterministic
child of ``SeedSequence(seed)`` and builds a *fresh* generator from a
caller-supplied picklable factory — pass a callable
``factory(seed_sequence) -> sng`` as the ``sng`` argument
(:class:`repro.imsc.engine.EngineFactory` wraps the in-memory engine this
way, so faulty sweeps — including ``fault_sampling='sparse'`` — shard
too).  Chunk results are reduced in chunk order, so ``jobs=1`` and
``jobs=N`` are bit-identical (the regression suite asserts this); both
differ from the legacy shared-object path, which remains untouched for the
pinned Table I/II values.

The sharded path is two halves: :func:`mse_tasks` builds one cell's chunk
tasks and :func:`mse_grid` runs any number of cells' tasks as one
``pool_map`` over :func:`_sng_mse_chunk` / :func:`_op_mse_chunk`,
reducing each cell from its own slice.  A single cell is a grid of one;
the Table I/II runners send their whole grid, which gives the same bits
as one call per cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from .backend import get_backend, set_backend
from .bitstream import Bitstream
from . import ops

__all__ = [
    "sng_mse",
    "OpSpec",
    "OP_SPECS",
    "op_mse",
    "mse_tasks",
    "mse_grid",
]

SngLike = object  # duck-typed: .generate / .generate_pair

#: Default Monte-Carlo chunk sizes of :func:`sng_mse` and :func:`op_mse`.
SNG_CHUNK = 8192
OP_CHUNK = 4096


def _sng_chunk_sq_err(sng, gen: np.random.Generator, n: int,
                      length: int) -> float:
    """Sum of squared generation errors over one operand chunk."""
    x = gen.random(n)
    streams = sng.generate(x, length)
    err = streams.value() - x
    return float(np.sum(err * err))


def _sng_mse_chunk(task) -> float:
    """Worker for the sharded path: one chunk, fresh deterministic state."""
    backend_name, factory, length, n, child = task
    set_backend(backend_name)
    operand_seed, sng_seed = child.spawn(2)
    gen = np.random.default_rng(operand_seed)
    sng = factory(sng_seed)
    return _sng_chunk_sq_err(sng, gen, n, length)


def _check_counts(samples: int, chunk: int) -> None:
    for name, value in (("samples", samples), ("chunk", chunk)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


def mse_tasks(head: tuple, samples: int, seed: Optional[int],
              chunk: int) -> List[tuple]:
    """One cell's sharded chunk tasks, in chunk order.

    Each task is ``(backend_name, *head, n, child)``: ``n`` is the chunk's
    sample count and ``child`` its ``SeedSequence(seed)`` child.  ``head``
    is ``(factory, length)`` for :func:`_sng_mse_chunk` and
    ``(op_key, factory, length)`` for :func:`_op_mse_chunk`.
    """
    _check_counts(samples, chunk)
    n_chunks = ceil(samples / chunk)
    children = np.random.SeedSequence(seed).spawn(n_chunks)
    backend_name = get_backend().name
    return [(backend_name, *head, min(chunk, samples - i * chunk), child)
            for i, child in enumerate(children)]


def mse_grid(chunk_fn: Callable[[tuple], float], cells: List[List[tuple]],
             samples: int, jobs: int = 1) -> List[float]:
    """MSE(%) of every cell (its :func:`mse_tasks` list) over one pool map.

    All cells' tasks go to :func:`repro.apps.executor.pool_map` as one
    batch; each cell is then reduced from its own slice of the totals, in
    chunk order, so a cell's value does not depend on ``jobs`` or on the
    other cells.
    """
    from ..apps.executor import pool_map  # deferred: core must not need apps
    totals = pool_map(chunk_fn, [t for tasks in cells for t in tasks], jobs)
    out, start = [], 0
    for tasks in cells:
        stop = start + len(tasks)
        out.append(float(sum(totals[start:stop])) / samples * 100.0)
        start = stop
    return out


def sng_mse(sng, length: int, samples: int = 100_000,
            seed: Optional[int] = 0, chunk: int = SNG_CHUNK,
            jobs: int = 1) -> float:
    """MSE(%) of bit-stream generation for a given SNG (Table I cell).

    Draws ``samples`` operand values uniformly from ``[0, 1]``, generates one
    stream of ``length`` bits per value, recovers the value by popcount and
    returns ``mean((recovered - exact)^2) * 100``.

    Like :func:`op_mse`, ``sng`` may be a picklable factory callable
    ``factory(seed_sequence) -> sng`` instead of a generator object, in
    which case the chunks get deterministic per-chunk ``SeedSequence``
    children and may fan out over ``jobs`` worker processes; the result is
    independent of ``jobs`` (but differs from the legacy shared-object
    path, which stays untouched for the pinned Table I values).

    ``samples`` and ``chunk`` must be >= 1.
    """
    if callable(sng) and not hasattr(sng, "generate"):
        tasks = mse_tasks((sng, length), samples, seed, chunk)
        return mse_grid(_sng_mse_chunk, [tasks], samples, jobs)[0]
    _check_counts(samples, chunk)
    if jobs != 1:
        raise ValueError("sng_mse(jobs=N) requires an sng "
                         "*factory* (callable(seed_sequence) -> sng); a "
                         "shared sng object cannot be sharded "
                         "deterministically")
    gen = np.random.default_rng(seed)
    total = 0.0
    done = 0
    while done < samples:
        n = min(chunk, samples - done)
        total += _sng_chunk_sq_err(sng, gen, n, length)
        done += n
    return total / samples * 100.0


@dataclass(frozen=True)
class OpSpec:
    """Recipe for measuring one SC operation's accuracy (Table II row).

    Attributes
    ----------
    name:
        Row label as used in the paper.
    correlated:
        Whether the operand pair must share the RNG (SCC = +1).
    exact:
        Ground-truth function of the operand probabilities.
    compute:
        Function ``(x_stream, y_stream, aux_streams) -> Bitstream``.
    needs_half_stream:
        Whether an auxiliary independent 0.5 stream is required (MAJ/MUX).
    domain:
        Operand-sampling transform applied to uniform draws ``(u, v)``.
    """

    name: str
    correlated: bool
    exact: Callable[[np.ndarray, np.ndarray], np.ndarray]
    compute: Callable[[Bitstream, Bitstream, Optional[Bitstream]], Bitstream]
    needs_half_stream: bool = False
    domain: Callable[[np.ndarray, np.ndarray],
                     Tuple[np.ndarray, np.ndarray]] = staticmethod(
                         lambda u, v: (u, v))


def _div_domain(u: np.ndarray, v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    # CORDIV needs x <= y and a divisor bounded away from zero.
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    hi = np.maximum(hi, 0.05)
    lo = np.minimum(lo, hi)
    return lo, hi


OP_SPECS: Dict[str, OpSpec] = {
    "multiplication": OpSpec(
        name="Multiplication",
        correlated=False,
        exact=lambda x, y: x * y,
        compute=lambda sx, sy, aux: ops.mul_and(sx, sy),
    ),
    "scaled_addition": OpSpec(
        name="Scaled Addition",
        correlated=False,
        exact=lambda x, y: (x + y) / 2.0,
        compute=lambda sx, sy, aux: ops.scaled_add_maj(sx, sy, aux),
        needs_half_stream=True,
    ),
    "scaled_addition_mux": OpSpec(
        name="Scaled Addition (MUX)",
        correlated=False,
        exact=lambda x, y: (x + y) / 2.0,
        compute=lambda sx, sy, aux: ops.scaled_add_mux(sx, sy, aux),
        needs_half_stream=True,
    ),
    "approx_addition": OpSpec(
        name="Approx. Addition",
        correlated=False,
        exact=lambda x, y: x + y,
        compute=lambda sx, sy, aux: ops.add_or(sx, sy),
        domain=staticmethod(lambda u, v: (u * 0.5, v * 0.5)),
    ),
    "abs_subtraction": OpSpec(
        name="Abs. Subtraction",
        correlated=True,
        exact=lambda x, y: np.abs(x - y),
        compute=lambda sx, sy, aux: ops.sub_xor(sx, sy),
    ),
    "division": OpSpec(
        name="Division",
        correlated=True,
        exact=lambda x, y: x / y,
        compute=lambda sx, sy, aux: ops.div_cordiv(sx, sy),
        domain=staticmethod(_div_domain),
    ),
    "minimum": OpSpec(
        name="Minimum",
        correlated=True,
        exact=lambda x, y: np.minimum(x, y),
        compute=lambda sx, sy, aux: ops.min_and(sx, sy),
    ),
    "maximum": OpSpec(
        name="Maximum",
        correlated=True,
        exact=lambda x, y: np.maximum(x, y),
        compute=lambda sx, sy, aux: ops.max_or(sx, sy),
    ),
}


def _op_chunk_sq_err(spec: OpSpec, sng, gen: np.random.Generator,
                     n: int, length: int) -> float:
    """Sum of squared recovery errors over one operand chunk."""
    u = gen.random(n)
    v = gen.random(n)
    x, y = spec.domain(u, v)
    sx, sy = sng.generate_pair(x, y, length, correlated=spec.correlated)
    aux = None
    if spec.needs_half_stream:
        aux = sng.generate(np.full(n, 0.5), length)
    out = spec.compute(sx, sy, aux)
    err = out.value() - spec.exact(x, y)
    return float(np.sum(err * err))


def _op_mse_chunk(task) -> float:
    """Worker for the sharded path: one chunk, fresh deterministic state."""
    backend_name, op_key, factory, length, n, child = task
    set_backend(backend_name)
    spec = OP_SPECS[op_key]
    operand_seed, sng_seed = child.spawn(2)
    gen = np.random.default_rng(operand_seed)
    sng = factory(sng_seed)
    return _op_chunk_sq_err(spec, sng, gen, n, length)


def op_mse(op: Union[str, OpSpec], sng, length: int, samples: int = 50_000,
           seed: Optional[int] = 0, chunk: int = OP_CHUNK,
           jobs: int = 1) -> float:
    """MSE(%) of one SC arithmetic operation (Table II cell).

    Parameters
    ----------
    op:
        Key into :data:`OP_SPECS` or an :class:`OpSpec`.
    sng:
        Any generator exposing ``generate`` and ``generate_pair`` (the
        classic sequential path), *or* a picklable factory callable
        ``factory(seed_sequence) -> sng`` — in which case every chunk gets
        a fresh generator seeded from a deterministic per-chunk
        ``SeedSequence`` child and chunks may fan out over worker
        processes (see module docs).
    length:
        Stream length N.
    samples / chunk:
        Monte-Carlo sample count and processing chunk size (both >= 1).
    jobs:
        Worker processes for the sharded (factory) path; the result is
        independent of ``jobs``.  Requires a factory: the sequential path
        threads one stateful generator and cannot be split.
    """
    if callable(sng) and not hasattr(sng, "generate"):
        if not isinstance(op, str):
            raise ValueError("the sharded op_mse path needs an OP_SPECS key "
                             "(workers resolve the spec by name)")
        tasks = mse_tasks((op, sng, length), samples, seed, chunk)
        return mse_grid(_op_mse_chunk, [tasks], samples, jobs)[0]
    _check_counts(samples, chunk)
    if jobs != 1:
        raise ValueError("op_mse(jobs=N) requires an sng "
                         "*factory* (callable(seed_sequence) -> sng); a "
                         "shared sng object cannot be sharded "
                         "deterministically")
    spec = OP_SPECS[op] if isinstance(op, str) else op
    gen = np.random.default_rng(seed)
    total = 0.0
    done = 0
    while done < samples:
        n = min(chunk, samples - done)
        total += _op_chunk_sq_err(spec, sng, gen, n, length)
        done += n
    return total / samples * 100.0
