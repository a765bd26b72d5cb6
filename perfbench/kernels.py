"""Microbenchmarks of the models layer: the log-shape kernels and the
numeric mode search.

Kernels run through the public ``log_shape_on_grid`` on an ``EvalGrid``
of ROWS identical rows, the array shapes the fitter's batched loss hands
them.  Besides the time, each kernel call is replayed once on arrays that
count the element operations and the bytes every ufunc reads and writes;
those counts are computed, not measured with hardware counters.
"""

from __future__ import annotations

import time

import numpy as np

from unifit import KIND_ORDER, ModelKind, ShapeParams, mode
from unifit.models import EvalGrid, log_shape_on_grid

from metrics import median, subseed

ROWS = 48
POINTS = (101, 1001)

#: Mid-range shape per family, inside the benchmark's generation ranges.
KERNEL_PARAMS = {
    ModelKind.RICHARDS: (20.0, 0.45, 1.5),
    ModelKind.SKEWNORMAL: (0.4, 0.15, 2.0),
    ModelKind.GENGAMMA: (0.25, 4.0, 1.5),
    ModelKind.MAXENT: (0.3, 0.5),
    ModelKind.BETA: (3.0, 4.5),
}


def kernel_grid(points: int) -> EvalGrid:
    return EvalGrid(np.tile(np.linspace(0.0, 1.0, points), (ROWS, 1)))


def kernel_ns_per_point(params: ShapeParams, grid: EvalGrid, blocks: int = 15, block_s: float = 0.004) -> float:
    """Median over timed blocks of calls, in ns per grid point."""
    log_shape_on_grid(params, grid)
    t0 = time.perf_counter()
    log_shape_on_grid(params, grid)
    calls = max(1, int(block_s / max(time.perf_counter() - t0, 1e-9)))
    per_call = []
    for _ in range(blocks):
        t0 = time.perf_counter()
        for _ in range(calls):
            log_shape_on_grid(params, grid)
        per_call.append((time.perf_counter() - t0) / calls)
    return median(per_call) / grid.xs.size * 1e9


class _Tally:
    def __init__(self) -> None:
        self.ops = 0
        self.bytes = 0


class _CountingArray(np.ndarray):
    """ndarray whose ufunc calls add their element count and the bytes of
    their array operands and results to a shared tally."""

    def __array_finalize__(self, obj):
        self.tally = getattr(obj, "tally", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [x.view(np.ndarray) if isinstance(x, _CountingArray) else x for x in inputs]
        if "out" in kwargs:
            kwargs["out"] = tuple(
                o.view(np.ndarray) if isinstance(o, _CountingArray) else o for o in kwargs["out"]
            )
        result = getattr(ufunc, method)(*plain, **kwargs)
        arrays = [x for x in plain if isinstance(x, np.ndarray) and x.ndim]
        outs = result if isinstance(result, tuple) else (result,)
        arrays += [o for o in outs if isinstance(o, np.ndarray) and o.ndim]
        self.tally.ops += max(x.size for x in arrays) if arrays else 1
        self.tally.bytes += sum(x.nbytes for x in arrays)
        if isinstance(result, np.ndarray) and result.ndim:
            counted = result.view(_CountingArray)
            counted.tally = self.tally
            return counted
        return result


def computed_cost(params: ShapeParams, points: int) -> tuple[int, int]:
    """(element operations, bytes moved) of one kernel call, computed."""
    grid = kernel_grid(points)
    tally = _Tally()
    for slot in EvalGrid.__slots__:
        value = getattr(grid, slot)
        if isinstance(value, np.ndarray):
            counted = value.view(_CountingArray)
            counted.tally = tally
            setattr(grid, slot, counted)
    log_shape_on_grid(params, grid)
    return tally.ops, tally.bytes


def kernel_metrics() -> dict[str, tuple[float, str]]:
    out = {}
    for points in POINTS:
        grid = kernel_grid(points)
        shape = f"{ROWS}x{points}"
        for kind in KIND_ORDER:
            params = ShapeParams(kind, KERNEL_PARAMS[kind])
            ops, nbytes = computed_cost(params, points)
            out[f"models.kernel_ns_per_point.{kind.value}.{shape}"] = (
                kernel_ns_per_point(params, grid), "ns")
            out[f"models.kernel_ops_computed.{kind.value}.{shape}"] = (ops, "count")
            out[f"models.kernel_bytes_computed.{kind.value}.{shape}"] = (nbytes, "B")
    return out


def _mode_draws(kind: ModelKind, seed: int, count: int) -> list[ShapeParams]:
    # distinct parameters on every call: mode() caches per parameter set
    rng = np.random.default_rng(subseed(seed, "mode", kind.value))
    if kind is ModelKind.RICHARDS:
        cols = (rng.uniform(5.0, 60.0, count), rng.uniform(0.3, 0.7, count), rng.uniform(0.5, 3.0, count))
    else:
        cols = (rng.uniform(0.3, 0.7, count), rng.uniform(0.1, 0.25, count), rng.uniform(-2.5, 2.5, count))
    return [ShapeParams(kind, v) for v in zip(*cols)]


def mode_metrics(seed: int, count: int = 200) -> dict[str, tuple[float, str]]:
    out = {}
    for kind in (ModelKind.RICHARDS, ModelKind.SKEWNORMAL):
        per_call = []
        for params in _mode_draws(kind, seed, count):
            t0 = time.perf_counter()
            mode(params)
            per_call.append(time.perf_counter() - t0)
        out[f"models.mode_us.{kind.value}"] = (median(per_call) * 1e6, "us")
    return out
