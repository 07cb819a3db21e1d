"""Independent dense-grid verification of solved certificates and
figure-data emission (level sets, decrease heatmaps, certificate surfaces,
phase portraits).

Everything here recomputes values through the domain evaluators, never
through the optimization matrices, so it cross-checks the solver path.
Grid verification is a strong diagnostic but not a proof over the
continuum; the formal statement is the margin check in ``compose``.
"""
from __future__ import annotations

import ctypes
import os
import sys
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .blackbox import Topology, simulate_network
from .core import (
    InvariantError,
    SubsystemClass,
    eval_template,
    rowwise_bilinear,
    supply_sum,
)
from .sampling import DataFaultError, csv_line, grid_samples, write_csv_rows
from .scp import ScpSolution

# Dense joint grids are evaluated in blocks of this many points.  A multiple
# of 4: OpenBLAS's gemv rounds the last m % 4 rows of an m-row call in its
# tail kernel and every other row in its full-group kernel, so blocks that
# start at multiples of 4 leave the tail rounding to the last rows of the
# grid, where one call over the whole grid has it.  Each block's f(x, d) is
# evaluated by the same rule in ``core._BASIS_BLOCK``-row sub-blocks, four to
# a full block, each starting at a multiple of 4.
_CHUNK = 2**15
# Heatmap threads at most: two is the largest count measured for time and
# peak RSS (on a 2-CPU host).
_MAX_WORKERS = 2
# One heatmap thread per this many points, rounded up.  Measured on a 2-CPU
# host with BLAS on one thread, alternating one- and two-thread runs, medians
# of two series of 40 pairs: platoon grids of three or four blocks ran 3-19%
# faster on two threads (83,521 points: 19.3 -> 17.7 ms and 16.2 -> 15.6 ms,
# 104,976: 23.7 -> 20.8 ms and 19.8 -> 16.0 ms).  On grids of two blocks two
# threads won 32 and 35 of 40 pairs at 50,625 points (15.6 -> 12.7 ms, 14.4
# -> 11.2 ms) and 28 and 31 of 40 at 65,536 (20.2 -> 17.4 ms, 17.1 -> 13.3
# ms).  Earlier series, at a higher cost per block, gave two threads anywhere
# from 6 of 25 to 34 of 40 pairs on such grids; the boundary was set from
# those and is unchanged.
_POINTS_PER_WORKER = 2**16

# extension module -> the thread setter of the OpenBLAS copy it links:
# numpy's 64-bit-index copy and scipy's own
BLAS_THREAD_SETTERS = {
    "numpy._core._multiarray_umath": "scipy_openblas_set_num_threads64_",
    "scipy.linalg._fblas": "scipy_openblas_set_num_threads",
}


def one_blas_thread() -> None:
    """Run every loaded bundled OpenBLAS on one thread.

    A second BLAS thread burns CPU without saving wall time on these
    matrix shapes, and the heatmap's threads would each start BLAS threads
    of their own.  The symbol is resolved through the extension's own
    dependencies, so no library path is searched.  A copy that is not
    loaded, or that lacks the setter, keeps its threads.  This changes the
    whole process, so it is left to the caller (``cli.main`` calls it).
    """
    for module, setter in BLAS_THREAD_SETTERS.items():
        ext = sys.modules.get(module)
        if ext is None:
            continue
        try:
            set_threads = getattr(ctypes.CDLL(ext.__file__), setter)
        except (OSError, AttributeError):
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)


def _cpu_budget() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _heatmap_workers(points: int) -> int:
    """Threads for a heatmap of ``points`` grid points (at least one)."""
    return min(_cpu_budget(), _MAX_WORKERS, -(-points // _POINTS_PER_WORKER))


@dataclass
class LevelSetReport:
    """Certificate extrema over the initial and unsafe boxes against the
    solved level values."""

    initial_max: float
    initial_argmax: np.ndarray
    unsafe_min: float
    unsafe_argmin: np.ndarray
    sigma: float
    phi: float

    @property
    def initial_ok(self) -> bool:
        return self.initial_max <= self.sigma

    @property
    def unsafe_ok(self) -> bool:
        return self.unsafe_min >= self.phi

    @property
    def gap_ok(self) -> bool:
        return self.phi > self.sigma

    @property
    def passed(self) -> bool:
        return self.initial_ok and self.unsafe_ok and self.gap_ok


def check_level_sets(
    cls: SubsystemClass, solution: ScpSolution, counts: Sequence[int]
) -> LevelSetReport:
    """Evaluate the certificate on dense grids of both safety boxes."""
    init_pts = grid_samples(cls.safety.initial, counts)
    unsafe_pts = grid_samples(cls.safety.unsafe, counts)
    init_vals = eval_template(cls.template, solution.coeffs, init_pts)
    unsafe_vals = eval_template(cls.template, solution.coeffs, unsafe_pts)
    imax = int(np.argmax(init_vals))
    umin = int(np.argmin(unsafe_vals))
    return LevelSetReport(
        initial_max=float(init_vals[imax]),
        initial_argmax=init_pts[imax],
        unsafe_min=float(unsafe_vals[umin]),
        unsafe_argmin=unsafe_pts[umin],
        sigma=solution.sigma,
        phi=solution.phi,
    )


@dataclass
class HeatmapSummary:
    """Max of B(f(x,d)) - B(x) - supply(d,x) over a dense joint grid."""

    max_value: float
    argmax: np.ndarray
    point_count: int

    @property
    def passed(self) -> bool:
        return self.max_value <= 0.0


def decrease_heatmap(
    cls: SubsystemClass,
    solution: ScpSolution,
    counts: Sequence[int],
    csv_path: Optional[str] = None,
) -> HeatmapSummary:
    """Tabulate the shifted decrease condition over a dense X x D grid.

    The joint grid is the product of a state grid and an input grid, rows
    in state-major order.  B(x) and the supply's x^T s22 x are computed
    once per state point and d^T s11 d once per input point; the (x, d)
    rows are assembled ``_CHUNK`` at a time from their flat index (state
    ``i // |D|``, input ``i % |D|``), and each block gathers those values
    and computes only the cross term d^T s12 x per pair.  On one BLAS
    thread every value is bit-identical to the evaluators on the
    materialised joint grid, block by block.  B(x) is one gemv over the
    state grid padded to a multiple of 4 rows, so every state point takes
    OpenBLAS's full-group rounding, which is what every row of an m-row
    block gets but its last m % 4.  Those tail rows are taken from a gemv
    over the block's last 4 + m % 4 gathered rows (all m rows when m < 4),
    where they are the tail again; a 1-row product would not do, as NumPy
    computes it as a dot product.  ``rowwise_bilinear`` gives each row the
    value it has in any batch.

    Blocks are evaluated on up to ``_MAX_WORKERS`` threads: no more than
    the CPUs this process may use, one per ``_POINTS_PER_WORKER`` points
    rounded up.  The pool is sized for BLAS on one thread, which
    ``one_blas_thread`` sets and ``cli.main`` calls.  A library caller
    should call it first: with BLAS on more threads, a gemv split between
    threads can round some rows differently, and the heatmap threads may
    oversubscribe the CPUs.  Blocks are submitted in grid order with at
    most one block per thread in flight, so memory stays O(threads x chunk)
    however large the grid grows.  The calling thread takes the finished
    blocks in grid order for the maximum, the fault check and the CSV rows,
    so the result does not depend on the thread count.

    Pass ``csv_path`` to also persist the full table (x..., d..., value).
    A non-finite oracle output or decrease value raises ``DataFaultError``
    naming its (x, d), the first such point in grid order.
    """
    if cls.oracle is None:
        raise InvariantError(f"class {cls.id!r} has no oracle; heatmap unavailable")
    n = cls.state_dim
    xs = grid_samples(cls.state_box, counts[:n])
    ds = grid_samples(cls.input_box, counts[n:])
    coeffs = solution.coeffs
    basis_x = cls.template.basis_values(xs)
    padding = np.zeros((-xs.shape[0] % 4, basis_x.shape[1]))
    b_grid = np.vstack([basis_x, padding]) @ coeffs
    rate = solution.supply
    quad_d = rowwise_bilinear(ds, rate.s11, ds)
    quad_x = rowwise_bilinear(xs, rate.s22, xs)
    total = xs.shape[0] * ds.shape[0]

    def evaluate(start: int):
        xi, di = np.divmod(np.arange(start, min(start + _CHUNK, total)), ds.shape[0])
        x, d = xs.take(xi, axis=0), ds.take(di, axis=0)
        bx = b_grid.take(xi)
        tail = xi.shape[0] % 4
        if tail:
            bx[-tail:] = (basis_x.take(xi[-4 - tail :], axis=0) @ coeffs)[-tail:]
        supply = supply_sum(quad_d.take(di), rowwise_bilinear(d, rate.s12, x), quad_x.take(xi))
        del xi, di  # the indices are freed before the oracle and basis of f(x, d) allocate
        fx = cls.oracle.batch(x, d)
        vals = eval_template(cls.template, coeffs, fx)
        vals -= bx
        vals -= supply
        if np.isfinite(vals).all() and np.isfinite(fx).all():
            return x, d, vals, None
        return x, d, vals, int(np.argmax(~(np.isfinite(vals) & np.isfinite(fx).all(axis=1))))

    best_val = -np.inf
    best_pt = None
    fh = None

    def consume(x, d, vals, fault):
        nonlocal best_val, best_pt
        if fault is not None:
            raise DataFaultError(
                f"non-finite oracle output or decrease value at x={x[fault].tolist()}, "
                f"d={d[fault].tolist()}"
            )
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val = float(vals[i])
            best_pt = np.concatenate([x[i], d[i]])
        if fh is not None:
            write_csv_rows(fh, x, d, vals)

    workers = _heatmap_workers(total)
    with ExitStack() as stack:
        if csv_path is not None:
            fh = stack.enter_context(open(csv_path, "w", newline=""))
            header = [f"x{k}" for k in range(n)] + [f"d{k}" for k in range(cls.input_dim)]
            fh.write(csv_line(header + ["value"]))
        pool = stack.enter_context(ThreadPoolExecutor(max_workers=workers))
        pending = deque()
        for start in range(0, total, _CHUNK):
            if len(pending) == workers:
                consume(*pending.popleft().result())
            pending.append(pool.submit(evaluate, start))
        while pending:
            consume(*pending.popleft().result())
    return HeatmapSummary(max_value=best_val, argmax=best_pt, point_count=total)


def surface_data(
    cls: SubsystemClass, solution: ScpSolution, counts: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """(points, certificate values) over the state box, for plotting the
    certificate surface against its level contours."""
    pts = grid_samples(cls.state_box, counts)
    return pts, eval_template(cls.template, solution.coeffs, pts)


@dataclass
class PortraitResult:
    """Batch of surrogate trajectories started from a grid of the initial
    box (all copies of a trajectory share the initial point)."""

    initial_points: np.ndarray
    trajectories: list  # list of Trajectory
    unsafe_flags: np.ndarray

    @property
    def unsafe_entries(self) -> int:
        return int(np.sum(self.unsafe_flags))


def phase_portrait(
    cls: SubsystemClass,
    topology: Topology,
    initial_counts: Sequence[int],
    steps: int,
) -> PortraitResult:
    """Simulate from every grid point of the initial box, all trajectories
    stepped together, and flag those that ever touch the unsafe box."""
    points = grid_samples(cls.safety.initial, initial_counts)
    starts = np.repeat(points[:, None, :], topology.surrogate_size, axis=1)
    trajectories = simulate_network(cls, topology, starts, steps)
    flags = np.array([not traj.safe for traj in trajectories], dtype=bool)
    return PortraitResult(initial_points=points, trajectories=trajectories, unsafe_flags=flags)


# ---------------------------------------------------------------------------
# CSV emission (headers are fixed; plotting scripts consume these)
# ---------------------------------------------------------------------------


def write_surface_csv(path, cls: SubsystemClass, points: np.ndarray, values: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(csv_line([f"x{k}" for k in range(cls.state_dim)] + ["B"]))
        write_csv_rows(fh, points, values)


def write_levels_csv(path, report: LevelSetReport) -> None:
    rows = [
        ["quantity", "value"],
        ["initial_max", repr(report.initial_max)],
        ["unsafe_min", repr(report.unsafe_min)],
        ["sigma", repr(report.sigma)],
        ["phi", repr(report.phi)],
        ["initial_ok", str(report.initial_ok).lower()],
        ["unsafe_ok", str(report.unsafe_ok).lower()],
    ]
    with open(path, "w", newline="") as fh:
        fh.write("".join(map(csv_line, rows)))


def write_trajectories_csv(path, cls: SubsystemClass, portrait: PortraitResult) -> None:
    with open(path, "w", newline="") as fh:
        header = ["trajectory", "step", "subsystem"] + [f"x{k}" for k in range(cls.state_dim)]
        fh.write(csv_line(header))
        for t_idx, traj in enumerate(portrait.trajectories):
            steps, nodes, _ = traj.states.shape
            step, node = np.divmod(np.arange(steps * nodes), nodes)
            lead = np.column_stack([np.full(steps * nodes, t_idx), step, node])
            write_csv_rows(fh, traj.states.reshape(steps * nodes, -1), lead=lead)
