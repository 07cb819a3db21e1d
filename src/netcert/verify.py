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

from .blackbox import SurrogateRuns, Topology, simulate_network
from .core import (
    _BASIS_BLOCK,
    InvariantError,
    SubsystemClass,
    eval_template,
    rowwise_bilinear,
    supply_sum,
)
from .sampling import DataFaultError, csv_line, dense_counts, grid_samples, write_csv_rows
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
# host with BLAS on one thread, alternating one- and two-thread runs in
# process.  At an earlier cost per block, platoon grids of three or four
# blocks ran 3-19% faster on two threads.  On grids of two blocks, series of
# 40 pairs have never given two threads the 36 wins that would move the
# boundary: at the cost of blocks cut from state runs into per-thread
# workspaces, two threads won 25 and 29 of 40 at 50,625 points (10.7 -> 10.6
# ms and 10.1 -> 9.3 ms medians) and 28 and 20 of 40 at 65,536 (12.2 -> 11.5
# ms, 11.3 -> 11.3 ms); earlier series gave them 6 of 25 to 35 of 40.
_POINTS_PER_WORKER = 2**16

# extension module -> the thread setter of the OpenBLAS copy it links:
# numpy's 64-bit-index copy and scipy's own
BLAS_THREAD_SETTERS = {
    "numpy._core._multiarray_umath": "scipy_openblas_set_num_threads64_",
    "scipy.linalg._fblas": "scipy_openblas_set_num_threads",
    "scipy.optimize._lbfgsb": "scipy_openblas_set_num_threads",
}


def one_blas_thread() -> None:
    """Run every loaded bundled OpenBLAS on one thread.

    A second BLAS thread burns CPU without saving wall time on these
    matrix shapes, and the heatmap's threads would each start BLAS threads
    of their own.  The symbol is resolved through the extension's own
    dependencies, so no library path is searched.  A copy that is not
    loaded, or that lacks the setter, keeps its threads.  This changes the
    whole process, so it is left to the caller (``cli.main`` calls it).
    Importing ``netcert.cli`` loads numpy's copy on one thread, and scipy's
    copy, which scipy's L-BFGS-B extension links and which loads with it at
    the first slope fit, starts under the same setting; this call covers a
    process that loaded numpy or scipy first, such as the test suite or
    ``perfbench/traced.py``, whose copies started their worker threads then.
    scipy's copy is found through ``scipy.linalg`` or, where only the fit
    loaded it, through the L-BFGS-B extension.
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
    init_pts = grid_samples(cls.safety.initial, dense_counts(cls.safety.initial, counts))
    unsafe_pts = grid_samples(cls.safety.unsafe, dense_counts(cls.safety.unsafe, counts))
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
    once per state point and d^T s11 d once per input point.  A block of
    ``_CHUNK`` rows spans a run of state rows, the first and last maybe in
    part, and takes its states, B(x) and x^T s22 x by repeating each state
    row as often as the block holds it.  It takes its inputs and d^T s11 d
    as one slice of the input grid repeated to cover any block's offset;
    that grid is shared by every block and read-only, so an oracle that
    writes into its ``d`` raises ``ValueError``.  Only the cross term d^T
    s12 x is computed per pair.  On one BLAS thread every value is
    bit-identical to the evaluators on the materialised joint grid, block
    by block.  B(x) is one gemv over the state grid padded to a multiple of
    4 rows, so every state point takes OpenBLAS's full-group rounding,
    which is what every row of an m-row block gets but its last m % 4.
    Those tail rows are taken from a gemv over the block's last 4 + m % 4
    rows (all m rows when m < 4), where they are the tail again; a 1-row
    product would not do, as NumPy computes it as a dot product.
    ``rowwise_bilinear`` gives each row the value it has in any batch.

    Blocks are evaluated on up to ``_MAX_WORKERS`` threads: no more than
    the CPUs this process may use, one per ``_POINTS_PER_WORKER`` points
    rounded up.  The pool is sized for BLAS on one thread, which
    ``one_blas_thread`` sets and ``cli.main`` calls.  A library caller
    should call it first: with BLAS on more threads, a gemv split between
    threads can round some rows differently, and the heatmap threads may
    oversubscribe the CPUs.  Blocks are submitted in grid order with at
    most one block per thread in flight, so memory stays O(threads x chunk)
    however large the grid grows.  Each thread's worth of blocks has a
    workspace of its own, made once per heatmap: block k writes its
    sub-blocks' basis of f(x, d) (``eval_template``'s ``basis_out``) and its
    values into workspace k mod threads.  Block k + threads is submitted
    only after block k has been consumed, so no two blocks in flight share
    one.  The calling thread takes the finished blocks in grid order for
    the maximum, the fault check and the CSV rows, so the result does not
    depend on the thread count.

    Pass ``csv_path`` to also persist the full table (x..., d..., value).
    A non-finite oracle output or decrease value raises ``DataFaultError``
    naming its (x, d), the first such point in grid order.
    """
    if cls.oracle is None:
        raise InvariantError(f"class {cls.id!r} has no oracle; heatmap unavailable")
    n = cls.state_dim
    xs = grid_samples(cls.state_box, dense_counts(cls.state_box, counts[:n]))
    ds = grid_samples(cls.input_box, dense_counts(cls.input_box, counts[n:]))
    coeffs = solution.coeffs
    basis_x = cls.template.basis_values(xs)
    padding = np.zeros((-xs.shape[0] % 4, basis_x.shape[1]))
    b_grid = np.vstack([basis_x, padding]) @ coeffs
    rate = solution.supply
    quad_d = rowwise_bilinear(ds, rate.s11, ds)
    quad_x = rowwise_bilinear(xs, rate.s22, xs)
    n_d = ds.shape[0]
    total = xs.shape[0] * n_d
    chunk = min(_CHUNK, total)
    # the input grid repeated: a block starting at input k takes rows k.. of it
    cycle = np.arange(n_d - 1 + chunk) % n_d
    d_grid, quad_d_grid = ds[cycle], quad_d[cycle]
    d_grid.flags.writeable = False
    workers = _heatmap_workers(total)
    # one (sub-block basis, values) workspace per block in flight
    slots = [
        (np.empty((min(chunk, _BASIS_BLOCK + 3), cls.template.term_count)), np.empty(chunk))
        for _ in range(workers)
    ]

    def evaluate(block: int):
        start = block * _CHUNK
        stop = min(start + _CHUNK, total)
        m, offset = stop - start, start % n_d
        # the block spans a run of state rows, the first and last maybe in part
        first, last = start // n_d, (stop - 1) // n_d
        runs = np.full(last - first + 1, n_d)
        runs[0] -= offset
        runs[-1] -= (last + 1) * n_d - stop
        states = slice(first, last + 1)
        x = xs[states].repeat(runs, axis=0)
        d = d_grid[offset : offset + m]
        bx = b_grid[states].repeat(runs)
        tail = m % 4
        if tail:
            xi = np.arange(stop - min(m, 4 + tail), stop) // n_d
            bx[-tail:] = (basis_x[xi] @ coeffs)[-tail:]
        basis, vals = slots[block % workers]
        # a non-finite value is reported below; errstate is per thread
        with np.errstate(all="ignore"):
            supply = supply_sum(
                quad_d_grid[offset : offset + m],
                rowwise_bilinear(d, rate.s12, x),
                quad_x[states].repeat(runs),
            )
            fx = cls.oracle.batch(x, d)
            vals = eval_template(cls.template, coeffs, fx, out=vals[:m], basis_out=basis)
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

    with ExitStack() as stack:
        if csv_path is not None:
            fh = stack.enter_context(open(csv_path, "w", newline=""))
            header = [f"x{k}" for k in range(n)] + [f"d{k}" for k in range(cls.input_dim)]
            fh.write(csv_line(header + ["value"]))
        pool = stack.enter_context(ThreadPoolExecutor(max_workers=workers))
        pending = deque()
        for block in range(-(-total // _CHUNK)):
            if len(pending) == workers:
                consume(*pending.popleft().result())
            pending.append(pool.submit(evaluate, block))
        while pending:
            consume(*pending.popleft().result())
    return HeatmapSummary(max_value=best_val, argmax=best_pt, point_count=total)


def surface_data(
    cls: SubsystemClass, solution: ScpSolution, counts: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """(points, certificate values) over the state box, for plotting the
    certificate surface against its level contours."""
    pts = grid_samples(cls.state_box, dense_counts(cls.state_box, counts))
    return pts, eval_template(cls.template, solution.coeffs, pts)


def phase_portrait(
    cls: SubsystemClass,
    topology: Topology,
    initial_counts: Sequence[int],
    steps: int,
) -> SurrogateRuns:
    """Simulate from every grid point of the initial box, all copies of a
    network at its point and all networks stepped together.  A non-finite
    state, which lies in no box, raises ``DataFaultError`` naming the
    earliest one (by step, then trajectory, then subsystem)."""
    points = grid_samples(cls.safety.initial, initial_counts)
    starts = np.repeat(points[:, None, :], topology.surrogate_size, axis=1)
    with np.errstate(all="ignore"):  # a non-finite state is reported below
        runs = simulate_network(cls, topology, starts, steps)
    # (step, trajectory, subsystem), so the first flag is the earliest
    bad = ~np.isfinite(runs.states).all(axis=-1).swapaxes(0, 1)
    if bad.any():
        step, k, node = np.unravel_index(np.argmax(bad), bad.shape)
        raise DataFaultError(
            f"non-finite state {runs.states[k, step, node].tolist()} at step {step} "
            f"of subsystem {node} in the trajectory from {points[k].tolist()}"
        )
    return runs


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


def write_trajectories_csv(path, cls: SubsystemClass, portrait: SurrogateRuns) -> None:
    """One row per (trajectory, step, subsystem), in that nested order."""
    states = portrait.states
    lead = np.indices(states.shape[:-1]).reshape(3, -1).T
    with open(path, "w", newline="") as fh:
        header = ["trajectory", "step", "subsystem"] + [f"x{k}" for k in range(cls.state_dim)]
        fh.write(csv_line(header))
        write_csv_rows(fh, states.reshape(-1, cls.state_dim), lead=lead)
