"""Independent dense-grid verification of solved certificates and
figure-data emission (level sets, decrease heatmaps, certificate surfaces,
phase portraits).

Everything here recomputes values through the domain evaluators, never
through the optimization matrices, so it cross-checks the solver path.
Grid verification is a strong diagnostic but not a proof over the
continuum; the formal statement is the margin check in ``compose``.
"""
from __future__ import annotations

import os
import pickle
import shutil
import tempfile
from contextlib import ExitStack, contextmanager
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

# Dense joint grids are evaluated in tiles of at most this many points: one
# sub-block of ``eval_template``, so a tile's arrays are no larger than the
# evaluator's own.  On the 9M-point platoon heatmap (2-CPU host, BLAS on one
# thread) numpy's traced peak in the calling process was 2.3 MB, against 4.8
# MB with blocks of 32,768 points, and its wall time did not move: medians of
# alternating runs in process were 0.519 against 0.522 s on two workers and
# 0.832 against 0.824 s on one.
_CHUNK = _BASIS_BLOCK
# Heatmap workers at most, the calling process included: two is the largest
# count measured for time and peak RSS (on a 2-CPU host).
_MAX_WORKERS = 2
# One heatmap worker per this many points, rounded up.  Measured on a 2-CPU
# host with BLAS on one thread, 40 alternating one- and two-worker pairs in
# process per grid, no CSV written.  Forking the second worker costs about
# 6 ms, so two workers won 0 of 40 pairs at 2^15 points (room and platoon),
# 0 (room) and 3 (platoon) at 2^16, and 2 (room) and 33 (platoon) at 2^17:
# never the 36 of 40 that would move the boundary.  Two won all 40 on
# platoon's 2^18 points but 6 of 40 on room's.  With room's CSV written two
# won 39 of 40 pairs at 2^16 points (92 against 151 ms, medians).
_POINTS_PER_WORKER = 2**16
# SIGKILL's number on every platform with fork; the signal module is not
# otherwise loaded, and importing it would add to every run's start-up
_SIGKILL = 9


def _cpu_budget() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _heatmap_workers(points: int) -> int:
    """Workers for a heatmap of ``points`` grid points (at least one); one
    where processes cannot fork."""
    if not hasattr(os, "fork"):
        return 1
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
    once per state point and d^T s11 d once per input point.  The grid is
    cut into tiles of ``per`` = ``_CHUNK`` // |D| whole state rows (at
    least one, at most |X|) against the whole input grid, or, where |D|
    exceeds ``_CHUNK``, of one state row against a ``_CHUNK``-wide slice of
    the input grid, so a tile is at most ``_CHUNK`` points, one evaluator
    sub-block.  A tile takes its states, B(x) and x^T s22 x by repeating
    each of its state rows once per input, and its inputs and d^T s11 d
    from the input grid tiled ``per`` times.  That grid is shared by every
    tile and read-only, so an oracle that writes into its ``d`` raises
    ``ValueError``.  Only the cross term d^T s12 x is computed per pair.
    ``eval_template`` and ``rowwise_bilinear`` give each row the value it
    has in any batch, so on one BLAS thread every value is bit-identical to
    the evaluators on the materialised joint grid, tile by tile.

    The state rows are split evenly into contiguous ranges, one per worker:
    up to ``_MAX_WORKERS``, no more than the CPUs this process may use or
    the state rows, one per ``_POINTS_PER_WORKER`` points rounded up, and
    one where the platform cannot fork.  The calling process scans the
    first range itself, and each other range is scanned by a child process
    forked for it (see ``_forked_scan``), so the workers share no
    interpreter lock.  Each process walks its range tile by tile in grid
    order with one workspace, made once: a tile's basis of f(x, d)
    (``eval_template``'s ``basis_out``) and its values.  Each process also
    holds the state grid with its B(x) and x^T s22 x and the tiled input
    grid with its d^T s11 d, so memory is O(|X| + |D| + tile) per worker,
    however many points |X| x |D| the grid has.  The ranges are merged in
    grid order, so the first fault and the first maximum in grid order win
    and the result does not depend on the worker count.  The workers are
    sized for BLAS on one thread, which importing netcert sets (see
    ``netcert``).  A worker calls the oracle in a process of its own, so
    what the oracle changes there does not reach the caller.

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
    b_grid = eval_template(cls.template, coeffs, xs)
    rate = solution.supply
    quad_d = rowwise_bilinear(ds, rate.s11, ds)
    quad_x = rowwise_bilinear(xs, rate.s22, xs)
    n_x, n_d = xs.shape[0], ds.shape[0]
    workers = min(_heatmap_workers(n_x * n_d), n_x)
    # a tile: `per` state rows against the input grid, or one state row
    # against `width` inputs
    per, width = max(1, min(_CHUNK // n_d, n_x)), min(n_d, _CHUNK)
    d_grid, quad_d_grid = np.tile(ds, (per, 1)), np.tile(quad_d, per)
    d_grid.flags.writeable = False
    # this process's workspace: a tile's basis and its values
    basis = np.empty((per * width, cls.template.term_count))
    values = np.empty(per * width)

    def scan(first_row: int, stop_row: int, fh, parent: Optional[int] = None):
        """(max, argmax) over state rows [first_row, stop_row), their CSV
        rows written to ``fh``.  A child scanning for ``parent`` exits
        between tiles once that process is gone."""
        best_val, best_pt = -np.inf, None
        for row in range(first_row, stop_row, per):
            states = slice(row, min(row + per, stop_row))
            for start in range(0, n_d, width):
                if parent is not None and os.getppid() != parent:
                    os._exit(1)
                w = min(width, n_d - start)
                m = (states.stop - row) * w
                x = xs[states].repeat(w, axis=0)
                d = d_grid[start : start + m]
                # a non-finite value is reported below
                with np.errstate(all="ignore"):
                    supply = supply_sum(
                        quad_d_grid[start : start + m],
                        rowwise_bilinear(d, rate.s12, x),
                        quad_x[states].repeat(w),
                    )
                    fx = cls.oracle.batch(x, d)
                    vals = eval_template(cls.template, coeffs, fx, out=values[:m], basis_out=basis)
                    vals -= b_grid[states].repeat(w)
                    vals -= supply
                if not (np.isfinite(vals).all() and np.isfinite(fx).all()):
                    i = int(np.argmax(~(np.isfinite(vals) & np.isfinite(fx).all(axis=1))))
                    raise DataFaultError(
                        f"non-finite oracle output or decrease value at x={x[i].tolist()}, "
                        f"d={d[i].tolist()}"
                    )
                i = int(np.argmax(vals))
                if vals[i] > best_val:
                    best_val, best_pt = float(vals[i]), np.concatenate([x[i], d[i]])
                if fh is not None:
                    write_csv_rows(fh, x, d, vals)
        return best_val, best_pt

    bounds = [n_x * k // workers for k in range(workers + 1)]
    with ExitStack() as stack:
        fh = None
        if csv_path is not None:
            fh = stack.enter_context(open(csv_path, "w", newline=""))
            header = [f"x{k}" for k in range(n)] + [f"d{k}" for k in range(cls.input_dim)]
            fh.write(csv_line(header + ["value"]))
        children = [
            stack.enter_context(_forked_scan(scan, lo, hi, fh))
            for lo, hi in zip(bounds[1:-1], bounds[2:])
        ]
        ranges = [scan(bounds[0], bounds[1], fh)] + [result() for result in children]
    # max keeps the first of equal maxima, the first in grid order
    best_val, best_pt = max(ranges, key=lambda best: best[0])
    return HeatmapSummary(max_value=best_val, argmax=best_pt, point_count=n_x * n_d)


@contextmanager
def _forked_scan(scan, first_row: int, stop_row: int, csv):
    """Run ``scan`` over state rows [first_row, stop_row) in a forked child
    process.  Yields a call that waits for the child and returns its (max,
    argmax), after appending its CSV rows to ``csv`` (when not None), or
    raises the exception the child raised.

    The child sends its outcome pickled through a pipe and writes its CSV
    rows to an unnamed temporary file.  It exits between tiles once the
    calling process is gone, and it leaves by ``os._exit``, so it runs no
    cleanup or ``atexit`` handler of the caller, such as the removal of a
    staging directory, and flushes no file the caller has open, standard
    output included.  On every exit the caller kills a child that has not
    reported and reaps it.
    """
    with ExitStack() as stack:
        rows = None
        if csv is not None:
            rows = stack.enter_context(tempfile.TemporaryFile("w+", newline=""))
        read, write = os.pipe()
        pipe = stack.enter_context(open(read, "rb"))
        sink = stack.enter_context(open(write, "wb"))

        def result():
            nonlocal live
            payload = pipe.read()
            os.waitpid(pid, 0)
            live = False
            if not payload:
                raise RuntimeError(f"heatmap worker {pid} ended without a result")
            outcome = pickle.loads(payload)
            if isinstance(outcome, BaseException):
                raise outcome
            if rows is not None:
                rows.seek(0)
                shutil.copyfileobj(rows, csv)
            return outcome

        parent, live = os.getpid(), True
        pid = os.fork()
        if pid == 0:
            try:
                try:
                    outcome = scan(first_row, stop_row, rows, parent)
                    if rows is not None:
                        rows.flush()
                except BaseException as exc:
                    outcome = exc
                sink.write(_portable(outcome))
                sink.flush()
            finally:
                os._exit(0)
        try:
            sink.close()
            yield result
        finally:
            if live:
                os.kill(pid, _SIGKILL)
                os.waitpid(pid, 0)


def _portable(outcome) -> bytes:
    """``outcome`` pickled; an exception that does not come back from its
    pickle is sent as a ``RuntimeError`` naming it."""
    try:
        payload = pickle.dumps(outcome)
        pickle.loads(payload)
        return payload
    except Exception:
        return pickle.dumps(RuntimeError(f"heatmap worker raised {outcome!r}"))


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
