import csv
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from netcert.blackbox import TOPOLOGY_KINDS, Topology, TransitionOracle, simulate_network
from netcert.core import (
    _BASIS_BLOCK,
    IntervalBox,
    SafetySpec,
    StcTemplate,
    SubsystemClass,
    eval_supply,
    eval_template,
)
from netcert.sampling import DataFaultError, grid_samples
from netcert.scp import ScpSolution
import netcert.sampling as sampling_mod
import netcert.verify as verify_mod
from netcert.verify import (
    check_level_sets,
    decrease_heatmap,
    phase_portrait,
    surface_data,
    write_surface_csv,
    write_trajectories_csv,
)
from tests.test_benchmark_hooks import REPO_ROOT, run_python
from tests.test_blackbox import first_steps

# Imports netcert.verify, without netcert.cli, then numpy, and loads scipy's
# L-BFGS-B extension; prints the thread count of numpy's OpenBLAS and of the
# one the extension links, and whether netcert.cli was loaded.
LIBRARY_BLAS = """
import ctypes, json, sys
import netcert.verify
import numpy as np
from netcert import scp
lbfgsb = scp.load_scipy_extension("scipy.optimize._lbfgsb")
numpy_blas = ctypes.CDLL(np._core._multiarray_umath.__file__)
scipy_blas = ctypes.CDLL(lbfgsb.__file__)
print(json.dumps([
    numpy_blas.scipy_openblas_get_num_threads64_(),
    scipy_blas.scipy_openblas_get_num_threads(),
    "netcert.cli" in sys.modules,
]))
"""


def make_solution(coeffs, sigma, phi, supply=None, eta=0.0, beta=0.0):
    blocks = [[[0.0]]] * 3 if supply is None else supply
    s11, s12, s22 = [tuple(map(tuple, np.atleast_2d(s).tolist())) for s in blocks]
    return ScpSolution(
        coeffs=np.array(coeffs),
        sigma=sigma,
        phi=phi,
        supply_s11=s11,
        supply_s12=s12,
        supply_s22=s22,
        eta=eta,
        beta=beta,
    )


class TestCheckLevelSets:
    def test_reference_room_extrema(self, room_class, room_reference_solution):
        report = check_level_sets(room_class, room_reference_solution, (101,))
        # the polynomial rises on [10, 13], so the extrema sit at endpoints
        assert report.initial_max == pytest.approx(135.6791, abs=1e-6)
        assert report.unsafe_min == pytest.approx(211.6136, abs=1e-6)
        assert report.initial_argmax[0] == pytest.approx(11.0)
        assert report.unsafe_argmin[0] == pytest.approx(12.0)
        assert report.passed

    def test_constant_certificate_equalities(self, room_class):
        sol = make_solution([0.0, 0.0, 4.0], sigma=4.0, phi=4.0)
        report = check_level_sets(room_class, sol, (21,))
        assert report.initial_ok and report.unsafe_ok
        assert not report.gap_ok  # sigma == phi has no separating gap
        assert not report.passed

    def test_sigma_below_max_fails_with_witness(self, room_class, room_reference_solution):
        squeezed = replace(room_reference_solution, sigma=100.0)
        report = check_level_sets(room_class, squeezed, (51,))
        assert not report.initial_ok
        assert report.initial_max > 100.0
        assert report.initial_argmax[0] == pytest.approx(11.0)

    def test_monotone_grid_refinement(self, room_class, room_reference_solution):
        """Extrema over a grid are bounded by extrema over a refinement that
        contains it (11 -> 21 -> 41 points share endpoints)."""
        maxima, minima = [], []
        for c in (11, 21, 41):
            r = check_level_sets(room_class, room_reference_solution, (c,))
            maxima.append(r.initial_max)
            minima.append(r.unsafe_min)
        assert maxima[0] <= maxima[1] <= maxima[2] + 1e-15
        assert minima[0] >= minima[1] >= minima[2] - 1e-15


class TestDecreaseHeatmap:
    def test_identity_oracle_zero_grid(self, room_class, room_reference_solution):
        identity = replace(
            room_class,
            oracle=TransitionOracle(lambda x, d: x),
        )
        zero = ((0.0,),)
        sol = replace(room_reference_solution, supply_s11=zero, supply_s12=zero, supply_s22=zero)
        heat = decrease_heatmap(identity, sol, (21, 21))
        assert heat.max_value == pytest.approx(0.0, abs=1e-12)
        assert heat.passed

    def test_contracting_scalar_example(self):
        """f = x/2, B = x^2, zero supply: values are -0.75 x^2 <= 0."""
        cls = SubsystemClass(
            id="halving",
            state_dim=1,
            input_dim=1,
            state_box=IntervalBox([-1.0], [1.0]),
            input_box=IntervalBox([-1.0], [1.0]),
            safety=SafetySpec(
                initial=IntervalBox([-0.1], [0.1]), unsafe=IntervalBox([0.9], [1.0])
            ),
            template=StcTemplate(state_dim=1, exponents=[[2]]),
            oracle=TransitionOracle(lambda x, d: 0.5 * x),
        )
        sol = make_solution([1.0], sigma=0.01, phi=0.81)
        heat = decrease_heatmap(cls, sol, (41, 5))
        assert heat.passed
        assert heat.max_value == pytest.approx(0.0, abs=1e-12)  # attained at x = 0
        # spot-check an interior value through the grid CSV path
        values_at_one = -0.75 * 1.0**2
        pts_min = heat.max_value
        assert values_at_one <= pts_min

    def test_chunked_evaluation_matches_direct(self, room_class, room_solution, monkeypatch):
        import netcert.verify as verify_mod

        full = decrease_heatmap(room_class, room_solution, (40, 40))
        monkeypatch.setattr(verify_mod, "_CHUNK", 97)
        chunked = decrease_heatmap(room_class, room_solution, (40, 40))
        assert chunked.max_value == full.max_value
        assert np.array_equal(chunked.argmax, full.argmax)

    def test_csv_emission(self, tmp_path, room_class, room_solution):
        path = tmp_path / "heat.csv"
        decrease_heatmap(room_class, room_solution, (6, 6), csv_path=path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x0", "d0", "value"]
        assert len(rows) == 1 + 36


def joint_grid_heatmap(cls, solution, counts, csv_path):
    """Reference for ``decrease_heatmap``: the joint grid materialised, fed
    to the evaluators in one call, and written row by row."""
    pts = grid_samples(cls.joint_box, counts)
    n = cls.state_dim
    x, d = pts[:, :n], pts[:, n:]
    vals = (
        eval_template(cls.template, solution.coeffs, cls.oracle.batch(x, d))
        - eval_template(cls.template, solution.coeffs, x)
        - eval_supply(solution.supply, d, x)
    )
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [f"x{k}" for k in range(n)] + [f"d{k}" for k in range(cls.input_dim)] + ["value"]
        )
        for row, v in zip(pts, vals):
            writer.writerow([repr(float(c)) for c in row] + [repr(float(v))])
    return pts, vals


# tiles of every size mod 4, shorter than 4 rows included
CHUNKS = [*range(1, 10), 97]
# state grids of every size mod 4: room 13, 14, 15; platoon 12, 9, 10, 15
JOINT_GRIDS = [
    ("room", (13, 11)),
    ("platoon", (3, 4, 2, 5)),
    ("room", (14, 5)),
    ("room", (15, 7)),
    ("platoon", (3, 3, 2, 3)),
    ("platoon", (2, 5, 3, 2)),
    ("platoon", (3, 5, 2, 3)),
]
JOINT_GRID_IDS = [
    "room", "platoon", "room-x14", "room-x15", "platoon-x9", "platoon-x10", "platoon-x15"
]


# Grids of 3 or more shipped-size tiles per worker, each range ending in a
# short tile: 21 states in tiles of 4 state rows against 1,999 inputs (room)
# or 1,845 (platoon); on one worker 5 tiles of 4 rows and one of 1, on two
# ranges of 10 and 11 states, each ending in a tile of 2 or 3 rows.
SHIPPED_GRIDS = [("room", (21, 1999)), ("platoon", (3, 7, 41, 45))]
# Grids wider than a tile: each state row is cut into slices of the input
# grid, at the shipped tile size (8,192, 8,192 and 3,616 inputs per state) and
# at 97 (97 and 53), and a grid of one state row, which runs on one worker.
WIDE_GRIDS = [
    ("room", (3, 20_000), None),
    ("room", (40, 150), 97),
    ("room", (1, 30_000), None),
]


def assert_matches_joint_grid(cls, solution, counts, tmp_path):
    """The heatmap's max, argmax, point count and CSV bytes are those of
    ``joint_grid_heatmap``."""
    pts, vals = joint_grid_heatmap(cls, solution, counts, tmp_path / "ref.csv")
    heat = decrease_heatmap(cls, solution, counts, csv_path=tmp_path / "heat.csv")
    i = int(np.argmax(vals))
    assert heat.max_value == vals[i]
    assert np.array_equal(heat.argmax, pts[i])
    assert heat.point_count == pts.shape[0]
    assert (tmp_path / "heat.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestProductGridHeatmap:
    """The heatmap cuts the X x D product grid into tiles of whole state
    rows against the input grid, or of one state row against a slice of it;
    it must reproduce the materialised joint grid bit for bit.  The
    reference feeds the whole joint grid to the evaluators in one call: they
    and the built-in oracles give each row the value it has in any batch, so
    tiles of any size, 1-row tiles included, must give the same bytes."""

    @pytest.mark.parametrize("chunk", CHUNKS, ids=[f"chunk{c}" for c in CHUNKS])
    @pytest.mark.parametrize("name, counts", JOINT_GRIDS, ids=JOINT_GRID_IDS)
    def test_matches_joint_grid(self, request, tmp_path, monkeypatch, name, counts, chunk):
        cls = request.getfixturevalue(f"{name}_class")
        solution = request.getfixturevalue(f"{name}_solution")
        monkeypatch.setattr(verify_mod, "_CHUNK", chunk)
        assert_matches_joint_grid(cls, solution, counts, tmp_path)

    @pytest.mark.parametrize("workers", [1, 2], ids=["w1", "w2"])
    @pytest.mark.parametrize("name, counts", SHIPPED_GRIDS, ids=["room", "platoon"])
    def test_shipped_blocks_match_joint_grid(
        self, request, tmp_path, heatmap_workers, name, counts, workers
    ):
        """At the shipped tile size, on grids of an odd state count whose
        every worker walks three or more tiles, the last of them short."""
        cls = request.getfixturevalue(f"{name}_class")
        solution = request.getfixturevalue(f"{name}_solution")
        heatmap_workers(workers)
        # the layout decrease_heatmap makes, checked to be the one meant here
        n = cls.state_dim
        n_x, n_d = int(np.prod(counts[:n])), int(np.prod(counts[n:]))
        per = verify_mod._CHUNK // n_d
        ranges = np.diff([n_x * k // workers for k in range(workers + 1)])
        assert n_x % 2 and all(r > 2 * per and r % per for r in ranges)
        assert_matches_joint_grid(cls, solution, counts, tmp_path)

    @pytest.mark.parametrize("workers", [1, 2], ids=["w1", "w2"])
    @pytest.mark.parametrize(
        "name, counts, chunk", WIDE_GRIDS, ids=["room-3x20000", "room-chunk97", "room-1x30000"]
    )
    def test_wide_grids_match_joint_grid(
        self, request, tmp_path, monkeypatch, heatmap_workers, name, counts, chunk, workers
    ):
        """Where the input grid is wider than a tile, and where the grid has
        one state row: that grid runs on one worker, which forks no child."""
        cls = request.getfixturevalue(f"{name}_class")
        solution = request.getfixturevalue(f"{name}_solution")
        if chunk is not None:
            monkeypatch.setattr(verify_mod, "_CHUNK", chunk)
        assert int(np.prod(counts[cls.state_dim :])) > verify_mod._CHUNK
        heatmap_workers(workers)
        if counts[0] == 1:

            def forbidden():
                raise AssertionError("a heatmap of one state row forked")

            monkeypatch.setattr(os, "fork", forbidden)
        assert_matches_joint_grid(cls, solution, counts, tmp_path)

    def test_one_nan_is_a_data_fault(self, room_class, room_solution, monkeypatch):
        # the poisoned point (flat 377, state 17) sits in the fifth of 6 tiles
        # of 4 state rows against 21 inputs, after tiles of finite values
        monkeypatch.setattr(verify_mod, "_CHUNK", 97)
        target = float(grid_samples(room_class.state_box, (21,))[17, 0])

        def poisoned(x, d):
            fx = room_class.oracle.batch(x, d)
            fx[(x[:, 0] == target) & (d[:, 0] == 13.0)] = np.nan
            return fx

        cls = replace(room_class, oracle=TransitionOracle(poisoned))
        with pytest.raises(DataFaultError, match=re.escape(f"x=[{target}], d=[13.0]")):
            decrease_heatmap(cls, room_solution, (21, 21))

    def test_all_nan_is_a_data_fault(self, room_class, room_solution):
        nan_oracle = TransitionOracle(lambda x, d: np.full(x.shape, np.nan))
        cls = replace(room_class, oracle=nan_oracle)
        with pytest.raises(DataFaultError, match=re.escape("x=[10.0], d=[10.0]")):
            decrease_heatmap(cls, room_solution, (21, 21))

    def test_oracle_cannot_write_the_input_grid(
        self, room_class, room_solution, monkeypatch, heatmap_workers
    ):
        """Every tile's inputs are a view of one input grid, so an oracle
        that writes into its ``d`` raises instead of changing later tiles.
        On two workers only the forked child writes, and its ``ValueError``
        reaches the caller with its type and message."""
        monkeypatch.setattr(verify_mod, "_CHUNK", 97)
        caller = os.getpid()
        for workers in (1, 2):
            heatmap_workers(workers)

            def writing(x, d):
                fx = room_class.oracle.batch(x, d)
                if workers == 1 or os.getpid() != caller:
                    d[:] = 0.0
                return fx

            cls = replace(room_class, oracle=TransitionOracle(writing))
            with pytest.raises(ValueError, match="assignment destination is read-only"):
                decrease_heatmap(cls, room_solution, ROOM_21)

    @pytest.mark.parametrize(
        "name, counts", [("room", (40, 30)), ("platoon", (5, 6, 4, 3))], ids=["room", "platoon"]
    )
    def test_grids_requested_per_factor(self, request, monkeypatch, name, counts):
        cls = request.getfixturevalue(f"{name}_class")
        solution = request.getfixturevalue(f"{name}_solution")
        rows = []

        def recording(box, per_dim):
            pts = grid_samples(box, per_dim)
            rows.append(pts.shape[0])
            return pts

        monkeypatch.setattr(verify_mod, "grid_samples", recording)
        heat = decrease_heatmap(cls, solution, counts)
        n = cls.state_dim
        assert heat.point_count == int(np.prod(counts))
        assert max(rows) <= max(int(np.prod(counts[:n])), int(np.prod(counts[n:])))

    @pytest.mark.parametrize(
        "name, counts", [("room", (40, 30)), ("platoon", (5, 6, 4, 3))], ids=["room", "platoon"]
    )
    def test_supply_forms_once_per_factor(self, request, monkeypatch, name, counts):
        """d^T s11 d is evaluated once over the input grid and x^T s22 x once
        over the state grid; only d^T s12 x is evaluated per tile of pairs."""
        cls = request.getfixturevalue(f"{name}_class")
        solution = request.getfixturevalue(f"{name}_solution")
        monkeypatch.setattr(verify_mod, "_CHUNK", 97)
        bilinear = verify_mod.rowwise_bilinear
        calls = []

        def recording(a, m, b):
            calls.append((m, a.shape[0]))
            return bilinear(a, m, b)

        monkeypatch.setattr(verify_mod, "rowwise_bilinear", recording)
        decrease_heatmap(cls, solution, counts)
        n, rate = cls.state_dim, solution.supply
        blocks = {"s11": rate.s11, "s12": rate.s12, "s22": rate.s22}
        rows = {key: sorted(r for m, r in calls if m is block) for key, block in blocks.items()}
        assert rows["s11"] == [int(np.prod(counts[n:]))]
        assert rows["s22"] == [int(np.prod(counts[:n]))]
        # one worker: tiles of 97 // |D| state rows against the |D| inputs,
        # the last maybe shorter
        n_x, n_d = int(np.prod(counts[:n])), int(np.prod(counts[n:]))
        per = 97 // n_d
        assert rows["s12"] == sorted(min(per, n_x - row) * n_d for row in range(0, n_x, per))
        assert len(calls) == 2 + len(rows["s12"])

    def test_memory_stays_per_chunk(self, room_class, room_solution, monkeypatch):
        """A 16x larger grid at a fixed chunk size keeps the allocation peak
        within 1.5x."""
        monkeypatch.setattr(verify_mod, "_CHUNK", 2_000)
        peaks = []
        for counts in ((60, 60), (240, 240)):
            tracemalloc.start()
            try:
                decrease_heatmap(room_class, room_solution, counts)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]

    def test_workspace_is_one_evaluator_block(
        self, platoon_class, platoon_solution, heatmap_workers
    ):
        """At the shipped tile size, on one worker and grids of 12 and 45
        tiles, numpy's traced peak stays within the arrays of one
        ``_BASIS_BLOCK``-row tile, the basis workspace and 20 float columns
        (about 15 are live at the peak), plus 8 floats per state and input
        grid row.  Growing the state grid 4x at a fixed input grid raises it
        by no more than what lives through the scan per state row: the
        state, B(x) and x^T s22 x, with 16 KiB to spare."""
        heatmap_workers(1)
        n_x, n_d = (15, 20), (15, 20)  # 300 states and 300 inputs
        peaks = []
        for x_counts in (n_x, (2 * n_x[0], 2 * n_x[1])):
            tracemalloc.start()
            try:
                decrease_heatmap(platoon_class, platoon_solution, x_counts + n_d)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        n, terms = platoon_class.state_dim, platoon_class.template.term_count
        states, inputs = int(np.prod(n_x)), int(np.prod(n_d))
        assert peaks[0] <= 8 * (_BASIS_BLOCK * (terms + 20) + 8 * (states + inputs))
        assert peaks[1] - peaks[0] <= 8 * (n + 2) * 3 * states + 2**14

    def test_wide_grid_workspace_is_one_tile(self, room_class, room_solution, heatmap_workers):
        """An input grid wider than a tile is walked in slices of it: on one
        worker and 2,000,000 points, numpy's traced peak stays within one
        ``_BASIS_BLOCK``-point tile (the basis workspace and 20 float
        columns) plus 8 floats per state and input grid row, a quarter of
        the joint grid's x and d columns alone."""
        heatmap_workers(1)
        counts = (20, 100_000)
        tracemalloc.start()
        try:
            decrease_heatmap(room_class, room_solution, counts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        terms = room_class.template.term_count
        assert counts[1] > verify_mod._CHUNK
        assert peak <= 8 * (_BASIS_BLOCK * (terms + 20) + 8 * sum(counts))


def heatmap_outputs(cls, solution, counts, csv_path):
    heat = decrease_heatmap(cls, solution, counts, csv_path=csv_path)
    return heat.max_value, heat.argmax.tolist(), heat.point_count, csv_path.read_bytes()


@pytest.fixture()
def heatmap_workers(monkeypatch):
    """Sets the number of heatmap workers, whatever the grid size and CPUs."""

    def set_workers(count):
        monkeypatch.setattr(verify_mod, "_heatmap_workers", lambda points: count)

    return set_workers


# grids of 5 shipped-size tiles: 40 state rows of room's 200, 58 of platoon's 240
POOL_GRIDS = [("room", (200, 200)), ("platoon", (16, 15, 14, 10))]

# The room grid of 21 x 21 points in tiles of at most 97 points: 4 state rows
# against the 21 inputs.  With two workers the caller scans states 0-9 (flat
# points 0-209, tiles of 4, 4 and 2 states) and a forked child states 10-20
# (210-440, tiles of 4, 4 and 3 states).  Flat point i is x = xs[i // 21],
# d = xs[i % 21].
ROOM_21 = (21, 21)


def room_21_point(room_class, i):
    """(x, d) of flat point ``i``; the room's input box is its state box."""
    xs = grid_samples(room_class.state_box, (21,))[:, 0]
    return float(xs[i // 21]), float(xs[i % 21])


def poisoned_at(room_class, *points):
    """The room class with its oracle's output NaN at the flat points given."""
    targets = [room_21_point(room_class, i) for i in points]

    def poisoned(x, d):
        fx = room_class.oracle.batch(x, d)
        for px, pd in targets:
            fx[(x[:, 0] == px) & (d[:, 0] == pd)] = np.nan
        return fx

    return replace(room_class, oracle=TransitionOracle(poisoned))


def fault_message(room_class, i):
    px, pd = room_21_point(room_class, i)
    return re.escape(f"x=[{px}], d=[{pd}]")


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# Runs a heatmap on two workers in tiles of at most 97 points, with an oracle
# that sleeps 20 ms per tile, and prints the pid of the child it forks.
SLOW_HEATMAP = """
import dataclasses, os, time
import numpy as np
import netcert.verify as verify
from netcert.blackbox import TransitionOracle, build_room_class
from netcert.scp import ScpSolution

room = build_room_class()

def slow(x, d):
    time.sleep(0.02)
    return room.oracle.batch(x, d)

cls = dataclasses.replace(room, oracle=TransitionOracle(slow))
zero = ((0.0,),)
solution = ScpSolution(np.zeros(cls.template.term_count), 0.0, 1.0, zero, zero, zero, 0.0, 0.0)
verify._CHUNK = 97
verify._heatmap_workers = lambda points: 2
fork = os.fork

def announced():
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid

os.fork = announced
verify.decrease_heatmap(cls, solution, (200, 200))
"""


def process_gone(pid):
    """The process has exited: it no longer exists, or it is a zombie that
    its new parent has not reaped yet."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


class TestHeatmapPool:
    """Contiguous ranges of state rows run in the calling process and in forked
    children; the caller merges them in grid order, so nothing may depend
    on the number of workers."""

    @pytest.mark.parametrize("chunk", [97, verify_mod._CHUNK], ids=["chunk97", "shipped"])
    @pytest.mark.parametrize("name, counts", POOL_GRIDS, ids=["room", "platoon"])
    def test_worker_count_invariance(
        self, request, tmp_path, monkeypatch, heatmap_workers, name, counts, chunk
    ):
        cls = request.getfixturevalue(f"{name}_class")
        solution = request.getfixturevalue(f"{name}_solution")
        monkeypatch.setattr(verify_mod, "_CHUNK", chunk)
        runs = []
        for workers in (1, 2, 4):
            heatmap_workers(workers)
            runs.append(heatmap_outputs(cls, solution, counts, tmp_path / f"w{workers}.csv"))
        assert runs[0] == runs[1] == runs[2]

    def test_first_fault_in_grid_order(
        self, room_class, room_solution, monkeypatch, heatmap_workers
    ):
        """The caller's range holds a NaN in its second tile and the
        child's range in its first, which the child reaches first; the error
        names the caller's point, the first in grid order."""
        monkeypatch.setattr(verify_mod, "_CHUNK", 97)
        heatmap_workers(2)
        cls = poisoned_at(room_class, 100, 250)
        with pytest.raises(DataFaultError, match=fault_message(room_class, 100)):
            decrease_heatmap(cls, room_solution, ROOM_21)

    def test_fault_in_the_child_range_is_named(
        self, room_class, room_solution, monkeypatch, heatmap_workers
    ):
        """A fault found only by the forked child reaches the caller with
        its type and the point it names."""
        monkeypatch.setattr(verify_mod, "_CHUNK", 97)
        heatmap_workers(2)
        cls = poisoned_at(room_class, 300, 400)
        with pytest.raises(DataFaultError, match=fault_message(room_class, 300)):
            decrease_heatmap(cls, room_solution, ROOM_21)

    def test_no_child_outlives_the_call(
        self, tmp_path, room_class, room_solution, monkeypatch, heatmap_workers
    ):
        """After a success, a fault in either range, an oracle exception in
        either range and an interrupt of the caller, the calling process has
        no child left, reaped or not."""
        monkeypatch.setattr(verify_mod, "_CHUNK", 97)
        heatmap_workers(2)
        assert_no_child_left()
        decrease_heatmap(room_class, room_solution, ROOM_21, csv_path=tmp_path / "heat.csv")
        assert_no_child_left()
        for point in (30, 300):
            with pytest.raises(DataFaultError, match=fault_message(room_class, point)):
                decrease_heatmap(poisoned_at(room_class, point), room_solution, ROOM_21)
            assert_no_child_left()
        caller = os.getpid()
        for error, in_caller in ((KeyError, True), (KeyError, False), (KeyboardInterrupt, True)):

            def failing(x, d):
                if (os.getpid() == caller) == in_caller:
                    raise error("oracle down")
                return room_class.oracle.batch(x, d)

            cls = replace(room_class, oracle=TransitionOracle(failing))
            with pytest.raises(error, match="oracle down"):
                decrease_heatmap(cls, room_solution, ROOM_21)
            assert_no_child_left()

    def test_unpicklable_child_exception_is_named(
        self, room_class, room_solution, monkeypatch, heatmap_workers
    ):
        """An exception that cannot cross the pipe reaches the caller as a
        RuntimeError naming it."""
        monkeypatch.setattr(verify_mod, "_CHUNK", 97)
        heatmap_workers(2)
        caller = os.getpid()

        class Unpicklable(Exception):
            pass

        def failing(x, d):
            if os.getpid() != caller:
                raise Unpicklable("local class")
            return room_class.oracle.batch(x, d)

        cls = replace(room_class, oracle=TransitionOracle(failing))
        with pytest.raises(RuntimeError, match="Unpicklable.*local class"):
            decrease_heatmap(cls, room_solution, ROOM_21)
        assert_no_child_left()

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="no /proc")
    def test_child_exits_when_the_caller_is_killed(self):
        """A caller killed mid-heatmap, as at a benchmark's deadline, leaves
        no process running: its child sees between tiles that the caller is
        gone and exits within 2 s."""
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        with subprocess.Popen(
            [sys.executable, "-c", SLOW_HEATMAP], env=env, stdout=subprocess.PIPE, text=True
        ) as caller:
            try:
                child = int(caller.stdout.readline())
                time.sleep(0.2)
            finally:
                caller.kill()
                caller.wait(timeout=10)
        deadline = time.monotonic() + 2.0
        while not process_gone(child) and time.monotonic() < deadline:
            time.sleep(0.01)
        gone = process_gone(child)
        if not gone:
            os.kill(child, 9)
        assert gone, "the forked child outlived its caller by 2 s"

    def test_memory_stays_per_worker_chunk(
        self, room_class, room_solution, monkeypatch, heatmap_workers
    ):
        """Each process holds one workspace, so the caller's allocation peak
        with two workers on a 16x larger grid stays within 1.5x of one
        worker's (tracemalloc sees the calling process only)."""
        monkeypatch.setattr(verify_mod, "_CHUNK", 2_000)
        peaks = []
        for workers, counts in ((1, (60, 60)), (2, (240, 240))):
            heatmap_workers(workers)
            tracemalloc.start()
            try:
                decrease_heatmap(room_class, room_solution, counts)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]

    @pytest.mark.parametrize(
        "cpus, points, workers",
        [(4, 441, 1), (4, 2**16, 1), (4, 2**16 + 1, 2), (4, 9_000_000, 2), (1, 9_000_000, 1)],
    )
    def test_pool_size(self, monkeypatch, cpus, points, workers):
        """One worker per 2^16 points rounded up, no more than the CPUs or
        the cap of two."""
        monkeypatch.setattr(verify_mod, "_cpu_budget", lambda: cpus)
        assert verify_mod._heatmap_workers(points) == workers

    def test_one_worker_without_fork(self, monkeypatch):
        monkeypatch.setattr(verify_mod, "_cpu_budget", lambda: 4)
        monkeypatch.delattr(os, "fork")
        assert verify_mod._heatmap_workers(9_000_000) == 1

    def test_small_grids_stay_on_one_thread(self, room_class, room_solution, monkeypatch):
        """441 points take one worker, the calling process, which forks no
        child."""

        def forbidden():
            raise AssertionError("a heatmap of 441 points forked")

        monkeypatch.setattr(verify_mod, "_cpu_budget", lambda: 4)
        monkeypatch.setattr(os, "fork", forbidden)
        monkeypatch.setattr(verify_mod, "_CHUNK", 97)
        decrease_heatmap(room_class, room_solution, ROOM_21)  # 441 points in 6 tiles

    def test_library_import_puts_blas_on_one_thread(self):
        """Importing a netcert module other than the CLI sets one BLAS
        thread over an inherited count: numpy's OpenBLAS, which loads after
        it, and scipy's, which the L-BFGS-B extension brings in later, both
        run one thread, as the heatmap's workers are sized for."""
        proc = run_python(["-c", LIBRARY_BLAS], OPENBLAS_NUM_THREADS="4")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [1, 1, False]


class TestSurfaceData:
    def test_one_dimensional_table(self, room_class, room_reference_solution):
        pts, vals = surface_data(room_class, room_reference_solution, (31,))
        assert pts.shape == (31, 1)
        assert vals.shape == (31,)

    def test_two_dimensional_count(self, platoon_class, platoon_solution):
        pts, vals = surface_data(platoon_class, platoon_solution, (3, 3))
        assert pts.shape == (9, 2)
        assert vals.shape == (9,)

    def test_constant_certificate_constant_column(self, room_class):
        sol = make_solution([0.0, 0.0, 2.5], sigma=2.5, phi=2.5)
        _, vals = surface_data(room_class, sol, (11,))
        assert np.allclose(vals, 2.5)

    def test_csv_header(self, tmp_path, room_class, room_reference_solution):
        pts, vals = surface_data(room_class, room_reference_solution, (5,))
        path = tmp_path / "surface.csv"
        write_surface_csv(path, room_class, pts, vals)
        with open(path) as fh:
            header = fh.readline().strip()
        assert header == "x0,B"


class TestPhasePortrait:
    def test_fixed_point_initial_states(self, room_class):
        topo = Topology(kind="ring", surrogate_size=10)
        portrait = phase_portrait(room_class, topo, (1,), 20)
        # single midpoint initial state; trajectory contracts, stays safe
        assert portrait.states[:, 0, 0].shape == (1, 1)
        assert portrait.unsafe_entries == 0

    def test_zero_steps(self, room_class):
        topo = Topology(kind="cascade", surrogate_size=4)
        portrait = phase_portrait(room_class, topo, (3,), 0)
        assert portrait.states.shape[:2] == (3, 1)

    @pytest.mark.parametrize("kind", TOPOLOGY_KINDS)
    def test_room_benchmark_portraits_safe(self, room_class, kind):
        topo = Topology(kind=kind, surrogate_size=10)
        portrait = phase_portrait(room_class, topo, (25,), 100)
        assert portrait.states.shape[0] == 25
        assert portrait.unsafe_entries == 0

    @pytest.mark.parametrize("kind", TOPOLOGY_KINDS)
    @pytest.mark.parametrize(
        "name, counts", [("room", (25,)), ("platoon", (5, 5))], ids=["room", "platoon"]
    )
    def test_batch_matches_single_networks(self, request, name, counts, kind):
        """All trajectories are stepped as one stack; each must equal its
        network simulated alone, bit for bit."""
        cls = request.getfixturevalue(f"{name}_class")
        topo = Topology(kind=kind, surrogate_size=10)
        portrait = phase_portrait(cls, topo, counts, 100)
        points = grid_samples(cls.safety.initial, counts)
        assert np.array_equal(portrait.states[:, 0, 0], points)
        for k, point in enumerate(points):
            alone = simulate_network(cls, topo, np.tile(point, (1, 10, 1)), 100)
            assert np.array_equal(portrait.states[k], alone.states[0])
            assert first_steps(portrait.unsafe[k : k + 1]) == first_steps(alone.unsafe)

    def test_trajectory_csv(self, tmp_path, room_class):
        topo = Topology(kind="ring", surrogate_size=3)
        portrait = phase_portrait(room_class, topo, (2,), 2)
        path = tmp_path / "traj.csv"
        write_trajectories_csv(path, room_class, portrait)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["trajectory", "step", "subsystem", "x0"]
        assert len(rows) == 1 + 2 * 3 * 3  # trajectories x steps+1 x nodes

    def test_trajectory_csv_matches_per_row_loop(self, tmp_path, monkeypatch, platoon_class):
        """The whole stack, written in one call, gives the bytes of one
        ``writerow`` of (trajectory, step, subsystem, x...) per row, in that
        nested order, also where a write block spans two trajectories."""
        monkeypatch.setattr(sampling_mod, "_CSV_BLOCK", 7)
        topo = Topology(kind="dense-decay", surrogate_size=4)
        portrait = phase_portrait(platoon_class, topo, (2, 3), 7)
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["trajectory", "step", "subsystem", "x0", "x1"])
            for k, trajectory in enumerate(portrait.states):
                for step, nodes in enumerate(trajectory):
                    for node, x in enumerate(nodes):
                        writer.writerow([k, step, node] + [repr(float(v)) for v in x])
        write_trajectories_csv(tmp_path / "new.csv", platoon_class, portrait)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestSafetyConsistencyChain:
    """When the margins certify a class AND the dense heatmap is
    non-positive AND the level sets pass, no surrogate trajectory from the
    initial box may ever reach the unsafe box.  A violation here would be a
    build-failing bug, so the whole chain is asserted on the one class that
    genuinely certifies."""

    def test_certified_drift_class_chain(self, drift_class, drift_solution):
        heat = decrease_heatmap(drift_class, drift_solution, (210, 110))
        levels = check_level_sets(drift_class, drift_solution, (101,))
        assert heat.passed
        assert levels.passed
        for kind in TOPOLOGY_KINDS:
            topo = Topology(kind=kind, surrogate_size=10)
            portrait = phase_portrait(drift_class, topo, (5,), 100)
            assert portrait.unsafe_entries == 0
