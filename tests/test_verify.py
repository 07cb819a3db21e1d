import csv
import json
import re
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from netcert.blackbox import TOPOLOGY_KINDS, Topology, TransitionOracle, simulate_network
from netcert.core import (
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
    one_blas_thread,
    phase_portrait,
    surface_data,
    write_surface_csv,
    write_trajectories_csv,
)
from tests.test_benchmark_hooks import run_python
from tests.test_blackbox import first_steps

# Loads scipy's L-BFGS-B extension in a fresh interpreter, then prints the
# thread count of the OpenBLAS it links before and after one_blas_thread,
# and whether scipy.linalg was loaded.
LBFGSB_BLAS = """
import ctypes, json, sys
from netcert import scp, verify
lib = ctypes.CDLL(scp.load_scipy_extension("scipy.optimize._lbfgsb").__file__)
before = lib.scipy_openblas_get_num_threads()
verify.one_blas_thread()
print(json.dumps([before, lib.scipy_openblas_get_num_threads(), "scipy.linalg" in sys.modules]))
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


def joint_grid_heatmap(cls, solution, counts, chunk, csv_path):
    """Reference for ``decrease_heatmap``: the joint grid materialised, fed
    to the evaluators ``chunk`` rows at a time, and written row by row."""
    pts = grid_samples(cls.joint_box, counts)
    n = cls.state_dim
    vals = []
    for start in range(0, pts.shape[0], chunk):
        block = pts[start : start + chunk]
        x, d = block[:, :n], block[:, n:]
        vals.append(
            eval_template(cls.template, solution.coeffs, cls.oracle.batch(x, d))
            - eval_template(cls.template, solution.coeffs, x)
            - eval_supply(solution.supply, d, x)
        )
    vals = np.concatenate(vals)
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [f"x{k}" for k in range(n)] + [f"d{k}" for k in range(cls.input_dim)] + ["value"]
        )
        for row, v in zip(pts, vals):
            writer.writerow([repr(float(c)) for c in row] + [repr(float(v))])
    return pts, vals


# blocks of 1-3 rows are all tail, of 5-7, 9 and 97 rows end in one, of 4 and 8 in none
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


class TestProductGridHeatmap:
    """The heatmap cuts the X x D product grid into blocks from runs of
    state rows and slices of the input grid; it must reproduce the
    materialised joint grid bit for bit.  B(x) comes from one
    gemv over the state grid padded to a multiple of 4 rows, and the last
    m % 4 rows of an m-row block from a gemv over the block's last rows, so
    the grids cover state grids of every size mod 4 and blocks of every
    size mod 4, shorter than 4 rows included."""

    @pytest.mark.parametrize("chunk", CHUNKS, ids=[f"chunk{c}" for c in CHUNKS])
    @pytest.mark.parametrize("name, counts", JOINT_GRIDS, ids=JOINT_GRID_IDS)
    def test_matches_joint_grid(self, request, tmp_path, monkeypatch, name, counts, chunk):
        cls = request.getfixturevalue(f"{name}_class")
        solution = request.getfixturevalue(f"{name}_solution")
        monkeypatch.setattr(verify_mod, "_CHUNK", chunk)
        pts, vals = joint_grid_heatmap(cls, solution, counts, chunk, tmp_path / "ref.csv")
        heat = decrease_heatmap(cls, solution, counts, csv_path=tmp_path / "heat.csv")
        i = int(np.argmax(vals))
        assert heat.max_value == vals[i]
        assert np.array_equal(heat.argmax, pts[i])
        assert heat.point_count == pts.shape[0]
        assert (tmp_path / "heat.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_one_nan_is_a_data_fault(self, room_class, room_solution, monkeypatch):
        # the poisoned point sits in the fourth block, after blocks of finite values
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

    def test_oracle_cannot_write_the_input_grid(self, room_class, room_solution, monkeypatch):
        """Every block's inputs are a view of one input grid, so an oracle
        that writes into its ``d`` raises instead of changing later blocks."""
        monkeypatch.setattr(verify_mod, "_CHUNK", 97)

        def writing(x, d):
            fx = room_class.oracle.batch(x, d)
            d[:] = 0.0
            return fx

        cls = replace(room_class, oracle=TransitionOracle(writing))
        with pytest.raises(ValueError, match="read-only"):
            decrease_heatmap(cls, room_solution, (21, 21))

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
        over the state grid; only d^T s12 x is evaluated per block of pairs."""
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
        n, total, rate = cls.state_dim, int(np.prod(counts)), solution.supply
        blocks = {"s11": rate.s11, "s12": rate.s12, "s22": rate.s22}
        rows = {key: sorted(r for m, r in calls if m is block) for key, block in blocks.items()}
        assert rows["s11"] == [int(np.prod(counts[n:]))]
        assert rows["s22"] == [int(np.prod(counts[:n]))]
        assert rows["s12"] == sorted(min(97, total - start) for start in range(0, total, 97))
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


def heatmap_outputs(cls, solution, counts, csv_path):
    heat = decrease_heatmap(cls, solution, counts, csv_path=csv_path)
    return heat.max_value, heat.argmax.tolist(), heat.point_count, csv_path.read_bytes()


@pytest.fixture()
def heatmap_threads(monkeypatch):
    """Sets the number of heatmap threads, whatever the grid size and CPUs."""

    def set_threads(count):
        monkeypatch.setattr(verify_mod, "_heatmap_workers", lambda points: count)

    return set_threads


# grids of two shipped-size blocks
POOL_GRIDS = [("room", (200, 200)), ("platoon", (16, 15, 14, 10))]


class TestHeatmapPool:
    """Blocks run on a thread pool; the calling thread reduces them in grid
    order, so nothing may depend on the number of threads."""

    @pytest.mark.parametrize("chunk", [97, verify_mod._CHUNK], ids=["chunk97", "shipped"])
    @pytest.mark.parametrize("name, counts", POOL_GRIDS, ids=["room", "platoon"])
    def test_worker_count_invariance(
        self, request, tmp_path, monkeypatch, heatmap_threads, name, counts, chunk
    ):
        cls = request.getfixturevalue(f"{name}_class")
        solution = request.getfixturevalue(f"{name}_solution")
        monkeypatch.setattr(verify_mod, "_CHUNK", chunk)
        runs = []
        for workers in (1, 2, 4):
            heatmap_threads(workers)
            runs.append(heatmap_outputs(cls, solution, counts, tmp_path / f"w{workers}.csv"))
        assert runs[0] == runs[1] == runs[2]

    def test_first_fault_in_grid_order(
        self, room_class, room_solution, monkeypatch, heatmap_threads
    ):
        """Blocks 0 and 1 both hold a NaN and block 1 finishes first; the
        error still names the point of block 0."""
        monkeypatch.setattr(verify_mod, "_CHUNK", 97)
        heatmap_threads(2)
        xs = grid_samples(room_class.state_box, (21,))
        # flat index i is (x = xs[i // 21], d = xs[i % 21]): 30 in block 0, 120 in block 1
        early, late = (xs[1, 0], xs[9, 0]), (xs[5, 0], xs[15, 0])
        late_done = threading.Event()

        def poisoned(x, d):
            fx = room_class.oracle.batch(x, d)
            hits = [(x[:, 0] == px) & (d[:, 0] == pd) for px, pd in (early, late)]
            fx[hits[0] | hits[1]] = np.nan
            if hits[1].any():
                late_done.set()
            if hits[0].any():
                assert late_done.wait(timeout=10), "block 1 never ran beside block 0"
                time.sleep(0.05)
            return fx

        cls = replace(room_class, oracle=TransitionOracle(poisoned))
        with pytest.raises(DataFaultError, match=re.escape(f"x=[{early[0]}], d=[{early[1]}]")):
            decrease_heatmap(cls, room_solution, (21, 21))

    def test_no_thread_outlives_a_fault(
        self, room_class, room_solution, monkeypatch, heatmap_threads
    ):
        monkeypatch.setattr(verify_mod, "_CHUNK", 97)
        heatmap_threads(4)
        baseline = threading.active_count()
        cls = replace(room_class, oracle=TransitionOracle(lambda x, d: np.full(x.shape, np.nan)))
        with pytest.raises(DataFaultError):
            decrease_heatmap(cls, room_solution, (21, 21))
        assert threading.active_count() == baseline

    def test_memory_stays_per_worker_chunk(
        self, room_class, room_solution, monkeypatch, heatmap_threads
    ):
        """Two threads on a 16x larger grid keep the allocation peak within
        1.5x of one block per thread."""
        monkeypatch.setattr(verify_mod, "_CHUNK", 2_000)
        peaks = []
        for threads, counts in ((1, (60, 60)), (2, (240, 240))):
            heatmap_threads(threads)
            tracemalloc.start()
            try:
                decrease_heatmap(room_class, room_solution, counts)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 2 * 1.5 * peaks[0]

    def test_workspaces_are_not_shared_in_flight(
        self, tmp_path, room_class, room_solution, monkeypatch, heatmap_threads
    ):
        """Each block in flight has a workspace of its own: four threads on
        51 blocks of 97 rows, switching every microsecond, give the bytes of
        one thread in every run.  Runs repeat for about two seconds."""
        monkeypatch.setattr(verify_mod, "_CHUNK", 97)
        counts = (70, 70)
        heatmap_threads(1)
        single = heatmap_outputs(room_class, room_solution, counts, tmp_path / "one.csv")
        heatmap_threads(4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            deadline = time.monotonic() + 2.0
            for run in range(50):
                csv_path = tmp_path / f"four{run}.csv"
                assert heatmap_outputs(room_class, room_solution, counts, csv_path) == single
                if time.monotonic() > deadline:
                    break
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize(
        "cpus, points, threads",
        [(4, 441, 1), (4, 2**16, 1), (4, 2**16 + 1, 2), (4, 9_000_000, 2), (1, 9_000_000, 1)],
    )
    def test_pool_size(self, monkeypatch, cpus, points, threads):
        """One thread per 2^16 points rounded up, no more than the CPUs or
        the cap of two."""
        monkeypatch.setattr(verify_mod, "_cpu_budget", lambda: cpus)
        assert verify_mod._heatmap_workers(points) == threads

    def test_small_grids_stay_on_one_thread(self, room_class, room_solution, monkeypatch):
        monkeypatch.setattr(verify_mod, "_cpu_budget", lambda: 4)
        threads = set()

        def recording(x, d):
            threads.add(threading.get_ident())
            return room_class.oracle.batch(x, d)

        cls = replace(room_class, oracle=TransitionOracle(recording))
        monkeypatch.setattr(verify_mod, "_CHUNK", 97)
        decrease_heatmap(cls, room_solution, (21, 21))  # 441 points in 5 blocks
        assert len(threads) == 1

    def test_one_blas_thread_restores_one_thread_bytes(
        self, numpy_blas, tmp_path, platoon_class, platoon_solution
    ):
        """A gemv split between BLAS threads may round some rows differently,
        so the heatmap's bits are pinned on one thread only: after a caller
        put BLAS on two threads, ``one_blas_thread`` gives back the bytes of
        a run that never left one thread."""
        get_threads, set_threads = numpy_blas
        counts = POOL_GRIDS[1][1]
        single = heatmap_outputs(platoon_class, platoon_solution, counts, tmp_path / "1.csv")
        set_threads(2)
        one_blas_thread()
        assert get_threads() == 1
        again = heatmap_outputs(platoon_class, platoon_solution, counts, tmp_path / "2.csv")
        assert again == single


    def test_one_blas_thread_finds_scipys_copy_through_lbfgsb(self):
        """scipy's OpenBLAS can come in with the L-BFGS-B extension alone,
        without ``scipy.linalg``; ``one_blas_thread`` puts it on one thread."""
        proc = run_python(["-c", LBFGSB_BLAS], OPENBLAS_NUM_THREADS="2")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [2, 1, False]


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
