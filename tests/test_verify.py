import csv
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from netcert.blackbox import TOPOLOGY_KINDS, Topology, TransitionOracle
from netcert.core import (
    CoefficientVector,
    IntervalBox,
    SafetySpec,
    StcTemplate,
    SubsystemClass,
    SupplyRate,
    eval_supply,
    eval_template,
)
from netcert.sampling import DataFaultError, grid_samples
from netcert.scp import ScpSolution
import netcert.verify as verify_mod
from netcert.verify import (
    check_level_sets,
    decrease_heatmap,
    phase_portrait,
    surface_data,
    write_surface_csv,
    write_trajectories_csv,
)


def make_solution(coeffs, sigma, phi, supply=None, eta=0.0, beta=0.0):
    p = 1 if supply is None else np.atleast_2d(supply[0]).shape[0]
    n = 1 if supply is None else np.atleast_2d(supply[2]).shape[0]
    rate = (
        SupplyRate(np.zeros((p, p)), np.zeros((p, n)), np.zeros((n, n)))
        if supply is None
        else SupplyRate(*[np.atleast_2d(s) for s in supply])
    )
    return ScpSolution(
        coeffs=CoefficientVector(coeffs),
        sigma=sigma,
        phi=phi,
        supply=rate,
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
        sol = replace(room_reference_solution, supply=SupplyRate([[0.0]], [[0.0]], [[0.0]]))
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


class TestProductGridHeatmap:
    """The heatmap walks the X x D product grid from flat indices; it must
    reproduce the materialised joint grid bit for bit."""

    @pytest.mark.parametrize("chunk", [1, 97], ids=["chunk1", "chunk97"])
    @pytest.mark.parametrize(
        "name, counts", [("room", (13, 11)), ("platoon", (3, 4, 2, 5))], ids=["room", "platoon"]
    )
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


class TestSurfaceData:
    def test_one_dimensional_table(self, room_class, room_reference_solution):
        pts, vals, sigma, phi = surface_data(room_class, room_reference_solution, (31,))
        assert pts.shape == (31, 1)
        assert vals.shape == (31,)
        assert sigma == 150.0 and phi == 200.0

    def test_two_dimensional_count(self, platoon_class, platoon_solution):
        pts, vals, _, _ = surface_data(platoon_class, platoon_solution, (3, 3))
        assert pts.shape == (9, 2)
        assert vals.shape == (9,)

    def test_constant_certificate_constant_column(self, room_class):
        sol = make_solution([0.0, 0.0, 2.5], sigma=2.5, phi=2.5)
        _, vals, _, _ = surface_data(room_class, sol, (11,))
        assert np.allclose(vals, 2.5)

    def test_csv_header(self, tmp_path, room_class, room_reference_solution):
        pts, vals, _, _ = surface_data(room_class, room_reference_solution, (5,))
        path = tmp_path / "surface.csv"
        write_surface_csv(path, room_class, pts, vals)
        header = open(path).readline().strip()
        assert header == "x0,B"


class TestPhasePortrait:
    def test_fixed_point_initial_states(self, room_class):
        topo = Topology(kind="ring", surrogate_size=10)
        portrait = phase_portrait(room_class, topo, (1,), 20)
        # single midpoint initial state; trajectory contracts, stays safe
        assert portrait.initial_points.shape == (1, 1)
        assert portrait.unsafe_entries == 0

    def test_zero_steps(self, room_class):
        topo = Topology(kind="cascade", surrogate_size=4)
        portrait = phase_portrait(room_class, topo, (3,), 0)
        for traj in portrait.trajectories:
            assert traj.states.shape[0] == 1

    @pytest.mark.parametrize("kind", TOPOLOGY_KINDS)
    def test_room_benchmark_portraits_safe(self, room_class, kind):
        topo = Topology(kind=kind, surrogate_size=10)
        portrait = phase_portrait(room_class, topo, (25,), 100)
        assert portrait.initial_points.shape[0] == 25
        assert portrait.unsafe_entries == 0

    def test_trajectory_csv(self, tmp_path, room_class):
        topo = Topology(kind="ring", surrogate_size=3)
        portrait = phase_portrait(room_class, topo, (2,), 2)
        path = tmp_path / "traj.csv"
        write_trajectories_csv(path, room_class, portrait)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["trajectory", "step", "subsystem", "x0"]
        assert len(rows) == 1 + 2 * 3 * 3  # trajectories x steps+1 x nodes


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
