import csv
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
)
from netcert.scp import ScpSolution
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
        objective=eta + beta,
        status="optimal",
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
