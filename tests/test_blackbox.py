import numpy as np
import pytest

from netcert.blackbox import (
    TOPOLOGY_KINDS,
    Topology,
    build_platoon_class,
    build_room_class,
    internal_inputs,
    simulate_network,
)
from netcert.core import DimensionError, IntervalBox, InvariantError
from netcert.sampling import grid_samples


def first_steps(flags):
    """The first flagged step of each network (row of ``flags``), None where
    no step is flagged."""
    return [int(np.argmax(row)) if row.any() else None for row in flags]


def validate_benchmark(cls, steps=100, grid_per_dim=5, surrogate_size=10):
    """Unsafe entries, box exits and input clamps of surrogate runs from a
    grid of the initial box under every topology; all three must be zero
    for a benchmark.  Every run starts all copies at the same grid point,
    the worst case for symmetric topologies (inputs equal states)."""
    faults = {"unsafe_entries": 0, "box_exits": 0, "clamp_events": 0}
    for kind in TOPOLOGY_KINDS:
        topo = Topology(kind=kind, surrogate_size=surrogate_size)
        points = grid_samples(cls.safety.initial, (grid_per_dim,) * cls.state_dim)
        starts = np.repeat(points[:, None, :], surrogate_size, axis=1)
        runs = simulate_network(cls, topo, starts, steps)
        faults["unsafe_entries"] += runs.unsafe_entries
        faults["box_exits"] += runs.box_exits
        faults["clamp_events"] += int(runs.clamp_events.sum())
    return faults


class TestRoomStep:
    oracle = build_room_class().oracle

    def test_fixed_point(self):
        assert self.oracle.batch([[10.0]], [[10.0]])[0, 0] == pytest.approx(10.0, abs=1e-12)

    def test_hot_corner(self):
        assert self.oracle.batch([[13.0]], [[13.0]])[0, 0] == pytest.approx(12.88, abs=1e-12)

    def test_mixed_point(self):
        assert self.oracle.batch([[11.0]], [[12.0]])[0, 0] == pytest.approx(11.02, abs=1e-12)


class TestPlatoonStep:
    oracle = build_platoon_class().oracle

    def test_fixed_point(self):
        out = self.oracle.batch([[1.0, 1.0]], [[1.0, 1.0]])[0]
        assert np.allclose(out, [1.0, 1.0], atol=1e-12)

    def test_affine_constant(self):
        out = self.oracle.batch(np.zeros((1, 2)), np.zeros((1, 2)))[0]
        assert np.allclose(out, [0.01, 0.15], atol=1e-15)

    def test_low_corner(self):
        out = self.oracle.batch([[0.8, 0.8]], [[0.8, 0.8]])[0]
        assert np.allclose(out, [0.802, 0.830], atol=1e-12)


class TestInternalInputs:
    box1 = IntervalBox([-100.0], [100.0])

    def test_identical_states_any_kind(self):
        states = np.full((3, 1), 4.2)
        for kind in TOPOLOGY_KINDS:
            topo = Topology(kind=kind, surrogate_size=3)
            inputs, clamps = internal_inputs(states, topo, self.box1)
            assert np.allclose(inputs, 4.2)
            assert clamps == 0

    def test_cascade_is_shift(self):
        states = np.array([[1.0], [2.0], [3.0]])  # (a, b, c)
        topo = Topology(kind="cascade", surrogate_size=3)
        inputs, _ = internal_inputs(states, topo, self.box1)
        assert np.allclose(inputs[:, 0], [3.0, 1.0, 2.0])  # (c, a, b)

    def test_ring_averages_neighbors(self):
        states = np.array([[0.0], [1.0], [0.0], [3.0]])
        topo = Topology(kind="ring", surrogate_size=4)
        inputs, _ = internal_inputs(states, topo, self.box1)
        assert np.allclose(inputs[:, 0], [2.0, 0.0, 2.0, 0.0])

    def test_dense_decay_weighted_mean(self):
        # weights fall off as w^|i-j| and exclude the node itself
        states = np.array([[0.0], [1.0], [0.0]])
        topo = Topology(kind="dense-decay", surrogate_size=3, weight_decay=0.5)
        inputs, _ = internal_inputs(states, topo, self.box1)
        # end nodes: (0.5*1 + 0.25*0) / 0.75; middle node sees only zeros
        assert inputs[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert inputs[1, 0] == pytest.approx(0.0, abs=1e-12)
        assert inputs[2, 0] == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_clamping_is_counted(self):
        states = np.array([[5.0], [5.0], [5.0]])
        topo = Topology(kind="cascade", surrogate_size=3)
        inputs, clamps = internal_inputs(states, topo, IntervalBox([0.0], [1.0]))
        assert np.all(inputs == 1.0)
        assert clamps == 3

    def test_surrogate_size_minimum(self):
        with pytest.raises(InvariantError):
            Topology(kind="ring", surrogate_size=1)

    def test_state_count_must_match(self):
        topo = Topology(kind="ring", surrogate_size=3)
        with pytest.raises(DimensionError):
            internal_inputs(np.zeros((2, 1)), topo, self.box1)


class TestSimulateNetwork:
    def test_room_fixed_point_propagates(self, room_class):
        for kind in TOPOLOGY_KINDS:
            topo = Topology(kind=kind, surrogate_size=10)
            runs = simulate_network(room_class, topo, np.full((1, 10, 1), 10.0), 100)
            assert np.allclose(runs.states, 10.0, atol=1e-9)
            assert first_steps(runs.unsafe) == first_steps(runs.outside) == [None]

    def test_zero_steps_returns_initial_only(self, room_class):
        topo = Topology(kind="ring", surrogate_size=10)
        runs = simulate_network(room_class, topo, np.full((1, 10, 1), 10.5), 0)
        assert runs.states.shape == (1, 1, 10, 1)
        assert runs.unsafe.shape == runs.outside.shape == (1, 1)
        assert np.allclose(runs.states[0, 0], 10.5)

    def test_platoon_fixed_point(self, platoon_class):
        topo = Topology(kind="ring", surrogate_size=10)
        runs = simulate_network(platoon_class, topo, np.tile([1.0, 1.0], (1, 10, 1)), 50)
        assert np.allclose(runs.states, 1.0, atol=1e-9)

    def test_determinism(self, platoon_class):
        topo = Topology(kind="dense-decay", surrogate_size=5, weight_decay=0.7)
        init = np.tile([0.9, 0.95], (1, 5, 1))
        a = simulate_network(platoon_class, topo, init, 40)
        b = simulate_network(platoon_class, topo, init, 40)
        assert np.array_equal(a.states, b.states)

    def test_unsafe_entry_is_flagged_not_fatal(self, room_class):
        # starting inside the unsafe box is flagged at step 0
        topo = Topology(kind="ring", surrogate_size=10)
        runs = simulate_network(room_class, topo, np.full((1, 10, 1), 12.5), 5)
        assert first_steps(runs.unsafe) == [0]
        assert runs.unsafe_entries == 1

    def test_networks_flagged_separately(self, room_class):
        """Networks stepped together keep their own flags and states."""
        topo = Topology(kind="cascade", surrogate_size=4)
        starts = np.array([10.5, 12.5, 14.0]).reshape(3, 1, 1).repeat(4, axis=1)
        runs = simulate_network(room_class, topo, starts, 3)
        unsafe, outside = first_steps(runs.unsafe), first_steps(runs.outside)
        assert (unsafe[0], outside[0]) == (None, None)
        assert (unsafe[1], outside[1]) == (0, None)
        assert outside[2] == 0 and runs.clamp_events[2] > 0
        assert runs.clamp_events[0] == runs.clamp_events[1] == 0
        for k, start in enumerate(starts):
            alone = simulate_network(room_class, topo, start[None], 3)
            assert np.array_equal(runs.states[k], alone.states[0])

    def test_initial_states_need_a_network_axis(self, room_class):
        topo = Topology(kind="ring", surrogate_size=10)
        with pytest.raises(DimensionError):
            simulate_network(room_class, topo, np.full((10, 1), 10.5), 1)


class TestBenchmarkValidation:
    """Mandatory pre-pipeline check: surrogate runs from the initial grid
    stay inside the state box, outside the unsafe box, and never clamp."""

    def test_room(self, room_class):
        faults = validate_benchmark(room_class)
        assert not any(faults.values()), faults

    def test_platoon(self, platoon_class):
        faults = validate_benchmark(platoon_class)
        assert not any(faults.values()), faults
