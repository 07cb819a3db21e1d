"""Built-in benchmark dynamics and interconnection operators.

The rest of the pipeline treats the transition maps defined here as opaque
oracles: it only ever queries next states, never inspects coefficients.
The benchmarks are stable affine maps whose trajectories stay inside their
state boxes and away from their unsafe boxes; ``tests/test_blackbox.py``
checks this by simulating the surrogate from the initial boxes.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    DimensionError,
    IntervalBox,
    InvariantError,
    SafetySpec,
    StcTemplate,
    SubsystemClass,
    TransitionOracle,
)

TOPOLOGY_KINDS = ("cascade", "ring", "dense-decay")


@dataclass(frozen=True)
class Topology:
    """How internal inputs are assembled from neighbor states.

    cascade      d_i = x_{i-1}              (index 0 wraps to the last node)
    ring         d_i = (x_{i-1} + x_{i+1})/2  with wraparound
    dense-decay  d_i = weighted mean of all other nodes, weight w^|i-j|
    """

    kind: str
    surrogate_size: int
    weight_decay: float = 0.5

    def __post_init__(self):
        if self.kind not in TOPOLOGY_KINDS:
            raise InvariantError(f"topology kind must be one of {TOPOLOGY_KINDS}")
        if self.surrogate_size < 2:
            raise InvariantError("surrogate networks need at least 2 subsystems")
        if not (0.0 < self.weight_decay <= 1.0):
            raise InvariantError("weight_decay must lie in (0, 1]")


# ---------------------------------------------------------------------------
# Benchmark dynamics
# ---------------------------------------------------------------------------

# Room temperature benchmark: scalar state per room, cooler folded into the
# affine constant, neighbor temperature entering through the input term.
ROOM_A = 0.9
ROOM_B = 0.06
ROOM_C = 0.4

# Vehicle platoon benchmark: two states per vehicle, weak neighbor coupling.
PLATOON_A = np.array([[0.9, 0.08], [-0.04, 0.88]])
PLATOON_E = 0.01 * np.eye(2)
PLATOON_C = np.array([0.01, 0.15])


def _affine_oracle(a: np.ndarray, e: np.ndarray, c: np.ndarray) -> TransitionOracle:
    a = np.asarray(a, float)
    e = np.asarray(e, float)
    c = np.asarray(c, float)

    def step_batch(x, d):
        if x.shape[0] == 1:
            # a 1-row matmul takes NumPy's vector-matrix path, which rounds
            # some rows differently from a longer call; evaluate it as 2 rows
            return step_batch(np.repeat(x, 2, axis=0), np.repeat(d, 2, axis=0))[:1]
        return x @ a.T + d @ e.T + c

    return TransitionOracle(step_batch)


ROOM_TEMPLATE_EXPONENTS = [[4], [2], [0]]

# Full bivariate quartic: all exponent pairs with total degree <= 4.
PLATOON_TEMPLATE_EXPONENTS = [
    [4, 0], [3, 1], [2, 2], [1, 3], [0, 4],
    [3, 0], [2, 1], [1, 2], [0, 3],
    [2, 0], [1, 1], [0, 2],
    [1, 0], [0, 1],
    [0, 0],
]


def build_room_class(
    a: float = ROOM_A,
    b: float = ROOM_B,
    c: float = ROOM_C,
    template_exponents: Optional[Sequence[Sequence[int]]] = None,
) -> SubsystemClass:
    """Room-temperature class: X = [10, 13], initial [10, 11], unsafe [12, 13].

    The input box equals the state box because internal inputs are neighbor
    temperatures.
    """
    oracle = _affine_oracle(np.array([[a]]), np.array([[b]]), np.array([c]))
    exps = ROOM_TEMPLATE_EXPONENTS if template_exponents is None else template_exponents
    return SubsystemClass(
        id="room",
        state_dim=1,
        input_dim=1,
        state_box=IntervalBox([10.0], [13.0]),
        input_box=IntervalBox([10.0], [13.0]),
        safety=SafetySpec(
            initial=IntervalBox([10.0], [11.0]),
            unsafe=IntervalBox([12.0], [13.0]),
        ),
        template=StcTemplate(state_dim=1, exponents=exps),
        oracle=oracle,
    )


def build_platoon_class(
    a: Optional[np.ndarray] = None,
    e: Optional[np.ndarray] = None,
    c: Optional[np.ndarray] = None,
    template_exponents: Optional[Sequence[Sequence[int]]] = None,
) -> SubsystemClass:
    """Vehicle class: X = [0.8, 1.5] x [0.8, 2], unsafe is the upper band of
    the second state.  Input box equals the state box (neighbor states)."""
    a = PLATOON_A if a is None else np.asarray(a, float)
    e = PLATOON_E if e is None else np.asarray(e, float)
    c = PLATOON_C if c is None else np.asarray(c, float)
    exps = PLATOON_TEMPLATE_EXPONENTS if template_exponents is None else template_exponents
    return SubsystemClass(
        id="platoon",
        state_dim=2,
        input_dim=2,
        state_box=IntervalBox([0.8, 0.8], [1.5, 2.0]),
        input_box=IntervalBox([0.8, 0.8], [1.5, 2.0]),
        safety=SafetySpec(
            initial=IntervalBox([0.8, 0.8], [1.0, 1.0]),
            unsafe=IntervalBox([0.8, 1.5], [1.5, 2.0]),
        ),
        template=StcTemplate(state_dim=2, exponents=exps),
        oracle=_affine_oracle(a, e, c),
    )


BENCHMARKS = {
    "room": build_room_class,
    "platoon": build_platoon_class,
}


# ---------------------------------------------------------------------------
# Interconnection + surrogate simulation
# ---------------------------------------------------------------------------


def internal_inputs(
    states: np.ndarray, topology: Topology, input_box: IntervalBox
) -> tuple[np.ndarray, np.ndarray]:
    """Internal input of every node from the current network state.

    ``states`` is (n, dim) for one network, or (networks, n, dim) for
    several independent ones.  Returns (inputs of the same shape,
    clamp_events per network) where a clamp event is one node whose raw
    input fell outside the input box and was projected back in.
    """
    states = np.atleast_2d(np.asarray(states, float))
    n = states.shape[-2]
    if n != topology.surrogate_size:
        raise DimensionError(
            f"got {n} states for a surrogate of size {topology.surrogate_size}"
        )
    if topology.kind == "cascade":
        raw = np.roll(states, 1, axis=-2)
    elif topology.kind == "ring":
        raw = 0.5 * (np.roll(states, 1, axis=-2) + np.roll(states, -1, axis=-2))
    else:  # dense-decay
        idx = np.arange(n)
        weights = topology.weight_decay ** np.abs(idx[:, None] - idx[None, :])
        np.fill_diagonal(weights, 0.0)
        # one (n, n) @ (n, dim) product per network, so each network's inputs
        # round as when it is simulated alone
        raw = (weights @ states) / weights.sum(axis=1, keepdims=True)
    clamped = input_box.clamp(raw)
    # averaging identical boundary states can land 1 ulp outside the box;
    # only count a clamp when the projection actually moved the point
    moved = np.abs(clamped - raw) > 1e-12 * np.maximum(1.0, np.abs(raw))
    return clamped, np.count_nonzero(np.any(moved, axis=-1), axis=-1)


@dataclass
class SurrogateRuns:
    """Several surrogate networks stepped together, all as arrays.

    states        (networks, steps+1, n, dim), the start at step 0
    unsafe        (networks, steps+1): some node lies in the unsafe box
    outside       (networks, steps+1): some node lies outside the state box
    clamp_events  (networks,): node inputs clamped into the input box, summed
                  over the steps
    """

    states: np.ndarray
    unsafe: np.ndarray
    outside: np.ndarray
    clamp_events: np.ndarray

    @property
    def unsafe_entries(self) -> int:
        """Networks that ever touch the unsafe box."""
        return int(np.count_nonzero(self.unsafe.any(axis=1)))

    @property
    def box_exits(self) -> int:
        """Networks that ever leave the state box."""
        return int(np.count_nonzero(self.outside.any(axis=1)))


def simulate_network(
    cls: SubsystemClass,
    topology: Topology,
    initial_states: np.ndarray,
    steps: int,
) -> SurrogateRuns:
    """Iterate closed-loop surrogate networks of identical copies.

    ``initial_states`` is (networks, n, dim): the start of each of several
    independent surrogates.  They are stepped together, one oracle call per
    step for all of them.  Flags (never raises on) every step at which any
    node of a network is in the unsafe box or outside the state box.
    """
    if cls.oracle is None:
        raise InvariantError(f"class {cls.id!r} has no oracle to simulate")
    if steps < 0:
        raise InvariantError("steps must be non-negative")
    states = np.asarray(initial_states, float)
    dim = cls.state_dim
    if states.ndim != 3 or states.shape[1:] != (topology.surrogate_size, dim):
        raise DimensionError(
            f"initial states must be (networks, {topology.surrogate_size}, {dim})"
        )
    history = np.empty((states.shape[0], steps + 1) + states.shape[1:])
    history[:, 0] = states
    clamps = np.zeros(states.shape[0], dtype=int)
    for k in range(1, steps + 1):
        inputs, moved = internal_inputs(states, topology, cls.input_box)
        clamps += moved
        rows = cls.oracle.batch(states.reshape(-1, dim), inputs.reshape(-1, dim))
        states = rows.reshape(states.shape)
        history[:, k] = states
    nodes = history.reshape(-1, dim)
    unsafe = cls.safety.unsafe.contains(nodes).reshape(history.shape[:-1]).any(axis=-1)
    inside = cls.state_box.contains(nodes).reshape(history.shape[:-1]).all(axis=-1)
    return SurrogateRuns(states=history, unsafe=unsafe, outside=~inside, clamp_events=clamps)
