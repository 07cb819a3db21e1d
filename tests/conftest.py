# first: importing netcert puts each bundled OpenBLAS on one thread, which
# holds only if numpy has not loaded yet
import netcert  # noqa: F401

import ctypes

import numpy as np
import pytest

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    """Collect one pass/fail line per acceptance criterion; echoed at the
    end of the session."""
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from netcert.blackbox import TransitionOracle, build_platoon_class, build_room_class
from netcert.core import (
    IntervalBox,
    SafetySpec,
    StcTemplate,
    SubsystemClass,
)
from netcert.sampling import collect_pairs
from netcert.scp import ScpOptions, ScpSolution, build_scp, solve_scp


@pytest.fixture(scope="session", autouse=True)
def blas_on_one_thread():
    """Every test runs with numpy's BLAS on one thread, as the CLI runs it.

    The evaluators' bits are pinned for one thread: a gemv split between
    BLAS threads can round some rows differently.  Importing netcert before
    numpy sets that, so a plugin or an import that loads numpy first fails
    every test here instead of changing bits.  A numpy that links no
    bundled OpenBLAS has no count to check."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get_threads = lib.scipy_openblas_get_num_threads64_
    except (AttributeError, OSError):
        return
    assert get_threads() == 1, "numpy loaded before netcert: its BLAS runs several threads"


# Values reported for the room case study, reused as fixed arithmetic inputs.
ROOM_COEFFS = (0.0151, -0.7, -0.7)
ROOM_SIGMA = 150.0
ROOM_PHI = 200.0
ROOM_SUPPLY = (0.01, 0.0, -0.1)
ROOM_ETA = -16.928
ROOM_BETA = 0.02
ROOM_L1 = 25.51
ROOM_L2 = 14.8845
ROOM_THETA = 0.1


@pytest.fixture(scope="session")
def room_class():
    return build_room_class()


@pytest.fixture(scope="session")
def platoon_class():
    return build_platoon_class()


@pytest.fixture(scope="session")
def room_samples(room_class):
    return collect_pairs(room_class, (31,), (31,))


@pytest.fixture(scope="session")
def room_solution(room_class, room_samples):
    sol = solve_scp(build_scp(room_class, room_samples, ScpOptions()))
    return sol


@pytest.fixture(scope="session")
def platoon_samples(platoon_class):
    return collect_pairs(platoon_class, (5, 6), (5, 6))


@pytest.fixture(scope="session")
def platoon_solution(platoon_class, platoon_samples):
    sol = solve_scp(build_scp(platoon_class, platoon_samples, ScpOptions()))
    return sol


@pytest.fixture(scope="session")
def room_reference_solution():
    """The reported room certificate, packaged for level-set and margin
    arithmetic (not expected to satisfy our sampled decrease rows)."""
    return ScpSolution(
        coeffs=np.array(ROOM_COEFFS),
        sigma=ROOM_SIGMA,
        phi=ROOM_PHI,
        supply_s11=((ROOM_SUPPLY[0],),),
        supply_s12=((ROOM_SUPPLY[1],),),
        supply_s22=((ROOM_SUPPLY[2],),),
        eta=ROOM_ETA,
        beta=ROOM_BETA,
    )


def make_drift_class(drop: float = 0.5) -> SubsystemClass:
    """Synthetic class whose state falls by a fixed amount every step,
    independent of the internal input.  Every sampled transition decreases
    any increasing affine certificate by the same margin, so this class is
    genuinely certifiable and exercises the certified code path."""

    return SubsystemClass(
        id="drift",
        state_dim=1,
        input_dim=1,
        state_box=IntervalBox([0.0], [4.0]),
        input_box=IntervalBox([0.0], [4.0]),
        safety=SafetySpec(
            initial=IntervalBox([0.0], [0.5]),
            unsafe=IntervalBox([3.5], [4.0]),
        ),
        template=StcTemplate(state_dim=1, exponents=[[1], [0]]),
        oracle=TransitionOracle(lambda x, d: x - drop),
    )


@pytest.fixture(scope="session")
def drift_class():
    return make_drift_class()


@pytest.fixture(scope="session")
def drift_samples(drift_class):
    return collect_pairs(drift_class, (21,), (11,))


@pytest.fixture(scope="session")
def drift_solution(drift_class, drift_samples):
    sol = solve_scp(build_scp(drift_class, drift_samples, ScpOptions()))
    return sol

