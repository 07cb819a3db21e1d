import itertools
import json
import re
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.optimize._highspy import _core as highs
from scipy.sparse import csc_array

from netcert import scp
from netcert.core import (
    DimensionError,
    IntervalBox,
    InvariantError,
    SafetySpec,
    StcTemplate,
    SubsystemClass,
    eval_supply,
    eval_template,
)
from netcert.lipschitz import LipschitzConfig
from netcert.pipeline import PipelineConfig, PipelineError, certify_class
from netcert.sampling import CoverageError, SampleSet, collect_pairs
from netcert.scp import (
    LinearProgram,
    RowGroup,
    ScpOptions,
    ScpSolution,
    ScpSolveError,
    VariableLayout,
    build_scp,
    check_solution,
    export_lp_text,
    solve_lp,
    solve_scp,
)
from tests.test_benchmark_hooks import run_python



def brute_force_lp_minimum(lp: LinearProgram, tol: float = 1e-9):
    """Independent oracle: enumerate all vertices of the constraint
    polytope (rows plus active bounds) and take the best feasible one.
    Only usable for small variable counts; completely solver-free."""
    n = lp.c.size
    rows = [np.asarray(r, float) for r in lp.a_ub]
    rhs = list(lp.b_ub)
    for j, (lo, hi) in enumerate(lp.bounds):
        if np.isfinite(lo):
            e = np.zeros(n)
            e[j] = -1.0
            rows.append(e)
            rhs.append(-lo)
        if np.isfinite(hi):
            e = np.zeros(n)
            e[j] = 1.0
            rows.append(e)
            rhs.append(hi)
    rows = np.array(rows)
    rhs = np.array(rhs)
    best = None
    for combo in itertools.combinations(range(rows.shape[0]), n):
        a = rows[list(combo)]
        b = rhs[list(combo)]
        if abs(np.linalg.det(a)) < 1e-12:
            continue
        v = np.linalg.solve(a, b)
        if np.all(rows @ v <= rhs + tol):
            val = float(lp.c @ v)
            if best is None or val < best:
                best = val
    return best


def dense_program(c, a_ub, b_ub, bounds, row_groups=None) -> LinearProgram:
    """A hand-made program whose rows are given dense, split into
    ``row_groups`` ((name, count) pairs; one group "rows" by default), every
    row in the HiGHS model."""
    a_ub, b_ub = np.asarray(a_ub, dtype=float), np.asarray(b_ub, dtype=float)
    groups, start = [], 0
    for name, count in row_groups or [("rows", b_ub.size)]:
        a, b = a_ub[start : start + count], b_ub[start : start + count]
        groups.append(RowGroup(name, count, lambda keys, a=a, b=b: (a[keys], b[keys])))
        start += count
    return LinearProgram(np.asarray(c, dtype=float), np.asarray(bounds, dtype=float), groups)


def random_bounded_lp(rng: np.random.Generator) -> LinearProgram:
    """Feasible, bounded instance with at most 4 variables."""
    n = int(rng.integers(2, 5))
    m = int(rng.integers(2, 7))
    a = rng.normal(size=(m, n))
    interior = rng.uniform(-1, 1, size=n)
    b = a @ interior + rng.uniform(0.1, 1.0, size=m)
    c = rng.normal(size=n)
    return dense_program(c, a, b, np.full((n, 2), (-2.0, 2.0)), [("random", m)])


def make_trivial_instance():
    """Scalar class with one transition sample sitting at a fixed point of
    the dynamics, plus one initial and one unsafe state sample."""
    cls = SubsystemClass(
        id="trivial",
        state_dim=1,
        input_dim=1,
        state_box=IntervalBox([0.0], [1.0]),
        input_box=IntervalBox([-1.0], [1.0]),
        safety=SafetySpec(initial=IntervalBox([0.0], [0.25]), unsafe=IntervalBox([0.75], [1.0])),
        template=StcTemplate(state_dim=1, exponents=[[2]]),
        oracle=None,
    )
    samples = SampleSet(
        x=np.array([[0.0], [1.0]]),
        d=np.array([[0.0], [0.0]]),
        fx=np.array([[0.0], [1.0]]),  # both samples are fixed points
        dispersion=0.7,
    )
    return cls, samples


class TestBuildScp:
    def test_row_count_rule(self, room_class, room_samples):
        lp = build_scp(room_class, room_samples, ScpOptions())
        n = room_samples.count
        n0 = int(np.sum(room_class.safety.initial.contains(room_samples.x)))
        na = int(np.sum(room_class.safety.unsafe.contains(room_samples.x)))
        assert lp.a_ub.shape[0] == n0 + na + 2 * n + 1
        assert lp.row_groups == [
            ("initial", n0), ("unsafe", na), ("decrease", n), ("supply", n), ("gap", 1)
        ]

    def test_variable_count_scalar_class(self, room_class, room_samples):
        lp = build_scp(room_class, room_samples, ScpOptions())
        # l terms + sigma + phi + (s11, s12, s22) + eta + beta
        assert lp.layout.size == room_class.template.term_count + 7

    @pytest.mark.parametrize("class_name", ["room", "platoon"])
    def test_layout_names_match_indices(self, class_name, request):
        """The column names that the LP export writes sit at the layout's
        indices: one list states the column order."""
        cls = request.getfixturevalue(f"{class_name}_class")
        layout = VariableLayout(cls.template.term_count, cls.state_dim, cls.input_dim)
        names = layout.names
        assert len(names) == layout.size
        assert names[layout.theta] == [f"theta{j}" for j in range(cls.template.term_count)]
        assert (names[layout.sigma], names[layout.phi]) == ("sigma", "phi")
        assert names[layout.supply] == [f"{b}_{i}{j}" for b, i, j in layout.supply_entries]
        assert (names[layout.eta], names[layout.beta]) == ("eta", "beta")
        p, n = cls.input_dim, cls.state_dim
        assert len(layout.supply_entries) == p * (p + 1) // 2 + p * n + n * (n + 1) // 2

    def test_coverage_error_when_unsafe_unsampled(self, room_class):
        # 2 state points (10, 13) miss the initial box's interior? no: 10 is
        # initial; but a single midpoint state grid misses both boxes
        samples = collect_pairs(room_class, (2,), (2,))
        # states 10 and 13: 10 is initial, 13 is unsafe -> builds fine
        build_scp(room_class, samples, ScpOptions())
        midonly = collect_pairs(room_class, (1,), (3,))
        with pytest.raises(CoverageError):
            build_scp(room_class, midonly, ScpOptions())

    @pytest.mark.parametrize("class_name", ["room", "platoon"])
    def test_matrix_rows_match_evaluators(self, class_name, request):
        """Row values computed from the assembled matrices agree with direct
        recomputation through the domain evaluators.  Platoon's 2x2 supply
        blocks exercise the doubled off-diagonal coefficients."""
        cls = request.getfixturevalue(f"{class_name}_class")
        samples = request.getfixturevalue(f"{class_name}_samples")
        lp = build_scp(cls, samples, ScpOptions())
        layout = lp.layout
        rng = np.random.default_rng(3)
        v = rng.normal(size=layout.size)
        sol = layout.unpack(v)
        row_vals = lp.a_ub @ v - lp.b_ub
        starts = np.cumsum([0] + [count for _, count in lp.row_groups])
        idx = {g: iter(range(a, a + k)) for (g, k), a in zip(lp.row_groups, starts)}
        init_rows, unsafe_rows = idx["initial"], idx["unsafe"]
        dec_rows, sup_rows = idx["decrease"], idx["supply"]
        for i in range(samples.count):
            x, d, fx = samples.x[i : i + 1], samples.d[i : i + 1], samples.fx[i : i + 1]
            bx = eval_template(cls.template, sol.coeffs, x)[0]
            s = eval_supply(sol.supply, d, x)[0]
            bfx = eval_template(cls.template, sol.coeffs, fx)[0]
            if cls.safety.initial.contains(x[0]):
                expected = bx - sol.sigma - sol.eta
                assert row_vals[next(init_rows)] == pytest.approx(expected, abs=1e-10)
            if cls.safety.unsafe.contains(x[0]):
                expected = -bx + sol.phi - sol.eta
                assert row_vals[next(unsafe_rows)] == pytest.approx(expected, abs=1e-10)
            assert row_vals[next(dec_rows)] == pytest.approx(
                bfx - bx - s - sol.eta, abs=1e-10
            )
            assert row_vals[next(sup_rows)] == pytest.approx(s - sol.beta, abs=1e-10)


class TestSolveScp:
    def test_trivial_fixed_point_instance_exact_zero(self):
        cls, samples = make_trivial_instance()
        lp = build_scp(cls, samples, ScpOptions(coeff_bound=1.0, gap=0.0))
        sol = solve_scp(lp)
        assert sol.eta == 0.0 and sol.beta == 0.0

    def test_room_solution_feasible_and_checked(self, room_class, room_samples, room_solution):
        report = check_solution(room_solution, room_class, room_samples)
        assert report.passed, report.max_violation

    def test_platoon_solution_feasible(self, platoon_class, platoon_samples, platoon_solution):
        report = check_solution(platoon_solution, platoon_class, platoon_samples)
        assert report.passed, report.max_violation

    def test_deterministic_resolve(self, room_class, room_samples):
        a = solve_scp(build_scp(room_class, room_samples, ScpOptions()))
        b = solve_scp(build_scp(room_class, room_samples, ScpOptions()))
        assert a.eta + a.beta == b.eta + b.beta
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_solution_coefficients_are_a_read_only_vector(self, room_solution):
        assert type(room_solution.coeffs) is tuple
        assert [type(c) for c in room_solution.coeffs] == [float] * 3
        with pytest.raises(TypeError):
            room_solution.coeffs[0] = 1.0
        with pytest.raises(FrozenInstanceError):
            room_solution.coeffs = (1.0, 0.0, 0.0)
        with pytest.raises(DimensionError):
            ScpSolution(
                coeffs=[[0.0]],
                sigma=0.0,
                phi=0.0,
                supply_s11=((0.0,),),
                supply_s12=((0.0,),),
                supply_s22=((0.0,),),
                eta=0.0,
                beta=0.0,
            )

    def test_infeasible_reports_group(self):
        # contradictory handmade rows: v0 <= -1 and -v0 <= -1
        groups = [("upper", 1), ("lower", 1)]
        lp = dense_program([1.0], [[1.0], [-1.0]], [-1.0, -1.0], [[-5.0, 5.0]], groups)
        with pytest.raises(ScpSolveError, match="^scenario program infeasible: "):
            solve_lp(lp)

    def test_unbounded_reports_status(self):
        # a free column with negative cost and no row to stop it
        lp = dense_program([-1.0, 1.0], [[0.0, 1.0]], [1.0], [[-np.inf, np.inf], [0.0, 2.0]])
        with pytest.raises(ScpSolveError, match="^scenario program unbounded: Unbounded$"):
            solve_lp(lp)

    def test_nan_coefficient_is_a_model_error(self, monkeypatch):
        """HiGHS would take a NaN coefficient and report an optimum, so it
        is refused before any model is loaded."""

        models = recorded_models(monkeypatch)
        lp = dense_program([1.0], [[np.nan]], [1.0], [[-5.0, 5.0]])
        with pytest.raises(ScpSolveError, match="^scenario program failed: Model error$"):
            solve_lp(lp)
        assert all(model.rows is None for model in models)

    def test_time_limit_is_a_failure(self, monkeypatch, room_class, room_samples):
        monkeypatch.setattr(scp, "TIME_LIMIT_S", 0.0)
        lp = build_scp(room_class, room_samples, ScpOptions())
        with pytest.raises(ScpSolveError, match="^scenario program failed: Time limit reached$"):
            solve_lp(lp)


def scipy_result(lp: LinearProgram, time_limit: float = np.inf):
    """``scipy.optimize.linprog`` with the tolerances ``solve_lp`` uses."""
    return scipy.optimize.linprog(
        lp.c,
        A_ub=lp.a_ub,
        b_ub=lp.b_ub,
        bounds=lp.bounds,
        method="highs",
        options={
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
            "time_limit": time_limit,
        },
    )


def scipy_optimum(lp: LinearProgram) -> np.ndarray:
    res = scipy_result(lp)
    assert res.status == 0, res.message
    return res.x


def distinct_rows(lp: LinearProgram) -> np.ndarray:
    """Indices, in increasing order, of the rows of ``lp`` that repeat no
    earlier row with its bound, found by comparing whole rows of the matrix."""
    rows = np.hstack([lp.a_ub, lp.b_ub[:, None]]) + 0.0  # -0.0 is 0.0, as in HiGHS
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    return np.sort(np.unique(keys, return_index=True)[1])


def draw_grid(data, cls) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """State and input counts of 2-12 points per dimension of ``cls``."""
    counts = st.integers(2, 12)
    state_counts = data.draw(st.tuples(*[counts] * cls.state_dim), label="state")
    input_counts = data.draw(st.tuples(*[counts] * cls.input_dim), label="input")
    return state_counts, input_counts


def presolve_status(lp: LinearProgram) -> highs.HighsPresolveStatus:
    """What HiGHS's presolve makes of the model that ``scp.linprog`` loads."""
    solver = highs._Highs()
    solver.setOptionValue("output_flag", False)
    scp._load_model(solver, lp)
    solver.presolve()
    return solver.getModelPresolveStatus()


class TestDirectHighs:
    """``solve_lp`` hands HiGHS the model and options scipy's linprog hands
    it, but with presolve off.  Presolve reduces none of the kept rows of a
    room or platoon grid, and HiGHS solves a model it leaves unreduced as it
    does with presolve off, so there the optimum keeps scipy's bits; scipy
    runs without a time limit here, so the limit changes no bit either.  On
    these grids the rows that ``build_scp`` keeps are the program's distinct
    rows."""

    @pytest.mark.parametrize("name", ["room", "platoon", "drift", "room-62"])
    def test_same_bits_as_scipy(self, request, name):
        if name == "room-62":
            cls = request.getfixturevalue("room_class")
            samples = collect_pairs(cls, (62,), (62,))
        else:
            cls = request.getfixturevalue(f"{name}_class")
            samples = request.getfixturevalue(f"{name}_samples")
        lp = build_scp(cls, samples, ScpOptions())
        assert np.array_equal(lp.kept, distinct_rows(lp))
        assert np.array_equal(solve_lp(lp), scipy_optimum(lp))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), name=st.sampled_from(["room", "platoon"]))
    def test_same_bits_on_any_grid(self, room_class, platoon_class, data, name):
        cls = {"room": room_class, "platoon": platoon_class}[name]
        assert_same_outcome_as_scipy(cls, *draw_grid(data, cls))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_drift_keeps_the_certificate_bits(self, drift_class, data):
        """Presolve reduces drift grids: it drops singleton rows and columns,
        and scipy's optimum may sit at another vertex of the same optimal
        face.  On 78 of the 121 grids of 2-12 x 2-12 points it does: sigma
        and phi move along their free line on 77, s22_00 on one.  The
        objective, the certificate coefficients and the slacks that
        ``check_solution`` gives keep scipy's bits on all of them, and every
        column does where presolve reduces nothing."""
        samples = collect_pairs(drift_class, *draw_grid(data, drift_class))
        lp = build_scp(drift_class, samples, ScpOptions())
        optima = solve_lp(lp), scipy_optimum(lp)
        if presolve_status(lp) == highs.HighsPresolveStatus.kNotReduced:
            assert np.array_equal(*optima)
        assert lp.c @ optima[0] == lp.c @ optima[1]
        assert np.array_equal(*(x[lp.layout.theta] for x in optima))
        ours, scipys = (check_solution(lp.layout.unpack(x), drift_class, samples) for x in optima)
        assert ours.passed and scipys.passed
        assert (ours.eta, ours.beta) == (scipys.eta, scipys.beta)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), name=st.sampled_from(["room", "platoon"]))
    def test_presolve_reduces_no_kept_row(self, room_class, platoon_class, data, name):
        """The invariant behind the bits of the grids above."""
        cls = {"room": room_class, "platoon": platoon_class}[name]
        lp = build_scp(cls, collect_pairs(cls, *draw_grid(data, cls)), ScpOptions())
        assert presolve_status(lp) == highs.HighsPresolveStatus.kNotReduced

    def test_presolve_reduces_no_kept_row_of_room_62(self, room_class):
        lp = build_scp(room_class, collect_pairs(room_class, (62,), (62,)), ScpOptions())
        assert presolve_status(lp) == highs.HighsPresolveStatus.kNotReduced

    def test_same_highs_error_as_scipy(self, platoon_class):
        """HiGHS ends this platoon grid in an error, with the model status
        "Not Set", for scipy and for ``solve_lp`` alike."""
        assert_same_outcome_as_scipy(platoon_class, (8, 7), (9, 8))

    def test_a_highs_error_is_named_and_counts_no_negative_pivots(self, platoon_class):
        """HiGHS counts -1 iterations after its error; the run reports none."""
        lp = build_scp(platoon_class, collect_pairs(platoon_class, (8, 7), (9, 8)), ScpOptions())
        run = scp.linprog(lp)
        assert run.status == highs.HighsModelStatus.kNotset and run.x is None
        assert run.message == "HiGHS error (model status Not Set)"
        assert run.nit == 0 and run.phase2_nit == 0


def assert_same_outcome_as_scipy(cls, state_counts, input_counts):
    """``solve_lp`` returns scipy's optimum bit for bit, or, where scipy ends
    without one, raises ``ScpSolveError`` naming the same HiGHS status.  Some
    platoon grids stall the simplex; scipy, bounded by 10 s, names its time
    limit, and so does ``solve_lp`` under a limit ten times lower.  The margin
    keeps a draw that needs about 10 s (platoon at (8, 12) x (12, 6) takes
    9-10 s) from landing on both sides of one limit."""
    lp = build_scp(cls, collect_pairs(cls, state_counts, input_counts), ScpOptions())
    assert np.array_equal(lp.kept, distinct_rows(lp))
    res = scipy_result(lp, time_limit=10.0)
    if res.status == 0:
        assert np.array_equal(solve_lp(lp), res.x)
        return
    status = highs.HighsModelStatus(int(re.search(r"\(HiGHS Status (\d+): ", res.message)[1]))
    name = re.escape(highs._Highs().modelStatusToString(status))
    message = f"^scenario program failed: (HiGHS error \\(model status {name}\\)|{name})$"
    with pytest.MonkeyPatch.context() as mp, pytest.raises(ScpSolveError, match=message):
        if status == highs.HighsModelStatus.kTimeLimit:
            mp.setattr(scp, "TIME_LIMIT_S", 1.0)
        solve_lp(lp)


def repeated_level_rows(cls, samples) -> list[int]:
    """Indices of the initial and unsafe rows whose state an earlier row of
    the same group already has, found from the samples, not the matrix."""
    repeated, offset = [], 0
    for box in (cls.safety.initial, cls.safety.unsafe):
        states = [tuple(x) for x in samples.x[box.contains(samples.x)]]
        repeated += [offset + i for i, x in enumerate(states) if x in states[:i]]
        offset += len(states)
    return repeated


class RecordedHighs(highs._Highs):
    """A HiGHS instance that records the row count of the model it is handed
    (None until one is loaded) and, per run, the presolve option and the
    pivots.  ``basis``, when given, replaces every basis handed to it."""

    def __init__(self, basis=None):
        super().__init__()
        self.basis, self.rows, self.runs = basis, None, []

    def passModel(self, *args):
        self.rows = args[1]
        return super().passModel(*args)

    def setBasis(self, basis):
        return super().setBasis(basis if self.basis is None else self.basis)

    def run(self):
        presolve = self.getOptionValue("presolve")[1]
        ran = super().run()
        self.runs.append((presolve, self.getInfo().simplex_iteration_count))
        return ran


def recorded_models(monkeypatch, basis=None) -> list[RecordedHighs]:
    """Each HiGHS instance made from here on, scipy's own included."""
    models = []

    def made():
        models.append(RecordedHighs(basis))
        return models[-1]

    monkeypatch.setattr(highs, "_Highs", made)
    return models


def with_repeated_transitions(samples: SampleSet, repeats: int, seed: int) -> SampleSet:
    """``samples`` with ``repeats`` of its transitions recorded twice, all in
    shuffled order, as a data CSV may hold them."""
    rng = np.random.default_rng(seed)
    rows = np.concatenate([np.arange(samples.count), rng.choice(samples.count, repeats)])
    rows = rng.permutation(rows)
    return SampleSet(samples.x[rows], samples.d[rows], samples.fx[rows], samples.dispersion)


class TestTwoPhases:
    """One HiGHS model holds the rows ``build_scp`` keeps: the first run
    solves it, the second confirms its basis, both with presolve off."""

    @pytest.mark.parametrize(
        "name, counts", [("room", ((62,), (62,))), ("platoon", ((5, 6), (5, 6)))]
    )
    def test_phase_2_confirms_without_a_pivot(self, monkeypatch, request, name, counts):
        cls = request.getfixturevalue(f"{name}_class")
        samples = collect_pairs(cls, *counts)
        lp = build_scp(cls, samples, ScpOptions())
        assert np.array_equal(lp.kept, distinct_rows(lp))
        removed = sorted(set(range(lp.a_ub.shape[0])) - set(lp.kept.tolist()))
        assert removed and removed == repeated_level_rows(cls, samples)
        models = recorded_models(monkeypatch)
        run = scp.linprog(lp)
        assert run.status == highs.HighsModelStatus.kOptimal
        [model] = models
        assert model.rows == lp.kept.size
        [(first, first_nit), second] = model.runs
        assert first == "off" and first_nit > 0 and second == ("off", 0)
        assert run.phase2_nit == 0 and run.nit == first_nit

    def test_no_phase_2_without_repeated_rows(self, monkeypatch):
        models = recorded_models(monkeypatch)
        cls, samples = make_trivial_instance()
        run = scp.linprog(build_scp(cls, samples, ScpOptions(coeff_bound=1.0, gap=0.0)))
        assert run.status == highs.HighsModelStatus.kOptimal
        [model] = models
        assert model.rows == 7 and [presolve for presolve, _ in model.runs] == ["off"]

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("name", ["drift", "room", "platoon"])
    def test_repeated_transitions_keep_scipys_bits(self, request, name, seed):
        """A transition recorded twice repeats its decrease and supply rows.
        ``build_scp`` keeps them in the model, where scipy's presolve drops
        them, and the optimum keeps the bits of scipy's run on the whole
        program."""
        cls = request.getfixturevalue(f"{name}_class")
        samples = with_repeated_transitions(request.getfixturevalue(f"{name}_samples"), 20, seed)
        lp = build_scp(cls, samples, ScpOptions())
        distinct = distinct_rows(lp)
        assert lp.kept.size - distinct.size >= 40 and set(distinct) <= set(lp.kept)
        assert np.array_equal(solve_lp(lp), scipy_optimum(lp))

    def test_a_basis_that_is_not_optimal_still_ends_at_the_optimum(
        self, monkeypatch, room_class, room_samples
    ):
        """Every row slack basic and every column at a bound: the second run
        pivots to an optimum with the optimal objective."""
        lp = build_scp(room_class, room_samples, ScpOptions())
        assert lp.kept.size < lp.a_ub.shape[0]
        basis = highs.HighsBasis()
        basis.col_status = [
            highs.HighsBasisStatus.kZero if np.isinf(lo) else highs.HighsBasisStatus.kLower
            for lo, _ in lp.bounds
        ]
        basis.row_status = [highs.HighsBasisStatus.kBasic] * lp.kept.size
        basis.valid = True
        optimum = lp.c @ scipy_optimum(lp)
        models = recorded_models(monkeypatch, basis)
        run = scp.linprog(lp)
        [model] = models
        assert model.rows == lp.kept.size and model.runs[1][0] == "off"
        assert run.status == highs.HighsModelStatus.kOptimal and run.phase2_nit > 0
        assert lp.c @ run.x == pytest.approx(optimum, abs=1e-12)


# zeros of both signs, subnormals and entries near zero, which a sparse
# format must keep or drop exactly as scipy does
MATRIX_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e-9, -1e-9]),
    st.floats(-1e-9, 1e-9),
    st.floats(allow_nan=False, allow_infinity=False),
)

# A tiny program, min x subject to x >= 0.5 and -1 <= x <= 1, solved in a
# fresh interpreter: once through netcert.scp, once through scipy.optimize.
TINY_SOLVES = """
import json, sys
import numpy as np
from netcert import scp
lower = scp.RowGroup("lower", 1, lambda keys: (-np.ones((keys.size, 1)), np.full(keys.size, -0.5)))
lp = scp.LinearProgram(np.ones(1), np.array([[-1.0, 1.0]]), [lower])
scp_x = scp.solve_lp(lp).tolist()
optimize_before = "scipy.optimize" in sys.modules
import scipy.optimize
from scipy.optimize._highspy import _core
res = scipy.optimize.linprog([1.0], A_ub=[[-1.0]], b_ub=[-0.5], bounds=[(-1, 1)], method="highs")
print(json.dumps([optimize_before, _core is scp.highs, scp_x, res.x.tolist()]))
"""

# Imports netcert.scp and loads scipy's L-BFGS-B extension in a fresh
# interpreter, then prints whether both extensions are loaded and which
# other scipy modules are, besides the extensions' own submodules.
EXTENSIONS_ONLY = """
import json, sys
from netcert import scp
EXTENSIONS = ("scipy.optimize._highspy._core", "scipy.optimize._lbfgsb")
scp.load_scipy_extension(EXTENSIONS[1])
others = [
    name for name in sys.modules if name.split(".")[0] == "scipy"
    and not any(name == e or name.startswith(e + ".") for e in EXTENSIONS)
]
print(json.dumps([[e in sys.modules for e in EXTENSIONS], others]))
"""


class TestHighsInput:
    """``scp.load_scipy_extension`` loads scipy's HiGHS extension (and, for
    the slope fit, its L-BFGS-B extension) from its file, so that
    ``scipy.optimize`` is not imported for it; HiGHS gets the module that
    scipy's linprog would use."""

    def test_the_extension_file_is_found(self):
        """The installed scipy has the files of both extensions that netcert
        uses: a silent fallback to the plain import would load
        scipy.optimize, about 0.4 s, in every run."""
        proc = run_python(["-c", EXTENSIONS_ONLY])
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [[True, True], []]
        assert scp.load_scipy_extension("scipy.optimize._highspy._core") is scp.highs

    def test_scipy_optimize_takes_the_same_module(self):
        """``recorded_models`` patches the module that this file imports
        through scipy.optimize; scp must solve with that same object."""
        assert highs is scp.highs
        proc = run_python(["-c", TINY_SOLVES])
        assert proc.returncode == 0, proc.stderr
        optimize_before, same, scp_x, scipy_x = json.loads(proc.stdout)
        assert not optimize_before and same
        assert scp_x == scipy_x == [0.5]

    def test_without_the_extension_file_the_plain_import(self):
        hidden = "import importlib.machinery\nimportlib.machinery.EXTENSION_SUFFIXES = []\n"
        proc = run_python(["-c", hidden + TINY_SOLVES])
        assert proc.returncode == 0, proc.stderr
        optimize_before, same, scp_x, scipy_x = json.loads(proc.stdout)
        assert optimize_before and same
        assert scp_x == scipy_x == [0.5]


def dense_fill(cls, samples: SampleSet, options: ScpOptions):
    """(a_ub, b_ub, kept) of the scenario program as ``build_scp`` once
    filled them: one dense matrix of every row, from the bases of every
    sample, and the kept rows found from them."""
    layout = VariableLayout(cls.template.term_count, cls.state_dim, cls.input_dim)
    phi_x = cls.template.basis_values(samples.x)
    phi_fx = cls.template.basis_values(samples.fx)
    initial_x = phi_x[cls.safety.initial.contains(samples.x)]
    unsafe_x = phi_x[cls.safety.unsafe.contains(samples.x)]
    counts = (len(initial_x), len(unsafe_x), samples.count, samples.count, 1)
    a_ub = np.zeros((sum(counts), layout.size))
    b_ub = np.zeros(a_ub.shape[0])
    initial, unsafe, decrease, supply, gap = np.split(a_ub, np.cumsum(counts)[:-1])
    initial[:, layout.theta] = initial_x
    initial[:, layout.sigma] = -1.0
    initial[:, layout.eta] = -1.0
    unsafe[:, layout.theta] = -unsafe_x
    unsafe[:, layout.phi] = 1.0
    unsafe[:, layout.eta] = -1.0
    p = cls.input_dim
    offsets = {"s11": (0, 0), "s12": (0, p), "s22": (p, p)}
    pairs = [(offsets[b][0] + i, offsets[b][1] + j) for b, i, j in layout.supply_entries]
    left, right = np.array(pairs).T
    z = np.hstack([samples.d, samples.x])
    supply[:, layout.supply] = np.where(left == right, 1.0, 2.0) * z[:, left] * z[:, right]
    decrease[:] = -supply
    decrease[:, layout.theta] = phi_fx - phi_x
    decrease[:, layout.eta] = -1.0
    supply[:, layout.beta] = -1.0
    gap[:, layout.sigma] = 1.0
    gap[:, layout.phi] = -1.0
    b_ub[-1] = -options.gap
    first = [np.sort(np.unique(v, axis=0, return_index=True)[1]) for v in (initial_x, unsafe_x)]
    kept = np.concatenate([first[0], counts[0] + first[1], np.arange(sum(counts[:2]), b_ub.size)])
    return a_ub, b_ub, kept


def assert_csc_array_of(expected: np.ndarray, columns):
    """``columns`` are the (indptr, indices, data) that ``csc_array`` holds
    for ``expected``: the same dtypes and the same bits."""
    indptr, indices, data = columns
    csc = csc_array(expected)
    assert indptr.dtype == indices.dtype == np.int32 and data.dtype == np.float64
    assert np.array_equal(indptr, csc.indptr) and np.array_equal(indices, csc.indices)
    assert data.tobytes() == csc.data.tobytes()


class TestModelColumns:
    """HiGHS gets the compressed columns of the kept rows, built a block of
    rows at a time from the sampled bases; no dense matrix of every row
    exists, and ``a_ub`` builds one from the same rows when read."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), name=st.sampled_from(["room", "platoon", "drift"]))
    def test_same_bits_as_the_dense_fill(self, room_class, platoon_class, drift_class, data, name):
        """On any grid, template and block size, ``a_ub`` is the dense fill
        bit for bit, -0.0 included, and the model's columns are those of
        ``csc_array(a_ub[kept])``.  The drift grids hold states, inputs and
        successors that are exactly 0."""
        cls = {"room": room_class, "platoon": platoon_class, "drift": drift_class}[name]
        shape = (data.draw(st.integers(1, 5), label="terms"), cls.state_dim)
        exponents = data.draw(arrays(np.int64, shape, elements=st.integers(0, 3)), label="exponents")
        cls = replace(cls, template=StcTemplate(cls.state_dim, exponents))
        samples = collect_pairs(cls, *draw_grid(data, cls))
        options = ScpOptions()
        a_ub, b_ub, kept = dense_fill(cls, samples, options)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scp, "_ROW_CHUNK", data.draw(st.integers(1, 300), label="chunk"))
            lp = build_scp(cls, samples, options)
            *columns, upper = scp.model_columns(lp)
            dense_a, dense_b = lp.a_ub, lp.b_ub
        assert dense_a.shape == a_ub.shape and dense_a.tobytes() == a_ub.tobytes()
        assert dense_b.tobytes() == b_ub.tobytes() and upper.tobytes() == b_ub[kept].tobytes()
        assert np.array_equal(lp.kept, kept)
        assert lp.column_counts.sum() == columns[2].size
        assert_csc_array_of(dense_a[lp.kept], columns)

    @settings(max_examples=200, deadline=None)
    @given(
        a=arrays(np.float64, array_shapes(min_dims=2, max_dims=2), elements=MATRIX_ENTRIES),
        chunk=st.integers(1, 4),
    )
    def test_hand_made_rows_give_the_csc_arrays(self, a, chunk):
        """Zeros of both signs, subnormals and entries near zero, kept or
        dropped as ``csc_array`` keeps or drops them."""
        lp = dense_program(np.zeros(a.shape[1]), a, np.zeros(a.shape[0]), np.zeros((a.shape[1], 2)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scp, "_ROW_CHUNK", chunk)
            *columns, _ = scp.model_columns(lp)
        assert_csc_array_of(a, columns)

    def test_no_dense_matrix_while_solving(self, room_class):
        """Room at 124 x 124 samples: numpy's peak while the program is built
        and solved stays below the dense matrix of its rows alone."""
        samples = collect_pairs(room_class, (124,), (124,))
        tracemalloc.start()
        try:
            lp = build_scp(room_class, samples, ScpOptions())
            solve_scp(lp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < lp.rows * lp.c.size * 8


class TestScpOptions:
    """Every row but the gap row has a free slack and sigma, phi lie in
    [-coeff_bound, coeff_bound], so the program is feasible exactly when
    0 <= gap <= 2 * coeff_bound."""

    def test_largest_gap_solves(self, room_class, room_samples):
        options = ScpOptions(coeff_bound=200.0, gap=400.0)
        sol = solve_scp(build_scp(room_class, room_samples, options))
        assert (sol.sigma, sol.phi) == (-200.0, 200.0)
        assert check_solution(sol, room_class, room_samples, options).passed

    @pytest.mark.parametrize(
        "gap", [np.nextafter(400.0, np.inf), 400.5, -5e-324, float("nan"), float("inf")]
    )
    def test_gap_outside_range_rejected(self, gap):
        message = "gap must lie in [0, 2 * coeff_bound] = [0, 400.0]"
        with pytest.raises(InvariantError, match=re.escape(message)):
            ScpOptions(coeff_bound=200.0, gap=gap)

    @pytest.mark.parametrize("tol", [0.0, float("nan"), float("inf")])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        with pytest.raises(InvariantError, match="feasibility_tol must be finite and positive"):
            ScpOptions(feasibility_tol=tol)


class TestLpOracle:
    def test_random_instances_match_vertex_enumeration(self):
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 25:
            lp = random_bounded_lp(rng)
            expected = brute_force_lp_minimum(lp)
            if expected is None:
                continue
            objective = float(lp.c @ solve_lp(lp))  # solve_lp raises without an optimum
            assert objective == pytest.approx(expected, abs=1e-6)
            checked += 1


class TestHomogeneity:
    def test_objective_scales_with_bounds(self, drift_class, drift_samples):
        """With a zero gap the constraint system is positively homogeneous:
        doubling the variable box doubles the (negative) optimum, so without
        bounds the program would be unbounded."""
        lo = solve_scp(build_scp(drift_class, drift_samples, ScpOptions(coeff_bound=1.0, gap=0.0)))
        hi = solve_scp(build_scp(drift_class, drift_samples, ScpOptions(coeff_bound=2.0, gap=0.0)))
        assert lo.eta + lo.beta < -1e-6
        assert hi.eta + hi.beta == pytest.approx(2.0 * (lo.eta + lo.beta), rel=1e-6)

    def test_scaling_a_solution_scales_row_slacks(self, room_class, room_samples):
        lp = build_scp(room_class, room_samples, ScpOptions(gap=0.0))
        rng = np.random.default_rng(11)
        v = rng.normal(size=lp.layout.size)
        lam = 3.7
        slack_one = lp.b_ub - lp.a_ub @ v
        slack_lam = lp.b_ub - lp.a_ub @ (lam * v)
        assert np.allclose(slack_lam, lam * slack_one, atol=1e-9)


class TestMonotonicityInData:
    def test_nested_grids_never_decrease_objective(self, room_class):
        """Nested uniform grids (counts 3 -> 5 -> 9 reuse coarser points)
        only add constraints, so the optimum cannot improve."""
        opts = ScpOptions()
        objectives = []
        for c in (3, 5, 9):
            samples = collect_pairs(room_class, (c,), (c,))
            sol = solve_scp(build_scp(room_class, samples, opts))
            objectives.append(sol.eta + sol.beta)
        assert objectives[0] <= objectives[1] + 1e-9
        assert objectives[1] <= objectives[2] + 1e-9


class TestReportedRoomValues:
    """The reference room certificate values serve as fixed arithmetic
    inputs, not as a reproducible optimum; re-substituting them into our
    sampled rows shows they do not satisfy the initial-level group."""

    def test_initial_row_residual_at_11(self, room_class, room_samples, room_reference_solution):
        report = check_solution(room_reference_solution, room_class, room_samples)
        # B(11) - sigma - eta = 135.6791 - 150 + 16.928 = +2.6071
        assert report.max_violation["initial"] == pytest.approx(2.6071, abs=1e-4)
        assert not report.passed

    def test_unsafe_rows_hold(self, room_class, room_samples, room_reference_solution):
        report = check_solution(room_reference_solution, room_class, room_samples)
        # -B(12) + phi - eta = -211.6136 + 200 + 16.928 = +5.3144 > 0: also
        # violated; the reported eta is inconsistent with both level groups
        assert report.max_violation["unsafe"] == pytest.approx(5.3144, abs=1e-4)


class TestCheckSolutionZeroResiduals:
    def test_zeroed_solution_on_trivial_instance(self):
        cls, samples = make_trivial_instance()
        zero = ScpSolution(
            coeffs=np.array([0.0]),
            sigma=0.0,
            phi=0.0,
            supply_s11=((0.0,),),
            supply_s12=((0.0,),),
            supply_s22=((0.0,),),
            eta=0.0,
            beta=0.0,
        )
        report = check_solution(zero, cls, samples, ScpOptions(gap=0.0))
        assert all(v <= 0.0 for v in report.max_violation.values())


class TestSlacksFromTheEvaluators:
    """The stored slacks are the largest sampled row values that the
    evaluators give; the LP's own eta and beta only bound them."""

    def test_a_row_violated_within_tolerance_is_stored(self, room_class, room_samples):
        """An LP vector whose eta is lowered by half ``feasibility_tol``
        leaves a decrease row above it by less than the tolerance: the
        residual check passes, and the certificate's eta and beta still
        bound every recomputed row."""
        options = ScpOptions()
        lp = build_scp(room_class, room_samples, options)
        v = solve_lp(lp)
        v[lp.layout.eta] -= 0.5 * options.feasibility_tol
        solution = lp.layout.unpack(v)
        bx = eval_template(room_class.template, solution.coeffs, room_samples.x)
        bfx = eval_template(room_class.template, solution.coeffs, room_samples.fx)
        s = eval_supply(solution.supply, room_samples.d, room_samples.x)
        initial = room_class.safety.initial.contains(room_samples.x)
        unsafe = room_class.safety.unsafe.contains(room_samples.x)
        decrease = bfx - bx - s
        assert 0 < decrease.max() - solution.eta <= options.feasibility_tol
        assert check_solution(solution, room_class, room_samples, options).passed
        cfg = PipelineConfig(
            classes=[], scp=options, lipschitz=LipschitzConfig(0.1, 20, 5, seed=0)
        )
        cert = certify_class(room_class, room_samples, solution, cfg)
        assert cert.eta >= decrease.max()
        assert cert.eta >= (bx[initial] - solution.sigma).max()
        assert cert.eta >= (-bx[unsafe] + solution.phi).max()
        assert cert.beta >= s.max()
        assert cert.eta > solution.eta

    def test_a_row_beyond_tolerance_names_its_group(self, room_class, room_samples):
        options = ScpOptions()
        lp = build_scp(room_class, room_samples, options)
        v = solve_lp(lp)
        v[lp.layout.beta] -= 2 * options.feasibility_tol
        cfg = PipelineConfig(classes=[], scp=options)
        with pytest.raises(PipelineError, match="exceed tolerance in group 'supply'"):
            certify_class(room_class, room_samples, lp.layout.unpack(v), cfg)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), name=st.sampled_from(["room", "platoon"]))
    def test_slacks_do_not_depend_on_the_row_order(
        self, room_class, platoon_class, room_solution, platoon_solution, data, name
    ):
        """eta and beta are maxima of per-sample values, so any permutation
        of the sample rows gives them bit for bit."""
        cls, solution = {
            "room": (room_class, room_solution),
            "platoon": (platoon_class, platoon_solution),
        }[name]
        # the grid from the seed too: hypothesis favours counts whose
        # product is a multiple of 4, and so rarely moves a row in or out of
        # a short last group
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        samples = collect_pairs(
            cls, rng.integers(2, 6, cls.state_dim), rng.integers(1, 4, cls.input_dim)
        )
        coeffs = tuple(rng.uniform(-200.0, 200.0, cls.template.term_count).tolist())
        solution = replace(solution, coeffs=coeffs)
        report = check_solution(solution, cls, samples)
        for _ in range(10):
            order = rng.permutation(samples.count)
            shuffled = replace(samples, x=samples.x[order], d=samples.d[order], fx=samples.fx[order])
            again = check_solution(solution, cls, shuffled)
            assert (again.eta, again.beta) == (report.eta, report.beta)


class TestLpExport:
    def test_written_file_mentions_all_groups(self, tmp_path, room_class):
        samples = collect_pairs(room_class, (3,), (3,))
        lp = build_scp(room_class, samples, ScpOptions())
        path = tmp_path / "room.lp"
        export_lp_text(lp, path)
        text = path.read_text()
        assert text.startswith("Minimize")
        for token in ("decrease_", "supply_", "initial_", "unsafe_", "gap_", "Bounds", "End"):
            assert token in text
