import itertools
import re
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize._highspy import _core as highs

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



def brute_force_lp_minimum(lp: LinearProgram, tol: float = 1e-9):
    """Independent oracle: enumerate all vertices of the constraint
    polytope (rows plus active bounds) and take the best feasible one.
    Only usable for small variable counts; completely solver-free."""
    n = lp.c.size
    rows = [np.asarray(r, float) for r in lp.a_ub]
    rhs = list(lp.b_ub)
    for j, (lo, hi) in enumerate(lp.bounds):
        if lo is not None:
            e = np.zeros(n)
            e[j] = -1.0
            rows.append(e)
            rhs.append(-lo)
        if hi is not None:
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


def random_bounded_lp(rng: np.random.Generator) -> LinearProgram:
    """Feasible, bounded instance with at most 4 variables."""
    n = int(rng.integers(2, 5))
    m = int(rng.integers(2, 7))
    a = rng.normal(size=(m, n))
    interior = rng.uniform(-1, 1, size=n)
    b = a @ interior + rng.uniform(0.1, 1.0, size=m)
    c = rng.normal(size=n)
    return LinearProgram(
        c=c,
        a_ub=a,
        b_ub=b,
        bounds=[(-2.0, 2.0)] * n,
        row_groups=[f"r{i}" for i in range(m)],
    )


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
        assert lp.row_groups.count("initial") == n0
        assert lp.row_groups.count("unsafe") == na
        assert lp.row_groups.count("decrease") == n
        assert lp.row_groups.count("supply") == n
        assert lp.row_groups.count("gap") == 1

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
        idx = {g: [] for g in set(lp.row_groups)}
        for i, g in enumerate(lp.row_groups):
            idx[g].append(i)
        init_rows = iter(idx["initial"])
        unsafe_rows = iter(idx["unsafe"])
        dec_rows = iter(idx["decrease"])
        sup_rows = iter(idx["supply"])
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
        lp = LinearProgram(
            c=np.array([1.0]),
            a_ub=np.array([[1.0], [-1.0]]),
            b_ub=np.array([-1.0, -1.0]),
            bounds=[(-5.0, 5.0)],
            row_groups=["upper", "lower"],
        )
        with pytest.raises(ScpSolveError, match="^scenario program infeasible: "):
            solve_lp(lp)

    def test_unbounded_reports_status(self):
        # a free column with negative cost and no row to stop it
        lp = LinearProgram(
            c=np.array([-1.0, 1.0]),
            a_ub=np.array([[0.0, 1.0]]),
            b_ub=np.array([1.0]),
            bounds=[(None, None), (0.0, 2.0)],
            row_groups=["upper"],
        )
        with pytest.raises(ScpSolveError, match="^scenario program unbounded: Unbounded$"):
            solve_lp(lp)

    def test_nan_coefficient_is_a_model_error(self, monkeypatch):
        """HiGHS would take a NaN coefficient and report an optimum, so it
        is refused before any HiGHS run."""

        def no_run(*args, **kwargs):
            raise AssertionError("HiGHS ran on a NaN coefficient")

        monkeypatch.setattr(scp, "_run_highs", no_run)
        lp = LinearProgram(
            c=np.array([1.0]),
            a_ub=np.array([[np.nan]]),
            b_ub=np.array([1.0]),
            bounds=[(-5.0, 5.0)],
            row_groups=["upper"],
        )
        with pytest.raises(ScpSolveError, match="^scenario program failed: Model error$"):
            solve_lp(lp)

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


class TestDirectHighs:
    """``solve_lp`` hands HiGHS the model and options scipy's linprog hands
    it, so the optimum keeps scipy's bits; scipy runs without a time limit
    here, so the limit changes no bit either."""

    @pytest.mark.parametrize("name", ["room", "platoon", "drift", "room-62"])
    def test_same_bits_as_scipy(self, request, name):
        if name == "room-62":
            cls = request.getfixturevalue("room_class")
            samples = collect_pairs(cls, (62,), (62,))
        else:
            cls = request.getfixturevalue(f"{name}_class")
            samples = request.getfixturevalue(f"{name}_samples")
        lp = build_scp(cls, samples, ScpOptions())
        assert np.array_equal(solve_lp(lp), scipy_optimum(lp))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), name=st.sampled_from(["room", "platoon", "drift"]))
    def test_same_bits_on_any_grid(self, room_class, platoon_class, drift_class, data, name):
        """Some platoon grids stall the simplex; scipy, bounded by 10 s, names
        its time limit, and so does ``solve_lp`` under a limit ten times
        lower.  The margin keeps a draw that needs about 10 s (platoon at
        (8, 12) x (12, 6) takes 9-10 s) from landing on both sides of one
        limit."""
        cls = {"room": room_class, "platoon": platoon_class, "drift": drift_class}[name]
        counts = st.integers(2, 12)
        state_counts = data.draw(st.tuples(*[counts] * cls.state_dim), label="state")
        input_counts = data.draw(st.tuples(*[counts] * cls.input_dim), label="input")
        lp = build_scp(cls, collect_pairs(cls, state_counts, input_counts), ScpOptions())
        res = scipy_result(lp, time_limit=10.0)
        if res.status == 1 and res.message.startswith("Time limit reached"):
            limit = "^scenario program failed: Time limit reached$"
            with pytest.MonkeyPatch.context() as mp, pytest.raises(ScpSolveError, match=limit):
                mp.setattr(scp, "TIME_LIMIT_S", 1.0)
                solve_lp(lp)
        else:
            assert res.status == 0, res.message
            assert np.array_equal(solve_lp(lp), res.x)


def repeated_level_rows(cls, samples) -> list[int]:
    """Indices of the initial and unsafe rows whose state an earlier row of
    the same group already has, found from the samples, not the matrix."""
    repeated, offset = [], 0
    for box in (cls.safety.initial, cls.safety.unsafe):
        states = [tuple(x) for x in samples.x[box.contains(samples.x)]]
        repeated += [offset + i for i, x in enumerate(states) if x in states[:i]]
        offset += len(states)
    return repeated


class TestTwoPhases:
    """Phase 1 solves the program's distinct rows, phase 2 confirms its
    basis on the whole program."""

    @pytest.mark.parametrize(
        "name, counts", [("room", ((62,), (62,))), ("platoon", ((5, 6), (5, 6)))]
    )
    def test_phase_2_confirms_without_a_pivot(self, request, name, counts):
        cls = request.getfixturevalue(f"{name}_class")
        samples = collect_pairs(cls, *counts)
        lp = build_scp(cls, samples, ScpOptions())
        kept = scp.distinct_rows(lp)
        removed = sorted(set(range(lp.a_ub.shape[0])) - set(kept.tolist()))
        assert removed and removed == repeated_level_rows(cls, samples)
        run = scp.linprog(lp)
        assert run.status == highs.HighsModelStatus.kOptimal
        assert (run.phase1_rows, run.phase2_nit) == (kept.size, 0)
        assert run.nit > 0

    def test_no_phase_2_without_repeated_rows(self, monkeypatch):
        run_highs, bases = scp._run_highs, []

        def recorded(lp, rows, basis=None):
            bases.append(basis)
            return run_highs(lp, rows, basis)

        monkeypatch.setattr(scp, "_run_highs", recorded)
        cls, samples = make_trivial_instance()
        run = scp.linprog(build_scp(cls, samples, ScpOptions(coeff_bound=1.0, gap=0.0)))
        assert run.status == highs.HighsModelStatus.kOptimal
        assert (run.phase1_rows, bases) == (7, [None])  # phase 1 alone, on all 7 rows

    def test_a_basis_that_is_not_optimal_still_ends_at_the_optimum(
        self, room_class, room_samples
    ):
        """Every row slack basic and every column at a bound: phase 2 pivots
        to an optimum with the optimal objective."""
        lp = build_scp(room_class, room_samples, ScpOptions())
        rows = lp.a_ub.shape[0]
        basis = highs.HighsBasis()
        basis.col_status = [
            highs.HighsBasisStatus.kZero if lo is None else highs.HighsBasisStatus.kLower
            for lo, _ in lp.bounds
        ]
        basis.row_status = [highs.HighsBasisStatus.kBasic] * rows
        basis.valid = True
        solver = scp._run_highs(lp, np.arange(rows), basis)
        assert solver.getModelStatus() == highs.HighsModelStatus.kOptimal
        assert solver.getInfo().simplex_iteration_count > 0
        x = np.array(solver.getSolution().col_value)
        assert lp.c @ x == pytest.approx(lp.c @ solve_lp(lp), abs=1e-12)


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
