"""Scenario program assembly and solution.

The sampled storage-certificate conditions form a linear program in the
decision vector (coefficients, level values, supply blocks, slack pair
(eta, beta)).  The constraint system is positively homogeneous, so every
decision variable except the slacks carries a box bound; without it any
strictly negative objective direction could be scaled without limit.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.optimize._highspy import _core as highs
from scipy.sparse import csc_array

from .core import (
    InvariantError,
    SubsystemClass,
    SupplyRate,
    eval_supply,
    eval_template,
    frozen_array,
)
from .sampling import CoverageError, SampleSet

ROW_GROUPS = ("initial", "unsafe", "decrease", "supply", "gap")


@dataclass(frozen=True)
class ScpOptions:
    """Normalization knobs for the scenario program.

    coeff_bound      box bound on every non-slack decision variable
    gap              enforced separation phi - sigma >= gap
    feasibility_tol  residual tolerance for declaring a solution valid

    Every row but the gap row has a free slack (eta or beta), and sigma and
    phi lie in [-coeff_bound, coeff_bound], so the program is feasible and
    bounded exactly when 0 <= gap <= 2 * coeff_bound.
    """

    coeff_bound: float = 200.0
    gap: float = 1e-3
    feasibility_tol: float = 1e-8

    def __post_init__(self):
        if not (np.isfinite(self.coeff_bound) and self.coeff_bound > 0):
            raise InvariantError("coeff_bound must be finite and positive")
        if not 0 <= self.gap <= 2 * self.coeff_bound:
            raise InvariantError(
                f"gap must lie in [0, 2 * coeff_bound] = [0, {2 * self.coeff_bound!r}], "
                "else the scenario program is infeasible"
            )
        if not (np.isfinite(self.feasibility_tol) and self.feasibility_tol > 0):
            raise InvariantError("feasibility_tol must be finite and positive")


@dataclass(frozen=True)
class ScpSolution:
    """Optimizer of the scenario program for one class, held as plain tuples
    so that it hashes and compares: ``coeffs`` has one float per template
    term, and the supply blocks one tuple per matrix row."""

    coeffs: tuple[float, ...]
    sigma: float
    phi: float
    supply_s11: tuple[tuple[float, ...], ...]
    supply_s12: tuple[tuple[float, ...], ...]
    supply_s22: tuple[tuple[float, ...], ...]
    eta: float
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(frozen_array(self.coeffs, ndim=1).tolist()))
        self.supply  # the blocks must form a SupplyRate

    @cached_property
    def supply(self) -> SupplyRate:
        return SupplyRate(self.supply_s11, self.supply_s12, self.supply_s22)


@dataclass(frozen=True)
class VariableLayout:
    """Column indices of the decision vector.

    Order: certificate coefficients, sigma, phi, the stored supply entries
    (``supply_entries``), eta, beta.
    """

    term_count: int
    state_dim: int
    input_dim: int

    @property
    def theta(self) -> slice:
        return slice(0, self.term_count)

    @property
    def sigma(self) -> int:
        return self.term_count

    @property
    def phi(self) -> int:
        return self.term_count + 1

    @property
    def supply(self) -> slice:
        """The stored supply entries, in ``supply_entries`` order."""
        start = self.term_count + 2
        return slice(start, start + len(self.supply_entries))

    @property
    def eta(self) -> int:
        return self.supply.stop

    @property
    def beta(self) -> int:
        return self.supply.stop + 1

    @property
    def size(self) -> int:
        return self.beta + 1

    @property
    def names(self) -> list[str]:
        """The name of each column, as the LP text export writes it."""
        theta = [f"theta{j}" for j in range(self.term_count)]
        supply = [f"{b}_{i}{j}" for b, i, j in self.supply_entries]
        return theta + ["sigma", "phi"] + supply + ["eta", "beta"]

    @property
    def supply_entries(self) -> list[tuple[str, int, int]]:
        """(block, row, column) of each stored supply entry, in column order:
        the upper triangle of s11, s12 row by row, the upper triangle of s22."""
        p, n = self.input_dim, self.state_dim
        return (
            [("s11", i, j) for i in range(p) for j in range(i, p)]
            + [("s12", i, j) for i in range(p) for j in range(n)]
            + [("s22", i, j) for i in range(n) for j in range(i, n)]
        )

    def supply_rows(self, d: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Coefficients of the supply value d'S11 d + 2 d'S12 x + x'S22 x as a
        linear function of the stored block entries, one (size,) row per
        matching row of ``d`` and ``x``."""
        p = self.input_dim
        # operand pair of z = [d, x] per stored entry
        offsets = {"s11": (0, 0), "s12": (0, p), "s22": (p, p)}
        pairs = [(offsets[b][0] + i, offsets[b][1] + j) for b, i, j in self.supply_entries]
        left, right = np.array(pairs).T
        z = np.hstack([d, x])
        rows = np.zeros((z.shape[0], self.size))
        # an off-diagonal entry appears twice in the quadratic form
        factor = np.where(left == right, 1.0, 2.0)
        rows[:, self.supply] = factor * z[:, left] * z[:, right]
        return rows

    def unpack(self, v: np.ndarray) -> ScpSolution:
        p, n = self.input_dim, self.state_dim
        blocks = {"s11": np.zeros((p, p)), "s12": np.zeros((p, n)), "s22": np.zeros((n, n))}
        for (b, i, j), val in zip(self.supply_entries, v[self.supply]):
            blocks[b][i, j] = val
            if b != "s12":  # s11 and s22 are symmetric
                blocks[b][j, i] = val
        return ScpSolution(
            coeffs=v[self.theta],
            sigma=float(v[self.sigma]),
            phi=float(v[self.phi]),
            **{f"supply_{b}": tuple(map(tuple, m.tolist())) for b, m in blocks.items()},
            eta=float(v[self.eta]),
            beta=float(v[self.beta]),
        )


@dataclass
class LinearProgram:
    """min c'v  subject to  a_ub @ v <= b_ub  and per-variable bounds."""

    c: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    bounds: list[tuple[Optional[float], Optional[float]]]
    row_groups: list[str] = field(default_factory=list)
    layout: Optional[VariableLayout] = None


class ScpSolveError(RuntimeError):
    """HiGHS ended without an optimum.  A program that ``build_scp`` built
    from valid ``ScpOptions`` is feasible and bounded, so for it this is a
    solver failure (a time limit, numerical trouble)."""


# The options scipy's linprog(method="highs") passes to HiGHS, with both
# tolerances tighter than the downstream residual tolerance of 1e-8.
_HIGHS_OPTIONS = (
    ("presolve", "on"),
    ("simplex_strategy", int(highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual)),
    ("output_flag", False),
    ("log_to_console", False),
    ("primal_feasibility_tolerance", 1e-10),
    ("dual_feasibility_tolerance", 1e-10),
)

# Seconds that each HiGHS run may take.  A run that reaches it ends with the
# model status "Time limit reached", which ``solve_lp`` raises as a failure.
TIME_LIMIT_S = 60.0


@dataclass(frozen=True)
class HighsRun:
    """What a solve hands back: the column values (None without an optimum),
    the model status and its name, the pivots of both phases (``nit``), the
    row count of phase 1's program and the pivots of phase 2."""

    x: Optional[np.ndarray]
    status: highs.HighsModelStatus
    message: str
    nit: int
    phase1_rows: int
    phase2_nit: int


def distinct_rows(lp: LinearProgram) -> np.ndarray:
    """Indices, in increasing order, of the rows of ``lp`` that repeat no
    earlier row with its bound.  Each initial or unsafe row depends only on
    its sample's state, so it recurs once per sampled input."""
    rows = np.hstack([lp.a_ub, lp.b_ub[:, None]]) + 0.0  # -0.0 is 0.0, as in HiGHS
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    return np.sort(np.unique(keys, return_index=True)[1])


def _run_highs(
    lp: LinearProgram, rows: np.ndarray, basis: Optional[highs.HighsBasis] = None
) -> Optional[highs._Highs]:
    """One HiGHS run on the rows ``rows`` of ``lp``, handed the matrix as
    scipy's ``csc_array`` (sorted indices, zeros dropped) and the options
    ``linprog`` hands it.  Given a ``basis`` of every row and column, it
    starts from that basis with presolve off.  None when HiGHS refuses the
    model."""
    a = csc_array(lp.a_ub[rows])
    inf = highs.kHighsInf
    solver = highs._Highs()
    for name, value in _HIGHS_OPTIONS:
        solver.setOptionValue(name, value)
    solver.setOptionValue("time_limit", TIME_LIMIT_S)
    if basis is not None:
        solver.setOptionValue("presolve", "off")
    loaded = solver.passModel(
        lp.c.size,
        rows.size,
        a.nnz,
        int(highs.MatrixFormat.kColwise),
        int(highs.ObjSense.kMinimize),
        0.0,
        lp.c,
        np.array([-inf if lo is None else lo for lo, _ in lp.bounds], dtype=float),
        np.array([inf if hi is None else hi for _, hi in lp.bounds], dtype=float),
        np.full(rows.size, -inf),
        lp.b_ub[rows],
        a.indptr.astype(np.int32),
        a.indices.astype(np.int32),
        a.data,
        np.zeros(lp.c.size, dtype=np.int32),  # every column continuous
    )
    del a  # HiGHS holds its own copy
    if loaded == highs.HighsStatus.kError:
        return None
    if basis is not None:
        solver.setBasis(basis)
    solver.run()
    return solver


def _pivots(solver: highs._Highs) -> int:
    info = solver.getInfo()
    return info.simplex_iteration_count or info.ipm_iteration_count


def linprog(lp: LinearProgram) -> HighsRun:
    """Solve ``lp`` with scipy's bundled HiGHS in two phases, each bounded by
    ``TIME_LIMIT_S``; the optimum has the bits of one
    ``scipy.optimize.linprog(method="highs")`` run on the whole program.

    Phase 1 solves, with presolve on, the program made of ``distinct_rows``:
    the rows that HiGHS's presolve keeps of the whole program when it drops
    the repeated ones.  Phase 2 runs only when phase 1 dropped rows:
    it solves the whole program with presolve off, from phase 1's basis with
    each dropped row's slack basic.  That is the step a cold run ends with,
    a solve of the original program from the basis postsolve hands back, so
    phase 2 makes no pivot and returns the cold run's optimum.  A basis that
    is not optimal would only cost pivots, never the optimum.  Phase 1's
    column values differ from it in the last bits and are never returned.

    Only the column values, the model status and the iteration counts are
    read back, never the per-row solution.  It keeps scipy's name, and
    ``solve_lp`` looks it up as a module global, because the traced
    benchmark wraps ``netcert.scp.linprog`` (reading ``.nit``) and tests
    replace it to stage a solver failure."""
    total = lp.a_ub.shape[0]
    kept = distinct_rows(lp)
    # HiGHS would take a NaN coefficient, where scipy's linprog refused it
    solver = _run_highs(lp, kept) if np.isfinite(lp.a_ub).all() else None
    if solver is None:
        status = highs.HighsModelStatus.kModelError
        return HighsRun(None, status, highs._Highs().modelStatusToString(status), 0, 0, 0)
    nit, phase2_nit = _pivots(solver), 0
    if solver.getModelStatus() == highs.HighsModelStatus.kOptimal and kept.size < total:
        found = solver.getBasis()
        del solver  # free phase 1's workspace before phase 2 allocates its own
        row_status = np.full(total, highs.HighsBasisStatus.kBasic, dtype=object)
        row_status[kept] = found.row_status
        basis = highs.HighsBasis()
        basis.col_status = found.col_status
        basis.row_status = row_status.tolist()
        basis.valid = True
        solver = _run_highs(lp, np.arange(total), basis)
        phase2_nit = _pivots(solver)
    status = solver.getModelStatus()
    optimal = status == highs.HighsModelStatus.kOptimal
    return HighsRun(
        x=np.array(solver.getSolution().col_value) if optimal else None,
        status=status,
        message=solver.modelStatusToString(status),
        nit=nit + phase2_nit,
        phase1_rows=kept.size,
        phase2_nit=phase2_nit,
    )


def solve_lp(lp: LinearProgram) -> np.ndarray:
    """Deterministic solve (HiGHS); the fixed row order makes repeated runs
    bit-reproducible.  Returns the optimum, or raises ``ScpSolveError``
    naming HiGHS's model status when there is none."""
    run = linprog(lp)
    if run.status != highs.HighsModelStatus.kOptimal:
        kind = {
            highs.HighsModelStatus.kInfeasible: "infeasible",
            highs.HighsModelStatus.kUnbounded: "unbounded",
        }.get(run.status, "failed")
        raise ScpSolveError(f"scenario program {kind}: {run.message}")
    return run.x


def build_scp(
    cls: SubsystemClass, samples: SampleSet, options: ScpOptions
) -> LinearProgram:
    """Assemble the sampled certificate conditions as an LP.

    Row groups, in fixed order:
      initial   B(x) - sigma <= eta          for samples with x in the initial box
      unsafe   -B(x) + phi   <= eta          for samples with x in the unsafe box
      decrease  B(f(x,d)) - B(x) - supply(d,x) <= eta    for every sample
      supply    supply(d,x) <= beta                       for every sample
      gap       sigma + gap <= phi
    Objective: minimize eta + beta.
    """
    layout = VariableLayout(
        term_count=cls.template.term_count,
        state_dim=cls.state_dim,
        input_dim=cls.input_dim,
    )
    phi_x = cls.template.basis_values(samples.x)
    phi_fx = cls.template.basis_values(samples.fx)
    in_initial = cls.safety.initial.contains(samples.x)
    in_unsafe = cls.safety.unsafe.contains(samples.x)
    if not np.any(in_initial):
        raise CoverageError(
            f"no sampled state lies in the initial box of class {cls.id!r}; "
            "use a denser state grid"
        )
    if not np.any(in_unsafe):
        raise CoverageError(
            f"no sampled state lies in the unsafe box of class {cls.id!r}; "
            "use a denser state grid"
        )

    counts = (int(in_initial.sum()), int(in_unsafe.sum()), samples.count, samples.count, 1)
    groups = [g for g, k in zip(ROW_GROUPS, counts) for _ in range(k)]
    a_ub = np.zeros((len(groups), layout.size))
    b_ub = np.zeros(len(groups))
    initial, unsafe, decrease, supply, gap = np.split(a_ub, np.cumsum(counts)[:-1])
    initial[:, layout.theta] = phi_x[in_initial]
    initial[:, layout.sigma] = -1.0
    initial[:, layout.eta] = -1.0
    unsafe[:, layout.theta] = -phi_x[in_unsafe]
    unsafe[:, layout.phi] = 1.0
    unsafe[:, layout.eta] = -1.0
    supply[:] = layout.supply_rows(samples.d, samples.x)
    decrease[:] = -supply
    decrease[:, layout.theta] = phi_fx - phi_x
    decrease[:, layout.eta] = -1.0
    supply[:, layout.beta] = -1.0
    gap[:, layout.sigma] = 1.0
    gap[:, layout.phi] = -1.0
    b_ub[-1] = -options.gap

    b = options.coeff_bound
    bounds: list[tuple[Optional[float], Optional[float]]] = [(-b, b)] * (layout.size - 2)
    bounds += [(None, None), (None, None)]  # eta, beta are determined by the rows
    c = np.zeros(layout.size)
    c[layout.eta] = 1.0
    c[layout.beta] = 1.0

    return LinearProgram(
        c=c,
        a_ub=a_ub,
        b_ub=b_ub,
        bounds=bounds,
        row_groups=groups,
        layout=layout,
    )


def solve_scp(lp: LinearProgram) -> ScpSolution:
    """Solve a program built by ``build_scp`` and unpack the optimizer."""
    if lp.layout is None:
        raise InvariantError("solve_scp needs a program built by build_scp")
    return lp.layout.unpack(solve_lp(lp))


@dataclass
class ResidualReport:
    """Worst violation per row group, recomputed from the domain evaluators, not the
    matrices, and the slacks the rows need: the largest level or decrease row and supply."""

    max_violation: dict[str, float]
    tolerance: float
    eta: float
    beta: float

    @property
    def passed(self) -> bool:
        return all(v <= self.tolerance for v in self.max_violation.values())

    @property
    def worst_group(self) -> str:
        return max(self.max_violation, key=self.max_violation.get)


def check_solution(
    solution: ScpSolution,
    cls: SubsystemClass,
    samples: SampleSet,
    options: ScpOptions = ScpOptions(),
) -> ResidualReport:
    """Independent re-substitution of every sampled condition through the
    domain evaluators, never through the assembled matrices."""
    bx = eval_template(cls.template, solution.coeffs, samples.x)
    bfx = eval_template(cls.template, solution.coeffs, samples.fx)
    s = eval_supply(solution.supply, samples.d, samples.x)
    in_initial = cls.safety.initial.contains(samples.x)
    in_unsafe = cls.safety.unsafe.contains(samples.x)
    levels = {
        "initial": bx[in_initial] - solution.sigma,
        "unsafe": -bx[in_unsafe] + solution.phi,
        "decrease": bfx - bx - s,
    }
    viol = {g: float(np.max(v - solution.eta, initial=0.0)) for g, v in levels.items()}
    viol["supply"] = float(np.max(s - solution.beta, initial=0.0))
    viol["gap"] = solution.sigma + options.gap - solution.phi
    eta = float(np.max(np.concatenate(list(levels.values()))))
    return ResidualReport(viol, options.feasibility_tol, eta, float(np.max(s)))


def export_lp_text(lp: LinearProgram, path) -> None:
    """Write the program in the plain LP interchange format so external
    solvers can cross-check the optimum."""
    names = lp.layout.names

    def term(coef: float, name: str) -> str:
        sign = "+" if coef >= 0 else "-"
        return f" {sign} {abs(coef):.17g} {name}"

    lines = ["Minimize", " obj:" + "".join(
        term(c, names[j]) for j, c in enumerate(lp.c) if c != 0.0
    ), "Subject To"]
    for i in range(lp.a_ub.shape[0]):
        body = "".join(
            term(v, names[j]) for j, v in enumerate(lp.a_ub[i]) if v != 0.0
        )
        lines.append(f" {lp.row_groups[i]}_{i}:{body} <= {lp.b_ub[i]:.17g}")
    lines.append("Bounds")
    for name, (lo, hi) in zip(names, lp.bounds):
        lo_s = "-inf" if lo is None else f"{lo:.17g}"
        hi_s = "+inf" if hi is None else f"{hi:.17g}"
        lines.append(f" {lo_s} <= {name} <= {hi_s}")
    lines.append("End")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
