"""Scenario program assembly and solution.

The sampled storage-certificate conditions form a linear program in the
decision vector (coefficients, level values, supply blocks, slack pair
(eta, beta)).  The constraint system is positively homogeneous, so every
decision variable except the slacks carries a box bound; without it any
strictly negative objective direction could be scaled without limit.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .core import (
    InvariantError,
    SubsystemClass,
    SupplyRate,
    eval_supply,
    eval_template,
    frozen_array,
)
from .sampling import CoverageError, SampleSet

def load_scipy_extension(name: str):
    """scipy's compiled module ``name`` (dotted, under ``scipy``), loaded
    from its file, which is found without running any scipy code, so that
    the ``__init__`` of the packages above it never runs: for
    ``scipy.optimize`` that would pull in scipy's whole optimizer stack.
    The module is registered under its own name, so a later import of it,
    or of a package that imports it, takes this object: a pybind11 module
    cannot load twice.  Without the file, the plain import."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec("scipy")
    for root in spec.submodule_search_locations if spec else ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, *name.split(".")[1:]) + suffix
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(name, path)
                module = importlib.util.module_from_spec(
                    importlib.util.spec_from_file_location(name, path, loader=loader)
                )
                sys.modules[name] = module
                loader.exec_module(module)
                return module
    return importlib.import_module(name)


highs = load_scipy_extension("scipy.optimize._highspy._core")


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

    def zero_rows(self, count: int) -> np.ndarray:
        """``count`` zero rows of the program, each column contiguous."""
        return np.zeros((self.size, count)).T

    @cached_property
    def _supply_operands(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per stored supply entry, its operand pair in z = [d, x] and its
        factor: an off-diagonal entry appears twice in the quadratic form."""
        p = self.input_dim
        offsets = {"s11": (0, 0), "s12": (0, p), "s22": (p, p)}
        pairs = [(offsets[b][0] + i, offsets[b][1] + j) for b, i, j in self.supply_entries]
        left, right = np.array(pairs).T
        return left, right, np.where(left == right, 1.0, 2.0)

    def supply_rows(self, d: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Coefficients of the supply value d'S11 d + 2 d'S12 x + x'S22 x as a
        linear function of the stored block entries, one (size,) row per
        matching row of ``d`` and ``x`` (``zero_rows`` elsewhere)."""
        z = np.vstack([d.T, x.T])  # one row per operand
        rows = self.zero_rows(z.shape[1])
        operands = zip(*self._supply_operands)
        for column, (left, right, factor) in enumerate(operands, self.supply.start):
            np.multiply(factor * z[left], z[right], out=rows[:, column])
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


@dataclass(frozen=True)
class RowGroup:
    """The rows ``name`` of a program, one per key, in increasing key order.
    ``rows(keys)`` gives the dense rows of the given keys, one (columns,)
    row each, and their upper bounds; a row is a function of its key alone.
    ``keys`` gives every key (0, ..., count - 1 when it is None), and
    ``kept`` the keys of the rows in the HiGHS model (every row when it is
    None)."""

    name: str
    count: int
    rows: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    keys: Optional[Callable[[], np.ndarray]] = None
    kept: Optional[np.ndarray] = None

    def all_keys(self) -> np.ndarray:
        return np.arange(self.count) if self.keys is None else self.keys()

    def model_keys(self) -> np.ndarray:
        return self.all_keys() if self.kept is None else self.kept


# Dense rows that the column builder holds at a time, whatever the program's size.
_ROW_CHUNK = 4096


@dataclass
class LinearProgram:
    """min c'v  subject to  a_ub @ v <= b_ub  and  bounds[:, 0] <= v <= bounds[:, 1]
    (-inf or +inf where a column is free), its rows given group by group, in
    row order.  No matrix is stored: ``linprog`` builds the compressed
    columns of the groups' kept rows (``model_columns``), and ``a_ub`` and
    ``b_ub`` are built from the same rows on each read."""

    c: np.ndarray
    bounds: np.ndarray
    groups: list[RowGroup]
    layout: Optional[VariableLayout] = None

    @property
    def row_groups(self) -> list[tuple[str, int]]:
        return [(g.name, g.count) for g in self.groups]

    @property
    def rows(self) -> int:
        return sum(g.count for g in self.groups)

    @property
    def kept(self) -> np.ndarray:
        """The rows of the HiGHS model, as increasing row indices."""
        parts, offset = [], 0
        for g in self.groups:
            rows = np.arange(g.count) if g.kept is None else np.searchsorted(g.all_keys(), g.kept)
            parts.append(offset + rows)
            offset += g.count
        return np.concatenate(parts)

    @property
    def a_ub(self) -> np.ndarray:
        return np.ascontiguousarray(np.vstack([g.rows(g.all_keys())[0] for g in self.groups]))

    @property
    def b_ub(self) -> np.ndarray:
        return np.concatenate([g.rows(g.all_keys())[1] for g in self.groups])

    def model_blocks(self):
        """The HiGHS model's rows, in row order, as (dense rows, upper
        bounds) blocks of at most ``_ROW_CHUNK`` rows."""
        for g in self.groups:
            keys = g.model_keys()
            for start in range(0, keys.size, _ROW_CHUNK):
                yield g.rows(keys[start : start + _ROW_CHUNK])

    @cached_property
    def column_counts(self) -> np.ndarray:
        """The nonzeros of each column of the HiGHS model."""
        counts = np.zeros(self.c.size, dtype=np.int64)
        for block, _ in self.model_blocks():
            counts += np.count_nonzero(block, axis=0)
        return counts


def model_columns(lp: LinearProgram) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The compressed-column arrays (indptr, indices, data) of the HiGHS
    model's matrix, those scipy's ``csc_array(lp.a_ub[lp.kept])`` holds:
    each column's row indices in increasing order, zeros (-0.0 among them)
    dropped.  Then the model rows' upper bounds.

    The rows are built twice, a block at a time: once to count each
    column's nonzeros (``lp.column_counts``), once to copy them into their
    columns.  So beside the arrays only one block of dense rows exists, and
    ``scipy.sparse`` is never imported."""
    indptr = np.zeros(lp.c.size + 1, dtype=np.int32)
    np.cumsum(lp.column_counts, out=indptr[1:])
    nonzeros = int(indptr[-1])
    rows = sum(g.count if g.kept is None else g.kept.size for g in lp.groups)
    # data, upper bounds and indices share one allocation, freed at once after
    # passModel.  It is larger than any copy HiGHS makes of the matrix, and
    # glibc's malloc raises its mmap threshold to the size of a larger mapped
    # block when it is freed, so HiGHS's copies then come from the heap, not
    # from fresh mappings that fault in every page (room-x8: 14,000 fewer
    # page faults in the first run, 0.03-0.05 s).
    memory = np.empty(12 * nonzeros + 8 * rows, dtype=np.uint8)
    data = memory[: 8 * nonzeros].view(np.float64)
    upper = memory[8 * nonzeros : 8 * (nonzeros + rows)].view(np.float64)
    indices = memory[8 * (nonzeros + rows) :].view(np.int32)
    fill = indptr[:-1].copy()  # where each column's next nonzero goes
    row = 0
    for block, bound in lp.model_blocks():
        for j, column in enumerate(block.T):
            nonzero = np.flatnonzero(column)
            end = fill[j] + nonzero.size
            data[fill[j] : end] = column[nonzero]
            indices[fill[j] : end] = row + nonzero
            fill[j] = end
        upper[row : row + bound.size] = bound
        row += bound.size
        del block, column  # before the next block is built
    return indptr, indices, data, upper


class ScpSolveError(RuntimeError):
    """HiGHS ended without an optimum.  A program that ``build_scp`` built
    from valid ``ScpOptions`` is feasible and bounded, so for it this is a
    solver failure (a time limit, numerical trouble)."""


# The options scipy's linprog(method="highs") passes to HiGHS, with both
# tolerances tighter than the downstream residual tolerance of 1e-8, but
# presolve off: it reduces none of the kept rows of a room or platoon grid,
# so there it only costs time (see ``linprog``).
_HIGHS_OPTIONS = (
    ("presolve", "off"),
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
    the model status and a message naming it, the pivots of both runs
    (``nit``) and the pivots of the second run."""

    x: Optional[np.ndarray]
    status: highs.HighsModelStatus
    message: str
    nit: int
    phase2_nit: int


def _load_model(solver: highs._Highs, lp: LinearProgram) -> bool:
    """Load the kept rows of ``lp`` into ``solver``, the matrix in the
    arrays scipy's ``linprog`` would hand HiGHS.  False, and no model loaded,
    when a coefficient is not finite: HiGHS would take a NaN, where scipy's
    linprog refused it.  The arrays are freed on return, once HiGHS has
    copied them."""
    indptr, indices, data, upper = model_columns(lp)
    if not np.isfinite(data).all():
        return False
    status = solver.passModel(
        lp.c.size,
        upper.size,
        data.size,
        int(highs.MatrixFormat.kColwise),
        int(highs.ObjSense.kMinimize),
        0.0,
        lp.c,
        *np.ascontiguousarray(lp.bounds.T),  # the columns' lower, then upper bounds
        np.full(upper.size, -highs.kHighsInf),
        upper,
        indptr,
        indices,
        data,
        np.zeros(lp.c.size, dtype=np.int32),  # every column continuous
    )
    return status != highs.HighsStatus.kError


def _pivots(solver: highs._Highs) -> int:
    """The pivots of the last run; HiGHS counts -1 after an error."""
    info = solver.getInfo()
    return max(info.simplex_iteration_count, info.ipm_iteration_count, 0)


def linprog(lp: LinearProgram) -> HighsRun:
    """Solve ``lp`` with scipy's bundled HiGHS on one model of the rows
    ``lp.kept``, with the options scipy's linprog hands HiGHS but presolve
    off, and each run bounded by ``TIME_LIMIT_S``.

    HiGHS solves a model that its presolve cannot reduce through the same
    call it makes with presolve off, and presolve reduces none of the kept
    rows of a room or platoon grid.  There the optimum has the bits of one
    ``scipy.optimize.linprog(method="highs")`` run on the whole program.
    Where presolve would reduce the model (it drops singleton rows and
    columns of some grids), scipy's optimum may sit at another vertex of the
    same optimal face: the objective and the certificate coefficients keep
    its bits, the level values or a supply entry may move.

    The first run solves the model.  When ``build_scp`` dropped rows, a
    second run follows from the model's own basis, handed back so that
    HiGHS solves again instead of reporting its last result.  A cold run on
    the whole program ends the same way: its presolve drops the repeated
    level rows, and it solves the original program from the basis postsolve
    hands back, in which each dropped row's slack is basic.  So the second
    run makes no pivot and returns the cold run's optimum; a basis that is
    not optimal would only cost pivots, never the optimum.  The first run's
    column values differ from it in the last bits and are never returned.
    A program with no dropped row gets no second run, which would change the
    cold run's bits on some grids.

    Only the column values, the model status and the iteration counts are
    read back, never the per-row solution.  It keeps scipy's name, and
    ``solve_lp`` looks it up as a module global, because the traced
    benchmark wraps ``netcert.scp.linprog`` (reading ``.nit``) and tests
    replace it to stage a solver failure."""
    solver = highs._Highs()
    for name, value in _HIGHS_OPTIONS:
        solver.setOptionValue(name, value)
    solver.setOptionValue("time_limit", TIME_LIMIT_S)
    if not _load_model(solver, lp):
        status = highs.HighsModelStatus.kModelError
        return HighsRun(None, status, solver.modelStatusToString(status), 0, 0)
    ran = solver.run()
    nit, phase2_nit = _pivots(solver), 0
    status = solver.getModelStatus()
    if status == highs.HighsModelStatus.kOptimal and solver.getNumRow() < lp.rows:
        solver.setBasis(solver.getBasis())
        ran = solver.run()
        phase2_nit = _pivots(solver)
        status = solver.getModelStatus()
    message = solver.modelStatusToString(status)
    if ran == highs.HighsStatus.kError:
        message = f"HiGHS error (model status {message})"
    optimal = status == highs.HighsModelStatus.kOptimal
    return HighsRun(
        x=np.array(solver.getSolution().col_value) if optimal else None,
        status=status,
        message=message,
        nit=nit + phase2_nit,
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
    basis = cls.template.basis_values

    def level_group(name: str, box, level: int, sign: float) -> RowGroup:
        """One row per sample in ``box``, keyed by the sample's index.  A
        level row depends only on its state's basis, so it recurs once per
        sampled input: the model keeps its first occurrence."""

        def rows(keys):
            a = layout.zero_rows(keys.size)
            phi = basis(samples.x[keys])
            a[:, layout.theta] = phi if sign > 0 else -phi
            a[:, level] = -sign
            a[:, layout.eta] = -1.0
            return a, np.zeros(keys.size)

        def keys():
            return np.flatnonzero(box.contains(samples.x))

        members = keys()
        if not members.size:
            raise CoverageError(
                f"no sampled state lies in the {name} box of class {cls.id!r}; "
                "use a denser state grid"
            )
        first = np.unique(basis(samples.x[members]), axis=0, return_index=True)[1]
        return RowGroup(name, members.size, rows, keys, members[np.sort(first)])

    def decrease(keys):
        x = samples.x[keys]
        a = layout.supply_rows(samples.d[keys], x)
        np.negative(a, out=a)
        np.subtract(basis(samples.fx[keys]), basis(x), out=a[:, layout.theta])
        a[:, layout.eta] = -1.0
        return a, np.zeros(keys.size)

    def supply(keys):
        a = layout.supply_rows(samples.d[keys], samples.x[keys])
        a[:, layout.beta] = -1.0
        return a, np.zeros(keys.size)

    def gap(keys):
        a = layout.zero_rows(keys.size)
        a[:, layout.sigma] = 1.0
        a[:, layout.phi] = -1.0
        return a, np.full(keys.size, -options.gap)

    groups = [
        level_group("initial", cls.safety.initial, layout.sigma, 1.0),
        level_group("unsafe", cls.safety.unsafe, layout.phi, -1.0),
        RowGroup("decrease", samples.count, decrease),
        RowGroup("supply", samples.count, supply),
        RowGroup("gap", 1, gap),
    ]
    bounds = np.full((layout.size, 2), (-options.coeff_bound, options.coeff_bound))
    bounds[[layout.eta, layout.beta]] = (-np.inf, np.inf)  # determined by the rows
    c = np.zeros(layout.size)
    c[[layout.eta, layout.beta]] = 1.0
    return LinearProgram(c=c, bounds=bounds, groups=groups, layout=layout)


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
    groups = (group for group, count in lp.row_groups for _ in range(count))
    for i, (group, row, bound) in enumerate(zip(groups, lp.a_ub, lp.b_ub)):
        body = "".join(term(v, names[j]) for j, v in enumerate(row) if v != 0.0)
        lines.append(f" {group}_{i}:{body} <= {bound:.17g}")
    lines.append("Bounds")
    for name, (lo, hi) in zip(names, lp.bounds):
        hi_s = "+inf" if hi == np.inf else f"{hi:.17g}"  # the format signs infinity
        lines.append(f" {lo:.17g} <= {name} <= {hi_s}")
    lines.append("End")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
