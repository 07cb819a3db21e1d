"""Shared domain types: boxes, safety specs, certificate templates, supply rates.

Everything here is immutable after construction and safe to use from
concurrent workers.  Certificate templates are restricted to monomial
bases, which keeps every downstream optimization linear in the
coefficients.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

SYMMETRY_TOL = 1e-12
# Rows of the basis matrix filled, and multiplied by the coefficients, at a
# time.  The 9M-point platoon heatmap in process (2-CPU host, BLAS on one
# thread, sizes alternated within one process) took, for 4,096 / 8,192 /
# 16,384 / 32,768 rows: on two threads 1.94 / 1.77 / 1.98 / 2.90 s CPU and
# 1.19 / 1.05 / 1.13 / 1.72 s wall; on one thread 1.60 / 1.68 / 1.98 / 2.42 s
# CPU.  Fewer, longer sub-blocks make fewer NumPy calls, which two threads
# pay for more than one, until the sub-block's arrays outgrow the cache.
_BASIS_BLOCK = 8192


class DimensionError(ValueError):
    """An input vector or matrix has the wrong shape for the operation."""


class InvariantError(ValueError):
    """A domain type was constructed with inconsistent field values."""


def frozen_array(values, dtype=float, ndim=None) -> np.ndarray:
    """A read-only copy of ``values``; with ``ndim``, of that many dimensions."""
    arr = np.array(values, dtype=dtype)
    if ndim is not None and arr.ndim != ndim:
        raise DimensionError(f"expected a {ndim}-d array, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class IntervalBox:
    """Axis-aligned box  {v : lower <= v <= upper}  in R^dim."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", frozen_array(self.lower, ndim=1))
        object.__setattr__(self, "upper", frozen_array(self.upper, ndim=1))
        if self.lower.size < 1:
            raise InvariantError("box dimension must be >= 1")
        if self.lower.shape != self.upper.shape:
            raise InvariantError("lower/upper dimension mismatch")
        if not np.all(np.isfinite(self.lower)) or not np.all(np.isfinite(self.upper)):
            raise InvariantError("box bounds must be finite")
        if np.any(self.lower > self.upper):
            raise InvariantError("lower[k] <= upper[k] must hold for every coordinate")

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def widths(self) -> np.ndarray:
        return self.upper - self.lower

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean membership per row of ``points`` (shape (N, dim) or (dim,))."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dim:
            raise DimensionError(f"points have dimension {pts.shape[1]}, box has {self.dim}")
        ok = np.all(pts >= self.lower, axis=1) & np.all(pts <= self.upper, axis=1)
        return ok if np.asarray(points).ndim > 1 else bool(ok[0])

    def clamp(self, points: np.ndarray) -> np.ndarray:
        return np.clip(points, self.lower, self.upper)

    def overlaps(self, other: "IntervalBox") -> bool:
        """True iff the two boxes intersect (coordinate-wise interval overlap)."""
        if other.dim != self.dim:
            raise DimensionError("boxes of different dimension cannot overlap")
        return bool(np.all(self.lower <= other.upper) and np.all(other.lower <= self.upper))

    def concat(self, other: "IntervalBox") -> "IntervalBox":
        """The product box, used for joint (state, input) domains."""
        return IntervalBox(
            np.concatenate([self.lower, other.lower]),
            np.concatenate([self.upper, other.upper]),
        )


@dataclass(frozen=True)
class SafetySpec:
    """Initial and unsafe regions of a subsystem.  They must not intersect:
    an initial state inside the unsafe region makes the question vacuous."""

    initial: IntervalBox
    unsafe: IntervalBox

    def __post_init__(self):
        if self.initial.dim != self.unsafe.dim:
            raise InvariantError("initial/unsafe boxes must share a dimension")
        if self.initial.overlaps(self.unsafe):
            raise InvariantError("initial and unsafe boxes must be disjoint")


@dataclass(frozen=True)
class StcTemplate:
    """Monomial basis for a candidate storage certificate.

    ``exponents`` has one row per basis term; row j holds the non-negative
    integer exponent of each state coordinate in term j.  The certificate is
    linear in its coefficient vector for any fixed state.
    """

    state_dim: int
    exponents: np.ndarray

    def __post_init__(self):
        exps = np.array(self.exponents, dtype=int)
        if exps.ndim != 2:
            raise InvariantError("exponents must be a 2-d integer array (terms x state_dim)")
        if exps.shape[0] < 1:
            raise InvariantError("template needs at least one term")
        if exps.shape[1] != self.state_dim:
            raise InvariantError(
                f"every exponent vector must have length {self.state_dim}, got {exps.shape[1]}"
            )
        if np.any(exps < 0):
            raise InvariantError("exponents must be non-negative")
        exps.flags.writeable = False
        object.__setattr__(self, "exponents", exps)

    @property
    def term_count(self) -> int:
        return self.exponents.shape[0]

    @cached_property
    def _plan(self) -> tuple[tuple, tuple]:
        """How ``basis_values`` builds a block, worked out once per template.

        ``powers`` lists the distinct (coordinate, exponent) pairs with
        exponent 2 or more, each with its home: the column of the first term
        that is that power on its own, where it is raised, or None, where it
        is raised into a scratch array.  A block's factors are its coordinate
        columns followed by those powers.  ``terms`` holds, for every term
        that is not some power's home, its column and the indices of its
        factors in that list, one per coordinate with exponent 1 or more, in
        coordinate order.
        """
        exps = self.exponents.tolist()
        factors = [tuple((k, e) for k, e in enumerate(term) if e) for term in exps]
        found = sorted({f for term in factors for f in term if f[1] > 1})
        homes = {}
        for j, term in enumerate(factors):
            if len(term) == 1 and term[0][1] > 1:
                homes.setdefault(term[0], j)
        index = {(k, 1): k for k in range(self.state_dim)}
        index.update({power: self.state_dim + i for i, power in enumerate(found)})
        powers = tuple((k, e, homes.get((k, e))) for k, e in found)
        terms = tuple(
            (j, tuple(index[f] for f in term))
            for j, term in enumerate(factors)
            if j not in homes.values()
        )
        return powers, terms

    def basis_values(self, points: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Evaluate all basis monomials at each row of ``points``.

        Returns an (N, term_count) matrix; column j is the j-th monomial.
        With ``out``, a C-contiguous float array of at least N rows and
        term_count columns, the matrix is its first N rows, and nothing of
        that size is allocated.

        The values are bit-identical to ``np.prod(np.power(base, exps),
        axis=2)`` with the points and exponents both materialised at the
        (N, terms, dim) shape: the same vector ``pow`` per factor (a
        contiguous exponent array as long as the base, never a scalar or
        broadcast one, which NumPy routes to ``square`` and friends that
        round differently), multiplied left to right.  Each distinct power
        of 2 or more is computed once per coordinate instead of once per
        term.  The trivial powers are not computed: ``pow(x, 0)`` is 1 and
        ``pow(x, 1)`` is x for every x, nan, infinities, signed zeros and
        subnormals included, and a factor of 1 leaves a product unchanged.
        So a factor x**1 is the coordinate itself, a factor x**0 is
        dropped, a term with one remaining factor is a copy of it, and a
        term with none is 1.0.  ``x**2`` keeps its ``pow``: it differs from
        ``x * x`` in the last bit for some x.

        Which factors each term takes is planned once per template
        (``_plan``).  A power that is a term on its own is raised straight
        into that term's column, and a product of two or more factors is
        multiplied straight into its column.  Each power and each product is
        rounded once whatever its output's layout, so the bits are those of
        the contiguous ``pow`` and the left-to-right product.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.state_dim:
            raise DimensionError(
                f"points have dimension {pts.shape[1]}, template expects {self.state_dim}"
            )
        n = pts.shape[0]
        if out is None:
            out = np.empty((n, self.term_count))
        elif (
            out.ndim != 2
            or out.shape[0] < n
            or out.shape[1] != self.term_count
            or out.dtype != float
            or not out.flags.c_contiguous
        ):
            raise DimensionError(
                f"basis buffer of shape {out.shape} cannot hold {n} rows of "
                f"{self.term_count} float terms in C order"
            )
        basis = out[:n]
        powers, terms = self._plan
        # a cache-sized block of rows at a time: its factors stay small and
        # the strided column writes stay inside the cache
        for start in range(0, n, _BASIS_BLOCK):
            block = basis[start : start + _BASIS_BLOCK]
            m = block.shape[0]
            rows = pts[start : start + m]
            factors = [np.ascontiguousarray(rows[:, k]) for k in range(self.state_dim)]
            exponents = {e: np.full(m, float(e)) for _, e, _ in powers}
            for k, e, home in powers:
                column = None if home is None else block[:, home]
                factors.append(np.power(factors[k], exponents[e], out=column))
            for j, term in terms:
                if len(term) > 1:
                    column = np.multiply(factors[term[0]], factors[term[1]], out=block[:, j])
                    for i in term[2:]:
                        np.multiply(column, factors[i], out=column)
                else:
                    block[:, j] = factors[term[0]] if term else 1.0
        return basis


def eval_template(
    template: StcTemplate,
    coeffs: np.ndarray,
    points: np.ndarray,
    out: Optional[np.ndarray] = None,
    basis_out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Certificate value sum_j coeffs[j] * prod_k x[k]**e[j,k] at each row of
    ``points``; one value per row.  ``coeffs`` is 1-d, one entry per term.

    The basis is built and multiplied by ``coeffs`` one sub-block of
    ``_BASIS_BLOCK`` (8,192) rows at a time, so each sub-block's basis (960
    KiB for 15 terms) is still in the cache for its gemv and the (N, terms)
    matrix never exists.  The values equal ``basis_values(points) @ coeffs``
    in one call bit for bit on one BLAS thread.  OpenBLAS's gemv rounds
    every row in a full 4-row group the same way, whatever the call, and the
    last N % 4 rows of a call in its tail rounding.  Every sub-block starts
    at a multiple of 4, so its full groups are the one call's, and the last
    sub-block holds the one call's tail.  A last sub-block of fewer than 4
    rows joins the one before it: NumPy computes a 1-row product as a dot
    product, which does not round like the tail of a longer gemv.

    A caller that evaluates many batches can pass its own workspaces:
    ``out``, a contiguous float array of N values, receives the values and
    is returned, and ``basis_out`` holds each sub-block's basis (C-contiguous
    floats, at least min(N, ``_BASIS_BLOCK`` + 3) rows by term_count).  The
    values are the same with or without them.
    """
    if np.shape(coeffs) != (template.term_count,):
        raise DimensionError(
            f"coefficient vector has shape {np.shape(coeffs)}, template has "
            f"{template.term_count} terms"
        )
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[0]
    if out is None:
        out = np.empty(n)
    elif out.shape != (n,) or out.dtype != float or not out.flags.c_contiguous:
        raise DimensionError(f"value buffer of shape {out.shape} cannot hold {n} float values")
    starts = list(range(0, n, _BASIS_BLOCK)) or [0]
    if len(starts) > 1 and n - starts[-1] < 4:
        starts.pop()
    for start, stop in zip(starts, starts[1:] + [n]):
        basis = template.basis_values(pts[start:stop], out=basis_out)
        np.matmul(basis, coeffs, out=out[start:stop])
    return out


def _check_symmetric(name: str, m: np.ndarray):
    if m.shape[0] != m.shape[1]:
        raise InvariantError(f"{name} must be square")
    if m.size and np.max(np.abs(m - m.T)) > SYMMETRY_TOL:
        raise InvariantError(f"{name} must be symmetric within {SYMMETRY_TOL}")


@dataclass(frozen=True)
class SupplyRate:
    """Quadratic form  [d; x]^T [[s11, s12], [s12^T, s22]] [d; x].

    Only the three independent blocks are stored; the lower-left block is
    always the transpose of ``s12``.
    """

    s11: np.ndarray
    s12: np.ndarray
    s22: np.ndarray

    def __post_init__(self):
        for name in ("s11", "s12", "s22"):
            rows = getattr(self, name)
            lengths = [np.size(row) for row in rows] if isinstance(rows, (list, tuple)) else []
            if len(set(lengths)) > 1:
                raise InvariantError(f"{name} rows differ in length: {lengths}")
            object.__setattr__(self, name, frozen_array(np.atleast_2d(rows)))
        _check_symmetric("s11", self.s11)
        _check_symmetric("s22", self.s22)
        if self.s12.shape != (self.input_dim, self.state_dim):
            raise InvariantError(
                f"s12 must be {self.input_dim}x{self.state_dim}, got {self.s12.shape}"
            )

    @property
    def input_dim(self) -> int:
        return self.s11.shape[0]

    @property
    def state_dim(self) -> int:
        return self.s22.shape[0]


def rowwise_bilinear(a: np.ndarray, m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_n^T m b_n for each row n of ``a`` and ``b``.

    The terms ``a[:, i] * m[i, j] * b[:, j]`` are added to zero one at a
    time, i-major then j, with elementwise operations only.  So each row's
    value depends on that row alone (the value of a row subset is that
    subset of the value), and on 3 or more rows it equals
    ``np.einsum("ni,ij,nj->n", a, m, b)`` bit for bit.
    """
    out = np.zeros(a.shape[0])
    for i in range(m.shape[0]):
        for j in range(m.shape[1]):
            term = a[:, i] * m[i, j]
            term *= b[:, j]
            out += term
    return out


def supply_sum(quad_d: np.ndarray, cross: np.ndarray, quad_x: np.ndarray) -> np.ndarray:
    """The supply rate from its parts d^T s11 d, d^T s12 x and x^T s22 x."""
    return quad_d + 2.0 * cross + quad_x


def eval_supply(rate: SupplyRate, d: np.ndarray, x: np.ndarray) -> np.ndarray:
    """d^T s11 d + 2 d^T s12 x + x^T s22 x at each matching row of ``d`` and
    ``x``; one value per row, computed from that row alone."""
    dm = np.atleast_2d(np.asarray(d, dtype=float))
    xm = np.atleast_2d(np.asarray(x, dtype=float))
    if dm.shape[1] != rate.input_dim or xm.shape[1] != rate.state_dim:
        raise DimensionError("batch dimensions do not match the supply rate blocks")
    return supply_sum(
        rowwise_bilinear(dm, rate.s11, dm),
        rowwise_bilinear(dm, rate.s12, xm),
        rowwise_bilinear(xm, rate.s22, xm),
    )


@dataclass(frozen=True)
class TransitionOracle:
    """Deterministic black-box transition handle.

    ``step_batch`` maps (N, n) states and (N, m) inputs to the (N, n) next
    states, row by row.  The pipeline treats it as opaque: it only ever
    queries next states, never inspects how they are computed.
    """

    step_batch: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def batch(self, x: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Next states for the rows of (x, d)."""
        x = np.atleast_2d(np.asarray(x, float))
        d = np.atleast_2d(np.asarray(d, float))
        return np.asarray(self.step_batch(x, d), float)


@dataclass(frozen=True)
class SubsystemClass:
    """One class of identical subsystems: domain boxes, safety spec,
    certificate template, and the black-box transition handle."""

    id: str
    state_dim: int
    input_dim: int
    state_box: IntervalBox
    input_box: IntervalBox
    safety: SafetySpec
    template: StcTemplate
    oracle: Optional[TransitionOracle] = None

    def __post_init__(self):
        if self.state_box.dim != self.state_dim:
            raise InvariantError("state box dimension mismatch")
        if self.input_box.dim != self.input_dim:
            raise InvariantError("input box dimension mismatch")
        if self.safety.initial.dim != self.state_dim:
            raise InvariantError("safety spec dimension mismatch")
        if self.template.state_dim != self.state_dim:
            raise InvariantError("template dimension mismatch")
        for name, box in (("initial", self.safety.initial), ("unsafe", self.safety.unsafe)):
            inside = np.all(box.lower >= self.state_box.lower - 1e-12) and np.all(
                box.upper <= self.state_box.upper + 1e-12
            )
            if not inside:
                raise InvariantError(f"{name} box must be contained in the state box")

    @property
    def joint_box(self) -> IntervalBox:
        """The (state, input) product domain the certificate is trained on."""
        return self.state_box.concat(self.input_box)
