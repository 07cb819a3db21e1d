"""Lipschitz constant estimation from finite slope samples.

Batches of difference quotients are drawn over a box; each batch maximum is
one observation of the slope extreme, and a three-parameter reverse Weibull
distribution fitted to those maxima has a finite upper endpoint (its
location parameter) that estimates the true constant.  Estimates converge
to the exact constant only in the limit of vanishing pair distance and
unbounded batch counts, so any finite configuration can undershoot; callers
record the configuration alongside the estimate to keep that auditable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .core import (
    IntervalBox,
    InvariantError,
    SubsystemClass,
    eval_template,
)
from .sampling import DataFaultError, SampleSet
from .scp import ScpSolution, load_scipy_extension

# target(points) -> values for a batch of points, one row per point
BatchTarget = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class LipschitzConfig:
    """gamma: pair-distance cap; inner_count/outer_count: slopes per batch
    and number of batches; seed (>= 0): drives pseudo-random pair placement."""

    gamma: float
    inner_count: int
    outer_count: int
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.gamma < np.inf:
            raise InvariantError(f"gamma must be positive and finite, got {self.gamma!r}")
        if self.inner_count < 2 or self.outer_count < 2:
            raise InvariantError("inner_count and outer_count must be >= 2 for a usable fit")
        if self.seed < 0:
            raise InvariantError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class LipschitzEstimate:
    value: float
    max_slope_samples: tuple[float, ...]
    fit: Optional[tuple[float, float, float]]  # (location, scale, shape)
    fallback_used: bool

    def __post_init__(self):
        if self.max_slope_samples and self.value < max(self.max_slope_samples) - 1e-9:
            raise InvariantError("estimate must dominate every observed batch maximum")


def _draw_pairs(
    box: IntervalBox, count: int, gamma: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Base points uniform in the box; partners at distance <= gamma, clipped
    back into the box (clipping is a projection, so the cap survives it).
    Partners that collapse onto their base are redrawn."""
    dim = box.dim
    base = rng.uniform(box.lower, box.upper, size=(count, dim))
    partners = np.empty_like(base)
    pending = np.arange(count)
    for _ in range(100):
        k = pending.size
        if k == 0:
            break
        direction = rng.normal(size=(k, dim))
        norms = np.linalg.norm(direction, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        radius = rng.uniform(0.0, gamma, size=(k, 1))
        candidate = box.clamp(base[pending] + direction / norms * radius)
        partners[pending] = candidate
        dist = np.linalg.norm(candidate - base[pending], axis=1)
        pending = pending[dist <= 1e-300]
    if pending.size:
        raise InvariantError("could not place distinct partner points; box may be degenerate")
    return base, partners


def slope_batch(
    target: BatchTarget, box: IntervalBox, config: LipschitzConfig, rng: np.random.Generator
) -> np.ndarray:
    """One batch of |target(p) - target(p_hat)| / ||p - p_hat|| quotients."""
    if np.all(box.widths == 0):
        raise InvariantError("slope sampling needs a box with positive volume")
    base, partners = _draw_pairs(box, config.inner_count, config.gamma, rng)
    with np.errstate(all="ignore"):  # a non-finite slope is reported below
        fb = np.asarray(target(base), float).reshape(-1)
        fp = np.asarray(target(partners), float).reshape(-1)
        slopes = np.abs(fb - fp) / np.linalg.norm(base - partners, axis=1)
    return _finite_slopes(slopes, base, partners)


def _finite_slopes(slopes: np.ndarray, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """``slopes`` between the rows of ``first`` and ``second``; a non-finite
    one is a DataFaultError naming its pair instead of a NaN slope constant."""
    bad = ~np.isfinite(slopes)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise DataFaultError(
            f"non-finite slope between {first[i].tolist()} and {second[i].tolist()}"
        )
    return slopes


def _weibull_max_logpdf(
    x: np.ndarray, loc: float, scale: float, shape: float
) -> Optional[np.ndarray]:
    """``scipy.stats.weibull_max.logpdf(x, shape, loc=loc, scale=scale)``,
    bit for bit, or None where scipy would return -inf or nan somewhere: a
    parameter that is not positive or a point outside the support
    ``(x - loc) / scale <= 0``.

    The operations are scipy's own (``rv_continuous.logpdf`` -> ``argsreduce``
    -> ``weibull_max_gen._logpdf``), because the fit amplifies last-bit
    changes: the parameters are broadcast to contiguous full-length arrays
    (a scalar exponent takes NumPy's ``square``/``sqrt`` fast paths in
    ``pow``, which round differently).  ``scipy.special.xlogy(c - 1, -y)``
    is written out with ``math.log``, which calls the C library's ``log``
    as ``xlogy`` does; ``np.log``'s vectorised kernel rounds some values
    differently.
    """
    y = np.asarray((x - loc) / scale, dtype=float)
    if not (shape > 0 and scale > 0 and np.all(y <= 0)):
        return None
    c = np.full(y.size, shape)
    if shape == 1:
        xlogy = np.zeros(y.size)
    else:
        xlogy = (c - 1) * np.array([math.log(v) if v else -math.inf for v in (-y).tolist()])
    return np.log(c) + xlogy - pow(-y, c) - np.log(np.full(y.size, scale))


def _reverse_weibull_nll(params: np.ndarray, maxima: np.ndarray) -> float:
    """Negative log-likelihood of (location, scale, shape), with a 1e30
    penalty wall wherever a density value is not finite."""
    loc, scale, shape = params
    with np.errstate(all="ignore"):
        ll = _weibull_max_logpdf(maxima, loc, scale, shape)
    if ll is None or not np.all(np.isfinite(ll)):
        return 1e30
    return -float(np.sum(ll))


class MinimizeResult(NamedTuple):
    """What the fit reads of an L-BFGS-B run, named as on scipy's
    ``OptimizeResult``: the last point and its value, the objective
    evaluations (gradient steps included) and the iterations, and whether
    the run converged.  A named tuple: as a dataclass, the class alone
    took about 0.6 ms of every run's import."""

    x: np.ndarray
    fun: float
    nfev: int
    nit: int
    success: bool


def minimize(fun, x0, args, bounds) -> MinimizeResult:
    """``scipy.optimize.minimize(fun, x0, args, method="L-BFGS-B",
    bounds=bounds)``, bit for bit, on scipy's compiled L-BFGS-B (``setulb``),
    which is loaded from its file at the first fit, so that
    ``scipy.optimize``, with ``scipy.sparse``, ``scipy.linalg`` and
    ``scipy.special``, is never imported.  The loop is that of scipy
    1.17.1's ``_minimize_lbfgsb`` with its default options; the gradient is
    its ``approx_derivative`` forward difference ('2-point', absolute step
    1e-8), turned inward at the bounds, and a request at the last evaluated
    point reuses its value and gradient, as ``ScalarFunction`` does, so
    ``nfev`` counts as scipy's.  Every bound must be finite with lower <
    upper: scipy drops a variable whose bounds are equal, which this does
    not.  A module global that ``_fit_reverse_weibull`` looks up, so that
    the traced benchmark can wrap ``netcert.lipschitz.minimize``."""
    setulb = load_scipy_extension("scipy.optimize._lbfgsb").setulb
    lower, upper = (np.array(side, dtype=float) for side in zip(*bounds))
    if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper)) and np.all(lower < upper)):
        raise ValueError(f"L-BFGS-B needs finite bounds with lower < upper, got {bounds!r}")
    n = lower.size
    nfev = 0
    last = None  # (x, f, g) at the last evaluated point

    def value(x: np.ndarray) -> float:
        nonlocal nfev
        nfev += 1
        return float(fun(x.copy(), *args))

    def value_and_gradient(x: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal last
        if last is not None and np.array_equal(x, last[0]):
            return last[1], last[2]
        f0 = value(x)
        h = np.full(n, 1e-8)
        sign = np.where(x >= 0, 1.0, -1.0)
        relative = np.finfo(float).eps ** 0.5 * sign * np.maximum(1.0, np.abs(x))
        h = np.where((x + h) - x == 0, relative, h)
        below, above = x - lower, upper - x
        fitting = np.abs(h) <= np.maximum(below, above)
        h = np.where(((x + h < lower) | (x + h > upper)) & fitting, -h, h)
        h = np.where(fitting, h, np.where(above >= below, above, -below))
        g = np.empty(n)
        for i in range(n):
            step = x.copy()
            step[i] = x[i] + h[i]
            g[i] = (value(step) - f0) / ((x[i] + h[i]) - x[i])
        last = (x.copy(), f0, g)  # setulb writes into x, and into a copy of g
        return f0, g

    m, maxiter, maxfun = 10, 15000, 15000
    factr, pgtol, maxls = 2.220446049250313e-09 / np.finfo(float).eps, 1e-5, 20
    x = np.clip(np.asarray(x0, dtype=float), lower, upper)
    f, g = 0.0, np.zeros(n)
    nbd = np.full(n, 2, np.int32)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task, ln_task = np.zeros(2, np.int32), np.zeros(2, np.int32)
    lsave, isave, dsave = np.zeros(4, np.int32), np.zeros(44, np.int32), np.zeros(29)
    nit = 0
    while True:
        g = g.astype(np.float64)  # setulb writes into x and g
        setulb(
            m, x, lower, upper, nbd, f, g, factr, pgtol, wa, iwa, task, lsave, isave, dsave,
            maxls, ln_task,
        )
        if task[0] == 3:  # FG: f and g at the current x
            f, g = value_and_gradient(x)
        elif task[0] == 1:  # NEW_X: an iteration ended
            nit += 1
            if nit >= maxiter:
                task[:] = 5, 504
            elif nfev > maxfun:
                task[:] = 5, 502
        else:
            break
    return MinimizeResult(x=x, fun=f, nfev=nfev, nit=nit, success=bool(task[0] == 4))


def _fit_reverse_weibull(maxima: np.ndarray) -> Optional[tuple[float, float, float]]:
    """Maximum-likelihood (location, scale, shape) with the location bounded
    below by the sample maximum, so the fitted endpoint dominates the data.
    Returns None when the optimization fails, or when the maxima spread so
    little that the location's lower bound passes its upper bound."""
    top = float(np.max(maxima))
    span = float(np.max(maxima) - np.min(maxima))
    spacing = span / maxima.size
    scale0 = max(float(np.std(maxima)), 1e-12)
    bounds = [
        (top + 1e-12 + 1e-9 * max(1.0, abs(top)), top + 10.0 * max(span, scale0)),
        (1e-12, 100.0 * max(span, scale0)),
        (0.05, 50.0),
    ]
    if not all(low < high for low, high in bounds):
        return None

    best = None
    with np.errstate(all="ignore"):  # the penalty wall makes numdiff noisy
        for shape0 in (0.8, 1.5, 3.0):
            res = minimize(
                _reverse_weibull_nll,
                x0=np.array([top + spacing, scale0, shape0]),
                args=(maxima,),
                bounds=bounds,
            )
            if res.success and np.isfinite(res.fun):
                if best is None or res.fun < best.fun:
                    best = res
    if best is None:
        return None
    loc, scale, shape = (float(v) for v in best.x)
    return loc, scale, shape


def estimate_lipschitz(
    target: BatchTarget, box: IntervalBox, config: LipschitzConfig
) -> LipschitzEstimate:
    """Run the batched slope maxima and extract the fitted upper endpoint."""
    rng = np.random.default_rng(config.seed)
    maxima = np.array(
        [float(np.max(slope_batch(target, box, config, rng))) for _ in range(config.outer_count)]
    )
    return _estimate_from_maxima(maxima)


def _estimate_from_maxima(maxima: np.ndarray) -> LipschitzEstimate:
    """Fitted upper endpoint of the batch maxima.

    Degenerate maxima (zero variance, e.g. affine targets) and failed fits
    fall back to the plain maximum, which is still a valid lower estimate.
    """
    top = float(np.max(maxima))
    fit = None if float(np.var(maxima)) < 1e-12 else _fit_reverse_weibull(maxima)
    if fit is None or not np.isfinite(fit[0]) or fit[0] < top:
        return LipschitzEstimate(
            value=top, max_slope_samples=tuple(maxima), fit=None, fallback_used=True
        )
    return LipschitzEstimate(
        value=float(fit[0]), max_slope_samples=tuple(maxima), fit=fit, fallback_used=False
    )


def certificate_target(cls: SubsystemClass, solution: ScpSolution) -> BatchTarget:
    """x -> B*(x) over the state box."""

    def target(points: np.ndarray) -> np.ndarray:
        return eval_template(cls.template, solution.coeffs, points)

    return target


def decrease_target(cls: SubsystemClass, solution: ScpSolution) -> BatchTarget:
    """(x, d) -> B*(f(x, d)) - B*(x) over the joint box."""
    if cls.oracle is None:
        raise InvariantError(f"class {cls.id!r} has no oracle for the decrease map")
    n = cls.state_dim

    def target(points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        x, d = pts[:, :n], pts[:, n:]
        fx = cls.oracle.batch(x, d)
        return eval_template(cls.template, solution.coeffs, fx) - eval_template(
            cls.template, solution.coeffs, x
        )

    return target


def estimate_for_class(
    cls: SubsystemClass,
    solution: ScpSolution,
    config: LipschitzConfig,
    samples: Optional[SampleSet] = None,
) -> tuple[LipschitzEstimate, LipschitzEstimate]:
    """(L1, L2): slopes of the certificate over X and of the one-step
    decrease map over X x D.  A class without an oracle takes L2 from the
    quotients between its recorded transitions ``samples``."""
    b = certificate_target(cls, solution)
    l1 = estimate_lipschitz(b, cls.state_box, config)
    if cls.oracle is None and samples is not None:
        return l1, estimate_from_pairs(samples.joint, b(samples.fx) - b(samples.x), config)
    return l1, estimate_lipschitz(decrease_target(cls, solution), cls.joint_box, config)


def estimate_from_pairs(
    joint_points: np.ndarray,
    values: np.ndarray,
    config: LipschitzConfig,
) -> LipschitzEstimate:
    """Slope maxima from recorded evaluations only (no oracle): every pair of
    recorded points within ``gamma`` of each other contributes a quotient.

    Used for classes whose transitions come from a data file, where the
    decrease map can only be evaluated at the recorded points.  Fewer than
    ``outer_count`` such pairs of distinct points is a DataFaultError that
    gives the smallest distance between distinct points.
    """
    pts = np.atleast_2d(np.asarray(joint_points, float))
    vals = np.asarray(values, float).reshape(-1)
    if pts.shape[0] != vals.size:
        raise InvariantError("points/values length mismatch")
    rng = np.random.default_rng(config.seed)
    from scipy.spatial import cKDTree

    tree = cKDTree(pts)
    pairs = tree.query_pairs(config.gamma, output_type="ndarray")
    dist = np.linalg.norm(pts[pairs[:, 0]] - pts[pairs[:, 1]], axis=1)
    keep = dist > 0
    distinct = int(np.count_nonzero(keep))
    if distinct < config.outer_count:
        rows = np.unique(pts, axis=0)
        # inf when every row coincides: a lone point has no neighbour
        closest = float(cKDTree(rows).query(rows, k=2)[0][:, 1].min())
        raise DataFaultError(
            f"only {distinct} pairs of distinct recorded points lie within gamma = "
            f"{config.gamma!r} of each other ({pairs.shape[0] - distinct} coincide), fewer "
            f"than outer_count = {config.outer_count}; the closest distinct rows are "
            f"{closest!r} apart; increase gamma"
        )
    first, second = pairs[keep, 0], pairs[keep, 1]
    slopes = np.abs(vals[first] - vals[second]) / dist[keep]
    slopes = _finite_slopes(slopes, pts[first], pts[second])
    slopes = slopes[rng.permutation(slopes.size)]
    batches = np.array_split(slopes, config.outer_count)
    maxima = np.array([float(np.max(b)) for b in batches])
    return _estimate_from_maxima(maxima)
