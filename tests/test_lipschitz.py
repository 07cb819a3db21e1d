import contextlib
import json
import math
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import weibull_max

from netcert import lipschitz
from netcert.core import IntervalBox, InvariantError
from netcert.lipschitz import (
    LipschitzConfig,
    _fit_reverse_weibull,
    _reverse_weibull_nll,
    _weibull_max_logpdf,
    estimate_for_class,
    estimate_from_pairs,
    estimate_lipschitz,
    slope_batch,
)
from netcert.sampling import DataFaultError
from netcert.scp import ScpSolution
from tests.test_benchmark_hooks import run_python

DENSE = LipschitzConfig(gamma=1e-3, inner_count=200, outer_count=50, seed=0)


def target_sin(pts):
    return np.sin(pts[:, 0])


def target_square(pts):
    return pts[:, 0] ** 2


def target_affine(pts):
    return 2.0 * pts[:, 0]


def target_constant(pts):
    return np.full(pts.shape[0], 3.25)


class TestSlopeBatch:
    def test_affine_slopes_exact(self):
        rng = np.random.default_rng(0)
        slopes = slope_batch(target_affine, IntervalBox([0.0], [1.0]), DENSE, rng)
        assert slopes.shape == (200,)
        assert np.allclose(slopes, 2.0, atol=1e-9)

    def test_constant_slopes_zero(self):
        rng = np.random.default_rng(0)
        slopes = slope_batch(target_constant, IntervalBox([0.0], [1.0]), DENSE, rng)
        assert np.allclose(slopes, 0.0)

    def test_square_slopes_bounded_by_derivative(self):
        rng = np.random.default_rng(1)
        slopes = slope_batch(target_square, IntervalBox([0.0], [1.0]), DENSE, rng)
        assert np.all(slopes >= 0.0)
        assert np.all(slopes <= 2.0 + 1e-9)
        assert slopes.max() > 1.5  # some pair lands near the steep end

    def test_pairs_respect_distance_cap(self):
        rng = np.random.default_rng(2)
        box = IntervalBox([0.0, -1.0], [1.0, 1.0])
        from netcert.lipschitz import _draw_pairs

        base, partners = _draw_pairs(box, 500, 0.05, rng)
        dist = np.linalg.norm(base - partners, axis=1)
        assert np.all(dist <= 0.05 + 1e-12)
        assert np.all(dist > 0)
        assert np.all(box.contains(partners))

    def test_degenerate_box_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(InvariantError):
            slope_batch(target_affine, IntervalBox([1.0], [1.0]), DENSE, rng)


class TestEstimateLipschitz:
    def test_affine_exact_via_fallback(self):
        est = estimate_lipschitz(target_affine, IntervalBox([0.0], [1.0]), DENSE)
        assert est.value == pytest.approx(2.0, abs=1e-12)
        assert est.fallback_used
        assert est.fit is None

    def test_constant_gives_zero(self):
        est = estimate_lipschitz(target_constant, IntervalBox([0.0], [1.0]), DENSE)
        assert est.value == 0.0

    def test_sin_within_five_percent(self):
        est = estimate_lipschitz(target_sin, IntervalBox([0.0], [2.0 * np.pi]), DENSE)
        assert est.value == pytest.approx(1.0, rel=0.05)

    def test_square_within_five_percent(self):
        est = estimate_lipschitz(target_square, IntervalBox([0.0], [1.0]), DENSE)
        assert est.value == pytest.approx(2.0, rel=0.05)

    def test_estimate_dominates_batch_maxima(self):
        est = estimate_lipschitz(target_square, IntervalBox([0.0], [1.0]), DENSE)
        assert est.value >= max(est.max_slope_samples) - 1e-9

    def test_deterministic_under_fixed_seed(self):
        a = estimate_lipschitz(target_sin, IntervalBox([0.0], [2.0 * np.pi]), DENSE)
        b = estimate_lipschitz(target_sin, IntervalBox([0.0], [2.0 * np.pi]), DENSE)
        assert a.value == b.value
        assert a.max_slope_samples == b.max_slope_samples

    def test_monotone_refinement_ladder(self):
        """Tighter pair distances with more samples refine the estimate
        toward the true constant (here 2.0), within sampling noise."""
        ladder = [
            LipschitzConfig(gamma=1e-1, inner_count=10, outer_count=10, seed=0),
            LipschitzConfig(gamma=1e-2, inner_count=50, outer_count=50, seed=0),
            LipschitzConfig(gamma=1e-3, inner_count=200, outer_count=200, seed=0),
        ]
        box = IntervalBox([0.0], [1.0])
        values = [estimate_lipschitz(target_square, box, cfg).value for cfg in ladder]
        for coarse, fine in zip(values, values[1:]):
            assert fine >= coarse - 0.1
        assert values[-1] == pytest.approx(2.0, rel=0.05)

    def test_config_validation(self):
        with pytest.raises(InvariantError):
            LipschitzConfig(gamma=0.0, inner_count=10, outer_count=10)
        with pytest.raises(InvariantError):
            LipschitzConfig(gamma=0.1, inner_count=1, outer_count=10)


class TestPaperPolynomialSlope:
    def test_room_quartic_slope_over_state_box(self):
        """For the reference room polynomial the exact slope bound on
        [10, 13] is |0.0604 x^3 - 1.4 x| at x = 13 = 114.4988; the dense
        estimator must land within 5%."""

        def poly(pts):
            x = pts[:, 0]
            return 0.0151 * x**4 - 0.7 * x**2 - 0.7

        est = estimate_lipschitz(poly, IntervalBox([10.0], [13.0]), DENSE)
        assert est.value == pytest.approx(114.4988, rel=0.05)

    def test_same_value_through_class_estimation(self, room_class, room_reference_solution):
        l1, _ = estimate_for_class(room_class, room_reference_solution, DENSE)
        assert l1.value == pytest.approx(114.4988, rel=0.05)


class TestEstimateForClass:
    def test_constant_template_gives_zero_l1(self, room_class, room_samples):
        sol = ScpSolution(
            coeffs=np.array([0.0, 0.0, 5.0]),  # B(x) = 5
            sigma=5.0,
            phi=5.001,
            supply_s11=((0.0,),),
            supply_s12=((0.0,),),
            supply_s22=((0.0,),),
            eta=0.0,
            beta=0.0,
        )
        cfg = LipschitzConfig(gamma=0.05, inner_count=50, outer_count=10, seed=1)
        l1, _ = estimate_for_class(room_class, sol, cfg)
        assert l1.value == 0.0

    def test_identity_oracle_gives_zero_l2(self, room_class):
        from dataclasses import replace
        from netcert.blackbox import TransitionOracle

        identity = replace(
            room_class,
            oracle=TransitionOracle(lambda x, d: x),
        )
        sol = ScpSolution(
            coeffs=np.array([0.0151, -0.7, -0.7]),
            sigma=150.0,
            phi=200.0,
            supply_s11=((0.0,),),
            supply_s12=((0.0,),),
            supply_s22=((0.0,),),
            eta=0.0,
            beta=0.0,
        )
        cfg = LipschitzConfig(gamma=0.05, inner_count=50, outer_count=10, seed=1)
        _, l2 = estimate_for_class(identity, sol, cfg)
        assert l2.value == 0.0


ONE_ULP_NOTE = (
    "the three L-BFGS-B starts (shape 0.8, 1.5, 3.0) end at local optima "
    "whose likelihoods differ by very little; moving every coefficient of the "
    "platoon certificate by one ulp moves the slope maxima by about 1e-13 "
    "relative but flips which optimum wins (fitted shape 0.89 -> 3.26), so "
    "L1 moves from 4152.23 to 4386.41 (5.6%)"
)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=ONE_ULP_NOTE)
def test_l1_is_stable_to_one_ulp_of_the_coefficients(platoon_class, platoon_solution):
    from dataclasses import replace

    config = LipschitzConfig(gamma=0.1, inner_count=200, outer_count=30, seed=1)
    nudged = replace(platoon_solution, coeffs=np.nextafter(platoon_solution.coeffs, np.inf))
    l1, _ = estimate_for_class(platoon_class, platoon_solution, config)
    l1_nudged, _ = estimate_for_class(platoon_class, nudged, config)
    assert l1_nudged.value == pytest.approx(l1.value, rel=1e-6)


class TestEstimateFromPairs:
    def test_affine_values_on_grid(self):
        from netcert.sampling import grid_samples

        box = IntervalBox([0.0, 0.0], [1.0, 1.0])
        pts = grid_samples(box, (11, 11))
        vals = 3.0 * pts[:, 0]  # slope 3 along the first axis
        cfg = LipschitzConfig(gamma=0.15, inner_count=10, outer_count=10, seed=0)
        est = estimate_from_pairs(pts, vals, cfg)
        assert est.value == pytest.approx(3.0, abs=1e-9)

    def test_too_sparse_pairs_rejected(self):
        pts = np.array([[0.0], [1.0], [2.0]])
        vals = np.zeros(3)
        cfg = LipschitzConfig(gamma=0.1, inner_count=5, outer_count=5, seed=0)
        with pytest.raises(DataFaultError, match="the closest distinct rows are 1.0 apart"):
            estimate_from_pairs(pts, vals, cfg)

    def test_all_pairs_duplicate_rejected(self):
        pts = np.zeros((12, 1))  # 66 pairs, every one at distance 0
        cfg = LipschitzConfig(gamma=0.1, inner_count=5, outer_count=5, seed=0)
        with pytest.raises(DataFaultError, match="only 0 pairs of distinct"):
            estimate_from_pairs(pts, np.zeros(12), cfg)

    def test_duplicates_do_not_count_towards_outer_count(self):
        """55 pairs within gamma, but only 10 join distinct points: too few
        for 30 batches, which would otherwise fit 10 maxima."""
        pts = np.vstack([np.zeros((10, 1)), [[0.05]]])
        vals = 2.0 * pts[:, 0]
        cfg = LipschitzConfig(gamma=0.1, inner_count=5, outer_count=30, seed=0)
        message = r"only 10 pairs .* \(45 coincide\).* the closest distinct rows are 0\.05 apart"
        with pytest.raises(DataFaultError, match=message):
            estimate_from_pairs(pts, vals, cfg)


def reference_nll(params, maxima):
    """The likelihood as written on scipy.stats.weibull_max."""
    loc, scale, shape = params
    with np.errstate(all="ignore"):
        ll = weibull_max.logpdf(maxima, shape, loc=loc, scale=scale)
    if not np.all(np.isfinite(ll)):
        return 1e30
    return -float(np.sum(ll))


MAXIMA = hnp.arrays(float, st.integers(2, 63), elements=st.floats(-1e3, 1e3))
SCALES = st.just(1e-12) | st.floats(-12.0, 4.0).map(lambda e: 10.0**e)
SHAPES = st.sampled_from([0.05, 1.0, 2.0, 50.0]) | st.floats(0.05, 50.0)
OFFSETS = st.floats(-12.0, 3.0).map(lambda e: 10.0**e)
SHIPPED = LipschitzConfig(gamma=0.1, inner_count=200, outer_count=30, seed=7)


class TestReverseWeibullLikelihood:
    """The written-out density must equal scipy's bit for bit: the fit
    amplifies last-bit changes into the stored L1 and L2."""

    @settings(max_examples=300, deadline=None)
    @given(maxima=MAXIMA, offset=st.just(0.0) | OFFSETS, scale=SCALES, shape=SHAPES)
    def test_matches_scipy_bitwise(self, maxima, offset, scale, shape):
        params = np.array([np.max(maxima) + offset, scale, shape])  # offset 0: top at loc
        with np.errstate(all="ignore"):
            got = _weibull_max_logpdf(maxima, *params)
            ref = weibull_max.logpdf(maxima, shape, loc=params[0], scale=scale)
        assert got is not None
        assert np.array_equal(got, ref, equal_nan=True)
        assert _reverse_weibull_nll(params, maxima) == reference_nll(params, maxima)

    @settings(max_examples=100, deadline=None)
    @given(maxima=MAXIMA, drop=OFFSETS, scale=SCALES, shape=SHAPES)
    def test_points_above_loc_are_penalised(self, maxima, drop, scale, shape):
        params = np.array([np.max(maxima) - drop, scale, shape])
        assume(params[0] < np.max(maxima))
        assert _weibull_max_logpdf(maxima, *params) is None
        assert _reverse_weibull_nll(params, maxima) == reference_nll(params, maxima) == 1e30

    def test_matches_scipy_where_numpy_log_rounds_differently(self):
        """scipy's ``xlogy`` takes the C library's ``log``; NumPy's
        vectorised ``log`` rounds some values near 1 differently, and those
        must keep scipy's bits."""
        distance = np.random.default_rng(0).uniform(0.5, 2.0, 4000)
        libm = np.array([math.log(v) for v in distance])
        assert np.any(np.log(distance) != libm)  # the case this test is for
        with np.errstate(all="ignore"):
            ref = weibull_max.logpdf(-distance, 2.5, loc=0.0, scale=1.0)
        assert np.array_equal(_weibull_max_logpdf(-distance, 0.0, 1.0, 2.5), ref)

    @pytest.mark.parametrize("shape", [0.05, 1.0, 2.0, 50.0])
    def test_point_at_loc_matches_scipy(self, shape):
        """At y = 0 scipy's support test passes; shape 1 gives a finite
        density there, which must not be penalised."""
        maxima = np.array([0.25, 0.5, 1.0])
        params = np.array([1.0, 0.5, shape])
        with np.errstate(all="ignore"):
            ref = weibull_max.logpdf(maxima, shape, loc=1.0, scale=0.5)
            assert np.array_equal(_weibull_max_logpdf(maxima, *params), ref)
        assert _reverse_weibull_nll(params, maxima) == reference_nll(params, maxima)
        assert (reference_nll(params, maxima) < 1e30) == (shape == 1.0)

    @pytest.mark.parametrize("case", ["room", "platoon"])
    def test_fit_matches_scipy_likelihood(self, case, request, monkeypatch):
        cls = request.getfixturevalue(f"{case}_class")
        solution = request.getfixturevalue(f"{case}_solution")
        for est in estimate_for_class(cls, solution, SHIPPED):
            maxima = np.array(est.max_slope_samples)
            assert np.var(maxima) >= 1e-12  # the fit runs, no fallback
            fit = _fit_reverse_weibull(maxima)
            with monkeypatch.context() as m:
                m.setattr(lipschitz, "_reverse_weibull_nll", reference_nll)
                assert fit == _fit_reverse_weibull(maxima)


MINIMIZE = lipschitz.minimize


def outcome(result):
    """What the fit reads of a run, with x as its bytes."""
    if result is ValueError:
        return ValueError
    return result.x.tobytes(), result.fun, result.nfev, result.nit, result.success


def fit_runs(maxima: np.ndarray) -> list:
    """``[kwargs, result]`` of each ``minimize`` call the fit makes on
    ``maxima``, with ValueError as the result of a call that raised it."""
    runs = []

    def recorded(fun, **kwargs):
        assert fun is _reverse_weibull_nll
        runs.append([kwargs, ValueError])
        runs[-1][1] = MINIMIZE(fun, **kwargs)
        return runs[-1][1]

    with mock.patch.object(lipschitz, "minimize", recorded), contextlib.suppress(ValueError):
        _fit_reverse_weibull(maxima)
    assert runs
    return runs


def assert_runs_match_scipy(runs):
    for kwargs, result in runs:
        try:
            with np.errstate(all="ignore"):
                expected = scipy.optimize.minimize(
                    _reverse_weibull_nll, method="L-BFGS-B", **kwargs
                )
        except ValueError:
            expected = ValueError
        assert outcome(result) == outcome(expected), kwargs


# batch maxima: 2-63 values at scales from 1e-6 to 1e4, with ties
FIT_MAXIMA = st.tuples(
    hnp.arrays(
        float, st.integers(2, 63), elements=st.sampled_from([1.0, 1.5, 2.0]) | st.floats(1.0, 2.0)
    ),
    st.floats(-6.0, 4.0).map(lambda e: 10.0**e),
).map(lambda pair: pair[0] * pair[1])

# Fits the reverse Weibull to each maxima array of argv[1] in a fresh
# interpreter with extension files hidden, so scipy's L-BFGS-B extension
# comes from the plain import, and prints whether scipy.optimize is then
# loaded and each run's outcome, x as hex.
FIT_WITHOUT_EXTENSION_FILES = """
import importlib.machinery, json, sys
importlib.machinery.EXTENSION_SUFFIXES = []
import numpy as np
from netcert import lipschitz
results = []
minimize = lipschitz.minimize

def recorded(fun, **kwargs):
    res = minimize(fun, **kwargs)
    results.append([res.x.tobytes().hex(), res.fun, res.nfev, res.nit, res.success])
    return res

lipschitz.minimize = recorded
for maxima in json.loads(sys.argv[1]):
    lipschitz._fit_reverse_weibull(np.array(maxima))
print(json.dumps(["scipy.optimize" in sys.modules, results]))
"""


class TestLbfgsbDriver:
    """``lipschitz.minimize`` runs scipy's compiled L-BFGS-B without
    ``scipy.optimize``; every run of the fit must end where
    ``scipy.optimize.minimize(method="L-BFGS-B")`` ends, bit for bit, with
    the same evaluation and iteration counts."""

    @settings(max_examples=100, deadline=None)
    @given(maxima=FIT_MAXIMA)
    def test_same_runs_as_scipy(self, maxima):
        assert_runs_match_scipy(fit_runs(maxima))

    @pytest.mark.parametrize("case", ["room", "platoon"])
    def test_same_runs_as_scipy_on_the_benchmarks(self, case, request):
        """L1 and L2 at seeds 0-39.  Platoon's seed 1 L1 runs stop on the
        location's lower bound, and its seed 33 L2 fit misses the
        likelihood's maximum (ROADMAP item 1)."""
        cls = request.getfixturevalue(f"{case}_class")
        solution = request.getfixturevalue(f"{case}_solution")
        on_bound = []
        for seed in range(40):
            config = LipschitzConfig(gamma=0.1, inner_count=200, outer_count=30, seed=seed)
            # the maxima only: each fit runs below
            with mock.patch.object(lipschitz, "_fit_reverse_weibull", lambda maxima: None):
                estimates = estimate_for_class(cls, solution, config)
            for value, est in zip(("L1", "L2"), estimates):
                runs = fit_runs(np.array(est.max_slope_samples))
                assert len(runs) == 3
                assert_runs_match_scipy(runs)
                on_bound += [
                    (seed, value)
                    for kwargs, result in runs
                    if result.x[0] == kwargs["bounds"][0][0]
                ]
        if case == "platoon":
            assert (1, "L1") in on_bound

    def test_the_plain_import_gives_the_same_runs(self):
        rng = np.random.default_rng(0)
        batches = [rng.weibull(shape, 30) * 10.0**k for k, shape in enumerate((0.7, 1.5, 3.0))]
        expected = [
            [r.x.tobytes().hex(), r.fun, r.nfev, r.nit, r.success]
            for maxima in batches
            for _, r in fit_runs(maxima)
        ]
        argument = json.dumps([maxima.tolist() for maxima in batches])
        proc = run_python(["-c", FIT_WITHOUT_EXTENSION_FILES, argument])
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [True, expected]
