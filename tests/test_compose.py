from dataclasses import replace

import numpy as np
import pytest

from netcert.blackbox import TOPOLOGY_KINDS, Topology
from netcert.compose import ClassCertificate, ClassMargins, NetworkCertificate
from netcert.core import InvariantError, eval_template
from netcert.lipschitz import LipschitzConfig, estimate_for_class
from netcert.pipeline import render_report
from netcert.verify import phase_portrait

from tests.conftest import (
    ROOM_BETA,
    ROOM_ETA,
    ROOM_L1,
    ROOM_L2,
    ROOM_PHI,
    ROOM_SIGMA,
    ROOM_THETA,
)


def make_class_certificate(margins, class_id="c", coeffs=(1.0, 0.0)):
    return ClassCertificate(
        class_id=class_id,
        template_exponents=((1,), (0,)),
        coeffs=tuple(coeffs),
        sigma=margins.sigma,
        phi=margins.phi,
        supply_s11=((0.0,),),
        supply_s12=((0.0,),),
        supply_s22=((0.0,),),
        eta=margins.eta,
        beta=margins.beta,
        l1=margins.l1,
        l2=margins.l2,
        theta=margins.theta,
        sample_count=100,
        grid_spec=((10,), (10,)),
    )


class TestMarginArithmetic:
    def test_room_values(self):
        m = ClassMargins(
            eta=ROOM_ETA,
            beta=ROOM_BETA,
            l1=ROOM_L1,
            l2=ROOM_L2,
            theta=ROOM_THETA,
            sigma=0.0,
            phi=0.0,
        )
        assert m.m1 == pytest.approx(-14.3770, abs=1e-3)
        assert m.m2 == pytest.approx(-15.4195, abs=1e-3)

    def test_vehicle_values(self):
        m = ClassMargins(
            eta=-0.4098, beta=0.0, l1=7.8288, l2=7.4875, theta=0.05, sigma=0.0, phi=0.0
        )
        assert m.m1 == pytest.approx(-0.0184, abs=1e-3)
        assert m.m2 == pytest.approx(-0.0355, abs=1.5e-3)

    def test_all_zero_is_not_certified(self):
        m = ClassMargins(eta=0.0, beta=0.0, l1=0.0, l2=0.0, theta=0.0, sigma=0.0, phi=0.0)
        assert m.m1 == 0.0 and m.m2 == 0.0 and m.gap == 0.0
        assert not m.satisfied  # the level gap must be strictly positive

    def test_recompute_is_bit_exact(self):
        m1 = ClassMargins(eta=-1.5, beta=0.25, l1=3.0, l2=2.0, theta=0.125, sigma=1.0, phi=2.0)
        m2 = ClassMargins(eta=-1.5, beta=0.25, l1=3.0, l2=2.0, theta=0.125, sigma=1.0, phi=2.0)
        assert m1.m1 == m2.m1 and m1.m2 == m2.m2 and m1.gap == m2.gap
        # same arithmetic done by hand, same binary result
        assert m1.m1 == -1.5 + 3.0 * 0.125
        assert m1.m2 == -1.5 + 0.25 + 2.0 * 0.125

    def test_input_validation(self):
        with pytest.raises(InvariantError):
            ClassMargins(eta=0.0, beta=0.0, l1=-1.0, l2=0.0, theta=0.1, sigma=0.0, phi=0.0)
        with pytest.raises(InvariantError):
            ClassMargins(eta=0.0, beta=0.0, l1=0.0, l2=0.0, theta=-0.1, sigma=0.0, phi=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", ["eta", "beta", "l1", "l2", "theta", "sigma", "phi"])
    def test_non_finite_input_rejected(self, name, value):
        """A NaN compares false both ways, so a NaN margin would neither
        satisfy nor fail its condition; no input may be NaN or infinite."""
        inputs = dict(eta=-1.0, beta=0.0, l1=1.0, l2=1.0, theta=0.1, sigma=0.0, phi=1.0)
        with pytest.raises(InvariantError, match="must be finite"):
            ClassMargins(**{**inputs, name: value})

    def test_class_with_nan_slope_is_never_built(self):
        m = ClassMargins(eta=-1.0, beta=0.0, l1=0.0, l2=0.0, theta=0.1, sigma=0.0, phi=1.0)
        cert = make_class_certificate(m)
        assert NetworkCertificate((cert,)).certified
        with pytest.raises(InvariantError, match="must be finite"):
            replace(cert, l2=float("nan"))


class TestCertifyPolicy:
    def test_room_reference_numbers_certify(self):
        m = ClassMargins(
            eta=ROOM_ETA,
            beta=ROOM_BETA,
            l1=ROOM_L1,
            l2=ROOM_L2,
            theta=ROOM_THETA,
            sigma=ROOM_SIGMA,
            phi=ROOM_PHI,
        )
        cert = NetworkCertificate((make_class_certificate(m, "room"),))
        assert cert.certified
        assert cert.failures == ()

    def test_positive_eta_fails_m1(self):
        m = ClassMargins(eta=0.1, beta=0.0, l1=0.0, l2=0.0, theta=0.0, sigma=0.0, phi=1.0)
        cert = NetworkCertificate((make_class_certificate(m),))
        assert not cert.certified
        assert ("c", "m1", pytest.approx(0.1)) in [
            (cid, cond, amt) for cid, cond, amt in cert.failures
        ]

    def test_no_cross_class_compensation(self):
        good = ClassMargins(eta=-1.0, beta=0.0, l1=0.0, l2=0.0, theta=0.0, sigma=0.0, phi=1.0)
        bad = ClassMargins(eta=0.5, beta=0.0, l1=0.0, l2=0.0, theta=0.0, sigma=0.0, phi=1.0)
        cert = NetworkCertificate(
            (make_class_certificate(good, "good"), make_class_certificate(bad, "bad"))
        )
        assert not cert.certified
        failing_ids = {cid for cid, _, _ in cert.failures}
        assert failing_ids == {"bad"}

    def test_verdict_monotone_in_dispersion(self):
        """Denser sampling (smaller theta) with unchanged solution values
        never flips certified to not-certified."""
        thetas = [0.2, 0.1, 0.05, 0.01]
        verdicts = []
        for t in thetas:
            m = ClassMargins(eta=-1.0, beta=0.1, l1=4.0, l2=4.0, theta=t, sigma=0.0, phi=1.0)
            verdicts.append(NetworkCertificate((make_class_certificate(m),)).certified)
        for coarse, fine in zip(verdicts, verdicts[1:]):
            assert fine >= coarse  # True never degrades to False


class TestFailureReport:
    """The report advises more samples only when a smaller dispersion could
    satisfy the violated margin at the current optimum."""

    def _advice(self, **kw):
        m = ClassMargins(sigma=0.0, phi=1.0, **kw)
        lines = render_report(NetworkCertificate((make_class_certificate(m),))).splitlines()
        return {line.split()[2]: line for line in lines if "violated by" in line}

    def test_dispersion_bound_when_theta_free_part_negative(self):
        advice = self._advice(eta=-1.0, beta=0.5, l1=4.0, l2=8.0, theta=0.5)
        assert "theta < 0.25 (now 0.5) would satisfy it" in advice["m1"]
        assert "theta < 0.0625 (now 0.5) would satisfy it" in advice["m2"]
        assert all("collect more samples" in line for line in advice.values())
        # just below the tighter bound both margins hold
        assert ClassMargins(
            eta=-1.0, beta=0.5, l1=4.0, l2=8.0, theta=0.0624, sigma=0.0, phi=1.0
        ).satisfied

    def test_positive_at_zero_dispersion_is_named(self):
        """Room's optimum: eta* = 3.8e-5 > 0, so no theta can help."""
        advice = self._advice(eta=3.8e-05, beta=-9.2e-10, l1=0.0028, l2=0.00065, theta=0.07)
        assert "eta* = 3.8e-05 >= 0" in advice["m1"]
        assert f"eta*+beta* = {3.8e-05 + -9.2e-10!r} >= 0" in advice["m2"]
        for line in advice.values():
            assert "stays positive however small" in line
            assert "collect more samples" not in line

    def test_each_margin_judged_on_its_own(self):
        advice = self._advice(eta=-1e-3, beta=2e-3, l1=1.0, l2=1.0, theta=0.01)
        assert "theta < 0.001 (now 0.01)" in advice["m1"]
        assert "stays positive however small" in advice["m2"]


@pytest.fixture(scope="module")
def drift_certificate(drift_class, drift_samples, drift_solution):
    cfg = LipschitzConfig(gamma=0.2, inner_count=100, outer_count=20, seed=5)
    l1, l2 = estimate_for_class(drift_class, drift_solution, cfg)
    cert = ClassCertificate(
        class_id="drift",
        template_exponents=((1,), (0,)),
        coeffs=tuple(float(v) for v in drift_solution.coeffs),
        sigma=drift_solution.sigma,
        phi=drift_solution.phi,
        supply_s11=((float(drift_solution.supply.s11[0, 0]),),),
        supply_s12=((float(drift_solution.supply.s12[0, 0]),),),
        supply_s22=((float(drift_solution.supply.s22[0, 0]),),),
        eta=drift_solution.eta,
        beta=drift_solution.beta,
        l1=l1.value,
        l2=l2.value,
        theta=drift_samples.dispersion,
        sample_count=drift_samples.count,
        grid_spec=drift_samples.grid_spec,
    )
    return NetworkCertificate((cert,))


class TestCertifiedDriftClass:
    """End-to-end certified path on the synthetic strictly-decreasing class:
    the margins pass with honestly estimated constants, and the certified
    certificate is consistent with simulation."""
    def test_verdict_certified(self, drift_certificate):
        assert drift_certificate.certified
        assert drift_certificate.failures == ()

    def test_certified_implies_decreasing_and_safe(self, drift_class, drift_certificate):
        """Certified certificates must not increase along any surrogate
        trajectory and no state may enter the unsafe box."""
        coeffs = np.array(drift_certificate.classes[0].coeffs)
        for kind in TOPOLOGY_KINDS:
            topo = Topology(kind=kind, surrogate_size=10)
            portrait = phase_portrait(drift_class, topo, (5,), 100)
            assert portrait.unsafe_entries == 0
            # per trajectory, the sum over the copies of B(x_i) at each step
            states = portrait.states
            values = eval_template(
                drift_class.template, coeffs, states.reshape(-1, states.shape[-1])
            ).reshape(states.shape[:-1]).sum(axis=-1)
            diffs = np.diff(values, axis=1)
            assert np.all(diffs <= 1e-6)

    def test_margins_strictly_negative(self, drift_certificate):
        m = drift_certificate.classes[0]
        assert m.m1 < 0 and m.m2 < 0 and m.gap > 0


class TestCertifyValidation:
    def test_empty_input_rejected(self):
        with pytest.raises(InvariantError):
            NetworkCertificate(())

    def test_missing_class_lookup_raises(self):
        m = ClassMargins(eta=-1.0, beta=0.0, l1=0.0, l2=0.0, theta=0.1, sigma=0.0, phi=1.0)
        cert = NetworkCertificate((make_class_certificate(m, "present"),))
        with pytest.raises(KeyError):
            cert.class_by_id("absent")
