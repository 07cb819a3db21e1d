"""Compositional margin checks and network-level certificate assembly.

A class certifies when its scenario optimum survives two data-robustness
margins (the Lipschitz constant times the sample dispersion, once for the
level conditions and once for the decrease condition) and its level values
are strictly separated.  The margins are checked per class: copies of a
class can appear any number of times in the network, so letting one class's
slack absorb another's violation would be unsound for unknown multiplicities
and is deliberately not offered.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import (
    CoefficientVector,
    DimensionError,
    InvariantError,
    StcTemplate,
    SupplyRate,
    eval_template,
)
from .lipschitz import LipschitzConfig
from .scp import ScpSolution

CONDITION_GAP = "gap"  # phi* - sigma* > 0
CONDITION_M1 = "m1"  # eta* + L1 * theta <= 0
CONDITION_M2 = "m2"  # eta* + beta* + L2 * theta <= 0


@dataclass(frozen=True)
class ClassMargins:
    """Pure arithmetic of one class's certification inputs."""

    class_id: str
    eta: float
    beta: float
    l1: float
    l2: float
    theta: float
    sigma: float
    phi: float
    m1: float = field(init=False)
    m2: float = field(init=False)
    gap: float = field(init=False)

    def __post_init__(self):
        if self.theta < 0:
            raise InvariantError("dispersion must be non-negative")
        if self.l1 < 0 or self.l2 < 0:
            raise InvariantError("Lipschitz estimates must be non-negative")
        object.__setattr__(self, "m1", self.eta + self.l1 * self.theta)
        object.__setattr__(self, "m2", self.eta + self.beta + self.l2 * self.theta)
        object.__setattr__(self, "gap", self.phi - self.sigma)

    @property
    def satisfied(self) -> bool:
        return self.m1 <= 0.0 and self.m2 <= 0.0 and self.gap > 0.0

    def failures(self) -> list[tuple[str, float]]:
        """(condition, offending amount) for every violated condition."""
        out = []
        if self.gap <= 0.0:
            out.append((CONDITION_GAP, self.gap))
        if self.m1 > 0.0:
            out.append((CONDITION_M1, self.m1))
        if self.m2 > 0.0:
            out.append((CONDITION_M2, self.m2))
        return out


def class_margins(
    eta: float,
    beta: float,
    l1: float,
    l2: float,
    theta: float,
    sigma: float = 0.0,
    phi: float = 0.0,
    class_id: str = "",
) -> ClassMargins:
    """m1 = eta + l1*theta, m2 = eta + beta + l2*theta, gap = phi - sigma."""
    return ClassMargins(
        class_id=class_id,
        eta=float(eta),
        beta=float(beta),
        l1=float(l1),
        l2=float(l2),
        theta=float(theta),
        sigma=float(sigma),
        phi=float(phi),
    )


@dataclass(frozen=True)
class ClassCertificate:
    """Everything recorded per class: the certificate itself plus the data
    provenance needed to audit how conservative the margins are."""

    class_id: str
    template_exponents: tuple[tuple[int, ...], ...]
    coeffs: tuple[float, ...]
    sigma: float
    phi: float
    supply_s11: tuple[tuple[float, ...], ...]
    supply_s12: tuple[tuple[float, ...], ...]
    supply_s22: tuple[tuple[float, ...], ...]
    eta: float
    beta: float
    l1: float
    l2: float
    theta: float
    sample_count: int
    grid_spec: Optional[tuple[tuple[int, ...], tuple[int, ...]]]
    lipschitz_config: Optional[LipschitzConfig] = None
    l1_fallback: bool = False
    l2_fallback: bool = False

    @property
    def margins(self) -> ClassMargins:
        return class_margins(
            eta=self.eta,
            beta=self.beta,
            l1=self.l1,
            l2=self.l2,
            theta=self.theta,
            sigma=self.sigma,
            phi=self.phi,
            class_id=self.class_id,
        )

    def template(self) -> StcTemplate:
        exps = np.array(self.template_exponents, dtype=int)
        return StcTemplate(state_dim=exps.shape[1], exponents=exps)

    def solution(self) -> ScpSolution:
        """The stored scenario optimum, in the form the verifiers take."""
        return ScpSolution(
            coeffs=CoefficientVector(np.array(self.coeffs)),
            sigma=self.sigma,
            phi=self.phi,
            supply=SupplyRate(
                np.array(self.supply_s11), np.array(self.supply_s12), np.array(self.supply_s22)
            ),
            eta=self.eta,
            beta=self.beta,
            objective=self.eta + self.beta,
            status="optimal",
        )


VERDICT_CERTIFIED = "certified"
VERDICT_NOT_CERTIFIED = "not-certified"


@dataclass(frozen=True)
class NetworkCertificate:
    """Per-class certificates plus the network-level verdict.

    The verdict is certified exactly when every class satisfies its margins
    with a strictly positive level gap.  Network level values are reported
    for a finite deployment of ``reference_size`` copies per class; per-class
    values are what the certification logically rests on.
    """

    classes: tuple[ClassCertificate, ...]
    verdict: str
    failures: tuple[tuple[str, str, float], ...]  # (class_id, condition, amount)
    reference_size: int
    provenance: dict

    def __post_init__(self):
        all_ok = all(c.margins.satisfied for c in self.classes)
        if (self.verdict == VERDICT_CERTIFIED) != all_ok:
            raise InvariantError("verdict must mirror the per-class margin conditions")

    @property
    def certified(self) -> bool:
        return self.verdict == VERDICT_CERTIFIED

    def network_levels(self, multiplicities: Optional[dict[str, int]] = None) -> tuple[float, float]:
        """(sigma, phi) summed over a finite multiset of copies."""
        sigma = phi = 0.0
        for c in self.classes:
            k = self.reference_size if multiplicities is None else multiplicities.get(c.class_id, 0)
            sigma += k * c.sigma
            phi += k * c.phi
        return sigma, phi

    def class_by_id(self, class_id: str) -> ClassCertificate:
        for c in self.classes:
            if c.class_id == class_id:
                return c
        raise KeyError(class_id)


def certify(
    class_results: Sequence[ClassCertificate],
    reference_size: int = 10,
    provenance: Optional[dict] = None,
) -> NetworkCertificate:
    """Evaluate the per-class conditions and assemble the network verdict.

    When a class fails, the report names the class, the violated condition,
    and the amount by which it missed, which is exactly what a refinement
    loop needs to decide where to collect more samples.
    """
    if not class_results:
        raise InvariantError("certify needs at least one class result")
    failures = []
    for cert in class_results:
        for condition, amount in cert.margins.failures():
            failures.append((cert.class_id, condition, amount))
    verdict = VERDICT_CERTIFIED if not failures else VERDICT_NOT_CERTIFIED
    return NetworkCertificate(
        classes=tuple(class_results),
        verdict=verdict,
        failures=tuple(failures),
        reference_size=reference_size,
        provenance=dict(provenance or {}),
    )


def eval_network_certificate(
    certificate: NetworkCertificate,
    states: Sequence[np.ndarray],
    assignment: Optional[Sequence[str]] = None,
) -> float:
    """Sum of per-subsystem certificate values over a finite surrogate.

    ``assignment[i]`` names the class of subsystem i; with a single class it
    may be omitted.  An empty surrogate sums to zero.
    """
    states = list(states)
    if not states:
        return 0.0
    if assignment is None:
        if len(certificate.classes) != 1:
            raise InvariantError("an explicit class assignment is required with several classes")
        assignment = [certificate.classes[0].class_id] * len(states)
    if len(assignment) != len(states):
        raise DimensionError("one class id per subsystem state is required")
    total = 0.0
    for cid in dict.fromkeys(assignment):
        cert = certificate.class_by_id(cid)
        points = [np.asarray(x, float).reshape(-1) for x, c in zip(states, assignment) if c == cid]
        total += float(np.sum(eval_template(cert.template(), cert.solution().coeffs, points)))
    return total
