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
from typing import NamedTuple, Optional

import numpy as np

from .core import InvariantError
from .scp import ScpSolution

CONDITION_GAP = "gap"  # phi* - sigma* > 0
CONDITION_M1 = "m1"  # eta* + L1 * theta <= 0
CONDITION_M2 = "m2"  # eta* + beta* + L2 * theta <= 0


class Failure(NamedTuple):
    """One violated condition of one class, and the amount by which it missed."""

    class_id: str
    condition: str
    amount: float


@dataclass(frozen=True)
class ClassMargins:
    """Pure arithmetic of one class's certification inputs:
    m1 = eta + l1*theta, m2 = eta + beta + l2*theta, gap = phi - sigma.
    Every input is finite: a NaN would neither satisfy nor fail a condition."""

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
        inputs = (self.eta, self.beta, self.l1, self.l2, self.theta, self.sigma, self.phi)
        if not np.all(np.isfinite(inputs)):
            raise InvariantError(f"margin inputs must be finite, got {inputs}")
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
        """(condition, offending amount) for every condition not satisfied."""
        out = []
        if not self.gap > 0.0:
            out.append((CONDITION_GAP, self.gap))
        if not self.m1 <= 0.0:
            out.append((CONDITION_M1, self.m1))
        if not self.m2 <= 0.0:
            out.append((CONDITION_M2, self.m2))
        return out


@dataclass(frozen=True)
class ClassCertificate(ClassMargins, ScpSolution):
    """Everything recorded per class: the scenario optimum, its margins and
    their inputs, and the data provenance needed to audit them."""

    class_id: str
    template_exponents: tuple[tuple[int, ...], ...]
    sample_count: int
    grid_spec: Optional[tuple[tuple[int, ...], tuple[int, ...]]]
    l1_fallback: bool = False
    l2_fallback: bool = False

    def __post_init__(self):
        ScpSolution.__post_init__(self)
        ClassMargins.__post_init__(self)
        if len(self.coeffs) != len(self.template_exponents):
            raise InvariantError(
                f"{len(self.coeffs)} coefficients for {len(self.template_exponents)} "
                "template terms"
            )


VERDICT_CERTIFIED = "certified"
VERDICT_NOT_CERTIFIED = "not-certified"


@dataclass(frozen=True)
class NetworkCertificate:
    """Per-class certificates plus what they give: the violated conditions
    (class, condition, amount) and the network-level verdict.

    The verdict is certified exactly when every class satisfies its margins
    with a strictly positive level gap, for any number of copies of each
    class.
    """

    classes: tuple[ClassCertificate, ...]
    provenance: dict = field(default_factory=dict)
    failures: tuple[Failure, ...] = field(init=False)
    verdict: str = field(init=False)

    def __post_init__(self):
        if not self.classes:
            raise InvariantError("a network certificate needs at least one class")
        failures = [Failure(c.class_id, *f) for c in self.classes for f in c.failures()]
        object.__setattr__(self, "failures", tuple(failures))
        certified = all(c.satisfied for c in self.classes)
        verdict = VERDICT_CERTIFIED if certified else VERDICT_NOT_CERTIFIED
        object.__setattr__(self, "verdict", verdict)

    @property
    def certified(self) -> bool:
        return self.verdict == VERDICT_CERTIFIED

    def class_by_id(self, class_id: str) -> ClassCertificate:
        for c in self.classes:
            if c.class_id == class_id:
                return c
        raise KeyError(class_id)
