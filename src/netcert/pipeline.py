"""End-to-end orchestration: configuration, the synthesis loop, and
certificate persistence.

A run is fully determined by its configuration file (seeds included);
re-running the same configuration produces byte-identical artifacts, which
is why certificates deliberately carry no wall-clock fields and all floats
are serialized in shortest round-trip form.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import __version__
from .blackbox import BENCHMARKS, Topology
from .compose import (
    CONDITION_M1,
    CONDITION_M2,
    ClassCertificate,
    ClassMargins,
    NetworkCertificate,
    certify,
    class_margins,
)
from .core import (
    IntervalBox,
    InvariantError,
    SafetySpec,
    StcTemplate,
    SubsystemClass,
    eval_template,
)
from .lipschitz import (
    LipschitzConfig,
    LipschitzEstimate,
    certificate_target,
    estimate_from_pairs,
    estimate_lipschitz,
    estimate_for_class,
)
from .sampling import (
    SampleSet,
    collect_pairs,
    load_samples_csv,
    save_samples_csv,
)
from .scp import ScpOptions, build_scp, check_solution, export_lp_text, solve_scp
from .verify import (
    check_level_sets,
    decrease_heatmap,
    phase_portrait,
    surface_data,
    write_levels_csv,
    write_surface_csv,
    write_trajectories_csv,
)

CONFIG_VERSION = 1
CERTIFICATE_VERSION = 1
HEATMAP_CSV_POINT_CAP = 200_000


class ConfigError(ValueError):
    """The run configuration is malformed or internally inconsistent."""


class CertificateFormatError(ValueError):
    """A stored certificate could not be parsed or has the wrong version."""


@dataclass
class ClassConfig:
    """One subsystem class: either a named benchmark (with optional
    parameter overrides) or an external CSV of recorded transitions."""

    id: str
    benchmark: Optional[str] = None
    benchmark_params: dict = field(default_factory=dict)
    data_csv: Optional[str] = None
    counts_state: tuple[int, ...] = ()
    counts_input: tuple[int, ...] = ()
    template_exponents: Optional[tuple[tuple[int, ...], ...]] = None
    # only for data_csv classes, which carry their own geometry
    state_dim: Optional[int] = None
    input_dim: Optional[int] = None
    state_box: Optional[tuple[tuple[float, ...], tuple[float, ...]]] = None
    input_box: Optional[tuple[tuple[float, ...], tuple[float, ...]]] = None
    initial_box: Optional[tuple[tuple[float, ...], tuple[float, ...]]] = None
    unsafe_box: Optional[tuple[tuple[float, ...], tuple[float, ...]]] = None


@dataclass
class PipelineConfig:
    classes: list[ClassConfig]
    output_dir: str = "netcert-out"
    surrogate_size: int = 10
    topology_kind: str = "ring"
    weight_decay: float = 0.5
    scp: ScpOptions = field(default_factory=ScpOptions)
    lipschitz: LipschitzConfig = field(
        default_factory=lambda: LipschitzConfig(gamma=0.1, inner_count=200, outer_count=30, seed=7)
    )
    refine_enabled: bool = True
    refine_max_retries: int = 2
    portrait_counts: tuple[int, ...] = ()
    portrait_steps: int = 100
    verify_multiplier: int = 10
    export_lp: bool = False

    def topology(self) -> Topology:
        return Topology(
            kind=self.topology_kind,
            surrogate_size=self.surrogate_size,
            weight_decay=self.weight_decay,
        )


def _box_from_pair(pair, what: str) -> IntervalBox:
    try:
        lower, upper = pair
        return IntervalBox(lower, upper)
    except Exception as exc:
        raise ConfigError(f"bad {what} box: {exc}") from exc


def build_class(cc: ClassConfig) -> SubsystemClass:
    """Materialize a class definition; raises ConfigError early so no
    compute happens on an inconsistent configuration."""
    if (cc.benchmark is None) == (cc.data_csv is None):
        raise ConfigError(
            f"class {cc.id!r} must name exactly one of 'benchmark' or 'data_csv'"
        )
    if cc.benchmark is not None:
        if cc.benchmark not in BENCHMARKS:
            raise ConfigError(
                f"unknown benchmark {cc.benchmark!r}; available: {sorted(BENCHMARKS)}"
            )
        try:
            cls = BENCHMARKS[cc.benchmark](
                template_exponents=cc.template_exponents, **cc.benchmark_params
            )
        except (TypeError, InvariantError) as exc:
            raise ConfigError(f"class {cc.id!r}: {exc}") from exc
        if not cc.counts_state or not cc.counts_input:
            raise ConfigError(f"class {cc.id!r} needs counts_state and counts_input")
        return replace(cls, id=cc.id)
    # external data class
    required = ("state_dim", "input_dim", "state_box", "input_box", "initial_box", "unsafe_box")
    for name in required:
        if getattr(cc, name) is None:
            raise ConfigError(f"data class {cc.id!r} is missing {name!r}")
    if cc.template_exponents is None:
        raise ConfigError(f"data class {cc.id!r} needs template_exponents")
    try:
        safety = SafetySpec(
            initial=_box_from_pair(cc.initial_box, "initial"),
            unsafe=_box_from_pair(cc.unsafe_box, "unsafe"),
        )
        return SubsystemClass(
            id=cc.id,
            state_dim=cc.state_dim,
            input_dim=cc.input_dim,
            state_box=_box_from_pair(cc.state_box, "state"),
            input_box=_box_from_pair(cc.input_box, "input"),
            safety=safety,
            template=StcTemplate(
                state_dim=cc.state_dim, exponents=np.array(cc.template_exponents, dtype=int)
            ),
            oracle=None,
        )
    except InvariantError as exc:
        raise ConfigError(f"data class {cc.id!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Config (de)serialization: versioned JSON, flat key-value style
# ---------------------------------------------------------------------------


def config_from_dict(doc: dict) -> PipelineConfig:
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a JSON object")
    if doc.get("version") != CONFIG_VERSION:
        raise ConfigError(
            f"unsupported config version {doc.get('version')!r}; expected {CONFIG_VERSION}"
        )
    classes = []
    for raw in doc.get("classes", []):
        known = {
            "id", "benchmark", "benchmark_params", "data_csv", "counts_state",
            "counts_input", "template_exponents", "state_dim", "input_dim",
            "state_box", "input_box", "initial_box", "unsafe_box",
        }
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown class keys: {sorted(unknown)}")
        if "id" not in raw:
            raise ConfigError("every class needs an 'id'")
        cc = ClassConfig(
            id=raw["id"],
            benchmark=raw.get("benchmark"),
            benchmark_params=dict(raw.get("benchmark_params", {})),
            data_csv=raw.get("data_csv"),
            counts_state=tuple(raw.get("counts_state", ())),
            counts_input=tuple(raw.get("counts_input", ())),
            template_exponents=(
                tuple(tuple(int(e) for e in row) for row in raw["template_exponents"])
                if raw.get("template_exponents") is not None
                else None
            ),
            state_dim=raw.get("state_dim"),
            input_dim=raw.get("input_dim"),
            state_box=raw.get("state_box"),
            input_box=raw.get("input_box"),
            initial_box=raw.get("initial_box"),
            unsafe_box=raw.get("unsafe_box"),
        )
        classes.append(cc)
    if not classes:
        raise ConfigError("configuration defines no classes")
    scp_doc = doc.get("scp", {})
    lip_doc = doc.get("lipschitz", {})
    refine_doc = doc.get("refine", {})
    topo_doc = doc.get("topology", {})
    try:
        scp = ScpOptions(
            coeff_bound=float(scp_doc.get("coeff_bound", 200.0)),
            gap=float(scp_doc.get("gap", 1e-3)),
            feasibility_tol=float(scp_doc.get("feasibility_tol", 1e-8)),
        )
        lip = LipschitzConfig(
            gamma=float(lip_doc.get("gamma", 0.1)),
            inner_count=int(lip_doc.get("inner_count", 200)),
            outer_count=int(lip_doc.get("outer_count", 30)),
            seed=int(lip_doc.get("seed", 7)),
        )
    except InvariantError as exc:
        raise ConfigError(str(exc)) from exc
    cfg = PipelineConfig(
        classes=classes,
        output_dir=doc.get("output_dir", "netcert-out"),
        surrogate_size=int(topo_doc.get("surrogate_size", doc.get("surrogate_size", 10))),
        topology_kind=topo_doc.get("kind", "ring"),
        weight_decay=float(topo_doc.get("weight_decay", 0.5)),
        scp=scp,
        lipschitz=lip,
        refine_enabled=bool(refine_doc.get("enabled", True)),
        refine_max_retries=int(refine_doc.get("max_retries", 2)),
        portrait_counts=tuple(doc.get("portrait_counts", ())),
        portrait_steps=int(doc.get("portrait_steps", 100)),
        verify_multiplier=int(doc.get("verify_multiplier", 10)),
        export_lp=bool(doc.get("export_lp", False)),
    )
    # materialize every class now so config errors surface before compute
    for cc in classes:
        build_class(cc)
    try:
        cfg.topology()
    except InvariantError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def config_to_dict(cfg: PipelineConfig) -> dict:
    classes = []
    for cc in cfg.classes:
        entry: dict = {"id": cc.id}
        if cc.benchmark is not None:
            entry["benchmark"] = cc.benchmark
            if cc.benchmark_params:
                entry["benchmark_params"] = cc.benchmark_params
            entry["counts_state"] = list(cc.counts_state)
            entry["counts_input"] = list(cc.counts_input)
        else:
            entry.update(
                data_csv=cc.data_csv,
                state_dim=cc.state_dim,
                input_dim=cc.input_dim,
                state_box=cc.state_box,
                input_box=cc.input_box,
                initial_box=cc.initial_box,
                unsafe_box=cc.unsafe_box,
            )
        if cc.template_exponents is not None:
            entry["template_exponents"] = [list(r) for r in cc.template_exponents]
        classes.append(entry)
    return {
        "version": CONFIG_VERSION,
        "output_dir": cfg.output_dir,
        "topology": {
            "kind": cfg.topology_kind,
            "weight_decay": cfg.weight_decay,
            "surrogate_size": cfg.surrogate_size,
        },
        "scp": {
            "coeff_bound": cfg.scp.coeff_bound,
            "gap": cfg.scp.gap,
            "feasibility_tol": cfg.scp.feasibility_tol,
        },
        "lipschitz": {
            "gamma": cfg.lipschitz.gamma,
            "inner_count": cfg.lipschitz.inner_count,
            "outer_count": cfg.lipschitz.outer_count,
            "seed": cfg.lipschitz.seed,
        },
        "refine": {"enabled": cfg.refine_enabled, "max_retries": cfg.refine_max_retries},
        "portrait_counts": list(cfg.portrait_counts),
        "portrait_steps": cfg.portrait_steps,
        "verify_multiplier": cfg.verify_multiplier,
        "export_lp": cfg.export_lp,
        "classes": classes,
    }


def load_config(path) -> PipelineConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read configuration {path}: {exc}") from exc
    return config_from_dict(doc)


# ---------------------------------------------------------------------------
# Synthesis loop
# ---------------------------------------------------------------------------


@dataclass
class ClassRun:
    """Intermediate artifacts for one class in one refinement round."""

    cls: SubsystemClass
    config: ClassConfig
    samples: SampleSet
    solution: ScpSolution
    l1: LipschitzEstimate
    l2: LipschitzEstimate
    margins: ClassMargins


class PipelineError(RuntimeError):
    """A class failed to produce a usable certificate (with diagnosis)."""


def _run_class(cc: ClassConfig, cfg: PipelineConfig, counts_override=None) -> ClassRun:
    cls = build_class(cc)
    if cc.data_csv is not None:
        samples = load_samples_csv(
            cc.data_csv, cls.state_dim, cls.input_dim, cls.joint_box
        )
    else:
        counts = counts_override or (cc.counts_state, cc.counts_input)
        samples = collect_pairs(cls, counts[0], counts[1])
    lp = build_scp(cls, samples, cfg.scp)
    solution = solve_scp(lp)
    if solution.status != "optimal":
        raise PipelineError(
            f"class {cc.id!r}: scenario program {solution.status}"
            + (f" (worst group: {solution.failed_group})" if solution.failed_group else "")
        )
    residuals = check_solution(solution, cls, samples, cfg.scp)
    if not residuals.passed:
        raise PipelineError(
            f"class {cc.id!r}: solution residuals exceed tolerance in group "
            f"{residuals.worst_group!r}: {residuals.max_violation}"
        )
    if cc.data_csv is None:
        l1, l2 = estimate_for_class(cls, solution, cfg.lipschitz)
    else:
        # no oracle: the certificate slope is still sampleable, the decrease
        # slope comes from quotients between recorded transitions
        l1 = estimate_lipschitz(certificate_target(cls, solution), cls.state_box, cfg.lipschitz)
        gamma_vals = eval_template(cls.template, solution.coeffs, samples.fx) - eval_template(
            cls.template, solution.coeffs, samples.x
        )
        l2 = estimate_from_pairs(samples.joint, gamma_vals, cfg.lipschitz)
    margins = class_margins(
        eta=solution.eta,
        beta=solution.beta,
        l1=l1.value,
        l2=l2.value,
        theta=samples.dispersion,
        sigma=solution.sigma,
        phi=solution.phi,
        class_id=cc.id,
    )
    return ClassRun(
        cls=cls, config=cc, samples=samples, solution=solution, l1=l1, l2=l2, margins=margins
    )


def _class_certificate(run: ClassRun, cfg: PipelineConfig) -> ClassCertificate:
    sol = run.solution
    return ClassCertificate(
        class_id=run.config.id,
        template_exponents=tuple(tuple(int(e) for e in row) for row in run.cls.template.exponents),
        coeffs=tuple(float(v) for v in sol.coeffs.coeffs),
        sigma=sol.sigma,
        phi=sol.phi,
        supply_s11=tuple(tuple(float(v) for v in row) for row in sol.supply.s11),
        supply_s12=tuple(tuple(float(v) for v in row) for row in sol.supply.s12),
        supply_s22=tuple(tuple(float(v) for v in row) for row in sol.supply.s22),
        eta=sol.eta,
        beta=sol.beta,
        l1=run.l1.value,
        l2=run.l2.value,
        theta=run.samples.dispersion,
        margins=run.margins,
        sample_count=run.samples.count,
        grid_spec=run.samples.grid_spec,
        lipschitz_config={
            "gamma": cfg.lipschitz.gamma,
            "inner_count": cfg.lipschitz.inner_count,
            "outer_count": cfg.lipschitz.outer_count,
            "seed": cfg.lipschitz.seed,
        },
        l1_fallback=run.l1.fallback_used,
        l2_fallback=run.l2.fallback_used,
    )


@dataclass
class PipelineResult:
    certificate: NetworkCertificate
    runs: list[ClassRun]
    certificate_path: str
    output_dir: str
    refinement_rounds: int


def run_pipeline(cfg: PipelineConfig, write_outputs: bool = True) -> PipelineResult:
    """Collect, solve, estimate, and compose; refine failing classes by
    doubling their grid counts up to the configured retry limit."""
    counts: dict[str, Optional[tuple]] = {cc.id: None for cc in cfg.classes}
    runs: dict[str, ClassRun] = {}
    for cc in cfg.classes:
        runs[cc.id] = _run_class(cc, cfg)
    rounds = 0
    while cfg.refine_enabled and rounds < cfg.refine_max_retries:
        failing = [cc for cc in cfg.classes if not runs[cc.id].margins.satisfied]
        refinable = [cc for cc in failing if cc.data_csv is None]
        if not failing or not refinable:
            break
        rounds += 1
        for cc in refinable:
            prev = counts[cc.id] or (cc.counts_state, cc.counts_input)
            denser = (
                tuple(2 * c for c in prev[0]),
                tuple(2 * c for c in prev[1]),
            )
            counts[cc.id] = denser
            runs[cc.id] = _run_class(cc, cfg, counts_override=denser)
    embedded_config = config_to_dict(cfg)
    # where the artifacts land does not shape the certificate; leaving the
    # path out keeps runs into different directories byte-identical
    embedded_config.pop("output_dir", None)
    certificate = certify(
        [_class_certificate(runs[cc.id], cfg) for cc in cfg.classes],
        reference_size=cfg.surrogate_size,
        provenance={
            "tool_version": __version__,
            "config": embedded_config,
            "refinement_rounds": rounds,
            "sample_counts": {cc.id: runs[cc.id].samples.count for cc in cfg.classes},
        },
    )
    run_list = [runs[cc.id] for cc in cfg.classes]
    cert_path = ""
    if write_outputs:
        cert_path = write_run_outputs(cfg, certificate, run_list)
    return PipelineResult(
        certificate=certificate,
        runs=run_list,
        certificate_path=cert_path,
        output_dir=cfg.output_dir,
        refinement_rounds=rounds,
    )


def write_run_outputs(
    cfg: PipelineConfig, certificate: NetworkCertificate, runs: list[ClassRun]
) -> str:
    """Persist the certificate, the sample sets, and the verification CSVs.
    Returns the certificate path."""
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    cert_path = os.path.join(out, "certificate.json")
    store_certificate(certificate, cert_path)
    report_lines = [render_report(certificate)]
    for run in runs:
        cid = run.config.id
        save_samples_csv(os.path.join(out, f"{cid}_samples.csv"), run.samples)
        if cfg.export_lp:
            lp = build_scp(run.cls, run.samples, cfg.scp)
            export_lp_text(lp, os.path.join(out, f"{cid}_program.lp"))
        mult = max(1, cfg.verify_multiplier)
        state_counts = _verify_counts(run, mult, state_only=True)
        levels = check_level_sets(run.cls, run.solution, state_counts)
        write_levels_csv(os.path.join(out, f"{cid}_levels.csv"), levels)
        pts, vals, _, _ = surface_data(run.cls, run.solution, state_counts)
        write_surface_csv(os.path.join(out, f"{cid}_surface.csv"), run.cls, pts, vals)
        if run.cls.oracle is not None:
            joint_counts = _verify_counts(run, mult, state_only=False)
            points = int(np.prod(joint_counts))
            csv_path = (
                os.path.join(out, f"{cid}_heatmap.csv")
                if points <= HEATMAP_CSV_POINT_CAP
                else None
            )
            heat = decrease_heatmap(
                run.cls, run.solution, joint_counts, l2=run.l2.value, csv_path=csv_path
            )
            report_lines.append(
                f"[{cid}] decrease heatmap: max {heat.max_value!r} at "
                f"{heat.argmax.tolist()} over {heat.point_count} points "
                f"({'<= 0, pass' if heat.passed else '> 0, FAIL'})"
            )
            portrait_counts = cfg.portrait_counts or (5,) * run.cls.state_dim
            portrait = phase_portrait(
                run.cls, cfg.topology(), portrait_counts, cfg.portrait_steps
            )
            write_trajectories_csv(
                os.path.join(out, f"{cid}_trajectories_{cfg.topology_kind}.csv"),
                run.cls,
                portrait,
            )
            report_lines.append(
                f"[{cid}] phase portrait ({cfg.topology_kind}): "
                f"{portrait.unsafe_entries} unsafe entries out of "
                f"{portrait.initial_points.shape[0]} trajectories"
            )
        report_lines.append(
            f"[{cid}] levels: initial max {levels.initial_max!r} vs sigma {levels.sigma!r} "
            f"({'ok' if levels.initial_ok else 'FAIL'}); unsafe min {levels.unsafe_min!r} "
            f"vs phi {levels.phi!r} ({'ok' if levels.unsafe_ok else 'FAIL'})"
        )
    with open(os.path.join(out, "report.txt"), "w") as fh:
        fh.write("\n".join(report_lines) + "\n")
    return cert_path


def _verify_counts(run: ClassRun, mult: int, state_only: bool) -> tuple[int, ...]:
    if run.samples.grid_spec is not None:
        cs, ci = run.samples.grid_spec
    else:
        per_dim = max(3, int(round(run.samples.count ** (1.0 / run.cls.joint_box.dim))))
        cs = (per_dim,) * run.cls.state_dim
        ci = (per_dim,) * run.cls.input_dim
    if state_only:
        return tuple(mult * c for c in cs)
    return tuple(mult * c for c in cs) + tuple(mult * c for c in ci)


def render_report(certificate: NetworkCertificate) -> str:
    lines = [f"verdict: {certificate.verdict}"]
    for cert in certificate.classes:
        m = cert.margins
        lines.append(
            f"[{cert.class_id}] eta={cert.eta!r} beta={cert.beta!r} theta={cert.theta!r} "
            f"L1={cert.l1!r} L2={cert.l2!r}"
        )
        lines.append(
            f"[{cert.class_id}] m1={m.m1!r} m2={m.m2!r} gap={m.gap!r} "
            f"({'satisfied' if m.satisfied else 'violated'})"
        )
    margins = {cert.class_id: cert.margins for cert in certificate.classes}
    for cid, condition, amount in certificate.failures:
        lines.append(
            f"[{cid}] condition {condition} violated by {amount!r}; "
            + _failure_advice(margins[cid], condition)
        )
    return "\n".join(lines)


def _failure_advice(m: ClassMargins, condition: str) -> str:
    """Whether a smaller dispersion could satisfy a violated condition at
    this optimum: m1 = eta* + L1*theta and m2 = eta* + beta* + L2*theta
    shrink towards their theta-free part, which must be negative."""
    if condition == CONDITION_M1:
        free, slope, part = m.eta, m.l1, "eta*"
    elif condition == CONDITION_M2:
        free, slope, part = m.eta + m.beta, m.l2, "eta*+beta*"
    else:
        return "phi* - sigma* does not depend on the dispersion"
    if free >= 0.0:
        return (
            f"{part} = {free!r} >= 0, so the margin stays positive however small "
            "the dispersion theta > 0 gets; more samples cannot satisfy it at this optimum"
        )
    return (
        f"theta < {-free / slope!r} (now {m.theta!r}) would satisfy it at this optimum; "
        "collect more samples (smaller dispersion) and retry"
    )


# ---------------------------------------------------------------------------
# Certificate persistence
# ---------------------------------------------------------------------------


def certificate_to_dict(cert: NetworkCertificate) -> dict:
    return {
        "version": CERTIFICATE_VERSION,
        "verdict": cert.verdict,
        "reference_size": cert.reference_size,
        "failures": [
            {"class_id": cid, "condition": cond, "amount": amount}
            for cid, cond, amount in cert.failures
        ],
        "classes": [
            {
                "class_id": c.class_id,
                "template_exponents": [list(r) for r in c.template_exponents],
                "coeffs": list(c.coeffs),
                "sigma": c.sigma,
                "phi": c.phi,
                "supply_s11": [list(r) for r in c.supply_s11],
                "supply_s12": [list(r) for r in c.supply_s12],
                "supply_s22": [list(r) for r in c.supply_s22],
                "eta": c.eta,
                "beta": c.beta,
                "l1": c.l1,
                "l2": c.l2,
                "theta": c.theta,
                "m1": c.margins.m1,
                "m2": c.margins.m2,
                "gap": c.margins.gap,
                "sample_count": c.sample_count,
                "grid_spec": (
                    [list(c.grid_spec[0]), list(c.grid_spec[1])] if c.grid_spec else None
                ),
                "lipschitz_config": c.lipschitz_config,
                "l1_fallback": c.l1_fallback,
                "l2_fallback": c.l2_fallback,
            }
            for c in cert.classes
        ],
        "provenance": cert.provenance,
    }


def certificate_from_dict(doc: dict) -> NetworkCertificate:
    if not isinstance(doc, dict):
        raise CertificateFormatError("certificate document must be a JSON object")
    if doc.get("version") != CERTIFICATE_VERSION:
        raise CertificateFormatError(
            f"unsupported certificate version {doc.get('version')!r}; "
            f"expected {CERTIFICATE_VERSION}"
        )
    try:
        classes = []
        for c in doc["classes"]:
            margins = class_margins(
                eta=c["eta"],
                beta=c["beta"],
                l1=c["l1"],
                l2=c["l2"],
                theta=c["theta"],
                sigma=c["sigma"],
                phi=c["phi"],
                class_id=c["class_id"],
            )
            classes.append(
                ClassCertificate(
                    class_id=c["class_id"],
                    template_exponents=tuple(tuple(int(e) for e in r) for r in c["template_exponents"]),
                    coeffs=tuple(float(v) for v in c["coeffs"]),
                    sigma=float(c["sigma"]),
                    phi=float(c["phi"]),
                    supply_s11=tuple(tuple(float(v) for v in r) for r in c["supply_s11"]),
                    supply_s12=tuple(tuple(float(v) for v in r) for r in c["supply_s12"]),
                    supply_s22=tuple(tuple(float(v) for v in r) for r in c["supply_s22"]),
                    eta=float(c["eta"]),
                    beta=float(c["beta"]),
                    l1=float(c["l1"]),
                    l2=float(c["l2"]),
                    theta=float(c["theta"]),
                    margins=margins,
                    sample_count=int(c["sample_count"]),
                    grid_spec=(
                        (tuple(c["grid_spec"][0]), tuple(c["grid_spec"][1]))
                        if c.get("grid_spec")
                        else None
                    ),
                    lipschitz_config=c.get("lipschitz_config"),
                    l1_fallback=bool(c.get("l1_fallback", False)),
                    l2_fallback=bool(c.get("l2_fallback", False)),
                )
            )
        return NetworkCertificate(
            classes=tuple(classes),
            verdict=doc["verdict"],
            failures=tuple(
                (f["class_id"], f["condition"], float(f["amount"])) for f in doc["failures"]
            ),
            reference_size=int(doc["reference_size"]),
            provenance=dict(doc.get("provenance", {})),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CertificateFormatError(f"malformed certificate document: {exc}") from exc


def store_certificate(cert: NetworkCertificate, path) -> None:
    text = json.dumps(certificate_to_dict(cert), indent=2, sort_keys=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def load_certificate(path) -> NetworkCertificate:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CertificateFormatError(f"cannot read certificate {path}: {exc}") from exc
    return certificate_from_dict(doc)
