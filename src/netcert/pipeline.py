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
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
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
from .scp import (
    ScpOptions,
    ScpSolution,
    build_scp,
    check_solution,
    export_lp_text,
    solve_scp,
)
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


# the keys only one kind of class takes; id and template_exponents apply to both
BENCHMARK_CLASS_KEYS = ("benchmark_params", "counts_state", "counts_input")
DATA_CLASS_KEYS = ("state_dim", "input_dim", "state_box", "input_box", "initial_box", "unsafe_box")


@dataclass(frozen=True)
class RefineConfig:
    """Grid refinement: failing benchmark classes are re-run with doubled
    grid counts, at most ``max_retries`` times."""

    enabled: bool = True
    max_retries: int = 2


@dataclass
class PipelineConfig:
    classes: list[ClassConfig]
    output_dir: str = "netcert-out"
    topology: Topology = field(default_factory=lambda: Topology(kind="ring", surrogate_size=10))
    scp: ScpOptions = field(default_factory=ScpOptions)
    lipschitz: LipschitzConfig = field(
        default_factory=lambda: LipschitzConfig(gamma=0.1, inner_count=200, outer_count=30, seed=7)
    )
    refine: RefineConfig = field(default_factory=RefineConfig)
    portrait_counts: tuple[int, ...] = ()
    portrait_steps: int = 100
    verify_multiplier: int = 10
    export_lp: bool = False


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
        kind, foreign = "benchmark", DATA_CLASS_KEYS
    else:
        kind, foreign = "data", BENCHMARK_CLASS_KEYS
    defaults = _defaults(ClassConfig)
    for name in foreign:
        if getattr(cc, name) != defaults[name]:
            raise ConfigError(f"{kind} class {cc.id!r} does not take {name!r}")
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
    for name in DATA_CLASS_KEYS:
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
# JSON schema.  Config and certificate records are read and written through
# their dataclasses, so each field list and each default is written once.
# ---------------------------------------------------------------------------


def _defaults(kind) -> dict:
    """Default value of every field of dataclass ``kind`` that has one."""
    out = {}
    for f in fields(kind):
        if f.default is not MISSING:
            out[f.name] = f.default
        elif f.default_factory is not MISSING:
            out[f.name] = f.default_factory()
    return out


def _at(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def _read(kind, doc, path: str, base=None):
    """Dataclass ``kind`` from the JSON object ``doc``: ``base`` (or the
    dataclass defaults) updated by the document's keys, each coerced to its
    field's type.  Unknown, missing or ill-typed keys and values the
    dataclass rejects raise ConfigError naming their path."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path or 'document'} must be a JSON object")
    hints = typing.get_type_hints(kind)
    defaults = _defaults(kind)
    names = [f.name for f in fields(kind) if f.init]
    for key in doc:
        if key not in names:
            raise ConfigError(f"unknown key {_at(path, key)!r}")
    if base is None:
        for name in names:
            if name not in doc and name not in defaults:
                raise ConfigError(f"missing key {_at(path, name)!r}")
    values = {
        key: _coerce(hints[key], value, _at(path, key), defaults.get(key))
        for key, value in doc.items()
    }
    try:
        return kind(**values) if base is None else replace(base, **values)
    except InvariantError as exc:
        raise ConfigError(f"{path or 'document'}: {exc}") from exc


def _coerce(hint, value, path: str, default=None):
    """``value`` as type ``hint``: records are read by ``_read`` (updating
    ``default``), sequences item by item, numbers and flags by conversion."""
    if is_dataclass(hint):
        return _read(hint, value, path, default)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:  # Optional[X]
        return None if value is None else _coerce(args[0], value, path)
    if origin in (list, tuple):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path} must be a list")
        item_hints = [args[0]] * len(value) if origin is list or args[-1] is ... else args
        if len(item_hints) != len(value):
            raise ConfigError(f"{path} must have {len(item_hints)} entries")
        items = enumerate(zip(item_hints, value))
        return origin(_coerce(h, v, f"{path}[{i}]") for i, (h, v) in items)
    if hint in (str, dict):
        if not isinstance(value, hint):
            raise ConfigError(f"{path} must be a JSON {'string' if hint is str else 'object'}")
        return hint(value)
    try:
        return hint(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _plain(value, omit_defaults: bool = False):
    """JSON form of a record: dataclasses become objects, tuples lists.
    With ``omit_defaults`` the fields still at their default are left out."""
    if is_dataclass(value):
        defaults = _defaults(type(value)) if omit_defaults else {}
        return {
            f.name: _plain(getattr(value, f.name))
            for f in fields(value)
            if f.name not in defaults or getattr(value, f.name) != defaults[f.name]
        }
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def config_from_dict(doc: dict) -> PipelineConfig:
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a JSON object")
    if doc.get("version") != CONFIG_VERSION:
        raise ConfigError(
            f"unsupported config version {doc.get('version')!r}; expected {CONFIG_VERSION}"
        )
    cfg = _read(PipelineConfig, {k: v for k, v in doc.items() if k != "version"}, "")
    if not cfg.classes:
        raise ConfigError("configuration defines no classes")
    # materialize every class now so config errors surface before compute
    for cc in cfg.classes:
        build_class(cc)
    return cfg


def config_to_dict(cfg: PipelineConfig) -> dict:
    # a class entry names only the keys it sets, hence only its own kind's
    classes = [_plain(cc, omit_defaults=True) for cc in cfg.classes]
    return {"version": CONFIG_VERSION, **_plain(cfg), "classes": classes}


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
    certificate: ClassCertificate


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
    return ClassRun(
        cls=cls,
        config=cc,
        samples=samples,
        solution=solution,
        l1=l1,
        l2=l2,
        certificate=ClassCertificate(
            class_id=cc.id,
            template_exponents=_rows(cls.template.exponents),
            coeffs=tuple(solution.coeffs.coeffs.tolist()),
            sigma=solution.sigma,
            phi=solution.phi,
            supply_s11=_rows(solution.supply.s11),
            supply_s12=_rows(solution.supply.s12),
            supply_s22=_rows(solution.supply.s22),
            eta=solution.eta,
            beta=solution.beta,
            l1=l1.value,
            l2=l2.value,
            theta=samples.dispersion,
            sample_count=samples.count,
            grid_spec=samples.grid_spec,
            lipschitz_config=cfg.lipschitz,
            l1_fallback=l1.fallback_used,
            l2_fallback=l2.fallback_used,
        ),
    )


def _rows(matrix: np.ndarray) -> tuple[tuple, ...]:
    return tuple(map(tuple, matrix.tolist()))


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
    while cfg.refine.enabled and rounds < cfg.refine.max_retries:
        failing = [cc for cc in cfg.classes if not runs[cc.id].certificate.margins.satisfied]
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
        [runs[cc.id].certificate for cc in cfg.classes],
        reference_size=cfg.topology.surrogate_size,
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
                run.cls, cfg.topology, portrait_counts, cfg.portrait_steps
            )
            write_trajectories_csv(
                os.path.join(out, f"{cid}_trajectories_{cfg.topology.kind}.csv"),
                run.cls,
                portrait,
            )
            report_lines.append(
                f"[{cid}] phase portrait ({cfg.topology.kind}): "
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


FAILURE_KEYS = ("class_id", "condition", "amount")  # one entry of "failures"
MARGIN_KEYS = ("m1", "m2", "gap")  # stored with each class, recomputed on load


def _failures_to_list(failures) -> list[dict]:
    return [dict(zip(FAILURE_KEYS, failure)) for failure in failures]


def _margins_to_dict(cert: ClassCertificate) -> dict:
    return {key: getattr(cert.margins, key) for key in MARGIN_KEYS}


def certificate_to_dict(cert: NetworkCertificate) -> dict:
    return {
        "version": CERTIFICATE_VERSION,
        **_plain(cert),
        "failures": _failures_to_list(cert.failures),
        "classes": [{**_plain(c), **_margins_to_dict(c)} for c in cert.classes],
    }


def certificate_from_dict(doc: dict) -> NetworkCertificate:
    """Rebuild the certificate from its classes with ``certify``.  The stored
    verdict, failures and margins must equal the recomputed ones exactly:
    the same arithmetic on the same stored floats gives the same bits."""
    if not isinstance(doc, dict):
        raise CertificateFormatError("certificate document must be a JSON object")
    if doc.get("version") != CERTIFICATE_VERSION:
        raise CertificateFormatError(
            f"unsupported certificate version {doc.get('version')!r}; "
            f"expected {CERTIFICATE_VERSION}"
        )
    known = {"version", *(f.name for f in fields(NetworkCertificate))}
    try:
        for key in doc:
            if key not in known:
                raise ConfigError(f"unknown key {key!r}")
        entries = _coerce(list[dict], doc["classes"], "classes")
        classes = []
        for i, entry in enumerate(entries):
            record = {k: v for k, v in entry.items() if k not in MARGIN_KEYS}
            classes.append(_read(ClassCertificate, record, f"classes[{i}]"))
        cert = certify(
            classes,
            reference_size=_coerce(int, doc["reference_size"], "reference_size"),
            provenance=_coerce(dict, doc.get("provenance", {}), "provenance"),
        )
        stored = {
            "verdict": doc["verdict"],
            "failures": doc["failures"],
            "margins": [{key: e[key] for key in MARGIN_KEYS} for e in entries],
        }
        recomputed = {
            "verdict": cert.verdict,
            "failures": _failures_to_list(cert.failures),
            "margins": [_margins_to_dict(c) for c in cert.classes],
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise CertificateFormatError(f"malformed certificate document: {exc}") from exc
    for key, value in stored.items():
        if value != recomputed[key]:
            raise CertificateFormatError(
                f"stored {key} {value!r} differ from the recomputed {recomputed[key]!r}"
            )
    return cert


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
