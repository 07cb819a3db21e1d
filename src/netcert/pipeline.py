"""End-to-end orchestration: configuration, the synthesis loop, and
certificate persistence.

A run is fully determined by its configuration file (seeds included);
re-running the same configuration produces byte-identical artifacts, which
is why certificates deliberately carry no wall-clock fields and all floats
are serialized in shortest round-trip form.
"""
from __future__ import annotations

import errno
import json
import math
import numbers
import os
import tempfile
import typing
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from typing import Optional

import numpy as np

from . import __version__
from .blackbox import BENCHMARKS, SurrogateRuns, Topology
from .compose import (
    CONDITION_M1,
    CONDITION_M2,
    ClassCertificate,
    ClassMargins,
    NetworkCertificate,
)
from .core import (
    IntervalBox,
    InvariantError,
    SafetySpec,
    StcTemplate,
    SubsystemClass,
)
from .lipschitz import LipschitzConfig, estimate_for_class
from .sampling import (
    DataFaultError,
    SampleSet,
    collect_pairs,
    load_samples_csv,
    save_samples_csv,
)
from .scp import (
    LinearProgram,
    ScpOptions,
    ScpSolution,
    ScpSolveError,
    build_scp,
    check_solution,
    export_lp_text,
    solve_scp,
)
from .verify import (
    HeatmapSummary,
    LevelSetReport,
    check_level_sets,
    decrease_heatmap,
    phase_portrait,
    surface_data,
    write_levels_csv,
    write_surface_csv,
    write_trajectories_csv,
)

CONFIG_VERSION = 1
CERTIFICATE_VERSION = 2
# a larger decrease heatmap is summarised in report.txt but not written as CSV
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

    def __post_init__(self):
        # against the working directory, as output_dir is, so the embedded
        # configuration names the same file wherever it is verified from
        if self.data_csv is not None:
            self.data_csv = os.path.abspath(self.data_csv)


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

    def __post_init__(self):
        if min(self.portrait_counts, default=1) < 1:
            raise InvariantError(
                f"portrait_counts must all be >= 1, got {list(self.portrait_counts)}"
            )
        if self.portrait_steps < 0:
            raise InvariantError(f"portrait_steps must be >= 0, got {self.portrait_steps}")
        if self.verify_multiplier < 1:
            raise InvariantError(f"verify_multiplier must be >= 1, got {self.verify_multiplier}")


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
        for name, dim in (("counts_state", cls.state_dim), ("counts_input", cls.input_dim)):
            counts = getattr(cc, name)
            if len(counts) != dim or min(counts) < 1:
                raise ConfigError(
                    f"class {cc.id!r}: {name} must hold one count >= 1 per dimension "
                    f"({dim}); got {list(counts)}"
                )
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
            data_csv=cc.data_csv,
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
    field's type.  A field the record derives (``init=False``), such as a
    margin or the verdict, must be stored as the JSON form of its recomputed
    value.  Unknown, missing, ill-typed or differing keys and values the
    dataclass rejects raise ConfigError naming their path."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path or 'document'} must be a JSON object")
    hints = typing.get_type_hints(kind)
    defaults = _defaults(kind)
    names = [f.name for f in fields(kind) if f.init]
    derived = [f.name for f in fields(kind) if not f.init]
    for key in doc:
        if key not in names and key not in derived:
            raise ConfigError(f"unknown key {_at(path, key)!r}")
    required = [name for name in names if name not in defaults] if base is None else []
    for name in required + derived:
        if name not in doc:
            raise ConfigError(f"missing key {_at(path, name)!r}")
    values = {
        key: _coerce(hints[key], value, _at(path, key), defaults.get(key))
        for key, value in doc.items()
        if key in names
    }
    try:
        record = kind(**values) if base is None else replace(base, **values)
    except ValueError as exc:  # InvariantError, DimensionError or a ragged array
        raise ConfigError(f"{path or 'document'}: {exc}") from exc
    for name in derived:
        recomputed = _plain(getattr(record, name))
        if doc[name] != recomputed:
            raise ConfigError(
                f"stored {_at(path, name)} {doc[name]!r} differ from the recomputed "
                f"{recomputed!r}"
            )
    return record


JSON_KINDS = {str: "string", dict: "object", bool: "boolean"}


def _coerce(hint, value, path: str, default=None):
    """``value`` as type ``hint``: records are read by ``_read`` (updating
    ``default``), sequences item by item.  A flag must be a JSON boolean, an
    int an integral number and a float a finite one; a bool is no number."""
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
    if hint in (str, dict, bool):
        if not isinstance(value, hint):
            raise ConfigError(f"{path} must be a JSON {JSON_KINDS[hint]}")
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{path} must be a JSON number")
    if not isinstance(value, numbers.Integral):
        if not math.isfinite(value):
            raise ConfigError(f"{path} must be finite, not {value!r}")
        if hint is int and not float(value).is_integer():
            raise ConfigError(f"{path} must be an integer, not {value!r}")
    try:
        return hint(value)
    except OverflowError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _plain(value, omit_defaults: bool = False):
    """JSON form of a record: dataclasses and named tuples become objects,
    other tuples lists.  With ``omit_defaults`` the fields of a dataclass
    still at their default are left out."""
    if hasattr(value, "_asdict"):  # a named tuple
        return {key: _plain(v) for key, v in value._asdict().items()}
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
    ids = [cc.id for cc in cfg.classes]
    for i, class_id in enumerate(ids):
        if class_id in ids[:i]:  # its output files would overwrite the first's
            raise ConfigError(f"class id {class_id!r} is used by more than one class")
    # materialize every class now so config errors surface before compute
    for cc in cfg.classes:
        cls = build_class(cc)
        if cls.oracle is not None and len(cfg.portrait_counts) not in (0, cls.state_dim):
            raise ConfigError(
                f"portrait_counts must be empty or hold one count per state dimension "
                f"({cls.state_dim}) of class {cc.id!r}; got {list(cfg.portrait_counts)}"
            )
    return cfg


def config_to_dict(cfg: PipelineConfig) -> dict:
    # a class entry names only the keys it sets, hence only its own kind's
    classes = [_plain(cc, omit_defaults=True) for cc in cfg.classes]
    return {"version": CONFIG_VERSION, **_plain(cfg), "classes": classes}


def read_json(path, error: type[Exception], what: str):
    """The JSON document in file ``path``; a ``what`` it cannot read raises ``error``."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def load_config(path) -> PipelineConfig:
    return config_from_dict(read_json(path, ConfigError, "configuration"))


# ---------------------------------------------------------------------------
# Synthesis loop
# ---------------------------------------------------------------------------


@dataclass
class ClassRun:
    """Intermediate artifacts for one class in one refinement round."""

    cls: SubsystemClass
    samples: SampleSet
    program: LinearProgram
    solution: ClassCertificate


class PipelineError(RuntimeError):
    """A class failed to produce a usable certificate (with diagnosis)."""


@contextmanager
def faults_of(class_id: str):
    """Re-raise a ``DataFaultError`` with the class it arose in."""
    try:
        yield
    except DataFaultError as exc:
        raise DataFaultError(f"class {class_id!r}: {exc}") from exc


def class_samples(cls: SubsystemClass, counts) -> SampleSet:
    """The class's data CSV, or its oracle on the (state, input) ``counts`` grid."""
    with faults_of(cls.id):
        if cls.data_csv is not None:
            return load_samples_csv(cls.data_csv, cls.state_dim, cls.input_dim, cls.joint_box)
        return collect_pairs(cls, counts[0], counts[1])


def certify_class(
    cls: SubsystemClass, samples: SampleSet, solution: ScpSolution, cfg: PipelineConfig
) -> ClassCertificate:
    """The certificate of ``solution`` on ``samples``, with the slacks the evaluators
    give; a row above the solution's own slacks by over ``feasibility_tol`` fails it."""
    residuals = check_solution(solution, cls, samples, cfg.scp)
    if not residuals.passed:
        raise PipelineError(
            f"class {cls.id!r}: solution residuals exceed tolerance in group "
            f"{residuals.worst_group!r}: {residuals.max_violation}"
        )
    with faults_of(cls.id):
        l1, l2 = estimate_for_class(cls, solution, cfg.lipschitz, samples)
    optimum = {f.name: getattr(solution, f.name) for f in fields(ScpSolution)}
    return ClassCertificate(
        **{**optimum, "eta": residuals.eta, "beta": residuals.beta},
        class_id=cls.id,
        template_exponents=tuple(map(tuple, cls.template.exponents.tolist())),
        l1=l1.value,
        l2=l2.value,
        theta=samples.dispersion,
        sample_count=samples.count,
        grid_spec=samples.grid_spec,
        l1_fallback=l1.fallback_used,
        l2_fallback=l2.fallback_used,
    )


def _run_class(cls: SubsystemClass, counts, cfg: PipelineConfig) -> ClassRun:
    samples = class_samples(cls, counts)
    lp = build_scp(cls, samples, cfg.scp)
    try:
        solution = solve_scp(lp)
    except ScpSolveError as exc:
        raise PipelineError(f"class {cls.id!r}: {exc}") from exc
    return ClassRun(cls, samples, lp, certify_class(cls, samples, solution, cfg))


@dataclass
class PipelineResult:
    certificate: NetworkCertificate
    runs: list[ClassRun]
    certificate_path: str

    @property
    def refinement_rounds(self) -> int:
        return self.certificate.provenance["refinement_rounds"]


def run_pipeline(cfg: PipelineConfig, write_outputs: bool = True) -> PipelineResult:
    """Collect, solve, estimate, and compose, then write the outputs.  Their
    staging directory is made before any sample is drawn, so an output
    directory that cannot be made fails the run before it computes."""
    if not write_outputs:
        return PipelineResult(*_certify_network(cfg), certificate_path="")
    with _output_stage(cfg.output_dir) as stage:
        certificate, runs = _certify_network(cfg)
        return PipelineResult(certificate, runs, write_run_outputs(cfg, certificate, runs, stage))


def _certify_network(cfg: PipelineConfig) -> tuple[NetworkCertificate, list[ClassRun]]:
    """Certify each class, refining failing classes by doubling their grid
    counts up to the configured retry limit, and compose the certificate."""
    runs = [
        _run_class(build_class(cc), (cc.counts_state, cc.counts_input), cfg) for cc in cfg.classes
    ]
    rounds = 0
    while cfg.refine.enabled and rounds < cfg.refine.max_retries:
        failing = [i for i, run in enumerate(runs) if not run.solution.satisfied]
        refinable = [i for i in failing if runs[i].cls.data_csv is None]
        if not refinable:
            break
        rounds += 1
        for i in refinable:
            denser = tuple(tuple(2 * c for c in part) for part in runs[i].samples.grid_spec)
            runs[i] = _run_class(runs[i].cls, denser, cfg)
    # where the artifacts land and whether the LP text is written do not shape
    # the certificate; leaving them out keeps such runs byte-identical
    embedded_config = config_to_dict(cfg)
    del embedded_config["output_dir"], embedded_config["export_lp"]
    certificate = NetworkCertificate(
        tuple(run.solution for run in runs),
        provenance={
            "tool_version": __version__,
            "config": embedded_config,
            "refinement_rounds": rounds,
        },
    )
    return certificate, runs


@dataclass
class ClassDiagnostics:
    """Dense-grid checks of one class's solution, apart from its margins:
    the level sets and, for a class with an oracle, the decrease heatmap and
    a surrogate phase portrait under a ``topology_kind`` topology."""

    class_id: str
    topology_kind: str
    levels: LevelSetReport
    heatmap: Optional[HeatmapSummary] = None
    portrait: Optional[SurrogateRuns] = None
    # the heatmap was too large for its CSV, which was asked for
    heatmap_csv_skipped: bool = False

    @property
    def passed(self) -> bool:
        """Levels pass, heatmap max <= 0, and no trajectory enters the unsafe
        box, leaves the state box or has a node input clamped into the input
        box: a surrogate that left the setting the certificate covers fails."""
        runs = self.portrait
        return (
            self.levels.passed
            and (self.heatmap is None or self.heatmap.passed)
            and (runs is None or not (runs.unsafe_entries or runs.box_exits or runs.clamp_events.any()))
        )

    def lines(self) -> list[str]:
        """The class's diagnostic lines, as ``report.txt`` holds them."""
        cid, heat, levels = self.class_id, self.heatmap, self.levels
        lines = []
        if heat is not None:
            lines.append(
                f"[{cid}] decrease heatmap: max {heat.max_value!r} at "
                f"{heat.argmax.tolist()} over {heat.point_count} points "
                f"({'<= 0, pass' if heat.passed else '> 0, FAIL'})"
            )
            if self.heatmap_csv_skipped:
                lines.append(
                    f"[{cid}] decrease heatmap CSV not written: {heat.point_count} points "
                    f"exceed the cap of {HEATMAP_CSV_POINT_CAP}"
                )
        if self.portrait is not None:
            lines.append(portrait_line(cid, self.topology_kind, self.portrait))
        lines.append(
            f"[{cid}] levels: initial max {levels.initial_max!r} vs sigma {levels.sigma!r} "
            f"({'ok' if levels.initial_ok else 'FAIL'}); unsafe min {levels.unsafe_min!r} "
            f"vs phi {levels.phi!r} ({'ok' if levels.unsafe_ok else 'FAIL'}); "
            f"phi - sigma {levels.phi - levels.sigma!r} ({'ok' if levels.gap_ok else 'FAIL'})"
        )
        return lines


def portrait_line(class_id: str, topology_kind: str, portrait: SurrogateRuns) -> str:
    return (
        f"[{class_id}] phase portrait ({topology_kind}): {portrait.unsafe_entries} unsafe "
        f"entries and {portrait.box_exits} box exits out of {portrait.states.shape[0]} "
        f"trajectories, {int(portrait.clamp_events.sum())} clamp events"
    )


def program_line(class_id: str, program: LinearProgram) -> str:
    """The shape of the class's scenario program: the rows built, the rows of
    the HiGHS model that solved it, the columns and the model's nonzeros."""
    return (
        f"[{class_id}] LP: {program.rows} rows built, {program.kept.size} in the HiGHS "
        f"model, {program.c.size} columns, {program.column_counts.sum()} nonzeros"
    )


def diagnose_class(
    cls: SubsystemClass,
    solution: ScpSolution,
    topology: Topology,
    counts: tuple[tuple[int, ...], tuple[int, ...]],
    portrait_counts: tuple[int, ...],
    steps: int,
    out: Optional[str] = None,
) -> ClassDiagnostics:
    """Check ``solution`` on grids of (state, input) ``counts`` and, for a
    class with an oracle, simulate from a ``portrait_counts`` grid of the
    initial box for ``steps`` steps.  With ``out``, the level, surface,
    heatmap (up to ``HEATMAP_CSV_POINT_CAP`` points) and trajectory CSVs are
    written there."""
    cid = cls.id
    state_counts, input_counts = counts
    levels = check_level_sets(cls, solution, state_counts)
    if out is not None:
        write_levels_csv(os.path.join(out, f"{cid}_levels.csv"), levels)
        pts, vals = surface_data(cls, solution, state_counts)
        write_surface_csv(os.path.join(out, f"{cid}_surface.csv"), cls, pts, vals)
    if cls.oracle is None:
        return ClassDiagnostics(cid, topology.kind, levels)
    joint_counts = state_counts + input_counts
    csv_path = None
    if out is not None and int(np.prod(joint_counts)) <= HEATMAP_CSV_POINT_CAP:
        csv_path = os.path.join(out, f"{cid}_heatmap.csv")
    with faults_of(cid):
        heatmap = decrease_heatmap(cls, solution, joint_counts, csv_path=csv_path)
        portrait = phase_portrait(cls, topology, portrait_counts, steps)
    if out is not None:
        write_trajectories_csv(
            os.path.join(out, f"{cid}_trajectories_{topology.kind}.csv"), cls, portrait
        )
    skipped = out is not None and csv_path is None
    return ClassDiagnostics(cid, topology.kind, levels, heatmap, portrait, skipped)


def _unwritable(out: str, exc: OSError) -> ConfigError:
    return ConfigError(f"cannot write output directory {out}: {exc}")


def _output_stage(out: str) -> tempfile.TemporaryDirectory:
    """An empty staging directory in the nearest existing directory above
    ``out``, on the file system that ``out`` will be made on; ``out`` and its
    missing parents are made only when the files move in.  An ``out`` that
    exists but is no directory, or lies under a regular file, is a
    ``ConfigError`` naming it."""
    try:
        if os.path.lexists(out) and not os.path.isdir(out):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), out)
        parent = os.path.dirname(os.path.abspath(out))
        while not os.path.lexists(parent):
            parent = os.path.dirname(parent)
        return tempfile.TemporaryDirectory(prefix=".netcert-stage-", dir=parent)
    except OSError as exc:
        raise _unwritable(out, exc) from exc


def write_run_outputs(
    cfg: PipelineConfig, certificate: NetworkCertificate, runs: list[ClassRun], stage: str
) -> str:
    """Persist the certificate, the sample sets, and the verification CSVs.
    Returns the certificate path.  The files are written into ``stage``, a
    directory from ``_output_stage``, and moved into ``output_dir`` once every
    class's diagnostics have returned, so a failed run leaves the output
    directory as it was, and makes none that was missing.  A directory that cannot be written is a
    ``ConfigError`` naming it."""
    out = cfg.output_dir
    try:
        store_certificate(certificate, os.path.join(stage, "certificate.json"))
        report_lines = [render_report(certificate)]
        for run in runs:
            cid = run.cls.id
            save_samples_csv(os.path.join(stage, f"{cid}_samples.csv"), run.samples)
            if cfg.export_lp:
                export_lp_text(run.program, os.path.join(stage, f"{cid}_program.lp"))
            diagnostics = diagnose_class(
                run.cls,
                run.solution,
                cfg.topology,
                _verify_counts(run, cfg.verify_multiplier),
                cfg.portrait_counts or (5,) * run.cls.state_dim,
                cfg.portrait_steps,
                out=stage,
            )
            report_lines += [program_line(cid, run.program), *diagnostics.lines()]
        with open(os.path.join(stage, "report.txt"), "w") as fh:
            fh.write("\n".join(report_lines) + "\n")
        os.makedirs(out, exist_ok=True)
        for name in sorted(os.listdir(stage)):
            os.replace(os.path.join(stage, name), os.path.join(out, name))
    except OSError as exc:
        raise _unwritable(out, exc) from exc
    return os.path.join(out, "certificate.json")


def _verify_counts(run: ClassRun, mult: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if run.samples.grid_spec is not None:
        cs, ci = run.samples.grid_spec
    else:
        per_dim = max(3, int(round(run.samples.count ** (1.0 / run.cls.joint_box.dim))))
        cs = (per_dim,) * run.cls.state_dim
        ci = (per_dim,) * run.cls.input_dim
    return tuple(mult * c for c in cs), tuple(mult * c for c in ci)


def render_report(certificate: NetworkCertificate) -> str:
    lines = [f"verdict: {certificate.verdict}"]
    for cert in certificate.classes:
        lines.append(
            f"[{cert.class_id}] eta={cert.eta!r} beta={cert.beta!r} theta={cert.theta!r} "
            f"L1={cert.l1!r} L2={cert.l2!r}"
        )
        lines.append(
            f"[{cert.class_id}] m1={cert.m1!r} m2={cert.m2!r} gap={cert.gap!r} "
            f"({'satisfied' if cert.satisfied else 'violated'})"
        )
    for cid, condition, amount in certificate.failures:
        lines.append(
            f"[{cid}] condition {condition} violated by {amount!r}; "
            + _failure_advice(certificate.class_by_id(cid), condition)
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
    return {"version": CERTIFICATE_VERSION, **_plain(cert)}


def certificate_from_dict(doc: dict) -> NetworkCertificate:
    """The certificate read through its dataclasses, whose recomputed margins,
    failures and verdict must equal the stored ones bit for bit."""
    if not isinstance(doc, dict):
        raise CertificateFormatError("certificate document must be a JSON object")
    if doc.get("version") != CERTIFICATE_VERSION:
        raise CertificateFormatError(
            f"unsupported certificate version {doc.get('version')!r}; "
            f"expected {CERTIFICATE_VERSION}"
        )
    try:
        return _read(NetworkCertificate, {k: v for k, v in doc.items() if k != "version"}, "")
    except ConfigError as exc:
        raise CertificateFormatError(f"malformed certificate document: {exc}") from exc


def store_certificate(cert: NetworkCertificate, path) -> None:
    text = json.dumps(certificate_to_dict(cert), indent=2, sort_keys=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def load_certificate(path) -> NetworkCertificate:
    return certificate_from_dict(read_json(path, CertificateFormatError, "certificate"))
