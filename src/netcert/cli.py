"""Command-line entry points.

    netcert synth     --config cfg.json        full synthesis run
    netcert verify    --certificate cert.json  re-check a stored certificate
    netcert lipschitz ...                      slope estimation, standalone
    netcert simulate  --config cfg.json        surrogate phase portraits
    netcert margins   --eta ... --theta ...    margin arithmetic on numbers

Exit status of ``synth`` is 0 exactly when the verdict is certified.
Configuration comes only from the file and explicit flags; environment
variables are never consulted, so runs are reproducible by construction.
The bundled BLAS runs on one thread, the setting the dense heatmap's thread
pool is sized for.  Importing this module sets ``OPENBLAS_NUM_THREADS`` to 1
before numpy loads, and of scipy loads only the HiGHS extension, which links
no BLAS; scipy's L-BFGS-B extension and the OpenBLAS copy it links load at
the first slope fit, after the scenario solve, under the same variable.  So
neither copy starts worker threads.  ``main`` still calls
``verify.one_blas_thread`` for a process that loaded numpy or scipy before
this module.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace

# read by each bundled OpenBLAS as it loads; set over any inherited value, since
# main forces one thread anyway and a larger count only starts idle workers
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from .blackbox import TOPOLOGY_KINDS
from .compose import ClassMargins
from .core import IntervalBox, InvariantError
from .lipschitz import LipschitzConfig, estimate_for_class, estimate_lipschitz
from .pipeline import (
    CertificateFormatError,
    ConfigError,
    PipelineError,
    build_class,
    certify_class,
    class_samples,
    config_from_dict,
    diagnose_class,
    faults_of,
    load_certificate,
    portrait_line,
    read_json,
    run_pipeline,
    render_report,
)
from .sampling import CoverageError, DataFaultError
from .verify import one_blas_thread, phase_portrait, write_trajectories_csv

EXIT_CERTIFIED = 0
EXIT_NOT_CERTIFIED = 1
EXIT_CONFIG_ERROR = 2
EXIT_COMPUTE_ERROR = 3


# flag -> (config path it sets, argparse keywords); a flag's value is checked
# like the same value in the file, before any compute
CONFIG_FLAGS = {
    "--output-dir": ("output_dir", {}),
    "--surrogate-size": ("topology.surrogate_size", {"type": int}),
    "--topology": ("topology.kind", {"choices": TOPOLOGY_KINDS}),
    "--coeff-bound": ("scp.coeff_bound", {"type": float}),
    "--gap": ("scp.gap", {"type": float}),
    "--seed": ("lipschitz.seed", {"type": int}),
    "--no-refine": ("refine.enabled", {"action": "store_const", "const": False}),
    "--export-lp": ("export_lp", {"action": "store_const", "const": True}),
}


def _at_least(low: int):
    """argparse ``type=``: an integer of at least ``low``, else exit 2."""

    def integer(text):
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        return int(text)

    return integer


def _add_config_flags(parser, *flags) -> None:
    for flag in flags:
        path, kwargs = CONFIG_FLAGS[flag]
        parser.add_argument(flag, dest=path, default=None, **kwargs)


def _load_config(args):
    """The configuration file with every given config flag set over it; a
    section the file leaves out takes its other values from the defaults."""
    doc = read_json(args.config, ConfigError, "configuration")
    for path, _ in CONFIG_FLAGS.values():
        value = getattr(args, path, None)
        if value is not None:
            *sections, key = path.split(".")
            target = doc
            for name in sections:
                target = target.setdefault(name, {}) if isinstance(target, dict) else None
            # a document or section that is no JSON object is left for
            # config_from_dict to name
            if isinstance(target, dict):
                target[key] = value
    return config_from_dict(doc)


def cmd_synth(args) -> int:
    result = run_pipeline(_load_config(args))
    print(render_report(result.certificate))
    print(f"certificate: {result.certificate_path}")
    if result.refinement_rounds:
        print(f"refinement rounds used: {result.refinement_rounds}")
    return EXIT_CERTIFIED if result.certificate.certified else EXIT_NOT_CERTIFIED


def _load_checked_certificate(path):
    """The stored certificate, its embedded configuration and, in order, the
    class of each class certificate rebuilt from that configuration; each
    class certificate must fit its class's template and dimensions, and its
    ``grid_spec`` must be null for a data class and one count >= 1 per state
    and input dimension for an oracle class."""
    cert = load_certificate(path)
    doc = cert.provenance.get("config")
    if doc is None:
        raise CertificateFormatError(
            "certificate carries no embedded configuration; cannot rebuild classes"
        )
    cfg = config_from_dict(doc)
    classes = {cc.id: build_class(cc) for cc in cfg.classes}
    for ccert in cert.classes:
        cls = classes.get(ccert.class_id)
        if cls is None:
            raise CertificateFormatError(
                f"class {ccert.class_id!r} is not in the embedded configuration"
            )
        if not np.array_equal(ccert.template_exponents, cls.template.exponents):
            stored = list(map(list, ccert.template_exponents))
            raise CertificateFormatError(
                f"class {cls.id!r}: template_exponents {stored} differ from the embedded "
                f"configuration's {cls.template.exponents.tolist()}"
            )
        dims = (ccert.supply.input_dim, ccert.supply.state_dim)
        if dims != (cls.input_dim, cls.state_dim):
            raise CertificateFormatError(
                f"class {cls.id!r}: supply blocks for (input, state) dimensions {dims}, "
                f"class has {(cls.input_dim, cls.state_dim)}"
            )
        spec = ccert.grid_spec
        if cls.data_csv is None:
            shape = (cls.state_dim, cls.input_dim)
            rule = f"hold one count >= 1 per state and input dimension {shape}"
            fits = spec is not None and tuple(map(len, spec)) == shape
            fits = fits and min(spec[0] + spec[1]) >= 1
        else:
            rule, fits = "be null for a data class", spec is None
        if not fits:
            stored = "null" if spec is None else list(map(list, spec))
            raise CertificateFormatError(f"class {cls.id!r}: grid_spec must {rule}, got {stored}")
    return cert, cfg, tuple(classes[ccert.class_id] for ccert in cert.classes)


def cmd_verify(args) -> int:
    cert, cfg, classes = _load_checked_certificate(args.certificate)
    ok = True
    print(f"stored verdict: {cert.verdict}")
    for ccert, cls in zip(cert.classes, classes):
        grid = (args.grid_per_dim,)
        diagnostics = diagnose_class(
            cls,
            ccert,
            cfg.topology,
            (grid * cls.state_dim, grid * cls.input_dim),
            (args.trajectories,) * cls.state_dim,
            args.steps,
        )
        print("\n".join(diagnostics.lines()))
        fresh = certify_class(cls, class_samples(cls, ccert.grid_spec), ccert, cfg)
        # fields compare as they print, so -0.0 differs from 0.0
        differ = [
            f"stored {f.name} {getattr(ccert, f.name)!r}, re-derived {getattr(fresh, f.name)!r}"
            for f in fields(ccert)
            if repr(getattr(ccert, f.name)) != repr(getattr(fresh, f.name))
        ]
        print(f"[{cls.id}] margins: {differ[0] if differ else 'reproduced'}")
        ok &= diagnostics.passed and not differ
    return EXIT_CERTIFIED if ok else EXIT_NOT_CERTIFIED


DEMO_TARGETS = {
    "sin": (lambda pts: np.sin(pts[:, 0]), IntervalBox([0.0], [2.0 * np.pi]), 1.0),
    "square": (lambda pts: pts[:, 0] ** 2, IntervalBox([0.0], [1.0]), 2.0),
}


def cmd_lipschitz(args) -> int:
    flags = {f.name: getattr(args, f.name) for f in fields(LipschitzConfig)}
    given = {name: value for name, value in flags.items() if value is not None}

    def fit_config(base: LipschitzConfig) -> LipschitzConfig:
        try:
            return replace(base, **given)
        except InvariantError as exc:
            raise ConfigError(exc) from exc

    if args.demo is not None:
        target, box, exact = DEMO_TARGETS[args.demo]
        est = estimate_lipschitz(target, box, fit_config(LipschitzConfig(1e-3, 200, 50, 0)))
        print(f"demo target {args.demo}: estimate {est.value!r} (exact constant {exact})")
        print(f"fit: {est.fit}  fallback: {est.fallback_used}")
        return 0
    if args.certificate is None or args.class_id is None:
        raise ConfigError("need either --demo or both --certificate and --class-id")
    cert, cfg, classes = _load_checked_certificate(args.certificate)
    found = [(c, cls) for c, cls in zip(cert.classes, classes) if c.class_id == args.class_id]
    if not found:
        raise ConfigError(f"no class {args.class_id!r} in the certificate")
    ccert, cls = found[0]
    # a data class's L2 comes from the recorded pairs, as in synth and verify
    samples = None if cls.data_csv is None else class_samples(cls, ccert.grid_spec)
    with faults_of(cls.id):
        l1, l2 = estimate_for_class(cls, ccert, fit_config(cfg.lipschitz), samples)
    print(f"L1 = {l1.value!r} (fallback: {l1.fallback_used})")
    print(f"L2 = {l2.value!r} (fallback: {l2.fallback_used})")
    print(f"stored values were L1 = {ccert.l1!r}, L2 = {ccert.l2!r}")
    return 0


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    classes = [build_class(cc) for cc in cfg.classes]
    simulated = [cls.id for cls in classes if cls.oracle is not None]
    if args.output is not None and len(simulated) > 1:
        raise ConfigError(
            f"--output names one file, but classes {', '.join(map(repr, simulated))} "
            "would each write it"
        )
    unsafe_total = 0
    for cls in classes:
        if cls.oracle is None:
            print(f"[{cls.id}] data-backed class; nothing to simulate")
            continue
        counts = (args.trajectories,) * cls.state_dim
        with faults_of(cls.id):
            portrait = phase_portrait(cls, cfg.topology, counts, args.steps)
        unsafe_total += portrait.unsafe_entries
        print(portrait_line(cls.id, cfg.topology.kind, portrait))
        if args.output is not None:
            try:
                write_trajectories_csv(args.output, cls, portrait)
            except OSError as exc:
                raise ConfigError(f"cannot write --output {args.output}: {exc}") from exc
            print(f"[{cls.id}] trajectories written to {args.output}")
    return EXIT_CERTIFIED if unsafe_total == 0 else EXIT_NOT_CERTIFIED


def cmd_margins(args) -> int:
    try:
        m = ClassMargins(args.eta, args.beta, args.l1, args.l2, args.theta, args.sigma, args.phi)
    except InvariantError as exc:
        raise ConfigError(exc) from exc
    print(f"m1 = {m.m1:.4f}")
    print(f"m2 = {m.m2:.4f}")
    print(f"m1_exact = {m.m1!r}")
    print(f"m2_exact = {m.m2!r}")
    print(f"m1 <= 0: {str(m.m1 <= 0).lower()}")
    print(f"m2 <= 0: {str(m.m2 <= 0).lower()}")
    if args.sigma != 0.0 or args.phi != 0.0:
        print(f"gap = {m.gap!r}")
        print(f"gap > 0: {str(m.gap > 0).lower()}")
        print(f"conditions satisfied: {str(m.satisfied).lower()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netcert",
        description="data-driven safety certificates for black-box subsystem networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="run the full synthesis pipeline")
    synth.add_argument("--config", required=True)
    _add_config_flags(synth, *CONFIG_FLAGS)
    synth.set_defaults(func=cmd_synth, faults=("configuration error", "synthesis failed"))

    verify = sub.add_parser("verify", help="re-check a stored certificate")
    verify.add_argument("--certificate", required=True)
    verify.add_argument("--grid-per-dim", type=_at_least(2), default=50)
    verify.add_argument("--trajectories", type=_at_least(1), default=5)
    verify.add_argument("--steps", type=_at_least(0), default=100)
    verify.set_defaults(func=cmd_verify, faults=("cannot verify",) * 2)

    lipschitz = sub.add_parser("lipschitz", help="standalone slope estimation")
    lipschitz.add_argument("--certificate", default=None)
    lipschitz.add_argument("--class-id", default=None)
    lipschitz.add_argument("--demo", choices=sorted(DEMO_TARGETS), default=None)
    lipschitz.add_argument("--gamma", type=float)
    lipschitz.add_argument("--inner", type=int, dest="inner_count")
    lipschitz.add_argument("--outer", type=int, dest="outer_count")
    lipschitz.add_argument("--seed", type=int)
    lipschitz.set_defaults(func=cmd_lipschitz, faults=("cannot estimate",) * 2)

    simulate = sub.add_parser("simulate", help="surrogate phase portraits")
    simulate.add_argument("--config", required=True)
    _add_config_flags(simulate, "--topology", "--surrogate-size")
    simulate.add_argument("--trajectories", type=_at_least(1), default=5)
    simulate.add_argument("--steps", type=_at_least(0), default=100)
    simulate.add_argument("--output", default=None)
    simulate.set_defaults(func=cmd_simulate, faults=("configuration error", "simulation failed"))

    margins = sub.add_parser("margins", help="margin arithmetic on supplied numbers")
    margins.add_argument("--eta", type=float, required=True)
    margins.add_argument("--beta", type=float, default=0.0)
    margins.add_argument("--l1", type=float, required=True)
    margins.add_argument("--l2", type=float, required=True)
    margins.add_argument("--theta", type=float, required=True)
    margins.add_argument("--sigma", type=float, default=0.0)
    margins.add_argument("--phi", type=float, default=0.0)
    margins.set_defaults(func=cmd_margins, faults=("cannot compute margins", None))

    return parser


def main(argv=None) -> int:
    """Run a command.  A configuration or certificate it cannot use exits 2,
    a computation at fault 3, each with one line on stderr that starts with
    the command's ``faults`` prefix for that case."""
    one_blas_thread()
    args = build_parser().parse_args(argv)
    config_fault, compute_fault = args.faults
    try:
        return args.func(args)
    except (ConfigError, CertificateFormatError) as exc:
        print(f"{config_fault}: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (PipelineError, CoverageError, DataFaultError) as exc:
        print(f"{compute_fault}: {exc}", file=sys.stderr)
        return EXIT_COMPUTE_ERROR


if __name__ == "__main__":
    sys.exit(main())
