"""Command-line entry points.

    netcert synth     --config cfg.json        full synthesis run
    netcert verify    --certificate cert.json  re-check a stored certificate
    netcert lipschitz ...                      slope estimation, standalone
    netcert simulate  --config cfg.json        surrogate phase portraits
    netcert margins   --eta ... --theta ...    margin arithmetic on numbers

Exit status of ``synth`` is 0 exactly when the verdict is certified.
Configuration comes only from the file and explicit flags; environment
variables are never consulted, so runs are reproducible by construction.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from .blackbox import TOPOLOGY_KINDS
from .compose import class_margins
from .core import IntervalBox
from .lipschitz import LipschitzConfig, estimate_for_class, estimate_lipschitz
from .pipeline import (
    CertificateFormatError,
    ConfigError,
    PipelineError,
    build_class,
    config_from_dict,
    config_to_dict,
    load_certificate,
    load_config,
    run_pipeline,
    render_report,
)
from .sampling import CoverageError, DataFaultError
from .verify import (
    check_level_sets,
    decrease_heatmap,
    phase_portrait,
    write_trajectories_csv,
)

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


def _add_config_flags(parser, *flags) -> None:
    for flag in flags:
        path, kwargs = CONFIG_FLAGS[flag]
        parser.add_argument(flag, dest=path, default=None, **kwargs)


def _load_config(args):
    """The configuration file with every given config flag set over it."""
    doc = config_to_dict(load_config(args.config))
    for path, _ in CONFIG_FLAGS.values():
        value = getattr(args, path, None)
        if value is not None:
            *sections, key = path.split(".")
            target = doc
            for name in sections:
                target = target[name]
            target[key] = value
    return config_from_dict(doc)


def cmd_synth(args) -> int:
    try:
        cfg = _load_config(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    try:
        result = run_pipeline(cfg)
    except (PipelineError, CoverageError, DataFaultError) as exc:
        print(f"synthesis failed: {exc}", file=sys.stderr)
        return EXIT_COMPUTE_ERROR
    print(render_report(result.certificate))
    print(f"certificate: {result.certificate_path}")
    if result.refinement_rounds:
        print(f"refinement rounds used: {result.refinement_rounds}")
    return EXIT_CERTIFIED if result.certificate.certified else EXIT_NOT_CERTIFIED


def _classes_from_certificate(cert):
    """Rebuild the class definitions from the config embedded in the
    certificate's provenance."""
    doc = cert.provenance.get("config")
    if doc is None:
        raise CertificateFormatError(
            "certificate carries no embedded configuration; cannot rebuild classes"
        )
    cfg = config_from_dict(doc)
    return cfg, {cc.id: build_class(cc) for cc in cfg.classes}


def cmd_verify(args) -> int:
    try:
        cert = load_certificate(args.certificate)
        cfg, classes = _classes_from_certificate(cert)
    except (CertificateFormatError, ConfigError) as exc:
        print(f"cannot verify: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    ok = True
    print(f"stored verdict: {cert.verdict}")
    for ccert in cert.classes:
        cls = classes[ccert.class_id]
        sol = ccert.solution()
        counts = (args.grid_per_dim,) * cls.state_dim
        levels = check_level_sets(cls, sol, counts)
        print(
            f"[{ccert.class_id}] initial max {levels.initial_max!r} vs sigma {levels.sigma!r}"
            f" ({'ok' if levels.initial_ok else 'FAIL'}); unsafe min {levels.unsafe_min!r}"
            f" vs phi {levels.phi!r} ({'ok' if levels.unsafe_ok else 'FAIL'})"
        )
        ok &= levels.passed
        if cls.oracle is not None:
            joint_counts = (args.grid_per_dim,) * cls.joint_box.dim
            heat = decrease_heatmap(cls, sol, joint_counts, l2=ccert.l2)
            print(
                f"[{ccert.class_id}] decrease heatmap max {heat.max_value!r} "
                f"({'<= 0, ok' if heat.passed else '> 0, FAIL'})"
            )
            ok &= heat.passed
            portrait = phase_portrait(
                cls, cfg.topology, (args.trajectories,) * cls.state_dim, args.steps
            )
            print(
                f"[{ccert.class_id}] portrait: {portrait.unsafe_entries} unsafe entries"
                f" / {portrait.initial_points.shape[0]} trajectories"
            )
            ok &= portrait.unsafe_entries == 0
    return EXIT_CERTIFIED if ok else EXIT_NOT_CERTIFIED


DEMO_TARGETS = {
    "sin": (lambda pts: np.sin(pts[:, 0]), IntervalBox([0.0], [2.0 * np.pi]), 1.0),
    "square": (lambda pts: pts[:, 0] ** 2, IntervalBox([0.0], [1.0]), 2.0),
}


def cmd_lipschitz(args) -> int:
    config = LipschitzConfig(
        gamma=args.gamma, inner_count=args.inner, outer_count=args.outer, seed=args.seed
    )
    if args.demo is not None:
        target, box, exact = DEMO_TARGETS[args.demo]
        est = estimate_lipschitz(target, box, config)
        print(f"demo target {args.demo}: estimate {est.value!r} (exact constant {exact})")
        print(f"fit: {est.fit}  fallback: {est.fallback_used}")
        return 0
    if args.certificate is None or args.class_id is None:
        print("need either --demo or both --certificate and --class-id", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    try:
        cert = load_certificate(args.certificate)
        _, classes = _classes_from_certificate(cert)
        ccert = cert.class_by_id(args.class_id)
    except (CertificateFormatError, ConfigError, KeyError) as exc:
        print(f"cannot estimate: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    cls = classes[args.class_id]
    if cls.oracle is None:
        print("class has no oracle; cannot rebuild the decrease map", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    sol = ccert.solution()
    l1, l2 = estimate_for_class(cls, sol, config)
    print(f"L1 = {l1.value!r} (fallback: {l1.fallback_used})")
    print(f"L2 = {l2.value!r} (fallback: {l2.fallback_used})")
    print(f"stored values were L1 = {ccert.l1!r}, L2 = {ccert.l2!r}")
    return 0


def cmd_simulate(args) -> int:
    try:
        cfg = _load_config(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    unsafe_total = 0
    for cc in cfg.classes:
        cls = build_class(cc)
        if cls.oracle is None:
            print(f"[{cc.id}] data-backed class; nothing to simulate")
            continue
        counts = (args.trajectories,) * cls.state_dim
        portrait = phase_portrait(cls, cfg.topology, counts, args.steps)
        unsafe_total += portrait.unsafe_entries
        print(
            f"[{cc.id}] {portrait.initial_points.shape[0]} trajectories, "
            f"{args.steps} steps, topology {cfg.topology.kind}: "
            f"{portrait.unsafe_entries} unsafe entries"
        )
        if args.output is not None:
            write_trajectories_csv(args.output, cls, portrait)
            print(f"[{cc.id}] trajectories written to {args.output}")
    return EXIT_CERTIFIED if unsafe_total == 0 else EXIT_NOT_CERTIFIED


def cmd_margins(args) -> int:
    m = class_margins(
        eta=args.eta,
        beta=args.beta,
        l1=args.l1,
        l2=args.l2,
        theta=args.theta,
        sigma=args.sigma,
        phi=args.phi,
    )
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
    synth.set_defaults(func=cmd_synth)

    verify = sub.add_parser("verify", help="re-check a stored certificate")
    verify.add_argument("--certificate", required=True)
    verify.add_argument("--grid-per-dim", type=int, default=50)
    verify.add_argument("--trajectories", type=int, default=5)
    verify.add_argument("--steps", type=int, default=100)
    verify.set_defaults(func=cmd_verify)

    lipschitz = sub.add_parser("lipschitz", help="standalone slope estimation")
    lipschitz.add_argument("--certificate", default=None)
    lipschitz.add_argument("--class-id", default=None)
    lipschitz.add_argument("--demo", choices=sorted(DEMO_TARGETS), default=None)
    lipschitz.add_argument("--gamma", type=float, default=1e-3)
    lipschitz.add_argument("--inner", type=int, default=200)
    lipschitz.add_argument("--outer", type=int, default=50)
    lipschitz.add_argument("--seed", type=int, default=0)
    lipschitz.set_defaults(func=cmd_lipschitz)

    simulate = sub.add_parser("simulate", help="surrogate phase portraits")
    simulate.add_argument("--config", required=True)
    _add_config_flags(simulate, "--topology", "--surrogate-size")
    simulate.add_argument("--trajectories", type=int, default=5)
    simulate.add_argument("--steps", type=int, default=100)
    simulate.add_argument("--output", default=None)
    simulate.set_defaults(func=cmd_simulate)

    margins = sub.add_parser("margins", help="margin arithmetic on supplied numbers")
    margins.add_argument("--eta", type=float, required=True)
    margins.add_argument("--beta", type=float, default=0.0)
    margins.add_argument("--l1", type=float, required=True)
    margins.add_argument("--l2", type=float, required=True)
    margins.add_argument("--theta", type=float, required=True)
    margins.add_argument("--sigma", type=float, default=0.0)
    margins.add_argument("--phi", type=float, default=0.0)
    margins.set_defaults(func=cmd_margins)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
