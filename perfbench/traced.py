"""Traced `netcert synth`: run the CLI in process with every layer boundary
wrapped from outside, then write the spans and counters as JSON.

    PYTHONPATH=src python3 perfbench/traced.py RUN_ID TRACE_JSON synth --config C --output-dir D

Nothing under ``src/`` is edited. Each wrapper replaces a function under the
name its caller looks it up by (``netcert.pipeline.build_scp``,
``netcert.scp.linprog``, ...) and passes the call straight through, so the
certificate is the one an untraced run writes. A span is
``[name, start, end, parent, run_id]`` with times from ``perf_counter`` and
``parent`` the index of the enclosing span (-1 at top level). Spans stay in
memory until the run ends. The process exits with the CLI's exit code.
"""
from __future__ import annotations

import json
import sys
import time
import tracemalloc

import netcert.blackbox
import netcert.cli
import netcert.core
import netcert.lipschitz
import netcert.pipeline
import netcert.sampling
import netcert.scp
import netcert.verify


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}

    def add(self, name: str, amount) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def high(self, name: str, value) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)

    def wrap(self, name: str, fn, after=None):
        """``fn`` timed as span ``name``; ``after(result, args, kwargs)``
        records counters once the call has returned."""
        spans, stack, run_id = self.spans, self.stack, self.run_id

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, time.perf_counter(), None, stack[-1] if stack else -1, run_id]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), after))


def install(t: Tracer) -> None:
    pipeline, verify = netcert.pipeline, netcert.verify

    def on_basis(result, args, kwargs):
        template = args[0]
        rows = result.shape[0]
        ops = rows * template.term_count * template.state_dim
        t.add("core.basis_points", rows)
        t.add("core.monomial_ops", ops)
        t.add("core.basis_bytes", 8 * ops)

    def on_grid(result, args, kwargs):
        t.high("sampling.grid_bytes_max", result.nbytes)

    def on_build(result, args, kwargs):
        rows, cols = result.a_ub.shape
        t.add("scp.rows", rows)
        t.high("scp.cols", cols)

    def on_linprog(result, args, kwargs):
        t.add("scp.solver_iters", int(getattr(result, "nit", 0)))

    def on_check(result, args, kwargs):
        t.high("scp.residual_max", max(result.max_violation.values()))

    def on_minimize(result, args, kwargs):
        t.add("lipschitz.fit_nfev", int(result.nfev))

    def on_estimate(result, args, kwargs):
        t.add("lipschitz.fallbacks", int(result.fallback_used))

    def on_heatmap(result, args, kwargs):
        t.add("verify.heatmap_points", result.point_count)
        if kwargs.get("csv_path") is not None:
            t.add("verify.heatmap_csv_rows", result.point_count)

    def on_oracle(result, args, kwargs):
        t.add("blackbox.oracle_rows", result.shape[0])

    def on_pipeline(result, args, kwargs):
        t.add("pipeline.refine_rounds", result.refinement_rounds)

    t.patch(netcert.core.StcTemplate, "basis_values", "core.basis_values", on_basis)
    t.patch(netcert.blackbox.TransitionOracle, "batch", "blackbox.oracle_batch", on_oracle)
    t.patch(netcert.cli, "run_pipeline", "pipeline.run_pipeline", on_pipeline)
    for attr, after in (
        ("collect_pairs", None),
        ("build_scp", on_build),
        ("solve_scp", None),
        ("check_solution", on_check),
        ("estimate_for_class", None),
        ("write_run_outputs", None),
        ("check_level_sets", None),
        ("surface_data", None),
        ("phase_portrait", None),
        ("save_samples_csv", None),
        ("write_levels_csv", None),
        ("write_surface_csv", None),
        ("write_trajectories_csv", None),
        ("store_certificate", None),
    ):
        t.patch(pipeline, attr, "pipeline." + attr, after)
    heatmap = t.wrap("pipeline.decrease_heatmap", pipeline.decrease_heatmap, on_heatmap)

    def decrease_heatmap(*args, **kwargs):
        # allocations are traced only inside the heatmap, where the dense grid lives
        tracemalloc.start()
        try:
            return heatmap(*args, **kwargs)
        finally:
            t.high("verify.heatmap_peak_mb", tracemalloc.get_traced_memory()[1] / 2**20)
            tracemalloc.stop()

    pipeline.decrease_heatmap = decrease_heatmap
    t.patch(netcert.lipschitz, "estimate_lipschitz", "lipschitz.estimate_lipschitz", on_estimate)
    t.patch(netcert.lipschitz, "slope_batch", "lipschitz.slope_batch")
    t.patch(netcert.lipschitz, "minimize", "lipschitz.minimize", on_minimize)
    t.patch(netcert.scp, "linprog", "scp.linprog", on_linprog)
    # collect_pairs finds grid_samples in sampling, the diagnostics in verify
    t.patch(netcert.sampling, "grid_samples", "sampling.grid_samples", on_grid)
    t.patch(verify, "grid_samples", "sampling.grid_samples", on_grid)
    t.patch(verify, "simulate_network", "blackbox.simulate_network")


def main(argv: list[str]) -> int:
    run_id, trace_path, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer(run_id)
    install(tracer)
    code = netcert.cli.main(cli_args)
    with open(trace_path, "w") as fh:
        json.dump({"run_id": run_id, "spans": tracer.spans, "counters": tracer.counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
