"""netcert benchmark: end-to-end cost of `netcert synth` and a per-layer trace.

    python3 perfbench/run.py --workload room --seed 7 --seconds 26 --trace 0

Run from the root of a netcert source tree; the package is imported from
``src/``, so nothing needs installing. Workloads, their configurations,
predictions and the seed-commit baseline live in ``perfbench/spec.json``, the
reference certificate fields in ``perfbench/expected.json``, and metric
names, units and bounds in ``BENCHMARK.json``. Scratch output goes to
``.perfbench_work/`` and is removed at the end, except the last trace.

One run of a workload is a closed loop with one client: each `netcert synth`
child starts after the previous one has exited, and nothing else runs
beside it. With ``--trace 0`` the benchmark

1. times fresh interpreters that import ``netcert.cli`` and load the
   workload's configuration, half of ``SETUP_PROBES`` before the synth
   children and half after (``setup_s``, median);
2. runs one warm-up synth child, checked and reported but not timed;
3. runs timed synth children back to back while the next one is expected to
   finish within ``--seconds`` (at least one), taking wall time, CPU time
   and peak RSS of each child from ``os.wait4`` on that child.

With ``--trace 1`` steps 2 and 3 are followed by one synth child run through
``perfbench/traced.py``, which wraps the layers from outside and records
spans; the per-layer metrics come from that child.

Every child's outputs are checked: exit code, expected artifacts, the parsed
certificate against ``expected.json``, and identical certificate bytes across all
children of the run. A child that misses its deadline is killed and counted
as failed. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_PROBES = 6  # half before the synth children, half after
BUDGET_S = 170.0  # a whole run stays under the 180 s a run may take
TAIL_MIN_BEYOND = 10  # a tail percentile needs this many runs above it

SYNTH = "import sys; from netcert.cli import main; sys.exit(main())"
SETUP = (
    "import sys, netcert.cli, netcert.pipeline; "
    "netcert.pipeline.load_config(sys.argv[1]); print(netcert.__file__)"
)


@dataclass
class Child:
    """One finished child process, measured by ``os.wait4`` on its pid."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int
    timed_out: bool
    log_path: str

    def log_tail(self, lines: int = 5) -> str:
        with open(self.log_path, errors="replace") as fh:
            return "".join(fh.readlines()[-lines:]).strip()


def spawn(argv: list[str], deadline_s: float, log_path: str) -> Child:
    """Run ``argv`` to completion; kill it once ``deadline_s`` has passed."""
    env = dict(os.environ, PYTHONPATH=SRC)
    killed = []
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)

        def kill():
            killed.append(True)
            proc.kill()

        timer = threading.Timer(max(deadline_s, 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        code=proc.returncode,
        timed_out=bool(killed),
        log_path=log_path,
    )


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _close(got: float, want: float, tol: dict) -> bool:
    return abs(got - want) <= tol["abs"] + tol["rel"] * abs(want)


def expectation(expected: dict, seed: int) -> dict:
    """One workload's entry of expected.json, narrowed to ``seed``: the
    seed-independent fields, plus per-seed slopes and margins when the seed is
    in the table, else the slopes' ranges."""
    classes = {}
    for cid, c in expected["classes"].items():
        want = {k: c[k] for k in ("sample_count", "theta", "eta", "beta")}
        if seed < len(c["l1_by_seed"]):
            want["l1"] = c["l1_by_seed"][seed]
            want["l2"] = c["l2_by_seed"][seed]
            want["m1"] = c["eta"] + want["l1"] * c["theta"]
            want["m2"] = c["eta"] + c["beta"] + want["l2"] * c["theta"]
        else:
            want["l1_range"] = c["l1_range"]
            want["l2_range"] = c["l2_range"]
        classes[cid] = want
    return {"verdict": expected["verdict"], "failing": expected["failing"], "classes": classes}


def check_certificate(doc: dict, expect: dict, tolerance: dict) -> list[str]:
    """Compare a parsed certificate.json with ``expectation(...)``."""
    problems = []
    if doc["verdict"] != expect["verdict"]:
        problems.append(f"verdict {doc['verdict']!r} != {expect['verdict']!r}")
    failing = sorted([f["class_id"], f["condition"]] for f in doc["failures"])
    if failing != expect["failing"]:
        problems.append(f"failing conditions {failing} != {expect['failing']}")
    classes = {c["class_id"]: c for c in doc["classes"]}
    if sorted(classes) != sorted(expect["classes"]):
        return problems + [f"classes {sorted(classes)} != {sorted(expect['classes'])}"]
    for cid, want in expect["classes"].items():
        got = classes[cid]
        for key in ("sample_count", "theta"):
            if got[key] != want[key]:
                problems.append(f"[{cid}] {key} {got[key]!r} != {want[key]!r}")
        for key in ("eta", "beta", "l1", "l2", "m1", "m2"):
            if key in want and not _close(got[key], want[key], tolerance[key]):
                problems.append(
                    f"[{cid}] {key} {got[key]!r} outside {tolerance[key]} of {want[key]!r}"
                )
            lo, hi = want.get(key + "_range", (-math.inf, math.inf))
            if not lo <= got[key] <= hi:
                problems.append(f"[{cid}] {key} {got[key]!r} outside [{lo!r}, {hi!r}]")
        # the margins must be the paper's formulas of the stored constants
        m1 = got["eta"] + got["l1"] * got["theta"]
        m2 = got["eta"] + got["beta"] + got["l2"] * got["theta"]
        for key, value in (("m1", m1), ("m2", m2)):
            if not math.isclose(got[key], value, rel_tol=1e-12, abs_tol=1e-15):
                problems.append(f"[{cid}] stored {key} {got[key]!r} != recomputed {value!r}")
    return problems


def check_run(
    child: Child, out_dir: str, workload: dict, expect: dict, tolerance: dict, ref: dict
) -> list[str]:
    """Problems with one synth child; ``ref`` pins the first certificate's bytes."""
    if child.timed_out:
        return [f"missed its {workload['deadline_s']} s deadline and was killed"]
    problems = []
    if child.code != workload["exit_code"]:
        problems.append(
            f"exit code {child.code}, expected {workload['exit_code']}: {child.log_tail()}"
        )
    for name in workload["artifacts"]:
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path) or os.path.getsize(path) == 0:
            problems.append(f"missing or empty artifact {name}")
    cert_path = os.path.join(out_dir, "certificate.json")
    if not os.path.isfile(cert_path):
        return problems
    with open(cert_path, "rb") as fh:
        raw = fh.read()
    try:
        problems += check_certificate(json.loads(raw), expect, tolerance)
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable certificate: {exc!r}")
    digest = hashlib.sha256(raw).hexdigest()
    ref.setdefault("sha256", digest)
    if digest != ref["sha256"]:
        problems.append("certificate bytes differ from the first run of this seed")
    return problems


def output_bytes(out_dir: str) -> int:
    return sum(os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))


# ---------------------------------------------------------------------------
# Per-layer metrics from a trace
# ---------------------------------------------------------------------------


def span_totals(spans: list) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds (the
    duration minus the part covered by direct child spans)."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, dict[str, float]] = {}
    for (name, start, end, _, _), covered in zip(spans, child_time):
        t = totals.setdefault(name, {"count": 0, "total": 0.0, "self": 0.0})
        t["count"] += 1
        t["total"] += end - start
        t["self"] += end - start - covered
    return totals


def layer_metrics(trace: dict) -> dict[str, float]:
    totals = span_totals(trace["spans"])
    counters = trace["counters"]

    def total(*names):
        return sum(totals.get(n, {}).get("total", 0.0) for n in names)

    def count(name):
        return totals.get(name, {}).get("count", 0)

    return {
        "core.basis_s": total("core.basis_values"),
        "core.basis_calls": count("core.basis_values"),
        "core.basis_points": counters.get("core.basis_points", 0),
        "core.monomial_ops": counters.get("core.monomial_ops", 0),
        "core.basis_bytes": counters.get("core.basis_bytes", 0),
        "sampling.collect_s": total("pipeline.collect_pairs"),
        "sampling.grid_bytes_max": counters.get("sampling.grid_bytes_max", 0),
        "sampling.save_samples_csv_s": total("pipeline.save_samples_csv"),
        "scp.build_s": total("pipeline.build_scp"),
        "scp.solve_s": total("pipeline.solve_scp"),
        "scp.check_s": total("pipeline.check_solution"),
        "scp.solves": count("scp.linprog"),
        "scp.solver_iters": counters.get("scp.solver_iters", 0),
        "scp.rows": counters.get("scp.rows", 0),
        "scp.cols": counters.get("scp.cols", 0),
        "scp.residual_max": counters.get("scp.residual_max", 0.0),
        "lipschitz.estimate_s": total("pipeline.estimate_for_class"),
        "lipschitz.fit_s": total("lipschitz.minimize"),
        "lipschitz.fit_nfev": counters.get("lipschitz.fit_nfev", 0),
        "lipschitz.slope_s": total("lipschitz.slope_batch"),
        "lipschitz.fallbacks": counters.get("lipschitz.fallbacks", 0),
        "verify.heatmap_self_s": totals.get("pipeline.decrease_heatmap", {}).get("self", 0.0),
        "verify.heatmap_points": counters.get("verify.heatmap_points", 0),
        "verify.heatmap_csv_rows": counters.get("verify.heatmap_csv_rows", 0),
        "verify.heatmap_peak_mb": counters.get("verify.heatmap_peak_mb", 0.0),
        "verify.levels_s": total("pipeline.check_level_sets"),
        "verify.surface_s": total("pipeline.surface_data"),
        "verify.csv_s": total(
            "pipeline.write_levels_csv", "pipeline.write_surface_csv", "pipeline.write_trajectories_csv"
        ),
        "verify.portrait_s": total("pipeline.phase_portrait"),
        "blackbox.simulate_s": total("blackbox.simulate_network"),
        "blackbox.oracle_calls": count("blackbox.oracle_batch"),
        "blackbox.oracle_rows": counters.get("blackbox.oracle_rows", 0),
        # time to a verdict; the artifact writes inside run_pipeline are split off
        "pipeline.run_pipeline_s": total("pipeline.run_pipeline") - total("pipeline.write_run_outputs"),
        "pipeline.write_run_outputs_s": total("pipeline.write_run_outputs"),
        "pipeline.refine_rounds": counters.get("pipeline.refine_rounds", 0),
    }


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least TAIL_MIN_BEYOND runs above it
    (nearest rank), or None when there are too few runs for one above p50."""
    n = len(values)
    p = math.floor(100 * (1 - TAIL_MIN_BEYOND / n)) if n else 0
    if p <= 50:
        return None
    ordered = sorted(values)
    return p, ordered[max(0, math.ceil(p / 100 * n) - 1)]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=26.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "netcert", "cli.py")):
        print(f"no netcert sources under {SRC}; run from a netcert source tree", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "spec.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if args.workload not in spec["workloads"]:
        print(f"unknown workload {args.workload!r}; have {sorted(spec['workloads'])}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be non-negative (it seeds numpy's default_rng)", file=sys.stderr)
        return 2
    workload = spec["workloads"][args.workload]
    tolerance = spec["tolerance"]
    expect = expectation(expected[args.workload], args.seed)
    began = time.perf_counter()

    run_dir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    config = json.loads(json.dumps(workload["config"]))
    config["lipschitz"]["seed"] = args.seed
    config_path = os.path.join(run_dir, "config.json")
    with open(config_path, "w") as fh:
        json.dump(config, fh, indent=2)

    ref: dict = {}
    attempted = failed = 0
    problems_seen: list[str] = []
    serial = itertools.count()

    def deadline() -> float:
        return min(workload["deadline_s"], BUDGET_S - (time.perf_counter() - began))

    def synth(label: str, prefix: list[str]) -> tuple[Child, str]:
        nonlocal attempted, failed
        k = next(serial)
        out_dir = os.path.join(run_dir, f"out{k}")
        argv = prefix + ["synth", "--config", config_path, "--output-dir", out_dir]
        child = spawn(argv, deadline(), os.path.join(run_dir, f"log{k}.txt"))
        problems = check_run(child, out_dir, workload, expect, tolerance, ref)
        attempted += 1
        failed += bool(problems)
        status = "ok" if not problems else "FAILED: " + "; ".join(problems)
        problems_seen.extend(f"{label}: {p}" for p in problems)
        print(
            f"{label:>8}  wall {child.wall_s:8.4f} s  cpu {child.cpu_s:8.4f} s  "
            f"rss {child.peak_rss_mb:7.1f} MB  exit {child.code}  {status}",
            flush=True,
        )
        return child, out_dir

    untraced = [sys.executable, "-c", SYNTH]
    try:
        print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {workload['why']}")
        setup_times: list[float] = []

        def setup_probes():
            """Half the probes before the synth runs and half after, so the
            median spans the same stretch of machine time as wall_s."""
            for _ in range(0 if args.trace else SETUP_PROBES // 2):
                k = len(setup_times)
                probe = spawn(
                    [sys.executable, "-c", SETUP, config_path],
                    deadline(),
                    os.path.join(run_dir, f"setup{k}.txt"),
                )
                setup_times.append(probe.wall_s)
                with open(probe.log_path) as fh:
                    where = fh.read().strip()
                if probe.code != 0 or not where.startswith(SRC):
                    problems_seen.append(f"setup probe {k}: exit {probe.code}: {probe.log_tail()}")

        setup_probes()
        synth("warm-up", untraced)
        timed: list[Child] = []
        window_start = time.perf_counter()
        while True:
            child, out_dir = synth(f"timed {len(timed) + 1}", untraced)
            timed.append(child)
            shutil.rmtree(out_dir, ignore_errors=True)
            elapsed = time.perf_counter() - window_start
            expected_next = statistics.median(c.wall_s for c in timed)
            if elapsed + expected_next > args.seconds or deadline() < expected_next:
                break

        setup_probes()
        if setup_times:
            print(
                f"   setup  median {statistics.median(setup_times):.4f} s of "
                + " ".join(f"{t:.4f}" for t in setup_times)
            )
        walls = [c.wall_s for c in timed]
        wall_median = statistics.median(walls)
        tail = tail_percentile(walls)
        print(
            f"  wall_s  median {wall_median:.4f} s over {len(walls)} timed runs; "
            + (f"p{tail[0]} {tail[1]:.4f} s" if tail else
               f"no tail percentile: that needs over {2 * TAIL_MIN_BEYOND} runs")
        )
        print(f"fail_frac {failed}/{attempted} = {failed / attempted:.4f}")

        if args.trace:
            trace_path = os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.json")
            run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
            traced_prefix = [sys.executable, os.path.join(HERE, "traced.py"), run_id, trace_path]
            if os.path.exists(trace_path):
                os.remove(trace_path)
            child, out_dir = synth("traced", traced_prefix)
            with open(trace_path) as fh:
                metrics = layer_metrics(json.load(fh))
            metrics["pipeline.output_bytes"] = output_bytes(out_dir)
            metrics["trace.overhead_s"] = child.wall_s - wall_median
            print(f"trace written to {os.path.relpath(trace_path, ROOT)}")
            report_roles(metrics, workload)
            units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        else:
            metrics = {
                "wall_s": wall_median,
                "setup_s": statistics.median(setup_times),
                "cpu_s": statistics.median(c.cpu_s for c in timed),
                "peak_rss_mb": statistics.median(c.peak_rss_mb for c in timed),
            }
            units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    labels = {name: m.get("source") for name, m in spec["per_layer"].items()}
    result = {}
    for name, unit in units.items():
        value = metrics[name]
        note = "  (computed)" if labels.get(name) == "computed" else ""
        print(f"{name:32s} {value!r:>24} {unit}{note}")
        result[name] = {"value": value, "unit": unit}
    for p in problems_seen:
        print(f"problem: {p}")
    correct = not problems_seen
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


def report_roles(metrics: dict, workload: dict) -> None:
    """Print the traced split that defines what each workload stresses."""
    pipeline = metrics["pipeline.run_pipeline_s"] + metrics["pipeline.write_run_outputs_s"]
    shares = {
        "core.basis_s": metrics["core.basis_s"] / pipeline,
        "scp.build_s+solve_s+check_s": (
            metrics["scp.build_s"] + metrics["scp.solve_s"] + metrics["scp.check_s"]
        ) / pipeline,
    }
    for name, share in shares.items():
        line = f"share of pipeline time: {name} {share:.3f} of {pipeline:.3f} s"
        if name in workload["role"]:
            low, high = workload["role"][name]
            inside = low <= share <= high
            line += f", expected {low}..{high}: {'as expected' if inside else 'OUTSIDE'}"
        print(line)


if __name__ == "__main__":
    sys.exit(main())
