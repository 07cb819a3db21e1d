"""The traced benchmark (perfbench/traced.py) patches pipeline functions by
name from outside the package.  Running it on a tiny room config keeps a
refactor from silently moving a layer off the path the benchmark times."""
import importlib.util
import json
import os
import subprocess
import sys

import pytest

from netcert.cli import main
from netcert.pipeline import config_from_dict, run_pipeline

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

EXPECTED_SPANS = (
    "core.basis_values",
    "blackbox.oracle_batch",
    "pipeline.build_scp",
    "pipeline.solve_scp",
    "pipeline.check_solution",
    "scp.linprog",
    "lipschitz.minimize",  # the tiny config's maxima vary, so both fits run
    "pipeline.check_level_sets",
    "pipeline.decrease_heatmap",
    "pipeline.phase_portrait",
    "blackbox.simulate_network",
    "pipeline.surface_data",
    "pipeline.write_run_outputs",
)

# Imports netcert.cli, runs `synth` in the same interpreter and prints,
# after each step, whether scipy.stats was loaded and how many threads the
# process has (None without /proc/self/task).
FOOTPRINT = """
import json, os, sys

def footprint():
    tasks = len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else None
    return ['scipy.stats' in sys.modules, tasks]

import netcert.cli
steps = [footprint()]
code = netcert.cli.main(['synth', '--config', sys.argv[1], '--output-dir', sys.argv[2]])
steps.append(footprint())
print(json.dumps(steps))
sys.exit(code)
"""


def tiny_room_config(tmp_path):
    with open(os.path.join(REPO_ROOT, "configs", "room.json")) as fh:
        doc = json.load(fh)
    doc["classes"][0].update(counts_state=[5], counts_input=[5])
    doc.update(verify_multiplier=1, portrait_counts=[2], portrait_steps=5)
    doc["refine"]["enabled"] = False
    config = tmp_path / "room-tiny.json"
    config.write_text(json.dumps(doc))
    return config


def run_python(args, **env_changes):
    """Run a fresh interpreter on ``args``, with environment variables set
    from ``env_changes`` (removed where the value is None)."""
    env = dict(os.environ)
    for name, value in env_changes.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_traced_benchmark_sees_every_layer(tmp_path):
    trace = tmp_path / "trace.json"
    proc = run_python(
        [
            os.path.join(REPO_ROOT, "perfbench", "traced.py"),
            "hooks",
            str(trace),
            "synth",
            "--config",
            str(tiny_room_config(tmp_path)),
            "--output-dir",
            str(tmp_path / "out"),
        ]
    )
    assert proc.returncode == 1, proc.stderr
    # a name traced.py cannot patch also exits 1, but writes no trace
    assert trace.exists(), proc.stderr
    doc = json.loads(trace.read_text())
    names = [span[0] for span in doc["spans"]]
    missing = [name for name in EXPECTED_SPANS if name not in names]
    assert not missing, f"traced run recorded no span for {missing}"
    # the solver span and its counter come from what scp.linprog returns
    assert names.count("scp.linprog") == names.count("pipeline.solve_scp") == 1
    assert doc["counters"]["scp.solver_iters"] > 0


def test_synth_never_imports_scipy_stats(tmp_path):
    """scipy.stats adds about 0.4 s of import to every run; the reverse-Weibull
    likelihood is written out so that nothing needs it."""
    config = tiny_room_config(tmp_path)
    proc = run_python(["-c", FOOTPRINT, str(config), str(tmp_path / "out")])
    assert proc.returncode == 1, proc.stderr
    (after_import, _), (after_synth, _) = json.loads(proc.stdout.splitlines()[-1])
    assert not after_import, "import netcert.cli loaded scipy.stats"
    assert not after_synth, "netcert synth loaded scipy.stats"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
def test_cli_process_starts_no_blas_thread(tmp_path):
    """Importing netcert.cli loads numpy's and scipy's OpenBLAS on one
    thread, so neither starts worker threads that would only wait; the
    process has one thread after the import and after `synth`, whatever
    OPENBLAS_NUM_THREADS it inherits, and the certificate keeps its bytes.
    The variable is removed, not inherited from this process, which has it
    from its own import of netcert.cli."""
    config = tiny_room_config(tmp_path)
    certificates = []
    for inherited in (None, "4"):
        out = tmp_path / f"out-{inherited}"
        proc = run_python(
            ["-c", FOOTPRINT, str(config), str(out)], OPENBLAS_NUM_THREADS=inherited
        )
        assert proc.returncode == 1, proc.stderr
        steps = json.loads(proc.stdout.splitlines()[-1])
        assert [tasks for _, tasks in steps] == [1, 1], (inherited, steps)
        certificates.append((out / "certificate.json").read_bytes())
    assert certificates[0] == certificates[1]


def test_make_expected_matches_the_pipeline(tmp_path, monkeypatch):
    """perfbench/make_expected.py re-estimates the slopes from each run's class
    and solution (``ClassRun.cls`` and ``ClassRun.solution``); at seed 0 and
    at the config's seed 7 they are the L1 and L2 that ``run_pipeline``
    writes into the certificate."""
    path = os.path.join(REPO_ROOT, "perfbench", "make_expected.py")
    spec = importlib.util.spec_from_file_location("make_expected", path)
    make_expected = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_expected)
    monkeypatch.setattr(make_expected, "TABLE_SEEDS", 8)
    monkeypatch.setattr(make_expected, "EXTRA_SEEDS", 1)
    doc = json.loads(tiny_room_config(tmp_path).read_text())
    assert doc["lipschitz"]["seed"] == 7
    table = make_expected.expected_for(doc)
    expected = table["classes"]["room"]
    assert len(expected["l1_by_seed"]) == len(expected["l2_by_seed"]) == 8
    for seed in (0, 7):
        doc["lipschitz"]["seed"] = seed
        cert = run_pipeline(config_from_dict(doc), write_outputs=False).certificate
        room = cert.class_by_id("room")
        assert expected["l1_by_seed"][seed] == room.l1
        assert expected["l2_by_seed"][seed] == room.l2
        assert table["failing"] == sorted([f.class_id, f.condition] for f in cert.failures)


def test_room_synth_passes_the_benchmark_check(tmp_path, monkeypatch):
    """perfbench/run.py's own output check accepts room synth at seed 7: the
    certificate against expected.json and every artifact the workload lists.
    So a format change that the benchmark would refuse fails here first."""
    path = os.path.join(REPO_ROOT, "perfbench", "run.py")
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    run = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules as they are built
    monkeypatch.setitem(sys.modules, spec.name, run)
    spec.loader.exec_module(run)
    with open(os.path.join(REPO_ROOT, "perfbench", "spec.json")) as fh:
        bench = json.load(fh)
    with open(os.path.join(REPO_ROOT, "perfbench", "expected.json")) as fh:
        expected = json.load(fh)
    workload = bench["workloads"]["room"]
    config = tmp_path / "room.json"
    config.write_text(json.dumps(workload["config"]))
    out = tmp_path / "out"
    argv = ["synth", "--config", str(config), "--output-dir", str(out), "--seed", "7"]
    assert main(argv) == workload["exit_code"]
    doc = json.loads((out / "certificate.json").read_text())
    expect = run.expectation(expected["room"], 7)
    assert run.check_certificate(doc, expect, bench["tolerance"]) == []
    for name in workload["artifacts"]:
        assert (out / name).stat().st_size > 0, name
