"""The traced benchmark (perfbench/traced.py) patches pipeline functions by
name from outside the package.  Running it on a tiny room config keeps a
refactor from silently moving a layer off the path the benchmark times."""
import importlib.util
import json
import os
import subprocess
import sys

import pytest

import netcert.verify as verify_mod
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
# process has (None without /proc/self/task); then the thread count at each
# os.fork, and whether a child of the process is left after `synth`.
FOOTPRINT = """
import json, os, sys

def footprint():
    tasks = len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else None
    return ['scipy.stats' in sys.modules, tasks]

forks = []
fork = os.fork

def recorded_fork():
    forks.append(footprint()[1])
    return fork()

os.fork = recorded_fork
import netcert.cli
steps = [footprint()]
code = netcert.cli.main(['synth', '--config', sys.argv[1], '--output-dir', sys.argv[2]])
steps.append(footprint())
try:
    os.waitpid(-1, os.WNOHANG)
    child_left = True
except ChildProcessError:
    child_left = False
print(json.dumps([steps, forks, child_left]))
sys.exit(code)
"""

# Prints the modules that importing netcert.cli loads after numpy.
IMPORTED_AFTER_NUMPY = """
import json, sys
import numpy
before = set(sys.modules)
import netcert.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""

# The standard-library modules that importing netcert.cli loads after numpy.
# The forked heatmap worker needs pickle, tempfile and shutil, which come
# with numpy.
STDLIB_AFTER_NUMPY = {
    "__future__", "_csv", "_json", "argparse", "copy", "csv", "dataclasses", "gettext",
    "json", "json.decoder", "json.encoder", "json.scanner",
}


# Imports netcert.cli, then runs `synth` with netcert.scp.linprog wrapped,
# and prints the scipy packages loaded by the import, whether scipy.optimize
# was loaded at each solve, the scipy packages loaded after the run, and the
# thread count of the OpenBLAS that scipy's L-BFGS-B extension links (None
# if it never loaded).
IMPORTS = """
import ctypes, json, sys
import netcert.cli, netcert.scp

SCIPY = ["scipy.optimize", "scipy.sparse", "scipy.spatial", "scipy.special", "scipy.linalg"]

def loaded():
    return [name for name in SCIPY if name in sys.modules]

after_import = loaded()
solves = []
linprog = netcert.scp.linprog

def recorded(lp):
    solves.append("scipy.optimize" in sys.modules)
    return linprog(lp)

netcert.scp.linprog = recorded
code = netcert.cli.main(['synth', '--config', sys.argv[1], '--output-dir', sys.argv[2]])
lbfgsb = sys.modules.get("scipy.optimize._lbfgsb")
threads = lbfgsb and ctypes.CDLL(lbfgsb.__file__).scipy_openblas_get_num_threads()
print(json.dumps([after_import, solves, loaded(), threads]))
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
    [(after_import, _), (after_synth, _)], _, _ = json.loads(proc.stdout.splitlines()[-1])
    assert not after_import, "import netcert.cli loaded scipy.stats"
    assert not after_synth, "netcert synth loaded scipy.stats"


def test_the_solve_runs_without_scipy_optimize(tmp_path):
    """Importing netcert.cli loads numpy and the HiGHS extension, and no
    other scipy package; the slope fits load scipy's L-BFGS-B extension
    and the OpenBLAS copy it links, which runs one thread, and no scipy
    package either.  So every solve, in a configuration of two classes
    too, runs without scipy.optimize."""
    one = tiny_room_config(tmp_path)
    doc = json.loads(one.read_text())
    doc["classes"].append({**doc["classes"][0], "id": "room-b", "benchmark_params": {"c": 0.45}})
    two = tmp_path / "room-tiny-two.json"
    two.write_text(json.dumps(doc))
    for config, solves in ((one, [False]), (two, [False, False])):
        proc = run_python(
            ["-c", IMPORTS, str(config), str(tmp_path / config.stem)], OPENBLAS_NUM_THREADS="4"
        )
        assert proc.returncode == 1, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [[], solves, [], 1]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
def test_cli_process_starts_no_blas_thread(tmp_path):
    """numpy's OpenBLAS, loaded by importing netcert.cli, and scipy's,
    loaded at the first slope fit, run one thread, so neither starts worker
    threads that would only wait; the process has one thread after the
    import and after `synth`, whatever OPENBLAS_NUM_THREADS it inherits,
    and the certificate keeps its bytes.
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
        steps, _, _ = json.loads(proc.stdout.splitlines()[-1])
        assert [tasks for _, tasks in steps] == [1, 1], (inherited, steps)
        certificates.append((out / "certificate.json").read_bytes())
    assert certificates[0] == certificates[1]


def test_import_keeps_the_bytecode_setting(tmp_path):
    """Importing netcert.cli leaves whether the process writes bytecode as
    the process was started: a process that may not write it compiles
    netcert's source at every start, and one that may keeps the cache."""
    for value, expected in ((None, "False"), ("1", "True")):
        proc = run_python(
            ["-c", "import sys, netcert.cli; print(sys.dont_write_bytecode)"],
            PYTHONDONTWRITEBYTECODE=value,
            PYTHONPYCACHEPREFIX=str(tmp_path),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == expected


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
@pytest.mark.skipif(verify_mod._cpu_budget() < 2, reason="the heatmap takes one worker")
def test_synth_forks_its_heatmap_worker_from_one_thread(tmp_path):
    """A heatmap of 67,600 points takes two workers, so `synth` forks one
    child for it.  The process has one thread when it forks, which makes
    the fork safe, and no child is left after `synth`.  The child leaves
    without running the staging directory's cleanup, so the heatmap CSV
    arrives whole.  The modules the child needs come in with numpy, so
    importing netcert.cli loads no module beyond the pinned ones."""
    doc = json.loads(tiny_room_config(tmp_path).read_text())
    doc["classes"][0].update(counts_state=[26], counts_input=[26])
    doc["verify_multiplier"] = 10
    config = tmp_path / "room-two-workers.json"
    config.write_text(json.dumps(doc))
    assert verify_mod._heatmap_workers(260 * 260) == 2
    proc = run_python(["-c", FOOTPRINT, str(config), str(tmp_path / "out")])
    assert proc.returncode == 1, proc.stderr
    steps, forks, child_left = json.loads(proc.stdout.splitlines()[-1])
    assert [tasks for _, tasks in steps] == [1, 1]
    assert forks == [1]
    assert not child_left
    with open(tmp_path / "out" / "room_heatmap.csv", "rb") as fh:
        assert sum(1 for _ in fh) == 1 + 260 * 260
    proc = run_python(["-c", IMPORTED_AFTER_NUMPY])
    assert proc.returncode == 0, proc.stderr
    added = set(json.loads(proc.stdout))
    stdlib = {name for name in added if name.split(".")[0] not in ("netcert", "numpy", "scipy")}
    assert stdlib <= STDLIB_AFTER_NUMPY, sorted(stdlib - STDLIB_AFTER_NUMPY)
    assert not {"pickle", "tempfile", "shutil"} & added


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
