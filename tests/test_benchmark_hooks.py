"""The traced benchmark (perfbench/traced.py) patches pipeline functions by
name from outside the package.  Running it on a tiny room config keeps a
refactor from silently moving a layer off the path the benchmark times."""
import json
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

EXPECTED_SPANS = (
    "core.basis_values",
    "blackbox.oracle_batch",
    "pipeline.build_scp",
    "pipeline.check_solution",
    "scp.linprog",
    "lipschitz.minimize",  # the tiny config's maxima vary, so both fits run
)

# Imports netcert.cli, runs `synth` in the same interpreter and prints
# whether scipy.stats was loaded after each step.
FOOTPRINT = """
import json, sys
import netcert.cli
loaded = ['scipy.stats' in sys.modules]
code = netcert.cli.main(['synth', '--config', sys.argv[1], '--output-dir', sys.argv[2]])
loaded.append('scipy.stats' in sys.modules)
print(json.dumps(loaded))
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


def run_python(args):
    env = dict(os.environ)
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
    names = {span[0] for span in json.loads(trace.read_text())["spans"]}
    missing = [name for name in EXPECTED_SPANS if name not in names]
    assert not missing, f"traced run recorded no span for {missing}"


def test_synth_never_imports_scipy_stats(tmp_path):
    """scipy.stats adds about 0.4 s of import to every run; the reverse-Weibull
    likelihood is written out so that nothing needs it."""
    config = tiny_room_config(tmp_path)
    proc = run_python(["-c", FOOTPRINT, str(config), str(tmp_path / "out")])
    assert proc.returncode == 1, proc.stderr
    after_import, after_synth = json.loads(proc.stdout.splitlines()[-1])
    assert not after_import, "import netcert.cli loaded scipy.stats"
    assert not after_synth, "netcert synth loaded scipy.stats"
