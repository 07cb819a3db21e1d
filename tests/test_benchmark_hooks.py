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
)


def test_traced_benchmark_sees_every_layer(tmp_path):
    with open(os.path.join(REPO_ROOT, "configs", "room.json")) as fh:
        doc = json.load(fh)
    doc["classes"][0].update(counts_state=[5], counts_input=[5])
    doc.update(verify_multiplier=1, portrait_counts=[2], portrait_steps=5)
    doc["refine"]["enabled"] = False
    config = tmp_path / "room-tiny.json"
    config.write_text(json.dumps(doc))
    trace = tmp_path / "trace.json"
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(REPO_ROOT, "perfbench", "traced.py"),
            "hooks",
            str(trace),
            "synth",
            "--config",
            str(config),
            "--output-dir",
            str(tmp_path / "out"),
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    names = {span[0] for span in json.loads(trace.read_text())["spans"]}
    missing = [name for name in EXPECTED_SPANS if name not in names]
    assert not missing, f"traced run recorded no span for {missing}"
