import copy
import csv
import io
import json
import os
import re
import subprocess
import sys
import typing
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netcert.pipeline
import netcert.scp
from netcert.blackbox import TOPOLOGY_KINDS, Topology, build_room_class, simulate_network
from netcert.cli import _load_config, build_parser, main
from netcert.compose import ClassCertificate, NetworkCertificate
from netcert.core import TransitionOracle
from netcert.lipschitz import LipschitzConfig, estimate_for_class
from netcert.pipeline import (
    CERTIFICATE_VERSION,
    CertificateFormatError,
    ClassConfig,
    ClassDiagnostics,
    ClassRun,
    ConfigError,
    PipelineConfig,
    RefineConfig,
    build_class,
    certificate_from_dict,
    certificate_to_dict,
    config_from_dict,
    config_to_dict,
    load_certificate,
    load_config,
    portrait_line,
    render_report,
    run_pipeline,
    store_certificate,
)
from netcert.sampling import DataFaultError, save_samples_csv
from netcert.verify import LevelSetReport
from netcert.scp import ScpOptions

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOM_CONFIG = os.path.join(REPO_ROOT, "configs", "room.json")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


def drift_config_doc(csv_path, output_dir):
    return {
        "version": 1,
        "output_dir": str(output_dir),
        "topology": {"kind": "ring", "weight_decay": 0.5, "surrogate_size": 10},
        "scp": {"coeff_bound": 200.0, "gap": 0.001, "feasibility_tol": 1e-08},
        "lipschitz": {"gamma": 0.6, "inner_count": 100, "outer_count": 20, "seed": 5},
        "refine": {"enabled": False, "max_retries": 0},
        "classes": [
            {
                "id": "drift",
                "data_csv": str(csv_path),
                "state_dim": 1,
                "input_dim": 1,
                "state_box": [[0.0], [4.0]],
                "input_box": [[0.0], [4.0]],
                "initial_box": [[0.0], [0.5]],
                "unsafe_box": [[3.5], [4.0]],
                "template_exponents": [[1], [0]],
            }
        ],
    }


@pytest.fixture()
def drift_csv(tmp_path, drift_samples):
    path = tmp_path / "drift_samples.csv"
    save_samples_csv(path, drift_samples)
    return path


class TestMarginsCommand:
    def test_room_regression(self, capsys):
        code = main(
            [
                "margins",
                "--eta", "-16.928", "--beta", "0.02",
                "--l1", "25.51", "--l2", "14.8845", "--theta", "0.1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        values = {
            line.split(" = ")[0]: line.split(" = ")[1]
            for line in out.strip().splitlines()
            if " = " in line
        }
        assert float(values["m1_exact"]) == pytest.approx(-14.3770, abs=1e-3)
        assert float(values["m2_exact"]) == pytest.approx(-15.4195, abs=1e-3)

    def test_vehicle_regression(self, capsys):
        code = main(
            [
                "margins",
                "--eta", "-0.4098", "--beta", "0",
                "--l1", "7.8288", "--l2", "7.4875", "--theta", "0.05",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        values = {
            line.split(" = ")[0]: line.split(" = ")[1]
            for line in out.strip().splitlines()
            if " = " in line
        }
        assert float(values["m1_exact"]) == pytest.approx(-0.0184, abs=1e-3)
        assert float(values["m2_exact"]) == pytest.approx(-0.0355, abs=1.5e-3)


class TestConfigValidation:
    def test_overlapping_boxes_rejected_before_compute(self, tmp_path, drift_csv):
        doc = drift_config_doc(drift_csv, tmp_path / "out")
        doc["classes"][0]["unsafe_box"] = [[0.25], [1.0]]  # overlaps initial
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, doc))

    def test_unknown_benchmark_rejected(self, tmp_path):
        doc = {
            "version": 1,
            "classes": [
                {"id": "x", "benchmark": "nonexistent", "counts_state": [3], "counts_input": [3]}
            ],
        }
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, doc))

    def test_version_mismatch_rejected(self, tmp_path, drift_csv):
        doc = drift_config_doc(drift_csv, tmp_path / "out")
        doc["version"] = 99
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, doc))

    @pytest.mark.parametrize(
        "doc, path, value, message",
        [
            ("room", ["verify_multipler"], 1, "unknown key 'verify_multipler'"),
            ("room", ["topology", "size"], 3, "unknown key 'topology.size'"),
            ("room", ["scp", "coef_bound"], 1.0, "unknown key 'scp.coef_bound'"),
            ("room", ["lipschitz", "sed"], 1, "unknown key 'lipschitz.sed'"),
            ("room", ["refine", "max_retry"], 1, "unknown key 'refine.max_retry'"),
            ("room", ["classes", 0, "typo"], 1, "unknown key 'classes[0].typo'"),
            (
                "room",
                ["classes", 0, "state_box"],
                [[10.0], [13.0]],
                "benchmark class 'room' does not take 'state_box'",
            ),
            ("drift", ["classes", 0, "counts_state"], [3], "data class 'drift' does not take 'counts_state'"),
        ],
        ids=[
            "top-level", "topology", "scp", "lipschitz", "refine", "class", "benchmark-kind", "data-kind"
        ],
    )
    def test_unknown_class_keys_rejected(self, doc, path, value, message):
        """Every level rejects a key it does not define, naming its path,
        instead of silently falling back to the default."""
        doc = read_json(ROOM_CONFIG) if doc == "room" else drift_config_doc("d.csv", "out")
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ConfigError, match=re.escape(message)):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("synth", ["--surrogate-size", "1"]),
            ("synth", ["--coeff-bound", "-5"]),
            ("synth", ["--gap", "-1"]),
            ("simulate", ["--surrogate-size", "1"]),
            ("synth", ["--gap", "400.5"]),  # above 2 * coeff_bound: infeasible
        ],
    )
    def test_flag_values_checked_before_compute(self, tmp_path, capsys, command, flags):
        """A flag value is checked like the same value in the file: a
        configuration error (exit 2) before anything is computed or written."""
        out = tmp_path / "out"
        target = ["--output-dir", str(out)] if command == "synth" else ["--output", str(out)]
        code = main([command, "--config", ROOM_CONFIG, *target, *flags])
        assert code == 2
        assert capsys.readouterr().err.startswith("configuration error: ")
        assert not out.exists()

    def test_repeated_class_id_rejected(self):
        doc = read_json(ROOM_CONFIG)
        doc["classes"].append({**doc["classes"][0], "benchmark_params": {"c": 0.45}})
        message = "class id 'room' is used by more than one class"
        with pytest.raises(ConfigError, match=re.escape(message)):
            config_from_dict(doc)

    def test_synth_refuses_a_repeated_class_id(self, tmp_path, capsys):
        """The second class's files would overwrite the first's."""
        doc = read_json(ROOM_CONFIG)
        doc["classes"].append(dict(doc["classes"][0]))
        out = tmp_path / "out"
        assert main(["synth", "--config", write_config(tmp_path, doc), "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            "configuration error: class id 'room' is used by more than one class\n"
        )
        assert not out.exists()

    def test_flags_fill_sections_the_file_omits(self, tmp_path):
        """A flag sets its key over the file; a section the file leaves out
        takes every other value from the defaults."""
        doc = read_json(ROOM_CONFIG)
        del doc["topology"], doc["lipschitz"]
        flags = ["--topology", "cascade", "--seed", "3"]
        args = build_parser().parse_args(["synth", "--config", write_config(tmp_path, doc), *flags])
        cfg = _load_config(args)
        assert cfg.topology == replace(PipelineConfig([]).topology, kind="cascade")
        assert cfg.lipschitz == replace(PipelineConfig([]).lipschitz, seed=3)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: [], "configuration must be a JSON object"),
            (lambda doc: {**doc, "topology": "ring"}, "topology must be a JSON object"),
        ],
        ids=["document", "section"],
    )
    def test_flags_over_a_part_that_is_no_object(self, tmp_path, capsys, edit, message):
        """A flag is not set into a document or section that is no JSON
        object; the configuration error names that part."""
        path = write_config(tmp_path, edit(read_json(ROOM_CONFIG)))
        assert main(["synth", "--config", path, "--topology", "cascade"]) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (["refine", "enabled"], "false", "refine.enabled must be a JSON boolean"),
            (
                ["classes", 0, "counts_state"],
                [31.9],
                "classes[0].counts_state[0] must be an integer",
            ),
            (["portrait_steps"], True, "portrait_steps must be a JSON number"),
            (["scp", "feasibility_tol"], float("inf"), "scp.feasibility_tol must be finite"),
        ],
        ids=["string-flag", "fractional-count", "bool-steps", "infinite-tolerance"],
    )
    def test_values_of_the_wrong_kind_rejected(self, tmp_path, path, value, message):
        """A flag is only a JSON boolean, an int only an integral number and
        a float only a finite one; nothing is converted silently."""
        doc = read_json(ROOM_CONFIG)
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(write_config(tmp_path, doc))

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (["portrait_steps"], -1, "portrait_steps must be >= 0, got -1"),
            (["portrait_counts"], [0], "portrait_counts must all be >= 1, got [0]"),
            (
                ["portrait_counts"],
                [5, 5],
                "portrait_counts must be empty or hold one count per state dimension (1) "
                "of class 'room'; got [5, 5]",
            ),
            (
                ["classes", 0, "counts_state"],
                [0],
                "class 'room': counts_state must hold one count >= 1 per dimension (1); got [0]",
            ),
            (
                ["classes", 0, "counts_state"],
                [5, 5],
                "class 'room': counts_state must hold one count >= 1 per dimension (1); "
                "got [5, 5]",
            ),
            (
                ["classes", 0, "counts_input"],
                [],
                "class 'room': counts_input must hold one count >= 1 per dimension (1); got []",
            ),
            (["verify_multiplier"], 0, "verify_multiplier must be >= 1, got 0"),
        ],
        ids=[
            "negative-steps",
            "zero-portrait-count",
            "portrait-dimension",
            "zero-count",
            "count-dimension",
            "no-input-counts",
            "zero-multiplier",
        ],
    )
    def test_values_that_break_outputs_rejected(self, tmp_path, capsys, path, value, message):
        """Counts, portrait settings and the verification multiplier are
        checked when the file loads: a value that the grids, the portrait or
        the dense checks could not use is a configuration error (exit 2)
        naming its key, and nothing is computed or written."""
        doc = read_json(ROOM_CONFIG)
        doc["classes"][0].update(counts_state=[5], counts_input=[5])
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        out = tmp_path / "out"
        code = main(["synth", "--config", write_config(tmp_path, doc), "--output-dir", str(out)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("configuration error: ")
        assert message in err
        assert not out.exists()

    def test_synth_exit_code_on_config_error(self, tmp_path, drift_csv, capsys):
        doc = drift_config_doc(drift_csv, tmp_path / "out")
        doc["classes"][0]["unsafe_box"] = [[0.25], [1.0]]
        code = main(["synth", "--config", write_config(tmp_path, doc)])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err


class TestDataFaults:
    """Faults in the data, not the configuration, end the run with exit 3."""

    def test_non_finite_benchmark_parameter(self, tmp_path, capsys):
        doc = read_json(ROOM_CONFIG)
        doc["classes"][0].update(
            counts_state=[5], counts_input=[5], benchmark_params={"c": float("nan")}
        )
        doc["output_dir"] = str(tmp_path / "out")
        assert main(["synth", "--config", write_config(tmp_path, doc)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(
            "synthesis failed: class 'room': oracle returned a non-finite value"
        )

    def test_data_csv_with_wrong_header(self, tmp_path, capsys):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text("a,b\n1,2\n")
        doc = drift_config_doc(csv_path, tmp_path / "out")
        assert main(["synth", "--config", write_config(tmp_path, doc)]) == 3
        assert capsys.readouterr().err.startswith(
            "synthesis failed: class 'drift': expected CSV header"
        )

    @pytest.mark.parametrize("kind", ["missing", "directory", "undecodable"])
    def test_unreadable_data_csv(self, tmp_path, capsys, kind):
        """A data CSV that cannot be opened or decoded ends synth with exit
        3 and one line that names the class and the file; nothing is written
        into the output directory."""
        csv_path = tmp_path / "data.csv"
        if kind == "directory":
            csv_path.mkdir()
        elif kind == "undecodable":
            csv_path.write_bytes(b"\xff\xfe")
        out = tmp_path / "out"
        out.mkdir()
        doc = drift_config_doc(csv_path, out)
        assert main(["synth", "--config", write_config(tmp_path, doc)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(
            f"synthesis failed: class 'drift': cannot read data CSV {csv_path}: "
        ), err
        assert err.count("\n") == 1
        assert os.listdir(out) == []

    def test_verify_with_a_missing_data_csv(self, tmp_path, drift_csv, capsys):
        """verify re-reads the data CSV to re-derive the margins: once the
        file is gone it exits 3 with one line naming the class and file."""
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path, drift_config_doc(drift_csv, out))
        assert main(["synth", "--config", cfg_path]) == 0
        drift_csv.unlink()
        capsys.readouterr()
        assert main(["verify", "--certificate", str(out / "certificate.json")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(
            f"cannot verify: class 'drift': cannot read data CSV {drift_csv}: "
        ), err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("cell", ["nan", "inf", "abc", None], ids=str)
    def test_malformed_data_csv(self, tmp_path, drift_csv, capsys, cell):
        """A cell that is not a finite number, or a row with an extra
        column (``None``), names the file and line; nothing is written."""
        lines = drift_csv.read_text().splitlines()
        cells = lines[3].split(",")
        if cell is None:
            cells.append("1.0")
        else:
            cells[1] = cell
        lines[3] = ",".join(cells)
        drift_csv.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        doc = drift_config_doc(drift_csv, out)
        assert main(["synth", "--config", write_config(tmp_path, doc)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(
            f"synthesis failed: class 'drift': {drift_csv} line 4: expected 3 finite numbers"
        )
        assert not out.exists()

    def test_non_finite_slope_sample(self, tmp_path, capsys, monkeypatch):
        """A room oracle that is NaN only for 12.5 < x < 12.9, off the 5x5
        sample grid, passes sampling and the scenario program; the slope
        samples of L2 meet it, and the run ends before anything is written
        instead of storing a NaN slope."""

        def room_with_hole(**params):
            cls = build_room_class(**params)
            step = cls.oracle.step_batch

            def step_with_hole(x, d):
                return np.where((12.5 < x) & (x < 12.9), np.nan, step(x, d))

            return replace(cls, oracle=TransitionOracle(step_with_hole))

        monkeypatch.setattr(netcert.pipeline, "BENCHMARKS", {"room": room_with_hole})
        doc = read_json(ROOM_CONFIG)
        doc["classes"][0].update(counts_state=[5], counts_input=[5])
        out = tmp_path / "out"
        code = main(["synth", "--config", write_config(tmp_path, doc), "--output-dir", str(out)])
        assert code == 3
        assert capsys.readouterr().err.startswith(
            "synthesis failed: class 'room': non-finite slope between ["
        )
        assert not out.exists()

    def test_too_few_pairs_within_gamma(self, tmp_path, drift_csv, capsys):
        """No two distinct drift rows lie within gamma = 0.01, so the data
        give no slope quotient for L2: one line that names the smallest
        distance between distinct rows, and nothing is written."""
        out = tmp_path / "out"
        doc = drift_config_doc(drift_csv, out)
        doc["lipschitz"]["gamma"] = 0.01
        assert main(["synth", "--config", write_config(tmp_path, doc)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(
            "synthesis failed: class 'drift': only 0 pairs of distinct recorded points "
            "lie within gamma = 0.01 of each other"
        )
        assert "; the closest distinct rows are 0.19999999999999973 apart; " in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_verify_names_the_class_of_a_heatmap_fault(self, tmp_path, capsys):
        """A certificate whose embedded room parameters overflow the oracle
        on the heatmap grid: verify exits 3 with one line that names the
        class and the first faulty point, not a traceback."""
        doc = read_json(ROOM_CONFIG)
        doc["classes"][0].update(counts_state=[5], counts_input=[5])
        out = tmp_path / "out"
        main(["synth", "--config", write_config(tmp_path, doc), "--output-dir", str(out)])
        cert_doc = read_json(out / "certificate.json")
        cert_doc["provenance"]["config"]["classes"][0]["benchmark_params"] = {"a": 1e308}
        certificate = write_config(tmp_path, cert_doc, name="certificate.json")
        capsys.readouterr()
        flags = ["--grid-per-dim", "20", "--trajectories", "2", "--steps", "5"]
        code = main(["verify", "--certificate", certificate, *flags])
        assert code == 3
        assert capsys.readouterr().err == (
            "cannot verify: class 'room': non-finite oracle output or decrease value "
            "at x=[10.0], d=[10.0]\n"
        )

    def test_heatmap_fault_leaves_the_output_directory_alone(
        self, tmp_path, capsys, monkeypatch
    ):
        """A room oracle that is NaN only at the heatmap grid's second state
        value passes sampling, the program and the slope fits; the heatmap
        then ends the run, and the output directory of an earlier run keeps
        exactly what it held, with no staging directory left beside it."""
        hole = np.linspace(10.0, 13.0, 50)[1]

        def room_with_point_hole(**params):
            cls = build_room_class(**params)
            step = cls.oracle.step_batch
            oracle = TransitionOracle(lambda x, d: np.where(x == hole, np.nan, step(x, d)))
            return replace(cls, oracle=oracle)

        monkeypatch.setattr(netcert.pipeline, "BENCHMARKS", {"room": room_with_point_hole})
        doc = read_json(ROOM_CONFIG)
        doc["classes"][0].update(counts_state=[5], counts_input=[5])
        assert doc["verify_multiplier"] == 10
        out = tmp_path / "out"
        out.mkdir()
        (out / "sentinel.txt").write_text("earlier run\n")
        code = main(["synth", "--config", write_config(tmp_path, doc), "--output-dir", str(out)])
        assert code == 3
        assert capsys.readouterr().err == (
            "synthesis failed: class 'room': non-finite oracle output or decrease value "
            "at x=[10.061224489795919], d=[10.0]\n"
        )
        assert os.listdir(out) == ["sentinel.txt"]
        assert (out / "sentinel.txt").read_text() == "earlier run\n"
        assert sorted(os.listdir(tmp_path)) == ["config.json", "out"]

    def test_verify_names_the_class_of_a_portrait_fault(self, tmp_path, capsys, monkeypatch):
        """A room oracle that is NaN only for 10.95 < x < 10.97 misses the
        20-point heatmap grid, but the trajectory from x = 11 steps to 10.96
        and then to NaN: verify exits 3 naming the class and that state
        instead of passing a portrait no state of which is unsafe."""
        doc = read_json(ROOM_CONFIG)
        doc["classes"][0].update(counts_state=[5], counts_input=[5])
        out = tmp_path / "out"
        main(["synth", "--config", write_config(tmp_path, doc), "--output-dir", str(out)])
        capsys.readouterr()

        def room_with_hole(**params):
            cls = build_room_class(**params)
            step = cls.oracle.step_batch
            oracle = TransitionOracle(
                lambda x, d: np.where((10.95 < x) & (x < 10.97), np.nan, step(x, d))
            )
            return replace(cls, oracle=oracle)

        monkeypatch.setattr(netcert.pipeline, "BENCHMARKS", {"room": room_with_hole})
        flags = ["--grid-per-dim", "20", "--trajectories", "2", "--steps", "5"]
        code = main(["verify", "--certificate", str(out / "certificate.json"), *flags])
        assert code == 3
        assert capsys.readouterr().err == (
            "cannot verify: class 'room': non-finite state [nan] at step 2 of subsystem 0 "
            "in the trajectory from [11.0]\n"
        )

    def test_simulate_exits_3_on_a_non_finite_portrait(self, tmp_path, capsys):
        """Every state of an overflowing room oracle is inf or NaN, so none
        lies in the unsafe box: one line naming the first one, exit 3."""
        doc = read_json(ROOM_CONFIG)
        doc["classes"][0]["benchmark_params"] = {"a": 1e308}
        args = ["--trajectories", "2", "--steps", "5"]
        code = main(["simulate", "--config", write_config(tmp_path, doc), *args])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == (
            "simulation failed: class 'room': non-finite state [inf] at step 1 of "
            "subsystem 0 in the trajectory from [10.0]\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["synth", "verify", "lipschitz", "simulate"])
    def test_overflow_prints_one_stderr_line(self, tmp_path, command):
        """numpy's overflow warnings are silenced where a finiteness check
        follows, so a fresh process prints the one error line only."""
        doc = read_json(ROOM_CONFIG)
        doc["classes"][0].update(counts_state=[5], counts_input=[5])
        if command in ("verify", "lipschitz"):
            out = tmp_path / "out"
            main(["synth", "--config", write_config(tmp_path, doc), "--output-dir", str(out)])
            cert_doc = read_json(out / "certificate.json")
            cert_doc["provenance"]["config"]["classes"][0]["benchmark_params"] = {"a": 1e308}
            args = ["--certificate", write_config(tmp_path, cert_doc, "certificate.json")]
            if command == "verify":
                args += ["--grid-per-dim", "20", "--trajectories", "2", "--steps", "5"]
            else:
                args += ["--class-id", "room", "--inner", "10", "--outer", "5"]
        else:
            doc["classes"][0]["benchmark_params"] = {"a": 1e308}
            args = ["--config", write_config(tmp_path, doc), "--output-dir", str(tmp_path / "o")]
            if command == "simulate":
                args = args[:2] + ["--trajectories", "2", "--steps", "5"]
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "netcert.cli", command, *args],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert proc.stderr.split(": ")[1] == "class 'room'"


def rename_class(doc, new_id):
    doc["classes"][0]["class_id"] = new_id
    for failure in doc["failures"]:
        failure["class_id"] = new_id


def as_format_1(doc):
    """The format-1 shape, which also held the surrogate size, the sample
    counts, each class's fit configuration and export_lp."""
    config = doc["provenance"]["config"]
    doc.update(version=1, reference_size=config["topology"]["surrogate_size"])
    doc["provenance"]["sample_counts"] = {c["class_id"]: c["sample_count"] for c in doc["classes"]}
    config["export_lp"] = False
    for entry in doc["classes"]:
        entry["lipschitz_config"] = config["lipschitz"]


# edit of a stored room certificate -> part of the one line that refuses it
TAMPERED_CERTIFICATES = {
    "asymmetric-s11": (
        lambda doc: doc["classes"][0].update(supply_s11=[[1.0, 2.0], [0.0, 1.0]]),
        "s11 must be symmetric",
    ),
    "s12-shape": (
        lambda doc: doc["classes"][0].update(supply_s12=[[1.0, 2.0]]),
        "s12 must be 1x1, got (1, 2)",
    ),
    "one-coefficient-short": (
        lambda doc: doc["classes"][0]["coeffs"].pop(),
        "2 coefficients for 3 template terms",
    ),
    "template": (
        lambda doc: doc["classes"][0].update(template_exponents=[[4], [1], [0]]),
        "class 'room': template_exponents [[4], [1], [0]] differ from the embedded "
        "configuration's [[4], [2], [0]]",
    ),
    "ragged-s22": (
        lambda doc: doc["classes"][0].update(supply_s22=[[1.0], [1.0, 2.0]]),
        "classes[0]: s22 rows differ in length: [1, 2]",
    ),
    "supply-dimensions": (
        lambda doc: doc["classes"][0].update(
            supply_s11=[[1.0, 0.0], [0.0, 1.0]], supply_s12=[[0.0], [0.0]]
        ),
        "class 'room': supply blocks for (input, state) dimensions (2, 1), class has (1, 1)",
    ),
    "unknown-class": (
        lambda doc: rename_class(doc, "attic"),
        "class 'attic' is not in the embedded configuration",
    ),
    "format-1": (as_format_1, "unsupported certificate version 1; expected 2\n"),
    "grid-spec-null": (
        lambda doc: doc["classes"][0].update(grid_spec=None),
        "class 'room': grid_spec must hold one count >= 1 per state and input "
        "dimension (1, 1), got null\n",
    ),
    "grid-spec-no-input": (
        lambda doc: doc["classes"][0].update(grid_spec=[[31], []]),
        "dimension (1, 1), got [[31], []]\n",
    ),
    "grid-spec-zero": (
        lambda doc: doc["classes"][0].update(grid_spec=[[0], [31]]),
        "dimension (1, 1), got [[0], [31]]\n",
    ),
}


class TestTamperedCertificates:
    """A certificate whose class record is inconsistent, in itself or with
    the class rebuilt from its embedded configuration, or whose format is
    not this one, is refused when it loads: exit 2 and one line, before any
    compute."""

    @pytest.mark.parametrize(
        "command",
        [["verify", "--grid-per-dim", "5"], ["lipschitz", "--class-id", "room"]],
        ids=["verify", "lipschitz"],
    )
    @pytest.mark.parametrize("edit", TAMPERED_CERTIFICATES, ids=str)
    def test_refused_with_exit_2(self, tmp_path, capsys, room_certificate_doc, command, edit):
        change, message = TAMPERED_CERTIFICATES[edit]
        doc = copy.deepcopy(room_certificate_doc)
        change(doc)
        path = write_config(tmp_path, doc, "certificate.json")
        code = main([command[0], "--certificate", path, *command[1:]])
        captured = capsys.readouterr()
        assert code == 2
        prefix = "cannot verify: " if command[0] == "verify" else "cannot estimate: "
        assert captured.err.startswith(prefix) and captured.err.count("\n") == 1
        assert message in captured.err
        assert captured.out == ""

    def test_data_class_grid_spec_must_be_null(self, tmp_path, capsys, drift_csv):
        """A data class's samples are its CSV's rows, never a grid."""
        out = tmp_path / "out"
        config = write_config(tmp_path, drift_config_doc(drift_csv, out))
        assert main(["synth", "--config", config]) == 0
        doc = read_json(out / "certificate.json")
        doc["classes"][0]["grid_spec"] = [[21], [11]]
        path = write_config(tmp_path, doc, "certificate.json")
        capsys.readouterr()
        assert main(["verify", "--certificate", path]) == 2
        assert capsys.readouterr().err == (
            "cannot verify: class 'drift': grid_spec must be null for a data class, "
            "got [[21], [11]]\n"
        )


def exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects a flag value
        return exc.code


DEMO = ["lipschitz", "--demo", "sin"]
MARGINS_ARGS = ["margins", "--eta", "-1", "--l1", "1", "--l2", "1", "--theta", "0.1"]


class TestCommandFlags:
    @pytest.mark.parametrize(
        "flags",
        [
            ["verify", "--grid-per-dim", "0"],
            ["verify", "--grid-per-dim", "1"],
            ["verify", "--trajectories", "0"],
            ["verify", "--steps", "-1"],
            ["simulate", "--trajectories", "0"],
            ["simulate", "--steps", "-1"],
            [*DEMO, "--gamma", "0"],
            [*DEMO, "--gamma", "inf"],
            [*DEMO, "--gamma", "nan"],
            [*DEMO, "--inner", "1"],
            [*DEMO, "--outer", "1"],
            [*DEMO, "--seed", "-1"],
            [*MARGINS_ARGS, "--eta", "nan"],
            [*MARGINS_ARGS, "--beta", "inf"],
            [*MARGINS_ARGS, "--sigma=-inf"],
            [*MARGINS_ARGS, "--phi", "nan"],
            [*MARGINS_ARGS, "--l1", "-1"],
            [*MARGINS_ARGS, "--l2", "-1"],
            [*MARGINS_ARGS, "--theta", "-0.1"],
        ],
        ids=" ".join,
    )
    def test_bad_value_rejected_before_compute(
        self, tmp_path, capsys, room_certificate_doc, flags
    ):
        """A value the command could not use is a usage error (exit 2)
        before anything is computed or written."""
        command = flags[0]
        if command == "verify":
            cert = tmp_path / "certificate.json"
            cert.write_text(json.dumps(room_certificate_doc))
            flags = [*flags, "--certificate", str(cert)]
        elif command == "simulate":
            flags = [*flags, "--config", ROOM_CONFIG, "--output", str(tmp_path / "traj.csv")]
        assert exit_code(flags) == 2
        assert capsys.readouterr().out == ""
        assert os.listdir(tmp_path) == (["certificate.json"] if command == "verify" else [])


class TestSynthCertifiedPath:
    """The strictly-decreasing external-data class certifies end to end:
    exit status 0, certificate persisted and reloadable."""

    def test_exit_zero_and_artifacts(self, tmp_path, drift_csv, capsys):
        out_dir = tmp_path / "out"
        cfg_path = write_config(tmp_path, drift_config_doc(drift_csv, out_dir))
        code = main(["synth", "--config", cfg_path])
        stdout = capsys.readouterr().out
        assert code == 0, stdout
        assert "verdict: certified" in stdout
        cert = load_certificate(out_dir / "certificate.json")
        assert cert.certified
        drift = cert.class_by_id("drift")
        assert drift.m1 < 0 and drift.m2 < 0
        assert (out_dir / "drift_samples.csv").exists()
        assert (out_dir / "drift_levels.csv").exists()
        assert (out_dir / "drift_surface.csv").exists()
        assert (out_dir / "report.txt").exists()
        # the staging directory the artifacts were written into is gone
        assert sorted(os.listdir(tmp_path)) == ["config.json", "drift_samples.csv", "out"]

    def test_runs_are_byte_identical(self, tmp_path, drift_csv):
        cfg_a = write_config(tmp_path, drift_config_doc(drift_csv, tmp_path / "a"), "a.json")
        cfg_b = write_config(tmp_path, drift_config_doc(drift_csv, tmp_path / "b"), "b.json")
        assert main(["synth", "--config", cfg_a]) == 0
        assert main(["synth", "--config", cfg_b]) == 0
        cert_a = (tmp_path / "a" / "certificate.json").read_bytes()
        cert_b = (tmp_path / "b" / "certificate.json").read_bytes()
        assert cert_a == cert_b

    def test_certificate_does_not_depend_on_export_lp(self, tmp_path):
        """Whether the LP text is written does not shape the certificate, so
        room with and without --export-lp writes the same certificate bytes."""
        for name, flags in (("plain", []), ("lp", ["--export-lp"])):
            out = str(tmp_path / name)
            assert main(["synth", "--config", ROOM_CONFIG, "--output-dir", out, *flags]) == 1
        plain = (tmp_path / "plain" / "certificate.json").read_bytes()
        assert (tmp_path / "lp" / "certificate.json").read_bytes() == plain

    def test_export_lp_flag_writes_program(self, tmp_path, drift_csv):
        out_dir = tmp_path / "out"
        cfg_path = write_config(tmp_path, drift_config_doc(drift_csv, out_dir))
        assert main(["synth", "--config", cfg_path, "--export-lp"]) == 0
        text = (out_dir / "drift_program.lp").read_text()
        assert text.startswith("Minimize")

    def test_verify_subcommand_accepts_certificate(self, tmp_path, drift_csv, capsys):
        out_dir = tmp_path / "out"
        cfg_path = write_config(tmp_path, drift_config_doc(drift_csv, out_dir))
        assert main(["synth", "--config", cfg_path]) == 0
        capsys.readouterr()
        code = main(["verify", "--certificate", str(out_dir / "certificate.json")])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "stored verdict: certified" in out

    def test_verify_reproduces_the_margins(self, tmp_path, drift_csv, capsys):
        """The data class's samples come from its CSV and its L2 from the
        recorded pairs; verify re-derives both and the certificate equals the
        stored one field for field."""
        out_dir = tmp_path / "out"
        cfg_path = write_config(tmp_path, drift_config_doc(drift_csv, out_dir))
        assert main(["synth", "--config", cfg_path]) == 0
        capsys.readouterr()
        code = main(["verify", "--certificate", str(out_dir / "certificate.json")])
        out = capsys.readouterr().out.splitlines()
        assert code == 0, out
        assert out[-1] == "[drift] margins: reproduced"

    def test_verify_from_another_directory(self, tmp_path, drift_samples, capsys, monkeypatch):
        """A relative data_csv is resolved against the working directory as
        the configuration is read, and the certificate names the absolute
        path, so verify re-reads the same file from any directory."""
        sub = tmp_path / "sub"
        sub.mkdir()
        save_samples_csv(sub / "drift_samples.csv", drift_samples)
        write_config(sub, drift_config_doc("drift_samples.csv", "out"))
        monkeypatch.chdir(sub)
        assert main(["synth", "--config", "config.json"]) == 0
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        code = main(["verify", "--certificate", os.path.join("sub", "out", "certificate.json")])
        out = capsys.readouterr().out.splitlines()
        assert code == 0, out
        assert out[-1] == "[drift] margins: reproduced"


class TestZeroWidthDataBox:
    def test_synth_writes_a_certificate(self, tmp_path):
        """A data class whose input box has zero width, with every recorded
        d0 at that width's one value, gets one dispersion probe in that
        dimension: the run writes its certificate and prints a verdict, with
        no traceback."""
        states = np.linspace(0.0, 4.0, 41).tolist()
        rows = ["x0,d0,fx0"] + [f"{x!r},2.0,{x - 0.5!r}" for x in states]
        csv_path = tmp_path / "flat.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        doc = drift_config_doc(csv_path, out)
        doc["classes"][0]["input_box"] = [[2.0], [2.0]]
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "netcert.cli", "synth", "--config", write_config(tmp_path, doc)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert "Traceback" not in proc.stderr, proc.stderr
        assert proc.returncode in (0, 1), proc.stderr
        assert proc.stdout.startswith("verdict: ")
        assert (out / "certificate.json").exists()


    def test_zero_width_initial_box(self, tmp_path, capsys, drift_csv):
        """The dense level-set grid takes one point in a zero-width dimension
        of the initial box, as the dispersion probes do, so synth and verify
        check the class and print its levels line."""
        out = tmp_path / "out"
        doc = drift_config_doc(drift_csv, out)
        doc["classes"][0]["initial_box"] = [[0.0], [0.0]]
        doc["lipschitz"]["gamma"] = 0.5
        assert main(["synth", "--config", write_config(tmp_path, doc)]) in (0, 1)
        assert "[drift] levels: initial max " in (out / "report.txt").read_text()
        capsys.readouterr()
        assert main(["verify", "--certificate", str(out / "certificate.json")]) in (0, 1)
        assert "[drift] levels: initial max " in capsys.readouterr().out


class TestSolverFailure:
    def test_non_optimal_status_exits_3(self, tmp_path, capsys, monkeypatch):
        """A solve that ends without an optimum names HiGHS's status and
        message, and nothing is written."""

        def time_out(*args, **kwargs):
            return SimpleNamespace(status=1, x=None, fun=None, message="Time limit reached.")

        monkeypatch.setattr(netcert.scp, "linprog", time_out)
        out = tmp_path / "out"
        assert main(["synth", "--config", ROOM_CONFIG, "--output-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(
            "synthesis failed: class 'room': scenario program failed: Time limit reached."
        )
        assert not out.exists()

    def test_time_limit_exits_3(self, tmp_path, capsys, monkeypatch):
        """A HiGHS run that reaches ``scp.TIME_LIMIT_S`` ends synth with exit 3."""
        monkeypatch.setattr(netcert.scp, "TIME_LIMIT_S", 0.0)
        out = tmp_path / "out"
        assert main(["synth", "--config", ROOM_CONFIG, "--output-dir", str(out)]) == 3
        assert capsys.readouterr().err == (
            "synthesis failed: class 'room': scenario program failed: Time limit reached\n"
        )
        assert not out.exists()


def render_cell(cell):
    """A data cell as ``csv.writer`` is handed it: an int or a word as
    written, any other number as the ``repr`` of its float."""
    if cell.lstrip("-").isdigit():
        return cell
    try:
        return repr(float(cell))
    except ValueError:
        return cell


class TestSynthRoomBenchmark:
    def test_room_not_certified_with_margin_report(self, tmp_path, capsys):
        code = main(
            ["synth", "--config", ROOM_CONFIG, "--output-dir", str(tmp_path / "room")]
        )
        stdout = capsys.readouterr().out
        assert code == 1  # ran to completion, margins not satisfied
        assert "verdict: not-certified" in stdout
        assert "m2" in stdout
        cert = load_certificate(tmp_path / "room" / "certificate.json")
        assert not cert.certified
        conditions = {cond for _, cond, _ in cert.failures}
        assert "m2" in conditions
        # of the 2,605 rows built, HiGHS gets the 1,945 that repeat no level row
        report = (tmp_path / "room" / "report.txt").read_text().splitlines()
        line = "[room] LP: 2605 rows built, 1945 in the HiGHS model, 10 columns, 9712 nonzeros"
        assert line in report

    def test_every_csv_has_csv_writer_bytes(self, tmp_path):
        """Each CSV that synth writes is what ``csv.writer`` writes for the
        cells it holds: re-read with ``csv.reader`` and re-rendered one
        ``writerow`` per row, floats as ``repr(float(cell))`` and ints and
        words as written, the bytes are the same."""
        doc = read_json(ROOM_CONFIG)
        doc.update(portrait_counts=[4], portrait_steps=20)
        doc["classes"][0].update(counts_state=[5], counts_input=[5])
        out = tmp_path / "out"
        main(["synth", "--config", write_config(tmp_path, doc), "--output-dir", str(out)])
        names = sorted(p.name for p in out.glob("*.csv"))
        assert names == [
            f"room_{kind}.csv"
            for kind in ("heatmap", "levels", "samples", "surface", "trajectories_ring")
        ]
        for name in names:
            written = (out / name).read_bytes()
            fh = io.StringIO(newline="")
            writer = csv.writer(fh)
            with open(out / name, newline="") as rows:
                for r, row in enumerate(csv.reader(rows)):
                    writer.writerow(row if r == 0 else [render_cell(cell) for cell in row])
            assert fh.getvalue().encode() == written, name

    def test_verify_checks_heatmap_and_portrait(self, tmp_path, capsys):
        """An oracle-backed certificate is also checked on a dense decrease
        heatmap and a phase portrait; verify exits 1 exactly when a check
        says FAIL or a trajectory enters the unsafe box."""
        doc = read_json(ROOM_CONFIG)
        doc["classes"][0].update(counts_state=[5], counts_input=[5])
        out = tmp_path / "out"
        main(["synth", "--config", write_config(tmp_path, doc), "--output-dir", str(out)])
        capsys.readouterr()
        certificate = str(out / "certificate.json")
        flags = ["--grid-per-dim", "20", "--trajectories", "2", "--steps", "5"]
        code = main(["verify", "--certificate", certificate, *flags])
        lines = capsys.readouterr().out.splitlines()
        heatmap = [line for line in lines if line.startswith("[room] decrease heatmap: max ")]
        portrait = [
            re.fullmatch(
                r"\[room\] phase portrait \(ring\): (\d+) unsafe entries and (\d+) box "
                r"exits out of 2 trajectories, (\d+) clamp events",
                line,
            )
            for line in lines
            if line.startswith("[room] phase portrait ")
        ]
        assert len(heatmap) == 1 and len(portrait) == 1 and portrait[0], lines
        failed = any("FAIL" in line for line in lines) or int(portrait[0].group(1)) > 0
        assert code == (1 if failed else 0), lines

    def test_verify_prints_the_report_diagnostics(self, tmp_path, capsys):
        """On the grids synth used (5 x 5 samples times 4, 2 portrait
        trajectories of 5 steps), verify prints each class's diagnostic
        lines exactly as report.txt holds them, then the margins line of a
        certificate it re-derives field for field.  report.txt heads them
        with the shape of the program synth solved, which verify does not
        build."""
        doc = read_json(ROOM_CONFIG)
        doc["classes"][0].update(counts_state=[5], counts_input=[5])
        doc.update(verify_multiplier=4, portrait_counts=[2], portrait_steps=5)
        out = tmp_path / "out"
        main(["synth", "--config", write_config(tmp_path, doc), "--output-dir", str(out)])
        capsys.readouterr()
        certificate = out / "certificate.json"
        flags = ["--grid-per-dim", "20", "--trajectories", "2", "--steps", "5"]
        code = main(["verify", "--certificate", str(certificate), *flags])
        stored_verdict, *printed = capsys.readouterr().out.splitlines()
        summary = render_report(load_certificate(certificate)).splitlines()
        report = (out / "report.txt").read_text().splitlines()
        assert report[: len(summary)] == summary
        program, *diagnostics = report[len(summary) :]
        shape = "71 rows built, 55 in the HiGHS model, 10 columns, 270 nonzeros"
        assert program == f"[room] LP: {shape}"
        assert [line.split(":")[0] for line in diagnostics] == [
            "[room] decrease heatmap",
            "[room] phase portrait (ring)",
            "[room] levels",
        ]
        assert stored_verdict == "stored verdict: not-certified"
        assert printed == diagnostics + ["[room] margins: reproduced"]
        assert code == (1 if any("FAIL" in line for line in diagnostics) else 0)

    def test_levels_line_shows_the_gap(self, tmp_path, capsys):
        """With ``scp.gap`` 0 the solved levels meet (phi = sigma), which
        verify fails while the level extrema, the heatmap, the portrait and
        the re-derived margins all pass: the levels line ends with that gap
        and its FAIL, in report.txt and in verify's output alike."""
        doc = read_json(ROOM_CONFIG)
        doc["classes"][0].update(counts_state=[5], counts_input=[5])
        doc["scp"]["gap"] = 0.0
        doc["verify_multiplier"] = 1
        out = tmp_path / "out"
        main(["synth", "--config", write_config(tmp_path, doc), "--output-dir", str(out)])
        capsys.readouterr()
        certificate = str(out / "certificate.json")
        flags = ["--grid-per-dim", "20", "--trajectories", "2", "--steps", "5"]
        code = main(["verify", "--certificate", certificate, *flags])
        _, *printed = capsys.readouterr().out.splitlines()
        assert code == 1, printed
        *passing, levels, margins = printed
        assert margins == "[room] margins: reproduced"
        assert passing[0].endswith("(<= 0, pass)"), passing
        assert " 0 unsafe entries " in passing[1], passing
        assert re.fullmatch(
            r"\[room\] levels: initial max (\S+) vs sigma (\S+) \(ok\); "
            r"unsafe min (\S+) vs phi (\S+) \(ok\); phi - sigma 0\.0 \(FAIL\)",
            levels,
        ), levels
        report = (out / "report.txt").read_text().splitlines()
        assert report[-1].endswith("; phi - sigma 0.0 (FAIL)")

    def test_verify_names_a_margin_field_that_differs(self, tmp_path, capsys):
        """A room certificate with one coefficient moved by 1e-9 relative
        still loads, since its stored margins are consistent with its stored
        inputs; verify re-derives the slacks from the samples, prints the
        first field that differs, eta, and exits 1."""
        doc = read_json(ROOM_CONFIG)
        doc["classes"][0].update(counts_state=[5], counts_input=[5])
        out = tmp_path / "out"
        main(["synth", "--config", write_config(tmp_path, doc), "--output-dir", str(out)])
        cert_doc = read_json(out / "certificate.json")
        cert_doc["classes"][0]["coeffs"][1] *= 1 + 1e-9
        certificate = write_config(tmp_path, cert_doc, name="edited.json")
        stored = load_certificate(certificate).class_by_id("room")
        capsys.readouterr()
        flags = ["--grid-per-dim", "5", "--trajectories", "1", "--steps", "1"]
        code = main(["verify", "--certificate", certificate, *flags])
        margins = capsys.readouterr().out.splitlines()[-1]
        assert code == 1
        match = re.fullmatch(r"\[room\] margins: stored eta (\S+), re-derived (\S+)", margins)
        assert match, margins
        assert match.group(1) == repr(stored.eta) != match.group(2)

    def test_verify_exits_3_when_a_row_exceeds_the_stored_slacks(self, tmp_path, capsys):
        """Moved by 1e-3 relative, the quartic coefficient raises sampled
        rows above the stored eta by more than ``feasibility_tol``: the
        re-derivation fails as synth would, with exit 3 and one line that
        names the class and the group."""
        doc = read_json(ROOM_CONFIG)
        doc["classes"][0].update(counts_state=[5], counts_input=[5])
        out = tmp_path / "out"
        main(["synth", "--config", write_config(tmp_path, doc), "--output-dir", str(out)])
        cert_doc = read_json(out / "certificate.json")
        cert_doc["classes"][0]["coeffs"][0] *= 1 + 1e-3
        certificate = write_config(tmp_path, cert_doc, name="edited.json")
        capsys.readouterr()
        flags = ["--grid-per-dim", "5", "--trajectories", "1", "--steps", "1"]
        assert main(["verify", "--certificate", certificate, *flags]) == 3
        err = capsys.readouterr().err
        assert err.startswith(
            "cannot verify: class 'room': solution residuals exceed tolerance in group "
        ), err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("cap", [2_500, 2_499], ids=["at-cap", "over-cap"])
    def test_heatmap_csv_skip_is_reported(self, tmp_path, monkeypatch, cap):
        """A heatmap of more points than the cap is not written as CSV, and
        report.txt says so with the point count and the cap."""
        monkeypatch.setattr(netcert.pipeline, "HEATMAP_CSV_POINT_CAP", cap)
        cfg = load_config(ROOM_CONFIG)
        cfg.output_dir = str(tmp_path / "out")
        cfg.classes[0].counts_state = (5,)
        cfg.classes[0].counts_input = (5,)
        run_pipeline(cfg)  # a heatmap of (10 * 5) x (10 * 5) = 2,500 points
        report = (tmp_path / "out" / "report.txt").read_text().splitlines()
        skipped = [line for line in report if "heatmap CSV" in line]
        written = (tmp_path / "out" / "room_heatmap.csv").exists()
        if cap == 2_500:
            assert written and skipped == []
        else:
            assert not written
            assert skipped == [
                "[room] decrease heatmap CSV not written: 2500 points exceed the cap of 2499"
            ]

    def test_refinement_doubles_grid_counts(self, tmp_path):
        cfg = load_config(ROOM_CONFIG)
        cfg.output_dir = str(tmp_path / "refined")
        cfg.classes[0].counts_state = (7,)
        cfg.classes[0].counts_input = (7,)
        cfg.refine = RefineConfig(enabled=True, max_retries=1)
        result = run_pipeline(cfg, write_outputs=False)
        assert result.refinement_rounds == 1
        assert result.certificate.class_by_id("room").sample_count == 14 * 14


class TestPortraitLine:
    def test_portrait_line_counts_box_exits_and_clamps(self, room_class):
        """Of three cascades of four rooms, the one started at 12.5 is in the
        unsafe box and the one started at 14.0 outside the state box, where
        each of its four inputs is clamped in each of the three steps."""
        topo = Topology(kind="cascade", surrogate_size=4)
        starts = np.array([10.5, 12.5, 14.0]).reshape(3, 1, 1).repeat(4, axis=1)
        runs = simulate_network(room_class, topo, starts, 3)
        assert portrait_line("room", "cascade", runs) == (
            "[room] phase portrait (cascade): 1 unsafe entries and 1 box exits "
            "out of 3 trajectories, 12 clamp events"
        )

    def test_box_exits_and_clamps_fail_the_diagnostics(self, room_class):
        """The cascade started at 14.0 enters no unsafe box but leaves the
        state box with 12 clamp events: the surrogate left the setting the
        certificate covers, so the diagnostics fail on either count alone."""
        topo = Topology(kind="cascade", surrogate_size=4)
        runs = simulate_network(room_class, topo, np.full((1, 4, 1), 14.0), 3)
        assert (runs.unsafe_entries, runs.box_exits, int(runs.clamp_events.sum())) == (0, 1, 12)
        point = np.array([11.0])
        levels = LevelSetReport(0.0, point, 2.0, point, sigma=1.0, phi=2.0)
        assert levels.passed

        def passed(portrait):
            return ClassDiagnostics("room", "cascade", levels, portrait=portrait).passed

        no_exit = replace(runs, outside=np.zeros_like(runs.outside))
        no_clamp = replace(runs, clamp_events=np.zeros_like(runs.clamp_events))
        assert [passed(runs), passed(no_exit), passed(no_clamp)] == [False, False, False]
        assert passed(replace(no_exit, clamp_events=no_clamp.clamp_events))


class TestCertificatePersistence:
    def test_round_trip_structural_equality(self, tmp_path, drift_csv):
        out_dir = tmp_path / "out"
        cfg = config_from_dict(drift_config_doc(drift_csv, out_dir))
        result = run_pipeline(cfg)
        loaded = load_certificate(result.certificate_path)
        assert loaded == result.certificate

    def test_truncated_file_rejected_without_partial_object(self, tmp_path, drift_csv):
        out_dir = tmp_path / "out"
        cfg = config_from_dict(drift_config_doc(drift_csv, out_dir))
        result = run_pipeline(cfg)
        with open(result.certificate_path) as fh:
            text = fh.read()
        bad = tmp_path / "truncated.json"
        bad.write_text(text[: len(text) // 2])
        with pytest.raises(CertificateFormatError):
            load_certificate(bad)

    def test_version_stamp_enforced(self, tmp_path, drift_csv):
        out_dir = tmp_path / "out"
        cfg = config_from_dict(drift_config_doc(drift_csv, out_dir))
        result = run_pipeline(cfg)
        doc = read_json(result.certificate_path)
        doc["version"] = CERTIFICATE_VERSION + 1
        bad = tmp_path / "wrong_version.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(CertificateFormatError):
            load_certificate(bad)

    def test_store_creates_trailing_newline_text(self, tmp_path, drift_csv):
        out_dir = tmp_path / "out"
        cfg = config_from_dict(drift_config_doc(drift_csv, out_dir))
        result = run_pipeline(cfg, write_outputs=False)
        path = tmp_path / "cert.json"
        store_certificate(result.certificate, path)
        text = path.read_text()
        assert text.endswith("\n")
        json.loads(text)  # valid JSON document


@pytest.fixture(scope="module")
def room_certificate_doc():
    """A small room run's certificate: not certified, m2 violated."""
    cfg = load_config(ROOM_CONFIG)
    cfg.classes[0].counts_state = cfg.classes[0].counts_input = (7,)
    doc = certificate_to_dict(run_pipeline(cfg, write_outputs=False).certificate)
    assert "m2" in [f["condition"] for f in doc["failures"]]
    return doc


class TestStoredCertificateConsistency:
    """A stored certificate loads only when its verdict, failures and margins
    are exactly what its records recompute from its classes."""

    def test_unedited_certificate_loads(self, room_certificate_doc):
        doc = json.loads(json.dumps(room_certificate_doc))
        assert certificate_to_dict(certificate_from_dict(doc)) == doc

    @pytest.mark.parametrize(
        "edit",
        [
            {"failures": [], "m2": -1.0},
            {"verdict": "certified"},
            {"m1": "next"},
            {"gap": "next"},
        ],
        ids=["failures-and-m2", "verdict", "m1-last-bit", "gap-last-bit"],
    )
    def test_edited_certificate_rejected(self, room_certificate_doc, edit):
        doc = copy.deepcopy(room_certificate_doc)
        entry = doc["classes"][0]
        for key, value in edit.items():
            if key in ("m1", "m2", "gap"):
                entry[key] = float(np.nextafter(entry[key], np.inf)) if value == "next" else value
            else:
                doc[key] = value
        with pytest.raises(CertificateFormatError, match="differ from the recomputed"):
            certificate_from_dict(json.loads(json.dumps(doc)))

    def test_unknown_key_rejected(self, room_certificate_doc):
        doc = copy.deepcopy(room_certificate_doc)
        doc["classes"][0]["l3"] = 1.0
        with pytest.raises(CertificateFormatError, match=re.escape("'classes[0].l3'")):
            certificate_from_dict(doc)


FLOATS = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(1e-9, 1e6)
COUNTS = st.lists(st.integers(1, 50), min_size=1, max_size=3).map(tuple)
ROOM_COUNTS = st.tuples(st.integers(1, 50))  # one count: room is 1-d in state and input


@st.composite
def class_configs(draw, index):
    cid = f"c{index}"
    if draw(st.booleans()):
        return ClassConfig(
            id=cid,
            benchmark="room",
            benchmark_params=draw(st.sampled_from([{}, {"c": 0.45}])),
            counts_state=draw(ROOM_COUNTS),
            counts_input=draw(ROOM_COUNTS),
            template_exponents=draw(st.sampled_from([None, ((2,), (1,), (0,))])),
        )
    lo = draw(FLOATS)
    width = draw(st.floats(1.0, 1e3))
    box = ((lo,), (lo + width,))
    return ClassConfig(
        id=cid,
        data_csv=draw(st.text(min_size=1, max_size=8)),
        template_exponents=((1,), (0,)),
        state_dim=1,
        input_dim=1,
        state_box=box,
        input_box=box,
        initial_box=((lo,), (lo + width / 4,)),
        unsafe_box=((lo + width / 2,), (lo + width,)),
    )


@st.composite
def pipeline_configs(draw):
    coeff_bound = draw(POSITIVE)
    return PipelineConfig(
        classes=[draw(class_configs(i)) for i in range(draw(st.integers(1, 3)))],
        output_dir=draw(st.text(max_size=8)),
        topology=Topology(
            kind=draw(st.sampled_from(TOPOLOGY_KINDS)),
            surrogate_size=draw(st.integers(2, 100)),
            weight_decay=draw(st.floats(1e-6, 1.0)),
        ),
        scp=ScpOptions(
            coeff_bound=coeff_bound,
            gap=draw(st.floats(0.0, min(1.0, 2 * coeff_bound))),
            feasibility_tol=draw(POSITIVE),
        ),
        lipschitz=LipschitzConfig(
            gamma=draw(POSITIVE),
            inner_count=draw(st.integers(2, 500)),
            outer_count=draw(st.integers(2, 100)),
            seed=draw(st.integers(0, 2**63)),
        ),
        refine=RefineConfig(enabled=draw(st.booleans()), max_retries=draw(st.integers(0, 5))),
        # empty, or one count per state dimension of the (1-d) room classes
        portrait_counts=draw(st.lists(st.integers(1, 30), max_size=1).map(tuple)),
        portrait_steps=draw(st.integers(1, 1000)),
        verify_multiplier=draw(st.integers(1, 20)),
        export_lp=draw(st.booleans()),
    )


def rows(n, m):
    row = st.lists(FLOATS, min_size=m, max_size=m).map(tuple)
    return st.lists(row, min_size=n, max_size=n).map(tuple)


@st.composite
def class_certificates(draw, index):
    terms = draw(st.integers(1, 4))
    return ClassCertificate(
        class_id=f"c{index}",
        template_exponents=tuple((e,) for e in range(terms)),
        coeffs=draw(st.lists(FLOATS, min_size=terms, max_size=terms).map(tuple)),
        sigma=draw(FLOATS),
        phi=draw(FLOATS),
        supply_s11=draw(rows(1, 1)),
        supply_s12=draw(rows(1, 1)),
        supply_s22=draw(rows(1, 1)),
        eta=draw(FLOATS),
        beta=draw(FLOATS),
        l1=draw(st.floats(0.0, 1e6)),
        l2=draw(st.floats(0.0, 1e6)),
        theta=draw(st.floats(0.0, 1e3)),
        sample_count=draw(st.integers(1, 10**6)),
        grid_spec=draw(st.one_of(st.none(), st.tuples(COUNTS, COUNTS))),
        l1_fallback=draw(st.booleans()),
        l2_fallback=draw(st.booleans()),
    )


CLASS_CERTIFICATE_TUPLES = st.integers(1, 3).flatmap(
    lambda n: st.tuples(*[class_certificates(i) for i in range(n)])
)


class TestSchemaRoundTrip:
    """Each record is read and written through its dataclass, so a written
    document reads back as the same object."""

    @settings(max_examples=60, deadline=None)
    @given(cfg=pipeline_configs())
    def test_config_round_trip(self, cfg):
        assert config_from_dict(config_to_dict(cfg)) == cfg
        assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg

    @settings(max_examples=60, deadline=None)
    @given(
        classes=CLASS_CERTIFICATE_TUPLES,
        surrogate_size=st.integers(1, 1000),
    )
    def test_certificate_round_trip(self, classes, surrogate_size):
        config = {"topology": {"surrogate_size": surrogate_size}}
        cert = NetworkCertificate(classes, provenance={"tool_version": "x", "config": config})
        assert certificate_from_dict(json.loads(json.dumps(certificate_to_dict(cert)))) == cert

    @settings(max_examples=100, deadline=None)
    @given(
        classes=CLASS_CERTIFICATE_TUPLES,
        data=st.data(),
    )
    def test_derived_fields_are_checked(self, classes, data):
        """A stored margin, failure or verdict is compared with the one its
        record recomputes: an unedited document reads back to itself, and
        a one-ulp bump of a margin, a flipped verdict or one edited, dropped
        or reordered failure is rejected."""
        doc = json.loads(json.dumps(certificate_to_dict(NetworkCertificate(classes))))
        assert certificate_to_dict(certificate_from_dict(copy.deepcopy(doc))) == doc
        failures = doc["failures"]
        edits = ["margin", "verdict"] + ["edit-failure", "drop-failure"] * bool(failures)
        edits += ["reorder-failures"] * (len(failures) > 1)
        edit = data.draw(st.sampled_from(edits))
        if edit == "margin":
            entry = doc["classes"][data.draw(st.integers(0, len(classes) - 1))]
            key = data.draw(st.sampled_from(["m1", "m2", "gap"]))
            direction = data.draw(st.sampled_from([-np.inf, np.inf]))
            entry[key] = float(np.nextafter(entry[key], direction))
        elif edit == "verdict":
            flipped = {"certified": "not-certified", "not-certified": "certified"}
            doc["verdict"] = flipped[doc["verdict"]]
        elif edit == "edit-failure":
            failure = failures[data.draw(st.integers(0, len(failures) - 1))]
            key = data.draw(st.sampled_from(["class_id", "condition", "amount"]))
            if key == "amount":
                failure[key] = float(np.nextafter(failure[key], np.inf))
            else:
                failure[key] += "x"
        elif edit == "drop-failure":
            del failures[data.draw(st.integers(0, len(failures) - 1))]
        else:
            i = data.draw(st.integers(0, len(failures) - 2))
            failures[i], failures[i + 1] = failures[i + 1], failures[i]
        with pytest.raises(CertificateFormatError, match="differ from the recomputed"):
            certificate_from_dict(json.loads(json.dumps(doc)))

    def test_class_entries_name_only_their_keys(self):
        """The config embedded in every certificate writes a class as the
        bundled files do, so its bytes do not depend on unused fields."""
        for doc in (read_json(ROOM_CONFIG), drift_config_doc(os.path.abspath("d.csv"), "out")):
            assert config_to_dict(config_from_dict(doc))["classes"] == doc["classes"]

    def test_record_annotations_resolve(self):
        for record in (PipelineConfig, ClassConfig, ClassRun, ClassCertificate):
            typing.get_type_hints(record)


class TestBenchmarkOverrides:
    def test_benchmark_params_reach_the_oracle(self):
        from netcert.pipeline import ClassConfig, build_class

        cc = ClassConfig(
            id="warm-room",
            benchmark="room",
            benchmark_params={"c": 0.45},
            counts_state=(3,),
            counts_input=(3,),
        )
        cls = build_class(cc)
        out = cls.oracle.batch(np.array([[10.0]]), np.array([[10.0]]))
        assert out[0, 0] == pytest.approx(10.05, abs=1e-12)

    def test_template_override(self):
        from netcert.pipeline import ClassConfig, build_class

        cc = ClassConfig(
            id="quad-room",
            benchmark="room",
            template_exponents=((2,), (1,), (0,)),
            counts_state=(3,),
            counts_input=(3,),
        )
        cls = build_class(cc)
        assert cls.template.term_count == 3
        assert cls.template.exponents[1, 0] == 1

    def test_bad_benchmark_param_rejected(self):
        from netcert.pipeline import ClassConfig, build_class

        cc = ClassConfig(
            id="x",
            benchmark="room",
            benchmark_params={"unknown_knob": 1.0},
            counts_state=(3,),
            counts_input=(3,),
        )
        with pytest.raises(ConfigError):
            build_class(cc)


class TestOtherSubcommands:
    def test_lipschitz_demo(self, capsys):
        code = main(["lipschitz", "--demo", "square", "--gamma", "1e-3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "estimate" in out

    def test_lipschitz_recompute_from_certificate(self, tmp_path, capsys):
        out_dir = tmp_path / "room"
        assert main(["synth", "--config", ROOM_CONFIG, "--output-dir", str(out_dir)]) == 1
        capsys.readouterr()
        code = main(
            [
                "lipschitz",
                "--certificate", str(out_dir / "certificate.json"),
                "--class-id", "room",
                "--gamma", "0.1", "--inner", "100", "--outer", "10", "--seed", "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "L1 =" in out and "L2 =" in out and "stored values" in out

    def test_lipschitz_defaults_to_the_stored_fit(self, tmp_path, capsys):
        """With no fit flags, certificate mode refits with the embedded
        configuration's lipschitz section and prints the stored L1 and L2 bit
        for bit;
        a flag that is given replaces only its own field."""
        doc = read_json(ROOM_CONFIG)
        doc["classes"][0].update(counts_state=[5], counts_input=[5])
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path, doc)
        assert main(["synth", "--config", cfg_path, "--output-dir", str(out)]) == 1
        certificate = str(out / "certificate.json")
        loaded = load_certificate(certificate)
        stored = loaded.class_by_id("room")
        embedded = config_from_dict(loaded.provenance["config"]).lipschitz
        capsys.readouterr()
        args = ["lipschitz", "--certificate", certificate, "--class-id", "room"]
        assert main(args) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == [
            f"L1 = {stored.l1!r} (fallback: {stored.l1_fallback})",
            f"L2 = {stored.l2!r} (fallback: {stored.l2_fallback})",
        ]
        assert main([*args, "--seed", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        cls = build_class(load_config(cfg_path).classes[0])
        l1, l2 = estimate_for_class(cls, stored, replace(embedded, seed=3))
        assert lines[:2] == [
            f"L1 = {l1.value!r} (fallback: {l1.fallback_used})",
            f"L2 = {l2.value!r} (fallback: {l2.fallback_used})",
        ]
        assert l1.value != stored.l1

    def test_lipschitz_fits_a_data_class_from_its_pairs(self, tmp_path, drift_csv, capsys):
        """A data class has no oracle; its L2 comes from the recorded pairs,
        as in synth, so the stored L1 and L2 come back bit for bit."""
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path, drift_config_doc(drift_csv, out))
        assert main(["synth", "--config", cfg_path]) == 0
        stored = load_certificate(out / "certificate.json").class_by_id("drift")
        capsys.readouterr()
        args = ["lipschitz", "--certificate", str(out / "certificate.json"), "--class-id", "drift"]
        assert main(args) == 0
        assert capsys.readouterr().out.splitlines()[:2] == [
            f"L1 = {stored.l1!r} (fallback: {stored.l1_fallback})",
            f"L2 = {stored.l2!r} (fallback: {stored.l2_fallback})",
        ]

    def test_simulate_room(self, tmp_path, capsys):
        code = main(
            [
                "simulate",
                "--config", ROOM_CONFIG,
                "--topology", "cascade",
                "--trajectories", "5",
                "--steps", "50",
                "--output", str(tmp_path / "traj.csv"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "0 unsafe entries" in out
        assert (tmp_path / "traj.csv").exists()

    def test_simulate_output_with_several_classes_rejected(self, tmp_path, capsys):
        """Each class would write the one --output file over the one before:
        a configuration error naming the classes, before any simulation."""
        doc = read_json(ROOM_CONFIG)
        doc["classes"].append(dict(doc["classes"][0], id="room2"))
        out = tmp_path / "traj.csv"
        code = main(["simulate", "--config", write_config(tmp_path, doc), "--output", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("configuration error: ")
        assert "'room', 'room2'" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_simulate_output_in_a_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "missing" / "traj.csv"
        args = ["--trajectories", "2", "--steps", "5", "--output", str(out)]
        assert main(["simulate", "--config", ROOM_CONFIG, *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot write --output {out}: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("target", ["out", "file/out"], ids=["a-file", "under-a-file"])
    def test_synth_output_dir_that_cannot_be_made(self, tmp_path, capsys, monkeypatch, target):
        """An output directory that is a regular file, or lies under one:
        one configuration error naming it before any sample is drawn, and no
        staging directory left."""
        (tmp_path / target.split("/")[0]).write_text("")
        sampled = []
        monkeypatch.setattr(netcert.pipeline, "class_samples", lambda *a: sampled.append(a))
        out = tmp_path / target
        code = main(["synth", "--config", ROOM_CONFIG, "--output-dir", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"configuration error: cannot write output directory {out}: ")
        assert err.count("\n") == 1
        assert sampled == []
        assert os.listdir(tmp_path) == [target.split("/")[0]]

    def test_synth_that_fails_makes_no_missing_parent(self, tmp_path, capsys, monkeypatch):
        """The staging directory is made in the nearest existing directory
        above the output directory, so a run that fails leaves no directory
        behind; one that succeeds makes the missing ones."""

        def faulty(cls, counts):
            raise DataFaultError("no data")

        out = tmp_path / "new" / "deeper" / "out"
        monkeypatch.setattr(netcert.pipeline, "class_samples", faulty)
        assert main(["synth", "--config", ROOM_CONFIG, "--output-dir", str(out)]) == 3
        assert capsys.readouterr().err == "synthesis failed: no data\n"
        assert os.listdir(tmp_path) == []
        monkeypatch.undo()
        doc = read_json(ROOM_CONFIG)
        doc["classes"][0].update(counts_state=[5], counts_input=[5])
        doc.update(verify_multiplier=1, portrait_counts=[2], portrait_steps=5)
        doc["refine"]["enabled"] = False
        config = write_config(tmp_path, doc)
        assert main(["synth", "--config", config, "--output-dir", str(out)]) == 1
        assert sorted(os.listdir(tmp_path)) == ["config.json", "new"]
        assert (out / "certificate.json").exists()
