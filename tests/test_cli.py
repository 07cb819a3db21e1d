import json
import os

import numpy as np
import pytest

from netcert.cli import main
from netcert.pipeline import (
    CertificateFormatError,
    ConfigError,
    config_from_dict,
    load_certificate,
    load_config,
    run_pipeline,
    store_certificate,
)
from netcert.sampling import save_samples_csv

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOM_CONFIG = os.path.join(REPO_ROOT, "configs", "room.json")


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

    def test_unknown_class_keys_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict(
                {"version": 1, "classes": [{"id": "x", "benchmark": "room", "typo": 1}]}
            )

    def test_synth_exit_code_on_config_error(self, tmp_path, drift_csv, capsys):
        doc = drift_config_doc(drift_csv, tmp_path / "out")
        doc["classes"][0]["unsafe_box"] = [[0.25], [1.0]]
        code = main(["synth", "--config", write_config(tmp_path, doc)])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err


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
        assert drift.margins.m1 < 0 and drift.margins.m2 < 0
        assert (out_dir / "drift_samples.csv").exists()
        assert (out_dir / "drift_levels.csv").exists()
        assert (out_dir / "drift_surface.csv").exists()
        assert (out_dir / "report.txt").exists()

    def test_runs_are_byte_identical(self, tmp_path, drift_csv):
        cfg_a = write_config(tmp_path, drift_config_doc(drift_csv, tmp_path / "a"), "a.json")
        cfg_b = write_config(tmp_path, drift_config_doc(drift_csv, tmp_path / "b"), "b.json")
        assert main(["synth", "--config", cfg_a]) == 0
        assert main(["synth", "--config", cfg_b]) == 0
        cert_a = (tmp_path / "a" / "certificate.json").read_bytes()
        cert_b = (tmp_path / "b" / "certificate.json").read_bytes()
        assert cert_a == cert_b

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

    def test_refinement_doubles_grid_counts(self, tmp_path):
        cfg = load_config(ROOM_CONFIG)
        cfg.output_dir = str(tmp_path / "refined")
        cfg.classes[0].counts_state = (7,)
        cfg.classes[0].counts_input = (7,)
        cfg.refine_enabled = True
        cfg.refine_max_retries = 1
        result = run_pipeline(cfg, write_outputs=False)
        assert result.refinement_rounds == 1
        assert result.certificate.provenance["sample_counts"]["room"] == 14 * 14


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
        text = open(result.certificate_path).read()
        bad = tmp_path / "truncated.json"
        bad.write_text(text[: len(text) // 2])
        with pytest.raises(CertificateFormatError):
            load_certificate(bad)

    def test_version_stamp_enforced(self, tmp_path, drift_csv):
        out_dir = tmp_path / "out"
        cfg = config_from_dict(drift_config_doc(drift_csv, out_dir))
        result = run_pipeline(cfg)
        doc = json.load(open(result.certificate_path))
        doc["version"] = 2
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
