import copy
import json
import os
import re
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netcert.blackbox import TOPOLOGY_KINDS, Topology
from netcert.cli import main
from netcert.compose import ClassCertificate, certify
from netcert.lipschitz import LipschitzConfig
from netcert.pipeline import (
    CertificateFormatError,
    ClassConfig,
    ClassRun,
    ConfigError,
    PipelineConfig,
    RefineConfig,
    certificate_from_dict,
    certificate_to_dict,
    config_from_dict,
    config_to_dict,
    load_certificate,
    load_config,
    run_pipeline,
    store_certificate,
)
from netcert.sampling import save_samples_csv
from netcert.scp import ScpOptions

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
        doc = json.load(open(ROOM_CONFIG)) if doc == "room" else drift_config_doc("d.csv", "out")
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

    def test_synth_exit_code_on_config_error(self, tmp_path, drift_csv, capsys):
        doc = drift_config_doc(drift_csv, tmp_path / "out")
        doc["classes"][0]["unsafe_box"] = [[0.25], [1.0]]
        code = main(["synth", "--config", write_config(tmp_path, doc)])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err


class TestDataFaults:
    """Faults in the data, not the configuration, end the run with exit 3."""

    def test_non_finite_benchmark_parameter(self, tmp_path, capsys):
        doc = json.load(open(ROOM_CONFIG))
        doc["classes"][0].update(
            counts_state=[5], counts_input=[5], benchmark_params={"c": float("nan")}
        )
        doc["output_dir"] = str(tmp_path / "out")
        assert main(["synth", "--config", write_config(tmp_path, doc)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("synthesis failed: oracle returned a non-finite value")

    def test_data_csv_with_wrong_header(self, tmp_path, capsys):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text("a,b\n1,2\n")
        doc = drift_config_doc(csv_path, tmp_path / "out")
        assert main(["synth", "--config", write_config(tmp_path, doc)]) == 3
        assert capsys.readouterr().err.startswith("synthesis failed: expected CSV header")


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
        cfg.refine = RefineConfig(enabled=True, max_retries=1)
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
    are exactly what ``certify`` recomputes from its classes."""

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


@st.composite
def class_configs(draw, index):
    cid = f"c{index}"
    if draw(st.booleans()):
        return ClassConfig(
            id=cid,
            benchmark="room",
            benchmark_params=draw(st.sampled_from([{}, {"c": 0.45}])),
            counts_state=draw(COUNTS),
            counts_input=draw(COUNTS),
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
    return PipelineConfig(
        classes=[draw(class_configs(i)) for i in range(draw(st.integers(1, 3)))],
        output_dir=draw(st.text(max_size=8)),
        topology=Topology(
            kind=draw(st.sampled_from(TOPOLOGY_KINDS)),
            surrogate_size=draw(st.integers(2, 100)),
            weight_decay=draw(st.floats(1e-6, 1.0)),
        ),
        scp=ScpOptions(
            coeff_bound=draw(POSITIVE),
            gap=draw(st.floats(0.0, 1.0)),
            feasibility_tol=draw(POSITIVE),
        ),
        lipschitz=LipschitzConfig(
            gamma=draw(POSITIVE),
            inner_count=draw(st.integers(2, 500)),
            outer_count=draw(st.integers(2, 100)),
            seed=draw(st.integers(0, 2**63)),
        ),
        refine=RefineConfig(enabled=draw(st.booleans()), max_retries=draw(st.integers(0, 5))),
        portrait_counts=draw(st.lists(st.integers(1, 30), max_size=3).map(tuple)),
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
        lipschitz_config=draw(st.sampled_from([None, PipelineConfig([]).lipschitz])),
        l1_fallback=draw(st.booleans()),
        l2_fallback=draw(st.booleans()),
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
        classes=st.integers(1, 3).flatmap(
            lambda n: st.tuples(*[class_certificates(i) for i in range(n)])
        ),
        reference_size=st.integers(1, 1000),
    )
    def test_certificate_round_trip(self, classes, reference_size):
        cert = certify(classes, reference_size=reference_size, provenance={"tool_version": "x"})
        assert certificate_from_dict(json.loads(json.dumps(certificate_to_dict(cert)))) == cert

    def test_class_entries_name_only_their_keys(self):
        """The config embedded in every certificate writes a class as the
        bundled files do, so its bytes do not depend on unused fields."""
        for doc in (json.load(open(ROOM_CONFIG)), drift_config_doc("d.csv", "out")):
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
