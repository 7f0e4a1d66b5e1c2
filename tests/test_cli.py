"""CLI driver: configs, reports, CSV output, exit codes, determinism."""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from multisymp.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def load_report(path):
    with open(path) as stream:
        return json.load(stream)


def strip_timings(report):
    for check in report.get("checks", []):
        check.pop("runtime_ms", None)
    return report


AREA_VERIFY = {
    "lagrangian": {"name": "area", "n": 3, "p": 2},
    "seed": 7,
    "samples": 25,
    "rank_samples": 10,
    "certificate": {"num_pairs": 20, "t_steps": 5},
}

AREA_IMAGE = {
    "lagrangian": {"name": "area", "n": 3, "p": 2},
    "count": 5,
    "seed": 1,
    "certificate": {"num_pairs": 5, "t_steps": 3},
    "csv": "cloud.csv",
}

FLAT_ACTION = {
    "lagrangian": {"name": "area", "n": 3, "p": 2},
    "surface": {"f": "flat", "domain": [[0, 1], [0, 1]]},
    "resolutions": [8],
}


class TestVerifyCommand:
    def test_area_passes(self, tmp_path):
        cfg = write_config(tmp_path, AREA_VERIFY)
        out = tmp_path / "report.json"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        report = load_report(out)
        assert report["overall"] == "pass"
        assert report["version"]
        names = {c["name"] for c in report["checks"]}
        assert {"euler-identity", "vanishing-hamiltonian", "legendre-image-convexity",
                "multisymplectic-nondegenerate", "multisymplectic-closed"} <= names
        for check in report["checks"]:
            assert check["status"] == "pass"
            assert check["measured"] <= check["tolerance"]
            assert check["claim"]

    def test_bundled_area_config(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", "--config", str(CONFIGS / "verify_area.json"), "--out", str(out)])
        assert code == 0

    def test_probe_fails_convexity(self, tmp_path):
        cfg = write_config(tmp_path, {
            "lagrangian": {"name": "geometric_mean", "n": 3, "p": 2},
            "seed": 7,
            "samples": 25,
            "rank_samples": 10,
            "certificate": {"num_pairs": 20, "t_steps": 5},
        })
        out = tmp_path / "report.json"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 1
        report = load_report(out)  # report written even on failure
        assert report["overall"] == "fail"
        failed = {c["name"] for c in report["checks"] if c["status"] == "fail"}
        assert failed == {"legendre-image-convexity"}

    def test_check_subset(self, tmp_path):
        cfg = write_config(tmp_path, {**AREA_VERIFY, "checks": ["euler-identity"]})
        out = tmp_path / "report.json"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        report = load_report(out)
        assert [c["name"] for c in report["checks"]] == ["euler-identity"]

    def test_determinism_modulo_timing(self, tmp_path):
        cfg = write_config(tmp_path, AREA_VERIFY)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["verify", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["verify", "--config", str(cfg), "--out", str(out2)]) == 0
        a = json.dumps(strip_timings(load_report(out1)), sort_keys=True)
        b = json.dumps(strip_timings(load_report(out2)), sort_keys=True)
        assert a == b


class TestActionCommand:
    def test_plane_triple_equality(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["action", "--config", str(CONFIGS / "action_plane.json"), "--out", str(out)])
        assert code == 0
        report = load_report(out)
        entry = report["actions"][0]
        for key in ("lagrangian", "multisymplectic", "graph"):
            assert abs(entry[key] - math.sqrt(14.0)) <= 1e-8

    def test_bilinear_convergence(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["action", "--config", str(CONFIGS / "action_bilinear.json"), "--out", str(out)])
        assert code == 0
        report = load_report(out)
        orders = [row["observed_order"] for row in report["convergence"]
                  if row["observed_order"] is not None]
        assert orders and all(abs(o - 2.0) <= 0.3 for o in orders)
        names = {c["name"] for c in report["checks"]}
        assert "action-convergence-order" in names

    def test_each_resolution_sampled_once(self, tmp_path, monkeypatch):
        from multisymp.surfaces import GraphSurface
        calls = []
        to_grid = GraphSurface.to_grid
        monkeypatch.setattr(GraphSurface, "to_grid", lambda self: calls.append(self.resolution) or to_grid(self))
        cfg = write_config(tmp_path, {
            "lagrangian": {"name": "area", "n": 3, "p": 2},
            "surface": {"f": "bilinear", "params": {"scale": 2.0}, "domain": [[0, 1], [0, 1]]},
            "resolutions": [16, 32, 64],
        })
        out = tmp_path / "report.json"
        assert main(["action", "--config", str(cfg), "--out", str(out)]) == 0
        assert sorted(calls) == [(16, 16), (32, 32), (64, 64)]
        report = load_report(out)
        assert [row["value"] for row in report["convergence"]] == [r["lagrangian"] for r in report["actions"]]
        assert report["convergence"][-1]["error"] is None

    def test_flat_graph_all_actions_one(self, tmp_path):
        cfg = write_config(tmp_path, {
            "lagrangian": {"name": "area", "n": 3, "p": 2},
            "density": {"name": "constant"},
            "surface": {"f": "flat", "domain": [[0, 1], [0, 1]]},
            "resolutions": [8],
        })
        out = tmp_path / "report.json"
        assert main(["action", "--config", str(cfg), "--out", str(out)]) == 0
        entry = load_report(out)["actions"][0]
        assert entry["lagrangian"] == pytest.approx(1.0, abs=1e-12)
        assert entry["multisymplectic"] == pytest.approx(1.0, abs=1e-12)
        assert entry["graph"] == pytest.approx(1.0, abs=1e-12)

    def test_graph_lift_lagrangian_uses_its_density(self, tmp_path):
        cfg = write_config(tmp_path, {
            "lagrangian": {"name": "graph_lift", "n": 3, "p": 2,
                           "params": {"density": {"name": "minimal_surface"}}},
            "surface": {"f": "plane", "params": {"coefficients": [2.0, 3.0]}, "domain": [[0, 1], [0, 1]]},
            "resolutions": [16],
        })
        out = tmp_path / "report.json"
        assert main(["action", "--config", str(cfg), "--out", str(out)]) == 0
        entry = load_report(out)["actions"][0]
        assert abs(entry["graph"] - entry["lagrangian"]) <= 1e-10


class TestImageCommand:
    def test_area_cloud(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["image", "--config", str(CONFIGS / "image_area.json"), "--out", str(out)])
        assert code == 0
        report = load_report(out)
        with open(report["csv"]) as stream:
            rows = list(csv.reader(stream))
        assert rows[0] == ["x1", "x2", "x3", "p12", "p13", "p23"]
        assert len(rows) == 501
        norms = [np.linalg.norm([float(v) for v in row[3:]]) for row in rows[1:]]
        assert max(abs(n - 1.0) for n in norms) <= 1e-10
        assert report["certificate"]["passed"] is True

    def test_empty_cloud(self, tmp_path):
        cfg = write_config(tmp_path, {
            "lagrangian": {"name": "area", "n": 3, "p": 2},
            "count": 0,
            "seed": 1,
            "certificate": {"num_pairs": 5, "t_steps": 3},
            "csv": "empty.csv",
        })
        out = tmp_path / "report.json"
        assert main(["image", "--config", str(cfg), "--out", str(out)]) == 0
        with open(tmp_path / "empty.csv") as stream:
            rows = list(csv.reader(stream))
        assert rows == [["x1", "x2", "x3", "p12", "p13", "p23"]]

    def test_csv_determinism(self, tmp_path):
        cfg = write_config(tmp_path, {
            "lagrangian": {"name": "area", "n": 3, "p": 2},
            "count": 25,
            "seed": 4,
            "csv": "cloud.csv",
        })
        out = tmp_path / "report.json"
        assert main(["image", "--config", str(cfg), "--out", str(out)]) == 0
        first = (tmp_path / "cloud.csv").read_bytes()
        assert main(["image", "--config", str(cfg), "--out", str(out)]) == 0
        assert (tmp_path / "cloud.csv").read_bytes() == first


class TestErrorHandling:
    def test_malformed_json_exits_2_without_report(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        out = tmp_path / "report.json"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_unknown_top_level_key(self, tmp_path):
        cfg = write_config(tmp_path, {**AREA_VERIFY, "samplez": 10})
        out = tmp_path / "report.json"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2

    def test_unknown_lagrangian(self, tmp_path):
        cfg = write_config(tmp_path, {"lagrangian": {"name": "volume", "n": 3, "p": 2}})
        out = tmp_path / "report.json"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2

    def test_unknown_check_name(self, tmp_path):
        cfg = write_config(tmp_path, {**AREA_VERIFY, "checks": ["euler-identityy"]})
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2

    def test_unwritable_output_exits_3(self, tmp_path):
        cfg = write_config(tmp_path, {**AREA_VERIFY, "checks": ["euler-identity"]})
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        out = blocker / "sub" / "report.json"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 3

    def test_missing_config_file(self, tmp_path):
        assert main(["verify", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "r.json")]) == 3

    @pytest.mark.parametrize("command, payload, key", [
        ("image", {**AREA_IMAGE, "x": [0.0, 0.0]}, "x"),
        ("image", {**AREA_IMAGE, "count": -3}, "count"),
        ("image", {**AREA_IMAGE, "certificate": {"num_pairs": 0}}, "certificate.num_pairs"),
        ("image", {**AREA_IMAGE, "certificate": {"tolerance": math.inf}}, "certificate.tolerance"),
        ("verify", {**AREA_VERIFY, "samples": 0}, "samples"),
        ("verify", {**AREA_VERIFY, "rank_samples": 0}, "rank_samples"),
        ("verify", {**AREA_VERIFY, "certificate": {"num_pairs": 0}}, "certificate.num_pairs"),
        ("verify", {**AREA_VERIFY, "certificate": {"t_steps": 0}}, "certificate.t_steps"),
        ("verify", {**AREA_VERIFY, "x": [0.0, math.nan, 0.0]}, "x"),
        ("verify", {**AREA_VERIFY, "tolerances": {"euler": math.nan}}, "tolerances.euler"),
        ("verify", {**AREA_VERIFY, "lagrangian": {"name": "ellipsoid", "n": 3, "p": 2,
                                                  "params": {"weights": [1.0, math.nan, 2.0]}}},
         "lagrangian.params.weights"),
        ("action", {**FLAT_ACTION, "resolutions": [8, 16, 32], "reference": math.nan}, "reference"),
        # one or two steps sample only the segment ends, which are image points by construction
        ("verify", {**AREA_VERIFY, "certificate": {"t_steps": 1}}, "certificate.t_steps"),
        ("verify", {**AREA_VERIFY, "certificate": {"t_steps": 2}}, "certificate.t_steps"),
        ("image", {**AREA_IMAGE, "certificate": {"t_steps": 1}}, "certificate.t_steps"),
        ("image", {**AREA_IMAGE, "certificate": {"t_steps": 2}}, "certificate.t_steps"),
    ])
    def test_invalid_value_exits_2_naming_key(self, tmp_path, capsys, command, payload, key):
        # json.dumps writes nan and inf as the NaN and Infinity extensions that json.load accepts
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "report.json"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert not (tmp_path / AREA_IMAGE["csv"]).exists()
        assert f"config error: {key} must" in capsys.readouterr().err


class TestOutputDirOverride:
    def test_env_var_redirects_outputs(self, tmp_path, monkeypatch):
        override = tmp_path / "elsewhere"
        override.mkdir()
        monkeypatch.setenv("MULTISYMP_OUT_DIR", str(override))
        cfg = write_config(tmp_path, {
            "lagrangian": {"name": "area", "n": 3, "p": 2},
            "count": 5,
            "seed": 1,
            "csv": "cloud.csv",
        })
        out = tmp_path / "subdir" / "report.json"
        assert main(["image", "--config", str(cfg), "--out", str(out)]) == 0
        assert (override / "report.json").exists()
        assert (override / "cloud.csv").exists()
        assert not out.exists()
