"""CLI driver: configs, reports, CSV output, exit codes, determinism."""

import csv
import itertools
import json
import math
import os
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest

from multisymp import (
    TotalSpaceChart,
    area_lagrangian,
    convexity_certificate,
    decomposable_rows,
    minors,
    omega,
    rank_lemma_check,
    theta,
)
from multisymp import cli
from multisymp.cli import LAGRANGIANS, VERIFY_CHECKS, VERIFY_TOLERANCES, build_lagrangian, cmd_verify, main
from multisymp.legendre import image_coordinates

from helpers import BILINEAR_AREA_ORACLE, conformal_area, draw_decomposable, graph_map

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
REFERENCED = [path.name for path in sorted(CONFIGS.glob("action_*.json"))
              if "reference" in json.loads(path.read_text())]


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def nested(depth, inner=0.0):
    """inner wrapped in depth lists, built without recursing."""
    for _ in range(depth):
        inner = [inner]
    return inner


def load_report(path):
    with open(path) as stream:
        return json.load(stream)


def exact_graph_area(surface):
    """The area of an action config's graph, correctly rounded: mpmath.quad at 30 digits on a bilinear graph,
    and sqrt(det(I + C C^T)) times the domain's measure on a plane with coefficients C."""
    domain = [[mpmath.mpf(a), mpmath.mpf(b)] for a, b in surface["domain"]]
    params = surface.get("params", {})
    with mpmath.workdps(30):
        if surface["f"] == "plane":
            C = mpmath.matrix(np.reshape(params["coefficients"], (len(domain), -1)).tolist())
            density = mpmath.sqrt(mpmath.det(mpmath.eye(len(domain)) + C * C.T))
            return float(density * mpmath.fprod(b - a for a, b in domain))
        assert surface["f"] == "bilinear", surface["f"]
        scale = params.get("scale", 1.0)

        def density(*s):
            slopes = [scale * mpmath.fprod(s[:k] + s[k + 1:]) for k in range(len(s))]
            return mpmath.sqrt(1 + mpmath.fsum(slope ** 2 for slope in slopes))

        return float(mpmath.quad(density, *domain))


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

ELLIPSOID = {"name": "ellipsoid", "n": 3, "p": 2, "params": {"weights": [1.0, 4.0, 9.0]}}
BILINEAR_ACTION = {**FLAT_ACTION, "surface": {"f": "bilinear", "domain": [[0, 1], [0, 1]]}, "resolutions": [4, 8, 16]}
# each tolerance key with the check whose tolerance it sets
VERIFY_TOLERANCE_CHECKS = {
    "homogeneity": "degree-1-homogeneity", "euler": "euler-identity", "gradient_scale": "gradient-degree-0",
    "hamiltonian": "vanishing-hamiltonian", "convexity": "legendre-image-convexity",
    "quadric": "legendre-image-quadric", "pullback": "tautological-pullback", "closedness": "multisymplectic-closed",
}
ACTION_TOLERANCE_CHECKS = {
    "graph_vs_lagrangian": "action-graph-vs-lagrangian",
    "multisymplectic_vs_lagrangian": "action-multisymplectic-vs-lagrangian",
    "order_window": "action-convergence-order",
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

    def test_area_at_73_is_nondegenerate(self, tmp_path):
        # dim 7 + C(7, 3) = 42: the rank is read on 42 generic tuples, where the basis tuples number C(42, 3) = 11,480
        payload = {"lagrangian": {"name": "area", "n": 7, "p": 3}, "samples": 20,
                   "certificate": {"num_pairs": 5, "t_steps": 3}}
        out = tmp_path / "report.json"
        assert main(["verify", "--config", str(write_config(tmp_path, payload)), "--out", str(out)]) == 0
        measured = {check["name"]: check["measured"] for check in load_report(out)["checks"]}
        assert measured["multisymplectic-nondegenerate"] == 0.0

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

    def test_rank_samples_default_is_capped_at_samples(self, tmp_path):
        payload = {key: value for key, value in AREA_VERIFY.items() if key != "rank_samples"}
        cfg = write_config(tmp_path, {**payload, "samples": 5, "checks": ["hessian-rank-split"]})
        out = tmp_path / "report.json"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        assert [c["name"] for c in load_report(out)["checks"]] == ["hessian-rank-split"]

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

    @pytest.mark.parametrize("name", REFERENCED)
    def test_bundled_reference_is_exact(self, name):
        config = json.loads((CONFIGS / name).read_text())
        assert config["lagrangian"]["name"] == "area"  # the reference is the area of the graph
        assert config["reference"] == exact_graph_area(config["surface"])

    def test_bilinear_oracle_is_exact(self):
        assert BILINEAR_AREA_ORACLE == exact_graph_area({"f": "bilinear", "domain": [[0.0, 1.0], [0.0, 1.0]]})

    @pytest.mark.parametrize("domain, powers, rule", [
        ([[0, 1], [0, 1]], [0.5, 1], "midpoint"),  # nodes and midpoint differences stay in the domain
        ([[-1, 1], [-1, 1]], [2, 3], "gauss2"),  # non-negative integer powers are defined everywhere
        ([[0.5, 1], [-1, 1]], [-1.5, 2], "gauss2"),  # 0.5 - h / (2 sqrt 3) stays above 0 at resolution 8
    ])
    def test_powers_defined_where_sampled_run(self, tmp_path, domain, powers, rule):
        payload = {**FLAT_ACTION, "quadrature": rule, "surface": {"f": "polynomial", "domain": domain, "params": {
            "terms": [{"coeff": 1.0, "powers": powers}]}}}
        out = tmp_path / "report.json"
        assert main(["action", "--config", str(write_config(tmp_path, payload)), "--out", str(out)]) in (0, 1)
        assert all(math.isfinite(entry["lagrangian"]) for entry in load_report(out)["actions"])

    @pytest.mark.parametrize("n, p, surface, terms", [
        (3, 2, {"f": "flat"}, [{"coeff": 0.0, "powers": [0, 0]}]),
        (3, 2, {"f": "plane", "params": {"coefficients": [2.0, -3.0]}},
         [{"coeff": 2.0, "powers": [1, 0]}, {"coeff": -3.0, "powers": [0, 1]}]),
        (3, 2, {"f": "plane", "params": {"coefficients": [[2.0], [-3.0]]}},
         [{"coeff": 2.0, "powers": [1, 0]}, {"coeff": -3.0, "powers": [0, 1]}]),
        (4, 2, {"f": "plane", "params": {"coefficients": [[0.5, -1.5], [2.0, 0.25]]}},
         [{"coeff": 0.5, "powers": [1, 0]}, {"coeff": 2.0, "powers": [0, 1]},
          {"coeff": -1.5, "powers": [1, 0], "component": 2}, {"coeff": 0.25, "powers": [0, 1], "component": 2}]),
        (3, 2, {"f": "bilinear"}, [{"coeff": 1.0, "powers": [1, 1]}]),
        (3, 2, {"f": "bilinear", "params": {"scale": -1.3}}, [{"coeff": -1.3, "powers": [1, 1]}]),
        (4, 3, {"f": "bilinear", "params": {"scale": 0.7}}, [{"coeff": 0.7, "powers": [1, 1, 1]}]),
    ])
    def test_named_maps_equal_their_polynomial_spelling(self, n, p, surface, terms):
        # each name is a spelling of monomial terms for the one kernel: the same bits on a batch and at one point,
        # and the same action report, leaf for leaf but the config
        named, spelled = graph_map(surface, n, p), graph_map({"f": "polynomial", "params": {"terms": terms}}, n, p)
        points = np.random.default_rng(n + p).uniform(-2.0, 2.0, (33, p))
        for s in (points, np.asfortranarray(points), points[5]):
            assert named(s).shape == s.shape[:-1] + (n - p,)
            assert named(s).tobytes() == spelled(s).tobytes()
        reports = []
        for spec in (surface, {"f": "polynomial", "params": {"terms": terms}}):
            config = {"lagrangian": {"name": "area", "n": n, "p": p}, "resolutions": [4, 6, 8], "quadrature": "gauss2",
                      "surface": {**spec, "domain": [[-1.0, 1.0]] + [[0.5, 2.0]] * (p - 1)}}
            report = strip_timings(cli.cmd_action(config)[0])
            reports.append({key: value for key, value in report.items() if key != "config"})
        assert json.dumps(reports[0], sort_keys=True) == json.dumps(reports[1], sort_keys=True)

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
        # no point to test the quadric on, so only the certificate's check runs
        report = json.loads(out.read_text())
        assert [c["name"] for c in report["checks"]] == ["legendre-image-convexity"]
        assert report["num_points"] == 0

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
        # the last: JSON nested deeper than the decoder recurses
        for text in ("{not json", '{"x": ' + "[" * 5000 + "]" * 5000 + "}"):
            cfg = tmp_path / "broken.json"
            cfg.write_text(text)
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

    @pytest.mark.parametrize("density", ["constant", "minimal_surface", "graph_area"])
    @pytest.mark.parametrize("n, p", [(3, 2), (4, 2), (5, 3)], ids=lambda v: str(v))
    def test_graph_lift_verify_runs_every_check(self, tmp_path, density, n, p):
        # from (4, 2) on the lift ignores a fiber coordinate, so the image spans no open
        # set and the certificate's Newton Jacobians are singular: convexity alone may fail
        cfg = write_config(tmp_path, {
            "lagrangian": {"name": "graph_lift", "n": n, "p": p, "params": {"density": {"name": density}}},
            "seed": 5, "samples": 24, "rank_samples": 10, "certificate": {"num_pairs": 10, "t_steps": 5},
        })
        out = tmp_path / "report.json"
        code = main(["verify", "--config", str(cfg), "--out", str(out)])
        checks = load_report(out)["checks"]
        assert [c["name"] for c in checks] == [c for c in VERIFY_CHECKS if c != "legendre-image-quadric"]
        failed = [c["name"] for c in checks if c["status"] == "fail"]
        if (n, p) == (3, 2):
            assert code == 0 and not failed
        else:
            assert code in (0, 1) and set(failed) <= {"legendre-image-convexity"}
            assert code == (1 if failed else 0)

    def test_null_objects_read_as_their_defaults(self, tmp_path):
        lagrangian = {"name": "graph_lift", "n": 3, "p": 2, "params": {"density": {"name": "constant"}}}
        bare = {**AREA_VERIFY, "lagrangian": lagrangian}
        nulls = {**bare, "certificate": None, "tolerances": None,
                 "lagrangian": {**lagrangian, "params": {"density": {"name": "constant", "params": None}}}}
        reports = []
        for name, payload in (("bare", bare), ("nulls", nulls)):
            out = tmp_path / f"{name}.json"
            assert main(["verify", "--config", str(write_config(tmp_path, payload)), "--out", str(out)]) == 0
            reports.append(strip_timings(load_report(out))["checks"])
        assert reports[0] == reports[1]

    def test_integral_float_count_runs_as_the_int(self, tmp_path):
        reports = []
        for samples in (25, 25.0):
            out = tmp_path / f"{samples}.json"
            payload = {**AREA_VERIFY, "samples": samples, "checks": ["euler-identity", "hessian-rank-split"]}
            assert main(["verify", "--config", str(write_config(tmp_path, payload)), "--out", str(out)]) == 0
            reports.append(strip_timings(load_report(out)))
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("root", ["[1, 2]", "7", "null", '"verify"'])
    def test_config_root_must_be_an_object(self, tmp_path, capsys, root):
        cfg = tmp_path / "config.json"
        cfg.write_text(root)
        out = tmp_path / "report.json"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert "config error: config root must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("command, payload", [
        ("verify", {**AREA_VERIFY, "checks": ["euler-identity"], "tolerances": {"euler": 0}}),
        ("image", {**AREA_IMAGE, "certificate": {"num_pairs": 5, "t_steps": 3, "tolerance": 0}}),
    ])
    def test_zero_tolerance_is_valid(self, tmp_path, command, payload):
        # 0 asks for an exact result: the run reports against it instead of rejecting the config
        out = tmp_path / "report.json"
        assert main([command, "--config", str(write_config(tmp_path, payload)), "--out", str(out)]) in (0, 1)
        assert out.exists()

    @pytest.mark.parametrize("command, payload, name, field, expected", [
        *[pytest.param("verify", {**AREA_VERIFY, "lagrangian": ELLIPSOID, "checks": [name], "tolerances": {key: 0.123}},
                       name, "tolerance", 0.123, id=f"verify-{key}") for key, name in VERIFY_TOLERANCE_CHECKS.items()],
        *[pytest.param("action", {**BILINEAR_ACTION, "tolerances": {key: 0.123}}, name, "tolerance", 0.123,
                       id=f"action-{key}") for key, name in ACTION_TOLERANCE_CHECKS.items()],
        pytest.param("image", {**AREA_IMAGE, "lagrangian": ELLIPSOID, "tolerances": {"quadric": 0.123}},
                     "legendre-image-quadric", "tolerance", 0.123, id="image-quadric"),
        # the area image lies on the unit sphere to rounding, so its quadric keeps its own tolerance
        pytest.param("image", {**AREA_IMAGE, "tolerances": {"quadric": 0.123}},
                     "legendre-image-quadric", "tolerance", 1e-10, id="image-quadric-area"),
        pytest.param("image", {**AREA_IMAGE, "certificate": {"num_pairs": 5, "t_steps": 3, "tolerance": 0.123}},
                     "legendre-image-convexity", "tolerance", 0.123, id="image-certificate.tolerance"),
        # at 0.123 of the largest singular value Hess(L^2) of the ellipsoid reads rank 2, not 3, so the split fails
        pytest.param("verify", {**AREA_VERIFY, "lagrangian": ELLIPSOID, "checks": ["hessian-rank-split"],
                                "tolerances": {"rank_threshold": 0.123}},
                     "hessian-rank-split", "status", "fail", id="verify-rank_threshold"),
        pytest.param("action", {**BILINEAR_ACTION, "tolerances": {"order_target": 0.123}},
                     "action-convergence-order", "measured",
                     lambda report: max(abs(row["observed_order"] - 0.123) for row in report["convergence"]
                                        if row["observed_order"] is not None), id="action-order_target"),
    ])
    def test_each_tolerance_key_reaches_its_check(self, tmp_path, command, payload, name, field, expected):
        out = tmp_path / "report.json"
        code = main([command, "--config", str(write_config(tmp_path, payload)), "--out", str(out)])
        report = load_report(out)
        assert code == (0 if report["overall"] == "pass" else 1)
        checks = {check["name"]: check for check in report["checks"]}
        assert checks[name][field] == (expected(report) if callable(expected) else expected)
        if command == "image":  # the certificate block states the tolerance that its check was held to
            assert report["certificate"]["tolerance"] == checks["legendre-image-convexity"]["tolerance"]

    def test_parser_is_built_once_and_reused(self, tmp_path, capsys):
        # errors, help and a run in one process, each parsed as by a fresh parser
        from multisymp import cli

        cfg = write_config(tmp_path, {**AREA_VERIFY, "checks": ["euler-identity"]})
        out = tmp_path / "report.json"
        assert main([]) == 2
        assert main(["verify", "--config", str(cfg)]) == 2
        assert main(["--help"]) == 0
        assert not out.exists()
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        assert [c["name"] for c in load_report(out)["checks"]] == ["euler-identity"]
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "required: command" in captured.err
        assert "required: --out" in captured.err
        assert "invalid choice: 'simulate'" in captured.err
        assert "usage: multisymp" in captured.out
        assert cli._parser.cache_info().currsize == 1

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
        # a value of the wrong type names its key too
        ("image", {**AREA_IMAGE, "count": "abc"}, "count"),
        ("image", {**AREA_IMAGE, "seed": None}, "seed"),
        ("image", {**AREA_IMAGE, "certificate": {"seed": "x"}}, "certificate.seed"),
        ("verify", {**AREA_VERIFY, "seed": None}, "seed"),
        ("verify", {**AREA_VERIFY, "x": ["a", 0, 0]}, "x"),
        ("verify", {**AREA_VERIFY, "lagrangian": {"name": "area", "n": "three", "p": 2}}, "lagrangian.n"),
        ("verify", {**AREA_VERIFY, "certificate": {"t_steps": "x"}}, "certificate.t_steps"),
        ("verify", {**AREA_VERIFY, "checks": 5}, "checks"),
        ("verify", {**AREA_VERIFY, "checks": ["euler-identity", 3]}, "checks"),
        ("verify", {**AREA_VERIFY, "tolerances": {"euler": "small"}}, "tolerances.euler"),
        ("action", {**FLAT_ACTION, "resolutions": ["a"]}, "resolutions"),
        # a boolean or a non-integral count is rejected, not truncated
        ("image", {**AREA_IMAGE, "count": 2.7}, "count"),
        ("verify", {**AREA_VERIFY, "certificate": {"num_pairs": True}}, "certificate.num_pairs"),
        ("verify", {**AREA_VERIFY, "seed": 1.5}, "seed"),
        # list-shaped keys are checked for their shape before they are read
        ("action", {**FLAT_ACTION, "resolutions": 5}, "resolutions"),
        ("action", {**FLAT_ACTION, "surface": {"f": "flat", "domain": "abc"}}, "surface.domain"),
        # values a constructor used to reject without naming their key
        ("verify", {**AREA_VERIFY, "lagrangian": {"name": "projected_volume", "n": 2, "p": 3}}, "lagrangian.p"),
        ("verify", {**AREA_VERIFY, "tolerances": {"euler": [1, 2]}}, "tolerances.euler"),
        ("image", {**AREA_IMAGE, "csv": 5}, "csv"),
        ("action", {**FLAT_ACTION, "quadrature": "simpson"}, "quadrature"),
        ("action", {**FLAT_ACTION, "density": {"name": "constant", "params": {"value": "x"}}}, "density.params.value"),
        ("action", {**FLAT_ACTION, "surface": {"f": "flat", "domain": [[1, 0], [0, 1]]}}, "surface.domain"),
        ("verify", {**AREA_VERIFY, "lagrangian": {"name": "ellipsoid", "n": 3, "p": 2,
                                                  "params": {"weights": [1.0, 2.0]}}}, "lagrangian.params.weights"),
        ("action", {**FLAT_ACTION, "surface": {"f": "plane", "params": {"coefficients": [1.0, 2.0, 3.0]},
                                               "domain": [[0, 1], [0, 1]]}}, "surface.params.coefficients"),
        ("verify", {**AREA_VERIFY, "lagrangian": {"name": "ellipsoid", "n": 3, "p": 2,
                                                  "params": {"weights": [1.0, -2.0, 1.0]}}}, "lagrangian.params.weights"),
        ("verify", {**AREA_VERIFY, "lagrangian": {"name": ["area"], "n": 3, "p": 2}}, "lagrangian.name"),
        ("action", {**FLAT_ACTION, "lagrangian": {"name": "area", "n": 4, "p": 2},
                    "surface": {"f": "bilinear", "domain": [[0, 1], [0, 1]]}}, "surface.f"),
        ("action", {**FLAT_ACTION, "surface": {"f": "polynomial", "domain": [[0, 1], [0, 1]], "params": {
            "terms": [{"coeff": "x", "powers": [1, 1]}]}}}, "surface.params.terms[0].coeff"),
        ("action", {**FLAT_ACTION, "surface": {"f": "polynomial", "domain": [[0, 1], [0, 1]], "params": {
            "terms": [{"coeff": 1.0, "powers": [1, 1], "component": 2}]}}}, "surface.params.terms[0].component"),
        # the CSV is written beside the report, under a bare file name
        ("image", {**AREA_IMAGE, "csv": "../escaped.csv"}, "csv"),
        ("image", {**AREA_IMAGE, "csv": os.devnull}, "csv"),  # an absolute path
        ("image", {**AREA_IMAGE, "csv": "."}, "csv"),
        ("image", {**AREA_IMAGE, "csv": ".."}, "csv"),
        ("action", {**FLAT_ACTION, "surface": {"f": "polynomial", "domain": [[0, 1], [0, 1]],
                                               "params": {"terms": []}}}, "surface.params.terms"),
        # a repeated resolution would repeat the work and rate an order from no error at all
        ("action", {**FLAT_ACTION, "resolutions": [16, 16, 16]}, "resolutions"),
        # a verify run that would check nothing, or drop a listed check, or cut the rank check short
        ("verify", {**AREA_VERIFY, "checks": []}, "checks"),
        ("verify", {**AREA_VERIFY, "checks": ["legendre-image-quadric"],
                    "lagrangian": {"name": "graph_lift", "n": 3, "p": 2,
                                   "params": {"density": {"name": "minimal_surface"}}}}, "checks"),
        ("verify", {**AREA_VERIFY, "checks": ["euler-identity", "legendre-image-quadric"],
                    "lagrangian": {"name": "projected_volume", "n": 3, "p": 2}}, "checks"),
        ("verify", {**AREA_VERIFY, "checks": ["legendre-image-quadric"],
                    "lagrangian": {"name": "geometric_mean", "n": 3, "p": 2}}, "checks"),
        ("verify", {**AREA_VERIFY, "samples": 5, "rank_samples": 50}, "rank_samples"),
        # a falsy value that is no object is not read as {}: only a missing or null one means the defaults
        ("image", {**AREA_IMAGE, "certificate": False}, "certificate"),
        ("image", {**AREA_IMAGE, "certificate": ""}, "certificate"),
        ("verify", {**AREA_VERIFY, "certificate": []}, "certificate"),
        ("verify", {**AREA_VERIFY, "certificate": 0}, "certificate"),
        ("verify", {**AREA_VERIFY, "lagrangian": {"name": "area", "n": 3, "p": 2, "params": False}},
         "lagrangian.params"),
        ("verify", {**AREA_VERIFY, "lagrangian": {"name": "area", "n": 3, "p": 2, "params": []}}, "lagrangian.params"),
        ("verify", {**AREA_VERIFY, "lagrangian": {"name": "graph_lift", "n": 3, "p": 2, "params": {
            "density": {"name": "constant", "params": []}}}}, "lagrangian.params.density.params"),
        ("action", {**FLAT_ACTION, "density": {"name": "constant", "params": False}}, "density.params"),
        ("action", {**FLAT_ACTION, "surface": {"f": "flat", "domain": [[0, 1], [0, 1]], "params": []}},
         "surface.params"),
        ("action", {**FLAT_ACTION, "surface": {"f": "bilinear", "domain": [[0, 1], [0, 1]], "params": 0}},
         "surface.params"),
        # a repeated check would run once, as if it had been listed once
        ("verify", {**AREA_VERIFY, "checks": ["euler-identity", "euler-identity"]}, "checks"),
        # a residual is never negative, so a negative tolerance would fail every check whatever it measured
        ("verify", {**AREA_VERIFY, "tolerances": {"convexity": -1}}, "tolerances.convexity"),
        ("image", {**AREA_IMAGE, "certificate": {"tolerance": -1}}, "certificate.tolerance"),
        # a constant density of 0 or below gives an L that is nowhere positive, so no fiber could be sampled
        ("verify", {**AREA_VERIFY, "lagrangian": {"name": "graph_lift", "n": 3, "p": 2, "params": {
            "density": {"name": "constant", "params": {"value": 0}}}}}, "lagrangian.params.density.params.value"),
        ("verify", {**AREA_VERIFY, "lagrangian": {"name": "graph_lift", "n": 3, "p": 2, "params": {
            "density": {"name": "constant", "params": {"value": -1}}}}}, "lagrangian.params.density.params.value"),
        ("action", {**FLAT_ACTION, "density": {"name": "constant", "params": {"value": 0}}}, "density.params.value"),
        ("action", {**FLAT_ACTION, "density": {"name": "constant", "params": {"value": -1}}}, "density.params.value"),
        # a JSON boolean is no number, not even nested in a list, though numpy reads it as 1.0 or 0.0
        ("verify", {**AREA_VERIFY, "tolerances": {"euler": True}}, "tolerances.euler"),
        ("verify", {**AREA_VERIFY, "x": [0.0, True, 0.0]}, "x"),
        ("verify", {**AREA_VERIFY, "lagrangian": {"name": "ellipsoid", "n": 3, "p": 2,
                                                  "params": {"weights": [1.0, True, 1.0]}}}, "lagrangian.params.weights"),
        ("verify", {**AREA_VERIFY, "lagrangian": {"name": "graph_lift", "n": 3, "p": 2, "params": {
            "density": {"name": "constant", "params": {"value": True}}}}}, "lagrangian.params.density.params.value"),
        ("image", {**AREA_IMAGE, "certificate": {"tolerance": False}}, "certificate.tolerance"),
        ("action", {**FLAT_ACTION, "surface": {"f": "plane", "domain": [[0, 1], [0, 1]],
                                               "params": {"coefficients": [True, 0.5]}}}, "surface.params.coefficients"),
        ("action", {**FLAT_ACTION, "surface": {"f": "flat", "domain": [[0, True], [0, 1]]}}, "surface.domain"),
        ("action", {**FLAT_ACTION, "reference": False}, "reference"),
        ("action", {**FLAT_ACTION, "surface": {"f": "polynomial", "domain": [[0, 1], [0, 1]], "params": {
            "terms": [{"coeff": 1.0, "powers": [1, True]}]}}}, "surface.params.terms[0].powers"),
        # a power that leaves the map undefined where the actions sample it: a non-integer power below 0, a negative
        # power at 0, and gauss2, whose central differences reach h / (2 sqrt 3) past the domain
        ("action", {**FLAT_ACTION, "surface": {"f": "polynomial", "domain": [[-1, 1], [0, 1]], "params": {
            "terms": [{"coeff": 1.0, "powers": [0.5, 1]}]}}}, "surface.params.terms[0].powers"),
        ("action", {**FLAT_ACTION, "surface": {"f": "polynomial", "domain": [[-1, 1], [0, 1]], "params": {
            "terms": [{"coeff": 1.0, "powers": [1, 1]}, {"coeff": 2.0, "powers": [-1, 0]}]}}},
         "surface.params.terms[1].powers"),
        ("action", {**FLAT_ACTION, "surface": {"f": "polynomial", "domain": [[0, 1], [1, 2]], "params": {
            "terms": [{"coeff": 1.0, "powers": [0.5, -2]}]}}, "quadrature": "gauss2"}, "surface.params.terms[0].powers"),
        # a map that overflows where the actions sample it names its powers, else its coefficient, else its terms
        ("action", {**FLAT_ACTION, "surface": {"f": "polynomial", "domain": [[0, 2], [0, 1]], "params": {
            "terms": [{"coeff": 1.0, "powers": [2000, 0]}]}}}, "surface.params.terms[0].powers"),
        ("action", {**FLAT_ACTION, "surface": {"f": "plane", "domain": [[0, 2], [0, 2]], "params": {
            "coefficients": [1e308, 1e308]}}}, "surface.params.coefficients"),
        ("action", {**FLAT_ACTION, "surface": {"f": "bilinear", "domain": [[0, 2], [0, 2]], "params": {"scale": 1e308}}},
         "surface.params.scale"),
        ("action", {**FLAT_ACTION, "surface": {"f": "polynomial", "domain": [[0, 1], [0, 1]], "params": {
            "terms": [{"coeff": 1e308, "powers": [1, 0]}, {"coeff": 1e308, "powers": [0, 1]}]}}}, "surface.params.terms"),
        ("action", {**FLAT_ACTION, "surface": {"f": "polynomial", "domain": [[1e-300, 1], [0, 1]], "params": {
            "terms": [{"coeff": 1.0, "powers": [-2, 0]}]}}}, "surface.params.terms[0].powers"),
        # a bilinear map has no powers to name: its product of coordinates overflows on too large a domain
        ("action", {**FLAT_ACTION, "surface": {"f": "bilinear", "domain": [[0, 1e200], [0, 1e200]]}}, "surface.domain"),
        # only a convergence table, which takes three resolutions, reads the reference
        ("action", {**FLAT_ACTION, "surface": {"f": "bilinear", "domain": [[0, 1], [0, 1]]}, "resolutions": [16, 32],
                    "reference": 123.0}, "reference"),
        # a JSON string is no number, though numpy parses "1" and "1e-6", also inside a list
        ("verify", {**AREA_VERIFY, "lagrangian": {"name": "ellipsoid", "n": 3, "p": 2,
                                                  "params": {"weights": ["1", "4", "9"]}}}, "lagrangian.params.weights"),
        ("verify", {**AREA_VERIFY, "x": ["0", "0", "0"]}, "x"),
        ("action", {**FLAT_ACTION, "tolerances": {"graph_vs_lagrangian": "1e-6"}}, "tolerances.graph_vs_lagrangian"),
        ("image", {**AREA_IMAGE, "certificate": {"tolerance": "1e-7"}}, "certificate.tolerance"),
        ("action", {**FLAT_ACTION, "surface": {"f": "flat", "domain": [["0", "1"], [0, 1]]}}, "surface.domain"),
        ("action", {**FLAT_ACTION, "density": {"name": "constant", "params": {"value": "2"}}}, "density.params.value"),
        # the report would be written over its own cloud
        ("image", {**AREA_IMAGE, "csv": "report.json"}, "csv"),
        # a ragged list, or an integer beyond any float, which numpy cannot read as a float array
        ("action", {**FLAT_ACTION, "surface": {"f": "flat", "domain": [[0, 1], [0]]}}, "surface.domain"),
        ("verify", {**AREA_VERIFY, "lagrangian": {"name": "ellipsoid", "n": 3, "p": 2,
                                                  "params": {"weights": [1, [4], 9]}}}, "lagrangian.params.weights"),
        ("verify", {**AREA_VERIFY, "x": [0, 10**400, 0]}, "x"),
        # nesting deeper than any key's shape (2-D at most) is rejected without recursing, and without its repr
        ("verify", {**AREA_VERIFY, "x": nested(900)}, "x"),
        ("action", {**FLAT_ACTION, "resolutions": [nested(900)]}, "resolutions"),
        ("verify", {**AREA_VERIFY, "checks": [nested(900)]}, "checks"),
    ])
    def test_invalid_value_exits_2_naming_key(self, tmp_path, capsys, command, payload, key):
        # json.dumps writes nan and inf as the NaN and Infinity extensions that json.load accepts
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "report.json"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert not (tmp_path / AREA_IMAGE["csv"]).exists()
        err = capsys.readouterr().err
        assert f"config error: {key} must" in err
        assert "[[[" not in err  # a value nested 3 deep is named by its depth, not echoed

    @pytest.mark.parametrize("command, payload, where, key", [
        ("action", {**FLAT_ACTION, "surface": {"f": "polynomial", "domain": [[0, 1], [0, 1]],
                                               "params": {"terms": [{"powers": [1, 1]}]}}},
         "surface.params.terms[0]", "coeff"),
        ("verify", {**AREA_VERIFY, "lagrangian": {"name": "graph_lift", "n": 3, "p": 2,
                                                  "params": {"density": {"params": {}}}}},
         "lagrangian.params.density", "name"),
        ("action", {**FLAT_ACTION, "surface": {"f": "plane", "domain": [[0, 1], [0, 1]]}}, "surface.params",
         "coefficients"),
    ])
    def test_missing_key_exits_2_naming_it(self, tmp_path, capsys, command, payload, where, key):
        out = tmp_path / "report.json"
        assert main([command, "--config", str(write_config(tmp_path, payload)), "--out", str(out)]) == 2
        assert not out.exists()
        assert f"config error: missing keys in {where}: ['{key}']" in capsys.readouterr().err


class TestExitCodes:
    """One case per documented exit code; only 0 and 1 write a report."""

    ELLIPSOID = {"name": "ellipsoid", "n": 3, "p": 2}

    @pytest.mark.parametrize("code, payload, out_name, message", [
        (0, {**AREA_VERIFY, "checks": ["euler-identity"]}, "report.json", "verify: pass (1 checks)"),
        # the geometric-mean probe is not convex: its certificate fails on its own at any tolerance
        (1, {**AREA_VERIFY, "lagrangian": {"name": "geometric_mean", "n": 3, "p": 2},
             "checks": ["legendre-image-convexity"], "certificate": {"num_pairs": 5, "t_steps": 3}}, "report.json",
         "verify: fail (1 checks)"),
        (2, {**AREA_VERIFY, "samples": 0}, "report.json", "config error: samples must"),
        (3, {**AREA_VERIFY, "checks": ["euler-identity"]}, "blocker/report.json", "i/o error: "),
        # LAPACK's SVD does not converge on Hess(L^2) at these weights; under the suite's
        # RuntimeWarning filter the overflow before it may be what raises
        (4, {**AREA_VERIFY, "lagrangian": {**ELLIPSOID, "params": {"weights": [1e300, 1.0, 1.0]}}}, "report.json",
         "internal or numerical failure: "),
        # with that check alone, whichever of the two raises names it
        (4, {**AREA_VERIFY, "lagrangian": {**ELLIPSOID, "params": {"weights": [1e300, 1.0, 1.0]}},
             "checks": ["hessian-rank-split"]}, "report.json", " (in check hessian-rank-split)\n"),
    ])
    def test_exit_code(self, tmp_path, capsys, code, payload, out_name, message):
        (tmp_path / "blocker").write_text("a file, not a directory")
        out = tmp_path / out_name
        assert main(["verify", "--config", str(write_config(tmp_path, payload)), "--out", str(out)]) == code
        captured = capsys.readouterr()
        assert message in (captured.out if code < 2 else captured.err)
        assert out.exists() == (code < 2)

    @pytest.mark.time_limit(10)
    def test_sampler_rejecting_every_draw_exits_4(self, tmp_path, capsys):
        # L is below the level floor in every direction: the sampler gives up instead of looping
        payload = {**AREA_IMAGE, "lagrangian": {**self.ELLIPSOID, "params": {"weights": [1e-20] * 3}}}
        out = tmp_path / "report.json"
        assert main(["image", "--config", str(write_config(tmp_path, payload)), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("internal or numerical failure: RuntimeError: ")
        assert err.endswith(" (in image sampling)\n")
        assert not out.exists()
        assert not (tmp_path / AREA_IMAGE["csv"]).exists()

    def test_verify_sampling_failure_names_its_phase(self, tmp_path, capsys, monkeypatch):
        # as a sample count too large for memory raises in the fiber sampler, before any check runs
        def out_of_memory(*args):
            raise MemoryError("cannot allocate the fiber rows")

        monkeypatch.setattr(cli, "decomposable_rows", out_of_memory)
        out = tmp_path / "report.json"
        assert main(["verify", "--config", str(write_config(tmp_path, AREA_VERIFY)), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err == "internal or numerical failure: MemoryError: cannot allocate the fiber rows (in verify sampling)\n"
        assert not out.exists()

    def test_non_finite_action_exits_4_naming_its_phase(self, tmp_path, capsys):
        # the area of a plane this steep overflows in every cell; under the suite's RuntimeWarning
        # filter the overflow raises first, in the same phase
        payload = {**FLAT_ACTION, "surface": {"f": "plane", "params": {"coefficients": [1e300, 1e300]},
                                              "domain": [[0, 1], [0, 1]]}, "resolutions": [4]}
        out = tmp_path / "report.json"
        assert main(["action", "--config", str(write_config(tmp_path, payload)), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("internal or numerical failure: ")
        assert err.endswith(" (in action resolution 4: paired actions)\n")
        assert not out.exists()

    def test_non_finite_node_exits_4_in_the_paired_actions(self, tmp_path, capsys, monkeypatch):
        # the node values are sampled slab by slab inside the pass, so a map that is NaN at one node, here
        # (0.5, 0.5) of the resolution-4 grid, fails there; the config check, which runs the same kernel at the
        # domain's corners, passes it
        monkeypatch.setattr(cli, "_graph_values", lambda components, s: np.where(
            np.all(s == 0.5, axis=-1, keepdims=True), np.nan, 0.0))
        out = tmp_path / "report.json"
        payload = {**FLAT_ACTION, "resolutions": [4]}
        assert main(["action", "--config", str(write_config(tmp_path, payload)), "--out", str(out)]) == 4
        assert capsys.readouterr().err == ("internal or numerical failure: ValueError: node values must be finite "
                                           "(in action resolution 4: paired actions)\n")
        assert not out.exists()

    def test_report_that_cannot_be_serialized_writes_no_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "cmd_action", lambda config: ({"overall": "pass", "value": object()}, True))
        out = tmp_path / "report.json"
        assert main(["action", "--config", str(write_config(tmp_path, FLAT_ACTION)), "--out", str(out)]) == 4
        assert capsys.readouterr().err.startswith("internal or numerical failure: TypeError: ")
        assert not out.exists()

    def test_image_check_that_raises_leaves_no_cloud(self, tmp_path, capsys, monkeypatch):
        # the cloud is sampled before the checks run, but written only once every check has run
        def failing(*args, **kwargs):
            raise FloatingPointError("the certificate broke down")

        monkeypatch.setattr(cli, "convexity_certificate", failing)
        out = tmp_path / "report.json"
        assert main(["image", "--config", str(write_config(tmp_path, AREA_IMAGE)), "--out", str(out)]) == 4
        assert capsys.readouterr().err == ("internal or numerical failure: FloatingPointError: the certificate broke "
                                           "down (in check legendre-image-convexity)\n")
        assert [path.name for path in tmp_path.iterdir()] == ["config.json"]

    def test_image_report_that_cannot_be_written_leaves_no_cloud(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        out.mkdir()  # a directory where the report would go, beside a cloud that can be written
        assert main(["image", "--config", str(write_config(tmp_path, AREA_IMAGE)), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("i/o error: ")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["config.json", "report.json"]


@pytest.mark.parametrize("command, payload", [("verify", {**AREA_VERIFY, "checks": ["euler-identity"]}),
                                              ("action", FLAT_ACTION), ("image", AREA_IMAGE)])
def test_report_text_is_the_canonical_json(tmp_path, command, payload):
    out = tmp_path / "report.json"
    assert main([command, "--config", str(write_config(tmp_path, payload)), "--out", str(out)]) == 0
    text = out.read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def reference_fibers(L, count, rng):
    """The per-draw sampling loop of the verify command, one fiber row per sample, shape (count, C(n,p))."""
    out = []
    while len(out) < count:
        y = draw_decomposable(rng, L.n, L.p, L.chart, 0.25, L.sampling_floor)
        if y is not None:
            out.append(y)
    return np.array(out).reshape(count, L.fiber_dim)


def reference_rank(matrix, threshold):
    svals = np.linalg.svd(matrix, compute_uv=False)
    return int(np.sum(svals > threshold * svals[0])) if svals[0] > 0.0 else 0


def reference_verify(config):
    """The verify checks as per-fiber loops of scalar calls, as the command ran them before batching.

    Returns the measured value of each check, the Hessian ranks of every
    rank sample, and the generators of the pullback and closedness draws.
    """
    L = build_lagrangian(config["lagrangian"])
    x = np.asarray(config.get("x", np.zeros(L.n)), dtype=float)
    seed, tol = config["seed"], VERIFY_TOLERANCES
    fibers = reference_fibers(L, config["samples"], np.random.default_rng(seed))
    chart = TotalSpaceChart(L.n, L.p)
    out = {}

    # each fiber alone: *_many on one row, and the pairing as one dot of two coordinate arrays
    def value(y):
        return float(L.value_many(x, y[None])[0])

    def gradient(y):
        return L.gradient_many(x, y[None])[0]

    def per_unit_value(residual, y):
        return residual / max(1.0, abs(value(y)))

    def homogeneity(y):
        base, norm = value(y), float(np.linalg.norm(y))
        return max(abs(value(lam * y) - lam * base) / (lam * norm) for lam in (0.5, 2.0, 10.0))

    out["degree-1-homogeneity"] = max(homogeneity(y) for y in fibers)
    out["euler-identity"] = max(per_unit_value(abs(value(y) - float(gradient(y) @ y)), y) for y in fibers)
    out["gradient-degree-0"] = max(
        float(np.max(np.abs(gradient(lam * y) - gradient(y))))
        for y in fibers for lam in (0.5, 2.0, 1000.0)
    )
    out["vanishing-hamiltonian"] = max(per_unit_value(abs(float(gradient(y) @ y) - value(y)), y) for y in fibers)
    ranks = []
    for y in fibers[:config["rank_samples"]]:
        g, H = gradient(y), L.hessian_many(x, y[None])[0]
        ranks.append((reference_rank(2.0 * (np.outer(g, g) + value(y) * H), tol["rank_threshold"]),
                      reference_rank(H, tol["rank_threshold"])))
    out["hessian-rank-split"] = float(max(abs(r2 - 1 - r1) for r2, r1 in ranks))
    if "legendre-image-convexity" in config.get("checks", VERIFY_CHECKS):
        cert = config["certificate"]
        out["legendre-image-convexity"] = convexity_certificate(
            L, x, num_pairs=cert["num_pairs"], t_steps=cert["t_steps"], seed=seed + 1, tol=tol["convexity"]
        ).worst_violation
    if L.name == "area":
        out["legendre-image-quadric"] = max(abs(float(np.linalg.norm(g)) - 1.0)
                                            for g in image_coordinates(L, x, 500, seed=seed + 2)[1])
    elif L.name == "ellipsoid":
        weights = np.asarray(config["lagrangian"]["params"]["weights"])
        out["legendre-image-quadric"] = max(abs(float(np.sum(g**2 / weights)) - 1.0)
                                            for g in image_coordinates(L, x, 500, seed=seed + 2)[1])
    pullback_rng = np.random.default_rng(seed + 3)
    worst = 0.0
    for y in fibers:
        vectors = [pullback_rng.standard_normal(L.n) for _ in range(L.p)]
        grad = gradient(y)
        lhs = theta(chart)(chart.point(x, grad), [chart.lift(v) for v in vectors])
        worst = max(worst, abs(lhs - float(grad @ minors(np.column_stack(vectors)))))
    out["tautological-pullback"] = worst
    form = omega(chart)
    point = np.random.default_rng(seed + 4).standard_normal(chart.dim_total)
    basis = np.eye(chart.dim_total)
    matrix = np.array([[form(point, [basis[col], *basis[list(rest)]]) for col in range(chart.dim_total)]
                       for rest in itertools.combinations(range(chart.dim_total), form.degree - 1)])
    rank = int(np.linalg.matrix_rank(matrix, tol=1e-10 * max(1.0, float(np.abs(matrix).max()))))
    out["multisymplectic-nondegenerate"] = float(chart.dim_total - rank)
    closed_rng = np.random.default_rng(seed + 5)
    worst = 0.0
    for _ in range(20):
        point = closed_rng.standard_normal(chart.dim_total)
        vectors = [closed_rng.standard_normal(chart.dim_total) for _ in range(form.degree + 1)]
        total = 0.0
        for i, vi in enumerate(vectors):
            rest = vectors[:i] + vectors[i + 1:]
            total += (-1.0) ** i * (form(point + 1e-4 * vi, rest) - form(point - 1e-4 * vi, rest)) / (2.0 * 1e-4)
        worst = max(worst, abs(total))
    out["multisymplectic-closed"] = worst
    return out, ranks, {"pullback": pullback_rng, "closed": closed_rng}


def reference_config(name, n, p):
    lagrangian = {"name": name, "n": n, "p": p}
    if name == "ellipsoid":
        lagrangian["params"] = {"weights": np.linspace(0.5, 3.0, math.comb(n, p)).round(3).tolist()}
    if name == "graph_lift":
        lagrangian["params"] = {"density": {"name": "minimal_surface"}}
    return {"lagrangian": lagrangian, "seed": 11 * n + p, "samples": 24, "rank_samples": 10,
            "certificate": {"num_pairs": 4, "t_steps": 3}}


LAGRANGIAN_NAMES = ("area", "ellipsoid", "projected_volume", "geometric_mean", "graph_lift")
REFERENCE_CASES = [(name, n, p) for name in LAGRANGIAN_NAMES[:4]
                   for n, p in ((3, 2), (4, 2), (5, 3))] + [("graph_lift", 3, 2)]


class TestVerifyMatchesPerFiberReference:
    """The batched verify command against the per-fiber loops it replaced.

    Every check gives the status and the measured value of the reference
    exactly: the batched kernels pair with the same BLAS dot, sum rows in the
    same order, and run the same LAPACK routines on the same matrices.
    """

    @pytest.mark.parametrize("name, n, p", REFERENCE_CASES, ids=lambda v: str(v))
    def test_checks_equal_reference(self, name, n, p, monkeypatch):
        config = reference_config(name, n, p)
        generators = {}
        default_rng = np.random.default_rng

        def recording_rng(seed):
            generators[seed] = default_rng(seed)
            return generators[seed]

        monkeypatch.setattr(np.random, "default_rng", recording_rng)
        report, _ = cmd_verify(config)
        monkeypatch.undo()

        expected, ranks, reference_rngs = reference_verify(config)
        measured = {c["name"]: c for c in report["checks"]}
        assert set(measured) == set(expected)
        for check_name, check in measured.items():
            assert check["measured"] == expected[check_name], check_name
            assert check["status"] == ("pass" if expected[check_name] <= check["tolerance"] else "fail")
        seed = config["seed"]
        for offset, key in ((3, "pullback"), (5, "closed")):
            assert generators[seed + offset].bit_generator.state == reference_rngs[key].bit_generator.state

        L = build_lagrangian(config["lagrangian"])
        rows = reference_fibers(L, 24, np.random.default_rng(seed))
        report = rank_lemma_check(L, np.zeros(n), rows[:10], threshold=VERIFY_TOLERANCES["rank_threshold"])
        assert list(zip(report.rank_L2.tolist(), report.rank_L.tolist())) == ranks
        for k in range(10):
            one = rank_lemma_check(L, np.zeros(n), rows[k:k + 1], threshold=VERIFY_TOLERANCES["rank_threshold"])
            assert (one.rank_L2.tolist(), one.rank_L.tolist()) == ([ranks[k][0]], [ranks[k][1]])

    def test_checks_equal_reference_at_a_nonzero_base_point(self, monkeypatch):
        # the conformal area exp(a.x) |y| reads x, so a command that drops the configured x measures otherwise
        a, x = (0.25, -0.5, 0.375), [0.5, -1.0, 0.75]
        monkeypatch.setitem(LAGRANGIANS, "conformal_area", (set(), lambda n, p, params: conformal_area(n, p, a)))
        config = {**reference_config("conformal_area", 3, 2), "x": x}
        report, _ = cmd_verify(config)
        expected, _, _ = reference_verify(config)
        assert {c["name"]: c["measured"] for c in report["checks"]} == expected


class TestSampleFibers:
    """The blocked verify sampler against the per-draw loop of reference_fibers."""

    @pytest.mark.parametrize("name, n, p", [(name, n, p) for name in LAGRANGIAN_NAMES
                                            for n, p in ((3, 2), (4, 2), (5, 3))], ids=lambda v: str(v))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rows_equal_reference_bit_for_bit(self, name, n, p, seed):
        # covers the geometric_mean floor and the sign flips of the graph_lift chart
        L = build_lagrangian(reference_config(name, n, p)["lagrangian"])
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        rows = decomposable_rows(rng, n, p, 60, L.chart, 0.25, L.sampling_floor)
        expected = reference_fibers(L, 60, reference_rng)
        assert rows.shape == expected.shape
        assert rows.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_chart_on_a_later_coordinate(self):
        # the margin and the orientation read the chart's coordinate, here 3, not coordinate 0
        L = replace(area_lagrangian(4, 2), chart=3)
        rows = decomposable_rows(np.random.default_rng(0), 4, 2, 200, L.chart, 0.25, L.sampling_floor)
        assert np.all(rows[:, 3] >= 0.25 * np.linalg.norm(rows, axis=-1))
        assert L._on_chart(rows).all()

    @pytest.mark.time_limit(10)
    def test_floor_rejecting_every_draw_raises(self):
        # no fiber has every |y_I| at |y|, so the sampler gives up instead of looping
        L = replace(area_lagrangian(3, 2), sampling_floor=1.0)
        with pytest.raises(RuntimeError, match="rejected 2010 draws for 10 rows"):
            decomposable_rows(np.random.default_rng(0), 3, 2, 10, L.chart, 0.25, L.sampling_floor)
