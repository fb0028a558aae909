"""CLI harness: expression grammar, model configs, artifacts, exit codes."""

import argparse
import errno
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import semigroupinv as sg
from conftest import failing_dstevd
from semigroupinv import artifacts, cli, models, spectral
from semigroupinv.artifacts import vector_from_csv
from semigroupinv.cli import RunConfig, load_model_file, main, parse_function_literal, run
from semigroupinv.errors import check_param
from semigroupinv.models import ModelSpec

CHAIN2_JSON = {
    "schemaVersion": 1,
    "type": "chain",
    "parameters": {"matrix": [[-0.5, 0.5], [0.5, -0.5]], "weights": [1.0, 1.0]},
}
OU_JSON = {
    "schemaVersion": 1,
    "type": "ou",
    "parameters": {"halfWidth": 6.0, "n": 400, "rate": 1.0},
}
LAPLACIAN_JSON = {
    "schemaVersion": 1,
    "type": "diffusion",
    "parameters": {"left": 0.0, "right": math.pi, "n": 400},
}


@pytest.fixture()
def model_files(tmp_path):
    paths = {}
    for name, spec in (("chain2", CHAIN2_JSON), ("ou", OU_JSON), ("laplacian", LAPLACIAN_JSON)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(spec), encoding="utf-8")
        paths[name] = str(p)
    return paths


class TestExpressionGrammar:
    def setup_method(self):
        self.space = sg.build_space([-1.0, 0.0, 1.0], [1.0, 1.0, 1.0])

    def test_polynomial(self):
        assert parse_function_literal("x^2", self.space) == pytest.approx([1.0, 0.0, 1.0])
        assert parse_function_literal("2x + 1", self.space) == pytest.approx([-1.0, 1.0, 3.0])
        assert parse_function_literal("3*x^2 - x", self.space) == pytest.approx([4.0, 0.0, 2.0])

    def test_exponential(self):
        assert parse_function_literal("exp(-x)", self.space) == pytest.approx(
            np.exp([1.0, 0.0, -1.0])
        )
        assert parse_function_literal("exp(0.5x)", self.space) == pytest.approx(
            np.exp([-0.5, 0.0, 0.5])
        )

    def test_indicator(self):
        assert parse_function_literal("indicator(-0.5, 1)", self.space) == pytest.approx(
            [0.0, 1.0, 1.0]
        )

    def test_random_is_reproducible(self):
        a = parse_function_literal("random(42)", self.space)
        b = parse_function_literal("random(42)", self.space)
        c = parse_function_literal("random(43)", self.space)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_constant_and_negation(self):
        assert parse_function_literal("-2", self.space) == pytest.approx([-2.0] * 3)
        assert parse_function_literal("1 - x", self.space) == pytest.approx([2.0, 1.0, 0.0])

    def test_parse_errors_carry_position(self):
        with pytest.raises(sg.ExpressionParseError) as exc:
            parse_function_literal("x ^", self.space)
        assert exc.value.position == 3
        with pytest.raises(sg.ExpressionParseError):
            parse_function_literal("foo(3)", self.space)
        with pytest.raises(sg.ExpressionParseError):
            parse_function_literal("x + * 2", self.space)
        with pytest.raises(sg.ExpressionParseError):
            parse_function_literal("random(1.5)", self.space)

    @pytest.mark.parametrize("expr, expected", [
        ("2x", [-2.0, 0.0, 2.0]),
        ("x2", [-2.0, 0.0, 2.0]),
        ("2 x", [-2.0, 0.0, 2.0]),
        ("-x^2", [-1.0, -0.0, -1.0]),
        ("-2^2", [-4.0] * 3),
        ("2^3x", [-8.0, 0.0, 8.0]),
        ("1e+3x", [-1000.0, 0.0, 1000.0]),
        ("1E-1x", [-0.1, 0.0, 0.1]),
        ("(x+1)^2", [0.0, 1.0, 4.0]),
        ("indicator(-1e0, .5)", [1.0, 1.0, 0.0]),
        (" \t2 *\tx\n+ 1\t", [-1.0, 1.0, 3.0]),
        ("exp(0x)", [1.0] * 3),
    ])
    def test_valid_expressions_give_exact_values(self, expr, expected):
        values = parse_function_literal(expr, self.space)
        assert values.tolist() == expected
        assert np.array_equal(np.signbit(values), np.signbit(expected))

    @pytest.mark.parametrize("expr, message, position", [
        ("2exp(x)", "bad number '2e'", 0),
        ("1.2.3", "bad number '1.2.3'", 0),
        ("x^", "exponent must be a non-negative integer", 2),
        ("x^-1", "exponent must be a non-negative integer", 2),
        ("indicator(x, 1)", "expected a number", 10),
        ("indicator(1e, 2)", "bad number '1e'", 10),
        ("random()", "random() needs an integer seed", 7),
        ("x y", "unknown name 'y'", 2),
        ("x $", "unexpected '$'", 2),
        ("(x", "expected ')'", 2),
    ])
    def test_parse_errors_name_the_token_and_its_position(self, expr, message, position):
        with pytest.raises(sg.ExpressionParseError) as exc:
            parse_function_literal(expr, self.space)
        assert str(exc.value) == f"{message} (at position {position})"
        assert exc.value.position == position


class TestModelLoading:
    def test_chain_round_trip(self):
        gen = ModelSpec.from_json(CHAIN2_JSON).build()
        assert gen.size == 2
        assert np.array_equal(gen.matrix, np.array([[-0.5, 0.5], [0.5, -0.5]]))

    def test_rejects_wrong_schema_version(self):
        with pytest.raises(sg.InvalidConfig):
            ModelSpec.from_json({"schemaVersion": 2, "type": "chain", "parameters": {}}).build()

    def test_rejects_unknown_type(self):
        with pytest.raises(sg.InvalidConfig):
            ModelSpec.from_json({"schemaVersion": 1, "type": "levy", "parameters": {}}).build()

    def test_diffusion_with_expressions(self):
        gen = ModelSpec.from_json(
            {
                "schemaVersion": 1,
                "type": "diffusion",
                "parameters": {
                    "left": 0.0, "right": 1.0, "n": 16,
                    "sigma": "1 + 0.1x", "kill": "0.2",
                    "boundaryLeft": "dirichlet", "boundaryRight": "neumann",
                },
            }
        ).build()
        assert gen.size == 16
        assert sg.check_m_symmetry(gen.matrix, gen.space) <= 1e-12

    @pytest.mark.parametrize(
        "kind, params, missing",
        [
            ("chain", {"weights": [1.0, 1.0]}, "matrix"),
            ("chain", {"matrix": [[-0.5, 0.5], [0.5, -0.5]]}, "weights"),
            ("diffusion", {"right": 1.0, "n": 8}, "left"),
            ("diffusion", {"left": 0.0, "n": 8}, "right"),
            ("diffusion", {"left": 0.0, "right": 1.0}, "n"),
            ("jump", {"weights": [0.5, 0.5]}, "points"),
            ("jump", {"points": [0.0, 1.0]}, "weights"),
        ],
    )
    def test_missing_required_key_names_it(self, kind, params, missing):
        with pytest.raises(sg.InvalidConfig, match=f"'{missing}' is required"):
            ModelSpec.from_json({"schemaVersion": 1, "type": kind, "parameters": params}).build()

    @pytest.mark.parametrize(
        "kind, params, key",
        [
            ("ou", {"n": 12.5}, "n"),
            ("ou", {"n": float("inf")}, "n"),
            ("ou", {"halfWidth": [1.0]}, "halfWidth"),
            ("diffusion", {"left": 0.0, "right": "pi", "n": 8}, "right"),
            ("jump", {"points": [0.0, [1.0]], "weights": [0.5, 0.5]}, "points"),
        ],
    )
    def test_bad_value_names_the_key(self, kind, params, key):
        with pytest.raises(sg.InvalidConfig, match=f"model parameter '{key}'"):
            ModelSpec.from_json({"schemaVersion": 1, "type": kind, "parameters": params}).build()

    @pytest.mark.parametrize("key", ["sigma", "kill", "boundaryLeft", "boundaryRight"])
    def test_null_diffusion_parameter_names_the_key(self, key):
        # "kill": null once read as no killing, "sigma": null as the unknown name 'None'
        params = {"left": 0.0, "right": 1.0, "n": 8, key: None}
        with pytest.raises(sg.InvalidConfig, match=f"^model parameter '{key}': expected a value, got null$"):
            ModelSpec.from_json({"schemaVersion": 1, "type": "diffusion", "parameters": params}).build()

    def test_numeric_sigma_and_kill_read_as_their_text(self):
        def matrix(sigma, kill):
            params = {"left": 0.0, "right": 1.0, "n": 8, "sigma": sigma, "kill": kill}
            return ModelSpec.from_json({"schemaVersion": 1, "type": "diffusion", "parameters": params}).build().matrix

        assert np.array_equal(matrix(2, 0.5), matrix("2", "0.5"))

    def test_jump_model(self):
        gen = ModelSpec.from_json(
            {
                "schemaVersion": 1,
                "type": "jump",
                "parameters": {
                    "points": list(np.linspace(-2, 2, 10)),
                    "weights": [0.4] * 10,
                    "tStar": 1.0,
                },
            }
        ).build()
        dec = sg.spectral_decompose(gen)
        assert dec.eigenvalues[-1] <= 2.0 + 1e-8


class TestCommands:
    def test_check_passes_on_oracle_chain(self, model_files, tmp_path):
        out = tmp_path / "out_check"
        config = RunConfig("check", model_files["chain2"], out, {"seed": 0})
        assert run(config) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["allPassed"] is True
        assert all(c["passed"] for c in summary["checks"].values())
        assert "flowQuadratureAgreement" in summary["checks"]
        assert summary["checks"]["flowMultiplierAgreement"]["value"] <= 1e-10

    def test_check_runs_one_j0_quadrature(self, model_files, tmp_path, monkeypatch):
        from semigroupinv import bessel

        calls = []
        engine = bessel.bochner_quadrature
        monkeypatch.setattr(bessel, "bochner_quadrature", lambda *a, **k: calls.append(a) or engine(*a, **k))
        assert run(RunConfig("check", model_files["chain2"], tmp_path / "out", {"seed": 0})) == 0
        assert len(calls) == 1

    def test_check_reports_skipped_flow_check(self, model_files, tmp_path):
        out = tmp_path / "out_check_ou"
        assert run(RunConfig("check", model_files["ou"], out, {"seed": 0})) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["allPassed"] is True
        flow = summary["checks"]["flowQuadratureAgreement"]
        assert flow["skipped"] is True and "passed" not in flow
        lam_max = sg.spectral_decompose(load_model_file(model_files["ou"])).lambda_max
        assert flow["lambdaMax"] == pytest.approx(lam_max, rel=1e-12)
        assert flow["lambdaMax"] > 50.0 and "exceeds 50" in flow["reason"]
        assert summary["checks"]["flowMultiplierAgreement"] == flow

    def test_decompose_artifacts(self, model_files, tmp_path):
        out = tmp_path / "out_dec"
        assert run(RunConfig("decompose", model_files["chain2"], out, {})) == 0
        lines = (out / "eigenvalues.csv").read_text().strip().split("\n")
        assert lines[0] == "index,lambda"
        assert len(lines) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["lambdaMax"] == pytest.approx(1.0, abs=1e-12)

    def test_invert_witness_via_cli(self, model_files, tmp_path):
        out = tmp_path / "out_inv"
        config = RunConfig(
            "invert", model_files["ou"], out,
            {"T": 1.0, "g": "x^2", "alpha": 1.0, "coeff_tol": 1e-8, "method": "spectral"},
        )
        assert run(config) == 0
        space, values = sg.vector_from_csv((out / "solution.csv").read_text())
        _, f_exact = sg.ou_witness_pair(1.0)
        interior = np.abs(space.points) <= 3.0
        expected = f_exact(space.points)
        err = math.sqrt(float((((values - expected) ** 2) * space.weights)[interior].sum()))
        ref = math.sqrt(float(((expected**2) * space.weights)[interior].sum()))
        assert err <= 1e-2 * ref
        report = json.loads((out / "report.json").read_text())
        assert set(report) == {
            "lambdaMax", "amplificationLog10", "membershipSpectralLog10",
            "membershipQuadrature", "flag",
        }
        summary = json.loads((out / "summary.json").read_text())
        assert "amplificationLog10" in summary
        assert summary["flag"] == "severe"

    def test_overflow_exits_3_with_error_json(self, model_files, tmp_path):
        out = tmp_path / "out_overflow"
        config = RunConfig(
            "invert", model_files["laplacian"], out,
            {"T": 1.0, "g": "random(7)", "alpha": 1.0, "coeff_tol": 1e-12, "method": "spectral"},
        )
        assert run(config) == 3
        error = json.loads((out / "error.json").read_text())
        assert error["error"] == "OverflowRisk"
        assert error["operation"] == "invert"
        assert error["log10_value"] > 300
        assert not (out / "solution.csv").exists()

    def test_eigensolver_failure_exits_3_with_error_json(self, model_files, tmp_path, monkeypatch):
        monkeypatch.setattr(spectral, "_DSTEVD", failing_dstevd)
        out = tmp_path / "out_eigensolver"
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "--model", model_files["ou"], "--output", str(out)])
        assert exc.value.code == 3
        error = json.loads((out / "error.json").read_text())
        assert error["error"] == "NumericalError" and error["operation"] == "decompose"
        assert "dstevd" in error["message"] and "info = 1" in error["message"]
        assert not (out / "eigenvalues.csv").exists()

    def test_malformed_model_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        out = tmp_path / "out_bad"
        assert run(RunConfig("decompose", str(bad), out, {})) == 2
        error = json.loads((out / "error.json").read_text())
        assert error["error"] == "InvalidConfig"

    @pytest.mark.parametrize(
        "spec, key",
        [
            ({"type": "chain", "parameters": {"matrix": [[-0.5, 0.5], [0.5, -0.5]]}}, "weights"),
            ({"type": "ou", "parameters": {"n": "abc"}}, "n"),
            ({"type": "chain", "parameters": {"matrix": "abc", "weights": [1.0, 1.0]}}, "matrix"),
        ],
        ids=["chain-without-weights", "ou-n-abc", "chain-matrix-abc"],
    )
    def test_bad_model_parameters_exit_2(self, tmp_path, spec, key):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schemaVersion": 1, **spec}), encoding="utf-8")
        out = tmp_path / "out_bad"
        assert cli_exit(["decompose", "--model", str(bad), "--output", str(out)]) == 2
        error = json.loads((out / "error.json").read_text())
        assert error["error"] == "InvalidConfig"
        assert f"'{key}'" in error["message"]

    def test_bad_expression_exits_2(self, model_files, tmp_path):
        out = tmp_path / "out_expr"
        config = RunConfig(
            "invert", model_files["chain2"], out,
            {"T": 1.0, "g": "x +* 2", "alpha": 1.0, "coeff_tol": 1e-12, "method": "spectral"},
        )
        assert run(config) == 2
        assert json.loads((out / "error.json").read_text())["error"] == "ExpressionParseError"

    def test_missing_required_parameter(self, model_files, tmp_path):
        with pytest.raises(sg.InvalidConfig):
            RunConfig("invert", model_files["chain2"], tmp_path, {"T": 1.0})

    def test_sweep_csv_contract(self, model_files, tmp_path):
        out = tmp_path / "out_sweep"
        config = RunConfig(
            "sweep", model_files["chain2"], out,
            {"T": 1.0, "g": "random(3)", "phi": "tikhonov_exp"},
        )
        assert run(config) == 0
        lines = (out / "sweep.csv").read_text().split("\n")
        assert lines[0] == "gamma,error,residual"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["monotoneDecreasing"] is True

    def test_mixture_reports_bound(self, model_files, tmp_path):
        out = tmp_path / "out_mix"
        config = RunConfig(
            "mixture", model_files["laplacian"], out,
            {"T": 1.0, "g": "random(5)", "gamma": 0.1, "tstar": 1.0},
        )
        assert run(config) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["residual"] <= 1e-10
        assert summary["inverseNormBound"] == pytest.approx(math.e / 0.1, rel=1e-12)
        assert summary["maxInverseMultiplier"] <= summary["inverseNormBound"] * (1 + 1e-12)

    def test_pde_trajectory(self, model_files, tmp_path):
        out = tmp_path / "out_pde"
        config = RunConfig(
            "pde", model_files["chain2"], out,
            {"T": 1.0, "g": "indicator(0, 0)", "coeff_tol": 1e-12},
        )
        assert run(config) == 0
        lines = (out / "trajectory.csv").read_text().strip().split("\n")
        assert lines[0] == "t,index,value"
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[2]) == pytest.approx(1.0)

    def test_diagnose_artifacts(self, model_files, tmp_path):
        out = tmp_path / "out_diag"
        config = RunConfig(
            "diagnose", model_files["chain2"], out, {"T": 1.0, "g": "random(1)", "alpha": 1.0}
        )
        assert run(config) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["flag"] == "ok"
        assert "amplificationLog10" in summary

    def test_regularise_artifacts(self, model_files, tmp_path):
        out = tmp_path / "out_reg"
        config = RunConfig(
            "regularise", model_files["ou"], out,
            {"T": 1.0, "g": "x^2", "gamma": 0.1, "phi": "jump_mixture", "tstar": 1.0, "tau": 1.0},
        )
        assert run(config) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["residual"] <= 1e-8

    def test_determinism_byte_identical(self, model_files, tmp_path):
        outputs = []
        for tag in ("a", "b"):
            out = tmp_path / f"out_{tag}"
            config = RunConfig(
                "sweep", model_files["chain2"], out,
                {"T": 1.0, "g": "random(42)", "phi": "tikhonov_exp"},
            )
            assert run(config) == 0
            outputs.append(
                ((out / "sweep.csv").read_bytes(), (out / "summary.json").read_bytes())
            )
        assert outputs[0] == outputs[1]


def cli_exit(argv) -> int:
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


class TestExplicitParameters:
    """A falsy value on the command line is validated, never replaced by a default."""

    @pytest.mark.parametrize("command", ["invert", "diagnose"])
    def test_alpha_zero_exits_2(self, model_files, tmp_path, command):
        out = tmp_path / "out"
        argv = [command, "--model", model_files["chain2"], "--output", str(out),
                "--T", "1", "--g", "random(1)", "--alpha", "0"]
        assert cli_exit(argv) == 2
        assert json.loads((out / "error.json").read_text())["error"] == "NonPositiveAlpha"
        assert not (out / "summary.json").exists()

    def test_tstar_zero_exits_2(self, model_files, tmp_path):
        out = tmp_path / "out"
        argv = ["pde", "--model", model_files["chain2"], "--output", str(out),
                "--T", "1", "--g", "random(1)", "--gamma", "0.1", "--tstar", "0"]
        assert cli_exit(argv) == 2
        assert json.loads((out / "error.json").read_text())["error"] == "ValidationError"

    def test_coeff_tol_zero_is_honoured(self, model_files, tmp_path):
        out = tmp_path / "out"
        argv = ["invert", "--model", model_files["chain2"], "--output", str(out),
                "--T", "1", "--g", "random(1)", "--coeff-tol", "0"]
        assert cli_exit(argv) == 0
        assert json.loads((out / "summary.json").read_text())["coeffTol"] == 0.0

    def test_empty_gammas_exits_2(self, model_files, tmp_path):
        out = tmp_path / "out"
        argv = ["sweep", "--model", model_files["chain2"], "--output", str(out),
                "--T", "1", "--g", "random(1)", "--gammas", ","]
        assert cli_exit(argv) == 2
        assert json.loads((out / "error.json").read_text())["error"] == "InvalidConfig"


class TestVectorFileInput:
    """``--g csv:PATH`` input that cannot be parsed exits 2 with error.json."""

    @pytest.mark.parametrize(
        "row",
        [b"1,abc,1,2\n", b"1,0.5,1\n", b"1,0.5,1,2,3\n"],
        ids=["non-numeric", "three-fields", "five-fields"],
    )
    def test_malformed_row_exits_2(self, model_files, tmp_path, row):
        vector = tmp_path / "g.csv"
        vector.write_bytes(b"index,x,m,value\n0,-0.5,1,1\n" + row)
        out = tmp_path / "out"
        argv = ["invert", "--model", model_files["chain2"], "--output", str(out),
                "--T", "1", "--g", f"csv:{vector}"]
        assert cli_exit(argv) == 2
        error = json.loads((out / "error.json").read_text())
        assert error["error"] == "InvalidConfig"
        assert "line 3" in error["message"]

    def test_bad_header_exits_2_like_a_bad_row(self, model_files, tmp_path):
        vector = tmp_path / "g.csv"
        vector.write_bytes(b"index,x,m,v\n0,-0.5,1,1\n1,0.5,1,2\n")
        out = tmp_path / "out"
        argv = ["invert", "--model", model_files["chain2"], "--output", str(out),
                "--T", "1", "--g", f"csv:{vector}"]
        assert cli_exit(argv) == 2
        error = json.loads((out / "error.json").read_text())
        assert error["error"] == "InvalidConfig"
        assert "expected header" in error["message"]

    def test_undecodable_file_exits_2(self, model_files, tmp_path):
        vector = tmp_path / "g.csv"
        vector.write_bytes(b"\xff\xfe\x00index")
        out = tmp_path / "out"
        argv = ["invert", "--model", model_files["chain2"], "--output", str(out),
                "--T", "1", "--g", f"csv:{vector}"]
        assert cli_exit(argv) == 2
        assert json.loads((out / "error.json").read_text())["error"] == "InvalidConfig"

    def test_written_vector_reads_back(self, model_files, tmp_path):
        first = tmp_path / "first"
        argv = ["invert", "--model", model_files["chain2"], "--output", str(first),
                "--T", "1", "--g", "random(2)"]
        assert cli_exit(argv) == 0
        second = tmp_path / "second"
        argv = ["invert", "--model", model_files["chain2"], "--output", str(second),
                "--T", "1", "--g", f"csv:{first / 'solution.csv'}"]
        assert cli_exit(argv) == 0

    def _invert_from_csv(self, model, vector, out):
        return cli_exit(["invert", "--model", model, "--output", str(out),
                         "--T", "1", "--g", f"csv:{vector}"])

    def test_grid_mismatch_exits_2(self, model_files, tmp_path):
        vector = tmp_path / "other.csv"
        vector.write_bytes(b"index,x,m,value\n0,5,3,1\n1,9,7,2\n")
        out = tmp_path / "out"
        assert self._invert_from_csv(model_files["chain2"], vector, out) == 2
        error = json.loads((out / "error.json").read_text())
        assert error["error"] == "InvalidConfig"
        assert "column x" in error["message"]
        assert not (out / "solution.csv").exists()

    def test_weight_mismatch_exits_2(self, model_files, tmp_path):
        vector = tmp_path / "other.csv"
        vector.write_bytes(b"index,x,m,value\n0,0,1,1\n1,1,2,2\n")
        out = tmp_path / "out"
        assert self._invert_from_csv(model_files["chain2"], vector, out) == 2
        assert "column m" in json.loads((out / "error.json").read_text())["message"]

    def test_index_out_of_order_exits_2(self, model_files, tmp_path):
        vector = tmp_path / "swapped.csv"
        vector.write_bytes(b"index,x,m,value\n1,0,1,1\n0,1,1,2\n")
        out = tmp_path / "out"
        assert self._invert_from_csv(model_files["chain2"], vector, out) == 2
        error = json.loads((out / "error.json").read_text())
        assert error["error"] == "InvalidConfig"
        assert "line 2: index 1, expected 0" in error["message"]

    def test_solution_on_ou_grid_round_trips(self, tmp_path):
        model = tmp_path / "ou8.json"
        model.write_text(json.dumps(
            {"schemaVersion": 1, "type": "ou", "parameters": {"halfWidth": 2.0, "n": 8, "rate": 1.3}}
        ), encoding="utf-8")
        first = tmp_path / "first"
        assert cli_exit(["regularise", "--model", str(model), "--output", str(first), "--T", "1",
                         "--g", "random(2)", "--gamma", "0.1", "--phi", "constant"]) == 0
        second = tmp_path / "second"
        assert self._invert_from_csv(str(model), first / "solution.csv", second) == 0
        summary = json.loads((second / "summary.json").read_text())
        assert summary["roundTripRelativeResidual"] <= 1e-8


class TestBoundedRead:
    """Model and ``csv:`` vector files share one reader: past its byte budget, or not UTF-8, exit 2."""

    def test_undecodable_model_exits_2(self, tmp_path):
        model = tmp_path / "model.json"
        model.write_bytes(b'{"schemaVersion": 1, "type": "\xff"}')
        out = tmp_path / "out"
        assert cli_exit(["decompose", "--model", str(model), "--output", str(out)]) == 2
        error = json.loads((out / "error.json").read_text())
        assert error["error"] == "InvalidConfig"
        assert "cannot read model file" in error["message"]

    @pytest.mark.parametrize("endless", ["model", "vector"])
    def test_endless_file_exits_2_at_the_budget(self, model_files, tmp_path, monkeypatch, endless):
        monkeypatch.setattr(cli, "_MAX_INPUT_BYTES", 1024)  # never the real budget: /dev/zero has no end
        model, g = ("/dev/zero", "x") if endless == "model" else (model_files["chain2"], "csv:/dev/zero")
        out = tmp_path / "out"
        assert cli_exit(["invert", "--model", model, "--output", str(out), "--T", "1", "--g", g]) == 2
        error = json.loads((out / "error.json").read_text())
        assert error["error"] == "ValidationError"
        assert f"{endless} file /dev/zero exceeds the budget of 1024 bytes" in error["message"]

    def test_a_file_of_the_budget_is_read_one_byte_more_is_not(self, model_files, tmp_path, monkeypatch):
        size = len(json.dumps(CHAIN2_JSON))
        for budget, code in ((size, 0), (size - 1, 2)):
            monkeypatch.setattr(cli, "_MAX_INPUT_BYTES", budget)
            assert cli_exit(["decompose", "--model", model_files["chain2"], "--output", str(tmp_path / str(budget))]) == code

    def test_model_file_is_refused_past_its_value_mark_budget_before_parsing(self, model_files, tmp_path, monkeypatch):
        # a budget-sized file of "0," entries once parsed to 67M references at a 1.2 GB peak
        marks = cli._value_marks(json.dumps(CHAIN2_JSON).encode())
        parsed = []
        monkeypatch.setattr(json, "loads", lambda text, loads=json.loads: parsed.append(text) or loads(text))
        for budget, code in ((marks, 0), (marks - 1, 2)):
            monkeypatch.setattr(cli, "MAX_MODEL_MARKS", budget)
            out = tmp_path / str(budget)
            assert cli_exit(["decompose", "--model", model_files["chain2"], "--output", str(out)]) == code
        monkeypatch.undo()
        assert len(parsed) == 1
        error = json.loads((out / "error.json").read_text())
        assert error["error"] == "ValidationError"
        message = (f"{marks} commas, colons and opening brackets in model file {model_files['chain2']}"
                   f" exceed the budget of {marks - 1}")
        assert message in error["message"]

    @pytest.mark.parametrize("element", ["[" * 500 + "]" * 500, '{"":' * 500 + "0" + "}" * 500],
                             ids=["lists", "objects"])
    def test_nested_containers_without_commas_count_against_the_budget(self, element, tmp_path, monkeypatch):
        # one-element containers hold no comma: a budget-sized file of them once parsed to 60M lists
        model = tmp_path / "nested.json"
        model.write_text("[" + ",".join([element] * 20) + "]", encoding="utf-8")
        monkeypatch.setattr(cli, "MAX_MODEL_MARKS", 5000)
        monkeypatch.setattr(json, "loads", lambda text: pytest.fail("parsed past the budget"))
        out = tmp_path / "out"
        assert cli_exit(["decompose", "--model", str(model), "--output", str(out)]) == 2
        monkeypatch.undo()
        error = json.loads((out / "error.json").read_text())
        assert error["error"] == "ValidationError"
        assert "commas, colons and opening brackets in model file" in error["message"]
        assert "budget of 5000" in error["message"]

    def test_value_mark_budget_admits_the_largest_dense_jump(self):
        # the points, weights and kernel of a jump model: n^2 + 2n values, n^2 + 3n + 14 value marks
        def marks(n):
            params = {"points": [0.0] * n, "weights": [1.0] * n, "kernel": [[0.5] * n] * n, "tStar": 0.5}
            return cli._value_marks(json.dumps({"schemaVersion": 1, "type": "jump", "parameters": params}).encode())

        assert [marks(n) for n in (1, 2, 5)] == [n * n + 3 * n + 14 for n in (1, 2, 5)]
        n = models._MAX_DENSE_STATES
        assert n * n + 3 * n + 14 + 100 < models.MAX_MODEL_MARKS

    def test_vector_file_past_the_model_rows_is_refused_before_parsing(self, model_files, tmp_path):
        vector = tmp_path / "long.csv"
        vector.write_bytes(b"index,x,m,value\n" + b"".join(b"%d,0,1,1\n" % i for i in range(4)))
        out = tmp_path / "out"
        assert cli_exit(["invert", "--model", model_files["chain2"], "--output", str(out),
                         "--T", "1", "--g", f"csv:{vector}"]) == 2
        error = json.loads((out / "error.json").read_text())
        assert error["error"] == "ValidationError"
        assert "15 commas, colons and opening brackets in vector file" in error["message"] and "budget of 12" in error["message"]

    @pytest.mark.parametrize("text", [" " * 2**20, "index,x,m,value\n" + "\r" * 2**20, "a" * 2**20],
                             ids=["spaces", "cr", "header"])
    def test_vector_reader_holds_its_lines_at_the_size_of_the_text(self, text):
        # an io.StringIO copy took 4 bytes a character: 16 MiB of spaces or CR peaked at 127 MB
        tracemalloc.start()
        try:
            with pytest.raises(sg.SemigroupInvError) as exc:
                vector_from_csv(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * len(text)
        assert len(str(exc.value)) < 300

    @pytest.mark.parametrize(
        "spec, vector",
        [
            ({"type": "ou", "parameters": {"n": 3}}, b"a" * 2**20),
            ({"type": "ou", "parameters": {"n": 3}}, b"index,x,m,value\n0," + b"a" * 2**20 + b"\n"),
            ({"type": "ou", "parameters": {"n": 3, "halfWidth": "a" * 2**20}}, None),
            ({"type": "diffusion", "parameters": {"left": 0, "right": 1, "n": 3, "boundaryLeft": "a" * 2**20}}, None),
            ({"type": "a" * 2**20}, None),
            ({"schemaVersion": "a" * 2**20}, None),
        ],
        ids=["vector-header", "vector-row", "model-number", "model-boundary", "model-type", "schema-version"],
    )
    def test_oversized_input_is_quoted_in_an_error_json_under_1_kb(self, tmp_path, spec, vector):
        # each once copied its whole input into the message: a 16 MB error.json, printed to stderr too
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"schemaVersion": 1, **spec}), encoding="utf-8")
        g = "x"
        if vector is not None:
            (tmp_path / "g.csv").write_bytes(vector)
            g = f"csv:{tmp_path / 'g.csv'}"
        out = tmp_path / "out"
        assert cli_exit(["invert", "--model", str(model), "--output", str(out), "--T", "1", "--g", g]) == 2
        assert (out / "error.json").stat().st_size < 1024
        assert re.search(r"a{100,}\.\.\. \(\d{7} more characters\)", strict_json(out / "error.json")["message"])

    def test_integer_past_the_digit_limit_exits_2(self, tmp_path):
        # json.loads raises a plain ValueError, not a JSONDecodeError, for an int of over 4300 digits
        model = tmp_path / "model.json"
        model.write_text('{"schemaVersion": 1, "type": "ou", "parameters": {"n": ' + "9" * 5000 + "}}", encoding="utf-8")
        out = tmp_path / "out"
        assert cli_exit(["decompose", "--model", str(model), "--output", str(out)]) == 2
        error = json.loads((out / "error.json").read_text())
        assert error["error"] == "InvalidConfig"
        assert error["message"] == f"model file {model} holds an integer past the limit of {sys.get_int_max_str_digits()} digits"

    def test_vector_file_of_blank_lines_is_refused_before_parsing(self, model_files, tmp_path, monkeypatch):
        # 16 MiB of LF once passed both budgets and peaked at 112 MB in vector_from_csv's StringIO
        model = tmp_path / "ou3.json"
        model.write_text(json.dumps({"schemaVersion": 1, "type": "ou", "parameters": {"n": 3}}), encoding="utf-8")
        vector = tmp_path / "blank.csv"
        vector.write_bytes(b"\n" * 100_000)
        monkeypatch.setattr(cli, "vector_from_csv", lambda text: pytest.fail("parsed past the budget"))
        out = tmp_path / "out"
        assert cli_exit(["invert", "--model", str(model), "--output", str(out), "--T", "1", "--g", f"csv:{vector}"]) == 2
        error = json.loads((out / "error.json").read_text())
        assert error["error"] == "ValidationError"
        assert error["message"] == f"100000 lines in vector file {vector} exceed the budget of 8"

    def test_line_budget_admits_a_written_vector_with_as_many_blank_lines(self, model_files, tmp_path):
        first = tmp_path / "first"
        assert cli_exit(["invert", "--model", model_files["chain2"], "--output", str(first),
                         "--T", "1", "--g", "random(2)"]) == 0
        written = (first / "solution.csv").read_bytes()
        assert written.count(b"\n") == 3
        for blank, code in ((3, 0), (4, 2)):
            vector = tmp_path / f"blank{blank}.csv"
            vector.write_bytes(written + b"\n" * blank)
            argv = ["invert", "--model", model_files["chain2"], "--output", str(tmp_path / str(blank)),
                    "--T", "1", "--g", f"csv:{vector}"]
            assert cli_exit(argv) == code

    def test_deeply_nested_model_exits_2(self, tmp_path):
        model = tmp_path / "deep.json"
        model.write_text("[" * 100_000, encoding="utf-8")
        out = tmp_path / "out"
        assert cli_exit(["decompose", "--model", str(model), "--output", str(out)]) == 2
        error = json.loads((out / "error.json").read_text())
        assert error["error"] == "InvalidConfig"
        assert "is not valid JSON" in error["message"]

    def test_budget_admits_the_largest_dense_chain(self):
        # json.dumps of the longest double and its separator, for every matrix and weight entry;
        # brackets and keys add under 10 kB
        entry = len(json.dumps([-2.2250738585072014e-308, 0.0])) - len(json.dumps([0.0]))
        n = models._MAX_DENSE_STATES
        assert n * (n + 1) * entry + 10_000 < cli._MAX_INPUT_BYTES


class TestConsoleEntry:
    def test_subprocess_invocation(self, model_files, tmp_path):
        out = tmp_path / "out_sub"
        proc = subprocess.run(
            [sys.executable, "-m", "semigroupinv.cli", "check",
             "--model", model_files["chain2"], "--output", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "summary.json").exists()

    def test_subprocess_numerical_failure_code(self, model_files, tmp_path):
        out = tmp_path / "out_sub3"
        proc = subprocess.run(
            [sys.executable, "-m", "semigroupinv.cli", "invert",
             "--model", model_files["laplacian"], "--T", "1", "--g", "random(7)",
             "--output", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 3
        assert "OverflowRisk" in proc.stderr


class TestUnwritableOutput:
    """An output the CLI cannot write exits 2 with one ``error:`` line naming the path, never a traceback."""

    @pytest.mark.parametrize("below", [False, True], ids=["output-is-a-file", "output-under-a-file"])
    def test_output_that_cannot_be_a_directory_exits_2(self, model_files, tmp_path, capsys, below):
        blocker = tmp_path / "F"
        blocker.write_text("a file", encoding="utf-8")
        out = blocker / "x" if below else blocker
        assert cli_exit(["check", "--model", model_files["chain2"], "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: InvalidConfig: cannot create output directory {out}: " + (
            "Not a directory\n" if below else "File exists\n")
        assert blocker.read_text(encoding="utf-8") == "a file"

    def test_artifact_taken_by_a_directory_exits_2_with_error_json(self, model_files, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "summary.json").mkdir(parents=True)
        assert cli_exit(["decompose", "--model", model_files["chain2"], "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: InvalidConfig: cannot write {out / 'summary.json'}: Is a directory\n"
        error = json.loads((out / "error.json").read_text())
        assert error["error"] == "InvalidConfig" and error["operation"] == "decompose"
        assert str(out / "summary.json") in error["message"]

    def test_error_json_taken_by_a_directory_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "error.json").mkdir(parents=True)
        assert cli_exit(["decompose", "--model", str(tmp_path / "missing.json"), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidConfig: cannot read model file") and err.count("\n") == 1
        assert err.endswith(f"; cannot write {out / 'error.json'}: Is a directory\n")

    def test_trajectory_cut_short_leaves_no_partial_file(self, model_files, tmp_path, capsys, monkeypatch):
        sizes = []

        class FullDisk(io.FileIO):
            """A file whose disk fills after the header and the first chunk."""

            def write(self, data):
                sizes.append(len(data))
                if len(sizes) > 2:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return super().write(data)

        monkeypatch.setattr(artifacts, "open", lambda path, mode: FullDisk(path, "w"), raising=False)
        out = tmp_path / "out"
        argv = ["pde", "--model", model_files["ou"], "--T", "0.05", "--g", "x^2", "--steps", "100"]
        assert cli_exit(argv + ["--output", str(out)]) == 2
        assert len(sizes) == 3 and sizes[1] > 0  # 101 x 400 cells: the second chunk failed
        err = capsys.readouterr().err
        assert err == f"error: InvalidConfig: cannot write {out / 'trajectory.csv'}: {os.strerror(errno.ENOSPC)}\n"
        assert not (out / "trajectory.csv").exists()
        assert json.loads((out / "error.json").read_text())["operation"] == "pde"
        assert not (out / "summary.json").exists()


class TestBudgets:
    """Requests past the state and trajectory budgets exit 2 before allocating."""

    def test_trajectory_budget_exits_2(self, model_files, tmp_path):
        # energetic lambda_max ~ 2234 over T = 0.002 needs 27272 steps: 10.9M cells at n = 400
        out = tmp_path / "out"
        argv = ["pde", "--model", model_files["ou"], "--output", str(out), "--T", "0.002", "--g", "random(5)"]
        assert cli_exit(argv) == 2
        error = json.loads((out / "error.json").read_text())
        assert error["error"] == "ValidationError"
        assert "27273 times x 400 states" in error["message"] and "--steps N" in error["message"]
        assert not (out / "trajectory.csv").exists()

    @pytest.mark.parametrize("count", [cli._MAX_GAMMAS, cli._MAX_GAMMAS + 1], ids=["at-budget", "past-budget"])
    def test_gammas_budget(self, model_files, tmp_path, count):
        # each value is a regularised solve and a residual: a long --gammas list is refused before any runs
        out = tmp_path / "out"
        gammas = ",".join(f"{0.5 ** (1 + i % 40):.17g}" for i in range(count))
        argv = ["sweep", "--model", model_files["chain2"], "--output", str(out), "--T", "1", "--g", "x",
                "--gammas", gammas]
        if count <= cli._MAX_GAMMAS:
            assert cli_exit(argv) == 0
            assert len(json.loads((out / "summary.json").read_text())["gammas"]) == count
            return
        assert cli_exit(argv) == 2
        error = json.loads((out / "error.json").read_text())
        assert error["error"] == "ValidationError"
        assert error["message"] == f"{count} --gammas values exceed the budget of {cli._MAX_GAMMAS}"
        assert not (out / "sweep.csv").exists()

    def test_time_step_cap_exits_2(self, model_files, tmp_path):
        # the same lambda_max over T = 0.25 needs 3408884 steps (3408885 times), past the 2M-time cap
        out = tmp_path / "out"
        argv = ["pde", "--model", model_files["ou"], "--output", str(out), "--T", "0.25", "--g", "x^2"]
        assert cli_exit(argv) == 2
        error = json.loads((out / "error.json").read_text())
        assert error["error"] == "ValidationError"
        assert error["message"].startswith("3408885 grid times (lambda_max ")
        assert error["message"].endswith(
            " on [0, 0.25]) exceed the budget of 2000000; --steps N sets a uniform grid of N steps instead")
        assert not (out / "trajectory.csv").exists()

    @pytest.mark.parametrize("steps, message", [
        ("0", "--steps must be finite and >= 1, got 0"),
        ("20000", "8000400 trajectory cells (--steps 20000: 20001 times x 400 states) exceed the budget of 4000000"),
        ("10" * 20, "trajectory cells (--steps 1010"),
    ])
    def test_bad_or_oversized_steps_exit_2(self, model_files, tmp_path, steps, message):
        out = tmp_path / "out"
        argv = ["pde", "--model", model_files["ou"], "--output", str(out), "--T", "1", "--g", "x^2", "--steps", steps]
        assert cli_exit(argv) == 2
        error = json.loads((out / "error.json").read_text())
        assert error["error"] == "ValidationError" and message in error["message"]

    @pytest.mark.parametrize("kind", ["ou", "diffusion"])
    def test_state_budget_exits_2(self, tmp_path, monkeypatch, kind):
        from semigroupinv import cli

        monkeypatch.setattr(models, f"build_{kind}", lambda *a: pytest.fail("model was built"))
        spec = json.loads(json.dumps(OU_JSON if kind == "ou" else LAPLACIAN_JSON))
        spec["parameters"]["n"] = models._MAX_STATES + 1
        model = tmp_path / "big.json"
        model.write_text(json.dumps(spec), encoding="utf-8")
        out = tmp_path / "out"
        assert cli_exit(["decompose", "--model", str(model), "--output", str(out)]) == 2
        error = json.loads((out / "error.json").read_text())
        assert error["error"] == "InvalidConfig"
        assert f"{models._MAX_STATES + 1} states exceed" in error["message"]

    @pytest.mark.parametrize(
        "kind, long_key, builder",
        [("jump", "points", "gaussian_jump_kernel"), ("jump", "weights", "gaussian_jump_kernel"),
         ("chain", "weights", "build_chain")],
    )
    def test_state_budget_covers_every_model_type(self, tmp_path, monkeypatch, kind, long_key, builder):
        monkeypatch.setattr(models, builder, lambda *a: pytest.fail("an n x n array was built"))
        n = models._MAX_DENSE_STATES + 1
        params = {"points": [0.0, 1.0], "weights": [0.5, 0.5]}
        if kind == "chain":
            params = {"matrix": [[-0.5, 0.5], [0.5, -0.5]], "weights": [0.5, 0.5]}
        params[long_key] = [0.5 + k for k in range(n)]
        model = tmp_path / "big.json"
        model.write_text(json.dumps({"schemaVersion": 1, "type": kind, "parameters": params}), encoding="utf-8")
        out = tmp_path / "out"
        assert cli_exit(["decompose", "--model", str(model), "--output", str(out)]) == 2
        error = json.loads((out / "error.json").read_text())
        assert error["error"] == "InvalidConfig"
        assert f"'{long_key}': {n} states exceed the dense-model budget of 2000" in error["message"]

    def test_expression_budget_refuses_g_before_parsing(self, model_files, tmp_path, monkeypatch):
        monkeypatch.setattr(models._Parser, "_expr", lambda self: pytest.fail("parsed past the budget"))
        out = tmp_path / "out"
        g = "x+" * (models._MAX_EXPRESSION_CHARS // 2) + "x"
        assert cli_exit(["diagnose", "--model", model_files["chain2"], "--output", str(out), "--T", "1", "--g", g]) == 2
        error = json.loads((out / "error.json").read_text())
        assert error["error"] == "ValidationError"
        assert error["message"] == f"{models._MAX_EXPRESSION_CHARS + 1} characters in --g exceed the budget of 65536"

    @pytest.mark.parametrize("key", ["sigma", "kill"])
    def test_expression_budget_names_the_model_field(self, tmp_path, key):
        expr = "1+" * (models._MAX_EXPRESSION_CHARS // 2) + "1"
        params = {"left": 0.0, "right": 1.0, "n": 8, key: expr}
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"schemaVersion": 1, "type": "diffusion", "parameters": params}), encoding="utf-8")
        out = tmp_path / "out"
        assert cli_exit(["decompose", "--model", str(model), "--output", str(out)]) == 2
        error = json.loads((out / "error.json").read_text())
        assert error["error"] == "ValidationError"
        assert error["message"] == f"65537 characters in model parameter '{key}' exceed the budget of 65536"

    def test_expression_of_the_budget_is_parsed(self):
        space = sg.build_space([0.0, 1.0], [1.0, 1.0])
        expr = "x+" * (models._MAX_EXPRESSION_CHARS // 2 - 1) + "x "
        assert len(expr) == models._MAX_EXPRESSION_CHARS
        assert parse_function_literal(expr, space).tolist() == [0.0, models._MAX_EXPRESSION_CHARS // 2]

    def test_dense_model_budget_admits_2000_states_and_refuses_2001(self):
        assert models._MAX_DENSE_STATES == 2000
        params = {"weights": [1.0] * 2000}
        assert check_param(params, "weights", models._state_array).shape == (2000,)
        params["weights"].append(1.0)
        with pytest.raises(sg.InvalidConfig, match="^model parameter 'weights': 2001 states exceed the "
                                                   "dense-model budget of 2000$"):
            check_param(params, "weights", models._state_array)


class TestNonFiniteAndDeepInputs:
    """Inputs that once ended in NaN artifacts or a traceback exit 2 or 3."""

    @pytest.mark.parametrize(
        "spec, code, error_name",
        [
            ({"type": "chain", "parameters": {"matrix": [[math.nan, 0.0], [0.0, 0.0]], "weights": [1.0, 1.0]}},
             2, "ValidationError"),
            ({"type": "chain", "parameters": {"matrix": [[-1e308, 1e308], [1e308, -1e308]], "weights": [1.0, 1.0]}},
             3, "OverflowRisk"),
            ({"type": "chain", "parameters": {"matrix": [[-1e300, 1e300], [1e300, -1e300]], "weights": [1e10, 1e10]}},
             3, "OverflowRisk"),
            ({"type": "diffusion", "parameters": {"left": 0.0, "right": 1.0, "n": 8, "sigma": "1e-5", "kill": "1e300",
                                                  "boundaryLeft": "dirichlet", "boundaryRight": "dirichlet"}},
             3, "OverflowRisk"),
            ({"type": "diffusion", "parameters": {"left": 0.0, "right": 1e-310, "n": 5}}, 2, "ValidationError"),
            ({"type": "jump", "parameters": {"points": [0.0, 1.0], "weights": [0.5, 0.5], "tStar": math.nan}},
             2, "InvalidBoundary"),
            ({"type": "ou", "parameters": {"halfWidth": math.nan, "n": 8}}, 2, "InvalidBoundary"),
            ({"type": "diffusion", "parameters": {"left": 0.0, "right": 1.0, "n": 5, "kill": "x - 0.5"}},
             2, "ValidationError"),
            ({"type": "jump", "parameters": {"points": [0.0, math.nan], "weights": [0.5, 0.5]}}, 2, "ValidationError"),
            ({"type": "jump", "parameters": {"points": [1.0, 0.0], "weights": [0.5, 0.5]}}, 2, "ValidationError"),
            ({"type": "ou", "parameters": {"halfWidth": 1e308, "n": 3}}, 2, "ValidationError"),
            ({"type": "ou", "parameters": {"halfWidth": 1e-310, "n": 3}}, 2, "ValidationError"),
            ({"type": "diffusion", "parameters": {"left": -math.inf, "right": 0.0, "n": 3}}, 2, "ValidationError"),
            ({"type": "jump", "parameters": {"points": [0.0, 1.0], "weights": [0.5, 0.5],
                                             "kernel": [[math.inf, 0.0], [0.0, 0.0]]}}, 2, "AsymmetricKernel"),
            ({"type": "ou", "parameters": {"halfWidth": 2.76e-198, "n": 3}}, 2, "ValidationError"),
            ({"type": "jump", "parameters": {"points": [0.0, 1.0], "weights": [2.0, 1.0],
                                             "kernel": [[1e308, 0.0], [0.0, 0.0]]}}, 2, "RowMassExceeded"),
        ],
        ids=["chain-nan", "chain-symmetrised-overflow", "chain-weighted-overflow", "diffusion-weighted-diagonal-overflow",
             "diffusion-subnormal-interval",
             "jump-tstar-nan", "ou-half-width-nan", "diffusion-negative-kill", "jump-points-nan", "jump-points-decreasing",
             "ou-spacing-overflow", "ou-spacing-subnormal", "diffusion-left-inf", "jump-kernel-inf",
             "ou-rates-overflow", "jump-row-mass-overflow"],
    )
    @pytest.mark.parametrize("command", [["decompose"], ["diagnose", "--T", "1", "--g", "x"]])
    def test_non_finite_model_is_refused(self, tmp_path, spec, code, error_name, command):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"schemaVersion": 1, **spec}), encoding="utf-8")
        out = tmp_path / "out"
        assert cli_exit(command + ["--model", str(model), "--output", str(out)]) == code
        assert json.loads((out / "error.json").read_text())["error"] == error_name
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize(
        "spec, g",
        [
            ({"type": "chain", "parameters": {"matrix": [[-1.0, 1.0], [0.5, -0.5]], "weights": [1.0, 2.0]}}, "1e308"),
            # weights 1e299 at x ~ 1e10, whose rates 4e-299 are still normal doubles
            ({"type": "diffusion", "parameters": {"left": 1e10, "right": 1e10 + 3.0, "n": 3, "sigma": "4.5e-150",
                                                  "boundaryLeft": "dirichlet", "boundaryRight": "dirichlet"}}, "x"),
        ],
        ids=["chain-weighted-g-overflow", "diffusion-weighted-g-overflow"],
    )
    @pytest.mark.parametrize("command", ["diagnose", "invert", "pde"])
    def test_observed_data_past_double_range_exits_2(self, tmp_path, spec, g, command):
        # m_i g_i overflows: the coefficients would be inf or NaN, and diagnose once graded them "ok"
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"schemaVersion": 1, **spec}), encoding="utf-8")
        out = tmp_path / "out"
        assert cli_exit([command, "--model", str(model), "--output", str(out), "--T", "1", "--g", g]) == 2
        error = json.loads((out / "error.json").read_text())
        assert error["error"] == "ValidationError"
        assert "observed data g leaves the double range" in error["message"]
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize(
        "spec, points",
        [
            # h = 3.3e307: every rate ~ (1/h) / (2h) is about 1e-615, and the generator was all zero
            ({"type": "diffusion", "parameters": {"left": -1e308, "right": 0.0, "n": 3, "boundaryLeft": "dirichlet",
                                                  "boundaryRight": "dirichlet"}}, "-8.333333333333334e+307 and -5e+307"),
            # h = 1e154: the weights are fine, but one band of the edge below 0 underflows
            ({"type": "ou", "parameters": {"halfWidth": 1.5e154, "n": 3, "rate": 7e-306}},
             "-1.0000000000000002e+154 and 0.0"),
        ],
        ids=["diffusion", "ou"],
    )
    @pytest.mark.parametrize("command", ["diagnose", "pde"])
    def test_grid_whose_rates_underflow_is_refused(self, tmp_path, spec, points, command):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"schemaVersion": 1, **spec}), encoding="utf-8")
        out = tmp_path / "out"
        assert cli_exit([command, "--model", str(model), "--output", str(out), "--T", "1", "--g", "1"]) == 2
        error = json.loads((out / "error.json").read_text())
        assert error["error"] == "ValidationError"
        assert f"the rate between grid points x = {points} underflows to 0" in error["message"]
        assert not (out / "summary.json").exists()

    def test_deep_expression_exits_2(self, model_files, tmp_path):
        from semigroupinv import cli

        out = tmp_path / "out"
        g = "(" * 3000 + "x" + ")" * 3000
        assert cli_exit(["diagnose", "--model", model_files["chain2"], "--output", str(out),
                         "--T", "1", "--g", g]) == 2
        error = json.loads((out / "error.json").read_text())
        assert error["error"] == "ExpressionParseError"
        assert error["position"] == models._MAX_EXPRESSION_DEPTH
        space = sg.build_space([0.0, 1.0], [1.0, 1.0])
        deep = "exp(" + "(" * 89 + "-x" + ")" * 90
        assert parse_function_literal(deep, space) == pytest.approx([1.0, math.exp(-1.0)])

    def test_deep_diffusion_sigma_exits_2(self, tmp_path):
        spec = {"schemaVersion": 1, "type": "diffusion",
                "parameters": {"left": 0.0, "right": 1.0, "n": 8, "sigma": "(" * 3000 + "1" + ")" * 3000}}
        model = tmp_path / "model.json"
        model.write_text(json.dumps(spec), encoding="utf-8")
        out = tmp_path / "out"
        assert cli_exit(["decompose", "--model", str(model), "--output", str(out)]) == 2
        assert json.loads((out / "error.json").read_text())["error"] == "ExpressionParseError"

    @pytest.mark.parametrize("g", ["x^2e2", "x^09e2", "random(3e)", "1e200^2"])
    def test_bad_power_or_seed_exits_2(self, model_files, tmp_path, g):
        out = tmp_path / "out"
        assert cli_exit(["diagnose", "--model", model_files["chain2"], "--output", str(out),
                         "--T", "1", "--g", g]) == 2
        assert json.loads((out / "error.json").read_text())["error"] == "ExpressionParseError"

    @pytest.mark.parametrize("expr, position, message", [
        ("indicator(1e, 2)", 10, "bad number '1e'"),
        ("indicator(., 1)", 10, "bad number '.'"),
        ("x^" + "9" * 5000, 2, "exponent must be a non-negative integer of at most 4300 digits"),
        ("random(" + "7" * 5000 + ")", 7, "random() needs an integer seed of at most 4300 digits"),
    ], ids=["indicator-1e", "indicator-point", "power-of-5000-digits", "seed-of-5000-digits"])
    @pytest.mark.parametrize("where", ["g", "sigma"])
    def test_malformed_literal_exits_2_with_its_position(self, model_files, tmp_path, expr, position, message, where):
        # each ended in a ValueError traceback, exit 1
        model = model_files["chain2"]
        if where == "sigma":
            model = tmp_path / "model.json"
            params = {"left": 0.0, "right": 1.0, "n": 8, "sigma": expr}
            model.write_text(json.dumps({"schemaVersion": 1, "type": "diffusion", "parameters": params}), encoding="utf-8")
        out = tmp_path / "out"
        g = expr if where == "g" else "x"
        assert cli_exit(["diagnose", "--model", str(model), "--output", str(out), "--T", "1", "--g", g]) == 2
        error = json.loads((out / "error.json").read_text())
        assert error["error"] == "ExpressionParseError"
        assert error["position"] == position
        assert error["message"] == f"{message} (at position {position})"

    @pytest.mark.parametrize("gamma", [[], ["--gamma", "0.2"]], ids=["spectral", "mixed"])
    def test_infinite_horizon_of_a_uniform_pde_grid_exits_2(self, model_files, tmp_path, gamma):
        # the grid of --steps was built before T was checked, with a RuntimeWarning from linspace
        out = tmp_path / "out"
        assert cli_exit(["pde", "--model", model_files["chain2"], "--output", str(out),
                         "--T", "inf", "--g", "x", "--steps", "1", *gamma]) == 2
        error = json.loads((out / "error.json").read_text())
        assert error["error"] == "ValidationError"
        assert error["message"] == "horizon must be finite and > 0, got inf"

    @pytest.mark.parametrize("horizon", ["inf", "1.7976931348623157e308"])
    def test_infinite_or_huge_horizon_exits_2(self, model_files, tmp_path, horizon):
        out = tmp_path / "out"
        assert cli_exit(["diagnose", "--model", model_files["chain2"], "--output", str(out),
                         "--T", horizon, "--g", "1+x"]) == 2
        assert json.loads((out / "error.json").read_text())["error"] == "ValidationError"


class TestFlagTable:
    """Flags are converted in one place: a bad value exits 2 with error.json naming it."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["invert", "--T", "abc", "--g", "x"], "'T'"),
            (["invert", "--T", "1", "--g", "x", "--method", "foo"], "'method'"),
            (["regularise", "--T", "1", "--g", "x", "--gamma", "0.1", "--phi", "foo"], "'phi'"),
            (["check", "--seed", "1.5"], "'seed'"),
            (["check", "--seed=-1"], "'seed'"),
        ],
        ids=["T-abc", "method-foo", "phi-foo", "seed-1.5", "seed-negative"],
    )
    def test_bad_flag_value_exits_2(self, model_files, tmp_path, argv, flag):
        out = tmp_path / "out"
        assert cli_exit(argv + ["--model", model_files["chain2"], "--output", str(out)]) == 2
        error = json.loads((out / "error.json").read_text())
        assert error["error"] == "InvalidConfig"
        assert f"flag {flag}" in error["message"]
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize(
        "command, params",
        [("regularise", {"T": 1.0, "g": "random(2)", "gamma": 0.1}),
         ("mixture", {"T": 1.0, "g": "random(2)", "gamma": 0.1})],
    )
    def test_run_config_takes_the_cli_defaults(self, model_files, tmp_path, command, params):
        programmatic, argv_out = tmp_path / "programmatic", tmp_path / "argv"
        assert run(RunConfig(command, model_files["chain2"], programmatic, params)) == 0
        argv = [command, "--model", model_files["chain2"], "--output", str(argv_out)]
        assert cli_exit(argv + [f"--{k}={v}" for k, v in params.items()]) == 0
        names = sorted(p.name for p in programmatic.iterdir())
        assert names == sorted(p.name for p in argv_out.iterdir())
        for name in names:
            assert (programmatic / name).read_bytes() == (argv_out / name).read_bytes()

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_help_lists_every_flag(self, command, capsys):
        assert cli_exit([command, "--help"]) == 0
        text = capsys.readouterr().out
        _, _, required, optional = cli._COMMANDS[command]
        for flag in ("model", "output") + required + optional:
            assert re.search(r"--%s\b" % flag.replace("_", "-"), text)


def _parse_outcome(parse, argv, capsys):
    """What ``parse(argv)`` gives, its arguments as a dict or its exit code, then stdout and stderr."""
    try:
        result = vars(parse(argv))
    except SystemExit as exc:
        result = exc.code
    return (result, *capsys.readouterr())


class TestOneCommandParser:
    """``main`` parses with one parser per process, with every output of a freshly built one."""

    CASES = [["--help"], ["--version"], [], ["bogus"], ["decompose"], ["invert", "--model", "m.json", "--T", "1"]]
    CASES += [[command, "--help"] for command in sorted(cli._COMMANDS)]

    @pytest.mark.parametrize("argv", CASES, ids=lambda argv: " ".join(argv) or "no-command")
    def test_same_output_as_the_full_parser(self, argv, capsys):
        full = _parse_outcome(cli._build_arg_parser.__wrapped__().parse_args, argv, capsys)
        assert _parse_outcome(main, argv, capsys) == full
        assert full[0] in (0, 2) and full[1] + full[2]

    VALID = [
        ["invert", "--model", "m.json", "--T", "1", "--g", "x^2", "--method", "bessel"],
        ["regularise", "--model=m.json", "--T", "-0.5", "--g", "x", "--gamma", "0.1", "--tau", "2"],
        ["sweep", "--mod", "m.json", "--T", "1", "--g", "x", "--output", "o", "--T", "2"],
        ["check", "--model", "m.json", "--seed", "3"],
    ]

    def test_main_builds_one_parser_that_parses_as_a_fresh_one(self, monkeypatch, tmp_path, capsys):
        monkeypatch.chdir(tmp_path)  # the VALID argvs run, and write error.json for the missing m.json
        built = []
        init = argparse.ArgumentParser.__init__

        def counted_init(parser, *args, **kwargs):
            built.append(parser)
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
        cli._build_arg_parser.cache_clear()
        for argv in self.CASES + self.VALID:
            with pytest.raises(SystemExit):
                main(argv)
            assert len(built) == 1 + len(cli._COMMANDS), argv  # the parser and its subparsers, once
        monkeypatch.undo()
        capsys.readouterr()
        used = cli._build_arg_parser()
        for argv in self.CASES + self.VALID:
            fresh = _parse_outcome(cli._build_arg_parser.__wrapped__().parse_args, argv, capsys)
            assert _parse_outcome(used.parse_args, argv, capsys) == fresh, argv
        assert cli._build_arg_parser() is used


class TestNonFiniteFlags:
    """Non-finite or out-of-range values that once gave NaN artifacts or a traceback."""

    @pytest.mark.parametrize(
        "argv, code, error_name",
        [
            (["mixture", "--T", "nan", "--g", "x", "--gamma", "0.1"], 2, "ValidationError"),
            (["mixture", "--T", "inf", "--g", "x", "--gamma", "0.1"], 2, "ValidationError"),
            (["regularise", "--T", "inf", "--g", "x", "--gamma", "0.1", "--phi", "constant"], 2, "ValidationError"),
            (["pde", "--T", "1", "--g", "x", "--gamma", "0.1", "--tstar", "inf"], 2, "ValidationError"),
            (["pde", "--T", "nan", "--g", "x", "--gamma", "0.5"], 2, "ValidationError"),
            (["invert", "--T", "1", "--g", "x", "--coeff-tol", "nan"], 2, "ValidationError"),
            (["invert", "--T", "1", "--g", "x", "--coeff-tol", "-1"], 2, "ValidationError"),
            (["pde", "--T", "1", "--g", "x", "--coeff-tol", "nan"], 2, "ValidationError"),
            (["regularise", "--T", "1", "--g", "exp(1000)", "--gamma", "0.1"], 2, "ValidationError"),
            (["mixture", "--T", "1", "--g", "exp(1000)", "--gamma", "0.1"], 2, "ValidationError"),
            (["pde", "--T", "1", "--g", "exp(1000)", "--gamma", "0.1"], 2, "ValidationError"),
            (["diagnose", "--T", "1", "--g", "x", "--alpha", "nan"], 2, "NonPositiveAlpha"),
            (["mixture", "--T", "800", "--g", "x", "--gamma", "0.1"], 3, "OverflowRisk"),
            (["mixture", "--T", "700", "--g", "x", "--gamma", "0.1"], 3, "OverflowRisk"),
            (["mixture", "--T", "1", "--g", "x", "--gamma", "1e-320"], 3, "OverflowRisk"),
        ],
        ids=["mixture-T-nan", "mixture-T-inf", "regularise-T-inf", "pde-mixed-tstar-inf", "pde-mixed-T-nan", "invert-coeff-tol-nan",
             "invert-coeff-tol-negative", "pde-coeff-tol-nan", "regularise-g-inf", "mixture-g-inf",
             "pde-mixed-g-inf", "diagnose-alpha-nan", "mixture-T-800", "mixture-T-700",
             "mixture-gamma-subnormal"],
    )
    def test_exits_2_or_3(self, model_files, tmp_path, argv, code, error_name):
        out = tmp_path / "out"
        assert cli_exit(argv + ["--model", model_files["chain2"], "--output", str(out)]) == code
        assert json.loads((out / "error.json").read_text())["error"] == error_name
        assert not (out / "summary.json").exists()

    def test_mixture_below_the_overflow_guard_exits_0(self, model_files, tmp_path):
        out = tmp_path / "out"
        argv = ["mixture", "--T", "690", "--g", "x", "--gamma", "0.5",
                "--model", model_files["chain2"], "--output", str(out)]
        assert cli_exit(argv) == 0
        assert json.loads((out / "summary.json").read_text())["inverseNormBound"] < math.inf


class TestPdeSteps:
    """``pde --steps N`` lays a uniform grid where the default one is past the step cap."""

    KILLED200 = {"schemaVersion": 1, "type": "diffusion",
                 "parameters": {"left": 0.0, "right": math.pi, "n": 200, "sigma": "1+0.5x", "kill": "0.2",
                                "boundaryLeft": "dirichlet", "boundaryRight": "dirichlet"}}

    def test_killed_diffusion_ends_at_the_spectral_inverse(self, tmp_path):
        # lambda_max 5.2e4 at T = 0.002: the default grid needs 3,099,203 steps
        model = tmp_path / "killed200.json"
        model.write_text(json.dumps(self.KILLED200), encoding="utf-8")
        argv = ["pde", "--model", str(model), "--T", "0.002", "--g", "random(5)"]
        assert cli_exit(argv + ["--output", str(tmp_path / "default")]) == 2
        out = tmp_path / "out"
        assert cli_exit(argv + ["--output", str(out), "--steps", "1000"]) == 0
        assert json.loads((out / "summary.json").read_text())["steps"] == 1000
        gen = load_model_file(model)
        dec = sg.spectral_decompose(gen)
        rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        assert rows.shape == (1001 * 200, 3)
        last = rows[-200:]
        assert np.all(last[:, 0] == 0.002) and np.array_equal(last[:, 1], np.arange(200))
        exact = sg.invert_spectral(sg.InverseProblem(dec, 0.002, parse_function_literal("random(5)", gen.space)))
        assert sg.norm(gen.space, last[:, 2] - exact) <= 1e-12 * sg.norm(gen.space, exact)


class TestPanelBudget:
    """J0 quarter periods past the budget fail before any quadrature runs; I0 windows need no budget."""

    def test_wide_i0_window_exits_0_and_matches_the_spectral_value(self, tmp_path):
        # lambda_max 1.3e8 at T = 1e-11: one panel layout shared by all modes would need 119,509 panels
        model = tmp_path / "ou16.json"
        model.write_text(json.dumps({"schemaVersion": 1, "type": "ou",
                                     "parameters": {"halfWidth": 1e-3, "n": 16, "rate": 1.0}}), encoding="utf-8")
        out = tmp_path / "out"
        assert cli_exit(["diagnose", "--model", str(model), "--output", str(out),
                         "--T", "1e-11", "--g", "random(1)"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["lambdaMax"] > 1e8
        spectral = 10.0 ** report["membershipSpectralLog10"]
        assert abs(report["membershipQuadrature"] - spectral) <= 1e-12 * spectral

    def test_j0_quarter_periods_past_the_budget_raise(self, chain2, monkeypatch):
        # at t = 1e10 the J0 kernel needs 640,788 quarter periods on [0, 25.3]
        from semigroupinv import bessel

        monkeypatch.setattr(bessel, "bochner_quadrature", lambda *a, **k: pytest.fail("quadrature ran"))
        budget = f"J0 quarter periods exceed the budget of {bessel._MAX_PANELS}"
        with pytest.raises(sg.ValidationError, match=f"640788 {budget}"):
            bessel.j0_decay_edges(1.0, 1.0, 1e-11, 1e10, 0.5)
        _, dec = chain2
        with pytest.raises(sg.ValidationError, match=budget):
            sg.resolvent_flow_quadrature(dec, 1.0, 1e8, [1.0, 0.0])
        with pytest.raises(sg.ValidationError, match=budget):
            sg.squared_bessel_h_quadrature(dec, [1.0, 0.0], 1.0, 0.0, 1e8)
        # alpha = 1e-300 puts the end of the exp(-alpha s) tail at s = inf
        with pytest.raises(sg.ValidationError, match="finite"):
            sg.resolvent_flow_quadrature(dec, 1e-300, 0.0, [1.0, 0.0])


def strict_json(path):
    """The JSON artifact at ``path``, parsed without Python's Infinity/NaN extension."""
    def refuse(constant):
        raise AssertionError(f"{path.name} holds {constant}, which is not JSON")

    return json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse)


class TestStrictJsonArtifacts:
    """Results near the double range stay finite, and an infinite error magnitude stays in the message."""

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["mixture", "--T", "690", "--g", "x", "--gamma", "0.5"], "residual"),
            (["pde", "--T", "690", "--g", "x"], "finalNorm"),
            (["invert", "--T", "690", "--g", "x"], "roundTripRelativeResidual"),
            (["sweep", "--T", "690", "--g", "x"], "finalError"),
        ],
        ids=["mixture", "pde", "invert", "sweep"],
    )
    def test_norms_past_1e154_are_finite(self, model_files, tmp_path, argv, key):
        out = tmp_path / "out"
        assert cli_exit(argv + ["--model", model_files["chain2"], "--output", str(out)]) == 0
        summary = strict_json(out / "summary.json")
        assert 1e154 < summary[key] < math.inf
        if argv[0] == "sweep":
            assert "inf" not in (out / "sweep.csv").read_text()

    @pytest.mark.parametrize(
        "argv",
        [
            ["invert", "--T", "700", "--g", "1e300*x"],
            ["invert", "--method", "bessel", "--T", "20", "--g", "1e306*x"],
            ["regularise", "--T", "700", "--gamma", "1e-10", "--phi", "constant", "--value", "1e-300",
             "--g", "1e300*x"],
            ["sweep", "--T", "700", "--g", "1e300*x"],
            ["pde", "--T", "700", "--g", "1e300*x"],
            ["mixture", "--T", "600", "--gamma", "0.5", "--g", "1e300*x"],
        ],
        ids=["invert", "invert-bessel", "regularise", "sweep", "pde", "mixture"],
    )
    def test_values_past_double_range_exit_3(self, model_files, tmp_path, argv):
        # each multiplier is inside double range, but not its product with a coefficient near 1e300
        out = tmp_path / "out"
        assert cli_exit(argv + ["--model", model_files["chain2"], "--output", str(out)]) == 3
        assert strict_json(out / "error.json")["error"] == "OverflowRisk"
        assert not (out / "summary.json").exists() and not list(out.glob("*.csv"))

    def test_residual_past_double_range_exits_3(self, model_files, tmp_path):
        # tikhonov_exp's phi(1) = e^700 multiplies the rounding error of f's coefficients near 1e284
        out = tmp_path / "out"
        argv = ["regularise", "--T", "700", "--gamma", "0.1", "--g", "1e300*x"]
        assert cli_exit(argv + ["--model", model_files["chain2"], "--output", str(out)]) == 3
        error = strict_json(out / "error.json")
        assert error["message"] == "the residual of the regularised equation left double range"
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize(
        "argv, what",
        [
            (["regularise", "--T", "1", "--gamma", "1e-8"], "the norm of the solution"),
            (["pde", "--T", "1"], "the norm of the final state"),
            (["sweep", "--T", "1", "--phi", "constant", "--value", "1e300"], "the distance to the exact inverse"),
        ],
        ids=["regularise", "pde", "sweep"],
    )
    def test_norm_past_double_range_exits_3(self, model_files, tmp_path, argv, what):
        # the inverse of 9e307*x is [-7.7e307, 1.7e308]: finite entries, but a norm of 1.8e308 that once read Infinity
        out = tmp_path / "out"
        assert cli_exit(argv + ["--g", "9e307*x", "--model", model_files["chain2"], "--output", str(out)]) == 3
        assert strict_json(out / "error.json")["message"] == f"{what} left double range"
        assert not (out / "summary.json").exists() and not list(out.glob("*.csv"))

    def test_phi_past_double_range_exits_2(self, tmp_path):
        # tikhonov_exp at T = 700 on an ou with lambda_max 7.8 is exp(5460): refused, not a RuntimeWarning
        model = tmp_path / "ou6.json"
        model.write_text(json.dumps({"schemaVersion": 1, "type": "ou",
                                     "parameters": {"halfWidth": 1.5, "n": 6, "rate": 1.3}}), encoding="utf-8")
        out = tmp_path / "out"
        argv = ["regularise", "--T", "700", "--gamma", "0.1", "--g", "-1", "--model", str(model), "--output", str(out)]
        assert cli_exit(argv) == 2
        assert strict_json(out / "error.json")["message"] == "tikhonov_exp is not finite on the spectrum"

    def test_zero_data_writes_a_null_membership_log10(self, model_files, tmp_path):
        out = tmp_path / "out"
        argv = ["diagnose", "--T", "1", "--g", "0", "--model", model_files["chain2"], "--output", str(out)]
        assert cli_exit(argv) == 0
        for name in ("report.json", "summary.json"):
            assert strict_json(out / name)["membershipSpectralLog10"] is None

    @pytest.mark.parametrize(
        "argv",
        [["diagnose", "--T", "1", "--g", "1e200"], ["invert", "--T", "0.01", "--g", "1e300", "--method", "bessel"]],
        ids=["diagnose", "invert-bessel"],
    )
    def test_membership_quadrature_past_double_range_is_null(self, tmp_path, argv):
        model = tmp_path / "ou8.json"
        model.write_text(json.dumps({"schemaVersion": 1, "type": "ou",
                                     "parameters": {"halfWidth": 3, "n": 8, "rate": 1}}), encoding="utf-8")
        out = tmp_path / "out"
        assert cli_exit(argv + ["--model", str(model), "--output", str(out)]) == 0
        report = strict_json(out / "report.json")
        assert report["membershipQuadrature"] is None and report["membershipSpectralLog10"] > 308
        assert strict_json(out / "summary.json").get("membershipQuadrature", None) is None

    def test_infinite_log10_is_left_out_of_error_json(self, tmp_path):
        model = tmp_path / "ou8.json"
        model.write_text(json.dumps({"schemaVersion": 1, "type": "ou",
                                     "parameters": {"halfWidth": 3.0, "n": 8, "rate": 1.0}}), encoding="utf-8")
        out = tmp_path / "out"
        assert cli_exit(["pde", "--T", "1e308", "--g", "x^2", "--model", str(model), "--output", str(out)]) == 3
        error = strict_json(out / "error.json")
        assert error["error"] == "OverflowRisk" and "log10_value" not in error
        assert "log10 ~ inf" in error["message"]
