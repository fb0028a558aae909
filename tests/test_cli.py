"""CLI harness: expression grammar, model configs, artifacts, exit codes."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

import semigroupinv as sg
from semigroupinv.cli import RunConfig, build_model, load_model_file, main, parse_function_literal, run

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


class TestModelLoading:
    def test_chain_round_trip(self):
        gen = build_model(CHAIN2_JSON)
        assert gen.size == 2
        assert np.array_equal(gen.matrix, np.array([[-0.5, 0.5], [0.5, -0.5]]))

    def test_rejects_wrong_schema_version(self):
        with pytest.raises(sg.InvalidConfig):
            build_model({"schemaVersion": 2, "type": "chain", "parameters": {}})

    def test_rejects_unknown_type(self):
        with pytest.raises(sg.InvalidConfig):
            build_model({"schemaVersion": 1, "type": "levy", "parameters": {}})

    def test_diffusion_with_expressions(self):
        gen = build_model(
            {
                "schemaVersion": 1,
                "type": "diffusion",
                "parameters": {
                    "left": 0.0, "right": 1.0, "n": 16,
                    "sigma": "1 + 0.1x", "kill": "0.2",
                    "boundaryLeft": "dirichlet", "boundaryRight": "neumann",
                },
            }
        )
        assert gen.size == 16
        assert sg.check_m_symmetry(gen.matrix, gen.space) <= 1e-12

    def test_jump_model(self):
        gen = build_model(
            {
                "schemaVersion": 1,
                "type": "jump",
                "parameters": {
                    "points": list(np.linspace(-2, 2, 10)),
                    "weights": [0.4] * 10,
                    "tStar": 1.0,
                },
            }
        )
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

    def test_malformed_model_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        out = tmp_path / "out_bad"
        assert run(RunConfig("decompose", str(bad), out, {})) == 2
        error = json.loads((out / "error.json").read_text())
        assert error["error"] == "InvalidConfig"

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
