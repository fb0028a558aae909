"""CLI harness: expression grammar, model configs, artifacts, exit codes."""

import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

import semigroupinv as sg
from semigroupinv import cli
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
            build_model({"schemaVersion": 1, "type": kind, "parameters": params})

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
            build_model({"schemaVersion": 1, "type": kind, "parameters": params})

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
        assert summary["checks"]["flowMultiplierAgreement"]["value"] <= 1e-10

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


class TestBudgets:
    """Requests past the state and trajectory budgets exit 2 before allocating."""

    def test_trajectory_budget_exits_2(self, model_files, tmp_path):
        # energetic lambda_max ~ 2234 over T = 0.002 needs 27272 steps: 10.9M cells at n = 400
        out = tmp_path / "out"
        argv = ["pde", "--model", model_files["ou"], "--output", str(out), "--T", "0.002", "--g", "random(5)"]
        assert cli_exit(argv) == 2
        error = json.loads((out / "error.json").read_text())
        assert error["error"] == "ValidationError"
        assert "27273 times x 400 states" in error["message"]
        assert not (out / "trajectory.csv").exists()

    def test_time_step_cap_exits_2(self, model_files, tmp_path):
        # the same lambda_max over T = 0.25 needs 3408884 steps, past the 2M-step cap
        out = tmp_path / "out"
        argv = ["pde", "--model", model_files["ou"], "--output", str(out), "--T", "0.25", "--g", "x^2"]
        assert cli_exit(argv) == 2
        error = json.loads((out / "error.json").read_text())
        assert error["error"] == "ValidationError"
        assert error["message"].startswith("3408884 time steps (lambda_max ")
        assert error["message"].endswith(" on [0, 0.25]) exceed the budget of 2000000")
        assert not (out / "trajectory.csv").exists()

    @pytest.mark.parametrize("kind", ["ou", "diffusion"])
    def test_state_budget_exits_2(self, tmp_path, monkeypatch, kind):
        from semigroupinv import cli

        monkeypatch.setattr(cli, f"build_{kind}", lambda *a: pytest.fail("model was built"))
        spec = json.loads(json.dumps(OU_JSON if kind == "ou" else LAPLACIAN_JSON))
        spec["parameters"]["n"] = cli._MAX_STATES + 1
        model = tmp_path / "big.json"
        model.write_text(json.dumps(spec), encoding="utf-8")
        out = tmp_path / "out"
        assert cli_exit(["decompose", "--model", str(model), "--output", str(out)]) == 2
        error = json.loads((out / "error.json").read_text())
        assert error["error"] == "InvalidConfig"
        assert f"{cli._MAX_STATES + 1} states exceed" in error["message"]

    @pytest.mark.parametrize(
        "kind, long_key, builder",
        [("jump", "points", "gaussian_jump_kernel"), ("jump", "weights", "gaussian_jump_kernel"),
         ("chain", "weights", "build_chain")],
    )
    def test_state_budget_covers_every_model_type(self, tmp_path, monkeypatch, kind, long_key, builder):
        monkeypatch.setattr(cli, builder, lambda *a: pytest.fail("an n x n array was built"))
        n = cli._MAX_STATES + 1
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
        assert f"'{long_key}': {n} states exceed" in error["message"]


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
            ({"type": "diffusion", "parameters": {"left": 0.0, "right": 1e-310, "n": 5}}, 2, "ValidationError"),
            ({"type": "jump", "parameters": {"points": [0.0, 1.0], "weights": [0.5, 0.5], "tStar": math.nan}},
             2, "InvalidBoundary"),
            ({"type": "ou", "parameters": {"halfWidth": math.nan, "n": 8}}, 2, "InvalidBoundary"),
            ({"type": "diffusion", "parameters": {"left": 0.0, "right": 1.0, "n": 5, "kill": "x - 0.5"}},
             2, "ValidationError"),
            ({"type": "jump", "parameters": {"points": [0.0, math.nan], "weights": [0.5, 0.5]}}, 2, "ValidationError"),
            ({"type": "jump", "parameters": {"points": [1.0, 0.0], "weights": [0.5, 0.5]}}, 2, "ValidationError"),
        ],
        ids=["chain-nan", "chain-symmetrised-overflow", "chain-weighted-overflow", "diffusion-subnormal-interval",
             "jump-tstar-nan", "ou-half-width-nan", "diffusion-negative-kill", "jump-points-nan", "jump-points-decreasing"],
    )
    @pytest.mark.parametrize("command", [["decompose"], ["diagnose", "--T", "1", "--g", "x"]])
    def test_non_finite_model_is_refused(self, tmp_path, spec, code, error_name, command):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"schemaVersion": 1, **spec}), encoding="utf-8")
        out = tmp_path / "out"
        assert cli_exit(command + ["--model", str(model), "--output", str(out)]) == code
        assert json.loads((out / "error.json").read_text())["error"] == error_name
        assert not (out / "summary.json").exists()

    def test_deep_expression_exits_2(self, model_files, tmp_path):
        from semigroupinv import cli

        out = tmp_path / "out"
        g = "(" * 3000 + "x" + ")" * 3000
        assert cli_exit(["diagnose", "--model", model_files["chain2"], "--output", str(out),
                         "--T", "1", "--g", g]) == 2
        error = json.loads((out / "error.json").read_text())
        assert error["error"] == "ExpressionParseError"
        assert error["position"] == cli._MAX_EXPRESSION_DEPTH
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


class TestPanelBudget:
    """A panel layout past the budget fails before any quadrature runs."""

    def test_panel_budget_exits_2(self, tmp_path, monkeypatch):
        from semigroupinv import bessel

        monkeypatch.setattr(bessel, "bochner_quadrature", lambda *a, **k: pytest.fail("quadrature ran"))
        model = tmp_path / "ou16.json"
        model.write_text(json.dumps({"schemaVersion": 1, "type": "ou",
                                     "parameters": {"halfWidth": 1e-3, "n": 16, "rate": 1.0}}), encoding="utf-8")
        out = tmp_path / "out"
        assert cli_exit(["diagnose", "--model", str(model), "--output", str(out),
                         "--T", "1e-11", "--g", "random(1)"]) == 2
        error = json.loads((out / "error.json").read_text())
        assert error["error"] == "ValidationError"
        assert error["message"] == f"119509 I0 panels uniform in sqrt(s) exceed the budget of {bessel._MAX_PANELS}"

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
