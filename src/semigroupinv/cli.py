"""Command-line front end: build models from JSON configs, run inversions,
regularisations and diagnostics, and emit CSV/JSON artifacts.

Exit codes: 0 success, 2 validation error (bad config, bad expression,
unreadable input), 3 numerical error (overflow, conditioning cap,
non-converged quadrature).  Every failure also writes a machine-readable
``error.json`` naming the failing operation and the offending magnitude.
Identical configs and seeds produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    ExpressionParseError,
    InvalidConfig,
    NumericalError,
    SemigroupInvError,
)
from .inversion import (
    InverseProblem,
    conditioning_report,
    invert_bessel,
    invert_spectral,
    solve_backward_cauchy,
)
from .models import (
    DiffusionSpec,
    JumpKernelSpec,
    build_chain,
    build_diffusion,
    build_jump,
    build_ou,
    gaussian_jump_kernel,
)
from .regularisation import (
    MixtureModel,
    RegularisationConfig,
    gamma_convergence_study,
    gamma_study_to_csv,
    make_phi,
    mixture_invert,
    mixture_multipliers,
    regularised_pide_solve,
    regularised_residual,
    regularised_solve,
    trajectory_to_csv,
)
from .spectral import (
    SymmetricGenerator,
    _csv_text,
    check_m_symmetry,
    inner,
    norm,
    resolvent_apply,
    semigroup_apply,
    spectral_decompose,
    vector_from_csv,
    vector_to_csv,
)

SCHEMA_VERSION = 1

COMMANDS = ("decompose", "invert", "regularise", "mixture", "sweep", "diagnose", "pde", "check")

# ``check`` compares the resolvent flow with its J0 quadrature only up to this
# lambda_max; above it the comparison is reported as skipped, with the reason.
_FLOW_CHECK_LAMBDA_MAX = 50.0


# -- restricted function-literal grammar ---------------------------------------
#
# expr      := term (('+'|'-') term)*
# term      := unary (('*')? unary)*          (juxtaposition multiplies: "2x")
# unary     := ('-'|'+')? factor
# factor    := atom ('^' INT)?
# atom      := NUMBER | 'x' | 'exp(' expr ')' | 'indicator(' num ',' num ')'
#              | 'random(' INT ')' | '(' expr ')'


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._skip_ws()
        if self.pos >= len(self.text):
            return None, self.pos
        ch = self.text[self.pos]
        if ch.isdigit() or ch == ".":
            j = self.pos
            while j < len(self.text) and (self.text[j].isdigit() or self.text[j] in ".eE"):
                if self.text[j] in "eE" and j + 1 < len(self.text) and self.text[j + 1] in "+-":
                    j += 1
                j += 1
            return ("number", self.text[self.pos:j]), self.pos
        if ch.isalpha():
            j = self.pos
            while j < len(self.text) and self.text[j].isalpha():
                j += 1
            return ("name", self.text[self.pos:j]), self.pos
        return ("op", ch), self.pos

    def next(self):
        tok, pos = self.peek()
        if tok is not None:
            self.pos = pos + len(tok[1])
        return tok, pos


class _Parser:
    """Recursive-descent evaluator over a fixed grid."""

    def __init__(self, text: str, points: np.ndarray):
        self.tok = _Tokenizer(text)
        self.points = points

    def parse(self) -> np.ndarray:
        value = self._expr()
        tok, pos = self.tok.peek()
        if tok is not None:
            raise ExpressionParseError(f"unexpected {tok[1]!r}", pos)
        return np.broadcast_to(np.asarray(value, float), self.points.shape).copy()

    def _expr(self):
        value = self._term()
        while True:
            tok, _ = self.tok.peek()
            if tok == ("op", "+"):
                self.tok.next()
                value = value + self._term()
            elif tok == ("op", "-"):
                self.tok.next()
                value = value - self._term()
            else:
                return value

    def _term(self):
        value = self._unary()
        while True:
            tok, _ = self.tok.peek()
            if tok == ("op", "*"):
                self.tok.next()
                value = value * self._unary()
            elif tok is not None and (tok[0] in ("number", "name") or tok == ("op", "(")):
                value = value * self._unary()
            else:
                return value

    def _unary(self):
        tok, _ = self.tok.peek()
        if tok == ("op", "-"):
            self.tok.next()
            return -self._factor()
        if tok == ("op", "+"):
            self.tok.next()
        return self._factor()

    def _factor(self):
        value = self._atom()
        tok, pos = self.tok.peek()
        if tok == ("op", "^"):
            self.tok.next()
            exp_tok, exp_pos = self.tok.next()
            if exp_tok is None or exp_tok[0] != "number" or "." in exp_tok[1]:
                raise ExpressionParseError("exponent must be a non-negative integer", exp_pos)
            return value ** int(exp_tok[1])
        return value

    def _expect(self, symbol: str):
        tok, pos = self.tok.next()
        if tok != ("op", symbol):
            raise ExpressionParseError(f"expected {symbol!r}", pos)

    def _number(self) -> float:
        sign = 1.0
        tok, pos = self.tok.next()
        if tok == ("op", "-"):
            sign = -1.0
            tok, pos = self.tok.next()
        if tok is None or tok[0] != "number":
            raise ExpressionParseError("expected a number", pos)
        return sign * float(tok[1])

    def _atom(self):
        tok, pos = self.tok.next()
        if tok is None:
            raise ExpressionParseError("unexpected end of expression", pos)
        kind, text = tok
        if kind == "number":
            try:
                return float(text)
            except ValueError:
                raise ExpressionParseError(f"bad number {text!r}", pos) from None
        if tok == ("op", "("):
            value = self._expr()
            self._expect(")")
            return value
        if kind == "name":
            if text == "x":
                return self.points
            if text == "exp":
                self._expect("(")
                value = self._expr()
                self._expect(")")
                return np.exp(value)
            if text == "indicator":
                self._expect("(")
                lo = self._number()
                self._expect(",")
                hi = self._number()
                self._expect(")")
                return ((self.points >= lo) & (self.points <= hi)).astype(float)
            if text == "random":
                self._expect("(")
                seed_tok, seed_pos = self.tok.next()
                if seed_tok is None or seed_tok[0] != "number" or "." in seed_tok[1]:
                    raise ExpressionParseError("random() needs an integer seed", seed_pos)
                self._expect(")")
                rng = np.random.default_rng(int(seed_tok[1]))
                return rng.standard_normal(self.points.size)
            raise ExpressionParseError(f"unknown name {text!r}", pos)
        raise ExpressionParseError(f"unexpected {text!r}", pos)


def parse_function_literal(expr: str, space) -> np.ndarray:
    """Evaluate a restricted expression on the space's grid points.

    Grammar: polynomials in x, exp(<expr>), indicator(a, b), random(seed),
    with + - * ^ and parentheses.  random(seed) is reproducible.
    """
    return _Parser(expr, np.asarray(space.points, float)).parse()


def evaluate_on_points(expr: str, points: np.ndarray) -> np.ndarray:
    return _Parser(expr, np.asarray(points, float)).parse()


# -- model loading --------------------------------------------------------------


def build_model(spec: dict) -> SymmetricGenerator:
    """Instantiate a generator from a JSON model description."""
    if not isinstance(spec, dict):
        raise InvalidConfig("model spec must be a JSON object")
    if spec.get("schemaVersion") != SCHEMA_VERSION:
        raise InvalidConfig(f"unsupported schemaVersion {spec.get('schemaVersion')!r}")
    kind = spec.get("type")
    params = spec.get("parameters", {})
    if kind == "chain":
        return build_chain(params["matrix"], params["weights"])
    if kind == "ou":
        return build_ou(
            float(params.get("halfWidth", 6.0)),
            int(params.get("n", 400)),
            float(params.get("rate", 1.0)),
        )
    if kind == "diffusion":
        left = float(params["left"])
        right = float(params["right"])
        n = int(params["n"])
        sigma_expr = str(params.get("sigma", "1"))
        kill_expr = params.get("kill")
        return build_diffusion(
            DiffusionSpec(
                left=left,
                right=right,
                n=n,
                sigma=lambda x, e=sigma_expr: evaluate_on_points(e, x),
                kill=None if kill_expr is None else (lambda x, e=str(kill_expr): evaluate_on_points(e, x)),
                boundary_left=str(params.get("boundaryLeft", "neumann")),
                boundary_right=str(params.get("boundaryRight", "neumann")),
            )
        )
    if kind == "jump":
        points = np.asarray(params["points"], float)
        weights = np.asarray(params["weights"], float)
        from .spectral import build_space

        space = build_space(points, weights)
        if "kernel" in params:
            kernel = JumpKernelSpec(np.asarray(params["kernel"], float), space)
        else:
            kernel = gaussian_jump_kernel(space, float(params.get("tStar", 1.0)))
        return build_jump(kernel)
    raise InvalidConfig(f"unknown model type {kind!r}")


def load_model_file(path) -> SymmetricGenerator:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InvalidConfig(f"cannot read model file {path}: {exc}") from exc
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidConfig(f"model file {path} is not valid JSON: {exc}") from exc
    return build_model(spec)


# -- run configuration ------------------------------------------------------------


@dataclass
class RunConfig:
    """A validated CLI invocation: command, model, parameters, output dir."""

    command: str
    model_path: str
    output: Path
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise InvalidConfig(f"unknown command {self.command!r}")
        required = {
            "invert": ("T", "g"),
            "regularise": ("T", "g", "gamma", "phi"),
            "mixture": ("T", "g", "gamma", "tstar"),
            "sweep": ("T", "g", "phi"),
            "diagnose": ("T", "g"),
            "pde": ("T", "g"),
        }.get(self.command, ())
        for name in required:
            if self.params.get(name) is None:
                raise InvalidConfig(f"command {self.command!r} requires --{name}")


def _param(config: RunConfig, name: str, default):
    """The value of parameter ``name``; ``default`` only when it is absent.

    A value that is given but falsy (``--alpha 0``) is kept, so that it is
    validated rather than silently replaced.
    """
    value = config.params.get(name)
    return default if value is None else value


def _observed_vector(config: RunConfig, gen: SymmetricGenerator) -> np.ndarray:
    source = config.params["g"]
    if source.startswith("csv:"):
        path = source[4:]
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise InvalidConfig(f"cannot read vector file {path}: {exc}") from exc
        _, values = vector_from_csv(text)
        if values.size != gen.size:
            raise InvalidConfig(
                f"vector file has {values.size} entries, model has {gen.size}"
            )
        return values
    return parse_function_literal(source, gen.space)


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8", newline="\n")


def _write_json(path: Path, payload: dict) -> None:
    _write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _phi_from_params(config: RunConfig, horizon: float):
    name = config.params["phi"]
    kwargs = {}
    if name == "tikhonov_exp":
        kwargs["horizon"] = horizon
    elif name == "constant":
        kwargs["value"] = float(_param(config, "value", 1.0))
    elif name == "jump_mixture":
        kwargs["t_star"] = float(_param(config, "tstar", 1.0))
        kwargs["tau"] = float(_param(config, "tau", 1.0))
    elif name == "resolvent_jump":
        kwargs["alpha"] = float(_param(config, "alpha", 1.0))
        kwargs["tau"] = float(_param(config, "tau", 1.0))
    return make_phi(name, **kwargs)


# -- commands ----------------------------------------------------------------------


def _cmd_decompose(config, gen, dec, out: Path) -> dict:
    _write(
        out / "eigenvalues.csv",
        _csv_text("index,lambda", "%d,%.17g\n", enumerate(dec.eigenvalues.tolist())),
    )
    return {
        "n": gen.size,
        "lambdaMin": float(dec.eigenvalues[0]),
        "lambdaMax": float(dec.eigenvalues[-1]),
        "symmetryResidual": check_m_symmetry(gen.matrix, gen.space),
    }


def _cmd_invert(config, gen, dec, out: Path) -> dict:
    T = float(config.params["T"])
    alpha = float(_param(config, "alpha", 1.0))
    coeff_tol = float(_param(config, "coeff_tol", 1e-12))
    g = _observed_vector(config, gen)
    problem = InverseProblem(dec, T, g)
    report = conditioning_report(problem, alpha)
    _write_json(out / "report.json", report.to_json_dict())
    method = _param(config, "method", "spectral")
    if method == "bessel":
        f = invert_bessel(problem, alpha, coeff_tol=coeff_tol)
    elif method == "spectral":
        f = invert_spectral(problem, coeff_tol=coeff_tol)
    else:
        raise InvalidConfig(f"unknown inversion method {method!r}")
    _write(out / "solution.csv", vector_to_csv(gen.space, f))
    round_trip = norm(gen.space, semigroup_apply(dec, T, f) - g) / max(
        norm(gen.space, g), np.finfo(float).tiny
    )
    return {
        "T": T,
        "method": method,
        "coeffTol": coeff_tol,
        "roundTripRelativeResidual": round_trip,
        "amplificationLog10": report.amplification_log10,
        "flag": report.flag,
    }


def _cmd_regularise(config, gen, dec, out: Path) -> dict:
    T = float(config.params["T"])
    gamma = float(config.params["gamma"])
    g = _observed_vector(config, gen)
    phi = _phi_from_params(config, T)
    reg = RegularisationConfig(gamma, phi, T)
    f = regularised_solve(dec, reg, g)
    _write(out / "solution.csv", vector_to_csv(gen.space, f))
    return {
        "T": T,
        "gamma": gamma,
        "phi": phi.name,
        "phiParameters": dict(phi.parameters),
        "residual": regularised_residual(dec, reg, g, f),
        "solutionNorm": norm(gen.space, f),
    }


def _cmd_mixture(config, gen, dec, out: Path) -> dict:
    t = float(config.params["T"])
    gamma = float(config.params["gamma"])
    t_star = float(config.params["tstar"])
    g = _observed_vector(config, gen)
    model = MixtureModel(dec, gamma, t_star)
    f = mixture_invert(model, t, g)
    mult = mixture_multipliers(model, t)
    _write(out / "solution.csv", vector_to_csv(gen.space, f))
    residual = norm(gen.space, dec.synthesize(mult * dec.coefficients(f)) - g)
    return {
        "T": t,
        "gamma": gamma,
        "tStar": t_star,
        "residual": residual / max(norm(gen.space, g), np.finfo(float).tiny),
        "inverseNormBound": float(np.exp(t) / gamma),
        "maxInverseMultiplier": float(np.max(1.0 / mult)),
    }


def _cmd_sweep(config, gen, dec, out: Path) -> dict:
    T = float(config.params["T"])
    g = _observed_vector(config, gen)
    phi = _phi_from_params(config, T)
    gammas_text = _param(config, "gammas", "1e-1,1e-2,1e-3,1e-4,1e-5,1e-6,1e-7,1e-8")
    try:
        gammas = [float(v) for v in gammas_text.split(",") if v.strip()]
    except ValueError as exc:
        raise InvalidConfig(f"bad --gammas list: {exc}") from exc
    if not gammas:
        raise InvalidConfig("--gammas lists no values")
    rows = gamma_convergence_study(dec, phi, T, g, gammas)
    _write(out / "sweep.csv", gamma_study_to_csv(rows))
    return {
        "T": T,
        "phi": phi.name,
        "gammas": gammas,
        "finalError": rows[-1].error,
        "monotoneDecreasing": all(a.error >= b.error for a, b in zip(rows, rows[1:])),
    }


def _cmd_diagnose(config, gen, dec, out: Path) -> dict:
    T = float(config.params["T"])
    alpha = float(_param(config, "alpha", 1.0))
    g = _observed_vector(config, gen)
    problem = InverseProblem(dec, T, g)
    report = conditioning_report(problem, alpha)
    _write_json(out / "report.json", report.to_json_dict())
    return {
        "T": T,
        "alpha": alpha,
        "lambdaMax": report.lambda_max,
        "amplificationLog10": report.amplification_log10,
        "membershipSpectralLog10": report.membership_spectral_log10,
        "membershipQuadrature": report.membership_quadrature,
        "flag": report.flag,
    }


def _cmd_pde(config, gen, dec, out: Path) -> dict:
    T = float(config.params["T"])
    g = _observed_vector(config, gen)
    gamma = config.params.get("gamma")
    summary: dict = {"T": T}
    if gamma is not None:
        model = MixtureModel(dec, float(gamma), float(_param(config, "tstar", 1.0)))
        traj = regularised_pide_solve(model, g, T)
        summary["gamma"] = float(gamma)
        summary["tStar"] = model.t_star
    else:
        coeff_tol = float(_param(config, "coeff_tol", 1e-12))
        traj = solve_backward_cauchy(InverseProblem(dec, T, g), coeff_tol=coeff_tol)
    _write(out / "trajectory.csv", trajectory_to_csv(traj))
    summary["steps"] = int(traj.times.size - 1)
    summary["finalNorm"] = norm(gen.space, traj.values[-1])
    return summary


def _cmd_check(config, gen, dec, out: Path) -> dict:
    """Run the invariant suite against the model; any failure exits 3."""
    rng = np.random.default_rng(int(_param(config, "seed", 0)))
    space = gen.space
    n = gen.size
    f = rng.standard_normal(n)
    g = rng.standard_normal(n)
    lam_max = dec.lambda_max
    checks: dict[str, dict] = {}

    def record(name, value, tol):
        checks[name] = {"value": float(value), "tolerance": tol, "passed": bool(value <= tol)}

    record("mSymmetryResidual", check_m_symmetry(gen.matrix, space), 1e-12)
    gram = (dec.eigenvectors * space.weights[:, None]).T @ dec.eigenvectors
    record("orthonormality", np.max(np.abs(gram - np.eye(n))), 1e-10)
    recon = gen.matrix @ f + dec.synthesize(dec.eigenvalues * dec.coefficients(f))
    record("reconstruction", norm(space, recon) / max(norm(space, f), 1e-300), 1e-8)
    t, s = 0.7, 1.9
    lhs = semigroup_apply(dec, t + s, f)
    rhs = semigroup_apply(dec, t, semigroup_apply(dec, s, f))
    record("semigroupLaw", norm(space, lhs - rhs) / max(norm(space, f), 1e-300), 1e-10)
    record(
        "contraction",
        max(norm(space, semigroup_apply(dec, tt, f)) / norm(space, f) for tt in (0.0, 0.5, 2.0)) - 1.0,
        1e-12,
    )
    a, b = 0.8, 2.5
    res_lhs = resolvent_apply(dec, a, f) - resolvent_apply(dec, b, f)
    res_rhs = (b - a) * resolvent_apply(dec, a, resolvent_apply(dec, b, f))
    record("resolventIdentity", norm(space, res_lhs - res_rhs) / max(norm(space, f), 1e-300), 1e-10)
    sym_gap = inner(space, semigroup_apply(dec, 1.0, f), g) - inner(space, f, semigroup_apply(dec, 1.0, g))
    record("applySymmetry", abs(sym_gap) / max(abs(inner(space, f, g)), 1.0), 1e-10)
    if lam_max <= _FLOW_CHECK_LAMBDA_MAX:
        from .inversion import resolvent_flow, resolvent_flow_quadrature

        fs = resolvent_flow(dec, 1.0, 1.0, f)
        fq = resolvent_flow_quadrature(dec, 1.0, 1.0, f)
        record("flowQuadratureAgreement", norm(space, fs - fq) / max(norm(space, fs), 1e-300), 1e-6)
    else:
        checks["flowQuadratureAgreement"] = {
            "skipped": True,
            "reason": (
                f"lambdaMax {lam_max:.6g} exceeds {_FLOW_CHECK_LAMBDA_MAX:g}, the largest "
                "at which the flow is compared with its quadrature"
            ),
            "lambdaMax": lam_max,
        }
    failures = [name for name, c in checks.items() if not c.get("passed", True)]
    if failures:
        raise NumericalError(f"invariant checks failed: {', '.join(failures)}")
    return {"checks": checks, "allPassed": True}


_DISPATCH = {
    "decompose": _cmd_decompose,
    "invert": _cmd_invert,
    "regularise": _cmd_regularise,
    "mixture": _cmd_mixture,
    "sweep": _cmd_sweep,
    "diagnose": _cmd_diagnose,
    "pde": _cmd_pde,
    "check": _cmd_check,
}


def run(config: RunConfig) -> int:
    """Execute a command; write artifacts and return the exit code."""
    out = Path(config.output)
    out.mkdir(parents=True, exist_ok=True)
    try:
        gen = load_model_file(config.model_path)
        dec = spectral_decompose(gen)
        summary = _DISPATCH[config.command](config, gen, dec, out)
    except SemigroupInvError as exc:
        code = 3 if isinstance(exc, NumericalError) else 2
        payload = {
            "error": type(exc).__name__,
            "operation": config.command,
            "message": str(exc),
        }
        for attr in ("log10_value", "exponent", "position", "error_estimate"):
            value = getattr(exc, attr, None)
            if value is not None:
                payload[attr] = value
        _write_json(out / "error.json", payload)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return code
    summary["command"] = config.command
    summary["schemaVersion"] = SCHEMA_VERSION
    _write_json(out / "summary.json", summary)
    return 0


def _build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semigroupinv",
        description="Spectral inversion and regularisation for symmetric Markov semigroups.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("decompose", "eigenvalues and diagnostics of the model generator"),
        ("invert", "solve g = P_T f by spectral or Bessel inversion"),
        ("regularise", "solve the phi-regularised problem"),
        ("mixture", "invert the jump-mixture semigroup (always well-posed)"),
        ("sweep", "gamma -> 0 convergence study (CSV gamma,error,residual)"),
        ("diagnose", "conditioning report for an inversion problem"),
        ("pde", "backward trajectory (spectral, or mixed PIDE with --gamma)"),
        ("check", "run the model invariant suite"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--model", required=True, help="model JSON file")
        p.add_argument("--output", default="out", help="output directory (default: out)")
        if name in ("invert", "regularise", "mixture", "sweep", "diagnose", "pde"):
            p.add_argument("--T", type=float, required=True, help="horizon / time")
            p.add_argument("--g", required=True, help="observed function: expression or csv:PATH")
        if name in ("invert", "diagnose"):
            p.add_argument("--alpha", type=float, default=1.0)
        if name == "invert":
            p.add_argument("--method", choices=("spectral", "bessel"), default="spectral")
        if name in ("invert", "pde"):
            p.add_argument("--coeff-tol", dest="coeff_tol", type=float, default=1e-12,
                           help="relative coefficient floor for inversion")
        if name in ("regularise", "mixture", "pde"):
            p.add_argument("--gamma", type=float, default=None,
                           required=(name != "pde"))
        if name in ("regularise", "sweep"):
            p.add_argument("--phi", choices=("tikhonov_exp", "constant", "jump_mixture", "resolvent_jump"),
                           default="tikhonov_exp")
            p.add_argument("--value", type=float, default=1.0, help="constant phi value")
            p.add_argument("--tau", type=float, default=1.0)
            p.add_argument("--alpha", type=float, default=1.0)
        if name in ("regularise", "mixture", "sweep", "pde"):
            p.add_argument("--tstar", type=float, default=1.0)
        if name == "sweep":
            p.add_argument("--gammas", default=None, help="comma-separated list")
        if name == "check":
            p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> None:
    args = _build_arg_parser().parse_args(argv)
    params = {k: v for k, v in vars(args).items() if k not in ("command", "model", "output")}
    try:
        config = RunConfig(
            command=args.command,
            model_path=args.model,
            output=Path(args.output),
            params=params,
        )
    except SemigroupInvError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    raise SystemExit(run(config))


if __name__ == "__main__":
    main()
