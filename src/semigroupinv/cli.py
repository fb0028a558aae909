"""Command-line front end: build models from JSON configs, run inversions,
regularisations and diagnostics, and emit CSV/JSON artifacts.

Exit codes: 0 success, 2 validation error (bad config, bad expression,
unreadable input), 3 numerical error (overflow, conditioning cap,
non-converged quadrature).  Every failure also writes a machine-readable
``error.json`` naming the failing operation and the offending magnitude.
Identical configs and seeds produce byte-identical outputs under one BLAS
thread (``OPENBLAS_NUM_THREADS=1``).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .bessel import j0_multipliers
from .errors import (
    ExpressionParseError,
    InvalidConfig,
    NumericalError,
    SemigroupInvError,
    ValidationError,
)
from .inversion import (
    COEFF_TOL,
    FLOW_QUADRATURE,
    InverseProblem,
    _flow_multipliers,
    conditioning_report,
    invert_bessel,
    invert_spectral,
    resolvent_flow,
    resolvent_flow_quadrature,
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
    PHI_FAMILY_NAMES,
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
    build_space,
    inner,
    norm,
    resolvent_apply,
    semigroup_apply,
    spectral_decompose,
    vector_from_csv,
    vector_to_csv,
)

SCHEMA_VERSION = 1

# ``check`` compares the resolvent flow with its J0 quadrature only up to this
# lambda_max; above it the comparison is reported as skipped, with the reason.
_FLOW_CHECK_LAMBDA_MAX = 50.0

# Most states of any model (grid cells, chain weights, jump points): 128 MB
# per dense n x n matrix; spectral_decompose of ou at 4000 states took ~17 s,
# nearly all eigh (one OpenBLAS thread, 2-core Xeon).
_MAX_STATES = 4000

# Deepest nesting of parentheses and exp( an expression may use, which keeps
# the recursive-descent parser far inside Python's recursion limit.
_MAX_EXPRESSION_DEPTH = 100


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
        self.depth = 0

    def parse(self) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):  # every caller refuses an inf or NaN value
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
            if exp_tok is None or not exp_tok[1].isdecimal():
                raise ExpressionParseError("exponent must be a non-negative integer", exp_pos)
            try:
                return value ** int(exp_tok[1])
            except OverflowError:  # a float literal's power; arrays overflow to inf
                raise ExpressionParseError("power exceeds double range", pos) from None
        return value

    def _expect(self, symbol: str):
        tok, pos = self.tok.next()
        if tok != ("op", symbol):
            raise ExpressionParseError(f"expected {symbol!r}", pos)

    def _nested(self, pos: int):
        """The expression inside a parenthesis opened at ``pos``, and its ')'."""
        if self.depth == _MAX_EXPRESSION_DEPTH:
            raise ExpressionParseError(f"nesting deeper than {_MAX_EXPRESSION_DEPTH} levels", pos)
        self.depth += 1
        value = self._expr()
        self._expect(")")
        self.depth -= 1
        return value

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
            return self._nested(pos)
        if kind == "name":
            if text == "x":
                return self.points
            if text == "exp":
                self._expect("(")
                return np.exp(self._nested(pos))
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
                if seed_tok is None or not seed_tok[1].isdecimal():
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


# -- model loading --------------------------------------------------------------


_REQUIRED = object()


def _states(value) -> int:
    n = int(value)
    if n != float(value):
        raise ValueError(f"expected an integer, got {value!r}")
    if n > _MAX_STATES:
        raise ValueError(f"{n} states exceed the budget of {_MAX_STATES}")
    return n


def _array(value) -> np.ndarray:
    return np.asarray(value, float)


def _state_array(value) -> np.ndarray:
    """One entry per state: ``_array(value)``, at most ``_MAX_STATES`` long."""
    values = _array(value)
    _states(values.size)
    return values


def _model_param(params: dict, key: str, convert, default=_REQUIRED, label="model parameter"):
    """``convert(params[key])``, or ``default`` only when ``key`` is absent.

    A missing required key, or a value ``convert`` rejects, raises
    :class:`InvalidConfig` naming the ``label`` and the key.
    """
    if key not in params:
        if default is _REQUIRED:
            raise InvalidConfig(f"{label} {key!r} is required")
        return default
    try:
        return convert(params[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidConfig(f"{label} {key!r}: {exc}") from None


def build_model(spec: dict) -> SymmetricGenerator:
    """Instantiate a generator from a JSON model description."""
    if not isinstance(spec, dict):
        raise InvalidConfig("model spec must be a JSON object")
    if spec.get("schemaVersion") != SCHEMA_VERSION:
        raise InvalidConfig(f"unsupported schemaVersion {spec.get('schemaVersion')!r}")
    kind = spec.get("type")
    params = spec.get("parameters", {})
    if not isinstance(params, dict):
        raise InvalidConfig("model parameters must be a JSON object")
    if kind == "chain":
        weights = _model_param(params, "weights", _state_array)
        return build_chain(_model_param(params, "matrix", _array), weights)
    if kind == "ou":
        return build_ou(
            _model_param(params, "halfWidth", float, 6.0),
            _model_param(params, "n", _states, 400),
            _model_param(params, "rate", float, 1.0),
        )
    if kind == "diffusion":
        sigma_expr = str(params.get("sigma", "1"))
        kill_expr = params.get("kill")
        return build_diffusion(
            DiffusionSpec(
                left=_model_param(params, "left", float),
                right=_model_param(params, "right", float),
                n=_model_param(params, "n", _states),
                sigma=lambda x, e=sigma_expr: _Parser(e, x).parse(),
                kill=None if kill_expr is None else (lambda x, e=str(kill_expr): _Parser(e, x).parse()),
                boundary_left=str(params.get("boundaryLeft", "neumann")),
                boundary_right=str(params.get("boundaryRight", "neumann")),
            )
        )
    if kind == "jump":
        space = build_space(
            _model_param(params, "points", _state_array), _model_param(params, "weights", _state_array)
        )
        if "kernel" in params:
            kernel = JumpKernelSpec(_model_param(params, "kernel", _array), space)
        else:
            kernel = gaussian_jump_kernel(space, _model_param(params, "tStar", float, 1.0))
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


def _one_of(*choices):
    def convert(value):
        if value not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}, got {value!r}")
        return value

    return convert


def _seed(value) -> int:
    n = int(value)
    if n != float(value) or n < 0:
        raise ValueError(f"expected a non-negative integer, got {value!r}")
    return n


# Every command flag: converter, value when absent, help.  ``T``, ``g`` and
# ``gamma`` have no default: a command requires them, or (``pde``) reads an
# absent ``gamma`` as the spectral route.
_FLAGS = {
    "T": (float, None, "horizon / time"),
    "g": (str, None, "observed function: expression or csv:PATH"),
    "alpha": (float, 1.0, "resolvent shift alpha > 0"),
    "method": (_one_of("spectral", "bessel"), "spectral", "inversion route: spectral or bessel"),
    "coeff_tol": (float, COEFF_TOL, "relative coefficient floor for inversion"),
    "gamma": (float, None, "regularisation or mixture weight"),
    "phi": (_one_of(*PHI_FAMILY_NAMES), "tikhonov_exp", "regulariser: " + ", ".join(PHI_FAMILY_NAMES)),
    "value": (float, 1.0, "constant phi value"),
    "tau": (float, 1.0, "jump time tau of the jump phi families"),
    "tstar": (float, 1.0, "horizon t* of the jump process"),
    "gammas": (str, "1e-1,1e-2,1e-3,1e-4,1e-5,1e-6,1e-7,1e-8", "comma-separated list"),
    "seed": (_seed, 0, "seed of the random test vectors"),
}


@dataclass
class RunConfig:
    """A validated CLI invocation: command, model, parameters, output dir."""

    command: str
    model_path: str
    output: Path
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise InvalidConfig(f"unknown command {self.command!r}")
        for name in _COMMANDS[self.command][2]:
            if name not in self.params:
                raise InvalidConfig(f"command {self.command!r} requires --{name}")


def _param(params: dict, name: str):
    """Flag ``name`` converted by its ``_FLAGS`` entry; its default only when absent.

    A value that is given but falsy (``--alpha 0``) is kept, so that it is
    validated rather than silently replaced; one the converter rejects
    raises :class:`InvalidConfig` naming the flag.
    """
    convert, default, _ = _FLAGS[name]
    return _model_param(params, name, convert, default, label="flag")


def _observed_vector(source: str, gen: SymmetricGenerator) -> np.ndarray:
    if source.startswith("csv:"):
        path = source[4:]
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise InvalidConfig(f"cannot read vector file {path}: {exc}") from exc
        space, values = vector_from_csv(text)
        if values.size != gen.size:
            raise InvalidConfig(
                f"vector file has {values.size} entries, model has {gen.size}"
            )
        for column, got, want in (("x", space.points, gen.space.points),
                                  ("m", space.weights, gen.space.weights)):
            if not np.array_equal(got, want):
                k = int(np.flatnonzero(got != want)[0])
                raise InvalidConfig(
                    f"vector file column {column} is not the model grid: row {k}"
                    f" has {float(got[k])!r}, the model {float(want[k])!r}"
                )
    else:
        values = parse_function_literal(source, gen.space)
    if not np.all(np.isfinite(values)):
        raise ValidationError("observed data must be finite")
    return values


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8", newline="\n")


def _write_json(path: Path, payload: dict) -> None:
    _write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _phi_from_params(p: dict, horizon: float):
    return make_phi(p["phi"], horizon=horizon, value=p["value"], t_star=p["tstar"], tau=p["tau"],
                    alpha=p["alpha"])


# -- commands ----------------------------------------------------------------------
#
# Each command takes its flags converted by ``_param`` (absent ones at their
# ``_FLAGS`` default), the model, its decomposition and the output directory.


def _cmd_decompose(p, gen, dec, out: Path) -> dict:
    _write(
        out / "eigenvalues.csv",
        _csv_text("index,lambda", "%d,%.17g\n", enumerate(dec.eigenvalues.tolist())),
    )
    return {
        "n": gen.size,
        "lambdaMin": float(dec.eigenvalues[0]),
        "lambdaMax": float(dec.eigenvalues[-1]),
        "symmetryResidual": gen.symmetry_residual,
    }


def _cmd_invert(p, gen, dec, out: Path) -> dict:
    T, alpha, coeff_tol = p["T"], p["alpha"], p["coeff_tol"]
    g = _observed_vector(p["g"], gen)
    problem = InverseProblem(dec, T, g)
    report = conditioning_report(problem, alpha)
    _write_json(out / "report.json", report.to_json_dict())
    if p["method"] == "bessel":
        f = invert_bessel(problem, alpha, coeff_tol=coeff_tol)
    else:
        f = invert_spectral(problem, coeff_tol=coeff_tol)
    _write(out / "solution.csv", vector_to_csv(gen.space, f))
    round_trip = norm(gen.space, semigroup_apply(dec, T, f) - g) / max(
        norm(gen.space, g), np.finfo(float).tiny
    )
    return {
        "T": T,
        "method": p["method"],
        "coeffTol": coeff_tol,
        "roundTripRelativeResidual": round_trip,
        "amplificationLog10": report.amplification_log10,
        "flag": report.flag,
    }


def _cmd_regularise(p, gen, dec, out: Path) -> dict:
    T, gamma = p["T"], p["gamma"]
    g = _observed_vector(p["g"], gen)
    phi = _phi_from_params(p, T)
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


def _cmd_mixture(p, gen, dec, out: Path) -> dict:
    t, gamma, t_star = p["T"], p["gamma"], p["tstar"]
    g = _observed_vector(p["g"], gen)
    model = MixtureModel(dec, gamma, t_star)
    f = mixture_invert(model, t, g)
    mult = mixture_multipliers(model, t)
    _write(out / "solution.csv", vector_to_csv(gen.space, f))
    residual = norm(gen.space, dec.apply(mult, f) - g)
    return {
        "T": t,
        "gamma": gamma,
        "tStar": t_star,
        "residual": residual / max(norm(gen.space, g), np.finfo(float).tiny),
        "inverseNormBound": float(np.exp(t) / gamma),
        "maxInverseMultiplier": float(np.max(1.0 / mult)),
    }


def _cmd_sweep(p, gen, dec, out: Path) -> dict:
    T = p["T"]
    g = _observed_vector(p["g"], gen)
    phi = _phi_from_params(p, T)
    try:
        gammas = [float(v) for v in p["gammas"].split(",") if v.strip()]
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


def _cmd_diagnose(p, gen, dec, out: Path) -> dict:
    T, alpha = p["T"], p["alpha"]
    g = _observed_vector(p["g"], gen)
    problem = InverseProblem(dec, T, g)
    report = conditioning_report(problem, alpha)
    _write_json(out / "report.json", report.to_json_dict())
    return {"T": T, "alpha": alpha, **report.to_json_dict()}


def _cmd_pde(p, gen, dec, out: Path) -> dict:
    T, gamma = p["T"], p["gamma"]
    g = _observed_vector(p["g"], gen)
    summary: dict = {"T": T}
    if gamma is not None:
        model = MixtureModel(dec, gamma, p["tstar"])
        traj = regularised_pide_solve(model, g, T)
        summary["gamma"] = gamma
        summary["tStar"] = model.t_star
    else:
        traj = solve_backward_cauchy(InverseProblem(dec, T, g), coeff_tol=p["coeff_tol"])
    _write(out / "trajectory.csv", trajectory_to_csv(traj))
    summary["steps"] = int(traj.times.size - 1)
    summary["finalNorm"] = norm(gen.space, traj.values[-1])
    return summary


def _cmd_check(p, gen, dec, out: Path) -> dict:
    """Run the invariant suite against the model; any failure exits 3."""
    rng = np.random.default_rng(p["seed"])
    space = gen.space
    n = gen.size
    f = rng.standard_normal(n)
    g = rng.standard_normal(n)
    lam_max = dec.lambda_max
    checks: dict[str, dict] = {}

    def record(name, value, tol):
        checks[name] = {"value": float(value), "tolerance": tol, "passed": bool(value <= tol)}

    record("mSymmetryResidual", gen.symmetry_residual, 1e-12)
    gram = (dec.eigenvectors * space.weights[:, None]).T @ dec.eigenvectors
    record("orthonormality", np.max(np.abs(gram - np.eye(n))), 1e-10)
    recon = gen.matrix @ f + dec.apply(dec.eigenvalues, f)
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
        fs = resolvent_flow(dec, 1.0, 1.0, f)
        fq = resolvent_flow_quadrature(dec, 1.0, 1.0, f)
        record("flowQuadratureAgreement", norm(space, fs - fq) / max(norm(space, fs), 1e-300), 1e-6)
        mu = j0_multipliers(1.0, dec.eigenvalues + 1.0, FLOW_QUADRATURE, max(1.0, norm(space, f))).value
        closed = _flow_multipliers(dec.eigenvalues, 1.0, 1.0)
        record("flowMultiplierAgreement", np.max(np.abs(mu - closed) / closed), 1e-8)
    else:
        skipped = {
            "skipped": True,
            "reason": (
                f"lambdaMax {lam_max:.6g} exceeds {_FLOW_CHECK_LAMBDA_MAX:g}, the largest "
                "at which the flow is compared with its quadrature"
            ),
            "lambdaMax": lam_max,
        }
        checks["flowQuadratureAgreement"] = skipped
        checks["flowMultiplierAgreement"] = skipped
    failures = [name for name, c in checks.items() if not c.get("passed", True)]
    if failures:
        raise NumericalError(f"invariant checks failed: {', '.join(failures)}")
    return {"checks": checks, "allPassed": True}


# Every command: function, help, required flags, optional flags.
_COMMANDS = {
    "decompose": (_cmd_decompose, "eigenvalues and diagnostics of the model generator", (), ()),
    "invert": (_cmd_invert, "solve g = P_T f by spectral or Bessel inversion", ("T", "g"),
               ("alpha", "method", "coeff_tol")),
    "regularise": (_cmd_regularise, "solve the phi-regularised problem", ("T", "g", "gamma"),
                   ("phi", "value", "tau", "alpha", "tstar")),
    "mixture": (_cmd_mixture, "invert the jump-mixture semigroup", ("T", "g", "gamma"), ("tstar",)),
    "sweep": (_cmd_sweep, "gamma -> 0 convergence study (CSV gamma,error,residual)", ("T", "g"),
              ("phi", "value", "tau", "alpha", "tstar", "gammas")),
    "diagnose": (_cmd_diagnose, "conditioning report for an inversion problem", ("T", "g"), ("alpha",)),
    "pde": (_cmd_pde, "backward trajectory (spectral, or mixed PIDE with --gamma)", ("T", "g"),
            ("coeff_tol", "gamma", "tstar")),
    "check": (_cmd_check, "run the model invariant suite", (), ("seed",)),
}


def run(config: RunConfig) -> int:
    """Execute a command; write artifacts and return the exit code."""
    out = Path(config.output)
    out.mkdir(parents=True, exist_ok=True)
    command, _, required, optional = _COMMANDS[config.command]
    try:
        params = {name: _param(config.params, name) for name in required + optional}
        gen = load_model_file(config.model_path)
        dec = spectral_decompose(gen)
        summary = command(params, gen, dec, out)
    except SemigroupInvError as exc:
        code = 3 if isinstance(exc, NumericalError) else 2
        payload = {
            "error": type(exc).__name__,
            "operation": config.command,
            "message": str(exc),
        }
        # A magnitude past double range stays in the message only: strict
        # JSON has no Infinity or NaN.
        for attr in ("log10_value", "exponent", "position", "error_estimate"):
            value = getattr(exc, attr, None)
            if value is not None and np.isfinite(value):
                payload[attr] = value
        _write_json(out / "error.json", payload)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return code
    summary["command"] = config.command
    summary["schemaVersion"] = SCHEMA_VERSION
    _write_json(out / "summary.json", summary)
    return 0


def _build_arg_parser() -> argparse.ArgumentParser:
    """Subcommands and flags from ``_COMMANDS``/``_FLAGS``; values stay strings for ``_param``."""
    parser = argparse.ArgumentParser(
        prog="semigroupinv",
        description="Spectral inversion and regularisation for symmetric Markov semigroups.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, required, optional) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--model", required=True, help="model JSON file")
        p.add_argument("--output", default="out", help="output directory (default: out)")
        for flag in required + optional:
            _, default, flag_help = _FLAGS[flag]
            if default is not None:
                flag_help += f" (default: {default})"
            p.add_argument("--" + flag.replace("_", "-"), required=flag in required, help=flag_help)
    return parser


def main(argv=None) -> None:
    args = vars(_build_arg_parser().parse_args(argv))
    command, model, output = args.pop("command"), args.pop("model"), args.pop("output")
    try:
        config = RunConfig(command, model, Path(output), {k: v for k, v in args.items() if v is not None})
    except SemigroupInvError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    raise SystemExit(run(config))


if __name__ == "__main__":
    main()
