"""Command-line front end: run inversions, regularisations and diagnostics
on a model file, and emit CSV/JSON artifacts.

Exit codes: 0 success, 2 validation error (bad config, bad expression,
unreadable input, unwritable output), 3 numerical error (overflow,
conditioning cap, non-converged quadrature).  Every failure also writes a
machine-readable ``error.json``, wherever the output directory takes it,
naming the failing operation and the offending magnitude.
Identical configs and seeds produce byte-identical outputs under one BLAS
thread (``OPENBLAS_NUM_THREADS=1``).
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .artifacts import (
    eigenvalues_to_csv,
    gamma_study_to_csv,
    read_vector_file,
    vector_to_csv,
    write_json,
    write_text,
    write_trajectory,
)
from .errors import (
    MAX_TRAJECTORY_CELLS,
    InvalidConfig,
    NumericalError,
    SemigroupInvError,
    ValidationError,
    check_budget,
    check_count,
    check_finite,
    check_param,
    check_range,
)
from .inversion import (
    COEFF_TOL,
    InverseProblem,
    check_observed,
    conditioning_report,
    flow_multipliers,
    flow_quadrature_multipliers,
    invert_bessel,
    invert_spectral,
    solve_backward_cauchy,
)
from .models import SCHEMA_VERSION, load_model_file, parse_function_literal
from .regularisation import (
    PHI_FAMILY_NAMES,
    MixtureModel,
    RegularisationConfig,
    gamma_convergence_study,
    make_phi,
    mixture_invert,
    mixture_multipliers,
    regularised_pide_solve,
    regularised_residual,
    regularised_solve,
)
from .spectral import (
    SymmetricGenerator,
    inner,
    norm,
    resolvent_apply,
    semigroup_apply,
    spectral_decompose,
)

# ``check`` compares the resolvent flow with its J0 quadrature only up to this
# lambda_max; above it the comparison is reported as skipped, with the reason.
_FLOW_CHECK_LAMBDA_MAX = 50.0

# Most values of a ``sweep --gammas`` list.  Each one runs a regularised solve
# and a residual: 0.09-0.13 ms at n = 400, 1.8-2.1 ms at n = 2000 and
# 9.2-10.7 ms at n = 4000 (one OpenBLAS thread, 2-core EPYC).  So 256 values
# cost at most 2.3-2.7 s, about what the largest model takes to build and
# decompose; a 2 MB argv could otherwise ask for some 700,000.
_MAX_GAMMAS = 256


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
    "steps": (int, None, "uniform time steps of the pde grid (default: sized for the stiffest active mode)"),
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


def _observed_vector(source: str, gen: SymmetricGenerator) -> np.ndarray:
    if source.startswith("csv:"):
        values = read_vector_file(source[4:], gen.space)
    else:
        values = parse_function_literal(source, gen.space, "--g")
    check_observed(gen.space, values)
    return values


def _phi_from_params(p: dict, horizon: float):
    return make_phi(p["phi"], horizon=horizon, value=p["value"], t_star=p["tstar"], tau=p["tau"],
                    alpha=p["alpha"])


# -- commands ----------------------------------------------------------------------
#
# Each command takes its flags converted by ``check_param`` (absent ones at their
# ``_FLAGS`` default), the model, its decomposition and the output directory.


def _save(write, path: Path, payload) -> None:
    """``write(path, payload)``; an output it cannot write raises :class:`InvalidConfig` naming ``path``.

    An error after the file was opened, such as a full disk under a streamed
    trajectory.csv, removes the file, so no partial artifact is left.
    """
    try:
        write(path, payload)
    except OSError as exc:
        if exc.filename is None:  # open() names the file it failed on; a write or close does not
            path.unlink(missing_ok=True)
        raise InvalidConfig(f"cannot write {path}: {exc.strerror or exc}") from exc


def _cmd_decompose(p, gen, dec, out: Path) -> dict:
    _save(write_text, out / "eigenvalues.csv", eigenvalues_to_csv(dec))
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
    _save(write_json, out / "report.json", report.to_json_dict())
    if p["method"] == "bessel":
        f = invert_bessel(problem, alpha, coeff_tol=coeff_tol)
    else:
        f = invert_spectral(problem, coeff_tol=coeff_tol)
    _save(write_text, out / "solution.csv", vector_to_csv(gen.space, f))
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
    summary = {
        "T": T,
        "gamma": gamma,
        "phi": phi.name,
        "phiParameters": dict(phi.parameters),
        "residual": regularised_residual(dec, reg, g, f),
        "solutionNorm": check_finite(norm(gen.space, f), "the norm of the solution"),
    }
    _save(write_text, out / "solution.csv", vector_to_csv(gen.space, f))
    return summary


def _cmd_mixture(p, gen, dec, out: Path) -> dict:
    t, gamma, t_star = p["T"], p["gamma"], p["tstar"]
    g = _observed_vector(p["g"], gen)
    model = MixtureModel(dec, gamma, t_star)
    f = mixture_invert(model, t, g)
    mult = mixture_multipliers(model, t)
    _save(write_text, out / "solution.csv", vector_to_csv(gen.space, f))
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
    fields = [v for v in p["gammas"].split(",") if v.strip()]
    check_budget("--gammas values", len(fields), _MAX_GAMMAS)
    try:
        gammas = [float(v) for v in fields]
    except ValueError as exc:
        raise InvalidConfig(f"bad --gammas list: {exc}") from exc
    if not gammas:
        raise InvalidConfig("--gammas lists no values")
    rows = gamma_convergence_study(dec, phi, T, g, gammas)
    _save(write_text, out / "sweep.csv", gamma_study_to_csv(rows))
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
    _save(write_json, out / "report.json", report.to_json_dict())
    return {"T": T, "alpha": alpha, **report.to_json_dict()}


def _uniform_steps(T: float, steps: int, states: int) -> np.ndarray:
    """The grid of ``--steps`` equal steps on [0, T], refused past the trajectory budget.

    A space has at least 2 states, so that budget also holds the grid under
    ``backward_time_grid``'s cap of ``MAX_TRAJECTORY_CELLS // 2`` times.
    """
    check_range("horizon", T)  # before linspace, which fills an infinite T's grid with NaN
    steps = check_count("--steps", steps, 1)
    cells = (steps + 1) * states
    check_budget(f"trajectory cells (--steps {steps}: {steps + 1} times x {states} states)", cells, MAX_TRAJECTORY_CELLS)
    return np.linspace(0.0, T, steps + 1)


def _cmd_pde(p, gen, dec, out: Path) -> dict:
    T, gamma, steps = p["T"], p["gamma"], p["steps"]
    g = _observed_vector(p["g"], gen)
    t_grid = None if steps is None else _uniform_steps(T, steps, gen.size)
    summary: dict = {"T": T}
    try:
        if gamma is not None:
            model = MixtureModel(dec, gamma, p["tstar"])
            traj = regularised_pide_solve(model, g, T, t_grid)
            summary["gamma"] = gamma
            summary["tStar"] = model.t_star
        else:
            traj = solve_backward_cauchy(InverseProblem(dec, T, g), t_grid, coeff_tol=p["coeff_tol"])
    except ValidationError as exc:  # a budget of the default grid; --steps was checked above
        if exc.budget is None:
            raise
        raise ValidationError(f"{exc}; --steps N sets a uniform grid of N steps instead", exc.budget) from exc
    summary["steps"] = int(traj.times.size - 1)
    summary["finalNorm"] = check_finite(norm(gen.space, traj.values[-1]), "the norm of the final state")
    _save(write_trajectory, out / "trajectory.csv", traj)
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
        # one J0 quadrature, the multipliers of resolvent_flow_quadrature(dec, 1, 1, f): applied to f
        # against resolvent_flow, and mode by mode against their closed form
        closed = flow_multipliers(dec.eigenvalues, 1.0, 1.0)
        mu = flow_quadrature_multipliers(dec, 1.0, 1.0, f)
        fs, fq = dec.apply(closed, f), dec.apply(mu, f)
        record("flowQuadratureAgreement", norm(space, fs - fq) / max(norm(space, fs), 1e-300), 1e-6)
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
            ("coeff_tol", "gamma", "tstar", "steps")),
    "check": (_cmd_check, "run the model invariant suite", (), ("seed",)),
}


def run(config: RunConfig) -> int:
    """Execute a command; write artifacts and return the exit code.

    An output directory or artifact that cannot be written exits 2 like any
    other bad input, with ``error.json`` wherever the directory takes it.
    """
    out = Path(config.output)
    command, _, required, optional = _COMMANDS[config.command]
    try:
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise InvalidConfig(f"cannot create output directory {out}: {exc.strerror or exc}") from exc
        # each flag converted by its _FLAGS entry, its default only when absent: a given but falsy
        # value (--alpha 0) is validated rather than silently replaced
        params = {name: check_param(config.params, name, *_FLAGS[name][:2], label="flag")
                  for name in required + optional}
        gen = load_model_file(config.model_path)
        dec = spectral_decompose(gen)
        summary = command(params, gen, dec, out)
        summary["command"] = config.command
        summary["schemaVersion"] = SCHEMA_VERSION
        _save(write_json, out / "summary.json", summary)
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
        message = f"error: {type(exc).__name__}: {exc}"
        if out.is_dir():
            try:
                _save(write_json, out / "error.json", payload)
            except InvalidConfig as unwritable:
                message += f"; {unwritable}"
        print(message, file=sys.stderr)
        return code
    return 0


def _add_flags(parser: argparse.ArgumentParser, required, optional) -> None:
    parser.add_argument("--model", required=True, help="model JSON file")
    parser.add_argument("--output", default="out", help="output directory (default: out)")
    for flag in required + optional:
        _, default, flag_help = _FLAGS[flag]
        if default is not None:
            flag_help += f" (default: {default})"
        parser.add_argument("--" + flag.replace("_", "-"), required=flag in required, help=flag_help)


@functools.cache
def _build_arg_parser() -> argparse.ArgumentParser:
    """Subcommands and flags from ``_COMMANDS``/``_FLAGS``; values stay strings for ``check_param``.

    Built once per process: parsing leaves the parser as it was.
    """
    parser = argparse.ArgumentParser(
        prog="semigroupinv",
        description="Spectral inversion and regularisation for symmetric Markov semigroups.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, required, optional) in _COMMANDS.items():
        _add_flags(sub.add_parser(name, help=help_text), required, optional)
    return parser


def main(argv=None) -> None:
    args = vars(_build_arg_parser().parse_args(argv))
    command, model, output = args.pop("command"), args.pop("model"), args.pop("output")
    params = {k: v for k, v in args.items() if v is not None}
    raise SystemExit(run(RunConfig(command, model, Path(output), params)))


if __name__ == "__main__":
    main()
