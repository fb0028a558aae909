"""Seeded workload generator: model files, CLI argv lists, library inputs.

Each workload is a fixed *cycle* of ops that the closed loop repeats.  The
seed draws the observations (the scale of the OU witness ``c*x^2``, the
``random(k)`` seeds, and the library observation vectors); the models and
the cycle's shape are the same for every seed.  Every op carries a verifier
that checks its artifacts against the library's own oracles: the OU
witness pair, the spectral inverse, regularised and mixture residuals, the
backward solution at t = 0 and t = T, and the generator matrix itself.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from checker import (
    Outcome,
    Verdict,
    check_report,
    parse_vector_csv,
    rel_l2,
    trajectory_block,
)

WORKLOADS = ("conditioning-ou400", "trajectory-io", "eigen-ladder", "batch-apply")

# A CLI setup child: import the CLI, build the first model, run the first op.
CLI_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from semigroupinv import cli
cli.main(sys.argv[2:])
"""

# The batch-apply setup child: decompose once, then the first library solve.
# Arguments: source dir, model file, observation file, horizon (a trailing
# --output is ignored).
LIB_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from semigroupinv import cli
import semigroupinv as sg
dec = sg.spectral_decompose(cli.load_model_file(sys.argv[2]))
g = np.load(sys.argv[3])
sg.invert_spectral(sg.InverseProblem(dec, float(sys.argv[4]), g), coeff_tol=1e-8)
"""


@dataclass
class Op:
    """One closed-loop request: a CLI argv or a library call."""

    key: str
    verify: Callable[[Outcome, Verdict], None]
    argv: list[str] | None = None
    call: Callable[[], np.ndarray] | None = None
    expect_code: int = 0


@dataclass
class Workload:
    name: str
    cycle: list[Op]
    min_cycles: int
    setup_argv: list[str]
    setup_child: str = CLI_CHILD

    @property
    def tail_quantile(self) -> float:
        """Highest quantile with at least 10 samples beyond it at min_cycles.

        Fixed per workload, so every run reports the same percentile; runs
        with more cycles have more than 10 samples beyond it.
        """
        n = self.min_cycles * len(self.cycle)
        return (n - 11) / (n - 1)


def _ou(n: int) -> dict:
    return {"schemaVersion": 1, "type": "ou", "parameters": {"halfWidth": 6.0, "n": n, "rate": 1.0}}


def _diffusion(n: int, sigma: str, kill: str | None) -> dict:
    params = {
        "left": 0.0,
        "right": math.pi,
        "n": n,
        "sigma": sigma,
        "boundaryLeft": "dirichlet",
        "boundaryRight": "dirichlet",
    }
    if kill is not None:
        params["kill"] = kill
    return {"schemaVersion": 1, "type": "diffusion", "parameters": params}


def _gaussian_jump(n: int) -> dict:
    x = np.linspace(-3.0, 3.0, n)
    w = np.exp(-0.5 * x**2) / math.sqrt(2.0 * math.pi) * (x[1] - x[0])
    return {
        "schemaVersion": 1,
        "type": "jump",
        "parameters": {"points": x.tolist(), "weights": w.tolist(), "tStar": 0.5},
    }


MODELS = {
    "ou400": lambda: _ou(400),
    "ou1000": lambda: _ou(1000),
    "ou2000": lambda: _ou(2000),
    "laplacian400": lambda: _diffusion(400, "1", None),
    "killed2000": lambda: _diffusion(2000, "1+0.5x", "0.2"),
    "jump400": lambda: _gaussian_jump(400),
    "jump1000": lambda: _gaussian_jump(1000),
}


class Oracles:
    """Library-side references, computed lazily outside the timed ops."""

    def __init__(self, sg, cli, model_dir: Path):
        self.sg = sg
        self.cli = cli
        self.model_dir = model_dir
        self._models: dict[str, tuple] = {}
        self._cache: dict[tuple, np.ndarray] = {}

    def path(self, model: str) -> str:
        return str(self.model_dir / f"{model}.json")

    def model(self, name: str):
        if name not in self._models:
            gen = self.cli.load_model_file(self.path(name))
            self._models[name] = (gen, self.sg.spectral_decompose(gen))
        return self._models[name]

    def observed(self, model: str, expr: str) -> np.ndarray:
        return self.cli.parse_function_literal(expr, self.model(model)[0].space)

    def spectral_inverse(self, model: str, T: float, expr: str, coeff_tol: float) -> np.ndarray:
        key = ("inverse", model, T, expr, coeff_tol)
        if key not in self._cache:
            problem = self.sg.InverseProblem(self.model(model)[1], T, self.observed(model, expr))
            self._cache[key] = self.sg.invert_spectral(problem, coeff_tol=coeff_tol)
        return self._cache[key]

    def norm(self, model: str, f) -> float:
        return self.sg.norm(self.model(model)[0].space, f)


# -- verifiers ---------------------------------------------------------------------


def _solution(o: Oracles, model: str, outcome: Outcome) -> np.ndarray:
    gen, _ = o.model(model)
    table = parse_vector_csv(outcome.artifact("solution.csv"), gen.size)
    Verdict.require(
        np.array_equal(table[:, 1], gen.space.points) and np.array_equal(table[:, 2], gen.space.weights),
        "solution.csv grid columns differ from the model grid",
    )
    return table[:, 3]


def _summary(outcome: Outcome, command: str) -> dict:
    summary = outcome.json("summary.json")
    Verdict.require(summary.get("command") == command, "summary.json command")
    return summary


def _witness(o: Oracles, model: str, scale: float, f, vd: Verdict) -> None:
    """Relative L2(m) error against the analytic OU inverse on |x| <= 3."""
    gen, _ = o.model(model)
    x, m = gen.space.points, gen.space.weights
    _, f_fun = o.sg.ou_witness_pair(1.0)
    mask = np.abs(x) <= 3.0
    vd.within("OU witness", rel_l2(f[mask], scale * f_fun(x[mask]), m[mask]), 1e-2, exact=False)


def _check_lambda_max(o: Oracles, model: str, expr: str, report: dict, vd: Verdict) -> None:
    _, dec = o.model(model)
    expected = o.sg.energetic_lambda_max(dec, o.observed(model, expr))
    vd.within("energetic lambdaMax", abs(report["lambdaMax"] - expected) / max(expected, 1.0), 1e-12)


def verify_invert(o, model, T, expr, coeff_tol, method, scale):
    def verify(outcome: Outcome, vd: Verdict) -> None:
        report = check_report(outcome, vd)
        _check_lambda_max(o, model, expr, report, vd)
        f = _solution(o, model, outcome)
        ref = o.spectral_inverse(model, T, expr, coeff_tol)
        m = o.model(model)[0].space.weights
        tol = 1e-5 if method == "bessel" else 1e-12
        vd.within(f"{method} invert vs spectral inverse", rel_l2(f, ref, m), tol)
        if scale is not None:
            _witness(o, model, scale, f, vd)
        _summary(outcome, "invert")

    return verify


def verify_invert_refused(o, model, expr):
    def verify(outcome: Outcome, vd: Verdict) -> None:
        error = outcome.json("error.json")
        Verdict.require(error.get("error") == "ConditioningCapExceeded", f"error.json error {error.get('error')!r}")
        Verdict.require(error.get("operation") == "invert", "error.json operation")
        report = check_report(outcome, vd)
        _check_lambda_max(o, model, expr, report, vd)

    return verify


def verify_diagnose(o, model, expr):
    def verify(outcome: Outcome, vd: Verdict) -> None:
        report = check_report(outcome, vd)
        _check_lambda_max(o, model, expr, report, vd)
        summary = _summary(outcome, "diagnose")
        Verdict.require(summary["membershipQuadrature"] == report["membershipQuadrature"], "summary vs report")

    return verify


def verify_regularise(o, model, T, expr, gamma, tstar):
    def verify(outcome: Outcome, vd: Verdict) -> None:
        f = _solution(o, model, outcome)
        _, dec = o.model(model)
        g = o.observed(model, expr)
        phi = o.sg.make_phi("jump_mixture", t_star=tstar, tau=1.0)
        config = o.sg.RegularisationConfig(gamma, phi, T)
        residual = o.sg.regularised_residual(dec, config, g, f) / o.norm(model, g)
        vd.within("regularised residual", residual, 1e-9)
        _summary(outcome, "regularise")

    return verify


def verify_mixture(o, model, T, expr, gamma, tstar):
    def verify(outcome: Outcome, vd: Verdict) -> None:
        f = _solution(o, model, outcome)
        _, dec = o.model(model)
        g = o.observed(model, expr)
        forward = o.sg.mixture_semigroup(o.sg.MixtureModel(dec, gamma, tstar), T)
        vd.within("mixture residual", o.norm(model, forward(f) - g) / o.norm(model, g), 1e-9)
        summary = _summary(outcome, "mixture")
        Verdict.require(
            summary["maxInverseMultiplier"] <= summary["inverseNormBound"] * (1.0 + 1e-12),
            "maxInverseMultiplier exceeds inverseNormBound",
        )

    return verify


def _trajectory(o, model, outcome: Outcome, T: float):
    gen, _ = o.model(model)
    n = gen.size
    data = outcome.artifact("trajectory.csv")
    steps = _summary(outcome, "pde")["steps"]
    Verdict.require(data.count(b"\n") == 1 + (steps + 1) * n, "trajectory row count != (steps+1)*n")
    t0, first = trajectory_block(data, n, "first")
    t1, last = trajectory_block(data, n, "last")
    Verdict.require(t0 == 0.0 and t1 == T, "trajectory end times")
    return first, last, gen.space.weights


def verify_pde(o, model, T, expr, coeff_tol, scale):
    def verify(outcome: Outcome, vd: Verdict) -> None:
        first, last, m = _trajectory(o, model, outcome, T)
        ref = o.spectral_inverse(model, T, expr, coeff_tol)
        vd.within("trajectory end vs spectral inverse", rel_l2(last, ref, m), 1e-12)
        # u(0) is g minus the modes below the coefficient floor.
        vd.within("trajectory start vs g", rel_l2(first, o.observed(model, expr), m), 1e-6, exact=False)
        _witness(o, model, scale, last, vd)

    return verify


def verify_pide(o, model, T, expr, gamma, tstar):
    def verify(outcome: Outcome, vd: Verdict) -> None:
        first, last, m = _trajectory(o, model, outcome, T)
        _, dec = o.model(model)
        g = o.observed(model, expr)
        ref = o.sg.regularised_pide_solve(o.sg.MixtureModel(dec, gamma, tstar), g, T, t_grid=[0.0, T])
        vd.within("PIDE end vs two-point solve", rel_l2(last, ref.values[-1], m), 1e-12)
        vd.within("PIDE start vs g", rel_l2(first, g, m), 1e-12)

    return verify


def verify_decompose(o, model, ladder: bool):
    def verify(outcome: Outcome, vd: Verdict) -> None:
        gen, dec = o.model(model)
        lines = outcome.artifact("eigenvalues.csv").decode("ascii").split("\n")
        Verdict.require(lines[0] == "index,lambda" and len(lines) == gen.size + 2, "eigenvalues.csv shape")
        lam = np.array([float(line.split(",")[1]) for line in lines[1:-1]])
        Verdict.require(np.all(np.diff(lam) >= 0.0) and lam[0] >= 0.0, "eigenvalues not ascending and >= 0")
        scale = max(float(dec.eigenvalues[-1]), 1.0)
        vd.within("eigenvalues vs oracle decomposition", float(np.max(np.abs(lam - dec.eigenvalues))) / scale, 1e-12)
        summary = _summary(outcome, "decompose")
        Verdict.require(summary["symmetryResidual"] <= 1e-12, "symmetryResidual above 1e-12")
        if ladder:
            k = np.arange(1, 5)
            vd.within("OU eigenvalue ladder", float(np.max(np.abs(lam[1:5] - k) / k)), 1e-3, exact=False)
        else:
            Verdict.require(lam[0] > 0.0, "a killed or Dirichlet generator needs lambda_0 > 0")

    return verify


# -- workloads ---------------------------------------------------------------------


def _argv(command: str, o: Oracles, model: str, *rest) -> list[str]:
    return [command, "--model", o.path(model), *[str(v) for v in rest]]


def _draw_scale(rng) -> float:
    return round(float(rng.uniform(0.5, 2.0)), 4)


def _draw_random(rng) -> str:
    return f"random({int(rng.integers(1, 2**31 - 1))})"


def _cli_op(key: str, argv: list[str], verify, expect_code: int = 0) -> Op:
    return Op(key=key, verify=verify, argv=argv, expect_code=expect_code)


def conditioning(o: Oracles, rng) -> Workload:
    T, model = 1.0, "ou400"
    cycle = []
    for b in range(3):
        scale = _draw_scale(rng)
        wit = f"{scale}*x^2"
        r1, r2, r3 = _draw_random(rng), _draw_random(rng), _draw_random(rng)
        cycle += [
            _cli_op(f"invert-spectral-{b}", _argv("invert", o, model, "--T", T, "--g", wit, "--coeff-tol", "1e-8"),
                    verify_invert(o, model, T, wit, 1e-8, "spectral", scale)),
            _cli_op(f"invert-bessel-{b}",
                    _argv("invert", o, model, "--T", T, "--g", wit, "--coeff-tol", "1e-8", "--method", "bessel"),
                    verify_invert(o, model, T, wit, 1e-8, "bessel", scale)),
            _cli_op(f"diagnose-witness-{b}", _argv("diagnose", o, model, "--T", T, "--g", wit),
                    verify_diagnose(o, model, wit)),
            _cli_op(f"diagnose-random-{b}", _argv("diagnose", o, model, "--T", T, "--g", r1),
                    verify_diagnose(o, model, r1)),
            _cli_op(f"regularise-{b}",
                    _argv("regularise", o, model, "--T", T, "--g", r2, "--gamma", 0.1, "--phi", "jump_mixture",
                          "--tstar", 1.0),
                    verify_regularise(o, model, T, r2, 0.1, 1.0)),
            _cli_op(f"mixture-{b}", _argv("mixture", o, model, "--T", T, "--g", r3, "--gamma", 0.1, "--tstar", 1.0),
                    verify_mixture(o, model, T, r3, 0.1, 1.0)),
        ]
    lap, T_lap = "laplacian400", 0.02
    r4, r5 = _draw_random(rng), _draw_random(rng)
    cycle += [
        _cli_op("laplacian-diagnose", _argv("diagnose", o, lap, "--T", T_lap, "--g", r4),
                verify_diagnose(o, lap, r4)),
        _cli_op("laplacian-invert-bessel",
                _argv("invert", o, lap, "--T", T_lap, "--g", r5, "--method", "bessel"),
                verify_invert_refused(o, lap, r5), expect_code=3),
    ]
    return Workload("conditioning-ou400", cycle, min_cycles=2, setup_argv=cycle[0].argv)


def trajectory(o: Oracles, rng) -> Workload:
    """Three mixed-PIDE trajectories (jump400) and one big spectral one (ou400).

    Both kinds are dominated by CSV formatting.  The PIDE ops are the
    majority, so the median rests on many samples per run, while the big
    trajectory sets the tail percentile and the memory peak.  A PIDE op comes
    first, so ``setup_s`` is start-up plus one ordinary command rather than
    a second copy of the 33 MB write that the tail already measures.
    """
    T = 1.0
    cycle = []
    for b in range(3):
        r = _draw_random(rng)
        cycle.append(_cli_op(f"pde-mixed-jump400-{b}",
                             _argv("pde", o, "jump400", "--T", T, "--g", r, "--gamma", 0.1, "--tstar", 1.0),
                             verify_pide(o, "jump400", T, r, 0.1, 1.0)))
    model = "ou400"
    scale = _draw_scale(rng)
    wit = f"{scale}*x^2"
    cycle.append(_cli_op("pde-spectral-ou400", _argv("pde", o, model, "--T", T, "--g", wit, "--coeff-tol", "1e-8"),
                         verify_pde(o, model, T, wit, 1e-8, scale)))
    return Workload("trajectory-io", cycle, min_cycles=12, setup_argv=cycle[0].argv)


def eigen_ladder(o: Oracles, rng) -> Workload:
    """decompose, mixture and regularise on jump1000, ou2000 and killed2000.

    The n = 2000 ops take about 2 s and the jump1000 ops about 0.25 s, so
    the tail percentile needs 4 cycles (36 ops) to land in the upper half of
    the n = 2000 ops.  The jump1000 ops come first, so ``setup_s`` is
    start-up plus one dense n = 1000 ``eigh``.
    """
    T = 1.0
    cycle = []
    for model in ("jump1000", "ou2000", "killed2000"):
        r1, r2 = _draw_random(rng), _draw_random(rng)
        cycle += [
            _cli_op(f"decompose-{model}", _argv("decompose", o, model),
                    verify_decompose(o, model, ladder=model.startswith("ou"))),
            _cli_op(f"mixture-{model}",
                    _argv("mixture", o, model, "--T", T, "--g", r1, "--gamma", 0.1, "--tstar", 1.0),
                    verify_mixture(o, model, T, r1, 0.1, 1.0)),
            _cli_op(f"regularise-{model}",
                    _argv("regularise", o, model, "--T", T, "--g", r2, "--gamma", 0.1, "--phi", "jump_mixture",
                          "--tstar", 1.0),
                    verify_regularise(o, model, T, r2, 0.1, 1.0)),
        ]
    return Workload("eigen-ladder", cycle, min_cycles=4, setup_argv=cycle[0].argv)


def _lib_op(key: str, call, verify) -> Op:
    return Op(key=key, verify=verify, call=call)


def _result(outcome: Outcome) -> np.ndarray:
    return np.frombuffer(outcome.artifact("result"), dtype=float)


# batch-apply draws this many observations, each planted in the lowest
# BATCH_MODES modes.
BATCH_POOL = 32
BATCH_MODES = 8


def batch_apply(o: Oracles, rng, work_dir: Path) -> Workload:
    """One decomposition of ou1000, then many cheap library solves.

    Each observation is g = P_T f0 for an f0 planted in the lowest
    ``BATCH_MODES`` modes with coefficient magnitudes in [0.5, 1.5], so every
    planted mode of g stays far above the 1e-8 coefficient floor of
    ``invert_spectral``.
    """
    sg, model = o.sg, "ou1000"
    T, gamma, tstar, alpha = 1.0, 0.1, 1.0, 1.0
    gen, dec = o.model(model)
    space = gen.space
    reg = sg.RegularisationConfig(gamma, sg.make_phi("jump_mixture", t_star=tstar, tau=1.0), T)
    mix = sg.MixtureModel(dec, gamma, tstar)
    forward = sg.mixture_semigroup(mix, T)
    damp = np.exp(-dec.eigenvalues * T)

    def rel(v, ref):
        return sg.norm(space, v - ref) / sg.norm(space, ref)

    cycle = []
    first_obs = None
    for j in range(BATCH_POOL):
        c0 = np.zeros(dec.size)
        c0[:BATCH_MODES] = rng.choice([-1.0, 1.0], BATCH_MODES) * rng.uniform(0.5, 1.5, BATCH_MODES)
        f0 = dec.eigenvectors @ c0
        g = dec.eigenvectors @ (damp * c0)
        g_norm = sg.norm(space, g)
        problem = sg.InverseProblem(dec, T, g)
        if first_obs is None:
            first_obs = work_dir / "batch-apply-observation-0.npy"
            np.save(first_obs, g)

        def v_invert(out, vd, f0=f0, g=g):
            f = _result(out)
            vd.within("invert_spectral vs planted f", rel(f, f0), 1e-8)
            vd.within("semigroup_apply round trip", rel(sg.semigroup_apply(dec, T, f), g), 1e-10)

        def v_regularised(out, vd, g=g, g_norm=g_norm):
            vd.within("regularised residual", sg.regularised_residual(dec, reg, g, _result(out)) / g_norm, 1e-10)

        def v_tikhonov(out, vd, g=g):
            f = _result(out)
            vd.within("tikhonov residual", rel(sg.semigroup_apply(dec, T, f) + gamma * f, g), 1e-10)

        def v_mixture(out, vd, g=g):
            vd.within("mixture residual", rel(forward(_result(out)), g), 1e-10)

        def v_semigroup(out, vd, g=g):
            vd.within("semigroup_apply vs planted g", rel(_result(out), g), 1e-10)

        def v_resolvent(out, vd, g=g):
            u = _result(out)
            vd.within("resolvent equation residual", rel(alpha * u - gen.matrix @ u, g), 1e-8)

        cycle += [
            _lib_op(f"invert_spectral-{j}", lambda p=problem: sg.invert_spectral(p, coeff_tol=1e-8), v_invert),
            _lib_op(f"regularised_solve-{j}", lambda g=g: sg.regularised_solve(dec, reg, g), v_regularised),
            _lib_op(f"tikhonov_solve-{j}", lambda g=g: sg.tikhonov_solve(dec, gamma, T, g), v_tikhonov),
            _lib_op(f"mixture_invert-{j}", lambda g=g: sg.mixture_invert(mix, T, g), v_mixture),
            _lib_op(f"semigroup_apply-{j}", lambda f=f0: sg.semigroup_apply(dec, T, f), v_semigroup),
            _lib_op(f"resolvent_apply-{j}", lambda g=g: sg.resolvent_apply(dec, alpha, g), v_resolvent),
        ]
    return Workload("batch-apply", cycle, min_cycles=1, setup_argv=[o.path(model), str(first_obs), str(T)],
                    setup_child=LIB_CHILD)


def generate(name: str, seed: int, sg, cli, work_dir: Path) -> Workload:
    """Write the model files and build the workload for ``seed``."""
    model_dir = work_dir / "models"
    model_dir.mkdir(parents=True, exist_ok=True)
    for model, spec in MODELS.items():
        (model_dir / f"{model}.json").write_text(json.dumps(spec()), encoding="utf-8")
    oracles = Oracles(sg, cli, model_dir)
    rng = np.random.default_rng(seed)
    if name == "batch-apply":
        return batch_apply(oracles, rng, work_dir)
    builders = {"conditioning-ou400": conditioning, "trajectory-io": trajectory, "eigen-ladder": eigen_ladder}
    if name not in builders:
        raise ValueError(f"unknown workload {name!r}")
    return builders[name](oracles, rng)
