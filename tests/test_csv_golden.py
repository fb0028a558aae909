"""Byte identity of the CSV artifacts.

Every writer renders rows through one %-template per table.  The reference
writers below format one cell at a time with ``format(float(x), ".17g")``;
the library must produce exactly the same text, down to signed zeros,
subnormals, whole numbers, non-finite values and the LF line endings.  The
pinned SHA-256 values are the artifacts of small fixed CLI runs of every
command, written by the reference formatting.
"""

import hashlib
import json

import numpy as np
import pytest

import semigroupinv as sg
from semigroupinv import cli
from semigroupinv.regularisation import GammaStudyRow

SPECIAL = [
    0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300,
    1.0, -3.0, 2.0**53, 123456789.0, 0.1, -2.5e-7, np.pi,
    np.nan, np.inf, -np.inf,
]


def _fmt(x) -> str:
    return format(float(x), ".17g")


def reference_vector_csv(space, values) -> str:
    lines = ["index,x,m,value"]
    for i in range(space.size):
        lines.append(
            f"{i},{_fmt(space.points[i])},{_fmt(space.weights[i])},{_fmt(values[i])}"
        )
    return "\n".join(lines) + "\n"


def reference_trajectory_csv(traj) -> str:
    lines = ["t,index,value"]
    for i, t in enumerate(traj.times):
        for j in range(traj.values.shape[1]):
            lines.append(f"{_fmt(t)},{j},{_fmt(traj.values[i, j])}")
    return "\n".join(lines) + "\n"


def reference_gamma_csv(rows) -> str:
    lines = ["gamma,error,residual"]
    for row in rows:
        lines.append(f"{_fmt(row.gamma)},{_fmt(row.error)},{_fmt(row.residual)}")
    return "\n".join(lines) + "\n"


def reference_eigenvalues_csv(eigenvalues) -> str:
    lines = ["index,lambda"]
    for k, lam in enumerate(eigenvalues):
        lines.append(f"{k},{_fmt(lam)}")
    return "\n".join(lines) + "\n"


def _wide_range(rng, shape) -> np.ndarray:
    """Normal draws scaled across the whole double exponent range."""
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-320.0, 300.0, shape)


class TestWritersMatchReference:
    def test_vector_to_csv(self):
        rng = np.random.default_rng(11)
        points = np.array([-1e300, -3.0, -1e-300, -0.0, 5e-324, 1e-300, 0.1, 1.0, 2.0**53, 1e300])
        weights = np.array([5e-324, 1e-300, 0.1, 1.0, 2.0, 3.0, 1e10, 2.0**53, 1e300, 7.25])
        space = sg.build_space(points, weights)
        for values in (np.array(SPECIAL[: space.size]), np.array(SPECIAL[-space.size:]),
                       _wide_range(rng, space.size)):
            assert sg.vector_to_csv(space, values) == reference_vector_csv(space, values)
        big = sg.build_space(np.sort(rng.uniform(-5, 5, 300)), rng.uniform(0.1, 2.0, 300))
        values = _wide_range(rng, 300)
        assert sg.vector_to_csv(big, values) == reference_vector_csv(big, values)

    @pytest.mark.parametrize("shape", [(1, 1), (3, len(SPECIAL)), (41, 17), (0, 5)])
    def test_trajectory_to_csv(self, shape):
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        values = _wide_range(rng, shape)
        values.flat[: min(values.size, len(SPECIAL))] = SPECIAL[: values.size]
        times = np.array([0.0, 5e-324, 1.0, 1e-300, 0.1, 2.0**53, -0.0, 1e300] * 8)[: shape[0]]
        traj = sg.BackwardTrajectory(times, values)
        assert sg.trajectory_to_csv(traj) == reference_trajectory_csv(traj)

    def test_gamma_study_to_csv(self):
        rows = [GammaStudyRow(a, b, c) for a, b, c in zip(SPECIAL, SPECIAL[3:], SPECIAL[6:])]
        assert sg.gamma_study_to_csv(rows) == reference_gamma_csv(rows)
        assert sg.gamma_study_to_csv([]) == reference_gamma_csv([])

    def test_decompose_csv(self, tmp_path):
        gen = sg.build_ou(2.0, len(SPECIAL), 1.0)
        eigenvalues = np.array(SPECIAL)
        dec = sg.SpectralDecomposition(gen.space, eigenvalues, np.eye(gen.size))
        cli._cmd_decompose(None, gen, dec, tmp_path)
        text = (tmp_path / "eigenvalues.csv").read_text(encoding="utf-8")
        assert text == reference_eigenvalues_csv(eigenvalues)


SMALL_OU = {"schemaVersion": 1, "type": "ou", "parameters": {"halfWidth": 2.0, "n": 8, "rate": 1.0}}

GOLDEN_RUNS = [
    (["decompose"], "eigenvalues.csv",
     "94e30cd2c8aa07ba0e74085c2a33133f9203cd2bb3e534f30651c1349c79a7fc"),
    (["pde", "--T", "0.25", "--g", "x^2"], "trajectory.csv",
     "d09a35bd8bdca16f74b83a4ae76743a0546c482a6308c8af362b144bc5db66a8"),
    (["pde", "--T", "0.25", "--g", "x^2", "--gamma", "0.2", "--tstar", "0.5"], "trajectory.csv",
     "458cd337e267988e5adf6bd3959d66eb4c22e75de194ba6b81fc6dbced5807cd"),
    (["invert", "--T", "0.25", "--g", "x^2"], "solution.csv",
     "ba5d974701b21bee3accfa15c7f8a34c3c472d1aae9343bf733d118957e25513"),
    (["regularise", "--T", "0.25", "--g", "x^2", "--gamma", "0.1", "--phi", "tikhonov_exp"], "solution.csv",
     "cd40452f3ff03901586f934112868d2f5fddbae72769773265fef3d43971a471"),
    (["regularise", "--T", "0.25", "--g", "x^2", "--gamma", "0.1", "--phi", "constant", "--value", "2"],
     "solution.csv", "eccc064c4c1faddbbebea7996edf0c734f3f78b0b5a53cc6fa13b2e525271f12"),
    (["regularise", "--T", "0.25", "--g", "x^2", "--gamma", "0.1", "--phi", "jump_mixture", "--tstar", "0.5"],
     "solution.csv", "30fd3b0b1530021e1ce989b7f09e0579c3064b4cfdb144bfc20817ce4ec87b21"),
    (["regularise", "--T", "0.25", "--g", "x^2", "--gamma", "0.1", "--phi", "resolvent_jump", "--alpha", "2",
      "--tau", "0.5"], "solution.csv", "34133e59d91cab216d4a2365b3c06c6dc2aad6ba307ac75331d601a6fbdcbe8c"),
    (["mixture", "--T", "0.25", "--g", "x^2", "--gamma", "0.2", "--tstar", "0.5"], "solution.csv",
     "33765cdba500abbe565eaf66f0258db199739dff43eec314b2896cd77ce095fe"),
    (["mixture", "--T", "0.25", "--g", "x^2", "--gamma", "0.2", "--tstar", "0.5"], "summary.json",
     "9d32ebee9519fcfb6f874d180418cd72541cb06bfb46bbf8165d7d8fa6705edc"),
    (["sweep", "--T", "0.25", "--g", "x^2", "--phi", "tikhonov_exp"], "sweep.csv",
     "eae6f41a65cdb2440fc13a1a8d28f2a4c55650663454ec6173c055d7b79690d1"),
    (["check"], "summary.json",
     "b9714b786400dff0cbfa372aec65a4dfa5f69730e4ccbe5cbafa941985706d70"),
]
GOLDEN_IDS = [
    "decompose", "pde", "pde-mixed", "invert", "regularise-tikhonov_exp", "regularise-constant",
    "regularise-jump_mixture", "regularise-resolvent_jump", "mixture-solution", "mixture-summary",
    "sweep", "check",
]


@pytest.mark.parametrize("argv, artifact, sha256", GOLDEN_RUNS, ids=GOLDEN_IDS)
def test_cli_artifact_sha256(tmp_path, argv, artifact, sha256):
    model = tmp_path / "ou8.json"
    model.write_text(json.dumps(SMALL_OU), encoding="utf-8")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--model", str(model), "--output", str(out)])
    assert exc.value.code == 0
    assert hashlib.sha256((out / artifact).read_bytes()).hexdigest() == sha256
