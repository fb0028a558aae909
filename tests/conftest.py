"""Shared model fixtures: small hand-checkable chains and desk-scale grids."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import semigroupinv as sg

# Hypothesis tests draw the same examples on every run, unless their own
# settings say otherwise.  The "random" profile draws afresh:
# ``--hypothesis-profile random --hypothesis-seed N`` replays the draws of seed N.
settings.register_profile("default", derandomize=True)
settings.register_profile("random", derandomize=False)
settings.load_profile("default")

_SRC = str(Path(sg.__file__).resolve().parent.parent)


@pytest.fixture(scope="session")
def chain2():
    """The 2-state oracle chain: eigenvalues {0, 1}, uniform weights."""
    gen = sg.build_chain([[-0.5, 0.5], [0.5, -0.5]], [1.0, 1.0])
    return gen, sg.spectral_decompose(gen)


@pytest.fixture(scope="session")
def chain3():
    """3-state path chain with distinct eigenvalues {0, 1, 3}."""
    gen = sg.build_chain(
        [[-1.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]], [1.0, 1.0, 1.0]
    )
    return gen, sg.spectral_decompose(gen)


@pytest.fixture(scope="session")
def jump30():
    """Gaussian-kernel jump generator on 30 points; spectrum inside [0, 2]."""
    space = sg.build_space(np.linspace(-3.0, 3.0, 30), np.full(30, 6.0 / 30))
    gen = sg.build_jump(sg.gaussian_jump_kernel(space, 1.0))
    return gen, sg.spectral_decompose(gen)


@pytest.fixture(scope="session")
def ou50():
    """Mean-reverting diffusion, n=50: lambda_max ~ 33."""
    gen = sg.build_ou(6.0, 50, 1.0)
    return gen, sg.spectral_decompose(gen)


@pytest.fixture(scope="session")
def ou400():
    """Witness-scale mean-reverting diffusion, n=400 on [-6, 6]."""
    gen = sg.build_ou(6.0, 400, 1.0)
    return gen, sg.spectral_decompose(gen)


@pytest.fixture(scope="session")
def ou1000():
    """The benchmark's ou1000: at T = 1 only its first 149 semigroup multipliers are nonzero."""
    gen = sg.build_ou(6.0, 1000, 1.0)
    return gen, sg.spectral_decompose(gen)


@pytest.fixture(scope="session")
def jump400():
    """The benchmark's jump400: Gaussian jumps of variance 0.5 under Gaussian weights, on the dense eigh route."""
    x = np.linspace(-3.0, 3.0, 400)
    space = sg.build_space(x, np.exp(-0.5 * x**2) / np.sqrt(2.0 * np.pi) * (x[1] - x[0]))
    gen = sg.build_jump(sg.gaussian_jump_kernel(space, 0.5))
    return gen, sg.spectral_decompose(gen)


@pytest.fixture(scope="session")
def laplacian50_dirichlet():
    """Absorbing Laplacian f''/2 on [0, pi], n=50: lambda_k ~ k^2/2."""
    gen = sg.build_diffusion(
        sg.DiffusionSpec(
            left=0.0, right=np.pi, n=50,
            boundary_left="dirichlet", boundary_right="dirichlet",
        )
    )
    return gen, sg.spectral_decompose(gen)


@pytest.fixture(scope="session")
def laplacian50_neumann():
    """Reflecting Laplacian f''/2 on [0, pi], n=50: conservative."""
    gen = sg.build_diffusion(sg.DiffusionSpec(left=0.0, right=np.pi, n=50))
    return gen, sg.spectral_decompose(gen)


@pytest.fixture(scope="session")
def laplacian400():
    """Reflecting Laplacian on [0, pi], n=400: lambda_max ~ 3.2e4."""
    gen = sg.build_diffusion(sg.DiffusionSpec(left=0.0, right=np.pi, n=400))
    return gen, sg.spectral_decompose(gen)


@pytest.fixture(scope="session")
def dirichlet_laplacian400():
    """The benchmark's laplacian400: absorbing walls on [0, pi], n=400; lambda_max ~ 3.2e4."""
    gen = sg.build_diffusion(sg.DiffusionSpec(left=0.0, right=np.pi, n=400, boundary_left="dirichlet",
                                              boundary_right="dirichlet"))
    return sg.spectral_decompose(gen)


def expm_2state(a: float, b: float, t: float) -> np.ndarray:
    """Closed-form matrix exponential of [[-a, a], [b, -b]].

    Independent oracle for the 2-state chain: spectral projections onto the
    stationary vector and its complement, decay rate a + b.
    """
    s = a + b
    pi0 = np.array([[b, a], [b, a]]) / s
    pi1 = np.array([[a, -a], [-b, b]]) / s
    return pi0 + np.exp(-s * t) * pi1


def rk4(rhs, y0: np.ndarray, t_grid: np.ndarray) -> np.ndarray:
    """Classical fixed-step Runge-Kutta integrator, oracle quality."""
    out = np.empty((t_grid.size,) + y0.shape)
    out[0] = y0
    y = y0.astype(float)
    for i in range(t_grid.size - 1):
        h = t_grid[i + 1] - t_grid[i]
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i + 1] = y
    return out


def failing_dstevd(*args):
    """Stands in for LAPACK ``dstevd`` and reports failure through INFO, its eleventh argument."""
    args[10][0] = 1


def single_thread_probe(code: str, *args: str) -> dict:
    """Run ``code`` in a fresh interpreter with one BLAS thread; parse its JSON.

    Bit-level pins hold for single-threaded BLAS only, as the benchmark runs it.
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, check=False
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)
