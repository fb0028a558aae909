"""Byte identity and memory of the blocked Bochner integrands.

Every Σ_k w_k exp(-s r_k) goes through ``_decay_sum``, which evaluates it
one row block at a time: the scalar integrands over the nodes, and the
per-mode multipliers of ``invert_bessel`` and ``resolvent_flow_quadrature``
(mode rates as rows, nodes as columns), which the quadrature's
``integrand(s, w)`` returns as its node sums.  The blocks must not change
a single bit.  The scalar twins' pins were computed from the unblocked
``exp(-outer(s, r)) @ w`` code; the ``invert-bessel`` solution and
summary and the flow hash from the unblocked multipliers.

The bit contract holds for single-threaded BLAS.  A threaded GEMV splits
its rows between threads at offsets that need not be multiples of 4, and
then the unblocked product itself changes in the last bits with the thread
count.  The bit-level checks therefore run in a child process with one
BLAS thread, as the benchmark does.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np

import semigroupinv as sg

_SRC = str(Path(sg.__file__).resolve().parent.parent)

SMALL_OU = {"schemaVersion": 1, "type": "ou", "parameters": {"halfWidth": 4.0, "n": 24, "rate": 1.0}}

# run/artifact -> SHA-256 of the artifact written by the unblocked code
GOLDEN_ARTIFACTS = {
    "diagnose/report.json": "46345d25ff96205076d4f33802b844445f6b6c8933899288b24e971bee6eb07c",
    "diagnose/summary.json": "08e7df5027a047c69c0c63fb645ba4bfde37044c8caa1bceffcb6037ab60e5f4",
    "invert-bessel/report.json": "37688da6fcf6165a8815ffc36636b847e290346582893e2bfcefcf95c9f0b344",
    "invert-bessel/solution.csv": "d22f3a7640b9dc183f02445addb4277df7dab301963bf29cbff1c3ef91a82fb3",
    "invert-bessel/summary.json": "a49d947117be2e6419feca13395f63158964a2d60b84ee68181d5479493f7bdc",
}
GOLDEN_RUNS = {
    "diagnose": ["diagnose", "--T", "1", "--g", "1.3*x^2", "--alpha", "1.5"],
    "invert-bessel": ["invert", "--T", "0.5", "--g", "1.3*x^2", "--coeff-tol", "1e-8", "--method", "bessel"],
}
GOLDEN_HEX = {
    "laplace_diagnostic": ["0x1.1930734d06409p+0", "0x1.1930734d06409p+0"],
    "squared_bessel_h_quadrature": "0x1.53b224287531dp-1",
    # the remaining Bessel twins, pinned while each still took a QuadratureConfig
    "resolvent_flow_quadrature": "916071f148498fbcb7910ba49db98e69e5fe5368542d45d4f14e22898a64656b",
    "laplace_j0_identity": ["0x1.78b56362cfe3ap-2", "0x1.78b56362cef38p-2"],
    "laplace_i0_identity": ["0x1.d8e64b8d4dd2ep+3", "0x1.d8e64b8d4ddaep+3"],
    "squared_bessel_pde_check": "0x1.0ddc424800000p-23",
}

_PROBE = r"""
import hashlib, json, sys
from pathlib import Path
import numpy as np
import semigroupinv as sg
from semigroupinv import cli

model, work, runs = Path(sys.argv[1]), Path(sys.argv[2]), json.loads(sys.argv[3])
hashes = {}
for name, argv in runs.items():
    out = work / name
    try:
        cli.main(argv + ["--model", str(model), "--output", str(out)])
    except SystemExit as exc:
        assert exc.code == 0, (name, exc.code)
    for path in sorted(out.iterdir()):
        hashes[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()

gen = cli.load_model_file(model)
dec = sg.spectral_decompose(gen)
f = 1.3 * gen.space.points**2
lhs, rhs = sg.laplace_diagnostic(dec, 1.0, f, 0.5)
h = sg.squared_bessel_h_quadrature(dec, f, 1.0, 0.25, 0.7)
flow = sg.resolvent_flow_quadrature(dec, 1.0, 1.0, f)
j0 = sg.laplace_j0_identity(1.0, 1.0)
i0 = sg.laplace_i0_identity(0.5, 2.0)
pde = sg.squared_bessel_pde_check(dec, f, 1.0, np.linspace(0.3, 0.308, 9), np.linspace(0.5, 0.508, 9))
print(json.dumps({
    "sha256": hashes,
    "hex": {
        "laplace_diagnostic": [lhs.hex(), rhs.hex()],
        "squared_bessel_h_quadrature": h.hex(),
        "resolvent_flow_quadrature": hashlib.sha256(flow.tobytes()).hexdigest(),
        "laplace_j0_identity": [v.hex() for v in j0],
        "laplace_i0_identity": [v.hex() for v in i0],
        "squared_bessel_pde_check": pde.max_residual.hex(),
    },
}))
"""

_BITS_PROBE = r"""
import json, sys
import numpy as np
from semigroupinv.inversion import _block_rows, _decay_sum

rng = np.random.default_rng(20161)
failures, cases = [], 0
for n_modes in (1, 400, 2000):
    rows = _block_rows(n_modes)
    for n_nodes in (1, 3, 31, 32, 33, rows - 1, rows, rows + 1, 2 * rows + 1, 5 * rows + 7):
        s = np.sort(rng.uniform(0.0, 40.0, n_nodes))
        rates = rng.uniform(1e-3, 3.0, n_modes)
        weights = rng.standard_normal(n_modes)
        expected = np.exp(-np.outer(s, rates)) @ weights
        got = _decay_sum(s, rates, weights)
        cases += 1
        if got.shape != expected.shape or not np.array_equal(got, expected):
            failures.append([n_modes, n_nodes])
print(json.dumps({"cases": cases, "failures": failures}))
"""

# The vector twins' layout: a few mode rates as rows, many nodes as columns.
_MULTIPLIER_BITS_PROBE = r"""
import json
import numpy as np
from semigroupinv.inversion import _decay_sum

rng = np.random.default_rng(20162)
failures = []
for n_modes in (1, 3, 33, 400):
    for n_nodes in (1025, 20001):
        rates = np.sort(rng.uniform(1e-3, 3.0, n_modes))
        s = rng.uniform(0.0, 40.0, n_nodes)
        w = rng.standard_normal(n_nodes)
        if not np.array_equal(_decay_sum(rates, s, w), np.exp(-np.outer(rates, s)) @ w):
            failures.append([n_modes, n_nodes])
print(json.dumps({"failures": failures}))
"""


def _single_thread_probe(code: str, *args: str) -> dict:
    """Run ``code`` in a fresh interpreter with one BLAS thread; parse its JSON."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, check=False
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_decay_sum_is_bit_identical_to_the_unblocked_product():
    result = _single_thread_probe(_BITS_PROBE)
    assert result["cases"] == 30
    assert result["failures"] == []


def test_per_mode_multipliers_are_bit_identical_to_the_unblocked_product():
    assert _single_thread_probe(_MULTIPLIER_BITS_PROBE)["failures"] == []


def test_conditioning_artifacts_and_integrals_are_pinned(tmp_path):
    model = tmp_path / "ou24.json"
    model.write_text(json.dumps(SMALL_OU), encoding="utf-8")
    result = _single_thread_probe(_PROBE, str(model), str(tmp_path / "out"), json.dumps(GOLDEN_RUNS))
    for key, sha256 in GOLDEN_ARTIFACTS.items():
        assert result["sha256"][key] == sha256, key
    assert result["hex"] == GOLDEN_HEX


def test_invert_bessel_memory_does_not_grow_with_nodes_times_modes(ou400):
    """All 400 modes of random(3) are active at T = 0.005 (lambda_max T = 11.2).

    A nodes x modes field would take 364 MB here; the per-mode multipliers
    need one ``_decay_sum`` block of 32 modes x nodes.
    """
    gen, dec = ou400
    g = np.random.default_rng(3).standard_normal(gen.size)  # the CLI's random(3)
    problem = sg.InverseProblem(dec, 0.005, g)
    tracemalloc.start()
    try:
        f = sg.invert_bessel(problem, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    exact = sg.invert_spectral(problem)
    assert sg.norm(gen.space, f - exact) <= 1e-13 * sg.norm(gen.space, exact)
    assert peak < 32 * 2**20


def test_conditioning_report_memory_does_not_grow_with_nodes_times_modes(ou400):
    """ou400 at T = 1 integrates over ~5e4 nodes x 400 modes (158 MB a matrix)."""
    gen, dec = ou400
    problem = sg.InverseProblem(dec, 1.0, 1.3 * gen.space.points**2)
    tracemalloc.start()
    try:
        report = sg.conditioning_report(problem, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(report.membership_quadrature)
    assert peak < 32 * 2**20
