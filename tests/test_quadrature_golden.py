"""Pins, node-block contract and memory of the Bessel twins.

Every twin integrates its per-mode Laplace multipliers with
``bessel.j0_multipliers`` or ``bessel.i0_multipliers``.  The J0 node sums go
through ``bessel._decay_sum``: the modes are rows and the nodes are taken in
column blocks of about ``_BLOCK_CELLS`` cells; the I0 windows take their
modes in row blocks of the same size.  The blocks split each mode's
sum, so ``_decay_sum`` agrees with the unblocked ``exp(-outer(rates, s)) @ w``
within a few ulps of the sum of absolute terms rather than bit for bit, and
it repeats its own bits exactly.  Its memory is one block, whatever the
node count.

The pinned artifacts and hex values are those of the multiplier twins.  The
pins hold for single-threaded BLAS: a threaded GEMV splits its rows between
threads, which changes the last bits with the thread count.  The pins are
therefore computed in a child process with one BLAS thread, as the
benchmark does.
"""

import json
import tracemalloc

import numpy as np
import pytest

import semigroupinv as sg
from conftest import single_thread_probe
from semigroupinv.bessel import _BLOCK_CELLS, _decay_sum

SMALL_OU = {"schemaVersion": 1, "type": "ou", "parameters": {"halfWidth": 4.0, "n": 24, "rate": 1.0}}

# run/artifact -> SHA-256 of the artifact written by the multiplier twins
GOLDEN_ARTIFACTS = {
    "diagnose/report.json": "901e9d9e0a796fd667d0a204dfb7b634f5faf7c4a33a8fad3497efb3f35121f0",
    "diagnose/summary.json": "7a561f744988dc363bf741868e21097e0ba16e1e206ab6a0f169f9a686bbfa14",
    "invert-bessel/report.json": "01621093636e850fae4c6395de83dd2ce0402f8dd149e619e0f6e178486062c5",
    "invert-bessel/solution.csv": "9c435b3c100b7b48ae598dd256e47f69a40aec2e1f08f68412ac6ba39ec034ba",
    "invert-bessel/summary.json": "b8622e14b58413fad171ea0309e582cc1d8112c68e145a470b700217864ec0b9",
}
GOLDEN_RUNS = {
    "diagnose": ["diagnose", "--T", "1", "--g", "1.3*x^2", "--alpha", "1.5"],
    "invert-bessel": ["invert", "--T", "0.5", "--g", "1.3*x^2", "--coeff-tol", "1e-8", "--method", "bessel"],
}
GOLDEN_HEX = {
    "laplace_diagnostic": ["0x1.1930734d06408p+0", "0x1.1930734d06409p+0"],
    "squared_bessel_h_quadrature": "0x1.53b224287501cp-1",
    "resolvent_flow_quadrature": "24ccbe7bf2d91320d8407529bea51b0da22d14a96124214ec3bfaec15a48d069",
    "laplace_j0_identity": ["0x1.78b56362cfe3ap-2", "0x1.78b56362cef38p-2"],
    "laplace_i0_identity": ["0x1.d8e64b8d4ddadp+3", "0x1.d8e64b8d4ddaep+3"],
    "squared_bessel_pde_check": "0x1.0dcc63c800000p-23",
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

class TestDecaySum:
    """``_decay_sum`` against the unblocked product, on both sides of every block edge."""

    CASES = [
        (n_modes, n_nodes)
        for n_modes in (1, 24, 400, 2000)
        for cols in [max(1, _BLOCK_CELLS // n_modes)]
        for n_nodes in (1, 3, cols - 1, cols, cols + 1, 5 * cols + 7, 20001)
    ]

    @staticmethod
    def _draw(n_modes, n_nodes):
        rng = np.random.default_rng(20161 + 7 * n_modes + n_nodes)
        return rng.uniform(1e-3, 3.0, n_modes), np.sort(rng.uniform(0.0, 40.0, n_nodes)), rng.standard_normal(n_nodes)

    @pytest.mark.parametrize("n_modes, n_nodes", CASES)
    def test_agrees_with_the_unblocked_product_to_8_ulps(self, n_modes, n_nodes):
        """|blocked - unblocked| <= 8 eps sum_j |w_j| exp(-r s_j); the worst of these cases is 2.1 eps."""
        rates, s, w = self._draw(n_modes, n_nodes)
        terms = np.exp(-np.outer(rates, s))
        got = _decay_sum(rates, s, w)
        assert got.shape == (n_modes,)
        assert np.all(np.abs(got - terms @ w) <= 8 * np.finfo(float).eps * (terms @ np.abs(w)))

    @pytest.mark.parametrize("n_modes, n_nodes", [(1, 40000), (24, 6832), (400, 20001)])
    def test_repeat_calls_are_bit_identical(self, n_modes, n_nodes):
        rates, s, w = self._draw(n_modes, n_nodes)
        assert np.array_equal(_decay_sum(rates, s, w), _decay_sum(rates, s, w))


def test_conditioning_artifacts_and_integrals_are_pinned(tmp_path):
    model = tmp_path / "ou24.json"
    model.write_text(json.dumps(SMALL_OU), encoding="utf-8")
    result = single_thread_probe(_PROBE, str(model), str(tmp_path / "out"), json.dumps(GOLDEN_RUNS))
    for key, sha256 in GOLDEN_ARTIFACTS.items():
        assert result["sha256"][key] == sha256, key
    assert result["hex"] == GOLDEN_HEX


def test_invert_bessel_memory_does_not_grow_with_nodes_times_modes(ou400):
    """All 400 modes of random(3) are active at T = 0.005 (lambda_max T = 11.2).

    Each mode is integrated over its own I0 window, 128 nodes after one
    halving, and the modes are taken in row blocks of ``_BLOCK_CELLS``
    cells: the call peaks at 3.7 MB (tracemalloc), bounded at 8 MB.
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
    assert peak < 8 * 2**20


def test_conditioning_report_memory_does_not_grow_with_nodes_times_modes(ou400):
    """ou400 at T = 1: 400 per-mode I0 windows of 128 nodes each, peak 1.9 MB (tracemalloc), bounded at 8 MB.

    One node layout shared by all modes would need about 5e4 nodes here.
    """
    gen, dec = ou400
    problem = sg.InverseProblem(dec, 1.0, 1.3 * gen.space.points**2)
    tracemalloc.start()
    try:
        report = sg.conditioning_report(problem, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(report.membership_quadrature)
    assert peak < 8 * 2**20


def test_invert_bessel_memory_is_bounded_by_the_node_block():
    """ou n=400 on [-1, 1] (lambda_max 8.0e4) at T = 19/lambda_max, all modes active.

    Each mode's I0 window takes 128 nodes after one halving, where one
    window shared by all modes would take 6357 panels and 407k nodes.  The
    call peaks at 1.9 MB (tracemalloc), bounded at 8 MB.
    """
    gen = sg.build_ou(1.0, 400, 1.0)
    dec = sg.spectral_decompose(gen)
    g = np.random.default_rng(3).standard_normal(gen.size)  # the CLI's random(3)
    problem = sg.InverseProblem(dec, 19.0 / dec.lambda_max, g)
    tracemalloc.start()
    try:
        f = sg.invert_bessel(problem, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    exact = sg.invert_spectral(problem)
    assert sg.norm(gen.space, f - exact) <= 1e-12 * sg.norm(gen.space, exact)
    assert peak < 8 * 2**20
