"""Golden outcomes of malformed model files: exit code, error class and the whole message.

Each row is a model file run through ``decompose``.  The rows pin the order
in which a file's keys are read, too: a ``chain`` reads ``weights`` before
``matrix``; a ``diffusion`` converts ``sigma`` and ``kill`` to text first but
parses them only once ``left``, ``right``, ``n`` and the boundaries hold; a
``jump`` with a ``kernel`` never reads ``tStar``.
"""

import json
import math

import pytest

from semigroupinv.cli import RunConfig, run

SPACE2 = {"points": [0.0, 1.0], "weights": [0.5, 0.5]}
KERNEL2 = [[0.5, 0.5], [0.5, 0.5]]
GRID8 = {"left": 0.0, "right": 1.0, "n": 8}


def _model(kind, **parameters):
    return {"schemaVersion": 1, "type": kind, "parameters": parameters}


ROWS = [
    ("not-an-object", [], 2, "InvalidConfig", "model spec must be a JSON object"),
    ("schema-version-2", {"schemaVersion": 2, "type": "ou"}, 2, "InvalidConfig", "unsupported schemaVersion 2"),
    ("schema-version-missing", {"type": "ou"}, 2, "InvalidConfig", "unsupported schemaVersion None"),
    ("schema-version-text", {"schemaVersion": "1", "type": "ou"}, 2, "InvalidConfig",
     "unsupported schemaVersion '1'"),
    ("unknown-type", {"schemaVersion": 1, "type": "levy"}, 2, "InvalidConfig", "unknown model type 'levy'"),
    ("type-is-a-list", {"schemaVersion": 1, "type": [1]}, 2, "InvalidConfig", "unknown model type [1]"),
    ("parameters-before-type", {"schemaVersion": 1, "type": "levy", "parameters": [1]}, 2, "InvalidConfig",
     "model parameters must be a JSON object"),
    ("chain-without-matrix", _model("chain", weights=[1.0, 1.0]), 2, "InvalidConfig",
     "model parameter 'matrix' is required"),
    ("chain-weights-before-matrix", _model("chain", matrix="abc", weights="def"), 2, "InvalidConfig",
     "model parameter 'weights': could not convert string to float: 'def'"),
    ("chain-matrix-text", _model("chain", matrix="abc", weights=[1.0, 1.0]), 2, "InvalidConfig",
     "model parameter 'matrix': could not convert string to float: 'abc'"),
    ("chain-matrix-shape", _model("chain", matrix=KERNEL2, weights=[1.0, 1.0, 1.0]), 2, "LengthMismatch",
     "matrix shape (2, 2) with 3 weights"),
    ("chain-past-dense-budget", _model("chain", matrix=[[0.0]], weights=[1.0] * 2001), 2, "InvalidConfig",
     "model parameter 'weights': 2001 states exceed the dense-model budget of 2000"),
    ("ou-n-fraction", _model("ou", n=12.5), 2, "InvalidConfig", "model parameter 'n': expected an integer, got 12.5"),
    ("ou-n-past-budget", _model("ou", n=4001), 2, "InvalidConfig",
     "model parameter 'n': 4001 states exceed the budget of 4000"),
    ("ou-n-infinite", _model("ou", n=math.inf), 2, "InvalidConfig",
     "model parameter 'n': cannot convert float infinity to integer"),
    ("ou-n-null", _model("ou", n=None), 2, "InvalidConfig",
     "model parameter 'n': int() argument must be a string, a bytes-like object or a real number, not 'NoneType'"),
    ("ou-n-too-small", _model("ou", n=2), 2, "LengthMismatch", "n must be finite and >= 3, got 2"),
    ("ou-half-width-list", _model("ou", halfWidth=[1.0]), 2, "InvalidConfig",
     "model parameter 'halfWidth': float() argument must be a string or a real number, not 'list'"),
    ("ou-rate-negative", _model("ou", rate=-1.0), 2, "InvalidBoundary", "rate must be finite and > 0, got -1.0"),
    ("diffusion-sigma-after-left", _model("diffusion", right=1.0, n=8, sigma="(("), 2, "InvalidConfig",
     "model parameter 'left' is required"),
    ("diffusion-null-sigma-before-left", _model("diffusion", right=1.0, n=8, sigma=None), 2, "InvalidConfig",
     "model parameter 'sigma': expected a value, got null"),
    ("diffusion-sigma-after-interval", _model("diffusion", left=1.0, right=0.0, n=8, sigma="(("), 2,
     "InvalidBoundary", "interval must satisfy left < right"),
    ("diffusion-sigma-after-boundary", _model("diffusion", **GRID8, boundaryLeft="absorbing", sigma="(("), 2,
     "InvalidBoundary", "boundary must be one of ('dirichlet', 'neumann'), got 'absorbing'"),
    ("diffusion-sigma-unparsable", _model("diffusion", **GRID8, sigma="(("), 2, "ExpressionParseError",
     "unexpected end of expression (at position 2)"),
    ("diffusion-sigma-zero-before-kill", _model("diffusion", **GRID8, sigma="0", kill="(("), 2,
     "NonPositiveSigma", "sigma must be strictly positive on the grid"),
    ("diffusion-kill-negative", _model("diffusion", **GRID8, kill="-1"), 2, "ValidationError",
     "killing rate must be non-negative"),
    ("diffusion-n-past-budget", _model("diffusion", left=0.0, right=1.0, n=4001), 2, "InvalidConfig",
     "model parameter 'n': 4001 states exceed the budget of 4000"),
    ("jump-without-points", _model("jump", weights=[0.5, 0.5]), 2, "InvalidConfig",
     "model parameter 'points' is required"),
    ("jump-kernel-leaves-tstar-unread", _model("jump", **SPACE2, kernel=KERNEL2, tStar="abc"), 0, None, None),
    ("jump-tstar-negative", _model("jump", **SPACE2, tStar=-1.0), 2, "InvalidBoundary",
     "t_star must be finite and > 0, got -1.0"),
    ("jump-kernel-asymmetric", _model("jump", **SPACE2, kernel=[[0.5, 0.25], [0.5, 0.5]]), 2, "AsymmetricKernel",
     "kernel must be symmetric"),
    ("jump-kernel-null", _model("jump", **SPACE2, kernel=None), 2, "LengthMismatch",
     "kernel shape () on a space of size 2"),
    ("jump-weights-length", _model("jump", points=[0.0, 1.0], weights=[0.5, 0.5, 0.5]), 2, "LengthMismatch",
     "2 points vs 3 weights"),
    # a key outside the type's table is refused, never passed over for a default
    ("ou-unknown-key", _model("ou", halfwidth=3), 2, "InvalidConfig",
     "unknown model parameter 'halfwidth' for type 'ou', which takes halfWidth, n, rate"),
    ("diffusion-unknown-keys", _model("diffusion", **GRID8, Sigma="2", killRate="1"), 2, "InvalidConfig",
     "unknown model parameter 'Sigma', 'killRate' for type 'diffusion',"
     " which takes sigma, kill, left, right, n, boundaryLeft, boundaryRight"),
    ("jump-unknown-key-beside-kernel", _model("jump", **SPACE2, kernel=KERNEL2, tstar=1.0), 2, "InvalidConfig",
     "unknown model parameter 'tstar' for type 'jump', which takes points, weights, kernel, tStar"),
    ("chain-unknown-key", _model("chain", matrix=KERNEL2, weights=[1.0, 1.0], points=[0.0, 1.0]), 2,
     "InvalidConfig", "unknown model parameter 'points' for type 'chain', which takes weights, matrix"),
    ("unknown-key-before-values", _model("ou", halfwidth=3, n="abc"), 2, "InvalidConfig",
     "unknown model parameter 'halfwidth' for type 'ou', which takes halfWidth, n, rate"),
    # a JSON string or boolean is not a number, though Python's float() and int() take one
    ("ou-half-width-true", _model("ou", halfWidth=True), 2, "InvalidConfig",
     "model parameter 'halfWidth': expected a number, got True"),
    ("ou-n-text", _model("ou", n="400"), 2, "InvalidConfig", "model parameter 'n': expected a number, got '400'"),
    ("ou-rate-false", _model("ou", rate=False), 2, "InvalidConfig",
     "model parameter 'rate': expected a number, got False"),
    ("diffusion-left-text", _model("diffusion", left="0", right=1.0, n=8), 2, "InvalidConfig",
     "model parameter 'left': expected a number, got '0'"),
    ("diffusion-n-true", _model("diffusion", left=0.0, right=1.0, n=True), 2, "InvalidConfig",
     "model parameter 'n': expected a number, got True"),
    ("jump-tstar-text", _model("jump", **SPACE2, tStar="1"), 2, "InvalidConfig",
     "model parameter 'tStar': expected a number, got '1'"),
    ("ou-n-whole-float", _model("ou", n=10.0), 0, None, None),
    # an array entry must be a JSON number too, at any depth: numpy reads "0" and true as numbers, null as NaN
    ("jump-points-text", _model("jump", points=["0", "1"], weights=[0.5, 0.5]), 2, "InvalidConfig",
     "model parameter 'points': expected numbers, got the entry '0'"),
    ("jump-weights-true", _model("jump", points=[0.0, 1.0], weights=[True, True]), 2, "InvalidConfig",
     "model parameter 'weights': expected numbers, got the entry True"),
    ("chain-weights-mixed-true", _model("chain", matrix=KERNEL2, weights=[1.0, True]), 2, "InvalidConfig",
     "model parameter 'weights': expected numbers, got the entry True"),
    ("jump-points-null", _model("jump", points=[0.0, None], weights=[0.5, 0.5]), 2, "InvalidConfig",
     "model parameter 'points': expected numbers, got the entry None"),
    ("chain-matrix-first-bad-entry", _model("chain", matrix=[[-0.5, "0.5"], [None, -0.5]], weights=[1.0, 1.0]), 2,
     "InvalidConfig", "model parameter 'matrix': expected numbers, got the entry '0.5'"),
    ("jump-kernel-null-entry", _model("jump", **SPACE2, kernel=[[0.5, 0.5], [0.5, None]]), 2, "InvalidConfig",
     "model parameter 'kernel': expected numbers, got the entry None"),
    ("chain-matrix-deep-false", _model("chain", matrix=[[[0.0]], [[False]]], weights=[1.0, 1.0]), 2, "InvalidConfig",
     "model parameter 'matrix': expected numbers, got the entry False"),
    ("jump-weights-long-text", _model("jump", points=[0.0, 1.0], weights=["a" * 1000, 0.5]), 2, "InvalidConfig",
     "model parameter 'weights': expected numbers, got the entry '" + "a" * 127 + "... (874 more characters)"),
    ("chain-integer-entries", _model("chain", matrix=[[-1, 1], [1, -1]], weights=[1, 1]), 0, None, None),
]


@pytest.mark.parametrize("spec, code, error, message", [row[1:] for row in ROWS], ids=[row[0] for row in ROWS])
def test_model_file_outcome(tmp_path, spec, code, error, message):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(spec), encoding="utf-8")
    out = tmp_path / "out"
    assert run(RunConfig("decompose", str(model), out, {})) == code
    if code == 0:
        assert not (out / "error.json").exists()
        return
    payload = json.loads((out / "error.json").read_text(encoding="utf-8"))
    assert (payload["error"], payload["message"]) == (error, message)
