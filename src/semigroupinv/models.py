"""Generator builders: 1-D diffusions, the Ornstein-Uhlenbeck process,
symmetric jump kernels, and explicit chains for hand-checked oracles; and
the JSON model file (``ModelSpec``, ``load_model_file``) with its expression
grammar.

Diffusions are discretised in divergence (speed-measure) form on a
cell-centered uniform grid, which keeps m-symmetry exact to round-off at any
resolution: the weighted matrix m_i A_ij equals the edge conductance for
both orientations by construction.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .artifacts import read_text
from .errors import (
    AsymmetricKernel,
    ExpressionParseError,
    InvalidBoundary,
    InvalidConfig,
    LengthMismatch,
    NonPositiveSigma,
    RowMassExceeded,
    ValidationError,
    check_budget,
    check_count,
    check_exponent,
    check_param,
    check_range,
    clip,
)
from .spectral import SymmetricGenerator, WeightedStateSpace, build_space

_BOUNDARIES = ("dirichlet", "neumann")

# Round-off allowed above 1 in a jump kernel's row mass.
ROW_TOL = 1e-12


@dataclass(frozen=True)
class DiffusionSpec:
    """A regular 1-D diffusion on natural scale: (sigma^2/2) f'' - c f.

    ``sigma`` must be bounded away from zero on the grid; ``kill`` is the
    non-negative killing rate c(x) (None means no killing).  Boundaries are
    'dirichlet' (absorbing wall, kills mass) or 'neumann' (reflecting,
    conserves mass) per endpoint.
    """

    left: float
    right: float
    n: int
    sigma: Callable[[np.ndarray], np.ndarray] = lambda x: np.ones_like(x)
    kill: Optional[Callable[[np.ndarray], np.ndarray]] = None
    boundary_left: str = "neumann"
    boundary_right: str = "neumann"

    def __post_init__(self):
        check_count("n", self.n, 3, error=LengthMismatch)
        if not self.right > self.left:
            raise InvalidBoundary("interval must satisfy left < right")
        for b in (self.boundary_left, self.boundary_right):
            if b not in _BOUNDARIES:
                raise InvalidBoundary(f"boundary must be one of {_BOUNDARIES}, got {clip(repr(b))}")


def _cell_grid(left: float, right: float, n: int) -> tuple[float, np.ndarray]:
    """The spacing h and the n cell centres of [left, right].

    A spacing that, or whose 4/h (the conductances' bound), leaves the
    positive doubles raises :class:`ValidationError`.
    """
    left, right = float(left), float(right)  # Python floats overflow to inf without a RuntimeWarning
    h = (right - left) / n
    if not (0.0 < h < math.inf and 4.0 / h < math.inf):
        raise ValidationError(f"[{left!r}, {right!r}] in {n} cells gives a spacing h = {h!r} out of double range")
    return h, left + (np.arange(n) + 0.5) * h


def _divergence_form(
    points: np.ndarray,
    h: float,
    m_density: np.ndarray,
    edge_conductance: np.ndarray,
    kill_rate: np.ndarray,
    boundary_left: str,
    boundary_right: str,
    wall_conductance: tuple[float, float],
) -> SymmetricGenerator:
    """A = M^-1 D^T C D - diag(c) on a cell-centered grid, as its three bands.

    ``edge_conductance`` has n-1 interior entries; ``wall_conductance`` gives
    the absorbing-wall conductances used when an endpoint is dirichlet (the
    wall sits half a cell beyond the end node).  An edge rate that underflows
    to 0, as ~1/h^2 does at h ~ 1e308, raises :class:`ValidationError`.
    """
    m = m_density * h
    space = build_space(points, m)  # refuses a weight that underflowed to 0 before it divides
    with np.errstate(over="ignore"):  # a band past double range, as 1/h^2 on a tiny grid, is refused as not finite
        lower = edge_conductance / m[1:]
        upper = edge_conductance / m[:-1]
        cut = np.flatnonzero((lower == 0) | (upper == 0))
        if cut.size:
            x = points[cut[0]:cut[0] + 2].tolist()
            raise ValidationError(f"the rate between grid points x = {x[0]!r} and {x[1]!r} underflows to 0 at h = {h!r}")
        # diagonal sums in the order of an edge-by-edge assembly, which fixes
        # their bits: left edge, right edge, wall, kill
        diag = np.zeros(points.size)
        diag[1:] -= lower
        diag[:-1] -= upper
        if boundary_left == "dirichlet":
            diag[0] -= wall_conductance[0] / m[0]
        if boundary_right == "dirichlet":
            diag[-1] -= wall_conductance[1] / m[-1]
        diag -= kill_rate
    return SymmetricGenerator(space, (lower, diag, upper), _owned=True)


def build_diffusion(spec: DiffusionSpec) -> SymmetricGenerator:
    """Finite-difference generator for (sigma^2/2) f'' - c f in L2(m).

    On natural scale the speed-measure density is 2/sigma^2, the scale
    density is 1, so interior edge conductances are 1/h and a dirichlet wall
    (half a cell away) contributes 2/h.  Killing with constant rate kappa
    shifts the whole matrix by exactly -kappa I.
    """
    h, points = _cell_grid(spec.left, spec.right, spec.n)
    sig = np.asarray(spec.sigma(points), dtype=float)
    if sig.shape != points.shape:
        raise NonPositiveSigma("sigma must evaluate elementwise on the grid")
    if not np.all(sig > 0):
        raise NonPositiveSigma("sigma must be strictly positive on the grid")
    with np.errstate(over="ignore", divide="ignore"):  # refused below, naming sigma
        m_density = 2.0 / sig**2
        weight = m_density * h
        rate = 4.0 / h / weight  # bounds the point's bands, sigma^2/(2h^2) an edge and twice that a wall
    outside = np.flatnonzero((weight == np.inf) | (rate == np.inf))
    if outside.size:
        k = outside[0]
        raise NonPositiveSigma(
            f"sigma = {float(sig[k])!r} at grid point x = {float(points[k])!r} takes the speed"
            " weight 2h/sigma^2 or the rate sigma^2/(2h^2) out of double range"
        )
    kill = np.zeros(spec.n) if spec.kill is None else np.asarray(spec.kill(points), float)
    if np.any(kill < 0):
        raise ValidationError("killing rate must be non-negative")
    conduct = np.full(spec.n - 1, 1.0 / h)
    return _divergence_form(
        points, h, m_density, conduct, kill,
        spec.boundary_left, spec.boundary_right,
        wall_conductance=(2.0 / h, 2.0 / h),
    )


def build_ou(half_width: float, n: int, rate: float) -> SymmetricGenerator:
    """Mean-reverting diffusion (1/2) f'' - rate * x f' on [-L, L].

    Divergence form (1/m) d/dx( (m/2) df/dx ) with Gaussian speed measure
    m(x) = exp(-rate x^2), reflecting ends.  The spectrum approximates the
    ladder {0, rate, 2 rate, ...} once the grid resolves the measure's bulk.
    """
    check_range("half_width", half_width, error=InvalidBoundary)
    check_range("rate", rate, error=InvalidBoundary)
    check_count("n", n, 3, error=LengthMismatch)
    h, points = _cell_grid(-half_width, half_width, n)
    edges = -half_width + np.arange(1, n) * h
    with np.errstate(over="ignore"):  # a weight that underflows to 0 is refused by build_space
        m_density = np.exp(-rate * points**2)
        conduct = 0.5 * np.exp(-rate * edges**2) / h
    kill = np.zeros(n)
    return _divergence_form(
        points, h, m_density, conduct, kill, "neumann", "neumann", (0.0, 0.0)
    )


def ou_witness_pair(rate: float) -> tuple[Callable[[np.ndarray], np.ndarray], Callable[[np.ndarray], np.ndarray]]:
    """The pair (g, f) with P_1 f = g for the mean-reverting diffusion.

    g(x) = x^2 and f(x) = e^(2 rate) x^2 - (e^(2 rate) - 1) / (2 rate).
    f dips negative near the origin, demonstrating that inverting the
    transition operator does not preserve positivity.  A rate above 350
    raises :class:`OverflowRisk`: e^(2 rate) would leave double range.
    """
    check_range("rate", rate, error=InvalidBoundary)
    check_exponent(2.0 * rate, f"f needs exp(2 rate) = exp({2.0 * rate:.6g}), beyond double range")
    e2r = np.exp(2.0 * rate)
    offset = (e2r - 1.0) / (2.0 * rate)

    def g(x):
        return np.asarray(x, float) ** 2

    def f(x):
        return e2r * np.asarray(x, float) ** 2 - offset

    return g, f


@dataclass(frozen=True)
class JumpKernelSpec:
    """Symmetric non-negative jump kernel values on a weighted space.

    Row masses sum_j q(x_i, x_j) m_j may not exceed 1 (up to ``ROW_TOL``);
    rows short of 1 send the deficit to the cemetery.
    """

    kernel: np.ndarray
    space: WeightedStateSpace

    def __post_init__(self):
        q = np.array(self.kernel, dtype=float)
        q.setflags(write=False)
        object.__setattr__(self, "kernel", q)
        n = self.space.size
        if q.shape != (n, n):
            raise LengthMismatch(f"kernel shape {q.shape} on a space of size {n}")
        if not np.all((q >= 0.0) & (q < np.inf)):
            raise AsymmetricKernel("kernel values must be finite and non-negative")
        gap = q - q.T  # q >= 0 and finite: this is np.allclose(q, q.T, rtol=0, atol=1e-12 max(1, max |q|))
        if not np.max(np.abs(gap, out=gap)) <= 1e-12 * max(1.0, float(q.max())):
            raise AsymmetricKernel("kernel must be symmetric")
        with np.errstate(over="ignore"):  # a row mass past double range is inf, and refused below
            mass = q @ self.space.weights
        if np.any(mass > 1.0 + ROW_TOL):
            raise RowMassExceeded(f"max row mass {mass.max():.6f} exceeds 1")


def build_jump(spec: JumpKernelSpec) -> SymmetricGenerator:
    """Unit-intensity jump generator A f = integral f dq m - f.

    The matrix is Q M - I; since the weighted kernel is substochastic the
    spectrum of -A lies in [0, 2].
    """
    a = spec.kernel * spec.space.weights[None, :]
    a.flat[:: spec.space.size + 1] -= 1.0
    return SymmetricGenerator(spec.space, a, _owned=True)


def gaussian_jump_kernel(space: WeightedStateSpace, t_star: float) -> JumpKernelSpec:
    """Kernel of normally distributed jumps, variance t_star, on a grid.

    Normalised by the largest row mass, so the kernel stays symmetric and
    substochastic (boundary rows lose a little mass to the cemetery).
    """
    check_range("t_star", t_star, error=InvalidBoundary)
    x = space.points
    with np.errstate(over="ignore"):  # a jump past double range has its limit, probability 0
        q = np.subtract.outer(x, x)  # exp(-((x_i - x_j)^2) / (2 t_star)), each step in place
        np.negative(np.square(q, out=q), out=q)
        q /= 2.0 * t_star
        np.exp(q, out=q)
    scale = float(np.max(q @ space.weights))
    return JumpKernelSpec(np.divide(q, scale, out=q), space)


def build_chain(matrix, weights) -> SymmetricGenerator:
    """Wrap an explicit rate matrix as an m-symmetric generator."""
    matrix = np.asarray(matrix, dtype=float)
    weights = np.asarray(weights, dtype=float)
    n = weights.size
    if matrix.shape != (n, n):
        raise LengthMismatch(f"matrix shape {matrix.shape} with {n} weights")
    space = build_space(np.arange(n, dtype=float), weights)
    return SymmetricGenerator(space, matrix)


# -- restricted function-literal grammar ---------------------------------------
#
# expr      := term (('+'|'-') term)*
# term      := unary (('*')? unary)*          (juxtaposition multiplies: "2x")
# unary     := ('-'|'+')? factor
# factor    := atom ('^' INT)?
# atom      := NUMBER | 'x' | 'exp(' expr ')' | 'indicator(' num ',' num ')'
#              | 'random(' INT ')' | '(' expr ')'
#
# A token is a NUMBER (digits and points, each e or E in it taking one optional
# sign), a name (letters) or any one other character; whitespace separates
# tokens.  So "1e+3", "2e" and "1.2.3" are one NUMBER each, and ``_float``
# refuses the last two.  At the end of the text the token is empty.
_TOKEN = re.compile(r"\s*(?:(?P<number>[\d.](?:[\d.]|[eE][+-]?)*)|(?P<name>[^\W\d_]+)|(?P<op>.))?")

# Deepest nesting of parentheses and exp( an expression may use, which keeps
# the recursive-descent parser far inside Python's recursion limit.
_MAX_EXPRESSION_DEPTH = 100

# Most characters of an expression, refused before it is parsed.  Each term
# costs a pass over the grid: a 128 MiB ``x+x+...`` sigma, inside both file
# budgets, would take about 2 minutes to evaluate, while 65,536 characters
# take 0.07 s at n = 4000 (one OpenBLAS thread, 2-core EPYC).
_MAX_EXPRESSION_CHARS = 65536


def _float(text: str, pos: int) -> float:
    """``float(text)`` of the NUMBER at ``pos``; a text ``float`` refuses raises :class:`ExpressionParseError`."""
    try:
        return float(text)
    except ValueError:
        raise ExpressionParseError(f"bad number {clip(repr(text))}", pos) from None


def _integer(text: str, pos: int, message: str) -> int:
    """The INT ``text`` at ``pos``, decimal digits only; anything else raises ``ExpressionParseError(message)``."""
    if text.isdecimal():
        try:
            return int(text)
        except ValueError:  # past Python's limit on the digits of an int literal
            message = f"{message} of at most {sys.get_int_max_str_digits()} digits"
    raise ExpressionParseError(message, pos)


class _Parser:
    """Recursive-descent evaluator over a fixed grid.

    It scans one token ahead of the parse, so a long text is never split
    into a token list: ``kind`` is "number", "name", "op" or None at the
    end, ``token`` its text and ``pos`` its position.
    """

    def __init__(self, text: str, points, source: str = "expression"):
        check_budget(f"characters in {source}", len(text), _MAX_EXPRESSION_CHARS)
        self.text = text
        self.points = np.asarray(points, float)
        self.depth = 0
        self.kind, self.token, self.pos, self.end = None, "", 0, 0
        self._take()

    def _take(self) -> tuple[str, int]:
        """The current token and its position; the token after it becomes current."""
        taken = self.token, self.pos
        match = _TOKEN.match(self.text, self.end)
        self.kind = match.lastgroup
        self.token = match[self.kind] if self.kind else ""
        self.end = match.end()
        self.pos = self.end - len(self.token)
        return taken

    def parse(self) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):  # every caller refuses an inf or NaN value
            value = self._expr()
        if self.kind is not None:
            raise ExpressionParseError(f"unexpected {clip(repr(self.token))}", self.pos)
        return np.broadcast_to(np.asarray(value, float), self.points.shape).copy()

    def _expr(self):
        value = self._term()
        while self.token in ("+", "-"):
            op, _ = self._take()
            value = value + self._term() if op == "+" else value - self._term()
        return value

    def _term(self):
        value = self._unary()
        while self.token in ("*", "(") or self.kind in ("number", "name"):
            if self.token == "*":
                self._take()
            value = value * self._unary()
        return value

    def _unary(self):
        if self.token in ("-", "+") and self._take()[0] == "-":
            return -self._factor()
        return self._factor()

    def _factor(self):
        value = self._atom()
        if self.token != "^":
            return value
        _, pos = self._take()
        exponent = _integer(*self._take(), "exponent must be a non-negative integer")
        try:
            return value ** exponent
        except OverflowError:  # a float literal's power; arrays overflow to inf
            raise ExpressionParseError("power exceeds double range", pos) from None

    def _expect(self, symbol: str):
        token, pos = self._take()
        if token != symbol:
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
        """A bound of ``indicator``: a NUMBER, perhaps after one '-'."""
        sign = -1.0 if self.token == "-" else 1.0
        if sign < 0:
            self._take()
        if self.kind != "number":
            raise ExpressionParseError("expected a number", self.pos)
        return sign * _float(*self._take())

    def _atom(self):
        if self.kind is None:
            raise ExpressionParseError("unexpected end of expression", self.pos)
        if self.kind == "number":
            return _float(*self._take())
        kind = self.kind
        token, pos = self._take()
        if token == "(":
            return self._nested(pos)
        if token == "x":
            return self.points
        if token == "exp":
            self._expect("(")
            return np.exp(self._nested(pos))
        if token == "indicator":
            self._expect("(")
            lo = self._number()
            self._expect(",")
            hi = self._number()
            self._expect(")")
            return ((self.points >= lo) & (self.points <= hi)).astype(float)
        if token == "random":
            self._expect("(")
            seed = _integer(*self._take(), "random() needs an integer seed")
            self._expect(")")
            return np.random.default_rng(seed).standard_normal(self.points.size)
        raise ExpressionParseError(f"{'unknown name' if kind == 'name' else 'unexpected'} {clip(repr(token))}", pos)


def parse_function_literal(expr: str, space, source: str = "expression") -> np.ndarray:
    """Evaluate a restricted expression on the space's grid points.

    Grammar: polynomials in x, exp(<expr>), indicator(a, b), random(seed),
    with + - * ^ and parentheses.  random(seed) is reproducible.  A text
    longer than ``_MAX_EXPRESSION_CHARS`` is refused before it is parsed,
    with ``source`` naming it.
    """
    return _Parser(expr, space.points, source).parse()


# -- model files: {"schemaVersion": 1, "type": <kind>, "parameters": {...}} ------

SCHEMA_VERSION = 1

# Most grid cells of an ``ou`` or ``diffusion`` model, which the library holds
# as three bands.  At 4000 cells (one OpenBLAS thread, 2-core Xeon) such a
# model builds and decomposes in 2.0-2.4 s at a peak RSS of 0.28 GB, nearly
# all of it dstevd's eigenvectors with its workspace or with their C-ordered
# rescaling, two of the 128 MB n x n arrays.
_MAX_STATES = 4000

# Most states of a dense model: the ``weights`` of a ``chain``, the ``points``
# and ``weights`` of a ``jump``.  These run the dense eigh, and their peak
# grows as n^2: a Gaussian ``jump`` model of 2000 points builds and
# decomposes in about 1.9 s at 0.25 GB, one of 2800 points reaches 0.45 GB.
_MAX_DENSE_STATES = 2000

# Most value marks in a model file: commas, colons and opening brackets.  Every
# JSON value but the outermost follows one of them, so they bound the values
# json.loads makes of it, which the byte budget alone does not: a budget-sized
# file of "0," entries parses to 67M references at a 1.2 GB peak, and one of
# nested one-element lists, which holds no comma, to 60M lists.  The largest
# model the state budgets allow, a ``jump`` of _MAX_DENSE_STATES points with its
# kernel, holds n^2 + 3n + 14; keys and expressions take far fewer than the
# 1000 to spare.
_MAX_MODEL_MARKS = _MAX_DENSE_STATES * (_MAX_DENSE_STATES + 3) + 1000


def _number(value, convert=float):
    """``convert(value)``; a JSON string or boolean, which Python would read as a number, is refused."""
    if isinstance(value, (str, bool)):
        raise ValueError(f"expected a number, got {value!r}")  # check_param clips the quoted value
    return convert(value)


def _states(value) -> int:
    n = _number(value, int)
    if n != float(value):
        raise ValueError(f"expected an integer, got {value!r}")
    if n > _MAX_STATES:
        raise ValueError(f"{n} states exceed the budget of {_MAX_STATES}")
    return n


# The JSON values numpy would read as numbers: a string ("1"), a boolean (1.0) and null (NaN).
_NOT_NUMBERS = {str, bool, type(None)}


def _array(value) -> np.ndarray:
    """``value`` as a float array; a string, boolean or null entry of its lists is refused."""
    rows = [iter((value,))] if type(value) is list else []
    while rows:  # depth first, so the entry quoted is the file's first; a list of numbers passes in one set()
        for entry in rows[-1]:
            if type(entry) is list:
                kinds = set(map(type, entry))
                if list in kinds or kinds & _NOT_NUMBERS:
                    rows.append(iter(entry))
                    break
            elif type(entry) in _NOT_NUMBERS:
                raise ValueError(f"expected numbers, got the entry {entry!r}")  # check_param clips the quote
        else:
            rows.pop()
    return np.asarray(value, float)


def _state_array(value) -> np.ndarray:
    """One entry per state of a dense model: ``_array(value)``, at most ``_MAX_DENSE_STATES`` long."""
    values = _array(value)
    if values.size > _MAX_DENSE_STATES:
        raise ValueError(f"{values.size} states exceed the dense-model budget of {_MAX_DENSE_STATES}")
    return values


def _text(value) -> str:
    """``str(value)``, so a number reads as it prints (``2`` as ``"2"``); a JSON null is refused."""
    if value is None:
        raise ValueError("expected a value, got null")
    return str(value)


# Each model type's parameters in the order they are read: JSON key, converter and,
# unless the key is required, its value when absent.  A ``diffusion``'s ``sigma``
# and ``kill`` stay text until its grid is built.
_PARAMETERS = {
    "chain": (("weights", _state_array), ("matrix", _array)),
    "ou": (("halfWidth", _number, 6.0), ("n", _states, 400), ("rate", _number, 1.0)),
    "diffusion": (("sigma", _text, "1"), ("kill", _text, None), ("left", _number), ("right", _number),
                  ("n", _states), ("boundaryLeft", _text, "neumann"), ("boundaryRight", _text, "neumann")),
    "jump": (("points", _state_array), ("weights", _state_array), ("kernel", _array, None), ("tStar", _number, 1.0)),
}


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """A model type and its parameters, each converted by its ``_PARAMETERS`` entry."""

    kind: str
    parameters: dict

    @classmethod
    def from_json(cls, spec) -> ModelSpec:
        """The spec of a parsed model file; one that breaks the schema raises :class:`InvalidConfig`."""
        if not isinstance(spec, dict):
            raise InvalidConfig("model spec must be a JSON object")
        if spec.get("schemaVersion") != SCHEMA_VERSION:
            raise InvalidConfig(f"unsupported schemaVersion {clip(repr(spec.get('schemaVersion')))}")
        kind = spec.get("type")
        params = spec.get("parameters", {})
        if not isinstance(params, dict):
            raise InvalidConfig("model parameters must be a JSON object")
        if not (isinstance(kind, str) and kind in _PARAMETERS):
            raise InvalidConfig(f"unknown model type {clip(repr(kind))}")
        keys = [key for key, *_ in _PARAMETERS[kind]]
        unknown = clip(", ".join(map(repr, sorted(params.keys() - set(keys)))))
        if unknown:
            raise InvalidConfig(f"unknown model parameter {unknown} for type {kind!r}, which takes {', '.join(keys)}")
        values = {}
        for key, convert, *default in _PARAMETERS[kind]:
            if key == "tStar" and values["kernel"] is not None:
                continue  # tStar sizes the Gaussian kernel, which a given kernel replaces: it is not read
            values[key] = check_param(params, key, convert, *default)
        return cls(kind, values)

    def build(self) -> SymmetricGenerator:
        """The generator of this spec."""
        p = self.parameters
        if self.kind == "chain":
            return build_chain(p["matrix"], p["weights"])
        if self.kind == "ou":
            return build_ou(p["halfWidth"], p["n"], p["rate"])
        if self.kind == "diffusion":
            return build_diffusion(DiffusionSpec(
                p["left"], p["right"], p["n"], lambda x: _Parser(p["sigma"], x, "model parameter 'sigma'").parse(),
                None if p["kill"] is None else (lambda x: _Parser(p["kill"], x, "model parameter 'kill'").parse()),
                p["boundaryLeft"], p["boundaryRight"],
            ))
        space = build_space(p["points"], p["weights"])
        return build_jump(gaussian_jump_kernel(space, p["tStar"]) if p["kernel"] is None
                          else JumpKernelSpec(p["kernel"], space))

    def coarsened(self) -> ModelSpec | None:
        """This spec on n/2 cells of the same interval, for an ``ou`` or ``diffusion`` of even n >= 6.

        None otherwise: a ``chain`` or ``jump`` has no grid, and the cells of an odd n do not nest.
        """
        n = self.parameters.get("n")
        if self.kind not in ("ou", "diffusion") or n % 2 or n < 6:
            return None
        return replace(self, parameters={**self.parameters, "n": n // 2})


def load_model_file(path) -> SymmetricGenerator:
    """The generator of the model file at ``path``, read within the byte and value-mark budgets."""
    text = read_text(path, "model file", _MAX_MODEL_MARKS)
    try:
        spec = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InvalidConfig(f"model file {path} is not valid JSON: {exc}") from exc
    except ValueError:  # json.loads's int() of a literal past Python's limit on the digits of an int
        limit = sys.get_int_max_str_digits()
        raise InvalidConfig(f"model file {path} holds an integer past the limit of {limit} digits") from None
    return ModelSpec.from_json(spec).build()
