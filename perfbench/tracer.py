"""Span tracing of semigroupinv from outside the library.

The tracer wraps every public function of the library modules, rebinding
each wrapper at every place the original is bound: the defining module, the
package namespace, and modules that imported the name (``cli`` imports from
``inversion``, ``regularisation`` and ``spectral``; ``inversion`` imports
from ``bessel``; and so on).  ``SpectralDecomposition.coefficients`` and
``.synthesize`` are wrapped on the class.  The weight and field callables
handed to ``bochner_quadrature`` are wrapped per call, so the node and cell
counts come from the callables themselves.  No library file is edited.

A span is ``[kind, start_ns, end_ns, parent, op]``; spans and counts stay in
memory and are summarised (or written out) when the run ends.  Only calls
made inside an op (between :meth:`Tracer.begin_op` and :meth:`end_op`) are
recorded, so oracle computations by the benchmark itself stay untraced.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("cli", "models", "spectral", "bessel", "inversion", "regularisation")

# Kinds that get their own per-layer metric; every other public function
# falls into its layer's default kind below.
_KINDS = {
    ("spectral", "check_m_symmetry"): "spectral.msym_check",
    ("spectral", "spectral_decompose"): "spectral.decompose",
    ("spectral", "vector_to_csv"): "spectral.vector_csv",
    ("spectral", "vector_from_csv"): "spectral.vector_csv",
    ("bessel", "bochner_quadrature"): "bessel.quadrature",
    ("bessel", "bessel_i0"): "bessel.weight",
    ("bessel", "bessel_j0"): "bessel.weight",
    ("inversion", "conditioning_report"): "inversion.conditioning",
    ("inversion", "invert_spectral"): "inversion.invert",
    ("inversion", "invert_bessel"): "inversion.invert",
    ("inversion", "solve_backward_cauchy"): "inversion.backward",
    ("regularisation", "regularised_pide_solve"): "regularisation.pide",
    ("regularisation", "trajectory_to_csv"): "regularisation.trajectory_csv",
}
_DEFAULT_KIND = {
    "cli": "cli",
    "models": "models.build",
    "spectral": "spectral.other",
    "bessel": "bessel.other",
    "inversion": "inversion.other",
    "regularisation": "regularisation.solve",
}


class Tracer:
    """Records spans and counts for calls into the library during ops."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._op = None
        self._restore: list[tuple[object, str, object]] = []

    # -- op boundaries ------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op = op_id

    def end_op(self) -> None:
        self._op = None
        self._stack.clear()

    # -- wrapping -------------------------------------------------------------

    def _span(self, func, kind, prepare=None, after=None):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return func(*args, **kwargs)
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            stack = tracer._stack
            span = [kind, 0, 0, stack[-1] if stack else -1, tracer._op]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count_nodes(self, args, result):
        self.counts["bessel.nodes_evaluated"] += int(getattr(args[0], "size", 1))

    def _count_cells(self, args, result):
        self.counts["bessel.field_cells"] += int(getattr(result, "size", 1))

    def _prepare_quadrature(self, args, kwargs):
        self.counts["bessel.quadrature_calls"] += 1
        weight, field = args[0], args[1]
        args = (
            self._span(weight, "bessel.weight", after=self._count_nodes),
            self._span(field, "bessel.field", after=self._count_cells),
        ) + tuple(args[2:])
        return args, kwargs

    def _after_quadrature(self, args, result):
        self.counts["bessel.nodes_final"] += int(result.n_nodes)

    def _after_apply(self, args, result):
        n = args[0].eigenvectors.shape[0]
        self.counts["spectral.apply_calls"] += 1
        self.counts["spectral.apply_bytes"] += 8 * n * n

    def _after_trajectory_csv(self, args, result):
        self.counts["regularisation.trajectory_cells"] += int(args[0].values.size)
        self.counts["regularisation.trajectory_bytes"] += len(result)

    def install(self, package) -> None:
        """Wrap the library's public functions wherever they are bound."""
        hooks = {
            "bessel.quadrature": (self._prepare_quadrature, self._after_quadrature),
            "regularisation.trajectory_csv": (None, self._after_trajectory_csv),
        }
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{package.__name__}.{layer}"]
            for name, obj in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                kind = _KINDS.get((layer, name), _DEFAULT_KIND[layer])
                prepare, after = hooks.get(kind, (None, None))
                wrappers[id(obj)] = (obj, self._span(obj, kind, prepare, after))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package.__name__ or mod_name.startswith(package.__name__ + ".")):
                continue
            for name, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((module, name, obj))
                    setattr(module, name, hit[1])
        cls = package.SpectralDecomposition
        for name in ("coefficients", "synthesize"):
            original = cls.__dict__[name]
            self._restore.append((cls, name, original))
            setattr(cls, name, self._span(original, "spectral.apply", after=self._after_apply))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # -- summaries ---------------------------------------------------------------

    def self_times_ns(self) -> tuple[dict[str, int], int]:
        """Self time per kind (span minus its children) and total root time."""
        child = [0] * len(self.spans)
        root = 0
        for kind, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                root += end - start
        totals: defaultdict[str, int] = defaultdict(int)
        for i, (kind, start, end, _, _) in enumerate(self.spans):
            totals[kind] += end - start - child[i]
        return dict(totals), root

    def write(self, path) -> None:
        """Write every span and count as compact JSON."""
        kinds = sorted({s[0] for s in self.spans})
        index = {k: i for i, k in enumerate(kinds)}
        payload = {
            "fields": ["kind", "start_ns", "end_ns", "parent", "op"],
            "kinds": kinds,
            "spans": [[index[k], s, e, p, o] for k, s, e, p, o in self.spans],
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
