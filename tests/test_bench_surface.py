"""The library surface that the benchmark in ``perfbench/`` drives.

The benchmark traces the library by rebinding its functions and the
``SpectralDecomposition`` methods by name, and its workloads call the
package and the CLI by name.  A rename that breaks either shows up here,
not only when the benchmark runs.
"""

import json
import re
import sys
from pathlib import Path

import pytest

import semigroupinv as sg
from semigroupinv import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture()
def tracer_class(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    return Tracer


def test_tracer_records_apply_and_quadrature_spans(tracer_class, tmp_path):
    model = tmp_path / "chain2.json"
    model.write_text(json.dumps({
        "schemaVersion": 1, "type": "chain",
        "parameters": {"matrix": [[-0.5, 0.5], [0.5, -0.5]], "weights": [1.0, 1.0]},
    }), encoding="utf-8")
    original = sg.SpectralDecomposition.__dict__["coefficients"]
    tracer = tracer_class()
    tracer.install(sg)
    try:
        tracer.begin_op(0)
        with pytest.raises(SystemExit) as exc:
            cli.main(["invert", "--method", "bessel", "--T", "1", "--g", "1+x",
                      "--model", str(model), "--output", str(tmp_path / "out")])
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert exc.value.code == 0
    kinds = {span[0] for span in tracer.spans}
    assert {"spectral.apply", "bessel.quadrature", "bessel.weight", "bessel.field", "inversion.invert"} <= kinds
    assert tracer.counts["spectral.apply_calls"] > 0
    # the integrand gets the nodes and their weights and returns its node sum
    assert tracer.counts["bessel.nodes_evaluated"] > 0
    assert 0 < tracer.counts["bessel.field_cells"] < tracer.counts["bessel.nodes_evaluated"]
    assert sg.SpectralDecomposition.__dict__["coefficients"] is original


def test_workload_names_resolve():
    text = (PERFBENCH / "workloads.py").read_text(encoding="utf-8")
    names = set(re.findall(r"\b(sg|cli)\.([A-Za-z_]\w*)", text))
    assert ("sg", "mixture_semigroup") in names and ("cli", "main") in names
    missing = [f"{mod}.{name}" for mod, name in sorted(names)
               if not hasattr({"sg": sg, "cli": cli}[mod], name)]
    assert missing == []
