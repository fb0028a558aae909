"""The output checker counts tampered artifacts and wrong exit codes as failures.

Run from the repository root:

    python3 -m pytest -q perfbench/test_checker.py
"""

import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import semigroupinv as sg  # noqa: E402
from semigroupinv import cli  # noqa: E402
from checker import Checker, Outcome  # noqa: E402
from run import Runner  # noqa: E402
from workloads import generate  # noqa: E402


@pytest.fixture(scope="module")
def regularise(tmp_path_factory):
    """A real `regularise` op from the conditioning workload and its outcome."""
    work = tmp_path_factory.mktemp("bench")
    workload = generate("conditioning-ou400", 7, sg, cli, work)
    op = next(op for op in workload.cycle if op.key == "regularise-0")
    outcome, _ = Runner(cli, Checker(work / "stash"), work).execute(op)
    return op, outcome


def _tampered(outcome: Outcome) -> Outcome:
    """Same artifacts with the solution value at the grid's centre perturbed."""
    lines = outcome.files["solution.csv"].split(b"\n")
    row = len(lines) // 2
    fields = lines[row].split(b",")
    fields[3] = repr(float(fields[3]) * 1.5 + 1.0).encode()
    lines[row] = b",".join(fields)
    return replace(outcome, files={**outcome.files, "solution.csv": b"\n".join(lines)})


def _count(stash_dir, op, *outcomes, expect_code=None):
    checker = Checker(stash_dir)
    for outcome in outcomes:
        checker.record(op.key, outcome, op.expect_code if expect_code is None else expect_code, op.verify)
    checker.verify_pending()
    return checker


def test_genuine_repeats_pass(regularise, tmp_path):
    op, outcome = regularise
    checker = _count(tmp_path, op, outcome, outcome)
    assert (checker.attempted, checker.failed) == (2, 0)
    assert checker.worst_what == "regularised residual"
    assert checker.worst_error < 1e-12


def test_tampered_repeat_fails_byte_identity(regularise, tmp_path):
    op, outcome = regularise
    checker = _count(tmp_path, op, outcome, _tampered(outcome))
    assert (checker.attempted, checker.failed) == (2, 1)
    assert "differ from an earlier repeat" in checker.messages[0]


def test_tampered_first_occurrence_fails_oracle(regularise, tmp_path):
    op, outcome = regularise
    checker = _count(tmp_path, op, _tampered(outcome))
    assert (checker.attempted, checker.failed) == (1, 1)
    assert "regularised residual" in checker.messages[0]


def test_missing_artifact_fails(regularise, tmp_path):
    op, outcome = regularise
    files = {k: v for k, v in outcome.files.items() if k != "solution.csv"}
    checker = _count(tmp_path, op, replace(outcome, files=files))
    assert checker.failed == 1
    assert "missing artifact solution.csv" in checker.messages[0]


def test_wrong_exit_code_fails(regularise, tmp_path):
    op, outcome = regularise
    assert _count(tmp_path, op, replace(outcome, code=2)).failed == 1
    # An op that must be refused with exit 3 fails when it succeeds instead.
    assert _count(tmp_path, op, outcome, expect_code=3).failed == 1
