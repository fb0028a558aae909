"""Output checker: exit codes, artifacts, byte identity and oracle errors.

Every op the benchmark runs ends in an :class:`Outcome` (exit code plus
artifact bytes).  :class:`Checker` counts it as failed when the exit code
differs from the expected one, a check raised by the op's verifier fails,
or its artifacts differ byte for byte from an earlier repeat of the same op.
The verifier runs on the first occurrence of an op key only; later repeats
must reproduce its digest exactly.  Verification is deferred to
:meth:`Checker.verify_pending`, after the timed loop, so the oracles never
share the process's memory peak with the program; first occurrences are
stashed on disk until then.

Relative errors against exact oracles feed the accuracy metric; errors of
discretisation checks (the OU witness, the OU eigenvalue ladder) are
checked against their tolerance but left out of it, because their fixed
size would hide any loss of accuracy in the computation itself.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REPORT_KEYS = {
    "lambdaMax",
    "amplificationLog10",
    "membershipSpectralLog10",
    "membershipQuadrature",
    "flag",
}
# Relative errors are floored here so an exact match still has a finite log.
ERROR_FLOOR = 1e-17
MAX_MESSAGES = 20


class CheckFailed(Exception):
    """An artifact is missing or malformed, or an oracle check failed."""


@dataclass
class Outcome:
    """What one op produced: exit code and artifacts by name."""

    code: int | None
    files: dict[str, bytes]
    note: str = ""

    def digest(self) -> str:
        h = hashlib.sha256(repr(self.code).encode())
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + hashlib.sha256(self.files[name]).digest())
        return h.hexdigest()

    def artifact(self, name: str) -> bytes:
        if name not in self.files:
            raise CheckFailed(f"missing artifact {name}")
        return self.files[name]

    def json(self, name: str) -> dict:
        try:
            return json.loads(self.artifact(name))
        except ValueError as exc:
            raise CheckFailed(f"{name} is not valid JSON: {exc}") from None


@dataclass
class Verdict:
    """Relative errors measured by one verifier run."""

    errors: list[tuple[str, float, bool]] = field(default_factory=list)

    def within(self, what: str, err: float, tol: float, exact: bool = True) -> None:
        err = float(err)
        self.errors.append((what, err, exact))
        if not err <= tol:
            raise CheckFailed(f"{what}: relative error {err:.3e} exceeds {tol:.1e}")

    @staticmethod
    def require(ok: bool, what: str) -> None:
        if not ok:
            raise CheckFailed(what)


def rel_l2(a, b, weights=None) -> float:
    """||a - b|| / ||b|| in the (optionally weighted) Euclidean norm."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    w = np.ones_like(b) if weights is None else np.asarray(weights, float)
    den = math.sqrt(float(np.sum(b * b * w)))
    num = math.sqrt(float(np.sum((a - b) ** 2 * w)))
    return num / max(den, np.finfo(float).tiny)


def parse_vector_csv(data: bytes, n: int) -> np.ndarray:
    """Rows of an ``index,x,m,value`` artifact as an (n, 4) array."""
    lines = data.decode("ascii").split("\n")
    Verdict.require(lines[0] == "index,x,m,value", "vector CSV header")
    Verdict.require(lines[-1] == "" and len(lines) == n + 2, "vector CSV row count")
    try:
        table = np.array([[float(v) for v in line.split(",")] for line in lines[1:-1]])
    except ValueError as exc:
        raise CheckFailed(f"vector CSV value: {exc}") from None
    Verdict.require(table.shape == (n, 4), "vector CSV column count")
    Verdict.require(np.array_equal(table[:, 0], np.arange(n)), "vector CSV index column")
    return table


def trajectory_block(data: bytes, n: int, which: str) -> tuple[np.ndarray, np.ndarray]:
    """Times and values of the first or last n rows of a ``t,index,value`` CSV."""
    if which == "first":
        lines = data[: 64 * (n + 2)].split(b"\n")
        Verdict.require(lines[0] == b"t,index,value", "trajectory CSV header")
        rows = lines[1 : n + 1]
    else:
        rows = data.rsplit(b"\n", n + 1)[1:-1]
    try:
        table = np.array([[float(v) for v in row.split(b",")] for row in rows])
    except ValueError as exc:
        raise CheckFailed(f"trajectory CSV value: {exc}") from None
    Verdict.require(table.shape == (n, 3), "trajectory CSV block shape")
    Verdict.require(np.array_equal(table[:, 1], np.arange(n)), "trajectory CSV index column")
    Verdict.require(np.all(table[:, 0] == table[0, 0]), "trajectory CSV time column")
    return table[0, 0], table[:, 2]


def check_report(outcome: Outcome, verdict: Verdict) -> dict:
    """report.json: exactly its five keys, and quadrature below spectral."""
    report = outcome.json("report.json")
    Verdict.require(set(report) == REPORT_KEYS, f"report.json keys {sorted(report)}")
    quad = report["membershipQuadrature"]
    spec_log10 = report["membershipSpectralLog10"]
    Verdict.require(
        quad <= 0 or math.log10(quad) <= spec_log10 + 1e-9,
        f"membershipQuadrature {quad:.6e} above 10^{spec_log10:.6f}",
    )
    return report


class Checker:
    """Counts attempted and failed ops, and the worst exact-oracle error."""

    def __init__(self, stash_dir: Path):
        self.attempted = 0
        self.failed = 0
        self.worst_error = 0.0
        self.worst_what = ""
        self.discretisation: dict[str, float] = {}
        self.messages: list[str] = []
        self._digests: dict[str, str] = {}
        self._pending: list[tuple[str, tuple[Path, int | None], object]] = []
        self._stash_dir = stash_dir
        self._stashed = 0

    def record(self, key: str, outcome: Outcome, expect_code: int, verify) -> None:
        """Count one op: exit code and byte identity now, oracles later."""
        self.attempted += 1
        if outcome.code != expect_code:
            self._fail(key, f"exit code {outcome.code}, expected {expect_code} {outcome.note}")
            return
        digest = outcome.digest()
        seen = self._digests.get(key)
        if seen is None:
            self._digests[key] = digest
            self._pending.append((key, self._stash(outcome), verify))
        elif seen != digest:
            self._fail(key, "artifact bytes differ from an earlier repeat")

    def _stash(self, outcome: Outcome) -> tuple[Path, int | None]:
        self._stashed += 1
        path = self._stash_dir / str(self._stashed)
        path.mkdir(parents=True)
        for name, data in outcome.files.items():
            (path / name).write_bytes(data)
        return path, outcome.code

    def verify_pending(self) -> None:
        """Run the oracle checks of every first occurrence recorded so far."""
        for key, (path, code), verify in self._pending:
            outcome = Outcome(code, {p.name: p.read_bytes() for p in path.iterdir()})
            verdict = Verdict()
            try:
                verify(outcome, verdict)
            except Exception as exc:  # a malformed artifact must count, not crash the run
                self._fail(key, f"{type(exc).__name__}: {exc}")
            else:
                self._absorb(verdict)
        self._pending.clear()

    def _absorb(self, verdict: Verdict) -> None:
        for what, err, exact in verdict.errors:
            if exact:
                if err >= self.worst_error:
                    self.worst_error, self.worst_what = err, what
            else:
                self.discretisation[what] = max(err, self.discretisation.get(what, 0.0))

    def _fail(self, key: str, message: str) -> None:
        self.failed += 1
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(f"{key}: {message}")

    def fail_unchecked(self, key: str, message: str) -> None:
        """Count an op that could not even produce an outcome."""
        self.attempted += 1
        self._fail(key, message)

    @property
    def accuracy_log10(self) -> float:
        return math.log10(max(self.worst_error, ERROR_FLOOR))
