"""Byte identity of the CSV artifacts.

Every writer renders its float columns through one numpy %.17g kernel.  The
reference writers below format one cell at a time with
``format(float(x), ".17g")``; the library must produce exactly the same
text, down to signed zeros, subnormals, whole numbers, non-finite values and
the LF line endings.  The pinned SHA-256 values are the artifacts of small
fixed CLI runs of every command, written by the reference formatting.
"""

import hashlib
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semigroupinv as sg
from semigroupinv import artifacts, cli
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
     "3c0bc4159acc0991be6c61c628e6ce49aa5353e99db1ec24f5c6c7041f33e743"),
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


# -- the %.17g kernel ------------------------------------------------------------


def _g17(values) -> list[str]:
    """The kernel's text of each value, one line each."""
    words = artifacts._g17_words(np.asarray(values, float))
    return words.tobytes().translate(None, b"\0").decode("ascii").split(",")[1:]


def _assert_g17(values):
    values = np.asarray(values, float)
    assert _g17(values) == [_fmt(v) for v in values]


def _neighbours(x: float, steps: int = 3) -> list[float]:
    """``x`` and the ``steps`` doubles on either side of it."""
    below, above = [x], [x]
    for _ in range(steps):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[::-1] + above[1:]


class TestG17Kernel:
    """The vectorised kernel against Python's own ``format(x, ".17g")``, value by value."""

    # fresh draws on every run; the "random" profile's --hypothesis-seed replays them
    @settings(max_examples=300, deadline=None, derandomize=False)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=64))
    def test_any_double(self, values):
        _assert_g17(values)

    def test_powers_of_ten_and_their_neighbours(self):
        values = [v for k in range(-6, 19) for v in _neighbours(float(f"1e{k}"))]
        _assert_g17(values + [-v for v in values])

    def test_fast_path_keeps_the_neighbours_of_powers_of_ten(self):
        # log10 rounds some of them across the power, and X moves by one; only a
        # value that rounds to a power of ten, N = 10^16, goes to Python's %.17g
        for k in range(-3, 17):
            values = _neighbours(float(f"1e{k}"))
            expected = [format(v, ".16e")[:18] != "1.0000000000000000" for v in values]
            assert list(artifacts._digits17(np.array(values))[2]) == expected, k

    def test_exact_ties_round_half_even(self):
        rng = np.random.default_rng(16)
        odd = 2 * rng.integers(0, 2**52, 3000, dtype=np.int64) + 1
        odd = np.concatenate([odd, 2 * np.arange(1, 3000) + 1, 2**53 - 1 - 2 * np.arange(3000)])
        for d in (2, 4, 8):
            _assert_g17(odd / d)
            _assert_g17(-(odd / d))
        # the exact decimal of m / 2^j ends in 5: a tie wherever it has 18 digits
        _assert_g17([m / 2.0**j for m in (1234567890123456789 >> 10 | 1, 3, 5, 99) for j in range(1, 70)])

    def test_edges_of_the_fast_range(self):
        # the doubles on either side of 1e-4, 1e16 and 1e17, and of the literals
        # just below 1e-4 and 1e17 that round up to them at 17 digits
        values = [v for edge in (1e-4, 1e-5, 1e16, 1e17, 9.99999999999999995e-5, 99999999999999999.0)
                  for v in _neighbours(edge, 12)]
        _assert_g17(values + [-v for v in values])

    def test_signed_zeros_subnormals_and_non_finite(self):
        tiny = np.finfo(float).tiny
        values = [0.0, -0.0, 5e-324, -5e-324, tiny, -tiny, math.nextafter(tiny, 0.0), 1e-310,
                  np.finfo(float).max, -np.finfo(float).max, math.inf, -math.inf, math.nan]
        _assert_g17(values)

    @staticmethod
    def _head_mid_entry(text: str):
        """(sign, fraction, X, lead) of a fast-path text, the key of its head-and-mid table entry; None for a
        text that the fast path leaves to Python: an exponent, or a power of ten."""
        digits = text.lstrip("-").replace(".", "").lstrip("0")
        if "e" in text or digits.rstrip("0") == "1":
            return None
        whole, _, fraction = text.lstrip("-").partition(".")
        if whole == "0":  # 0.00d...: X = -1 - (zeros after the point), and the lead digit ends the mid word
            zeros = len(fraction) - len(fraction.lstrip("0"))
            return text[0] == "-", len(fraction) > zeros + 1, -1 - zeros, digits[0]
        return text[0] == "-", bool(fraction), len(whole) - 1, digits[0]

    def test_sweep_of_the_head_and_mid_table(self):
        # each sign, X in [-4, 16] and lead digit, with and without fraction digits where a double has
        # them (5.5e15 has none; 0.5 and 0.002 have none after the lead), and integers whose zeros fall
        # in the group that trailing-zero stripping empties (1200 is "1" and "200", and "200" is "2"
        # stripped), whose integer words must turn those NULs back into zeros
        values = []
        for x in range(-4, 17):
            for d in range(1, 10):
                base = float(f"{d}e{x}")
                values += [base, float(f"{d}.5e{x}"), float(f"{d}.25e{x}"), float(f"{d}.0625e{x}"),
                           float(f"{d}.1234567890123456e{x}"), base + 0.5,
                           math.nextafter(base, 0.0), math.nextafter(base, math.inf)]
        for whole in (1200.0, 12000000.0, 1.2e11, 1.2e15, 1000200.0, 100020003.0, 3000000000000.0):
            values += [whole, whole + 0.5, whole + 0.25]
        values += [-v for v in values]
        _assert_g17(values)
        entries = {self._head_mid_entry(_fmt(v)) for v in values} - {None}
        # every entry that a double reaches: 2 signs x 2 x 21 X x 9 lead digits (no lead digit is 0),
        # less 48 a sign that none does: X = 16 with a fraction digit, X = 15 with one past 2^52
        # (leads 5..9), 1.0 (a power of ten, left to Python), and each X < 0 without one but 0.5,
        # 0.02 and 0.002 (a 17-digit rounding window holds at most one double, the nearest)
        assert len(entries) == 2 * (2 * 21 * 9 - 48) == 660

    def test_fast_path_share_of_a_trajectory(self):
        # the ou400 witness trajectory: almost every value is in the fast range
        gen = sg.build_ou(6.0, 400, 1.0)
        dec = sg.spectral_decompose(gen)
        traj = sg.solve_backward_cauchy(sg.InverseProblem(dec, 1.0, gen.space.points**2), coeff_tol=1e-8)
        _, _, fast = artifacts._digits17(traj.values.ravel())
        assert np.count_nonzero(fast) >= 0.999 * fast.size


# cells that no fast-path exponent reaches: signed zeros, subnormals, the least
# normal, non-finite values, powers of ten and magnitudes past 1e17 or below 1e-4
ODD_CELLS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, -2.2250738585072014e-308,
             math.nan, math.inf, -math.inf, 1.0, -100.0, 1e17, -3e19, 1e-5]


@st.composite
def _trajectories(draw):
    """1..40 times by 1..300 states: each row's magnitudes reach its own 1e-6..1e20, so k changes from
    row to row, and odd cells fall anywhere; the times start below 1e-4, so the stamps change width."""
    rows, n = draw(st.integers(1, 40)), draw(st.integers(1, 300))
    tops = np.array(draw(st.lists(st.integers(-6, 20), min_size=rows, max_size=rows)), float)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.uniform(1.0, 10.0, (rows, n)) * 10.0 ** rng.uniform(-6.0, tops[:, None], (rows, n))
    values[rng.random((rows, n)) < 0.5] *= -1.0
    for cell, odd in draw(st.lists(st.tuples(st.integers(0, rows * n - 1), st.sampled_from(ODD_CELLS)), max_size=30)):
        values.flat[cell] = odd
    start = draw(st.floats(0.0, 1e-4, exclude_max=True))
    times = np.linspace(start, draw(st.floats(1e-4, 1e6)), rows)
    return sg.BackwardTrajectory(times, values)


# %.17g texts of 1..25 bytes: short decimals, and every float, which reaches the 17-digit, exponent and fallback texts
_STAMPS = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, 0.25, 10.0]), st.floats())


@st.composite
def _stamped_trajectories(draw):
    """1..12 times by 1..20 states, whose stamps mix short and long texts, so neighbouring chunks take
    different stamp widths; the values reach every fast exponent X in [-4, 16], both signs, and every
    fallback kind."""
    rows, n = draw(st.integers(1, 12)), draw(st.integers(1, 20))
    times = np.array(draw(st.lists(_STAMPS, min_size=rows, max_size=rows)), float)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.uniform(1.0, 10.0, (rows, n)) * 10.0 ** rng.integers(-4, 17, (rows, n))
    values[rng.random((rows, n)) < 0.5] *= -1.0
    odd = rng.random((rows, n)) < draw(st.floats(0.0, 0.5))
    values[odd] = rng.choice(ODD_CELLS + [WIDEST], np.count_nonzero(odd))
    return sg.BackwardTrajectory(times, values)


class TestTrajectoryChunks:
    """``trajectory.csv`` in chunks of whole rows, each the bytes of the reference writer."""

    @pytest.mark.parametrize("n", [100, artifacts._CSV_CHUNK_CELLS + 5], ids=["rows-per-chunk", "row-over-chunk"])
    def test_fallback_cells_at_chunk_edges(self, n):
        rows_per_chunk = max(1, artifacts._CSV_CHUNK_CELLS // n)
        rows = 3 * rows_per_chunk
        rng = np.random.default_rng(n)
        values = rng.standard_normal((rows, n))
        for start in range(0, rows, rows_per_chunk):
            values[start, 0] = -0.0  # first cell of a chunk
            values[start + rows_per_chunk - 1, -1] = 5e-324  # last cell of a chunk
            values[start + rows_per_chunk // 2, n // 2] = math.nan
        traj = sg.BackwardTrajectory(np.linspace(0.0, 1.0, rows), values)
        chunks = list(artifacts.trajectory_csv_chunks(traj))
        assert chunks[0] == b"t,index,value" and chunks[-1] == b"\n"
        assert [c.count(b"\n") for c in chunks[1:-1]] == [rows_per_chunk * n] * 3
        assert b"".join(chunks).decode("ascii") == reference_trajectory_csv(traj)

    @pytest.mark.parametrize("gamma", [None, "0.2"], ids=["spectral", "mixed"])
    def test_streamed_pde_file_is_trajectory_to_csv(self, tmp_path, monkeypatch, gamma):
        solves = []

        def keep(solve):
            def wrapper(*args, **kwargs):
                solves.append(solve(*args, **kwargs))
                return solves[-1]

            return wrapper

        monkeypatch.setattr(cli, "solve_backward_cauchy", keep(cli.solve_backward_cauchy))
        monkeypatch.setattr(cli, "regularised_pide_solve", keep(cli.regularised_pide_solve))
        model = tmp_path / "ou400.json"
        model.write_text(json.dumps({"schemaVersion": 1, "type": "ou", "parameters": {"n": 400}}), encoding="utf-8")
        argv = ["pde", "--model", str(model), "--T", "0.05", "--g", "x^2", "--steps", "200", "--output", str(tmp_path)]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ([] if gamma is None else ["--gamma", gamma]))
        assert exc.value.code == 0
        (traj,) = solves
        assert traj.values.size > 2 * artifacts._CSV_CHUNK_CELLS
        assert (tmp_path / "trajectory.csv").read_bytes() == sg.trajectory_to_csv(traj).encode("ascii")

    def test_streamed_write_holds_a_working_set_independent_of_the_rows(self, tmp_path):
        rng = np.random.default_rng(7)
        peaks = []
        for rows in (1000, 2000):  # 0.4 M and 0.8 M cells: 18 and 35 MB of text
            values = rng.standard_normal((rows, 400)) * 10.0 ** rng.uniform(-3.0, 3.0, (rows, 400))
            traj = sg.BackwardTrajectory(np.linspace(0.0, 1.0, rows), values)
            tracemalloc.start()
            try:
                with open(tmp_path / "trajectory.csv", "wb") as fh:
                    fh.writelines(artifacts.trajectory_csv_chunks(traj))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # one chunk's buffers and kernel arrays, about 170 bytes a chunk cell:
        # 5.53 and 5.56 MB measured at 1000 and 2000 rows with 32768-cell chunks
        assert peaks[1] < 500 * artifacts._CSV_CHUNK_CELLS
        assert peaks[1] < 1.1 * peaks[0]

    # "1" and "n" give each row a chunk, "3n+1" three rows and a cell to spare,
    # "rows*n" the whole trajectory one chunk: only the chunk edges may move
    @settings(deadline=None)
    @given(_trajectories(), st.sampled_from(["1", "n", "3n+1", "32768", "rows*n"]))
    def test_bytes_do_not_depend_on_the_chunk_size(self, traj, size):
        rows, n = traj.values.shape
        cells = {"1": 1, "n": n, "3n+1": 3 * n + 1, "32768": 32768, "rows*n": rows * n}[size]
        with mock.patch.object(artifacts, "_CSV_CHUNK_CELLS", cells):  # Hypothesis refuses monkeypatch
            chunks = list(artifacts.trajectory_csv_chunks(traj))
        assert chunks[0] == b"t,index,value" and chunks[-1] == b"\n"
        assert all(c.startswith(b"\n") for c in chunks[1:-1])
        per = max(1, cells // n)  # whole rows in every chunk, all but the last the same
        expected = [per * n] * (rows // per) + ([rows % per * n] if rows % per else [])
        assert [c.count(b"\n") for c in chunks[1:-1]] == expected
        assert b"".join(chunks).decode("ascii") == reference_trajectory_csv(traj)

    # one to three rows a chunk: each chunk slices the stamps to its own widest one
    @settings(deadline=None)
    @given(_stamped_trajectories(), st.sampled_from(["1", "n", "2n", "3n+1"]))
    def test_stamps_of_every_width_cross_chunks(self, traj, size):
        n = traj.values.shape[1]
        cells = {"1": 1, "n": n, "2n": 2 * n, "3n+1": 3 * n + 1}[size]
        with mock.patch.object(artifacts, "_CSV_CHUNK_CELLS", cells):
            text = b"".join(artifacts.trajectory_csv_chunks(traj)).decode("ascii")
        assert text == reference_trajectory_csv(traj)


# -- cells sized to the largest exponent ------------------------------------------

WIDEST = -2.2250738585072014e-308  # ",-2.2250738585072014e-308": 25 bytes, the longest %.17g cell
FALLBACK = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e300, math.nan, math.inf, -math.inf,
            1.0, 100.0, -1e16, 1e17, 1e-5, WIDEST]  # every cell outside the fast path


def _capped(rng, size, cap) -> np.ndarray:
    """Signed values with %.17g exponents X drawn from [-4, cap], one of them exactly at ``cap``."""
    x = rng.uniform(1.0, 9.9, size) * 10.0 ** rng.integers(-4, cap + 1, size)
    x.flat[rng.integers(x.size)] = 1.2345678901234567 * 10.0**cap
    return np.where(rng.random(size) < 0.5, -x, x)


def _k(values) -> int:
    """The integer-digit words of ``values``' cells."""
    return artifacts._integer_words(*artifacts._digits17(np.ravel(values).astype(float))[1:])


class TestCellWidth:
    """Each table or chunk takes max(7, 6 + k) words a cell, k = ceil(max(X, 0) / 4) over its fast cells:
    6 + k hold every fast cell, and 7 the widest fallback."""

    @pytest.mark.parametrize("cap", range(-4, 17))
    def test_random_tables_at_each_exponent_cap(self, cap):
        rng = np.random.default_rng(cap + 100)
        for _ in range(40):
            values = _capped(rng, 64, cap)
            slow = rng.random(64) < 0.2
            values[slow] = rng.choice(FALLBACK, np.count_nonzero(slow))
            values[rng.integers(64)] = 1.2345678901234567 * 10.0**cap  # keep the cap if it was replaced
            assert artifacts._g17_words(values).shape == (64, max(7, 6 + -(-max(cap, 0) // 4)))
            _assert_g17(values)

    def test_fallback_cells_only_take_seven_words(self):
        values = FALLBACK + [-WIDEST]
        assert not artifacts._digits17(np.array(values))[2].any()
        assert artifacts._g17_words(values).shape == (len(values), 7)
        _assert_g17(values)

    def test_widest_fallback_in_a_table_of_small_exponents(self):
        # every fast X <= 0: no integer-digit word, and the widest fallback still fits
        values = [0.5, -0.0001234, WIDEST, 9.87654321, -1e-300, WIDEST]
        assert artifacts._g17_words(values).shape == (6, 7)
        _assert_g17(values)

    def test_csv_table_with_mixed_width_columns(self):
        rng = np.random.default_rng(21)
        columns = [
            np.arange(50.0),  # the index: X <= 1
            _capped(rng, 50, 16),  # 16 integer digits: k = 4
            _capped(rng, 50, -1),  # no integer digit
            np.array([WIDEST, math.nan, -0.0, 5e-324, 1e300] * 10),  # fallback cells only
        ]
        expected = "a,b,c,d\n" + "".join(",".join(_fmt(c[i]) for c in columns) + "\n" for i in range(50))
        assert artifacts._csv_table("a,b,c,d", *columns) == expected
        assert artifacts._csv_table("a,b", columns[2], columns[3]) == "a,b\n" + "".join(
            f"{_fmt(b)},{_fmt(c)}\n" for b, c in zip(columns[2], columns[3]))

    def test_trajectory_chunks_take_each_k(self):
        n = 100
        rows_per_chunk = artifacts._CSV_CHUNK_CELLS // n
        caps = [-4, 0, 4, 5, 8, 9, 12, 13, 16]  # k = 0, 0, 1, 2, 2, 3, 3, 4, 4
        rng = np.random.default_rng(9)
        blocks = [_capped(rng, (rows_per_chunk, n), cap) for cap in caps]
        for block, cap in zip(blocks, caps):
            block[0, 0] = -0.0  # first cell of a chunk
            block[-1, -1] = 5e-324  # last cell of a chunk
            block[rows_per_chunk // 2, n // 2] = math.nan
            block[1, 0] = 1.2345678901234567 * 10.0**cap  # keep the cap if a corner held it
        assert [_k(b) for b in blocks] == [0, 0, 1, 2, 2, 3, 3, 4, 4]
        values = np.concatenate(blocks)
        traj = sg.BackwardTrajectory(np.linspace(0.0, 1.0, len(values)), values)
        chunks = list(artifacts.trajectory_csv_chunks(traj))
        assert [c.count(b"\n") for c in chunks[1:-1]] == [rows_per_chunk * n] * len(caps)
        assert b"".join(chunks).decode("ascii") == reference_trajectory_csv(traj)
