"""Every byte the CLI writes: the CSV artifacts, their %.17g kernel, and the
JSON and text writers.

Every CSV artifact has LF line endings and writes each number as
format(x, ".17g"), which round-trips every double; an integer index i is
written as the float i, whose %.17g is its %d.  One numpy kernel renders a
float column as those bytes: ``_digits17`` finds each cell's digits, and
``_g17_render`` writes them into a caller's buffer.

* Fast path: each cell whose %.17g exponent X lies in [-4, 16], %g's fixed
  notation at precision 17.  There 10^(16-X) is an exact double, and
  Dekker's TwoProduct (Veltkamp's split by 2^27 + 1, no FMA) gives
  |x| 10^(16-X) = P + e exactly, P an even integer >= 2^53; so
  N = P + rint(e) is the 17-digit integer that %.17g rounds |x| to, half
  to even.  X starts at floor(log10|x|); an N outside [10^16, 10^17)
  moves X by one, once, and only 10^16 < N < 10^17 proves X.
* Layout: the cells of a table or chunk are 7 + k uint32 words, NUL-padded,
  with k = ceil(max(X, 0) / 4) over its fast cells (``_cell_words``): the comma,
  the sign, the "0" of "0." and, for |x| >= 1, the leading digit; k words
  of integer digits; the point and up to three zeros after it; the leading
  digit of |x| < 1; four words of fraction digits without trailing zeros.
  A table of 4-digit words and a byte mask per X fill them.
* Fallback: every other cell (zeros, subnormals, |x| < 1e-4 or >= ~1e17,
  inf, nan, and values that round to a power of ten, such as 1.0 and
  100.0) is formatted by Python's own %.17g.  Its widest text,
  ",-2.2250738585072014e-308", is 25 bytes, so it fits 7 words.

A table's cells lie row after row, the first of each line with LF in
place of its comma, and one ``bytes.translate(None, b"\\0")`` drops the
padding: the text is the header, the lines and one final LF.  A
trajectory is rendered in chunks of about ``_CSV_CHUNK_CELLS`` values
(:func:`trajectory_csv_chunks`), each with its own k, which ``pde`` streams
to trajectory.csv without building the whole text.  The chunk size sets
only where chunks meet, never a byte: it trades a fixed cost per chunk
against a working set that grows with the chunk.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ._numerics import _split, _two_product_error
from .errors import InvalidConfig, clip
from .inversion import BackwardTrajectory
from .spectral import SpectralDecomposition, WeightedStateSpace, build_space

CSV_HEADER = "index,x,m,value"

# Values in a chunk of a long table.  Each chunk pays a fixed cost of some 60
# numpy calls on short arrays, one bytearray and one translate, and its working
# set grows by about 175 bytes a value.  Of 8192..65536, 32768 wrote the ou400
# trajectory (1899 x 400) fastest, 35.2 against 38.6 ms at 8192, and the jump400
# one (201 x 400) within 1% of the fastest (2-core AMD EPYC, one BLAS thread).
_CSV_CHUNK_CELLS = 32768


def _words(byte_rows) -> np.ndarray:
    """Rows of 4 bytes as native uint32 words, so a word holds its bytes in memory order."""
    return np.ascontiguousarray(byte_rows, dtype=np.uint8).view(np.uint32)[..., 0]


def _build_g17_tables():
    """The kernel's word tables, built with numpy.

    ``groups``: at v, the 4 digits of v; at v + 10000, the same without
    trailing zeros (0000 gives four NULs).  ``lead``: at d, three NULs and
    the digit d.  ``integer_mask``: in column X + 4, the bytes of the four
    digit words that hold digits 1..16 of N at positions p <= X.
    ``point``: at X + 4, NULs; at 21 + X + 4, the point and, for X < 0,
    -X - 1 zeros.  ``head``: at 2 * sign + (X < 0), the comma, then "-" for
    a negative x and "0" before the point of |x| < 1.
    """
    digits = np.indices((10, 10, 10, 10), dtype=np.uint8).reshape(4, -1).T  # row v: the digits of v
    trailing_zero = np.logical_and.accumulate(digits[:, ::-1] == 0, axis=1)[:, ::-1]  # it and every later digit 0
    ascii_digits = digits + np.uint8(ord("0"))
    groups = _words(np.concatenate([ascii_digits, np.where(trailing_zero, np.uint8(0), ascii_digits)]))
    lead = np.zeros((10, 4), np.uint8)
    lead[:, 3] = ascii_digits[:10, 3]
    x = np.arange(-4, 17)
    positions = np.arange(1, 17).reshape(4, 4)
    integer_mask = _words(np.where(positions <= x[:, None, None], 255, 0)).T.copy()
    point = np.zeros((2, 21, 4), np.uint8)
    point[1, :, 0] = ord(".")
    point[1, :3, 1:] = np.where(np.arange(1, 4) <= -1 - x[:3, None], ord("0"), 0)
    head = np.zeros((4, 4), np.uint8)
    head[:, 0] = ord(",")
    head[2:, 1] = ord("-")
    head[1::2, 2] = ord("0")
    return groups, _words(lead), integer_mask, _words(point).ravel(), _words(head)


_DIGITS4, _LEAD_DIGIT, _INTEGER_MASK, _POINT, _HEAD = _build_g17_tables()

_POW10 = 10.0 ** np.arange(21)  # exact: every 10^k with k <= 22 is a double
_POW10_HIGH, _POW10_LOW = _split(_POW10)


def _round17(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """round-half-even(a 10^k) as int64, exactly, wherever 2^53 <= a 10^k < 2^63.

    Dekker's TwoProduct gives a 10^k = p + e with p = fl(a 10^k), an even
    integer there; so the rounded value is p + rint(e).
    """
    p = np.take(_POW10, k)
    p *= a
    e = _two_product_error(*_split(a), np.take(_POW10_HIGH, k), np.take(_POW10_LOW, k), p)
    return p.astype(np.int64) + np.rint(e).astype(np.int64)


def _digits17(x: np.ndarray):
    """``(n, exp10, fast)``: where ``fast``, |x| rounds to n 10^(exp10 - 16) with 10^16 < n < 10^17.

    The cells outside ``fast`` hold arbitrary n and exp10.
    """
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        exp10 = np.floor(np.log10(a))
    fast = (exp10 >= -4) & (exp10 <= 16)  # False for 0, nan, inf and every subnormal
    a[~fast], exp10[~fast] = 1.0, 0.0
    exp10 = exp10.astype(np.int64)
    n = _round17(a, 16 - exp10)
    # log10 may round across a power of ten, and N may round up to 10^17: move X once
    moved = np.flatnonzero((n < 10**16) | (n >= 10**17))
    if moved.size:
        exp10[moved] += np.where(n[moved] < 10**16, -1, 1)
        n[moved] = _round17(a[moved], np.clip(16 - exp10[moved], 0, 20))
        fast[moved] &= (exp10[moved] >= -4) & (exp10[moved] <= 16)
    # 10^16 < N < 10^17 proves X; N = 10^16 may also come from |x| just below 10^X
    fast &= (n > 10**16) & (n < 10**17)
    return n, exp10, fast


def _cell_words(exp10, fast) -> int:
    """7 + k, the words of a cell that holds every ``fast`` X <= 4k in k integer-digit words."""
    return 7 + -(-int(np.max(exp10, where=fast, initial=0)) // 4)


def _g17_render(x: np.ndarray, digits, out: np.ndarray) -> None:
    """Write ``"," + format(x_i, ".17g")`` into row i of ``out``, NUL-padded.

    ``digits`` is ``_digits17(x)``, whose ``n`` this overwrites.  ``out`` is
    a (cells, 7 + k) uint32 array with 7 + k >= ``_cell_words(exp10, fast)``.
    """
    n, exp10, fast = digits
    k = out.shape[1] - 7
    # N = lead 10^16 + four 4-digit groups, one per row of the planar arrays
    lead = n // 10**16
    n -= lead * 10**16
    high = n // 10**8
    low = (n - high * 10**8).astype(np.int32)
    high = high.astype(np.int32)
    groups = np.empty((4, x.size), np.int32)
    np.floor_divide(high, 10**4, out=groups[0])
    np.subtract(high, groups[0] * 10**4, out=groups[1])
    np.floor_divide(low, 10**4, out=groups[2])
    np.subtract(low, groups[2] * 10**4, out=groups[3])
    # a fraction group drops its trailing zeros when every later group is 0
    stripped = np.empty((4, x.size), np.int32)
    stripped[3] = 10000
    np.multiply(groups[3] == 0, 10000, out=stripped[2])
    np.multiply(groups[2] == 0, stripped[2], out=stripped[1])
    np.multiply(groups[1] == 0, stripped[1], out=stripped[0])
    stripped += groups
    # every table index below is in range where fast; "clip" keeps the other cells' harmless.
    # Digits at positions p > 4k are fraction digits in every fast cell, so only k words need a mask.
    fraction = np.take(_DIGITS4, stripped, mode="clip")
    if k:
        mask = np.take(_INTEGER_MASK[:k], exp10 + 4, axis=1, mode="clip")
        out[:, 1:1 + k] = (np.take(_DIGITS4, groups[:k], mode="clip") & mask).T
        fraction[:k] &= ~mask
    below_one = exp10 < 0
    lead = np.take(_LEAD_DIGIT, lead, mode="clip")
    head = np.take(_HEAD, 2 * np.signbit(x) + below_one)
    out[:, 0] = np.where(below_one, head, head | lead)
    point = fraction[0] | fraction[1] | fraction[2] | fraction[3]
    point |= below_one
    out[:, k + 1] = np.take(_POINT, (point != 0) * 21 + exp10 + 4, mode="clip")
    out[:, k + 2] = np.where(below_one, lead, 0)
    out[:, k + 3:] = fraction.T
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = [b",%.17g" % v for v in x[slow].tolist()]
        out[slow] = np.array(text, dtype=f"S{4 * out.shape[1]}").view(np.uint32).reshape(-1, out.shape[1])


def _g17_words(x) -> np.ndarray:
    """``"," + format(x_i, ".17g")`` for each x_i, as NUL-padded rows of ``_cell_words`` uint32 words."""
    x = np.ascontiguousarray(x, dtype=float).ravel()
    digits = _digits17(x)
    out = np.empty((x.size, _cell_words(*digits[1:])), np.uint32)
    _g17_render(x, digits, out)
    return out


def _csv_table(header: str, *columns) -> str:
    """``header``, then one line of the float ``columns``, comma-separated, per row."""
    cells = np.column_stack(columns)
    words = _g17_words(cells)
    words.view(np.uint8)[:: cells.shape[1], 0] = ord("\n")  # each line opens with LF, not a comma
    return header + words.tobytes().translate(None, b"\0").decode("ascii") + "\n"


def _packed_words(x, lead: bytes) -> np.ndarray:
    """``lead + format(x_i, ".17g")`` for each x_i, as rows of uint32 words NUL-padded to the longest."""
    cells = [lead + c for c in _g17_words(x).tobytes().translate(None, b"\0").split(b",")[1:]]
    width = -(-max(map(len, cells), default=1) // 4)
    return np.array(cells, dtype=f"S{4 * width}").view(np.uint32).reshape(len(cells), width)


def vector_to_csv(space: WeightedStateSpace, values) -> str:
    """Serialize a grid function as ``index,x,m,value`` rows, LF endings."""
    values = space.check_vector(values)
    return _csv_table(CSV_HEADER, np.arange(space.size), space.points, space.weights, values)


def vector_from_csv(text: str) -> tuple[WeightedStateSpace, np.ndarray]:
    """Parse the output of :func:`vector_to_csv`.

    A row without exactly four fields, with a non-numeric x, m or value, or
    with an index other than its position 0, 1, ... raises
    :class:`InvalidConfig`, which quotes the row through ``errors.clip``.
    The lines are the text split on LF, so they take the text's own size.
    """
    header, *lines = text.split("\n")
    header = header.strip()
    if header != CSV_HEADER:
        raise InvalidConfig(f"expected header {CSV_HEADER!r}, got {clip(repr(header))}")
    rows = []
    for lineno, line in enumerate(lines, start=2):
        line = line.strip()
        if not line:
            continue
        try:
            index, x, m_, v = line.split(",")
            index, row = int(index), (float(x), float(m_), float(v))
        except ValueError:
            raise InvalidConfig(
                f"line {lineno}: expected fields {CSV_HEADER} with an integer index"
                f" and numeric x, m, value, got {clip(repr(line))}"
            ) from None
        if index != len(rows):
            raise InvalidConfig(f"line {lineno}: index {index}, expected {len(rows)}")
        rows.append(row)
    xs, ms, vs = np.array(rows, float).reshape(-1, 3).T
    return build_space(xs, ms), vs.copy()


def eigenvalues_to_csv(dec: SpectralDecomposition) -> str:
    """CSV ``index,lambda`` of the ascending eigenvalues of -A."""
    return _csv_table("index,lambda", np.arange(dec.size), dec.eigenvalues)


def gamma_study_to_csv(rows) -> str:
    """CSV ``gamma,error,residual`` of a ``gamma_convergence_study``."""
    columns = np.array([(row.gamma, row.error, row.residual) for row in rows], float).reshape(-1, 3).T
    return _csv_table("gamma,error,residual", *columns)


def trajectory_csv_chunks(traj: BackwardTrajectory):
    """The bytes of :func:`trajectory_to_csv`, in chunks.

    A chunk holds the lines ``t,index,value`` of whole times, at least one
    and about ``_CSV_CHUNK_CELLS`` values.  The index column is rendered
    once and the times about ``_CSV_CHUNK_CELLS`` at a time, so the working
    set, about 175 bytes a chunk value (5.7 MB), does not grow with the
    number of times.
    """
    yield b"t,index,value"
    n = traj.values.shape[1]
    index = _packed_words(np.arange(n), b",")
    rows = max(1, _CSV_CHUNK_CELLS // max(n, 1))
    block = rows * max(1, _CSV_CHUNK_CELLS // rows)
    for start in range(0, len(traj.times), block):
        stamps = _packed_words(traj.times[start:start + block], b"\n")
        for a in range(0, len(stamps), rows):
            chunk = traj.values[start + a:start + a + rows]
            x = np.ascontiguousarray(chunk, dtype=float).ravel()
            digits = _digits17(x)
            cell = _cell_words(*digits[1:])
            width = stamps.shape[1] + index.shape[1] + cell
            buf = bytearray(4 * width * x.size)  # ``lines`` renders in place: no copy before translate
            lines = np.frombuffer(buf, np.uint32).reshape(len(chunk), n, width)
            lines[..., :stamps.shape[1]] = stamps[a:a + rows, None]
            lines[..., stamps.shape[1]:-cell] = index
            _g17_render(x, digits, lines.reshape(-1, width)[:, -cell:])
            yield buf.translate(None, b"\0")
    yield b"\n"


def trajectory_to_csv(traj: BackwardTrajectory) -> str:
    """Long-format CSV ``t,index,value`` of a backward trajectory.

    One block of n rows per time, len(times) * n rows after the header.
    """
    return b"".join(trajectory_csv_chunks(traj)).decode("ascii")


def write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 with LF line endings."""
    path.write_text(text, encoding="utf-8", newline="\n")


def write_json(path: Path, payload: dict) -> None:
    """Write ``payload`` as indented JSON with sorted keys and a final LF."""
    write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_trajectory(path: Path, traj: BackwardTrajectory) -> None:
    """Stream :func:`trajectory_to_csv` of ``traj`` to ``path``, a chunk at a time."""
    with open(path, "wb") as fh:
        fh.writelines(trajectory_csv_chunks(traj))
