"""Every byte the CLI writes: the CSV artifacts, their %.17g kernel, and the
JSON and text writers; and the bounded reader of its input files, with the
``csv:`` vector file it reads back.

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
* Layout: the cells of a table or chunk are max(7, 6 + k) uint32 words,
  NUL-padded, with k = ceil(max(X, 0) / 4) over its fast cells
  (``_integer_words``): the comma, the sign, and the leading digit for
  |x| >= 1 or "0." for |x| < 1; k words of integer digits; one mid word,
  which holds the point for |x| >= 1 (nothing when no fraction digit
  follows) or, for |x| < 1, the -X - 1 zeros after the point and the
  leading digit; four words of fraction digits without trailing zeros.
  A table of 4-digit words fills the fraction words, and the integer words
  are the first k of them with their NULs turned back into zeros and a byte
  mask per X applied; one head-and-mid table, a uint64 per sign, fraction,
  X and lead digit, fills the head and mid words with one lookup.
* Fallback: every other cell (zeros, subnormals, |x| < 1e-4 or >= ~1e17,
  inf, nan, and values that round to a power of ten, such as 1.0 and
  100.0) is formatted by Python's own %.17g.  Its widest text,
  ",-2.2250738585072014e-308", is 25 bytes, so it fits 7 words.

A table's cells lie row after row, the first of each line with LF in
place of its comma, and one ``bytes.translate(None, b"\\0")`` drops the
padding: the text is the header, the lines and one final LF.  A
trajectory is rendered in chunks of about ``_CSV_CHUNK_CELLS`` values
(:func:`trajectory_csv_chunks`), each with its own k and its own stamp
width, that of its widest time stamp, which ``pde`` streams to
trajectory.csv without building the whole text.  Each padding byte costs
``translate`` as much as a text byte, so a line is kept near the width of
its text.  The chunk size sets only where chunks meet, never a byte: it
trades a fixed cost per chunk against a working set that grows with the
chunk.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ._numerics import _split, _two_product_error
from .errors import InvalidConfig, ValidationError, check_budget, clip
from .inversion import BackwardTrajectory
from .spectral import SpectralDecomposition, WeightedStateSpace, build_space

CSV_HEADER = "index,x,m,value"

# Most bytes of a model or vector file.  It admits the largest model the state
# budgets of ``models`` allow: a ``chain`` of 2000 states whose matrix json.dumps
# writes at full precision, at most 26 bytes an entry ("-2.2250738585072014e-308, ").
# Reading and parsing such a file of 94 MB peaks at 0.27 GB RSS in 1.6 s (2-core Xeon).
_MAX_INPUT_BYTES = 128 * 2**20

# Values in a chunk of a long table.  Each chunk pays a fixed cost of some 60
# numpy calls on short arrays, one bytearray and one translate, and its working
# set grows by about 170 bytes a value.  Of 8192..65536, 32768 wrote the ou400
# trajectory (1899 x 400) fastest, 35.2 against 38.6 ms at 8192, and the jump400
# one (201 x 400) within 1% of the fastest (2-core AMD EPYC, one BLAS thread).
_CSV_CHUNK_CELLS = 32768


def _words(byte_rows) -> np.ndarray:
    """Rows of 4 bytes as native uint32 words, so a word holds its bytes in memory order."""
    return np.ascontiguousarray(byte_rows, dtype=np.uint8).view(np.uint32)[..., 0]


def _build_g17_tables():
    """The kernel's word tables, built with numpy.

    ``groups``: at v, the 4 digits of v; at v + 10000, the same without
    trailing zeros (0000 gives four NULs).  ``integer_mask``: in column
    X + 4, the bytes of the four digit words that hold digits 1..16 of N at
    positions p <= X.  ``head_mid``: the one head-and-mid table, a uint64
    entry per cell that holds its head word, then its mid word, in memory
    order, at ((2 * sign + fraction) * 21 + X + 4) * 10 + d, with
    ``fraction`` 1 where a fraction digit follows the integer digits.  The
    head word is the comma and "-" for a negative x, then the lead digit d
    for |x| >= 1 or "0." for |x| < 1; the mid word is the point if a
    fraction digit follows, and NULs if not, for X >= 0, or for X < 0,
    -X - 1 zeros and the lead digit d.
    """
    digits = np.indices((10, 10, 10, 10), dtype=np.uint8).reshape(4, -1).T  # row v: the digits of v
    trailing_zero = np.logical_and.accumulate(digits[:, ::-1] == 0, axis=1)[:, ::-1]  # it and every later digit 0
    ascii_digits = digits + np.uint8(ord("0"))
    groups = _words(np.concatenate([ascii_digits, np.where(trailing_zero, np.uint8(0), ascii_digits)]))
    lead = ascii_digits[:10, 3]
    x = np.arange(-4, 17)
    positions = np.arange(1, 17).reshape(4, 4)
    integer_mask = _words(np.where(positions <= x[:, None, None], 255, 0)).T.copy()
    head_mid = np.zeros((2, 2, 21, 10, 2, 4), np.uint8)  # sign, fraction, X + 4, d, (head, mid) word
    head, mid = head_mid[..., 0, :], head_mid[..., 1, :]
    head[..., 0] = ord(",")
    head[1, ..., 1] = ord("-")
    head[:, :, 4:, :, 3] = lead
    head[0, :, :4, :, 1:3] = head[1, :, :4, :, 2:] = np.frombuffer(b"0.", np.uint8)
    mid[:, 1, 4:, :, 0] = ord(".")
    mid[:, :, :4, :, :3] = np.where(np.arange(1, 4) <= -1 - x[:4, None], ord("0"), 0)[:, None]
    mid[:, :, :4, :, 3] = lead
    return groups, integer_mask, _words(head_mid.reshape(-1, 2, 4)).view(np.uint64).ravel()


_DIGITS4, _INTEGER_MASK, _HEAD_MID = _build_g17_tables()
_ZEROS4 = _DIGITS4[0]  # "0000", which turns a NUL left by stripping back into its "0" digit

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
    n = p.astype(np.int64)
    n += np.rint(e, out=e).astype(np.int64)
    return n


def _digits17(x: np.ndarray):
    """``(n, exp10, fast)``: where ``fast``, |x| rounds to n 10^(exp10 - 16) with 10^16 < n < 10^17.

    ``n`` is int64 and ``exp10`` int32.  The cells outside ``fast`` hold
    arbitrary n and exp10.
    """
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        exp10 = np.log10(a)
        np.floor(exp10, out=exp10)
    fast = (exp10 >= -4) & (exp10 <= 16)  # False for 0, nan, inf and every subnormal
    if not fast.all():
        slow = ~fast
        a[slow], exp10[slow] = 1.0, 0.0
    exp10 = exp10.astype(np.int32)
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


def _integer_words(exp10, fast) -> int:
    """k = ceil(max(X, 0) / 4), the integer-digit words that hold every ``fast`` X <= 4k."""
    return -(-int(np.max(exp10, where=fast, initial=0)) // 4)


def _cell_words(k: int) -> int:
    """The words of a cell with k integer-digit words: 6 + k, and at least the 7 of the widest fallback."""
    return max(7, 6 + k)


def _g17_render(x: np.ndarray, digits, k: int, out: np.ndarray) -> None:
    """Write ``"," + format(x_i, ".17g")`` into row i of ``out``, NUL-padded.

    ``digits`` is ``_digits17(x)``, whose ``n`` and ``exp10`` this
    overwrites, and ``k`` is at least its ``_integer_words``.  ``out`` is a
    (cells, ``_cell_words(k)``) uint32 array, all NUL past each row's first
    6 + k words.
    """
    n, exp10, fast = digits
    # N = lead 10^16 + four 4-digit groups, one per row of the planar arrays; past
    # one int64 split into 9 and 8 digits, every step fits int32
    high = n // 10**8
    n -= high * 10**8
    low = n.astype(np.int32)
    high = high.astype(np.int32)
    lead = high // 10**8
    high -= lead * 10**8
    groups = np.empty((4, x.size), np.int32)
    np.floor_divide(high, 10**4, out=groups[0])
    np.subtract(high, groups[0] * 10**4, out=groups[1])
    np.floor_divide(low, 10**4, out=groups[2])
    np.subtract(low, groups[2] * 10**4, out=groups[3])
    # a fraction group drops its trailing zeros when every later group is 0: in place, each group
    # becomes its row of _DIGITS4, v + 10000 when stripped, and group j + 1 reads 10000 where it and
    # every later group are 0
    groups[3] += 10000
    for j in (2, 1, 0):
        np.add(groups[j], 10000, out=groups[j], where=groups[j + 1] == 10000)
    # every table index below is in range where fast; "clip" keeps the other cells' harmless.
    # Digits at positions p > 4k are fraction digits in every fast cell, so only k words need a mask.
    fraction = np.take(_DIGITS4, groups, mode="clip")
    exp10 += 4  # from here X + 4, the tables' column of X
    if k:
        mask = np.take(_INTEGER_MASK[:k], exp10, axis=1, mode="clip")
        # an integer digit that stripping left as NUL is a 0: "0000" restores it
        integer = fraction[:k] | _ZEROS4
        integer &= mask
        out[:, 1:1 + k] = integer.T
        fraction[:k] &= ~mask
    point = fraction[0] | fraction[1] | fraction[2] | fraction[3]
    # one lookup for both words: the lead digit ends the head of |x| >= 1, and the mid word of
    # |x| < 1 after its zeros
    head_mid = np.signbit(x) * np.int32(2)
    head_mid += point != 0
    head_mid *= 21
    head_mid += exp10
    head_mid *= 10
    head_mid += lead
    words = np.take(_HEAD_MID, head_mid, mode="clip").view(np.uint32).reshape(-1, 2)
    out[:, 0] = words[:, 0]
    out[:, k + 1] = words[:, 1]
    for j in range(4):  # a store per word, each reading one contiguous row of ``fraction``
        out[:, k + 2 + j] = fraction[j]
    if not fast.all():
        slow = np.flatnonzero(~fast)
        text = [b",%.17g" % v for v in x[slow].tolist()]
        out[slow] = np.array(text, dtype=f"S{4 * out.shape[1]}").view(np.uint32).reshape(-1, out.shape[1])


def _g17_words(x) -> np.ndarray:
    """``"," + format(x_i, ".17g")`` for each x_i, as NUL-padded rows of ``_cell_words`` uint32 words."""
    x = np.ascontiguousarray(x, dtype=float).ravel()
    digits = _digits17(x)
    k = _integer_words(*digits[1:])
    out = np.zeros((x.size, _cell_words(k)), np.uint32)
    _g17_render(x, digits, k, out)
    return out


def _csv_table(header: str, *columns) -> str:
    """``header``, then one line of the float ``columns``, comma-separated, per row."""
    cells = np.column_stack(columns)
    words = _g17_words(cells)
    words.view(np.uint8)[:: cells.shape[1], 0] = ord("\n")  # each line opens with LF, not a comma
    return header + words.tobytes().translate(None, b"\0").decode("ascii") + "\n"


def _packed_words(x, lead: bytes):
    """``lead + format(x_i, ".17g")`` for each x_i, as rows of uint32 words NUL-padded to the longest,
    and the words of each row's own text."""
    cells = [lead + c for c in _g17_words(x).tobytes().translate(None, b"\0").split(b",")[1:]]
    widths = np.array([-(-len(c) // 4) for c in cells], dtype=np.int64)
    width = int(widths.max(initial=1))
    return np.array(cells, dtype=f"S{4 * width}").view(np.uint32).reshape(len(cells), width), widths


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


def _value_marks(data: bytes) -> int:
    """The commas, colons and opening brackets in ``data``: one before every JSON value or CSV field but the first."""
    return sum(map(data.count, (b",", b":", b"[", b"{")))


def read_text(path, what: str, max_marks: int) -> str:
    """The UTF-8 text of the ``what`` file at ``path``, read in binary up to ``_MAX_INPUT_BYTES`` + 1 bytes.

    Its value marks, which bound the values a parse of it makes, are
    counted before it is decoded.  A file that cannot be opened or read or
    is not UTF-8 raises :class:`InvalidConfig`; one past the byte budget or
    with more than ``max_marks`` value marks, :class:`ValidationError`.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read(_MAX_INPUT_BYTES + 1)
        if len(data) <= _MAX_INPUT_BYTES:
            check_budget(f"commas, colons and opening brackets in {what} {path}", _value_marks(data), max_marks)
            return data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidConfig(f"cannot read {what} {path}: {exc}") from exc
    raise ValidationError(f"{what} {path} exceeds the budget of {_MAX_INPUT_BYTES} bytes", _MAX_INPUT_BYTES)


def read_vector_file(path, space: WeightedStateSpace) -> np.ndarray:
    """The values of the :func:`vector_to_csv` file at ``path``, whose x and m columns must be the grid of ``space``.

    A file past its budgets raises :class:`ValidationError` before it is
    parsed; one of another size or grid, :class:`InvalidConfig`.
    """
    # an index,x,m,value file of the model's states has n + 1 lines of 3 commas, the header's too;
    # one more comma a line leaves a row with a field too many to be named by its line, and as
    # many blank lines again, which vector_from_csv skips, each cost it one more line object
    lines = space.size + 1
    text = read_text(path, "vector file", 4 * lines)
    check_budget(f"lines in vector file {path}", text.count("\n"), 2 * lines)
    grid, values = vector_from_csv(text)
    if values.size != space.size:
        raise InvalidConfig(f"vector file has {values.size} entries, model has {space.size}")
    for column, got, want in (("x", grid.points, space.points), ("m", grid.weights, space.weights)):
        if not np.array_equal(got, want):
            k = int(np.flatnonzero(got != want)[0])
            raise InvalidConfig(
                f"vector file column {column} is not the model grid: row {k}"
                f" has {float(got[k])!r}, the model {float(want[k])!r}"
            )
    return values


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
    set, about 170 bytes a chunk value (5.6 MB), does not grow with the
    number of times.
    """
    yield b"t,index,value"
    n = traj.values.shape[1]
    index, _ = _packed_words(np.arange(n), b",")
    rows = max(1, _CSV_CHUNK_CELLS // max(n, 1))
    block = rows * max(1, _CSV_CHUNK_CELLS // rows)
    for start in range(0, len(traj.times), block):
        stamps, stamp_words = _packed_words(traj.times[start:start + block], b"\n")
        for a in range(0, len(stamps), rows):
            chunk = traj.values[start + a:start + a + rows]
            x = np.ascontiguousarray(chunk, dtype=float).ravel()
            digits = _digits17(x)
            k = _integer_words(*digits[1:])
            stamp = int(stamp_words[a:a + rows].max())  # this chunk's widest stamp
            width = stamp + index.shape[1] + _cell_words(k)
            buf = bytearray(4 * width * x.size)  # ``lines`` renders in place: no copy before translate
            lines = np.frombuffer(buf, np.uint32).reshape(len(chunk), n, width)
            text = np.dtype((np.void, 4 * stamp))  # a stamp as one item, which numpy copies whole
            lines[..., :stamp].view(text)[...] = stamps[a:a + rows, None, :stamp].view(text)
            lines[..., stamp:stamp + index.shape[1]] = index
            _g17_render(x, digits, k, lines.reshape(-1, width)[:, stamp + index.shape[1]:])
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
