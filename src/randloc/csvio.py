"""CSV readers and writers shared by the CLI and the library.

One fixed dialect everywhere: UTF-8, comma separator, "\n" newlines,
floats printed with %.17g so a write/read cycle reproduces every float64
bit-exactly. Each file starts with `# key = value` metadata lines (sorted
by key, no timestamps), then the column header, then data. Byte-identical
reruns are a feature: nothing in these files depends on when they were
written. A table is moved into place only once it is complete, so an
interrupted write never leaves a truncated file behind.

How ``write_table`` makes the text: it takes the rows in blocks of
``_ROWS_PER_BLOCK``. Each column block becomes a uint8 matrix of cells,
padded with ``_PAD``, a byte that UTF-8 never contains. The cells of a
block's columns, with "," and "\n" between them, fill one byte buffer,
and one ``bytes.translate`` drops the padding. Float columns are widened
to float64, which is exact, and turned into text by numpy, with no Python
call per value, byte for byte as ``'%.17g' % v`` (``_float_cells``):

* E = floor(log10 |x|), and N = |x| 10^(16 - E) is formed as ``p + r``:
  p = fl(|x| hi) and r = the exact error of that product (Dekker's product
  of Veltkamp-split doubles) plus |x| lo, where hi + lo is 10^(16 - E) as a
  double-double from a table. r is off by about 1e-13 at most, against N
  in [1e16, 1e17).
* E moves by one where N falls outside [1e16, 1e17) (log10 can land one off
  near a power of ten), and N is formed again.
* D = N rounded to an integer holds the 17 significant digits; D = 1e17 (a
  carry) becomes 1e16 with E + 1. The digits come from integer division and
  a table of the four-digit groups "0000".."9999"; trailing zeros are
  dropped, and the text is laid out by C's %g rules: fixed notation for
  -4 <= E < 17, otherwise d.ddd then e+XX / e-XX with at least two exponent
  digits. The sign comes from the sign bit.

Nothing is guessed: zeros, subnormals, magnitudes below 1e-282 or from
1e298 up, inf, nan, and values whose N lies within 1e-7 of a rounding tie
(exact ties among them) are formatted by ``'%.17g' % v`` itself, once per
distinct bit pattern, and so are calls with fewer than 64 values, where
the fixed cost of the numpy path outweighs it. A float column block whose
values repeat (a spread sample of 1024 holds under 7/8 distinct values)
is formatted once per distinct bit pattern. Every other column goes
through ``format_value`` value by value. The lookup tables are built on
first use, in a few ms.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path

import numpy as np

from .udist import UDensity, UGrid

__all__ = [
    "atomic_writer",
    "format_value",
    "write_table",
    "read_table",
    "write_density",
    "read_density",
    "write_trajectory",
    "read_trajectory",
]


# Rows per block: a float cell takes 57 bytes of the block's buffer, so a
# block's buffer and temporaries stay at a few MB.
_ROWS_PER_BLOCK = 1 << 14
_FLOAT_FORMAT = "%.17g"
# A float block shorter than this, or whose spread sample of this many
# values holds under 7/8 distinct ones, is formatted once per distinct bit
# pattern.
_SAMPLE = 1024
_GOLDEN = 0.6180339887498949


def format_value(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _FLOAT_FORMAT % float(v)
    return str(v)


def write_table(path, columns: dict[str, np.ndarray], meta: dict | None = None) -> None:
    """Write named columns with sorted `# key = value` meta lines on top.

    The file is written through ``atomic_writer``, so a write that fails part
    way leaves any earlier file intact.
    """
    cols = {k: np.asarray(v) for k, v in columns.items()}
    lengths = {c.size for c in cols.values()}
    if len(lengths) > 1:
        raise ValueError(f"column lengths differ: { {k: c.size for k, c in cols.items()} }")
    lines = []
    for key in sorted(meta or {}):
        lines.append(f"# {key} = {format_value((meta or {})[key])}")
    lines.append(",".join(cols))
    n = lengths.pop() if lengths else 0
    series = list(cols.values())
    with atomic_writer(path, binary=True) as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))
        # one buffer for every block: a fresh one each block would have its
        # pages faulted in anew
        buf = bytearray()
        for lo in range(0, n, _ROWS_PER_BLOCK):
            _fill_rows(buf, [_column_cells(c[lo : lo + _ROWS_PER_BLOCK]) for c in series])
            fh.write(buf.translate(None, bytes([_PAD])))


def _fill_rows(buf: bytearray, cells: list[np.ndarray]) -> None:
    """The rows of the column cells, joined by "," and ended by a newline,
    into buf, resized to fit."""
    rows = cells[0].shape[0]
    width = sum(c.shape[1] + 1 for c in cells)
    if len(buf) < rows * width:
        buf.extend(bytes(rows * width - len(buf)))
    del buf[rows * width :]
    m = np.frombuffer(buf, np.uint8).reshape(rows, width)
    at = 0
    for c in cells:
        m[:, at : at + c.shape[1]] = c
        at += c.shape[1]
        m[:, at] = ord(",")
        at += 1
    m[:, -1] = ord("\n")


def _column_cells(block: np.ndarray) -> np.ndarray:
    """One column block as a uint8 matrix of UTF-8 cells padded with _PAD,
    each reading as format_value writes it.

    A float block with repeated values formats each distinct bit pattern
    once, so -0.0 and 0.0 keep their own text, and its cells are compacted
    before they are repeated.
    """
    if not np.issubdtype(block.dtype, np.floating):
        texts = [format_value(v).encode("utf-8") for v in block]
        return _padded(texts, max(map(len, texts), default=0))
    x = np.ascontiguousarray(block, dtype=np.float64)
    bits = x.view(np.uint64)
    if _repeats(bits):
        bits, which = np.unique(bits, return_inverse=True)
        return _compact(_float_cells(bits.view(np.float64)))[which]
    return _float_cells(x)


def _repeats(bits: np.ndarray) -> bool:
    """Whether a spread sample of the block repeats itself enough to pay
    for formatting each distinct value once. Sorting a block whose values
    are all distinct would add about a fifth to formatting it."""
    if bits.size <= _SAMPLE:
        return True
    sample = np.sort(bits[_sample_at(bits.size)])
    # np.unique would do, but its first call without return_inverse imports
    # numpy.ma, about 30 ms
    return 8 * (1 + np.count_nonzero(sample[1:] != sample[:-1])) < 7 * _SAMPLE


@lru_cache(maxsize=4)
def _sample_at(n: int) -> np.ndarray:
    """_SAMPLE positions spread over n by the golden-ratio sequence, so that
    they fall on a periodic column as if at random."""
    return (np.arange(_SAMPLE) * _GOLDEN % 1.0 * n).astype(np.intp)


# The text of float64 values: _float_cells and its helpers.

_PAD = 0xFF  # never part of UTF-8 text
# Slots of one value, 7 words of 8 bytes so that the digit runs are whole
# words: the sign, the "0.000" prefix of -4 <= E < 0, an unused slot, the
# integer digits d0 .. d16 (bytes 7-23), the decimal point and 7 unused
# slots, the fraction digits d1 .. d16 (bytes 32-47), the exponent suffix
# and 3 unused slots. Digit k of D sits in both runs; each run masks the
# digits it does not show.
_WIDTH = 56
_LEAD = 7
_POINT = 24
_FRAC = 31  # where the fraction run's (never shown) digit 0 would sit
_INT_WORDS = (1, 2)
_FRAC_WORDS = (4, 5)
_EXP_WORD = 6

_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's splitter for float64
_TIE_MARGIN = 1e-7
# Magnitudes of the fast path: x 2^27 stays finite, and with E one off
# either way the powers 10^k, k = 16 - E, stay in the table, whose hi parts
# split into normal halves.
_A_MIN, _A_MAX = 1e-282, 1e298
_K_MIN, _K_MAX = 16 - 299, 16 + 284
# Exponent suffixes cover the exponents of the table plus a carry.
_E_MIN, _E_MAX = 16 - _K_MAX, 16 - _K_MIN + 1
# Layout classes: fixed notation with E = -4 .. 16, then exponent notation.
_EXP_CLASS = 21
_CHUNK = 4096
_FEW = 64


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: a = hi + lo exactly, each half of at most 26 bits."""
    c = a * _SPLIT
    hi = c - (c - a)
    return hi, a - hi


def _padded(texts: list[bytes], width: int) -> np.ndarray:
    """One row of width bytes per text, _PAD after the text."""
    return np.frombuffer(
        b"".join(t.ljust(width, bytes([_PAD])) for t in texts), np.uint8
    ).reshape(len(texts), width)


def _compact(cells: np.ndarray) -> np.ndarray:
    """The cells with their text moved to the front of each row and the
    columns that only hold _PAD then cut: worth it where the cells are few
    and their rows get repeated."""
    text = cells != _PAD
    at = np.cumsum(text, axis=1) - 1
    rows, cols = np.nonzero(text)
    out = np.full((cells.shape[0], int(at[:, -1].max(initial=-1)) + 1), _PAD, np.uint8)
    out[rows, at[rows, cols]] = cells[rows, cols]
    return out


@lru_cache(maxsize=1)
def _tables():
    """The powers of ten, rows (hi, hi's two halves, lo) over k = _K_MIN ..
    _K_MAX; the four-digit groups as uint32 and their trailing zeros; the
    slot masks as words by (layout class, significant digits); and the
    exponent suffixes as words and the layout classes of E = _E_MIN ..
    _E_MAX."""
    powers = np.empty((4, _K_MAX - _K_MIN + 1))
    big = 1  # 10^k exactly; int -> float and int / int round correctly
    for k in range(_K_MAX + 1):
        hi = float(big)
        powers[0, k - _K_MIN] = hi
        powers[3, k - _K_MIN] = float(big - int(hi))
        if 0 < k <= -_K_MIN:
            powers[0, -k - _K_MIN] = 1 / big
        big *= 10
    # lo of 10^-m is (1 - hi 10^m) / 10^m, where hi 10^m = p + err exactly
    # (Dekker) and 1 - p is exact, so it is good to a few units in its last
    # place
    m = np.arange(1, 1 - _K_MIN)
    hi, big_hi, big_lo = powers[0, -m - _K_MIN], powers[0, m - _K_MIN], powers[3, m - _K_MIN]
    p = hi * big_hi
    err = _exact_error(hi, big_hi, p)
    powers[3, -m - _K_MIN] = (((1.0 - p) - err) - hi * big_lo) / big_hi
    powers[1], powers[2] = _split(powers[0])

    # digit j of the group abcd is its index j
    groups = np.empty((10, 10, 10, 10, 4), np.uint8)
    for j in range(4):
        groups[..., j] = (np.arange(10) + ord("0")).reshape([10 if a == j else 1 for a in range(4)])
    v = np.arange(10000)
    trailing = (v % 10 == 0).astype(np.int64) + (v % 100 == 0) + (v % 1000 == 0) + (v == 0)
    masks = _masks().reshape(-1, _WIDTH).view(np.uint64)
    e = np.arange(_E_MIN, _E_MAX + 1)
    fixed = (e >= -4) & (e < 17)
    classes = np.where(fixed, e + 4, _EXP_CLASS)
    # "e+XX" and "e-XXX": at least two exponent digits
    a = np.abs(e)
    three = a >= 100
    exps = np.full((e.size, 8), _PAD, np.uint8)
    exps[:, 0] = ord("e")
    exps[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    exps[:, 2] = np.where(three, a // 100, a // 10) + ord("0")
    exps[:, 3] = np.where(three, a // 10 % 10, a % 10) + ord("0")
    exps[three, 4] = a[three] % 10 + ord("0")
    exps[fixed] = _PAD
    groups = groups.reshape(-1).view(np.uint32)
    return powers, groups, trailing, masks, exps.view(np.uint64)[:, 0], classes


def _masks() -> np.ndarray:
    """The slots of a value by (layout class, significant digits nd): 0
    where a digit of D or the exponent suffix is ORed in, _PAD where nothing
    goes, else the text. Class c < _EXP_CLASS is fixed notation with
    exponent c - 4, and the integer run shows digits [0, i), the fraction
    run digits [f, g): d.ddd shows [0, 1) and [1, nd), 0.000ddd [0, nd)
    after its prefix, ddd.ddd [0, e + 1) and [e + 1, nd)."""
    e = np.arange(_EXP_CLASS + 1)[:, None] - 4
    nd = np.arange(18)
    fixed = e < _EXP_CLASS - 4
    i = np.where(fixed, np.where(e < 0, nd, e + 1), 1)
    f = np.where(fixed, np.where(e < 0, 0, e + 1), 1)
    g = np.where(fixed & (e < 0), 0, nd)
    k = np.arange(17)
    rows = np.full((_EXP_CLASS + 1, nd.size, _WIDTH), _PAD, np.uint8)
    rows[..., _LEAD : _LEAD + 17][k < i[..., None]] = 0
    rows[..., _FRAC : _FRAC + 17][(f[..., None] <= k) & (k < g[..., None])] = 0
    rows[..., _POINT][g > f] = ord(".")
    for c in range(4):  # E = -4 .. -1
        prefix = b"0." + b"0" * (3 - c)
        rows[c, :, 1 : 1 + len(prefix)] = np.frombuffer(prefix, np.uint8)
    rows[..., 8 * _EXP_WORD :] = 0
    return rows


def _exact_error(a, b, p, b_halves=None):
    """a b - p exactly, for p = fl(a b): Dekker's product over Veltkamp
    halves."""
    ah, al = _split(a)
    bh, bl = _split(b) if b_halves is None else b_halves
    err = ah * bh - p
    err += ah * bl
    err += al * bh
    err += al * bl
    return err


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """N = a 10^(16 - e) as p + r: p = fl(a hi), and r the exact error of
    that product plus a lo."""
    k = 16 - _K_MIN - e  # clipped to the table; an E out of range is caught later
    hi, hh, hl, lo = (row.take(k, mode="clip") for row in _tables()[0])
    p = a * hi
    r = _exact_error(a, hi, p, (hh, hl))
    r += a * lo
    return p, r


def _float_cells(x: np.ndarray) -> np.ndarray:
    """The text of the float64 values x, one row of _WIDTH slots per value.

    Fewer than _FEW values cost less through '%.17g' itself than through
    the fast path's fixed cost. The fast path runs on chunks of _CHUNK
    values, whose temporaries are small enough to be reused from chunk to
    chunk rather than faulted in anew."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.size < _FEW:
        return _slow_cells(x)
    a = np.abs(x)
    fast = (a >= _A_MIN) & (a < _A_MAX)  # False for 0, subnormals, inf, nan
    rows = None if fast.all() else np.flatnonzero(fast)
    if rows is not None:
        a = a[rows]
    cells = np.empty((a.size, _WIDTH), np.uint8)
    slow = [np.empty(0, np.intp)]
    for lo in range(0, a.size, _CHUNK):
        slow.append(lo + _fast_cells(a[lo : lo + _CHUNK], cells[lo : lo + _CHUNK]))
    slow = np.concatenate(slow)
    if rows is not None:
        cells, packed = np.empty((x.size, _WIDTH), np.uint8), cells
        cells[rows] = packed
        slow = np.concatenate((rows[slow], np.flatnonzero(~fast)))
    cells[np.signbit(x), 0] = ord("-")
    if slow.size:
        cells[slow] = _slow_cells(x[slow])
    return cells


def _fast_cells(a: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Cells of the positive fast-path values a, without their sign, into
    cells; returns the rows that ``_slow_cells`` has to redo."""
    _, groups, trailing, masks, exps, classes = _tables()
    n = a.size
    e = np.floor(np.log10(a)).astype(np.int64)
    p, r = _scaled(a, e)
    step = ((p - 1e17) + r >= 0.0).astype(np.int64) - ((p - 1e16) + r < 0.0)
    moved = np.flatnonzero(step)
    outside = np.zeros(n, bool)
    if moved.size:
        e[moved] += step[moved]
        pm, rm = p[moved], r[moved] = _scaled(a[moved], e[moved])
        outside[moved] = ((pm - 1e17) + rm >= 0.0) | ((pm - 1e16) + rm < 0.0)
    # p >= 2^53 is a whole number, so N = p + floor(r) + the fraction of r
    whole = np.floor(r)
    r -= whole
    slow = np.flatnonzero(outside | (np.abs(r - 0.5) < _TIE_MARGIN))
    d = p.astype(np.int64) + whole.astype(np.int64) + (r > 0.5)
    carry = d == 10**17
    d[carry] = 10**16
    e += carry

    # floor division by a scalar runs far faster in numpy than divmod does
    top = d // 10**8
    low = d - top * 10**8
    lead = top // 10**8
    high = top - lead * 10**8
    quads = np.empty((n, 4), np.int64)
    for k, v in ((0, high), (2, low)):
        quads[:, k] = v // 10**4
        quads[:, k + 1] = v - quads[:, k] * 10**4
    # significant digits: 17 less D's trailing zeros (its first digit is not 0)
    tz = trailing.take(quads)
    nd = 17 - tz[:, 3]
    tail = tz[:, 3] == 4
    for k in (2, 1, 0):
        nd -= tail * tz[:, k]
        tail &= tz[:, k] == 4

    cls = classes.take(e - _E_MIN, mode="clip")
    words = cells.view(np.uint64)
    masks.take(cls * 18 + nd, axis=0, out=words, mode="clip")  # "raise" would buffer
    quads = groups.take(quads).view(np.uint64)
    for w, q in zip(_INT_WORDS + _FRAC_WORDS, (0, 1, 0, 1)):
        words[:, w] |= quads[:, q]
    words[:, _EXP_WORD] |= exps.take(e - _E_MIN, mode="clip")
    cells[:, _LEAD] |= (lead + ord("0")).astype(np.uint8)
    return slow


def _slow_cells(x: np.ndarray) -> np.ndarray:
    """Cells of '%.17g' % v, formatted once per distinct bit pattern."""
    bits, which = np.unique(x.view(np.uint64), return_inverse=True)
    texts = [(_FLOAT_FORMAT % v).encode() for v in bits.view(np.float64).tolist()]
    return _padded(texts, _WIDTH)[which]


@contextmanager
def atomic_writer(path, binary: bool = False):
    """Open a file (UTF-8 text, or bytes when binary) that replaces path
    only once the with-block completes.

    The output goes to a temporary file beside path, which then replaces
    path in one step: a write that fails part way leaves any earlier file
    intact and removes the temporary file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with (open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8", newline="\n")) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_table(path) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """Inverse of write_table; meta values come back as raw strings."""
    meta: dict[str, str] = {}
    header: list[str] | None = None
    rows: list[list[str]] = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, val = body.partition("=")
                meta[key.strip()] = val.strip()
            continue
        if header is None:
            header = [c.strip() for c in line.split(",")]
            continue
        rows.append(line.split(","))
    if header is None:
        raise ValueError(f"{path}: no header row found")
    data = np.asarray(rows, dtype=float) if rows else np.empty((0, len(header)))
    return {name: data[:, k] for k, name in enumerate(header)}, meta


def write_density(path, density: UDensity, meta: dict | None = None) -> None:
    write_table(path, {"u": density.grid.nodes(), "p": density.values}, meta)


def read_density(path) -> tuple[UDensity, dict[str, str]]:
    cols, meta = read_table(path)
    if set(cols) != {"u", "p"}:
        raise ValueError(f"{path}: expected columns u,p got {sorted(cols)}")
    u = cols["u"]
    if u.size < 2 or u[0] != 0.0:
        raise ValueError(f"{path}: node column must start at 0 with >= 2 nodes")
    grid = UGrid(u_max=float(u[-1]), n_bins=u.size - 1)
    if np.max(np.abs(grid.nodes() - u)) > 1e-9 * max(1.0, float(u[-1])):
        raise ValueError(f"{path}: nodes are not uniformly spaced")
    return UDensity(grid, cols["p"]), meta


def write_trajectory(path, taus, values, meta: dict | None = None, names=("tau", "g")) -> None:
    write_table(path, {names[0]: np.asarray(taus), names[1]: np.asarray(values)}, meta)


def read_trajectory(path, names=("tau", "g")) -> tuple[np.ndarray, np.ndarray, dict[str, str]]:
    cols, meta = read_table(path)
    if set(names) - set(cols):
        raise ValueError(f"{path}: expected columns {names} got {sorted(cols)}")
    return cols[names[0]], cols[names[1]], meta
