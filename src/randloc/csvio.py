"""CSV readers and writers shared by the CLI and the library.

One fixed dialect everywhere: UTF-8, comma separator, "\n" newlines,
floats printed with %.17g so a write/read cycle reproduces every float64
bit-exactly. Each file starts with `# key = value` metadata lines (sorted
by key, no timestamps), then the column header, then data. Byte-identical
reruns are a feature: nothing in these files depends on when they were
written. A table is moved into place only once it is complete, so an
interrupted write never leaves a truncated file behind.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from itertools import chain
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


# Rows formatted per block: bounds the Python objects a long table holds at once.
_ROWS_PER_BLOCK = 1 << 16
_FLOAT_FORMAT = "%.17g"


def format_value(v) -> str:
    if isinstance(v, bool):
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
    with atomic_writer(path) as fh:
        fh.write("\n".join(lines) + "\n")
        for lo in range(0, n, _ROWS_PER_BLOCK):
            specs, cells = zip(*(_column_cells(c[lo : lo + _ROWS_PER_BLOCK]) for c in series))
            rows = len(cells[0])
            # one format call writes the whole block
            row_format = ",".join(specs) + "\n"
            fh.write((row_format * rows) % tuple(chain.from_iterable(zip(*cells))))


def _column_cells(block: np.ndarray) -> tuple[str, list]:
    """One column block as a format spec and the values it formats, so that
    each value reads as format_value writes it.

    A float block with fewer than a quarter distinct values formats each
    distinct bit pattern once, so -0.0 and 0.0 keep their own text; other
    float blocks go to the row format as floats.
    """
    if not np.issubdtype(block.dtype, np.floating):
        return "%s", [format_value(v) for v in block]
    if block.dtype.itemsize <= 8:
        bits, which = np.unique(block.view(f"u{block.itemsize}"), return_inverse=True)
        if 4 * bits.size < block.size:
            text = [_FLOAT_FORMAT % v for v in bits.view(block.dtype).tolist()]
            return "%s", np.array(text, dtype=object)[which].tolist()
    return _FLOAT_FORMAT, block.tolist()


@contextmanager
def atomic_writer(path):
    """Open a text file that replaces path only once the with-block completes.

    The text goes to a temporary file beside path, which then replaces path
    in one step: a write that fails part way leaves any earlier file intact
    and removes the temporary file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
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
