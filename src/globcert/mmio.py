"""Matrix Market exchange-format reader/writer for dense complex matrices.

Supports ``array`` and ``coordinate`` formats with ``real`` or ``complex``
fields and ``general`` symmetry only.  Array data is column-major per the
format definition; coordinate indices are 1-based.  The writer emits entries
with 17 significant digits so values round-trip exactly.
"""

from __future__ import annotations

import numpy as np

from .linalg import as_complex_matrix

__all__ = ["MatrixMarketError", "read_matrix", "write_matrix"]


class MatrixMarketError(ValueError):
    """Malformed Matrix Market content; message carries the line number."""


def read_matrix(path) -> np.ndarray:
    """Parse a Matrix Market file into a dense complex matrix."""
    # the format is ASCII; a byte above 0x7f reads as a lone surrogate, so
    # that the error below can name its line
    with open(path, encoding="ascii", errors="surrogateescape") as fh:
        lines = fh.readlines()
    for lineno, ln in enumerate(lines, start=1):
        if not ln.isascii():
            raise MatrixMarketError(f"{path}: line {lineno}: non-ASCII byte")
    if not lines:
        raise MatrixMarketError(f"{path}: line 1: empty file")
    head = lines[0].strip().split()
    if len(head) != 5 or head[0] != "%%MatrixMarket" or head[1].lower() != "matrix":
        raise MatrixMarketError(f"{path}: line 1: bad header {lines[0].strip()!r}")
    fmt, field, symmetry = head[2].lower(), head[3].lower(), head[4].lower()
    if fmt not in ("array", "coordinate"):
        raise MatrixMarketError(f"{path}: line 1: unsupported format {fmt!r}")
    if field not in ("real", "complex", "integer"):
        raise MatrixMarketError(f"{path}: line 1: unsupported field {field!r}")
    if symmetry != "general":
        raise MatrixMarketError(f"{path}: line 1: only general symmetry is supported")

    body = [
        (i + 1, ln.strip()) for i, ln in enumerate(lines[1:], start=1)
        if ln.strip() and not ln.lstrip().startswith("%")
    ]
    # a missing line is reported at the line after the last one
    end = len(lines) + 1
    if not body:
        raise MatrixMarketError(f"{path}: line {end}: missing size line")
    size_no, size_line = body[0]
    parts = size_line.split()
    want = 2 if fmt == "array" else 3
    if len(parts) != want:
        raise MatrixMarketError(f"{path}: line {size_no}: expected {want} size fields")
    try:
        dims = [int(p) for p in parts]
    except ValueError:
        raise MatrixMarketError(f"{path}: line {size_no}: non-integer size") from None
    rows, cols = dims[0], dims[1]
    if rows < 1 or cols < 1:
        raise MatrixMarketError(f"{path}: line {size_no}: empty dimensions")
    m = np.zeros((rows, cols), dtype=np.complex128)

    def parse_value(fields, lineno):
        try:
            if field == "complex":
                if len(fields) != 2:
                    raise ValueError
                return complex(float(fields[0]), float(fields[1]))
            if len(fields) != 1:
                raise ValueError
            return complex(float(fields[0]), 0.0)
        except ValueError:
            raise MatrixMarketError(
                f"{path}: line {lineno}: bad {field} value {' '.join(fields)!r}"
            ) from None

    entries = body[1:]
    count = rows * cols if fmt == "array" else dims[2]
    if len(entries) != count:
        # the first surplus entry, or the end of the file
        lineno = entries[count][0] if 0 <= count < len(entries) else end
        raise MatrixMarketError(
            f"{path}: line {lineno}: expected {count} {fmt} entries, got {len(entries)}"
        )
    if fmt == "array":
        for k, (lineno, ln) in enumerate(entries):
            j, i = divmod(k, rows)  # column-major
            m[i, j] = parse_value(ln.split(), lineno)
    else:
        for lineno, ln in entries:
            fields = ln.split()
            if len(fields) < 3:
                raise MatrixMarketError(f"{path}: line {lineno}: short entry")
            try:
                i, j = int(fields[0]), int(fields[1])
            except ValueError:
                raise MatrixMarketError(
                    f"{path}: line {lineno}: non-integer indices"
                ) from None
            if not (1 <= i <= rows and 1 <= j <= cols):
                raise MatrixMarketError(f"{path}: line {lineno}: index out of range")
            m[i - 1, j - 1] = parse_value(fields[2:], lineno)
    return as_complex_matrix(m)


def write_matrix(path, m, fmt: str = "array") -> None:
    """Write a dense complex matrix in the chosen Matrix Market format."""
    m = as_complex_matrix(m)
    rows, cols = m.shape
    if fmt not in ("array", "coordinate"):
        raise ValueError(f"unsupported format {fmt!r}")
    is_complex = bool(np.any(m.imag != 0.0))
    field = "complex" if is_complex else "real"

    def fval(z):
        if is_complex:
            return f"{z.real:.17g} {z.imag:.17g}"
        return f"{z.real:.17g}"

    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"%%MatrixMarket matrix {fmt} {field} general\n")
        if fmt == "array":
            fh.write(f"{rows} {cols}\n")
            for j in range(cols):
                for i in range(rows):
                    fh.write(fval(m[i, j]) + "\n")
        else:
            nz = [(i, j) for j in range(cols) for i in range(rows) if m[i, j] != 0.0]
            fh.write(f"{rows} {cols} {len(nz)}\n")
            for i, j in nz:
                fh.write(f"{i + 1} {j + 1} {fval(m[i, j])}\n")
