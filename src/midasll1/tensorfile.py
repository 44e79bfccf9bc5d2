"""On-disk formats: binary tensor/matrix files and the CSV import path.

Tensor file layout:
    ASCII header line  b"DTENSOR 1 <I1> <I2> <I3>\\n"
    followed by I1*I2*I3 little-endian float64 values in column-major order
    (index i1 fastest).

Matrix files use the analogous header b"DMATRIX 1 <rows> <cols>\\n" with
column-major float64 payload.  Every payload value must be finite; the
readers report the byte offset of the first one that is not.
"""

from __future__ import annotations

import math
import os
import stat

import numpy as np

from .tensor import DenseTensor3, all_finite

TENSOR_MAGIC = b"DTENSOR 1"
MATRIX_MAGIC = b"DMATRIX 1"


class FormatError(ValueError):
    """Malformed file; `offset` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset


def _read_header(line: bytes, magic: bytes, n_dims: int, path: str) -> tuple[int, ...]:
    header = line[:-1]
    parts = header.split(b" ")
    if parts[:2] != magic.split(b" "):
        raise FormatError(f"{path}: bad magic {header[:len(magic)]!r}", 0)
    if len(parts) != 2 + n_dims:
        raise FormatError(f"{path}: expected {n_dims} dimensions in header", len(magic))
    dims = []
    for p in parts[2:]:
        try:
            d = int(p)
        except ValueError:
            raise FormatError(f"{path}: non-integer dimension {p!r}", header.find(p)) from None
        if d <= 0:
            raise FormatError(f"{path}: nonpositive dimension {d}", header.find(p))
        dims.append(d)
    return tuple(dims)


def _read_file(path, magic: bytes, n_dims: int) -> tuple[tuple[int, ...], np.ndarray, int]:
    """Header dims, the payload as a new aligned float64 array and the
    payload's byte offset.  The payload is read straight into that array; for
    a regular file, only after the file size has been checked against the
    header.  A pipe has no size, so its length is checked as it is read."""
    with open(path, "rb") as fh:
        line = fh.readline()
        if not line.endswith(b"\n"):
            raise FormatError(f"{path}: missing header newline", len(line))
        dims = _read_header(line, magic, n_dims, str(path))
        start, count = len(line), math.prod(dims)
        st = os.fstat(fh.fileno())
        if stat.S_ISREG(st.st_mode) and st.st_size - start != 8 * count:
            raise FormatError(
                f"{path}: payload has {st.st_size - start} bytes, expected {8 * count}", start
            )
        flat = np.empty(count, dtype="<f8")
        got = fh.readinto(flat)
        got += len(fh.read())  # whatever follows the payload: a wrong length
    if got != 8 * count:
        raise FormatError(f"{path}: payload has {got} bytes, expected {8 * count}", start)
    return dims, flat, start


def _nonfinite_error(flat: np.ndarray, start: int, path: str) -> FormatError:
    i = int(np.argmax(~np.isfinite(flat)))
    return FormatError(f"{path}: non-finite value {float(flat[i])!r}", start + 8 * i)


def _write_file(path, header: str, values: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(header.encode())
        # column-major little-endian float64: a view of F-ordered float64 data
        fh.write(np.asarray(values, dtype="<f8").ravel(order="F"))


def write_tensor(path, t: DenseTensor3) -> None:
    i1, i2, i3 = t.dims
    _write_file(path, f"DTENSOR 1 {i1} {i2} {i3}\n", t.array)


def read_tensor(path) -> DenseTensor3:
    dims, flat, start = _read_file(path, TENSOR_MAGIC, 3)
    try:
        return DenseTensor3.from_flat(flat, dims)
    except ValueError:
        # header and payload size are checked, so only a non-finite entry is left
        raise _nonfinite_error(flat, start, str(path)) from None


def write_matrix(path, m: np.ndarray) -> None:
    m = np.asarray(m, dtype=np.float64)
    rows, cols = m.shape
    _write_file(path, f"DMATRIX 1 {rows} {cols}\n", m)


def read_matrix(path) -> np.ndarray:
    (rows, cols), flat, start = _read_file(path, MATRIX_MAGIC, 2)
    if not all_finite(flat):
        raise _nonfinite_error(flat, start, str(path))
    return flat.reshape((rows, cols), order="F")


def read_tensor_csv(path) -> DenseTensor3:
    """Interop import: lines "i1,i2,i3,value" with 1-based integer indices,
    one line per entry; blank lines and '#' comments are skipped.

    A malformed line, an index that is not an integer from 1 to the number
    of entry lines, a non-finite value or an index triple given twice raises
    ValueError naming the 1-based line; so does a missing entry, naming none.
    """
    lines, rows = [], []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            parts = text.split(",")
            try:
                if len(parts) != 4:
                    raise ValueError(f"expected 4 columns (i1,i2,i3,value), got {len(parts)}")
                rows.append([float(p) for p in parts])
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            lines.append(lineno)
    if not rows:
        raise ValueError(f"{path}: no entries")
    data = np.array(rows)
    idx = data[:, :3]

    def reject(bad, message):
        if bad.any():
            first = int(np.argmax(bad))
            raise ValueError(f"{path}: line {lines[first]}: {message(first)}")

    reject(~(np.isfinite(idx) & (idx == np.round(idx))).all(axis=1),
           lambda _: "indices must be integers")
    reject((idx < 1).any(axis=1), lambda _: "indices must be >= 1")
    reject((idx > len(rows)).any(axis=1),
           lambda _: f"indices must be <= {len(rows)}, the number of entry lines")
    reject(~np.isfinite(data[:, 3]), lambda i: f"value {float(data[i, 3])!r} must be finite")
    idx = idx.astype(np.intp) - 1
    # sorted by triple, equal triples in line order: each repeat follows its predecessor
    order = np.lexsort(idx.T[::-1])
    repeat = np.zeros(len(rows), dtype=bool)
    repeat[order[1:]] = (idx[order[1:]] == idx[order[:-1]]).all(axis=1)
    before = np.empty(len(rows), dtype=np.intp)
    before[order[1:]] = order[:-1]
    reject(repeat, lambda i: f"index triple already given on line {lines[before[i]]}")
    dims = tuple(int(d) for d in idx.max(axis=0) + 1)
    if len(rows) != dims[0] * dims[1] * dims[2]:
        raise ValueError(f"{path}: expected one row per entry of a {dims} tensor")
    cube = np.zeros(dims)
    cube[idx[:, 0], idx[:, 1], idx[:, 2]] = data[:, 3]
    return DenseTensor3(cube)
