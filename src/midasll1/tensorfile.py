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

import numpy as np

from .tensor import DenseTensor3

TENSOR_MAGIC = b"DTENSOR 1"
MATRIX_MAGIC = b"DMATRIX 1"


class FormatError(ValueError):
    """Malformed file; `offset` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset


def _read_header(raw: bytes, magic: bytes, n_dims: int, path: str) -> tuple[tuple[int, ...], int]:
    nl = raw.find(b"\n")
    if nl < 0:
        raise FormatError(f"{path}: missing header newline", len(raw))
    header = raw[:nl]
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
    return tuple(dims), nl + 1


def _read_payload(raw: bytes, start: int, count: int, path: str) -> np.ndarray:
    expected = 8 * count
    if len(raw) - start != expected:
        raise FormatError(
            f"{path}: payload has {len(raw) - start} bytes, expected {expected}", start
        )
    return np.frombuffer(raw[start:], dtype="<f8").astype(np.float64)


def _nonfinite_error(flat: np.ndarray, start: int, path: str) -> FormatError:
    i = int(np.argmax(~np.isfinite(flat)))
    return FormatError(f"{path}: non-finite value {float(flat[i])!r}", start + 8 * i)


def write_tensor(path, t: DenseTensor3) -> None:
    i1, i2, i3 = t.dims
    with open(path, "wb") as fh:
        fh.write(f"DTENSOR 1 {i1} {i2} {i3}\n".encode())
        fh.write(t.flat.astype("<f8").tobytes())


def read_tensor(path) -> DenseTensor3:
    with open(path, "rb") as fh:
        raw = fh.read()
    dims, start = _read_header(raw, TENSOR_MAGIC, 3, str(path))
    flat = _read_payload(raw, start, dims[0] * dims[1] * dims[2], str(path))
    try:
        return DenseTensor3.from_flat(flat, dims)
    except ValueError:
        # header and payload size are checked, so only a non-finite entry is left
        raise _nonfinite_error(flat, start, str(path)) from None


def write_matrix(path, m: np.ndarray) -> None:
    m = np.asarray(m, dtype=np.float64)
    rows, cols = m.shape
    with open(path, "wb") as fh:
        fh.write(f"DMATRIX 1 {rows} {cols}\n".encode())
        fh.write(m.ravel(order="F").astype("<f8").tobytes())


def read_matrix(path) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    (rows, cols), start = _read_header(raw, MATRIX_MAGIC, 2, str(path))
    flat = _read_payload(raw, start, rows * cols, str(path))
    if not np.isfinite(flat).all():
        raise _nonfinite_error(flat, start, str(path))
    return flat.reshape((rows, cols), order="F")


def read_tensor_csv(path) -> DenseTensor3:
    """Interop import: lines "i1,i2,i3,value" with 1-based integer indices,
    one line per entry; blank lines and '#' comments are skipped.

    A malformed line, a non-integer or nonpositive index, a non-finite value
    or an index triple given twice raises ValueError naming the 1-based line;
    so does a missing entry, naming none.
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
